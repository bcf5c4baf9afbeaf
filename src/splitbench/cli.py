"""Command-line surface: JSON file formats and subcommands.

Algebras and ordered sets travel as JSON objects; "-" means stdin, and
every command writes JSON to stdout so commands compose by piping.
Exit codes: 0 success, 1 validation failure, 2 property or witness not
found, 3 input/format/size trouble.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict

from . import diagram as diagram_mod
from . import duality, filtration, hplus_witness, residuated
from .errors import FormatError, SizeError, SplitbenchError
from .lattice import FinLattice, all_splitting_pairs
from .poset import (DEFAULT_UPSET_CAP, DoublePointedPoset, FinPoset,
                    MAX_POSET_SIZE, bits, find_tails, is_connected,
                    is_fence, order_isolated, power_chain, relation_rows,
                    searrow, transitive_closure)

SCHEMA = 1

ENV_MAX_POSET = "SPLITBENCH_MAX_POSET"
ENV_MAX_UPSETS = "SPLITBENCH_MAX_UPSETS"
ENV_BUDGET = "SPLITBENCH_BUDGET"

# The cap flags, by argument name: (name, environment variable, default).
_CAPS = (("max_poset", ENV_MAX_POSET, MAX_POSET_SIZE),
         ("max_upsets", ENV_MAX_UPSETS, DEFAULT_UPSET_CAP),
         ("budget", ENV_BUDGET, duality.MORPHISM_BUDGET))


# -- file formats ----------------------------------------------------------


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            obj = json.load(sys.stdin)
        else:
            with open(path) as fh:
                obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers JSON and UTF-8 decode errors and the int digit
        # limit; RecursionError a nesting too deep for the parser
        raise FormatError(str(exc)) from None
    if not isinstance(obj, dict):
        raise FormatError("top-level JSON value is not an object")
    return obj


def _check_elements(values, size: int, where: str):
    """Each value must be an int element index (bools are refused);
    ``where.format(k)`` names the position of value k."""
    for k, v in enumerate(values):
        if type(v) is not int or not 0 <= v < size:
            raise FormatError(f"{where.format(k)} = {v!r} is not an "
                              f"element index below {size}")


def _check_size(obj, what: str) -> int:
    size = obj.get("size")
    if type(size) is not int or size < 1:
        raise FormatError(f"{what} size = {size!r} is not a positive integer")
    return size


def poset_to_json(p: FinPoset, bot: int | None = None,
                  top: int | None = None) -> dict:
    out = {"schema": SCHEMA, "kind": "poset", "size": p.size,
           "le": [[a, b] for a, b in sorted(p.covers())]}
    if bot is not None:
        out["bot"] = bot
    if top is not None:
        out["top"] = top
    return out


def poset_from_json(obj, max_size: int) -> tuple[FinPoset, int | None, int | None]:
    if obj.get("kind") != "poset":
        raise FormatError("expected a poset object")
    size = _check_size(obj, "poset")
    if size > max_size:
        raise SizeError(f"poset size {size} exceeds cap {max_size}")
    le = obj.get("le", [])
    if not isinstance(le, list):
        raise FormatError("le is not a list")
    rows = [1 << i for i in range(size)]
    for k, pair in enumerate(le):
        if not isinstance(pair, list) or len(pair) != 2:
            raise FormatError(f"le[{k}] is not a pair")
        _check_elements(pair, size, f"le[{k}][{{}}]")
        rows[pair[0]] |= 1 << pair[1]
    p = FinPoset(transitive_closure(rows))
    bot, top = obj.get("bot"), obj.get("top")
    for name, v in (("bot", bot), ("top", top)):
        if v is not None:
            _check_elements([v], size, name)
    return p, bot, top


def load_double_pointed(obj, max_size: int) -> DoublePointedPoset:
    p, bot, top = poset_from_json(obj, max_size)
    if bot is None or top is None:
        raise FormatError("bot and top are required for this command")
    return DoublePointedPoset(p, bot, top)


def algebra_to_json(alg, kind: str, labels=None) -> dict:
    sig = diagram_mod.KINDS[kind]
    elements = list(alg.elements)
    index = {e: i for i, e in enumerate(elements)}
    out = {"schema": SCHEMA, "kind": kind, "size": len(elements)}
    for key, meth in sig.binary:
        fn = getattr(alg, meth)
        out[key] = [[index[fn(a, b)] for b in elements] for a in elements]
    for key, meth in sig.unary:
        fn = getattr(alg, meth)
        out[key] = [index[fn(a)] for a in elements]
    for name in sig.consts:
        out[name] = index[getattr(alg, name)]
    if labels is not None:
        out["labels"] = list(labels)
    return out


def upalgebra_to_json(alg: duality.UpSetAlgebra, kind: str = "hplus") -> dict:
    return algebra_to_json(alg, kind,
                           labels=[format(m, "b") for m in alg.elements])


def algebra_from_json(obj):
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in diagram_mod.KINDS:
        raise FormatError(f"unknown algebra kind {kind!r}")
    sig = diagram_mod.KINDS[kind]
    size = _check_size(obj, "algebra")
    tables = {}
    for key, _ in sig.binary:
        t = obj.get(key)
        if (not isinstance(t, list) or len(t) != size or
                any(not isinstance(r, list) or len(r) != size for r in t)):
            raise FormatError(f"table {key} is not {size}x{size}")
        for a, row in enumerate(t):
            _check_elements(row, size, f"table {key} at ({a},{{}})")
        tables[key] = t
    for key, _ in sig.unary:
        t = obj.get(key)
        if not isinstance(t, list) or len(t) != size:
            raise FormatError(f"table {key} is not length {size}")
        _check_elements(t, size, f"table {key} at ({{}})")
        tables[key] = t
    for name in sig.consts:
        _check_elements([obj.get(name)], size, f"constant {name}")

    meet = tables["meet"]
    lat = FinLattice(FinPoset(relation_rows(size,
                                            lambda a, b: meet[a][b] == a)))
    for a in range(size):
        for b in range(size):
            if lat.meet[a][b] != meet[a][b]:
                raise FormatError(f"meet table disagrees with the order "
                                  f"at ({a},{b})")
            if lat.join[a][b] != tables["join"][a][b]:
                raise FormatError(f"join table disagrees with the order "
                                  f"at ({a},{b})")
    if kind == "cirl":
        if obj["one"] != lat.one:
            raise FormatError("unit is not the lattice top")
        return residuated.validate_cirl(lat, tables["mul"], tables["arrow"])
    return residuated.validate_order_algebra(
        kind, lat, tables, {c: obj[c] for c in sig.consts})


# -- helpers ---------------------------------------------------------------


def _emit(obj):
    json.dump(obj, sys.stdout, indent=1)
    sys.stdout.write("\n")


def _lattice_of(obj, max_size: int) -> FinLattice:
    if obj.get("kind") == "poset":
        p, _, _ = poset_from_json(obj, max_size)
        return FinLattice(p)
    return algebra_from_json(obj).lattice


# -- subcommands -----------------------------------------------------------


def _cmd_validate(args):
    obj = _read_json(args.file)
    if obj.get("kind") == "poset":
        p, bot, top = poset_from_json(obj, args.max_poset)
        if bot is not None and top is not None:
            DoublePointedPoset(p, bot, top)
        _emit({"schema": SCHEMA, "command": "validate", "ok": True,
               "kind": "poset", "size": p.size})
        return 0
    alg = algebra_from_json(obj)
    _emit({"schema": SCHEMA, "command": "validate", "ok": True,
           "kind": obj["kind"], "size": alg.size})
    return 0


def _cmd_analyze(args):
    obj = _read_json(args.file)
    if obj.get("kind") == "poset":
        p, _, _ = poset_from_json(obj, args.max_poset)
        _emit({"schema": SCHEMA, "command": "analyze", "kind": "poset",
               "size": p.size,
               "connected": is_connected(p),
               "fence": is_fence(p),
               "tails": find_tails(p),
               "order_isolated": sorted(bits(order_isolated(p))),
               "height": p.height()})
        return 0
    alg = algebra_from_json(obj)
    if obj["kind"] == "cirl":
        info = residuated.monolith_info(alg)
        out = {"schema": SCHEMA, "command": "analyze", "kind": "cirl",
               "size": alg.size, "si": info.is_si,
               "potency": alg.potency(),
               "congruence_filters": len(residuated.congruence_filters(alg))}
        if info.is_si:
            out.update(coatom=info.coatom, depth=info.depth,
                       mu_bottom=info.mu_bottom,
                       mu_filter=sorted(bits(info.mu_filter)))
        _emit(out)
        return 0
    if obj["kind"] == "dp":
        rep = duality.varlet_report(alg)
        _emit({"schema": SCHEMA, "command": "analyze", "kind": "dp",
               "size": alg.size, **asdict(rep), "all_agree": rep.all_agree})
        return 0
    sig = diagram_mod.SIGNATURES.get(obj["kind"])
    out = {"schema": SCHEMA, "command": "analyze", "kind": obj["kind"],
           "size": alg.size}
    if sig is not None:
        info = diagram_mod.si_structure(alg, sig)
        out.update(si=info.is_si, simple=info.simple)
        if info.is_si:
            out["mu_bottom"] = info.mu_bottom
    _emit(out)
    return 0


def _cmd_hoop(args):
    if args.n > residuated.PRODUCT_CAP:
        raise SizeError(f"hoop of {args.n} elements exceeds cap "
                        f"{residuated.PRODUCT_CAP}")
    alg = residuated.wajsberg_hoop(args.n)
    _emit(algebra_to_json(alg, "cirl",
                          labels=[f"q^{i}" for i in range(args.n)]))
    return 0


def _cmd_expand(args):
    from .expansion import expand_to_depth, expansion_tower

    alg = algebra_from_json(_read_json(args.file))
    if alg.kind != "cirl":
        raise FormatError("expand needs a cirl algebra")
    # both forms walk the tower, so every round printed passed its contract
    if args.rounds is not None:
        step = next(r for r in expansion_tower(alg) if r.rounds == args.rounds)
    else:
        step = expand_to_depth(alg, args.depth)
    _emit(algebra_to_json(step.algebra, "cirl"))
    return 0


def _cmd_truncprod(args):
    a = algebra_from_json(_read_json(args.a))
    b = algebra_from_json(_read_json(args.b))
    if a.kind != "cirl" or b.kind != "cirl":
        raise FormatError("truncprod needs two cirl algebras")
    for flag, value, factor in (("--c", args.c, a), ("--q", args.q, b)):
        if value is not None:
            _check_elements([value], factor.size, flag)
    alg = residuated.truncated_product(a, b, args.c, args.q)
    _emit(algebra_to_json(alg, "cirl"))
    return 0


def _cmd_dual(args):
    lat = _lattice_of(_read_json(args.file), args.max_poset)
    p, irr = duality.dual_poset(lat)
    _emit({**poset_to_json(p), "elements": irr})
    return 0


def _cmd_upalg(args):
    p, _, _ = poset_from_json(_read_json(args.file), args.max_poset)
    alg = duality.up_set_algebra(p, cap=args.max_upsets)
    _emit(upalgebra_to_json(alg, args.kind))
    return 0


def _cmd_searrow(args):
    s = load_double_pointed(_read_json(args.p), args.max_poset)
    t = load_double_pointed(_read_json(args.q), args.max_poset)
    g = searrow(s, t)
    _emit(poset_to_json(g.poset, g.bot, g.top))
    return 0


def _cmd_powerchain(args):
    x = load_double_pointed(_read_json(args.p), args.max_poset)
    g = power_chain(x, args.n)
    _emit(poset_to_json(g.poset, g.bot, g.top))
    return 0


def _cmd_diagram(args):
    alg = _algebra_for_sig(args)
    sig = diagram_mod.get_signature(args.sig)
    d = diagram_mod.build_diagram(alg, sig)
    identity = diagram_mod.Assignment(alg, d.variables)
    value = diagram_mod.eval_diagram(d, identity)
    _emit({"schema": SCHEMA, "command": "diagram", "sig": sig.tag,
           "variables": d.var_count,
           "conjuncts": len(d.const_conjuncts) + sum(
               len(cs) for level in d.watch for _, _, cs in level),
           "identity_value_is_one": value == alg.one})
    return 0


def _algebra_for_sig(args):
    obj = _read_json(args.file)
    if obj.get("kind") == "poset" and args.sig in ("hplus", "dheyting"):
        p, _, _ = poset_from_json(obj, args.max_poset)
        return duality.up_set_algebra(p, cap=args.max_upsets)
    return algebra_from_json(obj)


def _cmd_witness(args):
    alg = _algebra_for_sig(args)
    sig = diagram_mod.get_signature(args.sig)
    rep = diagram_mod.witness_suite(alg, args.imax, sig)
    out = {"schema": SCHEMA, "command": "witness", "sig": rep.tag,
           "a_size": rep.a_size, "exempt": rep.exempt, "note": rep.note,
           "entries": [asdict(e) for e in rep.entries]}
    _emit(out)
    ok = rep.exempt or all(
        e.delta_witness_found and e.excluded in (True, None)
        for e in rep.entries)
    return 0 if ok else 2


def _cmd_hwitness(args):
    x = load_double_pointed(_read_json(args.x), args.max_poset)
    if args.y == "auto":
        fence = hplus_witness.fence_for_target(x)
        y = fence.poset
        case = fence.case
    else:
        y = load_double_pointed(_read_json(args.y), args.max_poset)
        case = "explicit"
    w = hplus_witness.build_witness_algebra(x, y, args.n)
    sig = diagram_mod.get_signature(args.sig)
    value = hplus_witness.diagram_final_check(w, sig)
    out = {"schema": SCHEMA, "command": "hwitness", "sig": sig.tag,
           "n": args.n, "carrier_size": w.carrier.size,
           "fence_case": case,
           "delta_power_nonempty": value != 0,
           "delta_power_value": sorted(bits(value))}
    if args.check_onto:
        out["never_maps_onto"] = duality.never_maps_onto(
            w.carrier.poset, x.poset, budget=args.budget)
    _emit(out)
    return 0 if value != 0 else 2


def _cmd_morphisms(args):
    x, _, _ = poset_from_json(_read_json(args.x), args.max_poset)
    y, _, _ = poset_from_json(_read_json(args.y), args.max_poset)
    maps = duality.enumerate_morphisms(x, y, args.kind, args.surjective,
                                       budget=args.budget)
    _emit({"schema": SCHEMA, "command": "morphisms", "kind": args.kind,
           "surjective": args.surjective, "count": len(maps),
           "maps": [list(m.values) for m in maps]})
    return 0 if maps else 2


def _cmd_splittings(args):
    lat = _lattice_of(_read_json(args.file), args.max_poset)
    pairs = all_splitting_pairs(lat)
    _emit({"schema": SCHEMA, "command": "splittings", "size": lat.size,
           "pairs": [list(p) for p in pairs]})
    return 0 if pairs else 2


def _cmd_filtrate(args):
    p, _, _ = poset_from_json(_read_json(args.file), args.max_poset)
    fam = args.gens
    for g in fam:
        if g < 0 or g & ~p.all_mask:
            raise FormatError(f"--gens mask {g} is not a subset of the "
                              f"{p.size} points")
    alg = duality.UpSetAlgebra(p)
    if args.close_dpc:
        fam = filtration.close_under_dpc(alg, fam)
    fil = filtration.filtrate(p, fam)
    preserved = True
    in_fam = set(fam)
    unary = [alg.neg, alg.dpc]
    binary = [alg.meet, alg.join, alg.arrow, alg.coarrow]
    for u in fam:
        for fn in unary:
            r = fn(u)
            if r in in_fam and getattr(fil.algebra, fn.__name__)(fil.phi(u)) \
                    != fil.phi(r):
                preserved = False
        for v in fam:
            for fn in binary:
                r = fn(u, v)
                if r in in_fam and getattr(fil.algebra, fn.__name__)(
                        fil.phi(u), fil.phi(v)) != fil.phi(r):
                    preserved = False
    _emit({"schema": SCHEMA, "command": "filtrate",
           "family": fam,
           "classes": [sorted(bits(c)) for c in fil.classes],
           "quotient": poset_to_json(fil.quotient),
           "preserved": preserved})
    return 0 if preserved else 2


class _Parser(argparse.ArgumentParser):
    """Usage errors are input trouble, so they exit 3; subparsers inherit
    this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _int_arg(lowest: int | None = None, env: str | None = None):
    """int for an argument, refused below ``lowest``.  ``env`` names the
    variable a flag's string default is read from, so a bad value names it
    too; argparse names the argument."""
    source = "" if env is None else f" (from the flag or {env})"

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value {text!r}{source}") from None
        if lowest is not None and value < lowest:
            raise argparse.ArgumentTypeError(
                f"{value} is below the least allowed value {lowest}")
        return value
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  The cap flags get their
    defaults from ``run`` on each call."""
    ap = _Parser(
        prog="splitbench",
        description="finite-algebra workbench: splittings, dualities, "
                    "expansions")
    for name, env, _ in _CAPS:
        ap.add_argument("--" + name.replace("_", "-"), type=_int_arg(env=env))
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("validate", _cmd_validate)
    sp.add_argument("file")
    sp = add("analyze", _cmd_analyze)
    sp.add_argument("file")
    sp = add("hoop", _cmd_hoop)
    sp.add_argument("n", type=_int_arg(2))
    sp = add("expand", _cmd_expand)
    sp.add_argument("file")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--depth", type=_int_arg(0))
    group.add_argument("--rounds", type=_int_arg(0))
    sp = add("truncprod", _cmd_truncprod)
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--c", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)
    sp = add("dual", _cmd_dual)
    sp.add_argument("file")
    sp = add("upalg", _cmd_upalg)
    sp.add_argument("file")
    sp.add_argument("--kind", default="hplus",
                    choices=["heyting", "hplus", "dheyting", "dp"])
    sp = add("searrow", _cmd_searrow)
    sp.add_argument("p")
    sp.add_argument("q")
    sp = add("powerchain", _cmd_powerchain)
    sp.add_argument("p")
    sp.add_argument("n", type=_int_arg(1))
    sp = add("diagram", _cmd_diagram)
    sp.add_argument("file")
    sp.add_argument("--sig", required=True,
                    choices=["cirl", "hplus", "dheyting"])
    sp = add("witness", _cmd_witness)
    sp.add_argument("file")
    sp.add_argument("--imax", type=_int_arg(0), default=1)
    sp.add_argument("--sig", required=True,
                    choices=["cirl", "hplus", "dheyting"])
    sp = add("hwitness", _cmd_hwitness)
    sp.add_argument("x")
    sp.add_argument("y", help="poset file or 'auto' for a fence choice")
    sp.add_argument("--n", type=_int_arg(0), default=0)
    sp.add_argument("--sig", default="hplus", choices=["hplus", "dheyting"])
    sp.add_argument("--check-onto", action="store_true")
    sp = add("morphisms", _cmd_morphisms)
    sp.add_argument("x")
    sp.add_argument("y")
    sp.add_argument("--kind", default="hplus",
                    choices=["heyting", "hplus", "dh"])
    sp.add_argument("--surjective", action="store_true")
    sp = add("splittings", _cmd_splittings)
    sp.add_argument("file")
    sp = add("filtrate", _cmd_filtrate)
    sp.add_argument("file")
    sp.add_argument("--gens", nargs="+", type=int, required=True)
    sp.add_argument("--close-dpc", action="store_true")
    return ap


def run(argv=None) -> int:
    ap = build_parser()
    # argparse converts a string default after parsing, so a bad variable
    # exits like a bad flag value; the variables are read on every call.
    ap.set_defaults(**{name: os.environ.get(env, str(default))
                       for name, env, default in _CAPS})
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (FormatError, SizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SplitbenchError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

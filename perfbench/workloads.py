"""The four workloads: inputs, operations and the checks on their outputs.

A workload has three parts.  ``setup`` builds the inputs with
splitbench's own constructors and is what ``setup_s`` times.
``prepare`` computes what the checks need, apart from the program, and
is not timed.  ``units`` lists one pass of work: each unit is a list of
operations run in order (a CLI pipeline) or a single operation; the
runner shuffles the units of every pass.

An operation is a callable and a check.  The callable builds its own
objects, so no cache inside a program object carries over from one
operation to the next.  The check returns True for a correct output.
"""

import io
import json
import math
import os
import sys
from dataclasses import dataclass

import oracles


@dataclass
class Op:
    label: str
    fn: object
    check: object
    known_fault: bool = False


@dataclass
class Workload:
    name: str
    setup: object
    prepare: object
    units: object
    pass_seconds: float            # one pass on the reference machine


# -- shared input builders --------------------------------------------------


def deduped_posets(sb, max_size):
    """One poset per isomorphism class, by canonical_key."""
    out, seen = [], set()
    for n in range(1, max_size + 1):
        for p in sb.poset.enumerate_posets(n):
            key = sb.poset.canonical_key(p)
            if key not in seen:
                seen.add(key)
                out.append(p)
    return out


def relabelled(sb, p, rng):
    perm = list(range(p.size))
    rng.shuffle(perm)
    return p.relabel(perm)


def cirl_family(sb, posets):
    """Every CIRL on every lattice among the posets, checked by the program.

    Multiplications are enumerated over the entries below the diagonal,
    pruned by monotonicity and by x*y <= x meet y; the residual is the
    largest z with x*z <= y when it exists.
    """
    out = []
    for p in posets:
        try:
            lat = sb.lattice.FinLattice(p)
        except sb.errors.NotALattice:
            continue
        out.extend(_cirls_on(sb, lat))
    return out


def _cirls_on(sb, lat):
    n, one, up = lat.size, lat.one, lat.poset.up
    le = [[bool(up[a] >> b & 1) for b in range(n)] for a in range(n)]
    rest = [x for x in range(n) if x != one]
    slots = [(x, y) for i, x in enumerate(rest) for y in rest[i:]]
    mul = [[None] * n for _ in range(n)]
    for x in range(n):
        mul[x][one] = mul[one][x] = x
    found = []

    def monotone(x, y, v):
        for a in range(n):
            for b in range(n):
                w = mul[a][b]
                if w is None:
                    continue
                if le[a][x] and le[b][y] and not le[w][v]:
                    return False
                if le[x][a] and le[y][b] and not le[v][w]:
                    return False
        return True

    def rec(k):
        if k == len(slots):
            found.append([row[:] for row in mul])
            return
        x, y = slots[k]
        for v in range(n):
            if le[v][lat.meet[x][y]] and monotone(x, y, v):
                mul[x][y] = mul[y][x] = v
                rec(k + 1)
                mul[x][y] = mul[y][x] = None

    rec(0)
    out = []
    for tab in found:
        if any(tab[tab[x][y]][z] != tab[x][tab[y][z]]
               for x in range(n) for y in range(n) for z in range(n)):
            continue
        arrow = [[None] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                cands = [z for z in range(n) if le[tab[x][z]][y]]
                tops = [z for z in cands if all(le[w][z] for w in cands)]
                arrow[x][y] = tops[0] if tops else None
        if any(v is None for row in arrow for v in row):
            continue
        out.append(sb.residuated.validate_cirl(lat, tab, arrow))
    return out


def _is_chain(alg):
    up = alg.lattice.poset.up
    return all(up[x] >> y & 1 or up[y] >> x & 1
               for x in range(alg.size) for y in range(alg.size))


# -- dual-regularity ---------------------------------------------------------


def dual_setup(sb, rng, workdir):
    return {"posets": [relabelled(sb, p, rng)
                       for p in deduped_posets(sb, 5)]}


def dual_prepare(sb, state):
    expect = []
    for p in state["posets"]:
        up = list(p.up)
        ups = oracles.up_sets(up)
        cons = sb.duality.dp_congruences(sb.duality.up_set_algebra(p))
        expect.append({
            "up_sets": ups,
            "congruences_ok": (len(cons) ==
                               oracles.priestley_dp_congruence_count(up)),
            "regular": oracles.every_point_extremal(up),
            "arrow": ([[oracles.brute_arrow(ups, u, v) for v in ups]
                       for u in ups]
                      if oracles.every_point_extremal(up) else None),
        })
    return expect


def dual_units(sb, state, expect):
    units = []
    for p, exp in zip(state["posets"], expect):
        units.append([Op(f"dual:{p.size}:{len(exp['up_sets'])}",
                         _dual_op(sb, p, exp["regular"]),
                         _dual_check(exp))])
    return units


def _dual_op(sb, p, regular):
    duality = sb.duality

    def op():
        alg = duality.up_set_algebra(p)
        rep = duality.varlet_report(alg)
        arrows = None
        if regular:
            els = alg.elements
            arrows = [[duality.katrinak_arrow(alg, u, v) for v in els]
                      for u in els]
            if any(arrows[i][j] != alg.arrow(u, v)
                   for i, u in enumerate(els) for j, v in enumerate(els)):
                arrows = "mismatch"
        return list(alg.elements), rep, arrows

    return op


def _dual_check(exp):
    def check(out):
        elements, rep, arrows = out
        flags = {rep.regular, rep.determined_by_pcs, rep.height_at_most_one,
                 rep.distributive_identity}
        return (elements == exp["up_sets"] and exp["congruences_ok"]
                and flags == {exp["regular"]} and arrows == exp["arrow"])

    return check


# -- searches -----------------------------------------------------------------


def search_setup(sb, rng, workdir):
    posets = deduped_posets(sb, 5)
    connected = [p for p in posets if sb.poset.is_connected(p)]
    fences = {n: sb.hplus_witness.make_fence(n) for n in range(2, 8)}
    chain2 = sb.poset.build_poset(2, [(0, 1)])
    cirls = cirl_family(sb, posets)
    si = [a for a in cirls if sb.residuated.monolith_info(a).is_si]
    small = [p for p in posets if p.size <= 4]
    up_algs = [sb.duality.up_set_algebra(p) for p in small]
    up_sources = [a for a, p in zip(up_algs, small)
                  if sb.poset.is_connected(p)]
    dp = sb.poset.DoublePointedPoset
    crown = sb.poset.build_poset(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    chain3 = sb.poset.build_poset(3, [(0, 1), (1, 2)])
    targets = [dp(crown, 0, 2), dp(chain3, 0, 2), dp(fences[4], 0, 1)]
    never = [(x, sb.hplus_witness.fence_for_target(x)) for x in targets]
    return {"posets": posets, "connected": connected, "fences": fences,
            "chain2": chain2, "si": si, "up_algs": up_algs,
            "up_sources": up_sources, "never": never}


# brute-force map counts only where |Y|^|X| stays this small
BRUTE_MAPS = 256


def search_prepare(sb, state):
    expect = {"maps": {}, "never": {}}
    for n, f in state["fences"].items():
        for k, y in enumerate(state["connected"]):
            if y.size ** n > BRUTE_MAPS:
                continue
            flags = {}
            for kind in ("hplus", "heyting", "dh"):
                flags[kind] = sorted(oracles.brute_maps(list(f.up),
                                                        list(y.up), kind))
            expect["maps"][(n, k)] = flags
    for k, (x, fence) in enumerate(state["never"]):
        glued = sb.poset.searrow(sb.poset.power_chain(x, 1), fence.poset)
        if x.size ** glued.size <= 4096:
            expect["never"][k] = not oracles.brute_maps(
                list(glued.poset.up), list(x.poset.up), "hplus",
                surjective=True)
    return expect


def search_units(sb, state, expect):
    units = []
    d = sb.duality
    for n, f in state["fences"].items():
        for k, y in enumerate(state["connected"]):
            for kind in ("hplus", "heyting", "dh"):
                brute = expect["maps"].get((n, k), {}).get(kind)
                units.append([Op(
                    f"maps:{kind}:{n}->{y.size}",
                    lambda f=f, y=y, kind=kind:
                        d.enumerate_morphisms(f, y, kind),
                    _maps_check(f, y, kind, brute))])
    chain2 = state["chain2"]
    for p in state["posets"]:
        units.append([Op(
            f"onto-2:{p.size}",
            lambda p=p: d.enumerate_morphisms(p, chain2, "hplus",
                                              surjective_only=True),
            _onto_check(p, chain2))])
    # one copy of x, as in c11: at two copies the crown alone takes about
    # 1 s, and the tail would rest on a few repeats of it
    for k, (x, fence) in enumerate(state["never"]):
        units.append([Op(
            f"never:{fence.case}:{x.size}",
            lambda x=x, fence=fence:
                sb.hplus_witness.never_maps_onto_check(x, fence, 1),
            _never_check(expect["never"].get(k)))])
    cirl_sig = sb.diagram.CIRL
    for a in state["si"]:
        for b in state["si"]:
            units.append([Op(f"embed-cirl:{a.size}->{b.size}",
                             _embed_op(sb, a, b, cirl_sig),
                             _embed_check(_cirl_ops(a, b), a, b))])
    hplus_sig = sb.diagram.HPLUS
    for a in state["up_sources"]:
        for b in state["up_algs"]:
            units.append([Op(f"embed-hplus:{a.size}->{b.size}",
                             _embed_op(sb, a, b, hplus_sig),
                             _embed_check(_upset_ops(a, b), a, b))])
    return units


def _maps_check(x, y, kind, brute):
    x_up, y_up = list(x.up), list(y.up)
    verified = {}

    def check(maps):
        vals = tuple(sorted(m.values for m in maps))
        if vals not in verified:
            verified[vals] = (
                len(set(vals)) == len(vals) and
                all(oracles.map_is_kind(x_up, y_up, f, kind) for f in vals)
                and (brute is None or list(vals) == brute))
        return verified[vals]

    return check


def _onto_check(p, chain2):
    x_up, y_up = list(p.up), list(chain2.up)
    exists = oracles.isolated_mask(x_up) == 0

    def check(maps):
        vals = [m.values for m in maps]
        return (bool(vals) == exists and
                all(set(f) == {0, 1} and
                    oracles.map_is_kind(x_up, y_up, f, "hplus")
                    for f in vals))

    return check


def _never_check(brute):
    def check(result):
        return result is True and (brute is None or brute is True)

    return check


def _embed_op(sb, a, b, sig):
    diagram = sb.diagram

    def op():
        asg = diagram.embedding_by_diagram(a, b, sig)
        emb = diagram.search_embedding(a, b, sig)
        return asg, emb

    return op


def _cirl_ops(a, b):
    ops = [(lambda x, y: a.lattice.meet[x][y],
            lambda x, y: b.lattice.meet[x][y], 2),
           (lambda x, y: a.lattice.join[x][y],
            lambda x, y: b.lattice.join[x][y], 2),
           (lambda x, y: a.mul[x][y], lambda x, y: b.mul[x][y], 2),
           (lambda x, y: a.arrow[x][y], lambda x, y: b.arrow[x][y], 2)]
    return ops, [(a.lattice.one, b.lattice.one)]


def _upset_ops(a, b):
    ra, rb = oracles.RawUpSetOps(a.base.up), oracles.RawUpSetOps(b.base.up)
    ops = [(_named(ra, name), _named(rb, name), arity)
           for name, arity in (("meet", 2), ("join", 2), ("arrow", 2),
                               ("dpc", 1))]
    return ops, [(0, 0), (ra.one, rb.one)]


def _named(raw, name):
    return lambda *args: raw.apply(name, *args)


def _embed_check(ops_consts, a, b):
    ops, consts = ops_consts
    a_elems = list(a.elements)
    verified = {}

    def check(out):
        asg, emb = out
        if (asg is None) != (emb is None):
            return False
        if emb is None:
            return True
        key = (tuple(sorted(emb.items())), asg.values)
        if key not in verified:
            hom = dict(zip(a_elems, asg.values))
            # a homomorphism out of an SI algebra that keeps the monolith
            # bottom away from 1 has a trivial kernel, so both must embed
            verified[key] = (
                sorted(emb) == sorted(a_elems) and
                oracles.check_homomorphism(ops, consts, emb) and
                oracles.check_homomorphism(ops, consts, hom))
        return verified[key]

    return check


# -- cirl-witness -------------------------------------------------------------

# (n, i_max): at C2 the needed depth grows with i, at C3 it repeats once,
# at C4 it repeats throughout
HOOP_RUNS = [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (4, 0), (4, 1), (4, 2)]
TOWER = [1, 2, 3, 4]
HOOP_EXPANSIONS = [3, 4, 5, 6, 7, 8, 9, 10]


def witness_setup(sb, rng, workdir):
    res = sb.residuated
    hoops = {n: res.wajsberg_hoop(n) for n in range(2, 11)}
    # 0 < a, b < c < 1 is the only lattice of at most five elements that
    # is not a chain and has a single coatom, which an SI algebra needs
    shape = sb.poset.build_poset(5, [(0, 1), (0, 2), (1, 3), (2, 3),
                                     (3, 4)])
    cirls = cirl_family(sb, [shape])
    # the simple one (only the bounds idempotent) is left out: its suite
    # builds a 111-element product and takes about 2.7 s
    nonchain = [a for a in cirls
                if res.monolith_info(a).is_si and not _is_chain(a)
                and len(a.idempotents()) > 2]
    return {"hoops": hoops, "nonchain": nonchain}


def _table(alg):
    return oracles.TableCIRL(list(alg.lattice.poset.up), alg.mul, alg.one)


def witness_prepare(sb, state):
    """Expansions from the program, everything after them from oracles."""
    cases = {}
    for n, i in HOOP_RUNS:
        cases[f"hoop{n}"] = (state["hoops"][n], max(i, cases.get(
            f"hoop{n}", (None, 0))[1]))
    for k, a in enumerate(state["nonchain"]):
        cases[f"nonchain{k}"] = (a, 0)
    expect = {}
    for label, (a, i_max) in cases.items():
        t = _table(a)
        c, mu = oracles.coatom_and_monolith_bottom(t.up, t.mul, t.one)
        depth = 1
        cur = c
        while t.mul[cur][c] != cur:
            cur = t.mul[cur][c]
            depth += 1
        entries = []
        for i in range(i_max + 1):
            need = max(depth + 1, 2 ** i + 1)
            exp = sb.expansion.expand_to_depth(a, need)
            e = _table(exp.algebra)
            ec, _ = oracles.coatom_and_monolith_bottom(e.up, e.mul, e.one)
            p = e.size
            while not oracles.is_prime(p):
                p += 1
            h = oracles.hoop(p + 1)
            big = oracles.truncated_product(e, ec, h, 1)
            entries.append({"need": need, "e": e, "big": big, "prime": p,
                            "cone": bin(e.down[ec]).count("1")})
        expect[label] = {"a": t, "mu": mu, "entries": entries,
                         "hoop_n": a.size if label.startswith("hoop") else
                         None}
    return expect


def witness_units(sb, state, expect):
    diagram = sb.diagram
    units = []
    for n, i in HOOP_RUNS:
        a = state["hoops"][n]
        units.append([Op(f"witness:hoop{n}:i{i}",
                         lambda a=a, i=i:
                             diagram.witness_suite(a, i, diagram.CIRL),
                         _witness_check(expect[f"hoop{n}"], i))])
    for k, a in enumerate(state["nonchain"]):
        units.append([Op(f"witness:nonchain{k}:i0",
                         lambda a=a: diagram.witness_suite(a, 0, diagram.CIRL),
                         _witness_check(expect[f"nonchain{k}"], 0))])
    c2 = state["hoops"][2]
    for k in TOWER:
        units.append([Op(f"tower:C2:{k}",
                         lambda k=k: sb.expansion.expand_to_depth(c2, 2 ** k),
                         _expansion_check(2 ** k + 1, k, 2 ** k))])
    for n in HOOP_EXPANSIONS:
        a = state["hoops"][n]
        units.append([Op(f"expand:C{n}",
                         lambda a=a, n=n:
                             sb.expansion.expand_to_depth(a, 2 * (n - 1)),
                         _expansion_check(2 * n - 1, 1, 2 * (n - 1)))])
    return units


def _is_clipped_chain(alg, size):
    """alg is C_size: a chain whose rank-k element is the k-th power."""
    up = alg.lattice.poset.up
    if alg.size != size:
        return False
    rank = {x: size - bin(alg.lattice.poset.down[x]).count("1")
            for x in range(size)}
    if sorted(rank.values()) != list(range(size)):
        return False
    if any(not (up[x] >> y & 1 or up[y] >> x & 1)
           for x in range(size) for y in range(size)):
        return False
    return all(rank[alg.mul[x][y]] == min(size - 1, rank[x] + rank[y])
               for x in range(size) for y in range(size))


def _expansion_check(size, rounds, depth):
    def check(res):
        return (res.rounds == rounds and res.depth >= depth and
                res.depth >= 2 ** rounds and
                _is_clipped_chain(res.algebra, size))

    return check


def _witness_check(exp, i_max):
    a = exp["a"]
    two = a.size == 2

    def check(report):
        if report.exempt or len(report.entries) != i_max + 1:
            return False
        for i, entry in enumerate(report.entries):
            want = exp["entries"][i]
            det = entry.detail
            if entry.i != i or not entry.delta_witness_found:
                return False
            if entry.excluded is not (None if two else True):
                return False
            if (det["expansion_size"] != want["e"].size or
                    det["prime"] != want["prime"] or
                    det["expansion_depth"] < want["need"] or
                    entry.b_size != want["cone"] * want["prime"] + 1 or
                    entry.b_size != want["big"].size):
                return False
            if exp["hoop_n"] is not None and \
                    det["expansion_size"] != _hoop_expansion_size(
                        exp["hoop_n"], want["need"]):
                return False
            if not _witnesses(a, want["big"], det["canonical_tuple"],
                              exp["mu"], i):
                return False
        return True

    return check


def _hoop_expansion_size(n, need):
    """C_n expands to C_(2n-1), doubling the depth n-1, until need."""
    size, depth = n, n - 1
    while depth < need:
        size, depth = 2 * size - 1, 2 * depth
    return size


def _witnesses(a, big, values, mu, i):
    val = oracles.cirl_diagram_value(a, big, values)
    for _ in range(i):
        val = big.mul[val][val]
    return not big.leq(val, values[mu])


# -- cli-pipelines ------------------------------------------------------------

# posets the pipelines load; each is (name, size, covers, bot, top)
CLI_POSETS = [
    ("chain6", 6, [(k, k + 1) for k in range(5)], None, None),
    ("fence6", 6, [(0, 1), (2, 1), (2, 3), (4, 3), (4, 5)], None, None),
    ("crown", 4, [(0, 2), (0, 3), (1, 2), (1, 3)], 0, 2),
    ("vee", 3, [(0, 1), (2, 1)], None, None),
    ("chain2", 2, [(0, 1)], 0, 1),
    ("chain3", 3, [(0, 1), (1, 2)], 0, 2),
    ("fence4", 4, [(0, 1), (2, 1), (2, 3)], 0, 1),
    ("bowtie6", 6, [(0, 3), (1, 3), (2, 3), (3, 4), (3, 5)], None, None),
]
DP_POSETS = ["vee", "chain3", "chain2"]


def cli_setup(sb, rng, workdir):
    """Input files written through the program's own serialisers."""
    cli, res = sb.cli, sb.residuated
    os.makedirs(workdir, exist_ok=True)
    files = {}

    def put(name, obj):
        path = os.path.join(workdir, name + ".json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        files[name] = path

    posets, perms = {}, {}
    for name, size, covers, bot, top in CLI_POSETS:
        perm = list(range(size))
        if bot is None:
            rng.shuffle(perm)
        p = sb.poset.build_poset(size, [(perm[a], perm[b])
                                        for a, b in covers])
        posets[name], perms[name] = p, perm
        put(name, cli.poset_to_json(p, bot, top))
    fence6, perm = posets["fence6"], perms["fence6"]
    gens = [fence6.up[perm[0]], fence6.up[perm[2]] | fence6.up[perm[4]]]
    for n in (2, 3):
        put(f"hoop{n}", cli.algebra_to_json(res.wajsberg_hoop(n), "cirl"))
    put("bad_array", [1, 2])
    put("bad_le", {"kind": "poset", "size": 3, "le": [[0, 1, 2]]})
    two = cli.upalgebra_to_json(
        sb.duality.up_set_algebra(sb.poset.build_poset(1, [])), "hplus")
    put("bad_dpc", {**two, "dpc": [-1, 0]})
    bad_meet = json.loads(json.dumps(two))
    bad_meet["meet"][0][1] = bad_meet["meet"][1][0] = 5
    put("bad_meet", bad_meet)
    return {"files": files, "posets": posets, "gens": gens}


def cli_prepare(sb, state):
    expect = {}
    for name, p in state["posets"].items():
        up = list(p.up)
        expect[name] = {"up": up, "up_sets": oracles.up_sets(up),
                        "comparabilities": oracles.comparabilities(up),
                        "regular": oracles.every_point_extremal(up)}
    return expect


class CliResult:
    __slots__ = ("code", "out", "err", "exc")

    def __init__(self, code, out, err, exc):
        self.code, self.out, self.err, self.exc = code, out, err, exc

    def json(self):
        return json.loads(self.out)


def _run_cli(cli, argv, stdin_text, env=None):
    """cli.run with in-memory stdin/stdout/stderr; nothing escapes."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(stdin_text)
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    saved_env = {k: os.environ.get(k) for k in (env or {})}
    os.environ.update(env or {})
    exc = None
    try:
        code = cli.run(argv)
    except SystemExit as stop:
        code = stop.code
    except Exception as err:       # an escaped exception is a traceback
        code, exc = None, err
    finally:
        out, err_text = sys.stdout.getvalue(), sys.stderr.getvalue()
        sys.stdin, sys.stdout, sys.stderr = saved
        for k, v in saved_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return CliResult(code, out, err_text, exc)


def _step(cli, ctx, key, argv, source=None, env=None):
    """One command; its stdin is the output of step ``source``."""
    def op():
        res = _run_cli(cli, argv, ctx.get(source, ""), env)
        ctx[key] = res.out
        return res

    return op


def _ok(code, test):
    def check(res):
        if res.exc is not None or res.code != code:
            return False
        try:
            doc = res.json()
        except ValueError:
            return False
        return bool(test(doc))

    return check


def _fault(res):
    """The documented answer to malformed input: exit 3, a message, no
    traceback."""
    return res.exc is None and res.code == 3 and bool(res.err.strip())


def cli_units(sb, state, expect):
    cli, f = sb.cli, state["files"]
    units = []

    def pipeline(*steps):
        ctx = {}
        unit = []
        for k, (argv, source, check, *rest) in enumerate(steps):
            env = rest[0] if rest else None
            unit.append(Op(f"cli:{argv[0]}", _step(cli, ctx, k, argv,
                                                   source, env),
                           check, known_fault=check is _fault))
        units.append(unit)

    def analyze_cirl(size, depth):
        return lambda d: (d["si"] and d["size"] == size and
                          d["depth"] == depth)

    pipeline((["hoop", "4"], None, _ok(0, lambda d: d["size"] == 4)),
             (["analyze", "-"], 0, _ok(0, analyze_cirl(4, 3))))
    pipeline((["hoop", "3"], None, _ok(0, lambda d: d["size"] == 3)),
             (["expand", "-", "--depth", "4"], 0,
              _ok(0, lambda d: d["size"] == 5)),
             (["analyze", "-"], 1, _ok(0, analyze_cirl(5, 4))),
             (["truncprod", "-", f["hoop3"]], 1,
              _ok(0, lambda d: d["size"] == 4 * 2 + 1)),
             (["validate", "-"], 3, _ok(0, lambda d: d["ok"] and
                                        d["size"] == 9)))
    pipeline((["hoop", "2"], None, _ok(0, lambda d: d["size"] == 2)),
             (["expand", "-", "--rounds", "2"], 0,
              _ok(0, lambda d: d["size"] == 5)),
             (["analyze", "-"], 1, _ok(0, analyze_cirl(5, 4))))
    for name in ("chain6", "fence6", "bowtie6", "crown", "vee"):
        e = expect[name]
        pipeline((["upalg", f[name]], None,
                  _ok(0, lambda d, e=e: d["size"] == len(e["up_sets"]))),
                 (["splittings", "-"], 0, _ok(0, _splittings_check(e))),
                 (["dual", "-"], 0, _ok(0, _dual_round_trip(e))),
                 (["upalg", "-"], 2,
                  _ok(0, lambda d, e=e: d["size"] == len(e["up_sets"]))),
                 (["validate", "-"], 3,
                  _ok(0, lambda d, e=e: d["size"] == len(e["up_sets"]))))
    for name in DP_POSETS:
        e = expect[name]
        pipeline((["upalg", f[name], "--kind", "dp"], None,
                  _ok(0, lambda d, e=e: d["size"] == len(e["up_sets"]))),
                 (["analyze", "-"], 0,
                  _ok(0, lambda d, e=e: d["all_agree"] and
                      d["regular"] == e["regular"])))
    pipeline((["diagram", f["hoop3"], "--sig", "cirl"], None,
              _ok(0, lambda d: d["variables"] == 3 and
                  d["conjuncts"] == 4 * 9 + 1 and
                  d["identity_value_is_one"])))
    fence_ups = len(expect["fence4"]["up_sets"])
    pipeline((["diagram", f["fence4"], "--sig", "hplus"], None,
              _ok(0, lambda d: d["variables"] == fence_ups and
                  d["conjuncts"] == 3 * fence_ups ** 2 + fence_ups + 2 and
                  d["identity_value_is_one"])))
    for n in (2, 3):
        pipeline((["witness", f[f"hoop{n}"], "--imax", "0", "--sig", "cirl"],
                  None, _ok(0, lambda d, n=n: d["entries"][0]
                            ["delta_witness_found"] and
                            d["entries"][0]["excluded"] is
                            (None if n == 2 else True))))
    pipeline((["hwitness", f["fence4"], "auto", "--n", "0"], None,
              _ok(0, lambda d: d["delta_power_nonempty"] and
                  d["carrier_size"] == 2 * 4 + 5)))
    pipeline((["hwitness", f["chain3"], "auto", "--n", "0",
               "--check-onto"], None,
              _ok(0, lambda d: d["delta_power_nonempty"] and
                  d["never_maps_onto"] is True)))
    pipeline((["searrow", f["chain2"], f["fence4"]], None,
              _ok(0, lambda d: d["size"] == 6)),
             (["powerchain", "-", "2"], 0,
              _ok(0, lambda d: d["size"] == 12 and d["bot"] == 0)),
             (["analyze", "-"], 1,
              _ok(0, lambda d: d["connected"] and d["size"] == 12)))
    vee, fence4 = expect["vee"], expect["fence4"]
    brute = len(oracles.brute_maps(fence4["up"], vee["up"], "hplus"))
    pipeline((["morphisms", f["fence4"], f["vee"], "--kind", "hplus"], None,
              _ok(0 if brute else 2, lambda d: d["count"] == brute)))
    crown, chain2 = expect["crown"], expect["chain2"]
    onto = oracles.brute_maps(crown["up"], chain2["up"], "hplus",
                              surjective=True)
    pipeline((["morphisms", f["crown"], f["chain2"], "--kind", "hplus",
               "--surjective"], None,
              _ok(0 if onto else 2,
                  lambda d: sorted(map(tuple, d["maps"])) == sorted(onto))))
    gens = [str(g) for g in state["gens"]]
    pipeline((["filtrate", f["fence6"], "--gens", *gens, "--close-dpc"],
              None, _ok(0, _filtrate_check(expect["fence6"]["up"]))))
    pipeline((["analyze", f["crown"]], None,
              _ok(0, lambda d: d["connected"] and d["height"] == 1)))
    pipeline((["analyze", f["fence6"]], None,
              _ok(0, lambda d: d["connected"] and d["fence"] and
                  d["height"] == 1)))
    # malformed input: each should exit 3 with a message and no traceback
    pipeline((["validate", f["bad_array"]], None, _fault))
    pipeline((["validate", f["bad_le"]], None, _fault))
    pipeline((["validate", f["bad_dpc"]], None, _fault))
    pipeline((["validate", f["bad_meet"]], None, _fault))
    pipeline((["hoop"], None, _fault))
    pipeline((["hoop", "3"], None, _fault, {"SPLITBENCH_BUDGET": "lots"}))
    return units


def _splittings_check(e):
    """One splitting pair per poset element, each one a partition."""
    def test(d):
        masks = e["up_sets"]
        return (len(d["pairs"]) == len(e["up"]) and
                all(oracles.splits_up_set_lattice(masks, c, dd)
                    for c, dd in d["pairs"]))

    return test


def _dual_round_trip(e):
    def test(d):
        rows = oracles.closure_rows(d["size"], d["le"])
        return (d["size"] == len(e["up"]) and
                oracles.comparabilities(rows) == e["comparabilities"])

    return test


def _filtrate_check(up):
    """Classes group the points that no family member separates."""
    def test(d):
        fam = d["family"]
        if any(not oracles.is_up_set(up, u) for u in fam):
            return False
        sig = {}
        for x in range(len(up)):
            sig.setdefault(tuple(u >> x & 1 for u in fam), []).append(x)
        return (sorted(d["classes"]) == sorted(sig.values()) and
                d["quotient"]["size"] == len(sig) and d["preserved"])

    return test


WORKLOADS = {
    "dual-regularity": Workload("dual-regularity", dual_setup, dual_prepare,
                                dual_units, pass_seconds=4.4),
    "searches": Workload("searches", search_setup, search_prepare,
                         search_units, pass_seconds=2.2),
    "cirl-witness": Workload("cirl-witness", witness_setup, witness_prepare,
                             witness_units, pass_seconds=3.4),
    "cli-pipelines": Workload("cli-pipelines", cli_setup, cli_prepare,
                              cli_units, pass_seconds=0.33),
}


def passes_for(workload, seconds, ops_per_pass, min_ops=40):
    """Whole passes: about ``seconds`` of work, and at least min_ops."""
    by_time = max(1, round(seconds / workload.pass_seconds))
    return max(by_time, math.ceil(min_ops / ops_per_pass))

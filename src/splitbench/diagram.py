"""Term-diagrams: algebras described by one big conjunction.

The diagram of a finite algebra has one variable per element and one
conjunct per operation-table entry; evaluating it in another algebra
locates copies of the source.  Everything here is generic over the
three signatures via a table-key-to-method map, so table algebras and
up-set algebras are handled uniformly.
"""

import itertools
from dataclasses import dataclass, field

from .errors import BadParameter, NotSI, SignatureMismatch, SizeError
from .poset import DoublePointedPoset, FinPoset, bits, is_connected

ASSIGNMENT_CAP = 2_000_000


@dataclass(frozen=True)
class Signature:
    """Which operations an algebra kind has, and its terms as data: the
    method names of a product and its residual, and the delta term as a
    function (alg, x)."""

    tag: str
    binary: tuple[tuple[str, str], ...]   # (JSON table key, method name)
    unary: tuple[tuple[str, str], ...]
    consts: tuple[str, ...]               # attribute names
    product: str = "meet"
    residual: str = "arrow"
    delta: object = None

    def supports(self, alg) -> bool:
        for _, meth in self.binary + self.unary:
            if not callable(getattr(alg, meth, None)):
                return False
        return all(hasattr(alg, c) for c in self.consts)

    def require(self, alg):
        if not self.supports(alg):
            raise SignatureMismatch(
                f"algebra {alg!r} does not carry the {self.tag} operations")

    def iff(self, alg, x, y):
        res = getattr(alg, self.residual)
        return alg.meet(res(x, y), res(y, x))


CIRL = Signature(
    "cirl",
    (("meet", "meet"), ("join", "join"), ("mul", "mult"), ("arrow", "res")),
    (),
    ("one",),
    product="mult", residual="res", delta=lambda alg, x: alg.mult(x, x),
)
HPLUS = Signature(
    "hplus",
    (("meet", "meet"), ("join", "join"), ("arrow", "arrow")),
    (("dpc", "dpc"),),
    ("zero", "one"),
    delta=lambda alg, x: alg.arrow(alg.dpc(x), alg.zero),
)
DHEYTING = Signature(
    "dheyting",
    (("meet", "meet"), ("join", "join"), ("arrow", "arrow"),
     ("coarrow", "coarrow")),
    (),
    ("zero", "one"),
    delta=lambda alg, x: alg.arrow(alg.coarrow(alg.one, x), alg.zero),
)
# no diagrams for these two; they name the ops of the JSON formats
HEYTING = Signature(
    "heyting",
    (("meet", "meet"), ("join", "join"), ("arrow", "arrow")),
    (),
    ("zero", "one"),
)
DP = Signature(
    "dp",
    (("meet", "meet"), ("join", "join")),
    (("neg", "neg"), ("dpc", "dpc")),
    ("zero", "one"),
)

KINDS = {s.tag: s for s in (CIRL, HEYTING, HPLUS, DHEYTING, DP)}
SIGNATURES = {s.tag: s for s in (CIRL, HPLUS, DHEYTING)}


def get_signature(sig) -> Signature:
    if isinstance(sig, Signature):
        return sig
    try:
        return SIGNATURES[sig]
    except KeyError:
        raise BadParameter(f"unknown signature {sig!r}") from None


@dataclass(frozen=True)
class TermDiagram:
    """A source compiled once per signature: its term diagram, with the
    monolith-bottom variable and the search's placement order.  ``watch``
    is the one store of the operation conjuncts: each table entry once,
    flat, at the rank of the last of its variables."""

    signature: Signature
    variables: tuple          # source elements, one variable each
    const_conjuncts: tuple    # (const attr, position)
    mu: int | None            # monolith bottom's position; None unless SI
    order: tuple              # positions in rank order, as placed
    watch: tuple              # per rank: ((method, binary, conjuncts), ...)

    @property
    def var_count(self) -> int:
        return len(self.variables)

    def position(self, element) -> int:
        return self.variables.index(element)


@dataclass(frozen=True)
class Assignment:
    target: object
    values: tuple


def build_diagram(a, sig) -> TermDiagram:
    """Compile a's term diagram once, into a's ``_plans`` under the
    signature's tag: one flat conjunct per table entry, watched at its last
    rank.  It holds no reference to a, so a is still freed by refcounting."""
    sig = get_signature(sig)
    d = a._plans.get(sig.tag)
    if d is not None:
        return d
    sig.require(a)
    elements = tuple(a.elements)
    pos = {e: i for i, e in enumerate(elements)}
    order = tuple(pos[e] for e in _rank_order(a))
    rank = sorted(range(len(order)), key=order.__getitem__)   # order^-1
    # per method, per rank: the conjuncts whose last variable sits there
    at = {m: (True, [[] for _ in order]) for _, m in sig.binary}
    at.update((m, (False, [[] for _ in order])) for _, m in sig.unary)
    for _, meth in sig.binary:
        fn, by_rank = getattr(a, meth), at[meth][1]
        for x in elements:
            px = pos[x]
            rx = rank[px]
            for y in elements:
                py, pr = pos[y], pos[fn(x, y)]
                # the last rank; a max() call here cost a quarter of the build
                r = rank[py] if rank[py] > rx else rx
                by_rank[r if r > rank[pr] else rank[pr]].append((px, py, pr))
    for _, meth in sig.unary:
        fn, by_rank = getattr(a, meth), at[meth][1]
        for x in elements:
            px, pr = pos[x], pos[fn(x)]
            by_rank[max(rank[px], rank[pr])].append((px, pr))
    const_conjuncts = tuple((c, pos[getattr(a, c)]) for c in sig.consts)
    info = si_structure(a, sig)
    watch = tuple(tuple((m, binary, tuple(by_rank[k]))
                        for m, (binary, by_rank) in at.items() if by_rank[k])
                  for k in range(len(order)))
    d = TermDiagram(sig, elements, const_conjuncts,
                    pos[info.mu_bottom] if info.is_si else None,
                    order, watch)
    a._plans[sig.tag] = d
    return d


def eval_diagram(d: TermDiagram, asg: Assignment):
    """Fold the conjuncts under the target's meet, with bottom early-exit."""
    sig = d.signature
    b = asg.target
    sig.require(b)
    if len(asg.values) != d.var_count:
        raise BadParameter("assignment arity mismatch")
    vals = asg.values
    bottom = b.bottom
    out = b.one
    for cname, p in d.const_conjuncts:
        out = b.meet(out, sig.iff(b, vals[p], getattr(b, cname)))
        if out == bottom:
            return out
    for level in d.watch:
        for meth, binary, conjuncts in level:
            fn = getattr(b, meth)
            for c in conjuncts:
                val = fn(vals[c[0]], vals[c[1]]) if binary else fn(vals[c[0]])
                out = b.meet(out, sig.iff(b, vals[c[-1]], val))
                if out == bottom:
                    return out
    return out


# -- SI structure, generically --------------------------------------------


@dataclass(frozen=True)
class SiStructure:
    is_si: bool
    mu_bottom: object = None
    simple: bool = False


def si_structure(alg, sig) -> SiStructure:
    """SI detection and the least element of the monolith class of 1.

    The congruence filters are the principal filters of delta-fixed
    elements (the idempotents, for CIRLs), and these are closed under
    joins; the monolith exists iff the join of the fixed points below 1
    stays below 1.
    """
    sig = get_signature(sig)
    sig.require(alg)
    elements = list(alg.elements)
    if len(elements) < 2:
        return SiStructure(False)
    # the bottom is always delta-fixed; the monolith generator is the
    # largest fixed point below 1, which exists iff their join stays below 1
    m = alg.bottom
    for x in elements:
        if x != alg.one and sig.delta(alg, x) == x:
            m = alg.join(m, x)
    if m == alg.one:
        return SiStructure(False)
    return SiStructure(True, m, simple=(m == alg.bottom))


class TableAlgebra:
    """A finite algebra given by explicit operation tables on a lattice.

    Each operation of ``KINDS[kind]`` is a method under its name, read
    from the table under its JSON key; a table whose key is not the
    method name (``cirl``'s ``mul`` and ``arrow``) is kept under its key
    too.  Each constant is an attribute.  ``_plans`` holds the algebra's
    term diagram per signature and its delta-indices, each built once.
    """

    def __init__(self, kind: str, lattice, tables: dict, consts: dict):
        self.kind = kind
        self.lattice = lattice
        self.size = lattice.size
        self.bottom = lattice.zero
        sig = KINDS[kind]
        for key, meth in sig.binary:
            t = tables[key]
            setattr(self, meth, lambda a, b, t=t: t[a][b])
            if key != meth:
                setattr(self, key, t)
        for key, meth in sig.unary:
            setattr(self, meth, tables[key].__getitem__)
        for name, value in consts.items():
            setattr(self, name, value)
        self._plans = {}

    @property
    def elements(self):
        return range(self.size)

    def leq(self, a, b):
        return self.lattice.leq(a, b)

    def __repr__(self):
        return f"TableAlgebra({self.kind}, size={self.size})"


# -- embedding searches ----------------------------------------------------


def _rank_order(alg):
    elements = list(alg.elements)
    return sorted(elements, key=lambda e: sum(alg.leq(f, e) for f in elements))


def _delta_indices(alg, sig) -> dict:
    """Each element's delta-index: the least k with delta^k(x) equal to
    delta^(k+1)(x), or None where the delta orbit cycles without a fixed
    point.  An injective homomorphism preserves it exactly.  Computed on
    first use and kept in alg's ``_plans`` under ``("delta", tag)``; it
    serves sources and targets alike."""
    key = ("delta", sig.tag)
    index = alg._plans.get(key)
    if index is not None:
        return index
    index = {}
    for x in alg.elements:
        path = []
        y = x
        while y not in index and y not in path:
            path.append(y)
            y = sig.delta(alg, y)
        if y in index:
            k = index[y]
        else:
            k = -1 if y == path[-1] else None
        for y in reversed(path):
            k = None if k is None else k + 1
            index[y] = k
    alg._plans[key] = index
    return index


def _injective_domains(a, d, forced, b, sig):
    """Candidate values per rank for an embedding, or None when the
    delta-indices show that there is none: a constant's value has another
    index than the constant, or some index has more free positions in a
    than free values in b.

    A position takes only values of b with its own delta-index, and a
    position without a constant never takes a constant's value.  Both
    filters drop only values that lie in no embedding and keep b's order.
    """
    a_index = _delta_indices(a, sig)
    index = _delta_indices(b, sig)
    taken = set(forced.values())
    free = {}
    for v in b.elements:
        if v not in taken:
            free.setdefault(index[v], []).append(v)
    need = {}
    cands = []
    for p in d.order:
        i = a_index[d.variables[p]]
        if p in forced:
            if index.get(forced[p]) != i:
                return None
            cands.append((forced[p],))
        else:
            need[i] = need.get(i, 0) + 1
            cands.append(free.get(i, ()))
    if any(len(free.get(i, ())) < c for i, c in need.items()):
        return None
    return cands


def search_hom(a, b, sig):
    """Backtracking search for an injective operation-preserving map
    a -> b, or None.

    Positions of a's term diagram (``build_diagram``) are placed in its
    rank order and tried against the elements of b in order; each
    conjunct x*y = r is checked once, at the rank that places the last of
    x, y and r, and the meet conjuncts cover order preservation.  Each
    position's values are narrowed by delta-index, and the constants'
    values are kept for the constants (``_injective_domains``); each
    algebra's delta-indices are computed once.  Pruning only drops values
    that lie in no solution, so the first map found does not depend on
    when conjuncts are checked or on the filters.  b's operations are
    bound once per call and otherwise evaluated on demand, not
    tabulated: a search visits few nodes.
    """
    sig = get_signature(sig)
    d = build_diagram(a, sig)
    sig.require(b)
    forced = {}
    for c, p in d.const_conjuncts:
        v = getattr(b, c)
        if forced.setdefault(p, v) != v:
            return None
    cands = _injective_domains(a, d, forced, b, sig)
    if cands is None:
        return None
    watch = [[(getattr(b, m), binary, cs) for m, binary, cs in level]
             for level in d.watch]
    order = d.order
    n = len(order)
    values = [None] * n     # by diagram position
    next_try = [0] * n
    used = set()
    k = 0
    while k < n:
        row = cands[k]
        p = order[k]
        i = next_try[k]
        while i < len(row):
            v = row[i]
            i += 1
            if v in used:
                continue
            values[p] = v
            if _conjuncts_hold(values, watch[k]):
                break
        else:
            # no value left here: retry the previous rank
            k -= 1
            if k < 0:
                return None
            used.discard(values[order[k]])
            continue
        next_try[k] = i
        used.add(v)
        k += 1
        if k < n:
            next_try[k] = 0
    return dict(zip(d.variables, values))


def _conjuncts_hold(values, level) -> bool:
    for fb, binary, conjuncts in level:
        if binary:
            for px, py, pr in conjuncts:
                if fb(values[px], values[py]) != values[pr]:
                    return False
        else:
            for px, pr in conjuncts:
                if fb(values[px]) != values[pr]:
                    return False
    return True


def search_embedding(a, b, sig):
    """Injective operation-preserving map, or None."""
    if a.size > b.size:
        return None
    return search_hom(a, b, sig)


def embedding_by_diagram(a, b, sig):
    """Assignment making the diagram of a evaluate to 1 while keeping the
    monolith-bottom variable away from 1, or None.

    Every conjunct must individually reach 1, so the assignment is a
    homomorphism that keeps a's monolith bottom away from 1.  Such a
    homomorphism out of an SI algebra has a trivial kernel, and an
    injective one sends the monolith bottom away from h(1) = 1, so the
    search is the embedding search; it tries values in the same order
    and finds the same map.
    """
    sig = get_signature(sig)
    d = build_diagram(a, sig)
    if d.mu is None:
        raise NotSI("diagram criterion needs an SI source")
    hom = search_hom(a, b, sig)
    if hom is None:
        return None
    asg = Assignment(b, tuple(hom[e] for e in d.variables))
    if eval_diagram(d, asg) != b.one:
        raise SignatureMismatch("diagram value is not 1 on a homomorphism")
    return asg


def delta_power_witness(a, b, i: int, sig, candidates=()):
    """Assignment with the i-fold delta of the diagram not below the
    monolith-bottom variable, or None after exhaustive search."""
    sig = get_signature(sig)
    d = build_diagram(a, sig)
    if d.mu is None:
        raise NotSI("witness needs an SI source")

    def check(values):
        asg = Assignment(b, tuple(values))
        val = eval_diagram(d, asg)
        for _ in range(i):
            val = sig.delta(b, val)
        if not b.leq(val, values[d.mu]):
            return asg
        return None

    for cand in candidates:
        got = check(cand)
        if got is not None:
            return got
    b_elems = list(b.elements)
    total = len(b_elems) ** d.var_count
    if total > ASSIGNMENT_CAP:
        raise SizeError(f"{total} assignments exceed cap {ASSIGNMENT_CAP}")
    for values in itertools.product(b_elems, repeat=d.var_count):
        got = check(values)
        if got is not None:
            return got
    return None


def in_hs(a, b, sig) -> bool:
    """True iff a embeds into some quotient of b.

    Each delta-fixed g of b (an idempotent, for CIRLs) has the congruence
    g <= iff(x, y), which is g·x = g·y for the signature's product ·, so
    its quotient has |{g·x}| elements.  The g are tried by that count,
    largest first, until it falls below |a|; g = 1 gives b itself.  A
    CIRL quotient is ``quotient``; for the order signatures b is dualized
    once and the quotient by an up-set G is Up(G) (Priestley 1975).
    """
    from . import duality, residuated

    sig = get_signature(sig)
    if a.size == 1:
        return True    # the quotient by the total congruence
    if sig is not CIRL:
        b = duality._as_up_set_algebra(b)
    prod, elements = getattr(b, sig.product), list(b.elements)
    classes = {g: len({prod(g, x) for x in elements})
               for g in elements if sig.delta(b, g) == g}
    for g in sorted(classes, key=classes.get, reverse=True):
        if classes[g] < a.size:
            break
        if classes[g] == len(elements):
            q = b
        elif sig is CIRL:
            q = residuated.quotient(b, b.lattice.poset.up[g]).algebra
        else:
            q = duality.up_set_algebra(b.base.restrict(g)[0])
        if search_embedding(a, q, sig) is not None:
            return True
    return False


# -- the witness suite -----------------------------------------------------


@dataclass
class WitnessEntry:
    i: int
    b_size: int | None
    delta_witness_found: bool
    excluded: bool | None
    detail: dict = field(default_factory=dict)


@dataclass
class WitnessReport:
    tag: str
    a_size: int
    exempt: bool
    note: str
    entries: list[WitnessEntry] = field(default_factory=list)


def witness_suite(a, i_max: int, sig) -> WitnessReport:
    """For each i <= i_max build the canonical counterexample algebra and
    run both halves of the non-splitting check against it.

    The report demonstrates the constructions at the requested indices;
    it does not (and cannot) quantify over all i.
    """
    sig = get_signature(sig)
    if sig.tag == "cirl":
        return _witness_suite_cirl(a, i_max, sig)
    return _witness_suite_order(a, i_max, sig)


def _witness_suite_cirl(a, i_max, sig) -> WitnessReport:
    from .expansion import expand_to_depth
    from .residuated import monolith_info, truncated_product, wajsberg_hoop

    sig.require(a)
    info = monolith_info(a)
    if not info.is_si:
        raise NotSI("witness suite needs an SI algebra")
    small = a.size < 3
    note = ("two-element case: only the tuple computation is checked; "
            "excluding it from generated classes needs the infinite hoop"
            if small else "")
    report = WitnessReport("cirl", a.size, exempt=False, note=note)
    n = info.depth
    built_for = None
    for i in range(i_max + 1):
        # only the witness search depends on i; the rest depends on need
        need = max(n + 1, 2 ** i + 1)
        if need != built_for:
            built_for = need
            exp = expand_to_depth(a, need)
            e = exp.algebra
            p = _first_prime_at_least(e.size)
            hoop = wajsberg_hoop(p + 1)
            # the hoop's coatom is its first power
            big = truncated_product(e, hoop, exp.info.coatom, 1)
            w = _canonical_tuple(a, e, exp.embedding, hoop, big)
            excluded = None if small else not in_hs(a, big, sig)
        witness = delta_power_witness(a, big, i, sig, candidates=[w])
        report.entries.append(WitnessEntry(
            i=i, b_size=big.size,
            delta_witness_found=witness is not None,
            excluded=excluded,
            detail={"expansion_size": e.size, "expansion_depth": exp.depth,
                    "prime": p, "canonical_tuple": list(w)},
        ))
    return report


def _canonical_tuple(a, e, embedding, hoop, big):
    """The tuple sending 1 to (1,1) and every other element x to (x, q).

    Its diagram value is (c, q), c the coatom of e.  The tuple witnesses
    exactly the powers k < depth(e): c^depth(e) is the bottom of e's
    monolith, which lies below the image of a's monolith bottom, so at
    k = depth(e) the value falls into the monolith.  Another assignment
    can still witness k = depth(e).
    """
    pair_of = _pair_index(e, hoop, big)
    q = 1  # coatom of the hoop is its first power
    values = []
    for x in a.elements:
        if x == a.one:
            values.append(pair_of[(e.one, hoop.one)])
        else:
            values.append(pair_of[(embedding[x], q)])
    return tuple(values)


def _pair_index(e, hoop, big):
    """Recover the pair labelling of a truncated product's elements.

    Both factors are SI, so each coatom lies above every element but the
    top and each cone is everything except ``one``, in ascending order.
    """
    pairs = {}
    for x in range(e.size):
        for y in range(hoop.size):
            if x != e.one and y != hoop.one:
                pairs[(x, y)] = len(pairs)
    pairs[(e.one, hoop.one)] = len(pairs)
    assert len(pairs) == big.size
    return pairs


def _first_prime_at_least(n: int) -> int:
    m = max(n, 2)
    while True:
        if all(m % d for d in range(2, int(m ** 0.5) + 1)):
            return m
        m += 1


def _witness_suite_order(a, i_max, sig) -> WitnessReport:
    from .duality import _as_up_set_algebra, never_maps_onto
    from .hplus_witness import (build_witness_algebra, diagram_final_check_on,
                                fence_for_target)

    sig.require(a)
    if a.size == 1:     # its dual is empty
        raise NotSI("witness suite needs an SI algebra")
    a = _as_up_set_algebra(a)
    if a.size <= 3:
        return WitnessReport(sig.tag, a.size, exempt=True,
                             note="two- and three-element algebras split; "
                                  "suite skipped")
    # before double_point, so every disconnected base gets this reason
    if not is_connected(a.base):
        raise BadParameter("x must be connected")
    x = double_point(a.base)
    fence = fence_for_target(x)
    report = WitnessReport(sig.tag, a.size, exempt=False, note="")
    for i in range(i_max + 1):
        w = build_witness_algebra(x, fence, i)
        value = diagram_final_check_on(a, w, sig.tag)
        not_onto = never_maps_onto(w.carrier.poset, x.poset)
        carrier = w.carrier.size
        report.entries.append(WitnessEntry(
            i=i,
            b_size=len(w.algebra.elements) if carrier <= 16 else None,
            delta_witness_found=value != 0,
            excluded=not_onto,
            detail={"carrier_size": carrier, "fence_case": fence.case},
        ))
    return report


def double_point(p: FinPoset):
    """Choose a minimal bot lying below a maximal top."""
    mins = list(bits(p.minimals()))
    for b in mins:
        above = p.up[b] & p.maximals()
        for t in bits(above):
            if t != b:
                return DoublePointedPoset(p, b, t)
    raise BadParameter("poset has no comparable (bot, top) pair")

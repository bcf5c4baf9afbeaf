"""Finite restricted Priestley duality.

All spaces are finite, so the topology is discrete and "clopen up-set"
just means up-set; conditions on spaces that only constrain the topology
are vacuous here and are not modelled.
"""

from dataclasses import dataclass

from .errors import BadParameter, NotDistributive, NotRegular, SizeError
from .diagram import KINDS
from .lattice import FinLattice
from .poset import (DEFAULT_UPSET_CAP, FinPoset, bits, enumerate_up_sets,
                    is_connected, popcount, relation_rows)

MORPHISM_BUDGET = 50_000_000


class UpSetAlgebra:
    """The algebra of up-sets of a finite ordered set.

    Elements are up-set bitmasks.  The operations are total and follow
    the down-/up-closure formulas of the finite duality; ``elements`` is
    only materialised on demand since carriers can be large.  ``_plans``
    holds the algebra's term diagram per signature and its delta-indices,
    each built once.  ``_neg`` and ``_dpc`` memoize the two
    pseudocomplements, keyed by the argument mask, so ``delta`` and
    ``sigma`` share them; on up-set arguments each holds at most |Up(X)|
    entries.  A mask outside the carrier raises RangeError and is not
    cached.  ``arrow`` and ``coarrow`` are never cached: their closure
    argument u & ~v ranges over all 2^|X| subsets.
    """

    __slots__ = ("base", "one", "_elements", "_plans", "_neg", "_dpc")

    zero = bottom = 0

    def __init__(self, base: FinPoset):
        self.base = base
        self.one = base.all_mask
        self._elements = None
        self._plans = {}
        self._neg = {}
        self._dpc = {}

    # -- carrier ---------------------------------------------------------

    def materialize(self, cap: int = DEFAULT_UPSET_CAP) -> list[int]:
        if self._elements is None:
            self._elements = enumerate_up_sets(self.base, cap)
        return self._elements

    @property
    def elements(self) -> list[int]:
        return self.materialize()

    @property
    def size(self) -> int:
        return len(self.elements)

    # -- operations (masks in, masks out) ---------------------------------

    def leq(self, u: int, v: int) -> bool:
        return not (u & ~v)

    def meet(self, u: int, v: int) -> int:
        return u & v

    def join(self, u: int, v: int) -> int:
        return u | v

    def neg(self, u: int) -> int:
        r = self._neg.get(u)
        if r is None:
            r = self._neg[u] = self.one & ~self.base.down_mask(u)
        return r

    def dpc(self, u: int) -> int:
        r = self._dpc.get(u)
        if r is None:
            # one ^ u keeps u's bits outside the carrier, which up_mask refuses
            r = self._dpc[u] = self.base.up_mask(self.one ^ u)
        return r

    def arrow(self, u: int, v: int) -> int:
        return self.one & ~self.base.down_mask(u & ~v)

    def coarrow(self, u: int, v: int) -> int:
        return self.base.up_mask(u & ~v)

    def delta(self, u: int) -> int:
        return self.neg(self.dpc(u))

    def sigma(self, u: int) -> int:
        return self.dpc(self.neg(u))

    def __repr__(self):
        return f"UpSetAlgebra(base size {self.base.size})"


def up_set_algebra(x: FinPoset, cap: int = DEFAULT_UPSET_CAP) -> UpSetAlgebra:
    """Build Up(x) with its carrier materialized, or raise SizeError past cap.

    The Heyting, dual-Heyting and pseudocomplement laws hold on up-sets by
    construction (Priestley 1975; Esakia 1974), so none is re-checked.
    """
    alg = UpSetAlgebra(x)
    alg.materialize(cap)
    return alg


def dual_poset(lat: FinLattice) -> tuple[FinPoset, list[int]]:
    """Join-irreducibles of a finite distributive lattice, ordered so that
    its up-set lattice reconstructs the input.

    Returns the poset and the list of lattice elements realising it.  The
    order is the reverse of the lattice order on join-irreducibles, which
    makes the round trip the identity on labels for up-set-lattice inputs.
    """
    if not lat.is_distributive():
        raise NotDistributive("dual poset requires a distributive lattice")
    irr = []
    for x in range(lat.size):
        if x == lat.zero:
            continue
        below = lat.poset.down[x] & ~(1 << x)
        if lat.join_all(below) != x:
            irr.append(x)
    rows = relation_rows(len(irr), lambda j, k: lat.leq(irr[k], irr[j]))
    return FinPoset(rows), irr


def birkhoff_map(lat: FinLattice, irr: list[int]) -> dict[int, int]:
    """x -> mask of join-irreducibles below x, an up-set of the dual."""
    out = {}
    for x in range(lat.size):
        mask = 0
        for k, j in enumerate(irr):
            if lat.leq(j, x):
                mask |= 1 << k
        out[x] = mask
    return out


@dataclass(frozen=True)
class PosetMap:
    source: FinPoset
    target: FinPoset
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.source.size:
            raise BadParameter("map is not total")
        for v in self.values:
            if not 0 <= v < self.target.size:
                raise BadParameter("value out of target range")

    def image_mask(self, s: int) -> int:
        out = 0
        for i in bits(s):
            out |= 1 << self.values[i]
        return out


@dataclass(frozen=True)
class MapClass:
    is_priestley: bool
    m1: bool
    m2: bool
    m3: bool

    @property
    def heyting(self) -> bool:
        return self.m1

    @property
    def hplus(self) -> bool:
        return self.m1 and self.m3

    @property
    def dheyting(self) -> bool:
        return self.m1 and self.m2


def classify_map(phi: PosetMap) -> MapClass:
    """Pointwise morphism classification.

    m1: images of principal up-sets are principal up-sets of the target;
    m2 dually; m3: images of the minimal elements below a point are the
    minimal elements below its image.
    """
    x, y, f = phi.source, phi.target, phi.values
    order_ok = all(y.leq(f[i], f[j])
                   for i in range(x.size) for j in bits(x.up[i]))
    m1 = order_ok and all(phi.image_mask(x.up[i]) == y.up[f[i]]
                          for i in range(x.size))
    m2 = order_ok and all(phi.image_mask(x.down[i]) == y.down[f[i]]
                          for i in range(x.size))
    ymin = y.minimals()
    xmin = x.minimals()
    m3 = all(phi.image_mask(x.down[i] & xmin) == y.down[f[i]] & ymin
             for i in range(x.size))
    return MapClass(order_ok, m1, m2, m3)


MORPHISM_KINDS = frozenset({"heyting", "hplus", "dh"})


def enumerate_morphisms(x: FinPoset, y: FinPoset, kind: str = "hplus",
                        surjective_only: bool = False,
                        budget: int = MORPHISM_BUDGET) -> list[PosetMap]:
    """All maps of the requested kind, sorted by ``values``.

    The list is the output of ``iter_morphisms``, so it is exact; the sort
    makes it independent of the order the search assigns points in.
    """
    return sorted(iter_morphisms(x, y, kind, surjective_only, budget),
                  key=lambda phi: phi.values)


def iter_morphisms(x: FinPoset, y: FinPoset, kind: str = "hplus",
                   surjective_only: bool = False,
                   budget: int = MORPHISM_BUDGET):
    """Yield the maps x -> y of the requested kind, by backtracking.

    Points are assigned top-down, so all of up(e) is placed with e and
    M1 (the image of up(e) is up(f(e))) is checked at e's node; it implies
    order preservation.  M2 (down-sets, for ``dh``) and M3 (minimal
    elements below, for ``hplus``) are checked at the node that places
    the last point they read (forward checking, Haralick & Elliott 1980).
    Every yielded map therefore passes ``classify_map`` for its kind.
    ``budget`` caps the search nodes: one per value tried for a point,
    and only the values M1 allows there are tried.
    """
    if kind not in MORPHISM_KINDS:
        raise BadParameter(f"unknown morphism kind {kind!r}")
    n, m = x.size, y.size
    if surjective_only and m > n:
        return
    # a reverse linear extension: every point comes after all above it
    order = sorted(range(n), key=lambda i: popcount(x.up[i]))
    pos = [0] * n
    for k, e in enumerate(order):
        pos[e] = k
    strictly_above = [x.up[e] & ~(1 << e) for e in range(n)]
    upper_covers = [[c for c in bits(s) if not s & x.down[c] & ~(1 << c)]
                    for s in strictly_above]
    # M2 and M3 as (e, points read, table): the image of the points read
    # must be table[f(e)]; each is kept at the position of its last point
    watch = [[] for _ in range(n)]
    if kind == "dh":
        for e in range(n):
            reads = list(bits(x.down[e]))
            watch[max(pos[d] for d in reads)].append((e, reads, y.down))
    if kind == "hplus":
        xmin, ymin = x.minimals(), y.minimals()
        min_below = [y.down[v] & ymin for v in range(m)]
        for e in range(n):
            reads = list(bits(x.down[e] & xmin))
            watch[max(pos[d] for d in reads)].append((e, reads, min_below))
    values = [0] * n
    img_up = [0] * n           # image of up(e), once e is placed
    above = [0] * n            # image of the points strictly above order[k]
    image = [0] * (n + 1)      # image of the first k placed points
    cands = [0] * n            # values still to try at each position
    nodes = 0
    k = 0
    cands[0] = _m1_domain(y, 0)
    while k >= 0:
        c = cands[k]
        if not c:
            k -= 1
            continue
        low = c & -c
        cands[k] = c ^ low
        nodes += 1
        if nodes > budget:
            raise SizeError("morphism search budget exceeded")
        img = image[k] | low
        if surjective_only and popcount(y.all_mask & ~img) > n - k - 1:
            continue
        e = order[k]
        values[e] = low.bit_length() - 1
        if not all(_image(values, reads) == target[values[d]]
                   for d, reads, target in watch[k]):
            continue
        img_up[e] = above[k] | low
        if k + 1 == n:
            if not surjective_only or img == y.all_mask:
                yield PosetMap(x, y, tuple(values))
            continue
        k += 1
        image[k] = img
        up_image = 0
        for d in upper_covers[order[k]]:
            up_image |= img_up[d]
        above[k] = up_image
        cands[k] = _m1_domain(y, up_image)


def _m1_domain(y: FinPoset, above: int) -> int:
    """Mask of the v with up(v) = above + {v}: the values M1 allows for a
    point whose strict up-set has image ``above``."""
    dom = 0
    for v in range(y.size):
        if y.up[v] == above | (1 << v):
            dom |= 1 << v
    return dom


def _image(values: list[int], points: list[int]) -> int:
    out = 0
    for d in points:
        out |= 1 << values[d]
    return out


def never_maps_onto(x: FinPoset, y: FinPoset,
                    budget: int = MORPHISM_BUDGET) -> bool:
    """True iff no surjective hplus-morphism x -> y exists."""
    for _ in iter_morphisms(x, y, "hplus", surjective_only=True,
                            budget=budget):
        return False
    return True


@dataclass(frozen=True)
class AlgebraClass:
    simple: bool
    rdp: bool
    boolean: bool


def classify_algebra(x: FinPoset) -> AlgebraClass:
    """Dual-side classification of Up(x)."""
    discrete = all(x.up[i] == 1 << i for i in range(x.size))
    return AlgebraClass(
        simple=is_connected(x),
        rdp=(x.minimals() | x.maximals()) == x.all_mask,
        boolean=discrete,
    )


def katrinak_arrow(alg: UpSetAlgebra, u: int, v: int) -> int:
    """The Heyting arrow recovered from the two pseudocomplements.

    Only valid over bases of height <= 1 (the regular case); the result
    coincides with the algebra's arrow table there.  The term is the meet
    of neg(neg(neg(u) | neg(neg(v)))) and dpc(u | neg(u)) | neg(u) | v |
    neg(v), meet and join being & and | on up-sets; each subterm is
    evaluated once.
    """
    x = alg.base
    if (x.minimals() | x.maximals()) != x.all_mask:
        raise NotRegular("base has an element that is neither minimal nor maximal")
    n, s = alg.neg, alg.dpc
    nu, nv = n(u), n(v)
    left = n(n(nu | n(nv)))
    right = s(u | nu) | nu | v | nv
    return left & right


def generate_subalgebra(alg, gens, signature: str = "hplus") -> set:
    """Closure of gens plus the constants under the signature's operations."""
    sig = KINDS.get(signature)
    if sig is None:
        raise BadParameter(f"unknown signature {signature!r}")
    ops = [(m, 2) for _, m in sig.binary] + [(m, 1) for _, m in sig.unary]
    current = set(gens) | {getattr(alg, c) for c in sig.consts}
    frontier = list(current)
    while frontier:
        nxt = []
        items = list(current)
        for name, arity in ops:
            fn = getattr(alg, name)
            if arity == 1:
                for a in frontier:
                    r = fn(a)
                    if r not in current:
                        current.add(r)
                        nxt.append(r)
            else:
                for a in frontier:
                    for b in items:
                        for r in (fn(a, b), fn(b, a)):
                            if r not in current:
                                current.add(r)
                                nxt.append(r)
        frontier = nxt
    return current


# -- congruences of double p-algebras (for the regularity check) ----------

CONGRUENCE_CAP = 256


def _closed_subsets(x: FinPoset) -> set[int]:
    """Subsets Y of x with min(down y) and max(up y) inside Y for y in Y.

    Each point's reach set is the least such Y containing it, and every
    such Y is the union of the reach sets of its points.
    """
    mins, maxs = x.minimals(), x.maximals()
    reach = set()
    for y in range(x.size):
        r, frontier = 0, 1 << y
        while frontier:
            r |= frontier
            step = ((x.down_mask(frontier) & mins)
                    | (x.up_mask(frontier) & maxs))
            frontier = step & ~r
        reach.add(r)
    closed = {0}
    for r in reach:
        closed |= {y | r for y in closed}
    return closed


def dp_congruences(alg: UpSetAlgebra) -> list[frozenset]:
    """All congruences of the double-p reduct, as sets of classes of
    indices into ``alg.elements``.

    Finite Priestley duality (Priestley 1975): the congruences of Up(X)
    as a double p-algebra correspond to the closed subsets Y of X, and
    up-sets U, V are congruent modulo Y iff U & Y == V & Y.
    """
    if not isinstance(alg, UpSetAlgebra):
        raise BadParameter("dp_congruences needs an UpSetAlgebra")
    elements = alg.elements
    if len(elements) > CONGRUENCE_CAP:
        raise SizeError(f"congruence enumeration capped at "
                        f"{CONGRUENCE_CAP} elements")
    out = []
    for y in _closed_subsets(alg.base):
        classes = {}
        for i, u in enumerate(elements):
            classes.setdefault(u & y, []).append(i)
        out.append(frozenset(frozenset(c) for c in classes.values()))
    return sorted(out, key=lambda c: (len(c), sorted(map(sorted, c))))


@dataclass(frozen=True)
class VarletReport:
    regular: bool
    determined_by_pcs: bool
    height_at_most_one: bool
    distributive_identity: bool

    @property
    def all_agree(self) -> bool:
        return len({self.regular, self.determined_by_pcs,
                    self.height_at_most_one,
                    self.distributive_identity}) == 1


def varlet_report(alg) -> VarletReport:
    """The four regularity conditions, each on its own code path.

    Regularity comes from the congruence classes (the min/max closure
    of ``dp_congruences``), determination from the pseudocomplements,
    the height from the longest chain of the base, and the identity
    meet(dpc(a), a) <= join(b, neg(b)) from the operations.  None reuses another,
    so their agreement is a check of Varlet's theorem.  A table algebra
    is dualized once; its lattice is distributive by validation, and on
    up-sets meet and join are & and |, so only the identity is checked.
    """
    alg = _as_up_set_algebra(alg)
    elements = alg.elements

    class_sets = [set(c) for c in dp_congruences(alg)]
    regular = not any(class_sets[i] & class_sets[j]
                      for i in range(len(class_sets))
                      for j in range(i + 1, len(class_sets)))

    pcs = {(alg.neg(a), alg.dpc(a)) for a in elements}
    determined = len(pcs) == len(elements)

    height_ok = alg.base.height() <= 1

    lhs, rhs = 0, alg.one
    for a in elements:
        lhs |= alg.meet(alg.dpc(a), a)
        rhs &= alg.join(a, alg.neg(a))
    identity = alg.leq(lhs, rhs)

    return VarletReport(regular, determined, height_ok, identity)


def _as_up_set_algebra(alg) -> UpSetAlgebra:
    """Rebuild a table algebra as the up-set algebra of its dual.

    Any finite algebra on a distributive lattice is isomorphic to one of
    these, so only the carrier representation changes.  Up-set
    algebras are returned as they are.
    """
    if isinstance(alg, UpSetAlgebra):
        return alg
    base, _ = dual_poset(alg.lattice)
    rebuilt = up_set_algebra(base)
    if rebuilt.size != alg.size:
        raise BadParameter("carrier is not the up-set lattice of its dual")
    return rebuilt

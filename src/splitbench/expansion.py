"""Depth-doubling expansion of a commutative integral residuated lattice.

A new element d_a is inserted between c*a and a for every a where those
differ; the resulting ordered monoid is completed to a residuated
lattice through the Galois closure of a nuclear relation.
"""

from dataclasses import dataclass
from operator import or_
from typing import Iterator

from .diagram import CIRL, FibreQuotient, search_embedding
from .errors import AxiomError, BadParameter, NotSI, SizeError
from .lattice import FinLattice
from .poset import FinPoset, bits, relation_rows
from .residuated import (CIRLTable, MonolithInfo, check_monoid,
                         monolith_info, preimage_masks, quotient,
                         residual_of)

# each round roughly doubles the algebra, and building a round grows
# steeply with its monoid's size; past this size the round is refused
EXPANSION_CAP = 128


class ExpandedMonoid:
    """The ordered commutative monoid on A plus the inserted elements.

    Elements 0..|A|-1 are the base algebra's; the rest are the inserted
    d_a in ascending order of a.  A monoid of more than EXPANSION_CAP
    elements raises SizeError before any table is built.
    """

    __slots__ = ("base", "c", "a0", "d_index", "base_of", "size",
                 "order", "mul", "one", "bottom")

    def __init__(self, base: CIRLTable, c: int):
        n = base.size
        a0 = [a for a in range(n) if base.mul[c][a] != a]
        if n + len(a0) > EXPANSION_CAP:
            raise SizeError(f"expansion monoid of {n + len(a0)} elements "
                            f"exceeds cap {EXPANSION_CAP}")
        self.base = base
        self.c = c
        self.a0 = a0
        self.d_index = {a: n + k for k, a in enumerate(a0)}
        self.base_of = list(range(n)) + a0
        self.size = n + len(a0)
        self._build_order()
        self._build_mul()
        self.one = base.one
        full = (1 << self.size) - 1
        self.bottom = next(i for i in range(self.size)
                           if self.order.up[i] == full)
        # integrality holds by construction: d_a <= a <= 1
        check_monoid(self.order.up, self.order.covers(), self.mul, self.one)

    def _build_order(self):
        base, c, of = self.base, self.c, self.base_of
        n = base.size

        def leq(x, y):
            # only a base element below an inserted d_a is compared with c*a
            if x < n <= y:
                return base.leq(of[x], base.mul[c][of[y]])
            return base.leq(of[x], of[y])

        # FinPoset checks reflexivity, antisymmetry and transitivity
        self.order = FinPoset(relation_rows(self.size, leq))

    def _build_mul(self):
        base, c = self.base, self.c
        n = base.size
        tab = [[0] * self.size for _ in range(self.size)]
        for x in range(self.size):
            for y in range(x, self.size):
                xd, yd = x >= n, y >= n
                xa, ya = self.base_of[x], self.base_of[y]
                if not xd and not yd:
                    v = base.mul[xa][ya]
                elif xd and yd:
                    v = base.mul[base.mul[c][xa]][ya]
                else:
                    prod = base.mul[xa][ya]
                    if base.mul[c][prod] != prod:
                        v = self.d_index[prod]
                    else:
                        v = prod
                tab[x][y] = tab[y][x] = v
        self.mul = tab

    def leq(self, x: int, y: int) -> bool:
        return bool(self.order.up[x] & (1 << y))

    @property
    def d(self) -> int:
        return self.d_index[self.base.one]


class NuclearFrame:
    """The pair set W = P x A with x N (u,s) iff u*x <= s.

    Basic closed sets are materialised once, as the masks {x : u*x <= s}
    of ``preimage_masks`` on row u cut to the base elements s; the Galois
    closure of any subset is then the meet of the basic sets containing it,
    kept in ``_closures`` by subset mask once computed.
    """

    __slots__ = ("monoid", "basic", "_closures")

    def __init__(self, monoid: ExpandedMonoid):
        self.monoid = monoid
        covers = monoid.order.covers()
        base_n = monoid.base.size
        self.basic = [m for row in monoid.mul
                      for m in preimage_masks(covers, row)[:base_n]]
        self._closures = {}


def build_expansion_monoid(base: CIRLTable, c: int | None = None) -> ExpandedMonoid:
    if c is None:
        info = monolith_info(base)
        if not info.is_si:
            raise BadParameter("base is not SI; pass c explicitly")
        c = info.coatom
    if c == base.one:
        raise BadParameter("c must be strictly negative")
    return ExpandedMonoid(base, c)


def gamma_closure(frame: NuclearFrame, z: int) -> int:
    """Intersection of the basic closed sets containing z, kept per frame;
    a mask with bits outside the monoid is refused on every call."""
    out = frame._closures.get(z)
    if out is not None:
        return out
    out = (1 << frame.monoid.size) - 1
    for m in frame.basic:
        if not (z & ~m):
            out &= m
    if z & ~out:
        raise AxiomError("closure is not extensive")
    frame._closures[z] = out
    return out


@dataclass
class LpResult:
    algebra: CIRLTable
    closed_sets: list[int]
    embedding: list[int]
    d_element: int


def lp_algebra(frame: NuclearFrame) -> LpResult:
    """The residuated lattice of closed subsets of the monoid.

    Candidates come from the canonical form (a down-set of a base
    element joined with a down-set of d times a base element) and are
    verified closed; meet is intersection, the product is the closure
    of the elementwise product, and the residual is derived from the
    product, since a closed set's residual into a closed set is closed.

    The product's monoid laws hold by proof and are not checked.  The
    monoid W and the pairs W' = P x A, with x N (u, s) iff u*x <= s, form
    a residuated frame: N is nuclear, since u*(x*y) <= s iff (u*x)*y <= s,
    by the associativity and commutativity that ``ExpandedMonoid``
    checks.  So the Galois-closed sets, with X o Y = gamma(XY), form a
    commutative residuated lattice ordered by inclusion (Galatos &
    Jipsen, "Residuated frames with applications to decidability",
    Trans. AMS 365, 2013).  The product of two listed sets is looked up
    among them, so they are closed under o, and o is commutative,
    associative and monotone on them as on all closed sets; monotonicity
    is what ``residual_of`` needs.  What the paper states and the code
    does not prove is checked: meet is intersection, and the unit is
    gamma(1).
    """
    mon = frame.monoid
    base = mon.base
    d = mon.d
    down = mon.order.down

    cands = set()
    for a in range(base.size):
        for b in range(base.size):
            cands.add(down[a] | down[mon.mul[d][b]])
    closed = sorted(m for m in cands if gamma_closure(frame, m) == m)
    index = {m: i for i, m in enumerate(closed)}
    n = len(closed)

    lat = FinLattice(FinPoset(relation_rows(
        n, lambda i, j: not closed[i] & ~closed[j])))
    for i, m in enumerate(closed):
        for j, other in enumerate(closed):
            expect = index.get(m & other)
            if expect is None or lat.meet[i][j] != expect:
                raise AxiomError("meet of closed sets is not intersection")

    # images[x][j] is the image of closed set j under x's row (a sum of
    # distinct bits), so the elementwise product of i and j is the union
    # of images[x][j] over x in i
    images = [[sum({1 << row[y] for y in bits(mj)}) for mj in closed]
              for row in mon.mul]
    mul = []
    for mi in closed:
        prods = [0] * n
        for x in bits(mi):
            prods = list(map(or_, prods, images[x]))
        mul.append([index[gamma_closure(frame, p)] for p in prods])
    alg = CIRLTable(lat, mul, residual_of(lat, mul))
    if closed[alg.one] != gamma_closure(frame, 1 << base.one):
        raise AxiomError("unit of the closure algebra is not gamma(1)")

    embedding = [index[down[a]] for a in range(base.size)]
    return LpResult(alg, closed, embedding, index[down[d]])


@dataclass
class ExpansionResult:
    algebra: CIRLTable
    embedding: list[int]
    rounds: int
    info: MonolithInfo

    @property
    def depth(self) -> int:
        return self.info.depth


def expand_once(base: CIRLTable, c: int | None = None) -> LpResult:
    return lp_algebra(NuclearFrame(build_expansion_monoid(base, c)))


def expansion_tower(base: CIRLTable) -> Iterator[ExpansionResult]:
    """Round 0, the base, then each expansion round, checked against its
    contract: the result is SI, its depth at least doubles, the monolith
    restricts to the previous round's, and the quotient by the monolith
    is isomorphic to the base's, built once, just before round 1.
    """
    info = monolith_info(base)
    if not info.is_si:
        raise NotSI("expansion target must be SI")
    alg = base
    emb = list(range(base.size))
    rounds = 0
    yield ExpansionResult(alg, emb, rounds, info)
    q_base = quotient(base, info.mu_filter).algebra
    while True:
        prev, prev_info = alg, info
        step = expand_once(alg, prev_info.coatom)
        alg = step.algebra
        emb = [step.embedding[e] for e in emb]
        rounds += 1
        info = monolith_info(alg)
        if not info.is_si:
            raise AxiomError("expansion lost subdirect irreducibility")
        if info.depth < 2 * prev_info.depth:
            raise AxiomError("expansion did not double the monolith depth")
        _check_monolith_restricts(prev, prev_info, q_base, step, info)
        yield ExpansionResult(alg, emb, rounds, info)


def expand_to_depth(base: CIRLTable, k: int) -> ExpansionResult:
    """The first round of ``expansion_tower(base)`` of depth at least k."""
    return next(r for r in expansion_tower(base) if r.depth >= k)


def _check_monolith_restricts(prev: CIRLTable, prev_info, q_base: CIRLTable,
                              step: LpResult, info) -> None:
    """Monolith filter of the expansion meets the base in the base's, and
    its quotient g·E (``FibreQuotient``, g the monolith bottom) is
    isomorphic to ``q_base``: a bijective homomorphism is an isomorphism.
    """
    restricted = sorted(e for e in range(prev.size)
                        if info.mu_filter & (1 << step.embedding[e]))
    expected = sorted(bits(prev_info.mu_filter))
    if restricted != expected:
        raise AxiomError("monolith does not restrict to the base monolith")
    q = FibreQuotient(step.algebra, CIRL, info.mu_bottom)
    if q.size != q_base.size or search_embedding(q_base, q, CIRL) is None:
        raise AxiomError("quotient by the monolith changed under expansion")

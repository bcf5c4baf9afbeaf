"""Finite commutative integral residuated lattices as explicit tables,
and the table laws of every algebra kind."""

from dataclasses import dataclass, field

from .diagram import CIRL, TableAlgebra, search_embedding, si_structure
from .errors import AxiomError, BadParameter, NotACongruenceFilter
from .lattice import FinLattice
from .poset import FinPoset, bits, popcount, relation_rows


class CIRLTable:
    """Lattice plus commutative monoid and residual tables.

    The multiplicative unit is the lattice top (integrality).  Instances
    are expected to come from validate_cirl or from the constructors in
    this module, all of which check the laws.
    """

    __slots__ = ("lattice", "mul", "arrow")
    kind = "cirl"

    def __init__(self, lattice: FinLattice, mul, arrow):
        self.lattice = lattice
        self.mul = mul
        self.arrow = arrow

    @property
    def size(self) -> int:
        return self.lattice.size

    @property
    def elements(self) -> range:
        return range(self.size)

    @property
    def one(self) -> int:
        return self.lattice.one

    @property
    def bottom(self) -> int:
        return self.lattice.zero

    def leq(self, a: int, b: int) -> bool:
        return self.lattice.leq(a, b)

    def meet(self, a: int, b: int) -> int:
        return self.lattice.meet[a][b]

    def join(self, a: int, b: int) -> int:
        return self.lattice.join[a][b]

    def mult(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def res(self, a: int, b: int) -> int:
        return self.arrow[a][b]

    def iff(self, a: int, b: int) -> int:
        return self.meet(self.meet(self.res(a, b), self.res(b, a)), self.one)

    def power(self, a: int, k: int) -> int:
        out = self.one
        for _ in range(k):
            out = self.mul[out][a]
        return out

    def potency(self) -> int:
        """Least n with x^(n+1) = x^n for all x."""
        if self.size == 1:
            return 0
        n = 1
        cur = list(range(self.size))
        while True:
            nxt = [self.mul[c][x] for x, c in enumerate(cur)]
            if nxt == cur:
                return n
            cur = nxt
            n += 1

    def idempotents(self) -> list[int]:
        return [x for x in range(self.size) if self.mul[x][x] == x]

    def __repr__(self):
        return f"CIRLTable(size={self.size})"


def check_monoid(up, mul, one: int) -> None:
    """Unit, commutativity, associativity and monotonicity of ``mul`` on
    the order whose rows are ``up``, naming the first failure with a
    witness."""
    n = len(up)
    for x in range(n):
        if mul[x][one] != x or mul[one][x] != x:
            raise AxiomError(f"unit law fails at x={x}")
    for x in range(n):
        mx = mul[x]
        for y in range(n):
            if mx[y] != mul[y][x]:
                raise AxiomError(f"commutativity fails at ({x},{y})")
    for x in range(n):
        mx = mul[x]
        for y in range(n):
            mxy, my, up_y, up_mxy = mul[mx[y]], mul[y], up[y], up[mx[y]]
            for z in range(n):
                if mxy[z] != mx[my[z]]:
                    raise AxiomError(f"associativity fails at ({x},{y},{z})")
                if up_y >> z & 1 and not up_mxy >> mx[z] & 1:
                    raise AxiomError(f"monotonicity fails at ({x},{y},{z})")


def check_residual(up, mul, arrow, law: str) -> None:
    """mul[x][z] <= y iff z <= arrow[x][y] on the order whose rows are
    ``up``; the first failing (x, y, z) is named under ``law``."""
    n = len(up)
    for x in range(n):
        ax = arrow[x]
        up_mxz = [up[v] for v in mul[x]]
        for y in range(n):
            axy = ax[y]
            for z in range(n):
                if (up_mxz[z] >> y & 1) != (up[z] >> axy & 1):
                    raise AxiomError(f"{law} fails at ({x},{y},{z})")


def validate_cirl(lattice: FinLattice, mul, arrow) -> CIRLTable:
    """Check every CIRL law, naming the first failure with a witness."""
    up = lattice.poset.up
    check_monoid(up, mul, lattice.one)
    check_residual(up, mul, arrow, "residuation")
    return CIRLTable(lattice, mul, arrow)


def validate_order_algebra(kind: str, lattice: FinLattice, tables: dict,
                           consts: dict) -> TableAlgebra:
    """Check the laws of a Heyting-type or double p-algebra's tables on
    their lattice, naming the first failure with a witness."""
    n, zero, one = lattice.size, lattice.zero, lattice.one
    up, meet, join = lattice.poset.up, lattice.meet, lattice.join
    if consts["zero"] != zero or consts["one"] != one:
        raise AxiomError("constants are not the lattice bounds")
    if kind in ("heyting", "hplus", "dheyting"):
        check_residual(up, meet, tables["arrow"], "arrow residuation")
    if kind == "dheyting":
        coarrow = tables["coarrow"]
        for x in range(n):
            for y in range(n):
                cxy = coarrow[x][y]
                for z in range(n):
                    if (up[x] >> join[z][y] & 1) != (up[cxy] >> z & 1):
                        raise AxiomError(f"coarrow residuation fails at "
                                         f"({x},{y},{z})")
    if kind in ("hplus", "dp"):
        dpc = tables["dpc"]
        for x in range(n):
            for y in range(n):
                if (join[x][y] == one) != (up[dpc[x]] >> y & 1):
                    raise AxiomError(f"dual pseudocomplement law fails at "
                                     f"({x},{y})")
    if kind == "dp":
        # Varlet's conditions and the dual hold for distributive lattices
        bad = lattice.distributive_failure()
        if bad is not None:
            raise AxiomError("distributive law fails at ({},{},{})".format(*bad))
        neg = tables["neg"]
        for x in range(n):
            for y in range(n):
                if (meet[x][y] == zero) != (up[y] >> neg[x] & 1):
                    raise AxiomError(f"pseudocomplement law fails at "
                                     f"({x},{y})")
    return TableAlgebra(kind, lattice, tables, consts)


def derive_arrow(lattice: FinLattice, mul):
    """Residual table from a multiplication, or None where no max exists."""
    n = lattice.size
    arrow = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            cands = 0
            for z in range(n):
                if lattice.leq(mul[x][z], y):
                    cands |= 1 << z
            best = None
            for z in bits(cands):
                if not (cands & ~lattice.poset.down[z]):
                    best = z
                    break
            arrow[x][y] = best
    return arrow


def wajsberg_hoop(n: int) -> CIRLTable:
    """The n-element chain of powers of its coatom, with clipped exponents.

    Element i is the i-th power of the coatom, so 0 is the unit and n-1
    the bottom; exponents add and clip at n-1, and the residual
    subtracts and clips at 0.
    """
    if n < 2:
        raise BadParameter("hoop needs at least two elements")
    lat = FinLattice(FinPoset(relation_rows(n, lambda i, j: j <= i)))
    mul = [[min(n - 1, a + b) for b in range(n)] for a in range(n)]
    arrow = [[max(0, b - a) for b in range(n)] for a in range(n)]
    return validate_cirl(lat, mul, arrow)


def congruence_filters(alg: CIRLTable) -> list[int]:
    """All masks of lattice filters containing 1 and closed under squaring.

    Finite lattice filters are principal, so these are the up-sets of
    the square-idempotent elements; they biject with the congruences.
    """
    out = []
    for g in range(alg.size):
        f = alg.lattice.poset.up[g]
        if all(alg.leq(g, alg.mul[x][x]) for x in bits(f)):
            out.append(f)
    return sorted(out, key=popcount)


@dataclass(frozen=True)
class MonolithInfo:
    is_si: bool
    coatom: int | None = None
    mu_filter: int | None = None
    mu_bottom: int | None = None
    depth: int | None = None


def monolith_info(alg: CIRLTable) -> MonolithInfo:
    """SI detection plus the coatom, the monolith filter and its power depth.

    SI-ness and the monolith bottom come from ``si_structure``.  In an SI
    algebra 1 is join-irreducible, because (a|b)^(2k) <= a^k | b^k, so
    the join of everything below 1 is the unique coatom.
    """
    si = si_structure(alg, CIRL)
    if not si.is_si:
        return MonolithInfo(is_si=False)
    one, lat = alg.one, alg.lattice
    coatom = lat.join_all(lat.poset.all_mask & ~(1 << one))
    mu = lat.poset.up[si.mu_bottom]
    depth = 0
    for a in bits(mu):
        if a == one:
            continue
        # least n with a^(n+1) = a^n; the loop counts strict power drops
        k, cur = 1, a
        while alg.mul[cur][a] != cur:
            cur = alg.mul[cur][a]
            k += 1
        depth = max(depth, k)
    return MonolithInfo(True, coatom, mu, si.mu_bottom, depth)


def truncated_product(a: CIRLTable, b: CIRLTable,
                      c: int | None = None, q: int | None = None) -> CIRLTable:
    """Product of the cones below c and q, plus a fresh shared top.

    c and q default to the unique coatoms and must be strictly negative.
    """
    if c is None:
        info = monolith_info(a)
        if not info.is_si:
            raise BadParameter("left factor is not SI; pass c explicitly")
        c = info.coatom
    if q is None:
        info = monolith_info(b)
        if not info.is_si:
            raise BadParameter("right factor is not SI; pass q explicitly")
        q = info.coatom
    if c == a.one or q == b.one:
        raise BadParameter("c and q must be strictly negative")
    cone_a = list(bits(a.lattice.poset.down[c]))
    cone_b = list(bits(b.lattice.poset.down[q]))
    elems = [(x, y) for x in cone_a for y in cone_b]
    elems.append((a.one, b.one))
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)

    def pair_leq(i, j):
        (x, u), (y, v) = elems[i], elems[j]
        return a.leq(x, y) and b.leq(u, v)

    lat = FinLattice(FinPoset(relation_rows(n, pair_leq)))

    def clip(e):
        # products of cone elements stay in the cone, but guard anyway
        x, y = e
        return (a.meet(x, c), b.meet(y, q)) if e != (a.one, b.one) else e

    mul = [[0] * n for _ in range(n)]
    arrow = [[0] * n for _ in range(n)]
    for i, (x, u) in enumerate(elems):
        for j, (y, v) in enumerate(elems):
            prod = (a.mul[x][y], b.mul[u][v])
            if prod != (a.one, b.one):
                prod = clip(prod)
            mul[i][j] = index[prod]
            xley = a.leq(x, y)
            ulev = b.leq(u, v)
            if not xley and ulev:
                res = (a.meet(a.res(x, y), c), q)
            elif xley and not ulev:
                res = (c, b.meet(b.res(u, v), q))
            elif not xley and not ulev:
                res = (a.meet(a.res(x, y), c), b.meet(b.res(u, v), q))
            else:
                res = (a.one, b.one)
            arrow[i][j] = index[res]
    return validate_cirl(lat, mul, arrow)


@dataclass
class Quotient:
    algebra: CIRLTable
    projection: list[int] = field(default_factory=list)


def quotient(alg: CIRLTable, filter_mask: int) -> Quotient:
    """Quotient by the congruence of a filter, with the projection map."""
    if filter_mask not in congruence_filters(alg):
        raise NotACongruenceFilter(f"mask {filter_mask:b}")

    def equiv(x, y):
        return bool(filter_mask & (1 << alg.iff(x, y)))

    reps = []
    proj = [None] * alg.size
    for x in range(alg.size):
        for k, r in enumerate(reps):
            if equiv(x, r):
                proj[x] = k
                break
        else:
            proj[x] = len(reps)
            reps.append(x)
    n = len(reps)
    lat = FinLattice(FinPoset(relation_rows(
        n, lambda i, k: equiv(alg.join(reps[i], reps[k]), reps[k]))))
    mul = [[proj[alg.mul[reps[i]][reps[j]]] for j in range(n)]
           for i in range(n)]
    arrow = [[proj[alg.res(reps[i], reps[j])] for j in range(n)]
             for i in range(n)]
    return Quotient(validate_cirl(lat, mul, arrow), proj)


def is_isomorphic(a: CIRLTable, b: CIRLTable) -> bool:
    if a.size != b.size:
        return False
    if sorted(map(popcount, a.lattice.poset.down)) != \
            sorted(map(popcount, b.lattice.poset.down)):
        return False
    if len(a.idempotents()) != len(b.idempotents()):
        return False
    return search_embedding(a, b, CIRL) is not None

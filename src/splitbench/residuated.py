"""Finite commutative integral residuated lattices as explicit tables,
and the table laws of every algebra kind."""

from dataclasses import dataclass, field

from .diagram import CIRL, TableAlgebra, search_embedding, si_structure
from .errors import AxiomError, BadParameter, NotACongruenceFilter, SizeError
from .lattice import FinLattice
from .poset import FinPoset, bits, popcount, relation_rows

# past this size a truncated product is refused, as a table and in the
# witness suite alike (``product_size``); building the table grows a
# little faster than the square of its size: the 256-element product of
# the hoops C16 and C18 takes 0.06-0.10 s, 1,025 elements 1.3-1.7 s and
# 1,601 elements 3.8-4.0 s (CPython 3.11 on a 2-CPU x86-64 machine)
PRODUCT_CAP = 256


class CIRLTable(TableAlgebra):
    """Lattice plus commutative monoid and residual tables: the
    ``TableAlgebra`` of kind ``cirl``, whose ``mul`` and ``arrow`` tables
    are read by ``mult`` and ``res``.

    The multiplicative unit is the lattice top (integrality).  A table
    read from outside the program comes through validate_cirl, which
    checks every law; a table that the package builds carries the proof
    of its laws in its constructor's docstring, and the tests cross-check
    it with validate_cirl, so it is not checked again at run time.
    """

    def __init__(self, lattice: FinLattice, mul, arrow):
        super().__init__("cirl", lattice,
                         {"meet": lattice.meet, "join": lattice.join,
                          "mul": mul, "arrow": arrow},
                         {"one": lattice.one})

    def iff(self, a: int, b: int) -> int:
        return CIRL.iff(self, a, b)

    def power(self, a: int, k: int) -> int:
        out = self.one
        for _ in range(k):
            out = self.mul[out][a]
        return out

    def power_index(self, a: int) -> int:
        """Least n >= 1 with a^(n+1) = a^n."""
        n, cur = 1, a
        while self.mul[cur][a] != cur:
            cur = self.mul[cur][a]
            n += 1
        return n

    def potency(self) -> int:
        """Least n with x^(n+1) = x^n for all x: the largest power index,
        0 on the one-element algebra."""
        if self.size == 1:
            return 0
        return max(map(self.power_index, self.elements))

    def idempotents(self) -> list[int]:
        return [x for x in range(self.size) if self.mul[x][x] == x]


def generators(up, mul, one: int) -> list[int]:
    """The elements other than ``one`` that are not the product of two
    elements strictly above them, on the order whose rows are ``up``.

    With ``one`` they generate the table under ``mul``: by induction from
    the top of the finite order, an element outside them is the product
    of two elements above it, which are generated.  No monoid law is
    used, but ``mul`` must be commutative: the scan reads each unordered
    pair once.
    """
    products = 0
    for u, row in enumerate(mul):
        for v in range(u, len(row)):
            w = row[v]
            if w != u and w != v and up[w] >> u & 1 and up[w] >> v & 1:
                products |= 1 << w
    return [g for g in range(len(up)) if g != one and not products >> g & 1]


def check_monoid(up, covers, mul, one: int) -> None:
    """Unit, commutativity, associativity and monotonicity of ``mul`` on
    the order whose rows are ``up`` and whose cover pairs are ``covers``,
    naming the first failure with a witness.

    Associativity is Light's test (Clifford & Preston, The Algebraic
    Theory of Semigroups I, 1961, section 1.2): (x*g)*y = x*(g*y) for all
    x, y and each g of a generating set, here ``generators`` (the unit
    law covers ``one``), compared as whole rows.  Monotonicity reads only
    the cover pairs, since the order is transitive.  If either law fails,
    the (x, y, z) scan names the first failing triple.
    """
    n = len(up)
    for x in range(n):
        if mul[x][one] != x or mul[one][x] != x:
            raise AxiomError(f"unit law fails at x={x}")
    for x, col in enumerate(zip(*mul)):
        mx = mul[x]
        if list(col) != mx:
            for y in range(n):
                if mx[y] != mul[y][x]:
                    raise AxiomError(f"commutativity fails at ({x},{y})")
    # the up rows of the products, row by row
    ups = [[up[v] for v in mx] for mx in mul]
    if all(mul[mx[g]] == list(map(mx.__getitem__, mul[g]))
           for g in generators(up, mul, one) for mx in mul) and \
            all(up_mx[y] >> mx[z] & 1
                for mx, up_mx in zip(mul, ups) for y, z in covers):
        return
    for x, (mx, up_mx) in enumerate(zip(mul, ups)):
        for y in range(n):
            mxy, my, up_y, up_mxy = mul[mx[y]], mul[y], up[y], up_mx[y]
            for z in range(n):
                if mxy[z] != mx[my[z]]:
                    raise AxiomError(f"associativity fails at ({x},{y},{z})")
                if up_y >> z & 1 and not up_mxy >> mx[z] & 1:
                    raise AxiomError(f"monotonicity fails at ({x},{y},{z})")


def preimage_masks(covers, row) -> list[int]:
    """The masks {z : row[z] <= y} for each y, on the order whose cover
    pairs, bottom up, are ``covers``: the preimage of y under ``row``
    joined with the masks of the lower covers of y.  For a monotone row,
    residuation says each is the principal down-set of the residual at y
    (Blyth & Janowitz, Residuation Theory, 1972); every residual table
    is checked or derived from these masks.
    """
    below = [0] * len(row)
    for z, v in enumerate(row):
        below[v] |= 1 << z
    for a, b in covers:
        below[b] |= below[a]
    return below


def check_residual(down, covers, mul, arrow, law: str) -> None:
    """mul[x][z] <= y iff z <= arrow[x][y] on the order whose rows are
    ``down`` and whose cover pairs, bottom up, are ``covers``; the first
    failing (x, y, z) is named under ``law``.  A None cell has no down-set,
    so it fails at the least z with mul[x][z] <= y.
    """
    _compare_masks(((preimage_masks(covers, row),
                     [0 if v is None else down[v] for v in arrow_row])
                    for row, arrow_row in zip(mul, arrow)), law)


def _compare_masks(rows, law: str) -> None:
    """``rows`` gives, for each x in turn, the masks found and the masks
    the law wants, one per y; the first unequal (x, y) fails under
    ``law`` at the least z in the difference."""
    for x, (got, want) in enumerate(rows):
        if got != want:
            y = next(y for y, (g, w) in enumerate(zip(got, want)) if g != w)
            diff = got[y] ^ want[y]
            z = (diff & -diff).bit_length() - 1
            raise AxiomError(f"{law} fails at ({x},{y},{z})")


def validate_cirl(lattice: FinLattice, mul, arrow) -> CIRLTable:
    """Check every CIRL law, naming the first failure with a witness."""
    poset = lattice.poset
    covers = poset.covers()
    check_monoid(poset.up, covers, mul, lattice.one)
    check_residual(poset.down, covers, mul, arrow, "residuation")
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
        covers = lattice.poset.covers()
        check_residual(lattice.poset.down, covers, meet, tables["arrow"],
                       "arrow residuation")
    if kind == "dheyting":
        # x <= z | y iff coarrow(x, y) <= z: the residual of join on the
        # reversed order, whose covers bottom up are ours reversed;
        # above[y][x] = {z : x <= z | y}
        reversed_covers = [(b, a) for a, b in reversed(covers)]
        above = [preimage_masks(reversed_covers, row) for row in join]
        _compare_masks(((list(col), [up[c] for c in row])
                        for col, row in zip(zip(*above), tables["coarrow"])),
                       "coarrow residuation")
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
    """Residual table from a multiplication, or None where no max exists.

    ``mul`` must be monotone: then {z : x * z <= y} is a down-set, and it
    has a maximum m iff it is down[m], as in ``FinLattice``.  On other
    tables a maximum of a set that is not a down-set is missed, so
    ``validate_cirl`` checks monotonicity before it reads residuation.
    The caller of ``residual_of``, ``expansion.lp_algebra``, relies on
    monotonicity by proof, from the residuated frame of its monoid.
    """
    poset = lattice.poset
    covers = poset.covers()
    max_of = {row: m for m, row in enumerate(poset.down)}.get
    return [list(map(max_of, preimage_masks(covers, row))) for row in mul]


def residual_of(lattice: FinLattice, mul):
    """``derive_arrow``'s table, with residuation checked, for a ``mul``
    that has the monoid laws of ``check_monoid``.

    A derived cell's down-set is its preimage mask, so residuation can
    fail only at a cell with no maximum; only then are the masks scanned
    again, to raise ``validate_cirl``'s message with its witness.
    """
    arrow = derive_arrow(lattice, mul)
    if any(None in row for row in arrow):
        poset = lattice.poset
        check_residual(poset.down, poset.covers(), mul, arrow, "residuation")
    return arrow


def wajsberg_hoop(n: int) -> CIRLTable:
    """The n-element chain of powers of its coatom, with clipped exponents.

    Element i is the i-th power c^i of the coatom, so 0 is the unit and
    n-1 the bottom; exponents add and clip at n-1, and the residual
    subtracts and clips at 0.  The laws hold by proof and are not
    checked: min(n-1, a+b) is commutative, associative and monotone
    (larger exponents are lower), with unit 0, the top.  For x = c^a,
    y = c^b and z = c^e, x*z <= y iff min(n-1, a+e) >= b iff a+e >= b
    (as b <= n-1) iff e >= max(0, b-a), so the residual is c^max(0, b-a).
    """
    if n < 2:
        raise BadParameter("hoop needs at least two elements")
    lat = FinLattice(FinPoset(relation_rows(n, lambda i, j: j <= i)))
    mul = [[min(n - 1, a + b) for b in range(n)] for a in range(n)]
    arrow = [[max(0, b - a) for b in range(n)] for a in range(n)]
    return CIRLTable(lat, mul, arrow)


def congruence_filters(alg: CIRLTable) -> list[int]:
    """All masks of lattice filters containing 1 and closed under squaring.

    Finite lattice filters are principal, and up[g] is closed under
    squaring iff g * g = g, since squaring is monotone and g * g <= g; so
    these are the up-sets of the idempotents, and they biject with the
    congruences.
    """
    up = alg.lattice.poset.up
    return sorted((up[g] for g in alg.idempotents()), key=popcount)


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
    depth = max(alg.power_index(a) for a in bits(mu) if a != one)
    return MonolithInfo(True, coatom, mu, si.mu_bottom, depth)


def product_size(cone_a: int, cone_b: int) -> int:
    """The size of the truncated product of cones of ``cone_a`` and
    ``cone_b`` elements: their pairs and the shared top.  A size past
    PRODUCT_CAP raises SizeError."""
    size = cone_a * cone_b + 1
    if size > PRODUCT_CAP:
        raise SizeError(f"truncated product of {size} elements exceeds "
                        f"cap {PRODUCT_CAP}")
    return size


def truncated_product(a: CIRLTable, b: CIRLTable,
                      c: int | None = None, q: int | None = None) -> CIRLTable:
    """Product of the cones below c and q, plus a fresh shared top: the
    table of ``ProductView(a, b, c, q)``.

    c and q default to the unique coatoms and must be element indices
    that are strictly negative; a product of more than PRODUCT_CAP
    elements raises SizeError before any table is built.  The laws hold
    by the proof in ``ProductView``'s docstring and are not checked
    again; the order is still checked as a lattice.
    """
    for name, g, alg in (("c", c, a), ("q", q, b)):
        if g is not None and not 0 <= g < alg.size:
            raise BadParameter(f"{name} = {g!r} is not an element index "
                               f"below {alg.size}")
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
    product_size(popcount(a.lattice.poset.down[c]),
                 popcount(b.lattice.poset.down[q]))
    view = ProductView(a, b, c, q)
    lat = FinLattice(FinPoset(relation_rows(view.size, view.leq)))
    elements = view.elements
    return CIRLTable(lat, [[view.mult(i, j) for j in elements]
                           for i in elements],
                     [[view.res(i, j) for j in elements] for i in elements])


class ProductView:
    """The truncated product of the cones below c and q, plus a fresh
    shared top, as a view, as ``FibreQuotient`` is a view of a quotient;
    ``truncated_product(a, b, c, q)`` is its table.  Every operation is
    computed from the factors' tables in O(1).  It holds no lattice and
    no table of its own, and the constructor's work is linear in the
    size; the cap is the caller's (``product_size``).

    Element k is the pair (xa[k], xb[k]).  The pair (x, u) of cone
    elements is rank(x in ascending down[c]) * |down[q]| + rank(u in
    ascending down[q]), and the top, the pair (1, 1) of the factors'
    units, is last.  ``pair(x, u)``, which is ``code_a[x] + code_b[u]``,
    numbers a pair back; it puts 1 of a at the top and 1 of b at 0, so it
    is right whenever x and u are both cone elements or both units.

    The factors come checked (``CIRLTable``), and the operations hold by
    proof, with no law checked again; below, & is the meet and | the
    join.  The order is componentwise: 1 lies above each cone and not in
    it, so the top is above every pair and below none.  Meet, join and
    product are the factors', componentwise.  Each cone is a down-set
    closed under all three (x | y <= c, and x * y <= x), and in each
    factor 1 is the identity of meet and product and absorbs join; so
    each result is two cone elements or two units, and the top is the
    identity of meet and product and absorbs join.  So the elements are
    a sublattice and a submonoid of the direct product of a and b, and
    the product is commutative, associative and monotone, with the top
    as its unit, because the factors' products are.  The residual takes
    the four cases of comparability.  i -> top = top, as every product
    lies below the top; top -> j = j, as top * z = z.  For pairs
    i = (x, u), j = (y, v) and z = (s, t), i * z <= j iff s <= x -> y
    and t <= u -> v, iff s <= c & (x -> y) and t <= q & (u -> v), since
    s <= c and t <= q; and i * top = i <= j iff x <= y and u <= v.  So
    if x <= y and u <= v every z qualifies and i -> j is the top, and
    otherwise it is (c & (x -> y), q & (u -> v)), where c & 1 = c.
    """

    kind = "cirl"

    def __init__(self, a: CIRLTable, b: CIRLTable, c: int, q: int):
        cone_a = list(bits(a.lattice.poset.down[c]))
        cone_b = list(bits(b.lattice.poset.down[q]))
        nb = len(cone_b)
        top = len(cone_a) * nb
        xa = [x for x in cone_a for _ in cone_b] + [a.one]
        xb = cone_b * len(cone_a) + [b.one]
        code_a, code_b = [None] * a.size, [None] * b.size
        for k, x in enumerate(cone_a):
            code_a[x] = k * nb
        for k, u in enumerate(cone_b):
            code_b[u] = k
        code_a[a.one], code_b[b.one] = top, 0
        self.pair = lambda x, u: code_a[x] + code_b[u]
        self.size = top + 1
        self.one = top
        self.bottom = self.pair(a.bottom, b.bottom)
        self.elements = range(top + 1)
        self._plans = {}
        up_a, up_b = a.lattice.poset.up, b.lattice.poset.up
        self.leq = lambda i, j: bool(up_a[xa[i]] >> xa[j] & 1
                                     and up_b[xb[i]] >> xb[j] & 1)
        for name, ta, tb in (("meet", a.lattice.meet, b.lattice.meet),
                             ("join", a.lattice.join, b.lattice.join),
                             ("mult", a.mul, b.mul)):
            setattr(self, name, lambda i, j, ta=ta, tb=tb:
                    code_a[ta[xa[i]][xa[j]]] + code_b[tb[xb[i]][xb[j]]])
        # the meets c & r and q & r, numbered back, for each residual r
        clip_a = [code_a[m] for m in a.lattice.meet[c]]
        clip_b = [code_b[m] for m in b.lattice.meet[q]]
        arrow_a, arrow_b, one_a, one_b = a.arrow, b.arrow, a.one, b.one

        def res(i, j):
            if j == top:
                return top
            if i == top:
                return j
            r, s = arrow_a[xa[i]][xa[j]], arrow_b[xb[i]][xb[j]]
            if r == one_a and s == one_b:
                return top
            return clip_a[r] + clip_b[s]

        self.res = res


@dataclass
class Quotient:
    algebra: CIRLTable
    projection: list[int] = field(default_factory=list)


def quotient(alg: CIRLTable, filter_mask: int) -> Quotient:
    """Quotient by the congruence of a filter, with the projection map.

    The filter is up[g] for an idempotent g, its meet, and g <= x -> y
    says g*x <= y, which holds iff g*x = g*g*x <= g*y.  So x ~ y iff
    g*x = g*y, the class of x is below that of y iff g*x <= g*y, and g*x
    lies in the class of x: the classes and their order are read off row
    g of ``mul``, numbered by their first element.

    Only the filter mask, the caller's input, is checked.  CIRLs form a
    variety, so the quotient by a congruence is a CIRL, and its tables
    are its operations on the representatives g*x: they are not checked
    again (the lattice's order still is, by ``FinLattice``).
    """
    lat = alg.lattice
    if not 0 < filter_mask <= lat.poset.all_mask or \
            lat.poset.up[g := lat.meet_all(filter_mask)] != filter_mask or \
            alg.mul[g][g] != g:
        raise NotACongruenceFilter(f"mask {filter_mask:b}")
    index = {}
    proj = [index.setdefault(v, len(index)) for v in alg.mul[g]]
    reps = list(index)
    up = lat.poset.up
    rows = [sum(1 << k for k, r in enumerate(reps) if up[x] >> r & 1)
            for x in reps]
    mul = [[proj[alg.mul[x][y]] for y in reps] for x in reps]
    arrow = [[proj[alg.arrow[x][y]] for y in reps] for x in reps]
    return Quotient(CIRLTable(FinLattice(FinPoset(rows)), mul, arrow), proj)


def is_isomorphic(a: CIRLTable, b: CIRLTable) -> bool:
    if a.size != b.size:
        return False
    if sorted(map(popcount, a.lattice.poset.down)) != \
            sorted(map(popcount, b.lattice.poset.down)):
        return False
    if len(a.idempotents()) != len(b.idempotents()):
        return False
    return search_embedding(a, b, CIRL) is not None

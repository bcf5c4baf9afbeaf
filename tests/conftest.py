"""Shared builders, generators and brute-force oracles."""

import itertools

import pytest

from splitbench.diagram import _rank_order, get_signature
from splitbench.lattice import FinLattice
from splitbench.poset import (FinPoset, bits, build_poset, canonical_key,
                              enumerate_posets, is_connected, popcount,
                              relation_rows)
from splitbench.residuated import (CIRLTable, MonolithInfo, Quotient,
                                   congruence_filters, derive_arrow,
                                   monolith_info, validate_cirl)
from splitbench.errors import (AxiomError, BadParameter, NotACongruenceFilter,
                               NotALattice, SplitbenchError)


# -- standard posets -------------------------------------------------------


def chain(n: int) -> FinPoset:
    return build_poset(n, [(i, i + 1) for i in range(n - 1)])


def antichain(n: int) -> FinPoset:
    return build_poset(n, [])


def fence(n: int, start_up: bool = True) -> FinPoset:
    pairs = []
    for k in range(n - 1):
        if (k % 2 == 0) == start_up:
            pairs.append((k, k + 1))
        else:
            pairs.append((k + 1, k))
    return build_poset(n, pairs)


def crown4() -> FinPoset:
    return build_poset(4, [(0, 2), (0, 3), (1, 2), (1, 3)])


def vee() -> FinPoset:
    return build_poset(3, [(0, 1), (2, 1)])


def m3() -> FinLattice:
    return FinLattice(build_poset(
        5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]))


def n5() -> FinLattice:
    return FinLattice(build_poset(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]))


def diamond() -> FinLattice:
    return FinLattice(build_poset(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))


def boolean_lattice(n: int) -> FinLattice:
    masks = list(range(1 << n))
    rows = []
    for a in masks:
        row = 0
        for b in masks:
            if a & ~b == 0:
                row |= 1 << b
        rows.append(row)
    return FinLattice(FinPoset(rows))


# -- cached exhaustive families ---------------------------------------------


_poset_cache: dict[tuple, list] = {}


def all_posets(max_size: int, connected_only: bool = False,
               dedupe: bool = False) -> list[FinPoset]:
    key = (max_size, connected_only, dedupe)
    if key not in _poset_cache:
        out = []
        seen = set()
        for n in range(1, max_size + 1):
            for p in enumerate_posets(n):
                if connected_only and not is_connected(p):
                    continue
                if dedupe:
                    k = canonical_key(p)
                    if k in seen:
                        continue
                    seen.add(k)
                out.append(p)
        _poset_cache[key] = out
    return _poset_cache[key]


def all_lattices(max_size: int) -> list[FinLattice]:
    key = ("lat", max_size)
    if key not in _poset_cache:
        out = []
        for p in all_posets(max_size, dedupe=True):
            try:
                out.append(FinLattice(p))
            except NotALattice:
                continue
        _poset_cache[key] = out
    return _poset_cache[key]


# -- brute-force oracles ----------------------------------------------------


def oracle_up_sets(p: FinPoset) -> list[int]:
    """Independent subset filter using only the raw relation."""
    out = []
    for s in range(1 << p.size):
        good = True
        for i in range(p.size):
            if not s & (1 << i):
                continue
            for j in range(p.size):
                if p.leq(i, j) and not s & (1 << j):
                    good = False
        if good:
            out.append(s)
    return out


def oracle_dp_congruences(alg) -> list[frozenset]:
    """Congruences of the double-p reduct by brute algebra.

    Every principal congruence is built by union-find over the carrier,
    closed under meet, join, neg and dpc, and the set is then closed
    under joins.  Classes hold indices into ``alg.elements``; the order
    is the one ``dp_congruences`` uses.
    """
    elements = list(alg.elements)
    index = {e: i for i, e in enumerate(elements)}
    ops = (("meet", 2), ("join", 2), ("neg", 1), ("dpc", 1))

    def generated(seed_pairs):
        parent = list(range(len(elements)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        work = []

        def union(i, j):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri
                work.append((ri, rj))

        for a, b in seed_pairs:
            union(index[a], index[b])
        while work:
            i, j = work.pop()
            a, b = elements[i], elements[j]
            for name, arity in ops:
                fn = getattr(alg, name)
                if arity == 1:
                    union(index[fn(a)], index[fn(b)])
                else:
                    for c in elements:
                        union(index[fn(a, c)], index[fn(b, c)])
        classes = {}
        for i in range(len(elements)):
            classes.setdefault(find(i), []).append(i)
        return frozenset(frozenset(c) for c in classes.values())

    seen = {frozenset(frozenset([i]) for i in range(len(elements)))}
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            seen.add(generated([(elements[i], elements[j])]))
    frontier = list(seen)
    while frontier:
        nxt = []
        for c1 in frontier:
            for c2 in list(seen):
                pairs = []
                for cls in (*c1, *c2):
                    members = sorted(cls)
                    pairs.extend((elements[members[0]], elements[m])
                                 for m in members[1:])
                j = generated(pairs)
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return sorted(seen, key=lambda c: (len(c), sorted(map(sorted, c))))


def oracle_monolith_info(alg: CIRLTable) -> MonolithInfo:
    """SI detection by a coatom scan and the least nontrivial congruence
    filter, with the monolith's power depth, all from the tables."""
    one = alg.one
    coatoms = [x for x in range(alg.size)
               if x != one and popcount(alg.lattice.poset.up[x]) == 2]
    strictly_negative = [x for x in range(alg.size) if x != one]
    top_neg = [c for c in coatoms
               if all(alg.leq(x, c) for x in strictly_negative)]
    if len(top_neg) != 1:
        return MonolithInfo(is_si=False)
    coatom = top_neg[0]
    nontrivial = [f for f in congruence_filters(alg) if f != 1 << one]
    if not nontrivial:
        return MonolithInfo(is_si=False)
    mu = min(nontrivial, key=popcount)
    if any(mu & ~f for f in nontrivial):
        # some nontrivial congruence does not contain the candidate monolith
        return MonolithInfo(is_si=False)
    mu_bottom = next(x for x in bits(mu)
                     if not (mu & ~alg.lattice.poset.up[x]))
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
    return MonolithInfo(True, coatom, mu, mu_bottom, depth)


def oracle_in_hs(a, b, sig) -> bool:
    """HS membership through table quotients of b, for hplus/dheyting.

    Each delta-fixed element g gives the congruence x ~ y iff
    g <= iff(x, y); the quotient is built as operation tables on the
    classes and searched for an embedding of a.
    """
    from splitbench.diagram import (TableAlgebra, get_signature,
                                    search_embedding)

    sig = get_signature(sig)
    elements = list(b.elements)
    a_n = len(list(a.elements))
    for g in elements:
        if sig.delta(b, g) != g:
            continue
        reps, proj = [], {}
        for x in elements:
            for k, r in enumerate(reps):
                if b.leq(g, sig.iff(b, x, r)):
                    proj[x] = k
                    break
            else:
                proj[x] = len(reps)
                reps.append(x)
        n = len(reps)
        if a_n > n:
            continue
        tables = {}
        for key, meth in sig.binary:
            fn = getattr(b, meth)
            tables[key] = [[proj[fn(r, s)] for s in reps] for r in reps]
        for key, meth in sig.unary:
            fn = getattr(b, meth)
            tables[key] = [proj[fn(r)] for r in reps]
        meet = tables["meet"]
        rows = [sum(1 << j for j in range(n) if meet[i][j] == i)
                for i in range(n)]
        q = TableAlgebra(sig.tag, FinLattice(FinPoset(rows)), tables,
                         {c: proj[getattr(b, c)] for c in sig.consts})
        if search_embedding(a, q, sig) is not None:
            return True
    return False


def oracle_search_hom(a, b, sig, require_injective: bool,
                      forbid=None):
    """Operation-preserving map a -> b by rescanning every placed pair.

    Same placement order as ``search_hom`` (rank order of a, value order
    of b), but each node re-checks the order and every table entry among
    the placed elements, so the first map found is the same.
    """
    sig = get_signature(sig)
    sig.require(a)
    sig.require(b)
    a_elems = _rank_order(a)
    pos = {e: i for i, e in enumerate(a_elems)}
    b_elems = list(b.elements)
    n = len(a_elems)
    forced = {}
    for c in sig.consts:
        e = getattr(a, c)
        v = getattr(b, c)
        if e in forced and forced[e] != v:
            return None
        forced[e] = v
    ops = [(getattr(a, meth), getattr(b, meth), ar)
           for meth, ar in
           [(m, 2) for _, m in sig.binary] + [(m, 1) for _, m in sig.unary]]
    assignment = {}

    def consistent(e):
        fe = assignment[e]
        for f, ff in assignment.items():
            if f == e:
                continue
            if a.leq(e, f) and not b.leq(fe, ff):
                return False
            if a.leq(f, e) and not b.leq(ff, fe):
                return False
        placed = list(assignment)
        for fa, fb, ar in ops:
            if ar == 1:
                for x in placed:
                    r = fa(x)
                    if r in assignment and e in (x, r):
                        if fb(assignment[x]) != assignment[r]:
                            return False
            else:
                for x in placed:
                    for y in placed:
                        r = fa(x, y)
                        if r in assignment and e in (x, y, r):
                            if fb(assignment[x], assignment[y]) != assignment[r]:
                                return False
        return True

    def rec(k: int, used: set):
        if k == n:
            return dict(assignment)
        e = a_elems[k]
        if e in forced:
            cands = [forced[e]]
        else:
            cands = b_elems
        for v in cands:
            if require_injective and v in used:
                continue
            if forbid is not None and (e, v) == forbid:
                continue
            assignment[e] = v
            if consistent(e):
                got = rec(k + 1, used | {v})
                if got is not None:
                    return got
            del assignment[e]
        return None

    return rec(0, set())


def oracle_validate_cirl(lattice: FinLattice, mul, arrow) -> CIRLTable:
    """Every CIRL law in one loop over the triples, through ``leq``:
    residuation is checked at each triple beside the monoid laws."""
    n = lattice.size
    one = lattice.one
    leq = lattice.leq
    for x in range(n):
        if mul[x][one] != x or mul[one][x] != x:
            raise AxiomError(f"unit law fails at x={x}")
    for x in range(n):
        for y in range(n):
            if mul[x][y] != mul[y][x]:
                raise AxiomError(f"commutativity fails at ({x},{y})")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
                    raise AxiomError(f"associativity fails at ({x},{y},{z})")
                if leq(y, z) and not leq(mul[x][y], mul[x][z]):
                    raise AxiomError(f"monotonicity fails at ({x},{y},{z})")
                if leq(mul[x][z], y) != leq(z, arrow[x][y]):
                    raise AxiomError(f"residuation fails at ({x},{y},{z})")
    return CIRLTable(lattice, mul, arrow)


def oracle_lattice_tables(poset: FinPoset):
    """(meet, join, zero, one) of a lattice order by scanning each pair's
    common lower and upper bounds for a maximum and a minimum; raises
    NotALattice at the first pair (i, j), j >= i, that has none."""

    def extremum(mask, want_max):
        rows = poset.down if want_max else poset.up
        for i in bits(mask):
            if not (mask & ~rows[i]):
                return i
        return None

    n = poset.size
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m = extremum(poset.down[i] & poset.down[j], want_max=True)
            if m is None:
                raise NotALattice(f"no meet for ({i},{j})")
            v = extremum(poset.up[i] & poset.up[j], want_max=False)
            if v is None:
                raise NotALattice(f"no join for ({i},{j})")
            meet[i][j] = meet[j][i] = m
            join[i][j] = join[j][i] = v
    return (meet, join, extremum(poset.all_mask, want_max=False),
            extremum(poset.all_mask, want_max=True))


def oracle_truncated_product(a: CIRLTable, b: CIRLTable,
                             c: int | None = None,
                             q: int | None = None) -> CIRLTable:
    """The truncated product built pair by pair through the algebras'
    methods: the order from ``leq`` on pairs, each product clipped to the
    cones, and each residual by the four cases of comparability."""
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


def oracle_derive_arrow(lattice: FinLattice, mul):
    """The residual table by scanning, for each (x, y), the z with
    x * z <= y through ``leq`` for a maximum; None where there is none."""
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


def oracle_frame_basic(monoid) -> list[int]:
    """The nuclear frame's basic sets {x : u * x <= s}, for u over the
    expanded monoid and s over the base elements, through its ``leq``."""
    basic = []
    for u in range(monoid.size):
        for s in range(monoid.base.size):
            m = 0
            for x in range(monoid.size):
                if monoid.leq(monoid.mul[u][x], s):
                    m |= 1 << x
            basic.append(m)
    return basic


def oracle_lp_arrow(frame, closed: list[int]):
    """The residual of closed sets as a set residual: mi -> mj is the set
    of monoid elements z with z * x in mj for every x in mi, which must be
    closed."""
    mon = frame.monoid
    index = {m: i for i, m in enumerate(closed)}
    arrow = []
    for mi in closed:
        row = []
        for mj in closed:
            res = 0
            for z in range(mon.size):
                if all((mj >> mon.mul[z][x]) & 1 for x in bits(mi)):
                    res |= 1 << z
            if res not in index:
                raise AxiomError("residual of closed sets is not closed")
            row.append(index[res])
        arrow.append(row)
    return arrow


def oracle_quotient(alg: CIRLTable, filter_mask: int) -> Quotient:
    """The quotient by a congruence filter through ``iff``: x ~ y iff
    iff(x, y) is in the filter, and the class of x is below that of y iff
    x | y ~ y."""
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


def oracle_order_laws(alg) -> None:
    """The laws of a heyting/hplus/dheyting/dp table algebra, one loop per
    law, through the algebra's methods and ``leq``."""
    lat, kind, n = alg.lattice, alg.kind, alg.size
    if alg.zero != lat.zero or alg.one != lat.one:
        raise AxiomError("constants are not the lattice bounds")
    if kind in ("heyting", "hplus", "dheyting"):
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if lat.leq(lat.meet[z][x], y) != lat.leq(z, alg.arrow(x, y)):
                        raise AxiomError(f"arrow residuation fails at "
                                         f"({x},{y},{z})")
    if kind == "dheyting":
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if lat.leq(x, lat.join[z][y]) != lat.leq(alg.coarrow(x, y), z):
                        raise AxiomError(f"coarrow residuation fails at "
                                         f"({x},{y},{z})")
    if kind in ("hplus", "dp"):
        for x in range(n):
            for y in range(n):
                if (lat.join[x][y] == lat.one) != lat.leq(alg.dpc(x), y):
                    raise AxiomError(f"dual pseudocomplement law fails at "
                                     f"({x},{y})")
    if kind == "dp":
        bad = lat.distributive_failure()
        if bad is not None:
            raise AxiomError("distributive law fails at ({},{},{})".format(*bad))
        for x in range(n):
            for y in range(n):
                if (lat.meet[x][y] == lat.zero) != lat.leq(y, alg.neg(x)):
                    raise AxiomError(f"pseudocomplement law fails at "
                                     f"({x},{y})")


def oracle_coarrow_law(lattice: FinLattice, coarrow) -> None:
    """x <= z | y iff coarrow(x, y) <= z, scanned over every (x, y, z)."""
    n, up, join = lattice.size, lattice.poset.up, lattice.join
    for x in range(n):
        for y in range(n):
            cxy = coarrow[x][y]
            for z in range(n):
                if (up[x] >> join[z][y] & 1) != (up[cxy] >> z & 1):
                    raise AxiomError(f"coarrow residuation fails at "
                                     f"({x},{y},{z})")


def oracle_congruence_filters(alg: CIRLTable) -> list[int]:
    """The principal filters that hold x * x for every x in them."""
    up = alg.lattice.poset.up
    return sorted((f for f in up
                   if all(f >> alg.mul[x][x] & 1 for x in bits(f))),
                  key=popcount)


def oracle_up_mask(p: FinPoset, s: int) -> int:
    """Union of the up rows of the points of s, one point at a time."""
    out = 0
    for i in bits(s):
        out |= p.up[i]
    return out


def oracle_down_mask(p: FinPoset, s: int) -> int:
    """Union of the down rows of the points of s, one point at a time."""
    out = 0
    for i in bits(s):
        out |= p.down[i]
    return out


def oracle_covers(p: FinPoset) -> list[tuple[int, int]]:
    """The pairs (a, b) with a covered by b, a then b ascending."""
    out = []
    for a in range(p.size):
        for b in bits(p.up[a] & ~(1 << a)):
            between = p.up[a] & p.down[b] & ~(1 << a) & ~(1 << b)
            if not between:
                out.append((a, b))
    return out


def single_cell_mutations(obj: dict, keys):
    """Copies of a JSON algebra with one cell of one table, or one
    constant, named in ``keys`` changed to each other element index."""
    n = obj["size"]
    for key in keys:
        value = obj[key]
        if isinstance(value, int):
            for v in range(n):
                if v != value:
                    yield {**obj, key: v}
        elif isinstance(value[0], list):
            for a in range(n):
                for b in range(n):
                    for v in range(n):
                        if v != value[a][b]:
                            t = [list(r) for r in value]
                            t[a][b] = v
                            yield {**obj, key: t}
        else:
            for a in range(n):
                for v in range(n):
                    if v != value[a]:
                        t = list(value)
                        t[a] = v
                        yield {**obj, key: t}


def lattices_isomorphic(a: FinLattice, b: FinLattice) -> bool:
    """Permutation search on the underlying orders."""
    if a.size != b.size:
        return False
    return canonical_key(a.poset) == canonical_key(b.poset)


def enumerate_cirls(lat: FinLattice) -> list[CIRLTable]:
    """All commutative integral residuated multiplications on a lattice.

    Backtracks over the sub-diagonal entries with monotonicity and
    meet-bound pruning; associativity and residual existence are checked
    on the completed tables.
    """
    n = lat.size
    one = lat.one
    rest = [x for x in range(n) if x != one]
    slots = [(x, y) for i, x in enumerate(rest) for y in rest[i:]]
    mul = [[None] * n for _ in range(n)]
    for x in range(n):
        mul[x][one] = x
        mul[one][x] = x
    out = []

    def monotone_ok(x, y, v):
        for (a, b) in itertools.product(range(n), repeat=2):
            w = mul[a][b]
            if w is None:
                continue
            if lat.leq(a, x) and lat.leq(b, y) and not lat.leq(w, v):
                return False
            if lat.leq(x, a) and lat.leq(y, b) and not lat.leq(v, w):
                return False
        return True

    def rec(k):
        if k == len(slots):
            tab = [row[:] for row in mul]
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        if tab[tab[x][y]][z] != tab[x][tab[y][z]]:
                            return
            arrow = derive_arrow(lat, tab)
            if any(v is None for row in arrow for v in row):
                return
            try:
                out.append(validate_cirl(lat, tab, arrow))
            except SplitbenchError:
                pass
            return
        x, y = slots[k]
        bound = lat.meet[x][y]
        for v in bits(lat.poset.down[bound]):
            if monotone_ok(x, y, v):
                mul[x][y] = mul[y][x] = v
                rec(k + 1)
                mul[x][y] = mul[y][x] = None

    rec(0)
    return out


@pytest.fixture(scope="session")
def small_posets():
    return all_posets(5)


@pytest.fixture(scope="session")
def small_connected_deduped():
    return all_posets(5, connected_only=True, dedupe=True)

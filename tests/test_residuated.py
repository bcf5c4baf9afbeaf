import pytest

import ast
import itertools
import pathlib
import re
from functools import cache

from conftest import (all_lattices, all_posets, chain, enumerate_cirls, m3,
                      oracle_congruence_filters,
                      oracle_derive_arrow, oracle_in_hs, oracle_monoid_laws,
                      oracle_monolith_info, oracle_quotient,
                      oracle_table_quotient,
                      oracle_truncated_product, oracle_validate_cirl,
                      single_cell_mutations)
from splitbench.cli import (algebra_from_json, algebra_to_json,
                            upalgebra_to_json)
from splitbench.errors import (AxiomError, BadParameter,
                               NotACongruenceFilter, SizeError)
from splitbench.lattice import FinLattice
from splitbench.poset import bits, build_poset, popcount
from splitbench.diagram import (CIRL, DHEYTING, HPLUS, delta_power_witness,
                                in_hs, search_embedding)
from splitbench.duality import up_set_algebra
from splitbench import diagram, residuated
from splitbench.residuated import (ProductView, check_monoid,
                                   congruence_filters, derive_arrow,
                                   generators, is_isomorphic,
                                   monolith_info, quotient,
                                   truncated_product, validate_cirl,
                                   wajsberg_hoop)


def test_validate_rejects_bad_tables():
    lat = FinLattice(chain(2))
    good_mul = [[0, 0], [0, 1]]
    good_arrow = [[1, 1], [0, 1]]
    validate_cirl(lat, good_mul, good_arrow)
    with pytest.raises(AxiomError):
        validate_cirl(lat, [[0, 1], [0, 1]], good_arrow)  # breaks commutativity
    with pytest.raises(AxiomError):
        validate_cirl(lat, good_mul, [[1, 1], [1, 1]])  # breaks residuation


def _cirl_law_fails(message, lat, mul, arrow) -> bool:
    """Re-evaluate the law a validate_cirl message names at its witness."""
    m = re.fullmatch(r"(unit law|commutativity|associativity|monotonicity"
                     r"|residuation) fails at (?:x=(\d+)|\(([\d,]+)\))",
                     message)
    law = m.group(1)
    if law == "unit law":
        x, one = int(m.group(2)), lat.one
        return mul[x][one] != x or mul[one][x] != x
    x, y, *z = map(int, m.group(3).split(","))
    if law == "commutativity":
        return mul[x][y] != mul[y][x]
    z = z[0]
    if law == "associativity":
        return mul[mul[x][y]][z] != mul[x][mul[y][z]]
    if law == "monotonicity":
        return lat.leq(y, z) and not lat.leq(mul[x][y], mul[x][z])
    return lat.leq(mul[x][z], y) != lat.leq(z, arrow[x][y])


def _outcome(check, *args):
    try:
        check(*args)
    except AxiomError as exc:
        return str(exc)
    return None


@cache
def _law_family():
    # the CIRLs on the lattices of 2..5 elements and the chain hoops C2..C6
    algebras = [c for lat in all_lattices(5) if lat.size > 1
                for c in enumerate_cirls(lat)]
    return algebras + [wajsberg_hoop(n) for n in range(2, 7)]


def test_cirl_laws_match_oracle():
    # every single-cell mutation of mul and arrow, over the law family
    algebras = _law_family()
    cases = failing = reordered = 0
    for a in algebras:
        for obj in single_cell_mutations(algebra_to_json(a, "cirl"),
                                         ("mul", "arrow")):
            lat, mul, arrow = a.lattice, obj["mul"], obj["arrow"]
            got = _outcome(validate_cirl, lat, mul, arrow)
            want = _outcome(oracle_validate_cirl, lat, mul, arrow)
            cases += 1
            failing += want is not None
            if got == want:
                continue
            # the monoid laws are scanned before residuation, so a table
            # failing both may name a monoid law the oracle reached later
            assert got is not None and want is not None, (got, want)
            assert want.startswith("residuation"), (got, want)
            assert not got.startswith("residuation"), (got, want)
            assert _cirl_law_fails(got, lat, mul, arrow), got
            reordered += 1
    # here no single changed cell leaves a CIRL, so both reject every case
    assert (len(algebras), cases, failing) == (42, 6852, 6852)
    assert 0 < reordered < cases


def test_monoid_laws_match_oracle_on_symmetric_mutations():
    # a single changed cell mostly breaks commutativity first; changing
    # mul[x][y] and mul[y][x] together keeps it, so these tables reach
    # Light's associativity test, and most of them are not associative
    laws = {}
    for a in _law_family():
        lat, n = a.lattice, a.size
        up, covers = lat.poset.up, lat.poset.covers()
        for x in range(n):
            for y in range(x + 1, n):
                for v in range(n):
                    if v == a.mul[x][y]:
                        continue
                    mul = [list(row) for row in a.mul]
                    mul[x][y] = mul[y][x] = v
                    got = _outcome(check_monoid, up, covers, mul, lat.one)
                    assert got == _outcome(oracle_monoid_laws, lat, mul), \
                        (got, x, y, v)
                    law = got and got.split(" fails")[0]
                    laws[law] = laws.get(law, 0) + 1
    # 733 of the 800 that keep the unit are not associative
    assert laws == {None: 19, "unit law": 559, "associativity": 681,
                    "monotonicity": 100}
    # the chain hoops: the unit and the coatom generate
    for n in range(2, 9):
        c = wajsberg_hoop(n)
        assert generators(c.lattice.poset.up, c.mul, c.one) == [1]


def test_cirl_laws_match_oracle_past_size_six():
    # the row and mask scans where covers are not trivial: every
    # single-cell mutation of mul and arrow on a 9-element chain product
    # and a 13-element non-chain product, under the rule above
    shape = FinLattice(build_poset(5, [(0, 1), (0, 2), (1, 3), (2, 3),
                                       (3, 4)]))
    nonchain = next(c for c in enumerate_cirls(shape)
                    if monolith_info(c).is_si)
    algebras = [truncated_product(wajsberg_hoop(3), wajsberg_hoop(5)),
                truncated_product(nonchain, wajsberg_hoop(4))]
    assert [a.size for a in algebras] == [9, 13]
    laws = set()
    for a in algebras:
        for obj in single_cell_mutations(algebra_to_json(a, "cirl"),
                                         ("mul", "arrow")):
            lat, mul, arrow = a.lattice, obj["mul"], obj["arrow"]
            outcomes = []
            for check in (validate_cirl, oracle_validate_cirl):
                with pytest.raises(AxiomError) as exc:
                    check(lat, mul, arrow)
                outcomes.append(str(exc.value))
            got, want = outcomes
            laws.add(got.split(" fails")[0])
            if got != want:
                assert want.startswith("residuation"), (got, want)
                assert not got.startswith("residuation"), (got, want)
                assert _cirl_law_fails(got, lat, mul, arrow), got
    assert laws == {"unit law", "commutativity", "associativity",
                    "monotonicity", "residuation"}


@cache
def _si_family():
    algebras = [c for lat in all_lattices(5) if lat.size > 1
                for c in enumerate_cirls(lat) if monolith_info(c).is_si]
    return algebras + [wajsberg_hoop(n) for n in range(2, 7)]


@cache
def _products():
    # every ordered pair's truncated product, built and by the oracle
    return [(truncated_product(a, b), oracle_truncated_product(a, b))
            for a in _si_family() for b in _si_family()]


def test_truncated_product_matches_oracle():
    assert len(_si_family()) == 40
    for got, want in _products():
        assert got.lattice.poset.up == want.lattice.poset.up
        assert (got.mul, got.arrow) == (want.mul, want.arrow)


def _assert_view_is_table(view, table):
    # every operation of the view against the table, a whole row at a time
    assert (view.size, view.one, view.bottom) == \
        (table.size, table.one, table.bottom)
    lat, elements = table.lattice, range(table.size)
    for i in elements:
        for fn, row in ((view.leq, [lat.leq(i, j) for j in elements]),
                        (view.meet, lat.meet[i]), (view.join, lat.join[i]),
                        (view.mult, table.mul[i]), (view.res, table.arrow[i])):
            assert [fn(i, j) for j in elements] == row, (fn, i)


def test_product_view_matches_truncated_product():
    # the view computes each operation from the factors' tables, and its
    # residual by the four cases of comparability; the table takes its
    # residual from residual_of's scan
    family = _si_family()
    coatoms = [monolith_info(a).coatom for a in family]
    views = [ProductView(a, b, c, q) for a, c in zip(family, coatoms)
             for b, q in zip(family, coatoms)]
    assert len(views) == len(_products()) == 1600
    for view, (table, _) in zip(views, _products()):
        _assert_view_is_table(view, table)


def test_searches_on_the_view_match_the_table():
    # in_hs and the exhaustive delta-power search read only operations,
    # so they answer alike on a product's view and on its table
    hoops = [wajsberg_hoop(n) for n in range(2, 6)]
    # each hoop's coatom is its first power
    pairs = [(ProductView(a, b, 1, 1), truncated_product(a, b))
             for a in hoops for b in hoops]
    cases = found = searched = witnessed = 0
    for view, table in pairs:
        for a in _si_family():
            got = in_hs(a, view, CIRL)
            assert got == in_hs(a, table, CIRL), (a.mul, table.mul)
            cases += 1
            found += got
            if a.size <= 3:
                values = [None if w is None else w.values for w in
                          (delta_power_witness(a, b, 0, CIRL)
                           for b in (view, table))]
                assert values[0] == values[1], (a.mul, table.mul)
                searched += 1
                witnessed += values[0] is not None
    assert (cases, found, searched, witnessed) == (640, 64, 80, 77)


def test_quotient_matches_oracle():
    # proj and tables for every congruence filter, and the same refusal
    # for every other mask of the small algebras
    cases = 0
    for alg in _si_family() + [got for got, _ in _products()]:
        for f in congruence_filters(alg):
            got, want = quotient(alg, f), oracle_quotient(alg, f)
            assert got.projection == want.projection
            g, w = got.algebra, want.algebra
            assert g.lattice.poset.up == w.lattice.poset.up
            assert (g.mul, g.arrow) == (w.mul, w.arrow)
            cases += 1
    assert cases == 7340
    for alg in _si_family():
        filters = congruence_filters(alg)
        for mask in range(-1, 1 << (alg.size + 1)):
            if mask in filters:
                continue
            for build in (quotient, oracle_quotient):
                with pytest.raises(NotACongruenceFilter,
                                   match=f"^mask {mask:b}$"):
                    build(alg, mask)


def test_cirl_in_hs_matches_table_quotient_oracle():
    # in_hs skips the quotients with fewer classes than a has elements
    # and searches b itself for the filter {1}; the oracle builds and
    # searches every quotient of b
    hoops = [wajsberg_hoop(n) for n in range(2, 6)]
    targets = [truncated_product(a, b) for a in hoops for b in hoops]
    targets += _si_family()
    cases = found = 0
    for b in targets:
        for a in _si_family():
            got = in_hs(a, b, CIRL)
            assert got == oracle_in_hs(a, b, CIRL), (a.mul, b.mul)
            cases += 1
            found += got
    assert (cases, found) == (2240, 276)


def test_congruences_are_the_fibres_of_g_times_x(monkeypatch):
    # for each delta-fixed g, the classes of g <= iff(x, y) are the fibres
    # of x -> g·x (mult for CIRLs, the meet on up-sets), and in_hs
    # searches one quotient of that many elements per g, most first
    searched = []

    def record(a, q, sig):
        searched.append(q.size)

    monkeypatch.setattr(diagram, "search_embedding", record)
    cirls = [c for lat in all_lattices(5) for c in enumerate_cirls(lat)]
    cases = [(b, CIRL, b.mult, wajsberg_hoop(2))
             for b in cirls + [got for got, _ in _products()]]
    two = up_set_algebra(chain(1))
    cases += [(b, sig, b.meet, two) for b in map(up_set_algebra, all_posets(4))
              for sig in (HPLUS, DHEYTING)]
    fixed = 0
    for b, sig, times, a in cases:
        counts = []
        for g in b.elements:
            if sig.delta(b, g) != g:
                continue
            classes, fibres = {}, {}
            for x in b.elements:
                r = next((r for r in classes
                          if b.leq(g, sig.iff(b, x, r))), x)
                classes.setdefault(r, set()).add(x)
                fibres.setdefault(times(g, x), set()).add(x)
            assert sorted(map(sorted, classes.values())) == \
                sorted(map(sorted, fibres.values())), (b, sig, g)
            counts.append(len(classes))
            fixed += 1
        del searched[:]
        assert not in_hs(a, b, sig)
        assert searched == sorted((k for k in counts if k >= 2),
                                  reverse=True), (b, sig)
    assert fixed == 115 + 7225 + 194 + 194


def test_fibre_quotient_matches_table_quotient_oracle():
    # on every delta-fixed g, the FibreQuotient is the oracle's table
    # quotient under x -> class of x: the same size, and each operation
    # and constant gives the one element of the class the oracle names
    cirls = [c for lat in all_lattices(5) for c in enumerate_cirls(lat)]
    assert len(cirls) == 38
    cases = [(b, CIRL) for b in cirls + [got for got, _ in _products()]]
    ups = [up_set_algebra(p) for p in all_posets(4)]
    for sig in (HPLUS, DHEYTING):
        cases += [(b, sig) for b in ups]
        cases += [(algebra_from_json(upalgebra_to_json(b, sig.tag)), sig)
                  for b in ups]
    fixed = 0
    for b, sig in cases:
        for g in b.elements:
            if sig.delta(b, g) != g:
                continue
            q = diagram.FibreQuotient(b, sig, g)
            proj, want = oracle_table_quotient(b, sig, g)
            assert q.size == want.size, (b, sig, g)
            element = {proj[x]: x for x in q.elements}
            assert len(element) == q.size, (b, sig, g)
            for _, meth in sig.binary:
                op, table = getattr(q, meth), getattr(want, meth)
                assert all(op(x, y) == element[table(proj[x], proj[y])]
                           for x in q.elements for y in q.elements), \
                    (b, sig, g, meth)
            for _, meth in sig.unary:
                op, table = getattr(q, meth), getattr(want, meth)
                assert all(op(x) == element[table(proj[x])]
                           for x in q.elements), (b, sig, g, meth)
            for c in sig.consts:
                assert getattr(q, c) == element[getattr(want, c)], \
                    (b, sig, g, c)
            fixed += 1
    assert fixed == 115 + 7225 + 2 * (194 + 194)


def test_congruence_filters_match_oracle():
    # the up-sets of the idempotents are the filters closed under
    # squaring: every CIRL of the lattices of size <= 5, the SI family
    # and its truncated products
    family = [c for lat in all_lattices(5) if lat.size > 1
              for c in enumerate_cirls(lat)]
    family += _si_family() + [got for got, _ in _products()]
    for alg in family:
        assert congruence_filters(alg) == oracle_congruence_filters(alg)


def test_truncated_product_cap(monkeypatch):
    # the cap is on |down c| * |down q| + 1, tested before any table
    monkeypatch.setattr(residuated, "PRODUCT_CAP", 16)
    assert truncated_product(wajsberg_hoop(4), wajsberg_hoop(6)).size == 16
    with pytest.raises(SizeError,
                       match="^truncated product of 19 elements exceeds "
                             "cap 16$"):
        truncated_product(wajsberg_hoop(4), wajsberg_hoop(7))
    # element i of the hoop is the i-th power, so down[i] has n - i
    with pytest.raises(SizeError, match="of 39 elements"):
        truncated_product(wajsberg_hoop(20), wajsberg_hoop(3), c=1)
    assert truncated_product(wajsberg_hoop(20), wajsberg_hoop(3),
                             c=17).size == 3 * 2 + 1


def test_meet_multiplication_is_always_valid():
    for lat in all_lattices(5):
        mul = [[lat.meet[a][b] for b in range(lat.size)]
               for a in range(lat.size)]
        arrow = derive_arrow(lat, mul)
        if any(v is None for row in arrow for v in row):
            continue
        validate_cirl(lat, mul, arrow)


def _monotone(lat, mul):
    n = lat.size
    return all(lat.leq(mul[x][y], mul[x][z]) for x in range(n)
               for y in range(n) for z in range(n) if lat.leq(y, z))


def test_derive_arrow_matches_oracle():
    # the meet table of every small lattice (N5 and M3 have None cells),
    # every CIRL multiplication on them, and every monotone commutative
    # change of one cell of those multiplications
    cirls = none_tables = mutants = 0
    for lat in all_lattices(5):
        n = lat.size
        muls = [c.mul for c in enumerate_cirls(lat)]
        cirls += len(muls)
        tables = [lat.meet] + muls
        for mul in muls:
            for x in range(n):
                for y in range(x, n):
                    for v in range(n):
                        if v != mul[x][y]:
                            t = [list(r) for r in mul]
                            t[x][y] = t[y][x] = v
                            if _monotone(lat, t):
                                tables.append(t)
                                mutants += 1
        for mul in tables:
            got = derive_arrow(lat, mul)
            assert got == oracle_derive_arrow(lat, mul)
            none_tables += any(v is None for row in got for v in row)
    assert (cirls, mutants, none_tables) == (38, 337, 63)


def test_missing_residual_is_an_axiom_error():
    lat = m3()
    arrow = derive_arrow(lat, lat.meet)
    assert arrow[1][0] is None
    with pytest.raises(AxiomError, match=r"^residuation fails at \(1,0,0\)$"):
        validate_cirl(lat, lat.meet, arrow)


def test_derive_arrow_needs_a_monotone_multiplication():
    # on the 3-chain, 0 * 0 = 1 above 0 * 1 = 0: {z : 0 * z <= 0} = {1, 2}
    # has a maximum but is no down-set, so the lookup finds none; the
    # table is refused for monotonicity before residuation is read
    lat = FinLattice(chain(3))
    mul = [[1, 0, 0], [0, 1, 1], [0, 1, 2]]
    assert oracle_derive_arrow(lat, mul)[0][0] == 2
    arrow = derive_arrow(lat, mul)
    assert arrow[0][0] is None
    with pytest.raises(AxiomError,
                       match=r"^monotonicity fails at \(0,0,1\)$"):
        validate_cirl(lat, mul, arrow)


def test_hoop_arithmetic():
    c3 = wajsberg_hoop(3)
    assert c3.mul[1][1] == 2
    assert c3.mul[2][1] == 2
    for n in range(3, 6):
        cn = wajsberg_hoop(n)
        assert cn.res(1, 2) == 1                # one step of division
        assert cn.potency() == n - 1
    # the two-element hoop is the 0-free two-element boolean reduct
    c2 = wajsberg_hoop(2)
    assert c2.mul[1][1] == 1 and c2.res(1, 0) == 0
    with pytest.raises(BadParameter):
        wajsberg_hoop(1)
    # the hoop's laws hold by proof and are not checked when it is built
    for n in range(2, 73):
        cn = wajsberg_hoop(n)
        validate_cirl(cn.lattice, cn.mul, cn.arrow)


def test_potency_matches_power_oracle():
    # the least n with x^(n+1) = x^n for every x, by brute force
    count = 0
    for lat in all_lattices(5):
        for c in enumerate_cirls(lat):
            n = 0
            while any(c.power(x, n + 1) != c.power(x, n)
                      for x in c.elements):
                n += 1
            assert c.potency() == n
            count += 1
    assert count == 38


def test_congruence_filters():
    for n in range(2, 7):
        assert len(congruence_filters(wajsberg_hoop(n))) == 2
    # product of two 2-chains has all four filters
    from splitbench.poset import FinPoset

    c2 = wajsberg_hoop(2)
    rows = []
    elems = [(a, b) for a in range(2) for b in range(2)]
    for (a, b) in elems:
        row = 0
        for j, (c, d) in enumerate(elems):
            if c2.leq(a, c) and c2.leq(b, d):
                row |= 1 << j
        rows.append(row)
    lat = FinLattice(FinPoset(rows))
    mul = [[elems.index((c2.mul[x[0]][y[0]], c2.mul[x[1]][y[1]]))
            for y in elems] for x in elems]
    arrow = [[elems.index((c2.res(x[0], y[0]), c2.res(x[1], y[1])))
              for y in elems] for x in elems]
    prod = validate_cirl(lat, mul, arrow)
    assert len(congruence_filters(prod)) == 4
    assert not monolith_info(prod).is_si


def test_monolith_info_on_hoops():
    for n in range(2, 7):
        info = monolith_info(wajsberg_hoop(n))
        assert info.is_si
        assert info.coatom == 1
        assert info.depth == n - 1
        assert info.mu_bottom == n - 1
        assert info.mu_filter == (1 << n) - 1


def test_monolith_info_matches_filter_oracle():
    # si_structure's idempotent-join rule against the coatom scan and the
    # least nontrivial congruence filter, on all five fields
    from splitbench.expansion import expand_to_depth

    algebras = [c for lat in all_lattices(6) for c in enumerate_cirls(lat)]
    algebras += [wajsberg_hoop(n) for n in range(2, 8)]
    for n in (2, 3, 4):
        for depth in (2, 4, 8):
            algebras.append(expand_to_depth(wajsberg_hoop(n), depth).algebra)
    si = sum(oracle_monolith_info(a).is_si for a in algebras)
    assert 0 < si < len(algebras)
    for a in algebras:
        assert monolith_info(a) == oracle_monolith_info(a)


def test_truncated_product():
    c2 = wajsberg_hoop(2)
    c3 = wajsberg_hoop(3)
    t22 = truncated_product(c2, c2)
    assert t22.size == 2 and is_isomorphic(t22, c2)
    for a, b in [(c2, c3), (c3, c3), (c3, wajsberg_hoop(4))]:
        t = truncated_product(a, b)
        assert t.size == (a.size - 1) * (b.size - 1) + 1
        info = monolith_info(t)
        assert info.is_si
    with pytest.raises(BadParameter):
        truncated_product(c2, c3, c=c2.one)


def test_quotient():
    c3 = wajsberg_hoop(3)
    trivial, full = congruence_filters(c3)
    q = quotient(c3, trivial)
    assert q.algebra.size == 3 and is_isomorphic(q.algebra, c3)
    q = quotient(c3, full)
    assert q.algebra.size == 1
    with pytest.raises(NotACongruenceFilter):
        quotient(c3, 0b110)


def test_quotients_of_truncated_product_match_product_quotients():
    c2, c3 = wajsberg_hoop(2), wajsberg_hoop(3)
    elems = [(a, b) for a in range(2) for b in range(3)]
    from splitbench.poset import FinPoset

    rows = []
    for (a, b) in elems:
        row = 0
        for j, (c, d) in enumerate(elems):
            if c2.leq(a, c) and c3.leq(b, d):
                row |= 1 << j
        rows.append(row)
    lat = FinLattice(FinPoset(rows))
    mul = [[elems.index((c2.mul[x[0]][y[0]], c3.mul[x[1]][y[1]]))
            for y in elems] for x in elems]
    arrow = [[elems.index((c2.res(x[0], y[0]), c3.res(x[1], y[1])))
              for y in elems] for x in elems]
    prod = validate_cirl(lat, mul, arrow)
    tp = truncated_product(c2, c3)
    prod_quotients = [quotient(prod, f).algebra
                      for f in congruence_filters(prod)]
    for f in congruence_filters(tp):
        if f == 1 << tp.one:
            continue
        q = quotient(tp, f).algebra
        assert any(is_isomorphic(q, other) for other in prod_quotients)


def test_glued_product_quotients_are_expansion_images():
    # nontrivial quotients of the glued product are images of the expansion
    from splitbench.expansion import expand_to_depth

    for base_n in (3, 4):
        a = wajsberg_hoop(base_n)
        exp = expand_to_depth(a, monolith_info(a).depth + 1)
        e = exp.algebra
        from splitbench.diagram import _first_prime_at_least

        p = _first_prime_at_least(e.size)
        big = truncated_product(e, wajsberg_hoop(p + 1))
        e_quotients = [quotient(e, f).algebra for f in congruence_filters(e)
                       if f != 1 << e.one]
        for f in congruence_filters(big):
            if f == 1 << big.one:
                continue
            q = quotient(big, f).algebra
            assert any(is_isomorphic(q, other) for other in e_quotients)


def test_no_extra_idempotents_in_glued_expansion_products():
    # beyond the shared unit, only the bottom pair can be idempotent
    from splitbench.expansion import expand_to_depth

    e = expand_to_depth(wajsberg_hoop(2), 4).algebra
    for m in (4, 6):
        big = truncated_product(e, wajsberg_hoop(m))
        assert set(big.idempotents()) == {big.one, big.bottom}


def test_find_embedding():
    c2, c3, c4, c5 = (wajsberg_hoop(n) for n in (2, 3, 4, 5))
    for cn in (c2, c3, c4, c5):
        assert search_embedding(c2, cn, CIRL) is not None
    assert search_embedding(c3, c2, CIRL) is None
    got = search_embedding(c2, c3, CIRL)
    assert got == {0: 0, 1: 2}
    assert search_embedding(c3, c5, CIRL) is not None
    assert search_embedding(c3, c4, CIRL) is None
    assert search_embedding(c4, c5, CIRL) is None


def test_embedding_preserves_operations():
    for a in enumerate_cirls(FinLattice(chain(3))):
        for b in enumerate_cirls(FinLattice(chain(4))):
            got = search_embedding(a, b, CIRL)
            if got is None:
                continue
            for x in range(a.size):
                for y in range(a.size):
                    assert got[a.mul[x][y]] == b.mul[got[x]][got[y]]
                    assert got[a.res(x, y)] == b.res(got[x], got[y])
                    assert got[a.meet(x, y)] == b.meet(got[x], got[y])
                    assert got[a.join(x, y)] == b.join(got[x], got[y])


def test_witness_suite_tests_the_cap_before_it_builds_the_hoop(monkeypatch):
    # the C5 x C5 product's expansion would be glued to a 54-element hoop
    # in a 2651-element product, a size known before the hoop is built
    source = truncated_product(wajsberg_hoop(5), wajsberg_hoop(5))
    hoops = []

    def record(n):
        hoops.append(n)
        return wajsberg_hoop(n)

    monkeypatch.setattr(residuated, "wajsberg_hoop", record)
    with pytest.raises(SizeError, match="^truncated product of 2651 "
                                        "elements exceeds cap 256$"):
        diagram.witness_suite(source, 0, CIRL)
    assert hoops == []


def test_truncated_product_refuses_an_index_outside_its_factor():
    # c indexes the left factor and q the right one; a negative index is
    # refused, not read from the end
    c3, c4 = wajsberg_hoop(3), wajsberg_hoop(4)
    for kw, message in (({"c": -1}, "c = -1 is not an element index below 3"),
                        ({"c": 5}, "c = 5 is not an element index below 3"),
                        ({"q": -1}, "q = -1 is not an element index below 4"),
                        ({"q": 4}, "q = 4 is not an element index below 4")):
        with pytest.raises(BadParameter, match=f"^{message}$"):
            truncated_product(c3, c4, **kw)
    assert truncated_product(c3, c4, c=2, q=3).size == 2


def test_truncated_products_pass_every_cirl_law(monkeypatch):
    # truncated_product takes the product's monoid laws from its
    # factors'; every product the tests build passes the full check, and
    # so does the table of every view the CIRL witness suites build, which
    # agrees with the view on every operation
    views = []

    def record(*args):
        views.append((args, ProductView(*args)))
        return views[-1][1]

    monkeypatch.setattr(residuated, "ProductView", record)
    # a suite at i_max 2 builds the products of i_max 0 and 1 on its way,
    # since it advances one expansion tower
    for n in range(2, 7):
        diagram.witness_suite(wajsberg_hoop(n), 2, CIRL)
    hoops = len(views)
    refused = 0
    for a in _si_family()[:-5]:  # the 35 SI CIRLs, without the hoops
        try:
            diagram.witness_suite(a, 1, CIRL)
        except SizeError:
            refused += 1
    suites = len(views)
    built = []
    for args, view in views:
        built.append(truncated_product(*args))
        _assert_view_is_table(view, built[-1])
    built += [got for got, _ in _products()]
    for p in built:
        validate_cirl(p.lattice, p.mul, p.arrow)
    assert (hoops, suites - hoops, refused, len(built)) == \
        (8, 51, 1, 8 + 51 + 1600)


def _unit_tables(lat):
    # every commutative table on lat with unit the top
    n, one = lat.size, lat.one
    rest = [x for x in range(n) if x != one]
    slots = [(x, y) for k, x in enumerate(rest) for y in rest[k:]]
    for values in itertools.product(range(n), repeat=len(slots)):
        mul = [[x if y == one else y if x == one else None
                for y in range(n)] for x in range(n)]
        for (x, y), v in zip(slots, values):
            mul[x][y] = mul[y][x] = v
        yield mul


def test_residual_of_matches_validate_cirl():
    # check_monoid then residual_of gives validate_cirl's table, or its
    # message, on the single-cell mul mutations of the 9- and 13-element
    # products and on the monotone commutative unit tables of the
    # lattices of size <= 4
    shape = FinLattice(build_poset(5, [(0, 1), (0, 2), (1, 3), (2, 3),
                                       (3, 4)]))
    nonchain = next(c for c in enumerate_cirls(shape)
                    if monolith_info(c).is_si)
    cases = []
    for a in (truncated_product(wajsberg_hoop(3), wajsberg_hoop(5)),
              truncated_product(nonchain, wajsberg_hoop(4))):
        cases += [(a.lattice, obj["mul"]) for obj in
                  single_cell_mutations(algebra_to_json(a, "cirl"), ("mul",))]
    for lat in all_lattices(4):
        cases += [(lat, mul) for mul in _unit_tables(lat)
                  if _monotone(lat, mul)]

    def derived(lat, mul):
        poset = lat.poset
        check_monoid(poset.up, poset.covers(), mul, lat.one)
        assert residuated.residual_of(lat, mul) == derive_arrow(lat, mul)

    outcomes = {}
    for lat, mul in cases:
        got = _outcome(derived, lat, mul)
        want = _outcome(validate_cirl, lat, mul, derive_arrow(lat, mul))
        assert got == want, (lat.poset.up, mul)
        law = got and got.split(" fails")[0]
        outcomes[law] = outcomes.get(law, 0) + 1
    # the 15 lattice tables give 11 CIRLs; every residuation failure is a
    # cell derive_arrow left empty, the only place residual_of checks
    assert len(cases) == 9 * 9 * 8 + 13 * 13 * 12 + 15
    assert outcomes == {None: 11, "unit law": 436, "commutativity": 2032,
                        "associativity": 128, "monotonicity": 75,
                        "residuation": 9}


def _readers(names):
    """For each name, the (module, enclosing definition) of every place
    in the package's source that reads it."""
    found = {name: set() for name in names}

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, scope + (child.name,))
                continue
            name = getattr(child, "id", getattr(child, "attr", None))
            if name in found and isinstance(child.ctx, ast.Load):
                found[name].add((module, ".".join(scope)))
            visit(child, module, scope)

    for path in sorted(pathlib.Path(residuated.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, ())
    return found


def test_law_checks_run_only_on_tables_from_outside():
    # a table read from outside the program is validated by the loader;
    # a table the package builds carries the proof of its laws, which the
    # tests cross-check, and is not checked again at run time
    readers = _readers(("validate_cirl", "validate_order_algebra",
                        "check_monoid", "eval_diagram"))
    loader = {("cli", "algebra_from_json")}
    assert readers["validate_cirl"] == loader
    assert readers["validate_order_algebra"] == loader
    assert readers["check_monoid"] == {("residuated", "validate_cirl"),
                                       ("expansion", "ExpandedMonoid.__init__")}
    assert ("diagram", "embedding_by_diagram") not in readers["eval_diagram"]


def test_witness_suite_builds_no_product_table():
    # the CIRL witness suite evaluates a ProductView of the expansion and
    # the hoop; neither the suite nor the view builds a product table, a
    # lattice or a residual scan
    names = ("truncated_product", "FinLattice", "FinPoset", "residual_of",
             "derive_arrow")
    for name, places in _readers(names).items():
        assert ("diagram", "_witness_suite_cirl") not in places, name
        assert not {scope for module, scope in places if module ==
                    "residuated" and scope.startswith("ProductView")}, name

from functools import cache
from itertools import islice

import pytest

from conftest import (all_lattices, enumerate_cirls, oracle_frame_basic,
                      oracle_lp_arrow)
from splitbench import expansion
from splitbench.errors import AxiomError, BadParameter, SizeError
from splitbench.expansion import (ExpandedMonoid, LpResult, NuclearFrame,
                                  build_expansion_monoid, expand_once,
                                  expand_to_depth, expansion_tower,
                                  gamma_closure, lp_algebra)
from splitbench.lattice import FinLattice
from splitbench.poset import FinPoset, bits, popcount
from splitbench.residuated import (is_isomorphic, monolith_info, quotient,
                                   validate_cirl, wajsberg_hoop)


def c2x2():
    c2 = wajsberg_hoop(2)
    elems = [(a, b) for a in range(2) for b in range(2)]
    rows = []
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
    return validate_cirl(lat, mul, arrow), elems


def test_expansion_monoid_shape():
    mon = build_expansion_monoid(wajsberg_hoop(3))
    assert len(mon.a0) == 2 and mon.size == 5
    d = mon.d
    assert mon.mul[d][d] == 1               # d*d = c
    assert mon.leq(1, d) and mon.leq(d, 0)  # c < d < 1
    assert not mon.leq(d, 1) and not mon.leq(0, d)


def test_expansion_monoid_requires_si_or_explicit_c():
    prod, _ = c2x2()
    with pytest.raises(BadParameter):
        build_expansion_monoid(prod)
    mon = build_expansion_monoid(prod, c=1)
    assert mon.size == prod.size + len(mon.a0)
    with pytest.raises(BadParameter):
        build_expansion_monoid(prod, c=prod.one)


def test_multiplication_properties():
    for base in (wajsberg_hoop(3), wajsberg_hoop(4)):
        mon = build_expansion_monoid(base)
        c, d, n = mon.c, mon.d, base.size
        for x in range(n):
            dx = mon.mul[d][x]
            cx = base.mul[c][x]
            if cx != x:
                assert dx == mon.d_index[x]
            else:
                assert dx == x
            for y in range(n):
                # lower bounds of d*x inside the base are those below c*x
                assert mon.leq(y, dx) == base.leq(y, cx)
                assert mon.mul[mon.mul[mon.mul[d][x]][d]][y] == \
                    base.mul[base.mul[c][x]][y]
                assert mon.leq(dx, mon.mul[d][y]) == mon.leq(dx, y) == \
                    base.leq(x, y)


def test_partial_algebra_residual_law():
    for base in (wajsberg_hoop(3), wajsberg_hoop(4)):
        mon = build_expansion_monoid(base)
        for a in range(base.size):
            for b in range(base.size):
                r = base.res(a, b)
                for x in range(mon.size):
                    assert mon.leq(mon.mul[a][x], b) == mon.leq(x, r)


def test_gamma_closure_basics():
    base = wajsberg_hoop(3)
    frame = NuclearFrame(build_expansion_monoid(base))
    mon = frame.monoid
    assert gamma_closure(frame, 0) == 1 << mon.bottom
    assert gamma_closure(frame, 1 << mon.one) == (1 << mon.size) - 1
    for a in range(base.size):
        down_a = sum(1 << x for x in range(mon.size) if mon.leq(x, a))
        assert gamma_closure(frame, down_a) == down_a
        da = mon.mul[mon.d][a]
        down_da = sum(1 << x for x in range(mon.size) if mon.leq(x, da))
        assert gamma_closure(frame, down_da) == down_da
    # idempotence and monotonicity on every subset of this small frame
    for z in range(1 << mon.size):
        g = gamma_closure(frame, z)
        assert gamma_closure(frame, g) == g
        assert z & ~g == 0


def test_closed_sets_have_canonical_form():
    for base_alg in (wajsberg_hoop(2), wajsberg_hoop(3), wajsberg_hoop(4)):
        frame = NuclearFrame(build_expansion_monoid(base_alg))
        mon = frame.monoid

        def down(x):
            return sum(1 << y for y in range(mon.size) if mon.leq(y, x))

        canonical = set()
        for a in range(base_alg.size):
            for b in range(base_alg.size):
                canonical.add(down(a) | down(mon.mul[mon.d][b]))
        canonical = {m for m in canonical if gamma_closure(frame, m) == m}
        brute = {z for z in range(1 << mon.size)
                 if gamma_closure(frame, z) == z}
        assert canonical == brute


def test_lp_algebra_embeds_base():
    for n in (2, 3, 4):
        base = wajsberg_hoop(n)
        step = expand_once(base)
        alg, emb = step.algebra, step.embedding
        for x in range(base.size):
            for y in range(base.size):
                assert emb[base.mul[x][y]] == alg.mul[emb[x]][emb[y]]
                assert emb[base.res(x, y)] == alg.res(emb[x], emb[y])
                assert emb[base.meet(x, y)] == alg.meet(emb[x], emb[y])
                assert emb[base.join(x, y)] == alg.join(emb[x], emb[y])
        assert emb[base.one] == alg.one
        assert alg.size == 2 * n - 1


def test_expansion_law_and_depth_doubling():
    for n in range(2, 7):
        base = wajsberg_hoop(n)
        step = expand_once(base)
        assert is_isomorphic(step.algebra, wajsberg_hoop(2 * n - 1))
        info = monolith_info(step.algebra)
        assert info.is_si and info.depth == 2 * (n - 1)
        # the unique coatom of the expansion is the inserted d
        assert info.coatom == step.d_element
        q = quotient(step.algebra, info.mu_filter).algebra
        base_info = monolith_info(base)
        qb = quotient(base, base_info.mu_filter).algebra
        assert is_isomorphic(q, qb)


def test_d_powers_track_c_powers():
    for n in (3, 4, 5):
        mon = build_expansion_monoid(wajsberg_hoop(n))
        d, c = mon.d, mon.c
        dk = mon.one
        ck = mon.one
        for k in range(1, n):
            dk = mon.mul[mon.mul[dk][d]][d]
            ck = mon.mul[ck][c]
            assert dk == ck


def test_expansion_contracts_on_every_small_si_base():
    # not just chains: every SI algebra on at most five elements expands
    # with the full contract intact
    from conftest import all_lattices, enumerate_cirls

    si = []
    for lat in all_lattices(5):
        si += [c for c in enumerate_cirls(lat) if monolith_info(c).is_si]
    assert len(si) == 35
    for a in si:
        info = monolith_info(a)
        step = expand_once(a)
        new = monolith_info(step.algebra)
        assert new.is_si
        assert new.depth >= 2 * info.depth
        assert new.coatom == step.d_element
        q_new = quotient(step.algebra, new.mu_filter).algebra
        q_old = quotient(a, info.mu_filter).algebra
        assert is_isomorphic(q_new, q_old)


def test_round_check_compares_the_quotient_with_the_base_s():
    # a round's quotient by its monolith is checked against the base's:
    # the right quotient passes, and a CIRL of the same size that is not
    # isomorphic to it is refused, so sizes alone do not decide
    chains3 = [c for lat in all_lattices(3) if lat.size == 3
               for c in enumerate_cirls(lat)]
    assert len(chains3) == 2        # C3 and the three-element Goedel chain
    checked = 0
    for base in _expansion_bases():
        info = monolith_info(base)
        q = quotient(base, info.mu_filter).algebra
        if q.size != 3:
            continue
        step = expand_once(base)
        new = monolith_info(step.algebra)
        expansion._check_monolith_restricts(base, info, q, step, new)
        other = next(c for c in chains3 if not is_isomorphic(c, q))
        with pytest.raises(AxiomError, match="^quotient by the monolith "
                                             "changed under expansion$"):
            expansion._check_monolith_restricts(base, info, other, step, new)
        checked += 1
    assert checked == 8


def test_gamma_closure_is_kept_per_frame():
    # every subset of the first-round frames of C2-C5, asked twice, is
    # the meet of the basic sets above it and is kept once
    for n in range(2, 6):
        frame = NuclearFrame(build_expansion_monoid(wajsberg_hoop(n)))
        size = frame.monoid.size
        assert size <= 9
        full = (1 << size) - 1
        for z in range(1 << size):
            meet = full
            for m in frame.basic:
                if not z & ~m:
                    meet &= m
            assert gamma_closure(frame, z) == meet
            assert gamma_closure(frame, z) == meet
        assert len(frame._closures) == 1 << size
        # a bit outside the monoid is refused every time, and not kept
        outside = 1 << size
        for _ in range(2):
            with pytest.raises(AxiomError, match="^closure is not "
                                                 "extensive$"):
                gamma_closure(frame, outside)
        assert outside not in frame._closures
        assert len(frame._closures) == 1 << size


def _one_round(monkeypatch, step):
    """Make the next expansion round return ``step``; a round after it
    means the check under test let ``step`` through."""
    steps = iter([step])

    def fake(base, c):
        return next(steps)

    monkeypatch.setattr(expansion, "expand_once", fake)


def test_round_checks_refuse_a_broken_round(monkeypatch):
    c2 = wajsberg_hoop(2)
    prod, _ = c2x2()
    _one_round(monkeypatch, LpResult(prod, [], [0, 1], 0))
    with pytest.raises(AxiomError, match="^expansion lost subdirect "
                                         "irreducibility$"):
        expand_to_depth(c2, 2)
    _one_round(monkeypatch, LpResult(c2, [], [0, 1], 0))
    with pytest.raises(AxiomError, match="^expansion did not double the "
                                         "monolith depth$"):
        expand_to_depth(c2, 2)
    # a real round whose embedding sends a's monolith bottom to the
    # round's bottom, outside the round's monolith filter
    checked = 0
    for base in _expansion_bases():
        info = monolith_info(base)
        if quotient(base, info.mu_filter).algebra.size != 3:
            continue
        monkeypatch.undo()
        step = expand_once(base)
        emb = list(step.embedding)
        emb[info.mu_bottom] = step.algebra.bottom
        _one_round(monkeypatch, LpResult(step.algebra, step.closed_sets, emb,
                                         step.d_element))
        with pytest.raises(AxiomError, match="^monolith does not restrict "
                                             "to the base monolith$"):
            expand_to_depth(base, info.depth + 1)
        checked += 1
    assert checked == 8


def _same_round(res, alg, emb):
    assert res.algebra.mul == alg.mul
    assert res.algebra.arrow == alg.arrow
    assert res.algebra.lattice.poset.up == alg.lattice.poset.up
    assert res.embedding == emb


def test_rounds_and_depth_follow_one_tower():
    # round r of the tower is r unchecked rounds of expand_once, as
    # `expand --rounds r` runs them, on C2-C6 for r <= 3 and on every
    # small SI CIRL for r <= 2
    bases = [(wajsberg_hoop(n), 3) for n in range(2, 7)] + \
        [(b, 2) for b in _expansion_bases()[:-6]]
    assert len(bases) == 5 + 35
    for base, r_max in bases:
        alg, emb = base, list(range(base.size))
        for r, res in enumerate(islice(expansion_tower(base), r_max + 1)):
            if r:
                step = expand_once(alg)
                alg, emb = step.algebra, [step.embedding[e] for e in emb]
            assert res.rounds == r
            _same_round(res, alg, emb)
    # and `expand --depth k` is the tower's first round of depth >= k
    for n in range(2, 7):
        base = wajsberg_hoop(n)
        tower = []
        for res in expansion_tower(base):
            tower.append(res)
            if res.depth >= 16:
                break
        for k in range(1, 17):
            first = next(res for res in tower if res.depth >= k)
            res = expand_to_depth(base, k)
            assert res.rounds == first.rounds and res.depth == first.depth
            _same_round(res, first.algebra, first.embedding)


def test_expand_to_depth():
    res = expand_to_depth(wajsberg_hoop(2), 4)
    assert res.rounds == 2 and res.depth == 4
    assert is_isomorphic(res.algebra, wajsberg_hoop(5))
    # already deep enough: unchanged
    c5 = wajsberg_hoop(5)
    res = expand_to_depth(c5, 3)
    assert res.rounds == 0 and res.algebra is c5
    prod, _ = c2x2()
    from splitbench.errors import NotSI

    with pytest.raises(NotSI):
        expand_to_depth(prod, 2)


@cache
def _expansion_bases():
    return [c for lat in all_lattices(5) if lat.size > 1
            for c in enumerate_cirls(lat) if monolith_info(c).is_si] + \
        [wajsberg_hoop(n) for n in range(2, 8)]


def test_frame_and_closure_residual_match_oracle():
    # the basic sets and the closure algebra's residual, for one and two
    # rounds of expansion of every small SI CIRL and of C2-C7
    rounds = 0
    for base in _expansion_bases():
        alg = base
        for _ in range(2):
            frame = NuclearFrame(build_expansion_monoid(alg))
            assert frame.basic == oracle_frame_basic(frame.monoid)
            step = lp_algebra(frame)
            assert step.algebra.arrow == \
                oracle_lp_arrow(frame, step.closed_sets)
            alg = step.algebra
            # the product's monoid laws hold by proof and are not checked
            # when the closure algebra is built
            validate_cirl(alg.lattice, alg.mul, alg.arrow)
            rounds += 1
    assert rounds == 2 * 41


def test_expansion_cap(monkeypatch):
    # the cap is on the monoid's size, n plus one inserted element for
    # each a with c * a != a, tested before any table of the round
    assert expansion.EXPANSION_CAP == 128
    with pytest.raises(SizeError, match="^expansion monoid of 129 elements "
                                        "exceeds cap 128$"):
        build_expansion_monoid(wajsberg_hoop(65))
    monkeypatch.setattr(expansion, "EXPANSION_CAP", 9)
    assert build_expansion_monoid(wajsberg_hoop(5)).size == 9

    def no_tables(self):
        raise AssertionError("a table was built past the cap")

    monkeypatch.setattr(ExpandedMonoid, "_build_order", no_tables)
    with pytest.raises(SizeError, match="of 11 elements exceeds cap 9"):
        build_expansion_monoid(wajsberg_hoop(6))
    # the C2 tower has 2, 3, 5, 9 and 17 elements at depth 1, 2, 4, 8 and
    # 16, each round's monoid as large as its result
    monkeypatch.undo()
    monkeypatch.setattr(expansion, "EXPANSION_CAP", 16)
    assert expand_to_depth(wajsberg_hoop(2), 8).algebra.size == 9
    with pytest.raises(SizeError, match="of 17 elements exceeds cap 16"):
        expand_to_depth(wajsberg_hoop(2), 9)

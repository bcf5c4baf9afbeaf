import itertools

import pytest

from conftest import (all_lattices, all_posets, antichain, chain, crown4,
                      enumerate_cirls, fence, lattices_isomorphic,
                      oracle_down_mask, oracle_dp_congruences, oracle_up_mask,
                      vee)
from splitbench import cli
from splitbench.duality import (CONGRUENCE_CAP, PosetMap, UpSetAlgebra,
                                birkhoff_map, classify_algebra, classify_map,
                                dp_congruences, dual_poset,
                                enumerate_morphisms, generate_subalgebra,
                                katrinak_arrow, never_maps_onto,
                                up_set_algebra, varlet_report)
from splitbench.errors import (BadParameter, NotDistributive, NotRegular,
                               RangeError, SizeError)
from splitbench.lattice import FinLattice, up_set_lattice
from splitbench.poset import (DoublePointedPoset, FinPoset, bits, build_poset,
                              canonical_key, enumerate_up_sets, find_tails,
                              is_connected, is_fence, popcount, power_chain,
                              searrow)


def test_up_set_algebra_small():
    assert up_set_algebra(chain(1)).size == 2
    a2 = up_set_algebra(antichain(2))
    assert a2.size == 4
    assert a2.neg(0b01) == 0b10
    a = up_set_algebra(chain(2))
    assert a.size == 3
    assert a.delta(0b10) == 0


def test_dual_operation_formulas_directly():
    # spot check the closure formulas on the 4-fence against raw scans
    f = fence(4)
    alg = up_set_algebra(f)
    for u in alg.elements:
        down_u = 0
        for i in range(4):
            if any(f.leq(i, j) for j in bits(u)):
                down_u |= 1 << i
        assert alg.neg(u) == f.all_mask & ~down_u
        up_cu = 0
        for i in range(4):
            if any(f.leq(j, i) for j in bits(f.all_mask & ~u)):
                up_cu |= 1 << i
        assert alg.dpc(u) == up_cu


def test_pseudocomplement_memos_match_the_row_formulas():
    # each operation on a fresh algebra, over every in-range mask (up-sets
    # or not), twice: the second call reads the memo
    for p in all_posets(4):
        one = p.all_mask

        def neg(u):
            return one & ~oracle_down_mask(p, u)

        def dpc(u):
            return oracle_up_mask(p, one & ~u)

        raw = {"neg": neg, "dpc": dpc,
               "delta": lambda u: neg(dpc(u)), "sigma": lambda u: dpc(neg(u))}
        for name, formula in raw.items():
            op = getattr(UpSetAlgebra(p), name)
            for _ in range(2):
                for u in range(one + 1):
                    assert op(u) == formula(u), (name, p.up, u)
        alg = UpSetAlgebra(p)
        for name in raw:
            for u in (one + 1, -1):
                for _ in range(2):
                    with pytest.raises(RangeError):
                        getattr(alg, name)(u)
        assert not any(u & ~one for u in alg._dpc)
        assert not any(u & ~one for u in alg._neg)


def test_pseudocomplement_memos_belong_to_their_algebra():
    # the same mask over two bases: the chain 0 < 1 and the 2-antichain
    c, a = UpSetAlgebra(chain(2)), UpSetAlgebra(antichain(2))
    for _ in range(2):
        assert (c.neg(0b10), a.neg(0b10)) == (0, 0b01)
        assert (a.dpc(0b10), c.dpc(0b10)) == (0b01, 0b11)


def test_katrinak_arrow_computes_each_pseudocomplement_once(monkeypatch):
    # on a regular base all-pairs katrinak_arrow only passes up-sets to
    # neg and dpc, so each closure runs at most once per up-set
    calls = {"down_mask": 0, "up_mask": 0}
    for name in calls:
        orig = getattr(FinPoset, name)

        def counted(self, s, name=name, orig=orig):
            calls[name] += 1
            return orig(self, s)

        monkeypatch.setattr(FinPoset, name, counted)
    regular = [p for p in all_posets(5, dedupe=True)
               if p.minimals() | p.maximals() == p.all_mask]
    assert len(regular) == 37
    for p in regular:
        alg = up_set_algebra(p)
        for name in calls:
            calls[name] = 0
        for u in alg.elements:
            for v in alg.elements:
                katrinak_arrow(alg, u, v)
        assert max(calls.values()) <= alg.size, (p.up, calls)


def test_dual_poset_examples():
    dp, _ = dual_poset(FinLattice(chain(3)))
    assert canonical_key(dp) == canonical_key(chain(2))
    boolean8, _ = up_set_lattice(antichain(3))
    dp3, _ = dual_poset(boolean8)
    assert dp3.size == 3 and all(dp3.up[i] == 1 << i for i in range(3))
    from conftest import m3
    with pytest.raises(NotDistributive):
        dual_poset(m3())


def test_round_trip_through_birkhoff(small_posets):
    for p in small_posets:
        lat, _ = up_set_lattice(p)
        dp, irr = dual_poset(lat)
        assert canonical_key(dp) == canonical_key(p)
        bm = birkhoff_map(lat, irr)
        ups = set(enumerate_up_sets(dp))
        assert set(bm.values()) == ups
        assert len(set(bm.values())) == lat.size
        for x in range(lat.size):
            for y in range(lat.size):
                assert bm[lat.meet[x][y]] == bm[x] & bm[y]
                assert bm[lat.join[x][y]] == bm[x] | bm[y]


def test_classify_map_flags():
    f = fence(4)
    ident = PosetMap(f, f, (0, 1, 2, 3))
    c = classify_map(ident)
    assert c.m1 and c.m2 and c.m3 and c.is_priestley
    pt = build_poset(1, [])
    const = PosetMap(f, pt, (0, 0, 0, 0))
    c = classify_map(const)
    assert c.m1 and c.m2 and c.m3


def test_projection_from_power_chain_is_dh():
    for base in (chain(2), fence(4)):
        x = DoublePointedPoset(base, 0, 1)
        for n in (2, 3):
            pc = power_chain(x, n)
            values = []
            for copy in pc.parts:
                for e, w in enumerate(copy):
                    values.append((w, e))
            proj = [e for _, e in sorted(values)]
            c = classify_map(PosetMap(pc.poset, base, tuple(proj)))
            assert c.m1 and c.m2


def test_enumerate_morphisms_singleton_and_counts():
    f = fence(4)
    pt = build_poset(1, [])
    assert len(enumerate_morphisms(f, pt, "hplus")) == 1
    ch2 = chain(2)
    assert enumerate_morphisms(f, ch2, "hplus", surjective_only=True)
    assert not enumerate_morphisms(vee(), chain(3), "hplus",
                                   surjective_only=True)


def test_enumerate_morphisms_matches_brute_force():
    # every map of a labelled poset of size <= 4 into each poset of size
    # <= 4 is classified once; the search must list exactly those of the
    # kind, sorted by values, with and without surjectivity
    kinds = {"heyting": lambda c: c.heyting, "hplus": lambda c: c.hplus,
             "dh": lambda c: c.dheyting}
    xs, ys = all_posets(4), all_posets(4, dedupe=True)
    assert (len(xs), len(ys)) == (50, 24)
    for x in xs:
        for y in ys:
            classified = [
                (vals, classify_map(PosetMap(x, y, vals)))
                for vals in itertools.product(range(y.size), repeat=x.size)]
            for kind, flag in kinds.items():
                maps = [v for v, c in classified if flag(c)]
                onto = [v for v in maps if len(set(v)) == y.size]
                for surjective, want in ((False, maps), (True, onto)):
                    got = enumerate_morphisms(x, y, kind, surjective)
                    assert [m.values for m in got] == want, \
                        (repr(x), repr(y), kind, surjective)


def test_order_isolated_obstruction():
    # a connected space with an isolated point never maps onto the 2-chain
    iso = build_poset(1, [])
    assert never_maps_onto(iso, chain(2))
    for p in all_posets(5):
        surj = enumerate_morphisms(p, chain(2), "hplus",
                                   surjective_only=True)
        from splitbench.poset import order_isolated

        assert bool(surj) == (order_isolated(p) == 0), repr(p)


def test_never_maps_onto():
    ch2 = chain(2)
    assert not never_maps_onto(ch2, ch2)
    assert never_maps_onto(ch2, chain(3))
    for n in (4, 5, 6):
        assert never_maps_onto(fence(n), crown4())


def test_minimals_preserved_by_morphisms():
    targets = [chain(2), vee(), fence(4), chain(3)]
    for p in all_posets(4, connected_only=True, dedupe=True):
        for y in targets:
            for phi in enumerate_morphisms(p, y, "hplus"):
                for e in bits(p.maximals()):
                    assert y.maximals() & (1 << phi.values[e])
                for e in bits(p.minimals()):
                    assert y.minimals() & (1 << phi.values[e])


def test_image_of_fence_is_fence():
    targets = all_posets(5, connected_only=True, dedupe=True)
    for n in range(2, 7):
        src = fence(n)
        for y in targets:
            for phi in enumerate_morphisms(src, y, "hplus"):
                img = phi.image_mask(src.all_mask)
                if popcount(img) == 1:
                    continue
                sub, _ = y.restrict(img)
                assert is_fence(sub), (n, repr(y), phi.values)


def test_down_tails_map_to_down_tails_of_images():
    # down-tails travel to down-tails of the image on connected sources
    targets = all_posets(5, connected_only=True, dedupe=True)
    for src in all_posets(4, connected_only=True, dedupe=True):
        tails = [t for t in find_tails(src) if t[0] == "down"]
        if not tails:
            continue
        for y in targets:
            for phi in enumerate_morphisms(src, y, "hplus"):
                img = phi.image_mask(src.all_mask)
                if popcount(img) == 1:
                    continue
                sub, elems = y.restrict(img)
                pos = {e: k for k, e in enumerate(elems)}
                for _, t1, t2 in tails:
                    i1, i2 = pos[phi.values[t1]], pos[phi.values[t2]]
                    assert ("down", i1, i2) in find_tails(sub)


def test_down_sets_map_exactly_on_glued_height_one_blocks():
    # with a height-one right block, down-sets of its points map exactly
    s = DoublePointedPoset(vee(), 0, 1)
    t = DoublePointedPoset(fence(3, start_up=False), 1, 0)
    g = searrow(s, t)
    right = g.parts[1]
    targets = all_posets(4, connected_only=True, dedupe=True)
    checked = 0
    for y in targets:
        for phi in enumerate_morphisms(g.poset, y, "hplus"):
            img = phi.image_mask(g.poset.all_mask)
            if popcount(img) == 1:
                continue
            for e in right:
                assert phi.image_mask(g.poset.down[e]) == \
                    y.down[phi.values[e]]
                checked += 1
    assert checked


def test_classify_algebra():
    assert classify_algebra(fence(5)) == classify_algebra(fence(5))
    c = classify_algebra(fence(4))
    assert c.simple and c.rdp and not c.boolean
    assert not classify_algebra(chain(3)).rdp
    assert classify_algebra(antichain(3)).boolean


def test_alternating_closure_powers_stay_nonempty():
    # nonempty up-sets stay nonempty under alternating closure powers
    for p in all_posets(5, dedupe=True):
        alg = UpSetAlgebra(p)
        for u in alg.elements:
            if u == 0:
                continue
            for n in range(4):
                v = u
                for _ in range(n + 1):
                    v = alg.sigma(v)
                for _ in range(n):
                    v = alg.delta(v)
                assert v != 0, (repr(p), bin(u), n)


def test_katrinak_arrow():
    f = fence(4)
    alg = up_set_algebra(f)
    for u in alg.elements:
        assert katrinak_arrow(alg, u, u) == alg.one
        for v in alg.elements:
            assert katrinak_arrow(alg, u, v) == alg.arrow(u, v)
    with pytest.raises(NotRegular):
        katrinak_arrow(up_set_algebra(chain(3)), 0, 0)


def test_katrinak_arrow_on_all_small_posets():
    # regular bases get the table's arrow on every pair; every other base
    # is refused with the same error on every pair
    posets = all_posets(5, dedupe=True)
    assert len(posets) == 87
    for p in posets:
        alg = up_set_algebra(p)
        middle = [i for i in range(p.size)
                  if any(p.lt(j, i) for j in range(p.size))
                  and any(p.lt(i, k) for k in range(p.size))]
        for u in alg.elements:
            for v in alg.elements:
                if middle:
                    with pytest.raises(NotRegular) as err:
                        katrinak_arrow(alg, u, v)
                    assert str(err.value) == ("base has an element that is "
                                              "neither minimal nor maximal")
                else:
                    assert katrinak_arrow(alg, u, v) == alg.arrow(u, v)


def test_generate_subalgebra():
    a2 = up_set_algebra(antichain(2))
    assert generate_subalgebra(a2, [], "hplus") == {a2.zero, a2.one}
    assert len(generate_subalgebra(a2, [0b01], "hplus")) == 4
    # every connected non-boolean base admits a three-element subuniverse
    for p in all_posets(5, connected_only=True, dedupe=True):
        c = classify_algebra(p)
        if c.boolean:
            continue
        alg = up_set_algebra(p)
        assert any(
            len(generate_subalgebra(alg, [u], "hplus")) == 3
            for u in alg.elements), repr(p)


def test_generate_subalgebra_reads_the_signature():
    # a CIRL has no zero: {x} closes with 1 under meet, join, mult and res
    cases = 0
    for lat in all_lattices(5):
        for alg in enumerate_cirls(lat):
            ops = (alg.meet, alg.join, alg.mult, alg.res)
            for x in alg.elements:
                want = {x, alg.one}
                while True:
                    more = want | {f(u, v) for f in ops
                                   for u in want for v in want}
                    if more == want:
                        break
                    want = more
                assert generate_subalgebra(alg, [x], "cirl") == want
                cases += 1
    assert cases == 172
    with pytest.raises(BadParameter, match="^unknown signature 'bogus'$"):
        generate_subalgebra(up_set_algebra(chain(2)), [], "bogus")


def test_varlet_report():
    r = varlet_report(up_set_algebra(chain(2)))
    assert r.all_agree and r.regular
    r = varlet_report(up_set_algebra(chain(3)))
    assert r.all_agree and not r.regular
    for p in (fence(4), fence(5), antichain(2), crown4()):
        r = varlet_report(up_set_algebra(p))
        assert r.all_agree and r.regular, repr(p)


def test_dp_congruences_match_algebraic_oracle():
    posets = all_posets(5, dedupe=True)
    assert len(posets) == 87
    for p in posets:
        alg = up_set_algebra(p)
        assert dp_congruences(alg) == oracle_dp_congruences(alg), repr(p)


def test_up_set_laws_hold_beyond_size_five():
    # up_set_algebra trusts the duality; the loader re-checks every law of
    # each kind on the tables, past c08's family of posets of size <= 5
    for p in (fence(7), antichain(6)):
        alg = up_set_algebra(p)
        for kind in ("heyting", "hplus", "dheyting", "dp"):
            table = cli.algebra_from_json(cli.upalgebra_to_json(alg, kind))
            assert table.size == alg.size, (repr(p), kind)


def test_varlet_report_survives_dp_json_round_trip():
    for p in all_posets(4):
        alg = up_set_algebra(p)
        table = cli.algebra_from_json(cli.upalgebra_to_json(alg, "dp"))
        assert varlet_report(table) == varlet_report(alg), repr(p)


def test_dp_congruences_input_contract():
    table = cli.algebra_from_json(
        cli.upalgebra_to_json(up_set_algebra(chain(2)), "dp"))
    with pytest.raises(BadParameter):
        dp_congruences(table)
    # every subset of an antichain is closed, so Up(A_n) has 2^n of them
    assert len(dp_congruences(UpSetAlgebra(antichain(8)))) == CONGRUENCE_CAP
    with pytest.raises(SizeError):
        dp_congruences(UpSetAlgebra(antichain(9)))

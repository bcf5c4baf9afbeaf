"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Each criterion is
checked exactly as stated, at its stated tolerance and within its stated
time budget.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from conftest import (all_lattices, all_posets, antichain, chain,
                      enumerate_cirls, fence, m3, n5, vee)
from splitbench.diagram import (CIRL, HPLUS, Assignment, build_diagram,
                                embedding_by_diagram, eval_diagram,
                                search_embedding, si_structure,
                                _canonical_tuple, _first_prime_at_least,
                                _pair_index)
from splitbench.duality import (UpSetAlgebra, birkhoff_map, classify_algebra,
                                dual_poset, enumerate_morphisms,
                                generate_subalgebra, katrinak_arrow,
                                up_set_algebra, varlet_report)
from splitbench.expansion import (NuclearFrame, build_expansion_monoid,
                                  expand_once, expand_to_depth, gamma_closure)
from splitbench.filtration import close_under_dpc, filtrate, rdp_preserved_check
from splitbench.hplus_witness import (build_witness_algebra, chi, chi_plus,
                                      copy_union, diagram_final_check,
                                      fence_for_target, never_maps_onto_check)
from splitbench.lattice import (FinLattice, all_splitting_pairs,
                                dual_rel_pseudocomplement, is_splitting_pair,
                                join_primes, rel_pseudocomplement,
                                splitting_from_cover, up_set_lattice)
from splitbench.poset import (DoublePointedPoset, FinPoset, bits, build_poset,
                              canonical_key, enumerate_posets,
                              enumerate_up_sets, find_tails, is_connected,
                              is_fence, popcount, power_chain, searrow)
from splitbench.residuated import (congruence_filters, is_isomorphic,
                                   monolith_info, quotient,
                                   truncated_product, validate_cirl,
                                   wajsberg_hoop)
from splitbench.diagram import in_hs


@contextmanager
def criterion(num, desc, budget=None):
    start = time.monotonic()
    ok = False
    try:
        yield
        elapsed = time.monotonic() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"criterion {num} took {elapsed:.1f}s, budget {budget}s")
        ok = True
    finally:
        status = "PASS" if ok else "FAIL"
        print(f"criterion {num:2d}: {status}: {desc} "
              f"({time.monotonic() - start:.1f}s)")


def test_c01_hoop_expansion_law():
    with criterion(1, "one expansion round on C_n is C_(2n-1), n=2..6",
                   budget=10):
        for n in range(2, 7):
            step = expand_once(wajsberg_hoop(n))
            assert is_isomorphic(step.algebra, wajsberg_hoop(2 * n - 1)), n


def test_c02_c2_tower():
    with criterion(2, "k expansion rounds on C_2 give C_(2^k+1), k<=4",
                   budget=60):
        alg = wajsberg_hoop(2)
        for k in range(5):
            assert is_isomorphic(alg, wajsberg_hoop(2 ** k + 1)), k
            if k < 4:
                alg = expand_once(alg).algebra


def c2x2_with_coatom():
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
    return validate_cirl(lat, mul, arrow), 1  # c = the coatom (0, q)


def test_c03_closed_set_canonical_form():
    with criterion(3, "gamma-closed sets are exactly the canonical forms",
                   budget=30):
        cases = [(wajsberg_hoop(n), None) for n in range(2, 6)]
        cases.append(c2x2_with_coatom())
        for base, c in cases:
            frame = NuclearFrame(build_expansion_monoid(base, c))
            mon = frame.monoid

            def down(x):
                return sum(1 << y for y in range(mon.size) if mon.leq(y, x))

            canonical = {down(a) | down(mon.mul[mon.d][b])
                         for a in range(base.size) for b in range(base.size)}
            canonical = {z for z in canonical
                         if gamma_closure(frame, z) == z}
            brute = {z for z in range(1 << mon.size)
                     if gamma_closure(frame, z) == z}
            assert canonical == brute


def test_c04_depth_doubling_and_quotient():
    with criterion(4, "expansions stay SI, at least double the depth, and "
                      "fix the monolith quotient", budget=30):
        recorded = []
        for base in (wajsberg_hoop(2), wajsberg_hoop(3), wajsberg_hoop(4)):
            alg = base
            for _ in range(2):
                prev_info = monolith_info(alg)
                step = expand_once(alg)
                info = monolith_info(step.algebra)
                assert info.is_si
                assert info.depth >= 2 * prev_info.depth
                recorded.append((alg.size, info.depth))
                q_new = quotient(step.algebra, info.mu_filter).algebra
                q_old = quotient(alg, prev_info.mu_filter).algebra
                assert is_isomorphic(q_new, q_old)
                alg = step.algebra
        # exact depths for the hoop bases: doubling on the nose
        assert recorded == [(2, 2), (3, 4), (3, 4), (5, 8), (4, 6), (7, 12)]


def test_c05_witness_tuple():
    with criterion(5, "canonical tuple computation and exclusion from "
                      "generated classes (depth boundary included)",
                   budget=300):
        for base_n in (3, 4):
            a = wajsberg_hoop(base_n)
            n = monolith_info(a).depth
            exp = expand_to_depth(a, n + 1)
            e = exp.algebra
            m = exp.depth
            assert m % 2 == 0 and m > n
            e_info = monolith_info(e)
            p = _first_prime_at_least(e.size)
            hoop = wajsberg_hoop(p + 1)
            big = truncated_product(e, hoop)
            pair_of = _pair_index(e, hoop, big)
            w = _canonical_tuple(a, e, exp.embedding, hoop, big)
            d = build_diagram(a, CIRL)
            value = eval_diagram(d, Assignment(big, w))
            assert value == pair_of[(e_info.coatom, 1)], \
                "diagram value is not the (coatom, q) pair"
            assert not in_hs(a, big, CIRL), \
                "source embeds into a quotient of the glued product"
            mu_pos = d.position(monolith_info(a).mu_bottom)
            # (a) the canonical tuple witnesses every power below the depth
            for k in range(1, m):
                assert not big.leq(big.power(value, k), w[mu_pos]), \
                    (base_n, k, m)
            # (b) it cannot witness the depth itself.  With c the coatom
            # of E: (1) m is the least n with c^(n+1) = c^n, so c^m is
            # idempotent; (2) in a CIRL the congruence filter generated by
            # c is up(c^m), and the monolith is the least nontrivial one,
            # so its bottom is c^m; (3) the monolith of E restricts to that
            # of A, so c^m <= embedding[mu_bottom(A)]; (4) the value is
            # (c, q), so value^m = (c^m, q^m) <= w[mu_pos].
            assert e_info.mu_bottom == e.power(e_info.coatom, m)
            assert big.leq(big.power(value, m), w[mu_pos])
            # (c) some other assignment does witness the depth power
            assert any(
                not big.leq(big.power(eval_diagram(d, Assignment(big, vals)),
                                      m), vals[mu_pos])
                for vals in itertools.product(range(big.size),
                                              repeat=d.var_count)), \
                f"no assignment witnesses power {m} for base size {base_n}"


def test_c06_diagram_criterion_agreement():
    with criterion(6, "diagram-based embedding agrees with direct search "
                      "on all small SI pairs"):
        algebras = []
        for lat in all_lattices(5):
            algebras.extend(enumerate_cirls(lat))
        si = [x for x in algebras if monolith_info(x).is_si]
        assert len(si) >= 30
        for a in si:
            for b in si:
                assert (embedding_by_diagram(a, b, CIRL) is not None) == \
                    (search_embedding(a, b, CIRL) is not None)
        sources, targets = [], []
        for p in all_posets(4, dedupe=True):
            alg = up_set_algebra(p)
            targets.append(alg)
            if is_connected(p):
                sources.append(alg)
        for a in sources:
            for b in targets:
                assert (embedding_by_diagram(a, b, HPLUS) is not None) == \
                    (search_embedding(a, b, HPLUS) is not None)


def test_c07_splitting_machinery():
    with criterion(7, "splitting characterisations on small distributive "
                      "lattices; M3 and N5 pair counts"):
        for p in all_posets(5):
            lat, _ = up_set_lattice(p)
            brute = set(all_splitting_pairs(lat))
            jp = join_primes(lat)
            derived = set()
            for c in bits(jp):
                nd = 0
                for x in range(lat.size):
                    if not lat.leq(c, x):
                        nd |= 1 << x
                dd = lat.join_all(nd)
                if is_splitting_pair(lat, c, dd):
                    derived.add((c, dd))
            assert brute == derived
            for c, dd in brute:
                meet_cd = lat.meet[c][dd]
                assert lat.is_cover(meet_cd, c)
                assert rel_pseudocomplement(lat, c, meet_cd) == dd
            for a, b in lat.covers():
                c, dd = splitting_from_cover(lat, a, b)
                assert is_splitting_pair(lat, c, dd)
                assert lat.leq(c, b) and lat.leq(a, dd)
                assert lat.is_cover(lat.meet[c][dd], c)
            if p.size <= 4:
                for u in range(lat.size):
                    for v in range(lat.size):
                        if not lat.poset.lt(u, v):
                            continue
                        sub, elems = lat.interval(u, v)
                        for a, b in sub.covers():
                            c2, d2 = splitting_from_cover(sub, a, b)
                            c1, d1 = splitting_from_cover(
                                lat, elems[a], elems[b])
                            assert elems[c2] == lat.join[c1][u]
                            assert elems[d2] == lat.meet[d1][v]
        assert all_splitting_pairs(m3()) == []
        # the pentagon 0<1<2<4, 0<3<4 splits as up(1) + down(3) and as
        # up(3) + down(2), and in no other way
        pentagon = n5()
        carrier = set(range(pentagon.size))

        def partitions(c, dd):
            up_c = {x for x in carrier if pentagon.leq(c, x)}
            down_d = {x for x in carrier if pentagon.leq(x, dd)}
            return not up_c & down_d and up_c | down_d == carrier

        by_definition = {(c, dd) for c in carrier for dd in carrier
                         if partitions(c, dd)}
        assert by_definition == {(1, 3), (3, 2)}
        assert all_splitting_pairs(pentagon) == sorted(by_definition)


def test_c08_duality_round_trip_and_adjunctions():
    with criterion(8, "up-set algebra of the dual reconstructs the lattice; "
                      "closure formulas satisfy their adjunctions"):
        for p in all_posets(5):
            lat, _ = up_set_lattice(p)
            dp, irr = dual_poset(lat)
            assert canonical_key(dp) == canonical_key(p)
            bm = birkhoff_map(lat, irr)
            assert set(bm.values()) == set(enumerate_up_sets(dp))
            assert len(set(bm.values())) == lat.size
            for x in range(lat.size):
                for y in range(lat.size):
                    assert bm[lat.meet[x][y]] == bm[x] & bm[y]
                    assert bm[lat.join[x][y]] == bm[x] | bm[y]
            alg = UpSetAlgebra(p)
            elems = alg.elements
            for u in elems:
                assert alg.delta(u) == alg.neg(alg.dpc(u))
                assert alg.sigma(u) == alg.dpc(alg.neg(u))
                assert alg.neg(u) == alg.arrow(u, 0)
                for w in elems:
                    assert (alg.join(u, w) == alg.one) == \
                        alg.leq(alg.dpc(u), w)
                for v in elems:
                    uv = alg.arrow(u, v)
                    duv = alg.coarrow(u, v)
                    for w in elems:
                        assert alg.leq(alg.meet(w, u), v) == alg.leq(w, uv)
                        assert alg.leq(u, alg.join(w, v)) == alg.leq(duv, w)


def height_le_one_posets(max_size):
    out = []
    seen = set()
    for n in range(1, max_size + 1):
        for p in enumerate_posets(n):
            if (p.minimals() | p.maximals()) != p.all_mask:
                continue
            key = canonical_key(p)
            if key in seen:
                continue
            seen.add(key)
            out.append(p)
    return out


def test_c09_katrinak_varlet():
    with criterion(9, "recovered arrow matches the table and the four "
                      "regularity conditions agree, height <= 1, size <= 6",
                   budget=20):
        for p in height_le_one_posets(6):
            alg = up_set_algebra(p)
            for u in alg.elements:
                for v in alg.elements:
                    assert katrinak_arrow(alg, u, v) == alg.arrow(u, v)
            rep = varlet_report(alg)
            assert rep.all_agree, repr(p)
            assert rep.regular, repr(p)


def test_c10_fences():
    with criterion(10, "fence predicate agreement <= 7; fence images are "
                       "fences; the order-isolated obstruction"):
        for n in range(1, 8):
            for p in enumerate_posets(n):
                if not is_connected(p):
                    continue
                char = (p.size >= 2
                        and all(popcount(p.up[i]) <= 3 and
                                popcount(p.down[i]) <= 3
                                for i in range(p.size))
                        and bool(find_tails(p)))
                assert is_fence(p) == char, repr(p)
        targets = all_posets(5, connected_only=True, dedupe=True)
        for n in range(2, 7):
            src = fence(n)
            for y in targets:
                for phi in enumerate_morphisms(src, y, "hplus"):
                    img = phi.image_mask(src.all_mask)
                    if popcount(img) == 1:
                        continue
                    sub, _ = y.restrict(img)
                    assert is_fence(sub)
        ch2 = chain(2)
        from splitbench.poset import order_isolated

        for p in all_posets(5):
            surj = enumerate_morphisms(p, ch2, "hplus", surjective_only=True)
            assert bool(surj) == (order_isolated(p) == 0)


def test_c11_distortion_computations():
    with criterion(11, "comparison terms, copy-union homomorphism, diagram "
                       "closed forms, and the never-maps instances",
                   budget=600):
        rng = random.Random(17)
        xs = [DoublePointedPoset(chain(2), 0, 1),
              DoublePointedPoset(fence(4), 0, 1),
              DoublePointedPoset(vee(), 0, 1)]
        ys = [DoublePointedPoset(chain(2), 0, 1),
              DoublePointedPoset(fence(4), 2, 3)]
        samples = 0
        for x in xs:
            for y in ys:
                g = searrow(x, y)
                left = sum(1 << i for i in g.parts[0])
                ups = enumerate_up_sets(x.poset)
                for _ in range(20):
                    u, v = rng.choice(ups), rng.choice(ups)
                    assert chi(g, u, v) == left
                    chi_plus(g, u, v)
                    samples += 1
        assert samples >= 100

        for base in (chain(2), fence(4)):
            x = DoublePointedPoset(base, 0, 1)
            src = up_set_algebra(base)
            for n in (1, 2):
                pc = power_chain(x, n)
                big = UpSetAlgebra(pc.poset)
                for a in src.elements:
                    for b in src.elements:
                        for op in ("meet", "join", "arrow", "coarrow"):
                            assert copy_union(pc.parts, getattr(src, op)(a, b)) \
                                == getattr(big, op)(copy_union(pc.parts, a),
                                                    copy_union(pc.parts, b))
                    for op in ("neg", "dpc"):
                        assert copy_union(pc.parts, getattr(src, op)(a)) == \
                            getattr(big, op)(copy_union(pc.parts, a))

        for base in (chain(2), fence(4)):
            x = DoublePointedPoset(base, 0, 1)
            y = DoublePointedPoset(chain(2), 0, 1)
            for n in (0, 1):
                w = build_witness_algebra(x, y, n)
                for sig in ("hplus", "dheyting"):
                    assert diagram_final_check(w, sig) != 0

        crown = build_poset(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        for target, bot, top in ((crown, 0, 2), (chain(3), 0, 2),
                                 (fence(4), 0, 1)):
            x = DoublePointedPoset(target, bot, top)
            fc = fence_for_target(x)
            assert never_maps_onto_check(x, fc, 1), fc.case


def test_c12_filtration():
    with criterion(12, "partial-operation preservation on random families; "
                       "height-one preservation under closed families"):
        rng = random.Random(41)
        posets6 = all_posets(6, dedupe=True)
        binary = ["meet", "join", "arrow", "coarrow"]
        unary = ["neg", "dpc"]
        done = 0
        while done < 50:
            p = rng.choice(posets6)
            alg = UpSetAlgebra(p)
            ups = alg.elements
            fam = rng.sample(ups, min(len(ups), rng.randint(1, 5)))
            fil = filtrate(p, fam)
            qa = fil.algebra
            in_fam = set(fam)
            for u in fam:
                for name in unary:
                    r = getattr(alg, name)(u)
                    if r in in_fam:
                        assert getattr(qa, name)(fil.phi(u)) == fil.phi(r)
                for v in fam:
                    for name in binary:
                        r = getattr(alg, name)(u, v)
                        if r in in_fam:
                            assert getattr(qa, name)(
                                fil.phi(u), fil.phi(v)) == fil.phi(r)
            done += 1
        for p in height_le_one_posets(6):
            alg = UpSetAlgebra(p)
            for u in alg.elements:
                fam = close_under_dpc(alg, [u])
                assert rdp_preserved_check(p, fam)


def test_c13_three_chain_subalgebra():
    with criterion(13, "every small non-boolean connected base admits a "
                       "three-element subalgebra"):
        for p in all_posets(5, connected_only=True, dedupe=True):
            if classify_algebra(p).boolean:
                continue
            alg = up_set_algebra(p)
            assert any(
                len(generate_subalgebra(alg, [u], "hplus")) == 3
                for u in alg.elements), repr(p)

import itertools
import re

import pytest

from conftest import (all_posets, boolean_lattice, chain, diamond, m3, n5,
                      oracle_lattice_tables)
from splitbench.errors import MissingResidual, NotACover, NotALattice
from splitbench.lattice import (FinLattice, all_splitting_pairs,
                                dual_rel_pseudocomplement, is_splitting_pair,
                                join_primes, rel_pseudocomplement,
                                splitting_from_cover, up_set_lattice)
from splitbench.poset import bits, build_poset


def lat_chain(n):
    return FinLattice(chain(n))


def test_lattice_construction_rejects_non_lattices():
    with pytest.raises(NotALattice):
        FinLattice(build_poset(4, [(0, 2), (0, 3), (1, 2), (1, 3)]))


def test_bounds_and_tables():
    d = diamond()
    assert d.zero == 0 and d.one == 3
    assert d.meet[1][2] == 0 and d.join[1][2] == 3
    assert d.is_distributive()
    assert not m3().is_distributive()
    assert not n5().is_distributive()


def test_rel_pseudocomplement():
    c3 = lat_chain(3)
    # chain with the second argument above the first: whole set qualifies
    assert rel_pseudocomplement(c3, 0, 2) == 2
    assert rel_pseudocomplement(c3, 2, 1) == 1
    assert rel_pseudocomplement(m3(), 1, 0) is None


def test_dual_rel_pseudocomplement():
    for lat in (lat_chain(4), diamond(), boolean_lattice(3)):
        for x in range(lat.size):
            assert dual_rel_pseudocomplement(lat, lat.one, x) is not None
            assert dual_rel_pseudocomplement(lat, x, lat.one) == lat.zero
            assert dual_rel_pseudocomplement(lat, x, lat.zero) == x
            got = dual_rel_pseudocomplement(lat, lat.zero, x)
            assert got == lat.zero


def test_dual_residuals_total_in_finite_distributive():
    # every element a join of join-primes forces totality
    lats = [boolean_lattice(3), diamond(), lat_chain(5)]
    lats += [up_set_lattice(p)[0] for p in all_posets(4)]
    for lat in lats:
        for b in range(lat.size):
            for a in range(lat.size):
                assert dual_rel_pseudocomplement(lat, b, a) is not None


def test_is_splitting_pair():
    c2 = lat_chain(2)
    assert is_splitting_pair(c2, 1, 0)
    d = diamond()
    assert is_splitting_pair(d, 1, 2)
    for lat in (c2, d, m3()):
        for x in range(lat.size):
            assert not is_splitting_pair(lat, lat.zero, x)


def test_all_splitting_pairs_counts():
    for n in range(2, 6):
        assert len(all_splitting_pairs(lat_chain(n))) == n - 1
    assert all_splitting_pairs(m3()) == []
    assert len(all_splitting_pairs(boolean_lattice(3))) == 3
    # the pentagon genuinely has two splitting pairs
    assert all_splitting_pairs(n5()) == [(1, 3), (3, 2)]


def test_join_primes():
    assert join_primes(lat_chain(4)) == 0b1110
    assert join_primes(diamond()) == 0b0110
    assert join_primes(m3()) == 0


def test_join_prime_characterisation_of_splitting_pairs():
    for p in all_posets(4):
        lat, _ = up_set_lattice(p)
        brute = set(all_splitting_pairs(lat))
        jp = join_primes(lat)
        derived = set()
        for c in bits(jp):
            nd = 0
            for x in range(lat.size):
                if not lat.leq(c, x):
                    nd |= 1 << x
            d = lat.join_all(nd)
            if is_splitting_pair(lat, c, d):
                derived.add((c, d))
        assert brute == derived


def test_splitting_from_cover():
    d = diamond()
    assert splitting_from_cover(d, 0, 1) == (1, 2)
    c3 = lat_chain(3)
    assert splitting_from_cover(c3, 1, 2) == (2, 1)
    for n in range(2, 6):
        lat = lat_chain(n)
        for a, b in lat.covers():
            assert splitting_from_cover(lat, a, b) == (b, a)
    with pytest.raises(NotACover):
        splitting_from_cover(c3, 0, 2)
    with pytest.raises(MissingResidual):
        splitting_from_cover(m3(), 0, 1)


def test_splitting_pairs_sit_on_covers(small_posets):
    for p in small_posets:
        if p.size > 4:
            continue
        lat, _ = up_set_lattice(p)
        for c, d in all_splitting_pairs(lat):
            assert lat.is_cover(lat.meet[c][d], c)
            assert rel_pseudocomplement(lat, c, lat.meet[c][d]) == d
        jp = join_primes(lat)
        for a, b in lat.covers():
            dd = rel_pseudocomplement(lat, b, a)
            if dd is None:
                continue
            cands = [c for c in bits(jp)
                     if lat.leq(c, b) and not lat.leq(c, a)]
            assert len(cands) <= 1
            for c in cands:
                assert is_splitting_pair(lat, c, dd)


def test_intervals():
    lat, _ = up_set_lattice(build_poset(3, [(0, 1), (0, 2)]))
    sub, elems = lat.interval(lat.zero, lat.one)
    assert sub.size == lat.size
    for p in all_posets(4):
        big, _ = up_set_lattice(p)
        for u in range(big.size):
            for v in range(big.size):
                if not big.poset.lt(u, v):
                    continue
                sub, elems = big.interval(u, v)
                back = {k: e for k, e in enumerate(elems)}
                for a, b in sub.covers():
                    assert big.is_cover(back[a], back[b])
                    c2, d2 = splitting_from_cover(sub, a, b)
                    c1, d1 = splitting_from_cover(big, back[a], back[b])
                    assert back[c2] == big.join[c1][u]
                    assert back[d2] == big.meet[d1][v]


def test_lattice_tables_match_oracle():
    # meet, join, zero and one, or the NotALattice message, for every
    # labelled poset of size <= 5
    labelled = {p.relabel(perm) for p in all_posets(5, dedupe=True)
                for perm in itertools.permutations(range(p.size))}
    assert len(labelled) == 1 + 3 + 19 + 219 + 4231
    refused = 0
    for p in labelled:
        try:
            want = oracle_lattice_tables(p)
        except NotALattice as exc:
            with pytest.raises(NotALattice, match=rf"^{re.escape(str(exc))}$"):
                FinLattice(p)
            refused += 1
            continue
        lat = FinLattice(p)
        assert (lat.meet, lat.join, lat.zero, lat.one) == want
    assert 0 < refused < len(labelled)

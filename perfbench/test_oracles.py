"""Small, fast tests of the benchmark's independent checks.

    python3 -m pytest -q perfbench/test_oracles.py

Every expected value here is worked out by hand, so the oracles are
tested without splitbench.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402


def rows(n, pairs):
    return oracles.closure_rows(n, pairs)


CHAIN2 = rows(2, [(0, 1)])
CHAIN3 = rows(3, [(0, 1), (1, 2)])
VEE = rows(3, [(0, 1), (2, 1)])          # two minimal points below 1
ANTI2 = rows(2, [])
CROWN = rows(4, [(0, 2), (0, 3), (1, 2), (1, 3)])


def test_closure_and_comparabilities():
    assert CHAIN3 == [0b111, 0b110, 0b100]
    assert oracles.comparabilities(CHAIN3) == 3
    assert oracles.comparabilities(CROWN) == 4
    assert oracles.down_rows(VEE) == [0b001, 0b111, 0b100]


def test_extremal_points():
    assert oracles.minimal_mask(VEE) == 0b101
    assert oracles.maximal_mask(VEE) == 0b010
    assert oracles.every_point_extremal(CROWN)
    assert not oracles.every_point_extremal(CHAIN3)
    assert oracles.isolated_mask(rows(3, [(0, 1)])) == 0b100


def test_up_set_counts():
    assert len(oracles.up_sets(CHAIN3)) == 4
    assert len(oracles.up_sets(rows(4, []))) == 16
    # up-sets of the vee: {}, {1}, {0,1}, {1,2}, {0,1,2}
    assert oracles.up_sets(VEE) == [0, 0b010, 0b011, 0b110, 0b111]


def test_priestley_congruence_count():
    # Up(2-chain) is the 3-chain 0 < a < 1 as a double p-algebra: a is
    # congruent to neither bound without collapsing everything
    assert oracles.priestley_dp_congruence_count(CHAIN2) == 2
    # a discrete space: every subset qualifies (Up(X) is Boolean)
    assert oracles.priestley_dp_congruence_count(ANTI2) == 4
    # 3-chain: 1 forces 0 and 2, and 0, 2 force each other
    assert oracles.priestley_dp_congruence_count(CHAIN3) == 3


def test_brute_arrow_on_the_three_chain():
    ups = oracles.up_sets(CHAIN2)            # {}, {1}, {0,1}
    assert ups == [0, 0b10, 0b11]
    assert oracles.brute_arrow(ups, 0b11, 0b10) == 0b10
    assert oracles.brute_arrow(ups, 0b10, 0) == 0
    assert oracles.brute_arrow(ups, 0, 0) == 0b11


def test_raw_up_set_ops():
    ops = oracles.RawUpSetOps(CHAIN2)
    assert ops.apply("arrow", 0b11, 0b10) == 0b10
    assert ops.apply("dpc", 0b10) == 0b11    # least W with {1} | W = all
    assert ops.apply("neg", 0b10) == 0
    assert ops.apply("coarrow", 0b11, 0b10) == 0b11


def test_map_kinds_and_counts():
    # order-preserving self-maps of the 2-chain: both constants and the
    # identity; only the identity is an hplus map
    assert oracles.brute_maps(CHAIN2, CHAIN2, "hplus") == [(0, 1)]
    assert oracles.map_kind_flags(CHAIN2, CHAIN2, (1, 0))[0] is False
    # the crown onto the 2-chain: minimal points to 0, maximal to 1
    assert oracles.brute_maps(CROWN, CHAIN2, "hplus",
                              surjective=True) == [(0, 0, 1, 1)]
    # nothing maps a discrete space onto a chain preserving up-sets
    assert oracles.brute_maps(ANTI2, CHAIN2, "hplus", surjective=True) == []


def test_check_homomorphism():
    meet = lambda a, b: min(a, b)             # noqa: E731
    ops = [(meet, meet, 2)]
    assert oracles.check_homomorphism(ops, [(1, 2)], {0: 0, 1: 2})
    assert not oracles.check_homomorphism(ops, [(1, 2)], {0: 2, 1: 2},
                                          injective=True)
    assert not oracles.check_homomorphism(ops, [(1, 1)], {0: 0, 1: 2})


def test_hoop_tables_and_monolith():
    c4 = oracles.hoop(4)
    assert c4.mul[1][2] == 3 and c4.mul[3][0] == 3
    assert c4.arrow(1, 3) == 2               # q -> q^3 = q^2
    assert c4.meet(1, 2) == 2 and c4.join(1, 2) == 1
    assert oracles.coatom_and_monolith_bottom(c4.up, c4.mul, 0) == (1, 3)


def test_truncated_product_size_and_order():
    e, h = oracles.hoop(3), oracles.hoop(3)
    big = oracles.truncated_product(e, 1, h, 1)
    # cones {1,2} x {1,2} plus the shared top
    assert big.size == 2 * 2 + 1
    assert big.one == 4 and big.mul[4][2] == 2
    assert big.mul[0][0] == 3                # (q,q)^2 = (q^2,q^2)


def test_diagram_value_of_an_embedding_is_one():
    c3 = oracles.hoop(3)
    assert oracles.cirl_diagram_value(c3, c3, [0, 1, 2]) == 0
    # q -> q^2 breaks the residual conjunct q -> q^2 = q
    assert oracles.cirl_diagram_value(c3, c3, [0, 2, 2]) == 2


def test_primes_and_splittings():
    assert [m for m in range(20) if oracles.is_prime(m)] == \
        [2, 3, 5, 7, 11, 13, 17, 19]
    # the up-sets of the 2-chain form the 3-chain {} < {1} < {0,1}, which
    # splits exactly at its two covers
    masks = [0, 0b10, 0b11]
    pairs = [(c, d) for c in range(3) for d in range(3)
             if oracles.splits_up_set_lattice(masks, c, d)]
    assert pairs == [(1, 0), (2, 1)]

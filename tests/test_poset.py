import itertools
import random

import pytest

from conftest import (all_posets, antichain, chain, crown4, fence,
                      oracle_covers, oracle_down_mask, oracle_up_mask,
                      oracle_up_sets, vee)
from splitbench.cli import poset_to_json
from splitbench.errors import BadParameter, CycleError, RangeError, SizeError
from splitbench.poset import (DoublePointedPoset, FinPoset, bits, build_poset,
                              canonical_key, closures, enumerate_up_sets,
                              find_tails, is_connected, is_fence,
                              order_isolated, popcount, power_chain,
                              relation_rows, searrow)


def test_build_poset_closure():
    p = build_poset(2, [(0, 1)])
    assert p.leq(0, 1) and not p.leq(1, 0)
    q = build_poset(3, [(0, 1), (1, 2)])
    assert q.leq(0, 2)


def test_build_poset_rejects_cycles_and_bad_indices():
    with pytest.raises(CycleError):
        build_poset(2, [(0, 1), (1, 0)])
    with pytest.raises(RangeError):
        build_poset(2, [(0, 5)])
    with pytest.raises(BadParameter):
        build_poset(0, [])


def test_order_axioms_hold_on_generated_posets():
    for p in all_posets(4):
        for i in range(p.size):
            assert p.leq(i, i)
            for j in range(p.size):
                if i != j and p.leq(i, j):
                    assert not p.leq(j, i)
                for k in range(p.size):
                    if p.leq(i, j) and p.leq(j, k):
                        assert p.leq(i, k)


def test_closures():
    c = chain(2)
    got = closures(c, 0b01)
    assert got.up == 0b11 and got.down == 0b01
    assert closures(c, 0) == (0, 0, 0)
    f = fence(4)
    # updown of the first peak reaches its two valleys but not the far end
    got = closures(f, 0b0010)
    assert got.updown == 0b0111


def test_is_connected():
    assert is_connected(chain(1))
    two_chains = build_poset(4, [(0, 1), (2, 3)])
    assert not is_connected(two_chains)
    for n in range(2, 8):
        assert is_connected(fence(n))
        assert is_connected(fence(n, start_up=False))


def test_order_isolated():
    assert order_isolated(antichain(3)) == 0b111
    assert order_isolated(chain(2)) == 0
    assert order_isolated(chain(1)) == 0b1


def test_find_tails():
    assert set(find_tails(chain(2))) == {("down", 0, 1), ("up", 1, 0)}
    assert len(find_tails(fence(4))) == 2
    assert find_tails(crown4()) == []


def test_is_fence_examples():
    assert is_fence(chain(2))
    assert is_fence(vee())
    assert not is_fence(crown4())
    assert not is_fence(chain(3))
    assert not is_fence(chain(1))


def test_fence_predicate_agreement_small():
    # enumeration-style check vs the tail/branching characterisation
    for p in all_posets(6, connected_only=True):
        char = (p.size >= 2
                and all(popcount(p.up[i]) <= 3 and popcount(p.down[i]) <= 3
                        for i in range(p.size))
                and bool(find_tails(p)))
        assert is_fence(p) == char, repr(p)


def test_enumerate_up_sets_against_subset_filter():
    for p in all_posets(5):
        assert enumerate_up_sets(p) == oracle_up_sets(p)
    assert len(enumerate_up_sets(chain(2))) == 3
    assert len(enumerate_up_sets(antichain(4))) == 16
    assert len(enumerate_up_sets(fence(4))) == 8


def test_enumerate_up_sets_cap():
    with pytest.raises(SizeError):
        enumerate_up_sets(antichain(6), cap=32)


def test_double_pointed_validation():
    c = chain(2)
    dp = DoublePointedPoset(c, 0, 1)
    assert dp.bot_below_top
    with pytest.raises(BadParameter):
        DoublePointedPoset(c, 1, 1)
    with pytest.raises(BadParameter):
        DoublePointedPoset(c, 1, 0)
    f = fence(4)
    assert DoublePointedPoset(f, 0, 1).bot_below_top
    assert not DoublePointedPoset(f, 0, 3).bot_below_top


def test_searrow_two_chains_gives_fence():
    s = DoublePointedPoset(chain(2), 0, 1)
    t = DoublePointedPoset(chain(2), 0, 1)
    g = searrow(s, t)
    assert g.size == 4
    assert is_fence(g.poset)
    assert g.bot == 0 and g.top == 3
    # glue is exactly bot(t) <= top(s)
    assert g.poset.leq(2, 1)


def test_searrow_preserves_operand_orders():
    s = DoublePointedPoset(vee(), 0, 1)
    t = DoublePointedPoset(fence(4), 0, 1)
    g = searrow(s, t)
    left, right = g.parts
    for a in range(s.size):
        for b in range(s.size):
            assert g.poset.leq(left[a], left[b]) == s.poset.leq(a, b)
    for a in range(t.size):
        for b in range(t.size):
            assert g.poset.leq(right[a], right[b]) == t.poset.leq(a, b)
    cross = [(a, b) for a in left for b in right if g.poset.leq(a, b)]
    cross += [(b, a) for a in left for b in right if g.poset.leq(b, a)]
    assert cross == [(right[t.bot], left[s.top])]


def all_double_pointed(max_size):
    out = []
    for p in all_posets(max_size, dedupe=True):
        if p.size < 2:
            continue
        for b in bits(p.minimals()):
            for t in bits(p.maximals()):
                if b != t:
                    out.append(DoublePointedPoset(p, b, t))
    return out


def test_searrow_cross_pairs_exhaustive():
    dps = all_double_pointed(3)
    for s in dps:
        for t in dps:
            g = searrow(s, t)
            left, right = g.parts
            for a in range(s.size):
                for b in range(s.size):
                    assert g.poset.leq(left[a], left[b]) == s.poset.leq(a, b)
            for a in range(t.size):
                for b in range(t.size):
                    assert g.poset.leq(right[a], right[b]) == t.poset.leq(a, b)
            cross = [(a, b) for a in left for b in right
                     if g.poset.leq(a, b) or g.poset.leq(b, a)]
            assert cross == [(left[s.top], right[t.bot])]
            assert g.poset.leq(right[t.bot], left[s.top])


def test_searrow_associative_up_to_canonical_bijection():
    s = DoublePointedPoset(chain(2), 0, 1)
    t = DoublePointedPoset(vee(), 2, 1)
    u = DoublePointedPoset(chain(3), 0, 2)
    left = searrow(searrow(s, t), u)
    right = searrow(s, searrow(t, u))
    assert left.poset == right.poset
    assert (left.bot, left.top) == (right.bot, right.top)


def test_power_chain():
    x = DoublePointedPoset(chain(2), 0, 1)
    one = power_chain(x, 1)
    assert one.poset == x.poset and (one.bot, one.top) == (0, 1)
    two = power_chain(x, 2)
    assert is_fence(two.poset)
    for n in range(1, 5):
        pc = power_chain(x, n)
        assert pc.size == 2 * n
        assert pc.bot == 0 and pc.top == 2 * n - 1
        assert is_connected(pc.poset)
    with pytest.raises(BadParameter):
        power_chain(x, 0)


def test_power_chain_connected_for_connected_base():
    for base in (vee(), fence(4), crown4()):
        mins = base.minimals()
        for b in bits(mins):
            tops = base.up[b] & base.maximals()
            for t in bits(tops):
                if t == b:
                    continue
                x = DoublePointedPoset(base, b, t)
                for n in (2, 3):
                    assert is_connected(power_chain(x, n).poset)
                break
            break


def test_canonical_key_is_isomorphism_invariant():
    import random

    rng = random.Random(11)
    for p in all_posets(5, dedupe=True):
        k = canonical_key(p)
        perm = list(range(p.size))
        rng.shuffle(perm)
        assert canonical_key(p.relabel(perm)) == k


def test_covers_are_the_old_loop_bottom_up():
    # every labelled poset of size <= 4: the old loop's pairs sorted by
    # the size of the upper element's down-set, and poset_to_json's le
    # list in the old loop's order
    labelled = {p.relabel(perm) for p in all_posets(4, dedupe=True)
                for perm in itertools.permutations(range(p.size))}
    assert len(labelled) == 1 + 3 + 19 + 219
    for p in labelled:
        old = oracle_covers(p)
        bottom_up = sorted(old, key=lambda ab: popcount(p.down[ab[1]]))
        assert p.covers() == bottom_up
        assert poset_to_json(p)["le"] == [[a, b] for a, b in old]


def _assert_masks_match_oracle(p, subsets):
    # up_mask, down_mask, closures, is_up_set and is_connected read the
    # per-byte tables; the oracles step through the points one at a time
    for s in subsets:
        up, down = oracle_up_mask(p, s), oracle_down_mask(p, s)
        assert p.up_mask(s) == up, (repr(p), bin(s))
        assert p.down_mask(s) == down, (repr(p), bin(s))
        assert closures(p, s) == (up, down, up | down)
        assert p.is_up_set(s) == all(not (p.up[i] & ~s) for i in bits(s))
    seen = 1
    while True:
        nxt = oracle_up_mask(p, seen) | oracle_down_mask(p, seen)
        if nxt == seen:
            break
        seen = nxt
    assert is_connected(p) == (seen == p.all_mask)


def test_masks_match_oracle_on_every_subset_of_small_posets():
    labelled = {p.relabel(perm) for p in all_posets(4, dedupe=True)
                for perm in itertools.permutations(range(p.size))}
    assert len(labelled) == 242
    for p in labelled:
        _assert_masks_match_oracle(p, range(1 << p.size))


@pytest.mark.parametrize("n", [8, 9, 16, 17, 24])
def test_masks_match_oracle_across_byte_boundaries(n):
    # the byte boundaries and the input cap, plus a 40-element chain: the
    # orders the package builds itself can pass the input cap
    rng = random.Random(n)
    posets = [chain(n), antichain(n), fence(n), fence(n, start_up=False)]
    if n == 24:
        posets.append(FinPoset(relation_rows(40, lambda i, j: i <= j)))
    for p in posets:
        full = p.all_mask
        subsets = [0, full] + [1 << i for i in range(p.size)]
        subsets += [rng.getrandbits(p.size) for _ in range(300)]
        subsets += [full & ~(1 << i) for i in range(p.size)]
        _assert_masks_match_oracle(p, subsets)

"""Finite ordered sets.

Elements are the indices 0..n-1 and subsets are Python ints used as
bitmasks, so all order computations are mask arithmetic.  Input posets
are capped at MAX_POSET_SIZE elements, which keeps the Warshall-style
closure instant.  Orders built inside the package can be larger: the
CIRL lattices of the witness suite reach 89 elements, and up-set
lattices are capped only by their up-set count.
"""

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .errors import BadParameter, CycleError, RangeError, SizeError

MAX_POSET_SIZE = 24
DEFAULT_UPSET_CAP = 1 << 16


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bits of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def relation_rows(n: int, leq) -> list[int]:
    """Row i is the mask of the j < n with leq(i, j)."""
    return [sum(1 << j for j in range(n) if leq(i, j)) for i in range(n)]


def _byte_tables(rows) -> list[list[int]]:
    """For each 8-bit chunk of the carrier, the union of ``rows`` over
    every subset of that chunk, indexed by the subset's byte ("Four
    Russians", Arlazarov, Dinic, Kronrod & Faradzev 1970)."""
    tables = []
    for base in range(0, len(rows), 8):
        chunk = rows[base:base + 8]
        t = [0] * (1 << len(chunk))
        for m in range(1, len(t)):
            low = m & -m
            t[m] = t[m ^ low] | chunk[low.bit_length() - 1]
        tables.append(t)
    return tables


class FinPoset:
    """A finite partial order given by its full relation.

    ``up[i]`` is the mask of elements >= i and ``down[i]`` the mask of
    elements <= i; both include i itself.  ``up_mask`` and ``down_mask``
    read per-byte tables of these rows, built on their first call, and
    raise RangeError on a mask with bits outside the carrier (a negative
    mask included).  The masks of minimal and maximal elements are
    computed once, with the relation; the cover pairs once, on the first
    call of ``covers``.
    """

    __slots__ = ("size", "up", "down", "all_mask", "_up_tables",
                 "_down_tables", "_minimals", "_maximals", "_covers")

    def __init__(self, up_rows):
        up = tuple(up_rows)
        n = len(up)
        if n < 1:
            raise BadParameter("empty poset rejected")
        full = (1 << n) - 1
        down = [0] * n
        for i, row in enumerate(up):
            if row & ~full or not row & (1 << i):
                raise BadParameter(f"malformed relation row for element {i}")
            for j in bits(row):
                down[j] |= 1 << i
        self.size = n
        self.up = up
        self.down = tuple(down)
        self.all_mask = full
        self._up_tables = self._down_tables = self._covers = None
        self._minimals = sum(1 << i for i in range(n) if down[i] == 1 << i)
        self._maximals = sum(1 << i for i in range(n) if up[i] == 1 << i)
        self._check_order()

    def _check_order(self):
        up = self.up
        for i in range(self.size):
            for j in bits(up[i]):
                if i != j and up[j] & (1 << i):
                    raise CycleError(f"{i} <= {j} and {j} <= {i}")
                if up[j] & ~up[i]:
                    raise CycleError(f"transitivity fails at {i} <= {j}")

    # -- basic queries ---------------------------------------------------

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] & (1 << j))

    def lt(self, i: int, j: int) -> bool:
        return i != j and self.leq(i, j)

    def up_mask(self, s: int) -> int:
        if s & ~self.all_mask:
            raise RangeError("subset out of range")
        tables = self._up_tables
        if tables is None:
            tables = self._up_tables = _byte_tables(self.up)
        out = 0
        for t in tables:
            out |= t[s & 0xFF]
            s >>= 8
        return out

    def down_mask(self, s: int) -> int:
        if s & ~self.all_mask:
            raise RangeError("subset out of range")
        tables = self._down_tables
        if tables is None:
            tables = self._down_tables = _byte_tables(self.down)
        out = 0
        for t in tables:
            out |= t[s & 0xFF]
            s >>= 8
        return out

    def minimals(self) -> int:
        return self._minimals

    def maximals(self) -> int:
        return self._maximals

    def covers(self) -> tuple[tuple[int, int], ...]:
        """All pairs (a, b) with a covered by b, bottom up: sorted by the
        size of ``down[b]``, so the pairs below an element come first.
        Computed on the first call and shared, hence a tuple."""
        if self._covers is None:
            out = []
            for a in range(self.size):
                for b in bits(self.up[a] & ~(1 << a)):
                    between = (self.up[a] & self.down[b]
                               & ~(1 << a) & ~(1 << b))
                    if not between:
                        out.append((a, b))
            self._covers = tuple(
                sorted(out, key=lambda ab: popcount(self.down[ab[1]])))
        return self._covers

    def height(self) -> int:
        """Length of a longest chain, counted in covers."""
        best = [0] * self.size
        for a in sorted(range(self.size), key=lambda i: popcount(self.down[i])):
            for b in bits(self.down[a] & ~(1 << a)):
                best[a] = max(best[a], best[b] + 1)
        return max(best)

    def is_up_set(self, s: int) -> bool:
        return not s & ~self.all_mask and self.up_mask(s) == s

    def dual(self) -> "FinPoset":
        return FinPoset(self.down)

    def restrict(self, s: int) -> tuple["FinPoset", list[int]]:
        """Induced sub-order on the elements of s, with the element list."""
        elems = list(bits(s))
        rows = relation_rows(len(elems),
                             lambda i, j: self.leq(elems[i], elems[j]))
        return FinPoset(rows), elems

    def relabel(self, perm) -> "FinPoset":
        """Image under i -> perm[i]."""
        rows = [0] * self.size
        for i in range(self.size):
            row = 0
            for j in bits(self.up[i]):
                row |= 1 << perm[j]
            rows[perm[i]] = row
        return FinPoset(rows)

    def __eq__(self, other):
        return isinstance(other, FinPoset) and self.up == other.up

    def __hash__(self):
        return hash(self.up)

    def __repr__(self):
        rel = [(i, j) for i in range(self.size)
               for j in bits(self.up[i]) if i != j]
        return f"FinPoset({self.size}, {rel})"


def build_poset(size: int, raw_pairs) -> FinPoset:
    """Reflexive-transitive closure of raw_pairs; FinPoset refuses a
    closure that is not antisymmetric."""
    if size < 1:
        raise BadParameter("size must be >= 1")
    if size > MAX_POSET_SIZE:
        raise SizeError(f"poset size {size} exceeds cap {MAX_POSET_SIZE}")
    rows = [1 << i for i in range(size)]
    for i, j in raw_pairs:
        if not (0 <= i < size and 0 <= j < size):
            raise RangeError(f"pair ({i},{j}) out of range for size {size}")
        rows[i] |= 1 << j
    return FinPoset(transitive_closure(rows))


def transitive_closure(rows: list[int]) -> list[int]:
    """Warshall's closure of relation rows, in place and uncapped."""
    n = len(rows)
    for k in range(n):
        kbit = 1 << k
        for i in range(n):
            if rows[i] & kbit:
                rows[i] |= rows[k]
    return rows


class Closures(NamedTuple):
    up: int
    down: int
    updown: int


def closures(p: FinPoset, s: int) -> Closures:
    """Up-, down- and convex closure masks of the subset s."""
    u = p.up_mask(s)
    d = p.down_mask(s)
    return Closures(u, d, u | d)


def is_connected(p: FinPoset) -> bool:
    """True iff iterating updown-closure from one element reaches all."""
    seen = 1
    while True:
        nxt = p.up_mask(seen) | p.down_mask(seen)
        if nxt == seen:
            return seen == p.all_mask
        seen = nxt


def order_isolated(p: FinPoset) -> int:
    """Mask of elements that are both minimal and maximal."""
    return p.minimals() & p.maximals()


def find_tails(p: FinPoset) -> list[tuple[str, int, int]]:
    """All tails (kind, t1, t2).

    (t1, t2) is an up-tail when t1 is maximal and its down-set is exactly
    {t1, t2}; a down-tail is the dual.
    """
    out = []
    maxs = p.maximals()
    mins = p.minimals()
    for t1 in range(p.size):
        rest_down = p.down[t1] & ~(1 << t1)
        if maxs & (1 << t1) and popcount(rest_down) == 1:
            out.append(("up", t1, rest_down.bit_length() - 1))
        rest_up = p.up[t1] & ~(1 << t1)
        if mins & (1 << t1) and popcount(rest_up) == 1:
            out.append(("down", t1, rest_up.bit_length() - 1))
    return out


def is_fence(p: FinPoset) -> bool:
    """True iff some enumeration of p is an alternating zigzag.

    Elements of a zigzag are comparable exactly to their enumeration
    neighbours, so the comparability graph must be a simple path; the
    alternation is then forced by transitivity.
    """
    n = p.size
    if n < 2 or not is_connected(p):
        return False
    adj = [(p.up[i] | p.down[i]) & ~(1 << i) for i in range(n)]
    degs = [popcount(a) for a in adj]
    ends = [i for i in range(n) if degs[i] == 1]
    if len(ends) != 2 or any(d > 2 for d in degs):
        return False
    # walk the path and confirm it visits everything
    prev, cur = -1, ends[0]
    for _ in range(n - 1):
        nxts = [j for j in bits(adj[cur]) if j != prev]
        if len(nxts) != 1:
            return False
        prev, cur = cur, nxts[0]
    return cur == ends[1]


def enumerate_up_sets(p: FinPoset, cap: int = DEFAULT_UPSET_CAP) -> list[int]:
    """All up-sets of p in ascending bitmask order."""
    if 1 << p.size > cap:
        raise SizeError(f"2^{p.size} up-set candidates exceed cap {cap}")
    up_mask = p.up_mask
    return [s for s in range(1 << p.size) if up_mask(s) == s]


@dataclass(frozen=True)
class DoublePointedPoset:
    """A finite ordered set with chosen minimal bot and maximal top.

    ``parts`` records index blocks of the operands when the value was
    produced by searrow/power_chain, so callers can pull elements back.
    """

    poset: FinPoset
    bot: int
    top: int
    parts: tuple[tuple[int, ...], ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        p = self.poset
        if not (0 <= self.bot < p.size and 0 <= self.top < p.size):
            raise RangeError("bot/top out of range")
        if self.bot == self.top:
            raise BadParameter("bot and top must differ")
        if not p.minimals() & (1 << self.bot):
            raise BadParameter("bot is not minimal")
        if not p.maximals() & (1 << self.top):
            raise BadParameter("top is not maximal")

    @property
    def bot_below_top(self) -> bool:
        return self.poset.leq(self.bot, self.top)

    @property
    def size(self) -> int:
        return self.poset.size


def searrow(s: DoublePointedPoset, t: DoublePointedPoset) -> DoublePointedPoset:
    """Glue s and t by the single new relation bot(t) <= top(s).

    t is relabelled by offset |s|; bot of the result is bot(s) and top is
    top(t).
    """
    ns, nt = s.size, t.size
    pairs = []
    for i in range(ns):
        for j in bits(s.poset.up[i]):
            pairs.append((i, j))
    for i in range(nt):
        for j in bits(t.poset.up[i]):
            pairs.append((ns + i, ns + j))
    pairs.append((ns + t.bot, s.top))
    glued = build_poset(ns + nt, pairs)
    return DoublePointedPoset(
        glued, s.bot, ns + t.top,
        parts=(tuple(range(ns)), tuple(range(ns, ns + nt))))


def power_chain(x: DoublePointedPoset, n: int) -> DoublePointedPoset:
    """n offset copies of x glued in sequence by searrow."""
    if n < 1:
        raise BadParameter("n must be >= 1")
    acc = DoublePointedPoset(x.poset, x.bot, x.top,
                             parts=(tuple(range(x.size)),))
    for _ in range(n - 1):
        prev_parts = acc.parts
        acc = searrow(acc, x)
        left, right = acc.parts
        acc = DoublePointedPoset(acc.poset, acc.bot, acc.top,
                                 parts=prev_parts + (right,))
    return acc


# -- exhaustive generation (used by the verification suites) -------------

def enumerate_posets(size: int) -> Iterator[FinPoset]:
    """All naturally labelled posets on 0..size-1.

    Natural labelling means i < j in the order implies i < j as integers;
    every finite poset is isomorphic to at least one of these.
    """
    if size < 1:
        return

    def down_closed_subsets(k: int, down: list[int]) -> Iterator[int]:
        for m in range(1 << k):
            if all(not (down[i] & ~m & ((1 << k) - 1)) for i in bits(m)):
                yield m

    def rec(k: int, up: list[int], down: list[int]) -> Iterator[FinPoset]:
        if k == size:
            yield FinPoset(tuple(up))
            return
        for m in down_closed_subsets(k, down):
            up2 = list(up)
            for i in bits(m):
                up2[i] |= 1 << k
            up2.append(1 << k)
            down2 = down + [m | (1 << k)]
            yield from rec(k + 1, up2, down2)

    yield from rec(0, [], [])


def canonical_key(p: FinPoset) -> tuple:
    """Isomorphism-invariant canonical form (minimum over relabellings).

    Relabellings are pruned to those matching the (|down|, |up|) profile,
    which keeps the search tame for the sizes used here.
    """
    n = p.size
    profile = [(popcount(p.down[i]), popcount(p.up[i])) for i in range(n)]
    # canonical labels are blocked by sorted profile, which is intrinsic
    ordering = sorted(range(n), key=lambda i: profile[i])
    slot_of = {}
    for rank, i in enumerate(ordering):
        slot_of.setdefault(profile[i], []).append(rank)
    best = None

    def rec(i: int, perm: list[int], used: int):
        nonlocal best
        if i == n:
            key = [0] * n
            for src in range(n):
                row = 0
                for j in bits(p.up[src]):
                    row |= 1 << perm[j]
                key[perm[src]] = row
            key_t = tuple(key)
            if best is None or key_t < best:
                best = key_t
            return
        for tgt in slot_of[profile[i]]:
            if not used & (1 << tgt):
                perm[i] = tgt
                rec(i + 1, perm, used | (1 << tgt))
        return

    rec(0, [0] * n, 0)
    return (n, best)

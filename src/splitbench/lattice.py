"""Finite bounded lattices and splitting-pair machinery.

Meets and joins are derived from the order once at construction; the
splitting operations then work purely on the tables.
"""

from .errors import MissingResidual, NotACover, NotALattice
from .poset import (DEFAULT_UPSET_CAP, FinPoset, bits, enumerate_up_sets,
                    popcount, relation_rows)


class FinLattice:
    """A finite lattice on a FinPoset, with meet/join tables."""

    __slots__ = ("poset", "meet", "join", "zero", "one", "_distributive")

    def __init__(self, poset: FinPoset):
        # a mask has a maximum m iff it is down[m], and a minimum m iff it
        # is up[m], so meets and joins are dict lookups of masks
        down, up = poset.down, poset.up
        max_of = {row: m for m, row in enumerate(down)}.get
        min_of = {row: m for m, row in enumerate(up)}.get
        meet, join = [], []
        for i in range(poset.size):
            di, ui = down[i], up[i]
            mrow = [max_of(di & d) for d in down]
            jrow = [min_of(ui & u) for u in up]
            if None in mrow or None in jrow:
                # each pair (i, j) with j < i passed as (j, i) in row j
                j = next(j for j in range(i, poset.size)
                         if mrow[j] is None or jrow[j] is None)
                op = "meet" if mrow[j] is None else "join"
                raise NotALattice(f"no {op} for ({i},{j})")
            meet.append(mrow)
            join.append(jrow)
        self.poset = poset
        self.meet = meet
        self.join = join
        self.zero = min_of(poset.all_mask)
        self.one = max_of(poset.all_mask)
        self._distributive = ...    # not yet checked

    @property
    def size(self) -> int:
        return self.poset.size

    def leq(self, i: int, j: int) -> bool:
        return self.poset.leq(i, j)

    def join_all(self, mask: int) -> int:
        out = self.zero
        for i in bits(mask):
            out = self.join[out][i]
        return out

    def meet_all(self, mask: int) -> int:
        out = self.one
        for i in bits(mask):
            out = self.meet[out][i]
        return out

    def is_distributive(self) -> bool:
        return self.distributive_failure() is None

    def distributive_failure(self) -> tuple[int, int, int] | None:
        """The first (x, y, z) with x & (y | z) != (x & y) | (x & z).

        The O(n^3) scan runs once per lattice; its answer is kept.
        """
        if self._distributive is ...:
            self._distributive = self._scan_distributive()
        return self._distributive

    def _scan_distributive(self) -> tuple[int, int, int] | None:
        n = self.size
        meet, join = self.meet, self.join
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]:
                        return x, y, z
        return None

    def covers(self) -> tuple[tuple[int, int], ...]:
        return self.poset.covers()

    def is_cover(self, a: int, b: int) -> bool:
        if not self.poset.lt(a, b):
            return False
        between = self.poset.up[a] & self.poset.down[b]
        return popcount(between) == 2

    def interval(self, u: int, v: int) -> tuple["FinLattice", list[int]]:
        """The lattice on [u, v], with the element map back to self."""
        if not self.leq(u, v):
            raise NotACover(f"[{u},{v}] is not an interval")
        mask = self.poset.up[u] & self.poset.down[v]
        sub, elems = self.poset.restrict(mask)
        return FinLattice(sub), elems

    def __repr__(self):
        return f"FinLattice(size={self.size})"


def _unique_extremum(poset: FinPoset, mask: int, want_max: bool):
    """The maximum (or minimum) of the masked subset, if it exists."""
    rows = poset.down if want_max else poset.up
    for i in bits(mask):
        if not (mask & ~rows[i]):
            # every member of mask is below i (resp. above i)
            return i
    return None


def rel_pseudocomplement(lat: FinLattice, b: int, a: int):
    """max{y | y meet b = a meet b}, or None when the set has no maximum."""
    target = lat.meet[a][b]
    cands = 0
    for y in range(lat.size):
        if lat.meet[y][b] == target:
            cands |= 1 << y
    return _unique_extremum(lat.poset, cands, want_max=True)


def dual_rel_pseudocomplement(lat: FinLattice, b: int, a: int):
    """min{y | a join y = a join b}, or None when the set has no minimum."""
    target = lat.join[a][b]
    cands = 0
    for y in range(lat.size):
        if lat.join[a][y] == target:
            cands |= 1 << y
    return _unique_extremum(lat.poset, cands, want_max=False)


def is_splitting_pair(lat: FinLattice, c: int, d: int) -> bool:
    """True iff the lattice is the disjoint union of up(c) and down(d)."""
    up_c = lat.poset.up[c]
    down_d = lat.poset.down[d]
    return (up_c | down_d) == lat.poset.all_mask and not (up_c & down_d)


def join_primes(lat: FinLattice) -> int:
    """Mask of nonzero p with p <= x|y implying p <= x or p <= y."""
    out = 0
    n = lat.size
    for p in range(n):
        if p == lat.zero:
            continue
        ok = True
        for x in range(n):
            for y in range(x, n):
                if lat.leq(p, lat.join[x][y]) and \
                        not lat.leq(p, x) and not lat.leq(p, y):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out |= 1 << p
    return out


def all_splitting_pairs(lat: FinLattice) -> list[tuple[int, int]]:
    """Every splitting pair, by brute force over all pairs."""
    out = []
    for c in range(lat.size):
        for d in range(lat.size):
            if is_splitting_pair(lat, c, d):
                out.append((c, d))
    return out


def splitting_from_cover(lat: FinLattice, a: int, b: int) -> tuple[int, int]:
    """(b dual-residual a, b residual a) for a covered by b.

    The pair splits the lattice, with b above its first and a below its
    second component.
    """
    if not lat.is_cover(a, b):
        raise NotACover(f"{a} is not covered by {b}")
    c = dual_rel_pseudocomplement(lat, b, a)
    d = rel_pseudocomplement(lat, b, a)
    if c is None or d is None:
        raise MissingResidual(f"residuals absent for cover ({a},{b})")
    return c, d


def up_set_lattice(p: FinPoset, cap: int = DEFAULT_UPSET_CAP
                   ) -> tuple[FinLattice, list[int]]:
    """The lattice of up-sets of p, with the mask of each element."""
    masks = enumerate_up_sets(p, cap)
    rows = relation_rows(len(masks), lambda i, j: not masks[i] & ~masks[j])
    return FinLattice(FinPoset(rows)), masks

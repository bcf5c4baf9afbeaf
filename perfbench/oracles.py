"""Independent computations that the benchmark checks splitbench against.

Nothing here calls splitbench.  Orders arrive as their raw relation: a
list ``up`` of bitmask rows, bit j of ``up[i]`` set iff i <= j.  Finite
algebras arrive as plain operation tables.  Each function is the
slowest obvious way to get its answer, so that a fast path in the
program cannot share a mistake with it.
"""

import itertools


def leq(up, i, j):
    return bool(up[i] >> j & 1)


def down_rows(up):
    n = len(up)
    return [sum(1 << i for i in range(n) if leq(up, i, j)) for j in range(n)]


def minimal_mask(up):
    n = len(up)
    return sum(1 << j for j in range(n)
               if not any(i != j and leq(up, i, j) for i in range(n)))


def maximal_mask(up):
    n = len(up)
    return sum(1 << i for i in range(n)
               if not any(i != j and leq(up, i, j) for j in range(n)))


def comparabilities(up):
    """Number of pairs i < j in the order."""
    n = len(up)
    return sum(1 for i in range(n) for j in range(n)
               if i != j and leq(up, i, j))


def closure_rows(n, pairs):
    """Rows of the reflexive-transitive closure of pairs, by fixpoint."""
    rel = {(i, i) for i in range(n)} | {tuple(p) for p in pairs}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return [sum(1 << j for j in range(n) if (i, j) in rel) for i in range(n)]


def is_up_set(up, s):
    n = len(up)
    return all(not (s >> i & 1) or all(s >> j & 1 for j in range(n)
                                         if leq(up, i, j))
               for i in range(n))


def up_sets(up):
    """Every up-set, by filtering all subsets."""
    return [s for s in range(1 << len(up)) if is_up_set(up, s)]


def every_point_extremal(up):
    """True iff every element is minimal or maximal (height <= 1)."""
    return (minimal_mask(up) | maximal_mask(up)) == (1 << len(up)) - 1


def isolated_mask(up):
    """Elements that are both minimal and maximal."""
    return minimal_mask(up) & maximal_mask(up)


def priestley_dp_congruence_count(up):
    """Subsets Y with min(down y) and max(up y) inside Y for every y in Y.

    In the finite dual of a double p-algebra these subsets are exactly
    the congruences (Priestley 1975), so their number is the number of
    congruences of Up(X) as a double p-algebra.
    """
    n = len(up)
    down = down_rows(up)
    mins, maxs = minimal_mask(up), maximal_mask(up)
    need = [(down[y] & mins) | (up[y] & maxs) for y in range(n)]
    return sum(1 for s in range(1 << n)
               if all(not (s >> y & 1) or not (need[y] & ~s)
                      for y in range(n)))


def brute_arrow(ups, u, v):
    """Union of all up-sets W with W & u inside v."""
    out = 0
    for w in ups:
        if not (w & u & ~v):
            out |= w
    return out


# -- up-set algebras from the raw relation ----------------------------------


class RawUpSetOps:
    """Operations of Up(X), each recomputed from the relation rows."""

    def __init__(self, up):
        self.up = list(up)
        self.down = down_rows(up)
        self.one = (1 << len(up)) - 1

    def _upc(self, s):
        out = 0
        for i in range(len(self.up)):
            if s >> i & 1:
                out |= self.up[i]
        return out

    def _downc(self, s):
        out = 0
        for i in range(len(self.up)):
            if s >> i & 1:
                out |= self.down[i]
        return out

    def apply(self, name, *args):
        if name == "meet":
            return args[0] & args[1]
        if name == "join":
            return args[0] | args[1]
        if name == "arrow":
            return self.one & ~self._downc(args[0] & ~args[1])
        if name == "coarrow":
            return self._upc(args[0] & ~args[1])
        if name == "dpc":
            return self._upc(self.one & ~args[0])
        if name == "neg":
            return self.one & ~self._downc(args[0])
        raise KeyError(name)


# -- maps between ordered sets ------------------------------------------------


def _image(f, s):
    out = 0
    for i, v in enumerate(f):
        if s >> i & 1:
            out |= 1 << v
    return out


def map_kind_flags(x_up, y_up, f):
    """(order preserving, M1, M2, M3) of f, from the raw relations.

    M1: f maps every principal up-set onto a principal up-set; M2 is the
    dual; M3: f maps the minimal elements below x onto those below f(x).
    """
    n = len(x_up)
    x_down, y_down = down_rows(x_up), down_rows(y_up)
    order = all(leq(y_up, f[i], f[j]) for i in range(n) for j in range(n)
                if leq(x_up, i, j))
    m1 = order and all(_image(f, x_up[i]) == y_up[f[i]] for i in range(n))
    m2 = order and all(_image(f, x_down[i]) == y_down[f[i]]
                       for i in range(n))
    xmin, ymin = minimal_mask(x_up), minimal_mask(y_up)
    m3 = all(_image(f, x_down[i] & xmin) == y_down[f[i]] & ymin
             for i in range(n))
    return order, m1, m2, m3


def map_is_kind(x_up, y_up, f, kind):
    order, m1, m2, m3 = map_kind_flags(x_up, y_up, f)
    if kind == "heyting":
        return m1
    if kind == "hplus":
        return m1 and m3
    if kind == "dh":
        return m1 and m2
    raise KeyError(kind)


def brute_maps(x_up, y_up, kind, surjective=False):
    """Every map of the kind, by trying all |Y|^|X| functions."""
    n, m = len(x_up), len(y_up)
    out = []
    for f in itertools.product(range(m), repeat=n):
        if surjective and len(set(f)) != m:
            continue
        if map_is_kind(x_up, y_up, f, kind):
            out.append(f)
    return out


# -- table algebras -----------------------------------------------------------


def check_homomorphism(ops, consts, f, injective=True):
    """Entry-by-entry check that the map f preserves every operation.

    ``ops`` lists (source op, target op, arity) triples, ``consts``
    (source constant, target constant) pairs; ``f`` is a dict from every
    source element to its image.
    """
    if injective and len(set(f.values())) != len(f):
        return False
    if any(f[a] != b for a, b in consts):
        return False
    elems = list(f)
    for src, dst, arity in ops:
        for args in itertools.product(elems, repeat=arity):
            if f[src(*args)] != dst(*[f[a] for a in args]):
                return False
    return True


def hoop(n):
    """C_n: element k is the k-th power of the coatom, exponents clip."""
    up = [sum(1 << j for j in range(k + 1)) for k in range(n)]
    mul = [[min(n - 1, a + b) for b in range(n)] for a in range(n)]
    return TableCIRL(up, mul, 0)


def is_prime(m):
    return m >= 2 and all(m % d for d in range(2, m))


def coatom_and_monolith_bottom(up, mul, one):
    """The unique coatom c and c^k for the least k with c^(k+1) = c^k.

    In a finite SI CIRL every nontrivial congruence filter contains the
    coatom, so the monolith is the filter c generates, which is
    up(c^k) with c^k idempotent.
    """
    n = len(up)
    below_one = [x for x in range(n) if x != one]
    tops = [c for c in below_one if all(leq(up, x, c) for x in below_one)]
    if len(tops) != 1:
        return None, None
    c = tops[0]
    cur = c
    while mul[cur][c] != cur:
        cur = mul[cur][c]
    return c, cur


def _max_of(down, mask):
    """The largest member of mask, or None."""
    z = mask
    while z:
        low = z & -z
        k = low.bit_length() - 1
        if not (mask & ~down[k]):
            return k
        z ^= low
    return None


class TableCIRL:
    """A CIRL given by its order rows and multiplication table.

    Meet, join and residual are found on demand as the largest (or
    least) element of the set that defines them, so a large target costs
    only the entries a check reads.
    """

    def __init__(self, up, mul, one):
        self.up = up
        self.down = down_rows(up)
        self.mul = mul
        self.one = one
        self.size = len(up)

    def leq(self, x, y):
        return bool(self.up[x] >> y & 1)

    def meet(self, x, y):
        return _max_of(self.down, self.down[x] & self.down[y])

    def join(self, x, y):
        return _max_of(self.up, self.up[x] & self.up[y])

    def mult(self, x, y):
        return self.mul[x][y]

    def arrow(self, x, y):
        row = self.mul[x]
        cands = sum(1 << z for z in range(self.size) if self.leq(row[z], y))
        return _max_of(self.down, cands)


def truncated_product(e, c, h, q):
    """The cones below c in e and below q in h, plus a shared top.

    Elements are listed as the program labels them: pairs (x, y) with x
    and y ascending, then the top; the product is taken pairwise.
    """
    cone_e = [x for x in range(e.size) if e.leq(x, c)]
    cone_h = [y for y in range(h.size) if h.leq(y, q)]
    elems = [(x, y) for x in cone_e for y in cone_h] + [(e.one, h.one)]
    index = {p: k for k, p in enumerate(elems)}
    n = len(elems)
    top = n - 1
    up = [sum(1 << j for j, (y, v) in enumerate(elems)
              if e.leq(x, y) and h.leq(u, v))
          for x, u in elems]
    mul = [[j if i == top else i if j == top
            else index[(e.mul[x][y], h.mul[u][v])]
            for j, (y, v) in enumerate(elems)]
           for i, (x, u) in enumerate(elems)]
    return TableCIRL(up, mul, top)


def cirl_diagram_value(src, dst, values):
    """Fold the diagram of src over dst under an assignment.

    Each conjunct compares the image of one table entry of src with the
    value of the operation on the images; the result is their meet,
    iff being (x -> y) & (y -> x) & 1.
    """
    def iff(x, y):
        return dst.meet(dst.meet(dst.arrow(x, y), dst.arrow(y, x)), dst.one)

    out = iff(values[src.one], dst.one)
    for op in ("meet", "join", "mult", "arrow"):
        s_op, d_op = getattr(src, op), getattr(dst, op)
        for x in range(src.size):
            for y in range(src.size):
                out = dst.meet(out, iff(values[s_op(x, y)],
                                        d_op(values[x], values[y])))
    return out


def splits_up_set_lattice(masks, c, d):
    """up(c) and down(d) partition the lattice of the up-sets ``masks``,
    ordered by inclusion."""
    up_c = {x for x, m in enumerate(masks) if not (masks[c] & ~m)}
    down_d = {x for x, m in enumerate(masks) if not (m & ~masks[d])}
    return not (up_c & down_d) and len(up_c | down_d) == len(masks)

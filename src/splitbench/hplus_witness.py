"""Distortion constructions on the dual side.

Everything here lives on carriers of the form S glued above T (written
S searrow T): comparison terms between the inner and outer operations,
the copy-union homomorphism, and the fence choices that make the glued
carrier avoid mapping onto a given space.
"""

from dataclasses import dataclass

from .diagram import (HPLUS, Assignment, build_diagram, eval_diagram,
                      get_signature)
from .duality import (MORPHISM_BUDGET, UpSetAlgebra, never_maps_onto,
                      up_set_algebra)
from .errors import AxiomError, BadParameter
from .poset import (DoublePointedPoset, FinPoset, bits, build_poset,
                    find_tails, is_connected, is_fence, popcount, power_chain,
                    searrow)


def _parts_masks(glued: DoublePointedPoset) -> tuple[int, int]:
    if not glued.parts or len(glued.parts) < 2:
        raise BadParameter("glued poset lacks part information")
    left = 0
    for i in glued.parts[0]:
        left |= 1 << i
    right = 0
    for block in glued.parts[1:]:
        for i in block:
            right |= 1 << i
    return left, right


def _comparison(glued: DoublePointedPoset, u: int, v: int,
                last: str) -> tuple[int, int, int]:
    """Meet of the iffs comparing the operations of the left part's up-set
    algebra with the glued carrier's on u and v: meet, join, arrow, then
    ``last``, the coarrow or the dual pseudocomplement of u.

    Returns the value, the left mask and the inner value of ``last``.
    Up-closures of left subsets stay left; down-closures are clipped.
    """
    alg = UpSetAlgebra(glued.poset)
    p = alg.base
    left, _ = _parts_masks(glued)
    for m in (u, v):
        if m & ~left:
            raise BadParameter("operand is not contained in the left part")
        if not p.is_up_set(m):
            raise BadParameter("operand is not an up-set of the carrier")
    pairs = [(u & v, alg.meet(u, v)), (u | v, alg.join(u, v)),
             (left & ~p.down_mask(u & ~v), alg.arrow(u, v))]
    if last == "coarrow":
        pairs.append((p.up_mask(u & ~v), alg.coarrow(u, v)))
    else:
        pairs.append((p.up_mask(left & ~u), alg.dpc(u)))
    out = alg.one
    for inner, outer in pairs:
        out = alg.meet(out, HPLUS.iff(alg, inner, outer))
    return out, left, pairs[-1][0]


def chi(glued: DoublePointedPoset, u: int, v: int) -> int:
    """Conjunction comparing the four inner lattice-and-residual values
    with the outer ones; always the whole left part."""
    out, left, _ = _comparison(glued, u, v, "coarrow")
    if out != left:
        raise AxiomError("comparison term did not evaluate to the left part")
    return out


def chi_plus(glued: DoublePointedPoset, u: int, v: int) -> int:
    """Like chi but comparing the dual pseudocomplements; the value is the
    whole left part when its top survives the inner dual pseudocomplement
    of u, and loses the top's cone otherwise."""
    out, left, inner_dpc = _comparison(glued, u, v, "dpc")
    top_left = _left_top(glued)
    expected = left if inner_dpc & (1 << top_left) \
        else left & ~glued.poset.down_mask(1 << top_left)
    if out != expected:
        raise AxiomError("case split of the dual-pseudocomplement "
                         "comparison failed")
    return out


def _left_top(glued: DoublePointedPoset) -> int:
    """The distinguished top of the left operand of the glue."""
    # the glue relation is bot(right block) <= that top
    right_bot = None
    left, right = _parts_masks(glued)
    for i in bits(right):
        above = glued.poset.up[i] & left
        if above:
            right_bot = i
            break
    if right_bot is None:
        raise BadParameter("no glue relation found")
    tops = glued.poset.up[right_bot] & left
    if popcount(tops) != 1:
        raise BadParameter("glue relation is not a single pair")
    return tops.bit_length() - 1


@dataclass
class WitnessAlgebra:
    """Up-set algebra over n+2 chained copies of x with y glued below."""

    x: DoublePointedPoset
    y: DoublePointedPoset
    n: int
    z: DoublePointedPoset
    carrier: DoublePointedPoset
    algebra: UpSetAlgebra
    copies: tuple
    left_mask: int


def build_witness_algebra(x: DoublePointedPoset, y, n: int) -> WitnessAlgebra:
    """The witness over n+2 chained copies of x with y glued below.

    x and y are checked connected here.  The carrier is then connected
    by construction and is not checked again: ``searrow`` joins two
    connected posets by one new relation, and ``power_chain`` glues
    connected copies of x with it.
    """
    if not x.bot_below_top:
        raise BadParameter("x must have bot below top for copy unions")
    if not is_connected(x.poset):
        raise BadParameter("x must be connected")
    ydp = y.poset if isinstance(y, FenceChoice) else y
    if not is_connected(ydp.poset):
        raise BadParameter("y must be connected")
    z = power_chain(x, n + 2)
    carrier = searrow(
        DoublePointedPoset(z.poset, z.bot, z.top, parts=None), ydp)
    left, _ = _parts_masks(carrier)
    return WitnessAlgebra(x, ydp, n, z, carrier, UpSetAlgebra(carrier.poset),
                          z.parts, left)


def copy_union(copies, a: int) -> int:
    """Union of the images of a under the given copy index blocks."""
    out = 0
    for copy in copies:
        for e in bits(a):
            out |= 1 << copy[e]
    return out


def u_map(w: WitnessAlgebra, a: int) -> int:
    """Union of the copies of an up-set of x across all chained copies.

    As a map into the up-set algebra of the chained copies (not of the
    glued carrier) this preserves all the operations.
    """
    if not w.x.bot_below_top:
        raise BadParameter("copy union needs bot below top in x")
    if not w.x.poset.is_up_set(a):
        raise BadParameter("argument is not an up-set of x")
    return copy_union(w.copies, a)


def diagram_final_check(w: WitnessAlgebra, sig,
                        source: UpSetAlgebra | None = None) -> int:
    """Evaluate the diagram of Up(x) under the copy-union assignment.

    Asserts the closed forms of the diagram value (the whole copy block
    for the coarrow signature, the block minus the cone of its top for
    the dual-pseudocomplement one) and returns the n-fold delta of the
    value, which must be nonempty.  ``source`` is Up(x), an up-set algebra
    over ``w.x.poset``, built here when None; a caller that holds it
    passes it, and its compiled diagram and pseudocomplement memos then
    serve every witness built over the same x.
    """
    sig = get_signature(sig)
    if sig.tag not in ("hplus", "dheyting"):
        raise BadParameter("signature must be hplus or dheyting")
    if source is None:
        source = up_set_algebra(w.x.poset)
    diagram = build_diagram(source, sig)
    values = tuple(u_map(w, a) for a in diagram.variables)
    big = w.algebra
    value = eval_diagram(diagram, Assignment(big, values))
    z_top_mask = 1 << w.z.top
    if sig.tag == "dheyting":
        expected = w.left_mask
    else:
        expected = w.left_mask & ~big.base.down_mask(z_top_mask)
    if value != expected:
        raise AxiomError(
            f"closed form of the diagram value failed: got {value:b}, "
            f"expected {expected:b}")
    penult = copy_union(w.copies[:-1], w.x.poset.all_mask)
    if penult & ~value:
        raise AxiomError("first n+1 copies do not sit inside the value")
    out = value
    for _ in range(w.n):
        out = sig.delta(big, out)
    if out == 0:
        raise AxiomError("delta power of the diagram value vanished")
    return out


@dataclass(frozen=True)
class FenceChoice:
    poset: DoublePointedPoset
    case: str


def make_fence(size: int, start_up: bool = True) -> FinPoset:
    """The zigzag on 0..size-1; start_up picks 0 < 1 as the first step."""
    if size < 2:
        raise BadParameter("fences have at least two elements")
    pairs = []
    for k in range(size - 1):
        if (k % 2 == 0) == start_up:
            pairs.append((k, k + 1))
        else:
            pairs.append((k + 1, k))
    return build_poset(size, pairs)


def fence_for_target(x: DoublePointedPoset) -> FenceChoice:
    """A double-pointed fence whose glued chains never map onto x.

    The fence's shape depends on which tails x has; each branch records
    its case.  The two-element chain is refused since its up-set algebra
    is the three-element splitting algebra.
    """
    p = x.poset
    n = p.size
    if n < 2:
        raise BadParameter("target must have at least two elements")
    if is_fence(p):
        tails = find_tails(p)
        kinds = {k for k, _, _ in tails}
        if n == 2:
            raise BadParameter("two-element chain target is exempt: its "
                               "up-set algebra splits")
        if kinds == {"down", "up"}:
            f = make_fence(n + 1, start_up=False)
            return FenceChoice(DoublePointedPoset(f, 1, 0), "both-tails")
        if kinds == {"down"}:
            f = make_fence(n + 1, start_up=True)
            return FenceChoice(DoublePointedPoset(f, 0, 1), "only-down-tails")
        if kinds == {"up"}:
            f = make_fence(n + 2, start_up=True)
            return FenceChoice(DoublePointedPoset(f, 0, 1), "only-up-tails")
        raise BadParameter("fence with unexpected tail pattern")
    f = make_fence(n + 1, start_up=True)
    return FenceChoice(DoublePointedPoset(f, 0, 1), "not-a-fence")


def never_maps_onto_check(x: DoublePointedPoset, fence, i: int,
                          budget: int = MORPHISM_BUDGET) -> bool:
    """No surjection of the glued chain onto x exists."""
    if i < 1:
        raise BadParameter("at least one copy of x is needed")
    fdp = fence.poset if isinstance(fence, FenceChoice) else fence
    glued = searrow(power_chain(x, i), fdp)
    return never_maps_onto(glued.poset, x.poset, budget=budget)

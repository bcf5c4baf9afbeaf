"""Finite filtration: quotient a dual space by indistinguishability
under a chosen family of up-sets."""

from dataclasses import dataclass

from .duality import UpSetAlgebra
from .errors import NotAnUpSet, PreconditionError
from .poset import FinPoset, bits, transitive_closure


@dataclass
class Filtrate:
    source: FinPoset
    family: list[int]
    class_of: list[int]          # source element -> class index
    classes: list[int]           # class index -> mask of source elements
    quotient: FinPoset
    algebra: UpSetAlgebra

    def phi(self, u: int) -> int:
        """Image of a source up-set as a set of classes."""
        out = 0
        for e in bits(u):
            out |= 1 << self.class_of[e]
        return out


def filtrate(x: FinPoset, family) -> Filtrate:
    """Collapse points no member of the family separates.

    The quotient order is the transitive closure of the pointwise
    comparison of classes.  FinPoset asserts its antisymmetry, which
    holds because separated classes have distinct membership vectors.
    """
    family = list(family)
    for u in family:
        if not x.is_up_set(u):
            raise NotAnUpSet(f"{u:b}")
    sig_of = {}
    class_of = [0] * x.size
    classes = []
    for e in range(x.size):
        sig = tuple(bool(u & (1 << e)) for u in family)
        if sig not in sig_of:
            sig_of[sig] = len(classes)
            classes.append(0)
        k = sig_of[sig]
        class_of[e] = k
        classes[k] |= 1 << e
    n = len(classes)
    rows = [1 << k for k in range(n)]
    for a in range(x.size):
        for b in bits(x.up[a]):
            rows[class_of[a]] |= 1 << class_of[b]
    q = FinPoset(transitive_closure(rows))
    return Filtrate(x, family, class_of, classes, q, UpSetAlgebra(q))


def close_under_dpc(alg: UpSetAlgebra, family) -> list[int]:
    """Add the dual pseudocomplements and their doubles; idempotent since
    the triple dual pseudocomplement collapses."""
    out = []
    seen = set()
    for u in list(family):
        for v in (u, alg.dpc(u), alg.dpc(alg.dpc(u))):
            if v not in seen:
                seen.add(v)
                out.append(v)
    return out


def rdp_preserved_check(x: FinPoset, family) -> bool:
    """Height at most 1 survives filtration along a dpc-closed family."""
    if (x.minimals() | x.maximals()) != x.all_mask:
        raise PreconditionError("source has an element that is neither "
                                "minimal nor maximal")
    alg = UpSetAlgebra(x)
    fam = list(family)
    have = set(fam)
    for u in fam:
        if alg.dpc(u) not in have:
            raise PreconditionError("family is not closed under the dual "
                                    "pseudocomplement")
    f = filtrate(x, fam)
    q = f.quotient
    return (q.minimals() | q.maximals()) == q.all_mask

"""Relative commutant dimensions of a finite group-subgroup inclusion.

Given H <= G with right coset representatives g_1 = e, ..., g_t, every
element of the group algebra of G amplifies to a t^k x t^k matrix over
the algebra of H, indexed by k-tuples of coset indices (the theta maps
of sfw.theta).  The dimensions of the relative commutants of those
amplifications are exact orbit counts: Burnside's lemma over one
histogram of fixed cosets per (G0, H).  No theta matrix, character
table or float enters them, so `index` runs this module and never the
graphs or the brute-force reference of sfw.standard_invariant, which
re-exports the names below.
"""

from __future__ import annotations

from .config import Config, DEFAULT
from .errors import (
    CapExceededError,
    InvariantViolationError,
    PreconditionError,
    SubgroupError,
)
from .permgroup import PermGroup, right_coset_data

IN_SUBGROUP = "in-L(H)"
IN_GROUP = "in-L(G)"
SIDES = (IN_SUBGROUP, IN_GROUP)


def _check_k(k: int, config: Config) -> None:
    if k < 1:
        raise PreconditionError("tuple length k=%d must be positive" % k)
    if k > config.theta_k_cap:
        raise CapExceededError(
            "tuple length k=%d exceeds cap %d" % (k, config.theta_k_cap))


def relative_commutant_dim(G: PermGroup, G0: PermGroup, H: PermGroup,
                           k: int, side: str,
                           config: Config = DEFAULT) -> int:
    """Dimension of the relative commutant of the amplified copy of G0.

    side selects where the commutant is formed: IN_SUBGROUP means inside
    the t^k x t^k matrices over the subgroup algebra, IN_GROUP inside
    matrices over the full group algebra.  With N and M the algebras of
    H and G, the four combinations (G0 in {H, G}) x side give the tower
    relative commutants N' or M' intersected with M_{2k-1} or M_{2k}.

    A tuple is determined by its sequence of suffix cosets, and on those
    the tuple action is the diagonal action of G on (H\\G)^k by right
    multiplication.  The dimension is therefore the number of G0-orbits
    on (H\\G)^n, with n = 2k for IN_GROUP and n = 2k - 1 for
    IN_SUBGROUP, and Burnside's lemma counts them exactly: the sum over
    g in G0 of fix(g)^n divided by |G0|, where fix(g) is the number of
    cosets Hx with Hxg = Hx.  Every k and both sides read one histogram
    of fix over G0 (see _fixed_point_histogram).
    """
    if side not in SIDES:
        raise PreconditionError("side must be one of %r" % (SIDES,))
    _check_k(k, config)
    if not H.is_subgroup_of(G0) or not G0.is_subgroup_of(G):
        raise SubgroupError("need H <= G0 <= G")
    n = 2 * k if side == IN_GROUP else 2 * k - 1
    total = sum(count * fixed ** n
                for fixed, count in _fixed_point_histogram(G, G0, H).items())
    dim, rest = divmod(total, G0.order)
    if rest:
        raise InvariantViolationError(
            "Burnside sum %d is not divisible by |G0| = %d"
            % (total, G0.order))
    return dim


def _fixed_point_histogram(G: PermGroup, G0: PermGroup,
                           H: PermGroup) -> dict:
    """{fix: number of g in G0 fixing exactly fix cosets of H\\G}.

    One pass over G0, kept in G0's cache keyed by (G, H).
    """
    def compute():
        cosets = right_coset_data(G, H)
        points = range(cosets.index)
        histogram = {}
        for g in G0.elements:
            fixed = sum(map(int.__eq__, cosets.action(g), points))
            histogram[fixed] = histogram.get(fixed, 0) + 1
        return histogram
    return G0.cached(("fixed_points", G, H), compute)

"""Elements of a complex group algebra and expansion over coset bases.

An element is a finitely supported complex coefficient function on a
permutation group.  Products and the restriction to a subgroup only
shuffle coefficients between disjoint supports, so equality tests on
expand/reassemble round trips are exact even in floating point.

Only `verify` and the tests compute here.  An amplified matrix is a
monomial matrix with entries in the subgroup, so its products are
products of group elements (theta.ThetaMap.matrix), and so are the
products in the commutant oracle (standard_invariant), whose entries
are single basis elements; the relations of an extension are
identities in the group (cocycle).  This module serves the references
those are held to: the nested conditional expectations of the theta
entries and the Pimsner-Popa round trip.
"""

from __future__ import annotations

from typing import Mapping

from .errors import PreconditionError
from .permgroup import CosetData, Perm, PermGroup


class GroupAlgebraElement:
    """A finitely supported function group -> C with convolution product."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: PermGroup, coeffs: Mapping[Perm, complex]):
        clean = {}
        for p, c in coeffs.items():
            if p not in group:
                raise PreconditionError(
                    "support element %r is outside the carrier group" % (p,))
            c = complex(c)
            if c != 0:
                clean[p] = c
        self.group = group
        self.coeffs = clean

    @classmethod
    def from_perm(cls, group: PermGroup, p: Perm) -> "GroupAlgebraElement":
        return cls(group, {p: 1.0})

    @classmethod
    def zero(cls, group: PermGroup) -> "GroupAlgebraElement":
        return cls(group, {})

    def _carrier(self, other: "GroupAlgebraElement") -> PermGroup:
        """Carrier group for a binary operation: the larger of the two.

        The constructor validates that the resulting support fits, so
        mixing elements of unrelated groups fails loudly.
        """
        if self.group is other.group:
            return self.group
        if self.group.degree != other.group.degree:
            raise PreconditionError("degree mismatch between carriers")
        return self.group if self.group.order >= other.group.order else other.group

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        carrier = self._carrier(other)
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, 0.0) + c
        return GroupAlgebraElement(carrier, out)

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        carrier = self._carrier(other)
        out = {}
        for p, c in self.coeffs.items():
            for q, d in other.coeffs.items():
                r = p * q
                out[r] = out.get(r, 0.0) + c * d
        return GroupAlgebraElement(carrier, out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupAlgebraElement)
                and self.group.degree == other.group.degree
                and self.coeffs == other.coeffs)

    __hash__ = None


def conditional_expectation(x: GroupAlgebraElement,
                            H: PermGroup) -> GroupAlgebraElement:
    """Restrict the coefficient function to the subgroup H.

    This is the trace-preserving conditional expectation onto the
    subalgebra spanned by H.
    """
    if H.degree != x.group.degree:
        raise PreconditionError("subgroup degree does not match the element")
    return GroupAlgebraElement(H, {p: c for p, c in x.coeffs.items() if p in H})


def pimsner_popa_expand(x: GroupAlgebraElement, cosets: CosetData) -> list:
    """Coefficients E_H(x * u_{g_i}^-1) of x over the coset basis u_{g_i}."""
    H = cosets.subgroup
    out = []
    for rep in cosets.reps:
        shifted = x * GroupAlgebraElement.from_perm(x.group, rep.inv())
        out.append(conditional_expectation(shifted, H))
    return out


def pimsner_popa_reassemble(coeffs, cosets: CosetData) -> GroupAlgebraElement:
    """Sum c_i * u_{g_i}; inverse of pimsner_popa_expand, exactly."""
    coeffs = list(coeffs)
    if len(coeffs) != len(cosets.reps):
        raise PreconditionError(
            "need one coefficient per coset representative, got %d for %d"
            % (len(coeffs), len(cosets.reps))
        )
    G = cosets.group
    total = GroupAlgebraElement.zero(G)
    for c, rep in zip(coeffs, cosets.reps):
        total = total + c * GroupAlgebraElement.from_perm(G, rep)
    return total

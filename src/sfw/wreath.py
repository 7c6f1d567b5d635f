"""Wreath-like products WR(A, B acting on I) of permutation groups.

wreath_product realizes A wr B on blocks of points along the natural
action of B, and verify_wreath_like checks the defining properties of a
decomposition into base copies and a quotient map onto a permutation
group B, which acts on the copies as on its points, raising
InvariantViolationError at the first that fails.  Only the extensions
verify suite reaches this module.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .config import Config, DEFAULT
from .errors import InvariantViolationError
from .permgroup import Perm, PermGroup, homomorphism_from_images


class WreathData(NamedTuple):
    """A wreath product A wr B realized on deg(B) * deg(A) points.

    B acts on I = its own points.  Block i occupies points
    [i*deg(A), (i+1)*deg(A)).  kappa maps each element of the product
    onto the acting group B; its kernel is the direct sum of the base
    copies.
    """

    group: PermGroup
    base_copies: tuple
    acting: PermGroup
    kappa: Mapping[Perm, Perm]


def wreath_product(A: PermGroup, B: PermGroup,
                   config: Config = DEFAULT) -> WreathData:
    """Wreath product of A by B along B's natural action on its points.

    That action is faithful, as B is a permutation group, and any
    faithful action is the natural action of the permutation group its
    images generate.  Returns the product group together with the base
    copies and the quotient map kappa recovered from the block
    structure: g permutes the blocks as some b in B, since the
    generators do and B is closed, and b is the one element with those
    images.
    """
    dA, size = A.degree, B.degree
    degree = size * dA
    gens = []
    copy_gens = [[] for _ in range(size)]
    for i in range(size):
        for a in A.generators:
            images = list(range(degree))
            for x in range(dA):
                images[i * dA + x] = i * dA + a(x)
            p = Perm(images)
            gens.append(p)
            copy_gens[i].append(p)
    for b in B.generators:
        images = [0] * degree
        for i in range(size):
            for x in range(dA):
                images[i * dA + x] = b(i) * dA + x
        gens.append(Perm(images))
    G = PermGroup(degree, gens, config)
    copies = tuple(PermGroup(degree, cg, config) for cg in copy_gens)
    by_image = {b.images: b for b in B.elements}
    kappa = {g: by_image[tuple(g(i * dA) // dA for i in range(size))]
             for g in G.elements}
    return WreathData(G, copies, B, kappa)


def _least(elements) -> tuple:
    """The least of a non-empty set of elements, as a witness."""
    return (min(elements, key=Perm.sort_key),)


def verify_wreath_like(G: PermGroup, copies: Sequence[PermGroup],
                       kappa: Mapping[Perm, Perm], B: PermGroup) -> None:
    """Check the defining properties of a wreath-like decomposition.

    B acts on the indices of the copies as a permutation group of degree
    len(copies): the action of WR(A, B acting on I) is faithful, and a
    faithful action is the natural action of the permutation group its
    images generate.  kappa must be a surjective homomorphism G -> B
    whose kernel is the internal direct sum of the copies, and
    conjugation by g must carry copy i onto copy kappa(g)(i).  The first
    property that fails raises InvariantViolationError, with the failing
    element, copy index or pair as its witness.
    """
    copies = tuple(copies)
    n = len(copies)
    if B.degree != n:
        raise InvariantViolationError(
            "acting group of degree %d on %d copies" % (B.degree, n))
    if set(kappa) != set(G.elements):
        raise InvariantViolationError("kappa is not a total map on the group",
                                      _least(set(kappa) ^ set(G.elements)))
    phi = homomorphism_from_images(
        G.generators, [kappa[s] for s in G.generators], G.order)
    if phi is None:
        raise InvariantViolationError("kappa is not a homomorphism")
    for g in sorted(G.elements, key=Perm.sort_key):
        if phi[g] != kappa[g]:
            raise InvariantViolationError("kappa is not a homomorphism", (g,))
    missed = set(B.elements) ^ set(kappa.values())
    if missed:
        raise InvariantViolationError(
            "kappa does not map onto the acting group", _least(missed))
    for i, A in enumerate(copies):
        if not A.is_subgroup_of(G):
            raise InvariantViolationError("copy is not a subgroup", (i,))
    gen_union = [g for A in copies for g in A.generators]
    D = PermGroup(G.degree, gen_union, Config(order_cap=G.order + 1))
    kernel = {g for g in G.elements if kappa[g].is_identity()}
    if kernel != set(D.elements):
        raise InvariantViolationError(
            "kernel of kappa differs from the span of the copies",
            _least(kernel ^ set(D.elements)))
    prod_order = 1
    for A in copies:
        prod_order *= A.order
    if prod_order != D.order:
        raise InvariantViolationError(
            "copies are not in direct sum: orders %d vs %d"
            % (prod_order, D.order))
    for a, A in enumerate(copies):
        for b in range(a + 1, n):
            for x in A.generators:
                for y in copies[b].generators:
                    if x * y != y * x:
                        raise InvariantViolationError(
                            "copies do not commute", (x, y))
    elem_sets = [set(A.elements) for A in copies]
    for g in G.generators:
        ginv = g.inv()
        b = kappa[g]
        for i in range(n):
            conj = {g * x * ginv for x in copies[i].elements}
            if conj != elem_sets[b(i)]:
                raise InvariantViolationError(
                    "conjugation does not permute copies per kappa", (g, i))

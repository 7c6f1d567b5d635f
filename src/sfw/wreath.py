"""Wreath-like products WR(A, B acting on I) of permutation groups.

wreath_product realizes A wr B on blocks of points along an action
table of B, and verify_wreath_like checks the defining properties of a
decomposition into base copies and a quotient map.  Only the
`wr2x3-base` case and the extensions verify suite reach this module.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Sequence

from .config import Config, DEFAULT
from .errors import InvalidActionError
from .permgroup import Perm, PermGroup, homomorphism_from_images


class WreathData(NamedTuple):
    """A wreath product A wr B realized on len(I) * deg(A) points.

    Block i occupies points [i*deg(A), (i+1)*deg(A)).  kappa maps each
    element of the product onto the acting group B; its kernel is the
    direct sum of the base copies.
    """

    group: PermGroup
    base: PermGroup
    base_copies: tuple
    acting: PermGroup
    action: Mapping[Perm, tuple]
    kappa: Mapping[Perm, Perm]


def natural_action(B: PermGroup) -> dict:
    """B acting on its own points, as an action table."""
    return {b: b.images for b in B.elements}


def verify_action_table(B: PermGroup, action: Mapping[Perm, Sequence[int]],
                        size: int) -> None:
    """Raise InvalidActionError unless action is a homomorphism B -> Sym(size)."""
    if set(action) != set(B.elements):
        raise InvalidActionError("action table must cover exactly the acting group")
    for b, img in action.items():
        if len(img) != size or sorted(img) != list(range(size)):
            raise InvalidActionError(
                "action of %r is not a bijection on the index set" % (b,))
    if tuple(action[B.identity]) != tuple(range(size)):
        raise InvalidActionError("identity must act trivially")
    phi = homomorphism_from_images(
        B.generators, [Perm(action[b]) for b in B.generators], B.order)
    if phi is None or any(phi[b] != tuple(img) for b, img in action.items()):
        raise InvalidActionError("action table is not a homomorphism")


def wreath_product(A: PermGroup, B: PermGroup,
                   action: Optional[Mapping[Perm, tuple]] = None,
                   config: Config = DEFAULT) -> WreathData:
    """Wreath-like product of A by B along a faithful action of B on I.

    Returns the product group together with the base copies and the
    quotient map kappa recovered from the block structure.
    """
    if action is None:
        action = natural_action(B)
    size = len(next(iter(action.values())))
    verify_action_table(B, action, size)
    by_image = {}
    for b, img in action.items():
        key = tuple(img)
        if key in by_image:
            raise InvalidActionError(
                "action must be faithful so the quotient map is recoverable")
        by_image[key] = b
    dA = A.degree
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
        img = action[b]
        images = [0] * degree
        for i in range(size):
            for x in range(dA):
                images[i * dA + x] = img[i] * dA + x
        gens.append(Perm(images))
    G = PermGroup(degree, gens, config)
    copies = tuple(PermGroup(degree, cg, config) for cg in copy_gens)
    kappa = {}
    for g in G.elements:
        key = tuple(g(i * dA) // dA for i in range(size))
        if key not in by_image:
            raise InvalidActionError("element does not permute blocks per the action")
        kappa[g] = by_image[key]
    return WreathData(G, A, copies, B, dict(action), kappa)


class WreathReport(NamedTuple):
    ok: bool
    reason: str = ""
    witness: tuple = ()


def verify_wreath_like(G: PermGroup, copies: Sequence[PermGroup],
                       kappa: Mapping[Perm, Perm], B: PermGroup,
                       action: Optional[Mapping[Perm, tuple]] = None) -> WreathReport:
    """Check the defining properties of a wreath-like decomposition.

    kappa must be a surjective homomorphism G -> B whose kernel is the
    internal direct sum of the copies, and conjugation must permute the
    copies according to the action of kappa(g) on the index set.
    """
    copies = tuple(copies)
    n = len(copies)
    if action is None:
        if n == 1:
            action = {b: (0,) for b in B.elements}
        elif B.degree == n:
            action = natural_action(B)
        else:
            raise InvalidActionError(
                "no action given and the acting group degree does not match "
                "the number of copies")
    try:
        verify_action_table(B, action, n)
    except InvalidActionError as exc:
        return WreathReport(False, "bad action table: %s" % exc)
    if set(kappa) != set(G.elements):
        return WreathReport(False, "kappa is not a total map on the group")
    phi = homomorphism_from_images(
        G.generators, [kappa[s] for s in G.generators], G.order)
    if phi is None:
        return WreathReport(False, "kappa is not a homomorphism")
    for g in sorted(G.elements, key=Perm.sort_key):
        if phi[g] != kappa[g]:
            return WreathReport(False, "kappa is not a homomorphism", (g,))
    if {kappa[g] for g in G.elements} != set(B.elements):
        return WreathReport(False, "kappa is not surjective")
    for A in copies:
        if not A.is_subgroup_of(G):
            return WreathReport(False, "copy is not a subgroup")
    gen_union = [g for A in copies for g in A.generators]
    D = PermGroup(G.degree, gen_union, Config(order_cap=G.order + 1))
    kernel = sorted(g for g in G.elements if kappa[g].is_identity())
    if list(D.elements) != kernel:
        return WreathReport(False, "kernel of kappa differs from the span of the copies")
    prod_order = 1
    for A in copies:
        prod_order *= A.order
    if prod_order != D.order:
        return WreathReport(False,
                            "copies are not in direct sum: orders %d vs %d"
                            % (prod_order, D.order))
    for a, A in enumerate(copies):
        for b in range(a + 1, n):
            for x in A.generators:
                for y in copies[b].generators:
                    if x * y != y * x:
                        return WreathReport(False, "copies do not commute",
                                            (x, y))
    elem_sets = [set(A.elements) for A in copies]
    for g in G.generators:
        ginv = g.inv()
        img = action[kappa[g]]
        for i in range(n):
            conj = {g * x * ginv for x in copies[i].elements}
            if conj != elem_sets[img[i]]:
                return WreathReport(
                    False, "conjugation does not permute copies per kappa",
                    (g, i))
    return WreathReport(True)

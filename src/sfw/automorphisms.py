"""Automorphisms of a finite permutation group, and normal cores.

Aut(G) is found by a constrained search over the images of a reduced
generating set and acts on the element list of G (AutomorphismData).
Each candidate tuple of images is extended to a map on G, or rejected,
by one closure of the graph it generates
(permgroup.homomorphism_from_images), and is kept when that map is a
bijection.
AutomorphismData is the one automorphism group of an extension:
cocycle.extension_from_out takes outer classes as indices into its
out_cosets and checks none of what the search decided again.
The normal core is the kernel of a group acting on the cosets of a
subgroup.  Only `extend`, the cocycle checks and the verify suites
reach this module; `index`, `graph`, `chartab` and `induce` never run
it.
"""

from __future__ import annotations

import itertools
from typing import Mapping, NamedTuple, Sequence

from .config import Config, DEFAULT
from .errors import CapExceededError, InvariantViolationError
from .permgroup import (
    CosetData,
    Perm,
    PermGroup,
    conjugacy_classes,
    homomorphism_from_images,
    mulclose,
    right_coset_data,
)

# the most tuples of candidate generator images the search tries
CANDIDATE_CAP = 200000


class AutomorphismData(NamedTuple):
    """Aut(G) acting on the element list of G.

    aut.degree == G.order; automorphism p sends G.elements[i] to
    G.elements[p(i)].  inner is the subgroup of conjugations, and
    out_cosets decomposes aut by inner, one coset per outer class;
    coset 0 is inner itself, and extend names the outer classes by the
    indices 1 to index - 1.
    """

    group: PermGroup
    aut: PermGroup
    inner: PermGroup
    out_cosets: CosetData


def automorphism_perm(G: PermGroup, mapping: Mapping[Perm, Perm]) -> Perm:
    """Encode a bijection G -> G as a permutation of element indices."""
    return Perm([G.element_index(mapping[p]) for p in G.elements])


def conjugation_perm(G: PermGroup, g: Perm) -> Perm:
    ginv = g.inv()
    return Perm([G.element_index(g * p * ginv) for p in G.elements])


def _generating_subset(candidates: Sequence[Perm], order: int) -> list:
    """The candidates that enlarge the group generated by those before.

    Stops once that group has the given order.  Candidates that generate
    more than order elements are a fault of the caller's data, not a
    resource cap, and raise InvariantViolationError.
    """
    kept = []
    known = set()
    for g in candidates:
        if g in known or g.is_identity():
            continue
        kept.append(g)
        try:
            known = set(mulclose(kept, order))
        except CapExceededError:
            raise InvariantViolationError(
                "the set is not closed: it generates more than %d elements"
                % order) from None
        if len(known) == order:
            break
    return kept


def _reduced_generators(G: PermGroup) -> list:
    return _generating_subset(G.generators, G.order) or [G.identity]


def automorphism_group(G: PermGroup, config: Config = DEFAULT) -> AutomorphismData:
    """Aut(G) by constrained search over generator images.

    Candidate images of a generator are limited to elements with the same
    order and conjugacy class size.  Every candidate tuple is checked to
    define a homomorphism (homomorphism_from_images) that is a bijection,
    so the result is exhaustive.
    """
    if G.order > config.aut_cap:
        raise CapExceededError("group order", G.order, config.aut_cap,
                               "aut_cap")
    gens = _reduced_generators(G)
    classes = conjugacy_classes(G)
    class_size = {p: classes.sizes[i] for p, i in classes.class_of.items()}
    orders = {p: p.order() for p in G.elements}
    candidates = []
    for g in gens:
        pool = [p for p in G.elements
                if orders[p] == orders[g] and class_size[p] == class_size[g]]
        candidates.append(pool)
    total = 1
    for pool in candidates:
        total *= len(pool)
    if total > CANDIDATE_CAP:
        raise CapExceededError("automorphism candidate tuples", total,
                               CANDIDATE_CAP)

    found = []
    for images in itertools.product(*candidates):
        phi = homomorphism_from_images(gens, images, G.order)
        if phi is not None and len(set(phi.values())) == G.order:
            found.append(automorphism_perm(G, phi))
    aut = PermGroup(G.order, _generating_subset(found, len(found)), config)
    if aut.elements != tuple(sorted(found)):
        raise InvariantViolationError("automorphism set is not closed")
    inner = PermGroup(G.order, [conjugation_perm(G, g) for g in gens], config)
    if inner.order * len(G.center()) != G.order:
        raise InvariantViolationError(
            "inner automorphism count violates |G/Z(G)|")
    out = right_coset_data(aut, inner)
    return AutomorphismData(G, aut, inner, out)


def normal_core(G: PermGroup, H: PermGroup) -> PermGroup:
    """The largest normal subgroup of G contained in H.

    It is the kernel of G acting on H\\G (CosetData.action), and an
    element fixing the coset H lies in H, so it is read off H alone.
    The result needs no check: a kernel of an action is a normal
    subgroup, and _generating_subset keeps adding kernel elements until
    they generate len(kernel) of them and raises past that, so the
    group returned is the kernel itself.
    """
    cosets = right_coset_data(G, H)
    trivial = tuple(range(cosets.index))
    kernel = [h for h in H.elements if cosets.action(h) == trivial]
    return PermGroup(G.degree, _generating_subset(kernel, len(kernel)),
                     Config(order_cap=len(kernel)))


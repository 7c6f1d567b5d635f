"""Twisted cocycle data for group extensions.

A finite group H containing a normal copy of G determines, after a
choice of coset lifts, an outer action of the quotient on G together
with a G-valued 2-cocycle twisting the multiplication.  This module
extracts that data from chosen outer classes of an automorphism group
that automorphisms.automorphism_group has found and checked, or from an
explicit normal inclusion, and checks the twisted crossed product
relations as identities in the group, where the unitaries u_h
multiply; the cocycle axioms follow from them.  Each check raises
InvariantViolationError at its first failure, with the failing point as
its witness: on the data this module extracts, only a fault of this
code can trip one.  Both sources go through one decomposition of a
group over a normal subgroup (_decompose): the quotient acting on the
coset indices by right translation, one lift per quotient element, the
product table of the cosets and the defects of the lifts.  An extension
decomposes over the inner automorphisms that automorphism_group listed
and pulls the defects back to G by conjugation, which
permgroup.homomorphism_from_images extends from the generators.  Both
are then checked by one crossed-product law (_check_crossed_law), on
every base element, every pair of quotient elements and the lift of
the identity.  Both return the Cocycle2 they checked, which holds the
base, the quotient and the lifts; an extension keeps its ambient group
beside it.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Sequence, Tuple

from .automorphisms import AutomorphismData, conjugation_perm
from .config import Config, DEFAULT
from .errors import (
    InvariantViolationError,
    NontrivialCenterError,
    NotNormalError,
    ParseError,
    SubgroupError,
)
from .permgroup import (
    CosetData,
    Perm,
    PermGroup,
    homomorphism_from_images,
    right_coset_data,
)


class Cocycle2(NamedTuple):
    """Quotient-indexed 2-cocycle with values in a base group.

    values maps pairs of quotient elements to base elements, alpha maps
    each quotient element to an automorphism of the base encoded as a
    permutation of base element indices.
    """

    base: PermGroup
    quotient: PermGroup
    values: Mapping[Tuple[Perm, Perm], Perm]
    alpha: Mapping[Perm, Perm]

    def apply_alpha(self, g: Perm, x: Perm) -> Perm:
        """Image of the base element x under the automorphism for g."""
        a = self.alpha[g]
        return self.base.elements[a(self.base.element_index(x))]

    def is_normalized(self) -> bool:
        one = self.quotient.identity
        return self.values[(one, one)] == self.base.identity


def _check_crossed_law(c: Cocycle2, elements: Sequence[Perm],
                       lifts: Sequence[Perm], table: Sequence[Sequence[int]],
                       embed: Callable[[Perm], Perm]) -> None:
    """Check the twisted crossed product law, raising at the first failure.

    lifts[i] lifts elements[i], the elements of the quotient, table[i][j]
    indexes the lift r_ij of the class of r_i r_j, and embed is an
    injective homomorphism iota from the base B into the group of the
    lifts.  It checks, in this order:
    (a) the lift r_e of the identity is 1 (witness (e,));
    (b) g_i g_j = g_ij for all i, j, the quotient product agrees with
        the table (witness (g_i, g_j));
    (c) r_i r_j = iota(w(g_i, g_j)) r_ij for all i, j (witness (g_i, g_j));
    (d) r_i iota(b) = iota(alpha_i(b)) r_i for every b in B (witness
        (g_i, b)).
    That is |Q|^2 + |Q|^2 + |Q| |B| points, no more than the extension
    of order |Q| |B| and the |Q|^2 cocycle values they decide.

    They give the cocycle axioms.  By (d) on all of B,
    alpha_i = iota^-1 Ad(r_i) iota, an injective endomorphism of the
    finite group B, so an automorphism.  With r_e = 1 by (a), (d) gives
    alpha_e = 1, and (c) at (e, e), whose product is e by (b), gives
    iota(w(e, e)) = 1, so w(e, e) = 1.  Write r_gh for the lift of gh,
    which (b) makes r_ij.  Conjugating iota(b) by both sides of
    r_g r_h = iota(w(g, h)) r_gh gives, by (d),
    iota(alpha_g alpha_h(b)) = iota(w(g, h) alpha_gh(b) w(g, h)^-1),
    so alpha_g alpha_h = Ad(w(g, h)) alpha_gh.  And the two ways to
    multiply r_g r_h r_k out are
    (r_g r_h) r_k = iota(w(g, h) w(gh, k)) r_ghk and
    r_g (r_h r_k) = iota(alpha_g(w(h, k)) w(g, hk)) r_ghk,
    so associativity in the group of the lifts gives
    alpha_g(w(h, k)) w(g, hk) = w(g, h) w(gh, k).  Each step cancels
    iota, which is one to one.
    """
    r_e = lifts[elements.index(c.quotient.identity)]
    if r_e != Perm.identity(len(r_e)):
        raise InvariantViolationError("lift of the identity is not 1",
                                      (c.quotient.identity,))
    for gi, row in zip(elements, table):
        for gj, k in zip(elements, row):
            if gi * gj != elements[k]:
                raise InvariantViolationError(
                    "multiplication law fails", (gi, gj))
    for gi, ri, row in zip(elements, lifts, table):
        for gj, rj, k in zip(elements, lifts, row):
            if ri * rj != embed(c.values[(gi, gj)]) * lifts[k]:
                raise InvariantViolationError(
                    "twisted product relation fails", (gi, gj))
    for gi, ri in zip(elements, lifts):
        for b in c.base.elements:
            if ri * embed(b) != embed(c.apply_alpha(gi, b)) * ri:
                raise InvariantViolationError(
                    "conjugation relation fails", (gi, b))


def _decompose(cosets: CosetData, config: Config):
    """A group over a normal subgroup, from the cosets of the subgroup.

    cosets.reps[0] must be the identity.  Each reps[i] gives the quotient
    element cosets.action(reps[i]^-1), k -> coset of reps[k] * reps[i]^-1;
    the inverse makes the assignment multiplicative for the rightmost-first
    convention.  Returns that quotient, the lift of each quotient element
    (keyed in the order of reps), the product table
    table[i][j] = action(reps[j])[i], the coset of reps[i] * reps[j], and
    the defects reps[i] * reps[j] * reps[table[i][j]]^-1
    keyed by pairs of quotient elements, each checked to lie in the
    normal subgroup.

    The identity of the quotient lifts to the identity, which
    _check_crossed_law checks.  reps[0] = 1 holds for both callers: it
    is the least element in right_coset_data, and CosetData.with_reps
    refuses any other.  It gives k -> coset of reps[k] * 1 = k, the
    identity, and once the representatives are checked to separate, no
    other lift shares it.
    """
    reps, K = cosets.reps, cosets.subgroup
    inverses = [r.inv() for r in reps]
    elements = [Perm(cosets.action(rinv)) for rinv in inverses]
    quotient = PermGroup(cosets.index, elements, config)
    if quotient.order != cosets.index:
        raise InvariantViolationError("quotient order mismatch")
    lifts = dict(zip(elements, reps))
    if len(lifts) != quotient.order:
        raise InvariantViolationError("coset representatives do not separate")
    table = list(zip(*map(cosets.action, reps)))
    defects = {}
    for gi, ri, row in zip(elements, reps, table):
        for gj, rj, k in zip(elements, reps, row):
            w = ri * rj * inverses[k]
            if w not in K:
                raise InvariantViolationError(
                    "coset defect landed outside the normal subgroup")
            defects[(gi, gj)] = w
    return quotient, lifts, table, defects


class ExtensionResult(NamedTuple):
    """A group generated over the inner automorphisms by chosen outer ones.

    ambient acts on base element indices, a subgroup of Aut(G) and the
    very AutomorphismData.aut object when every outer class is chosen.
    cocycle.base is G, cocycle.quotient is ambient / Inn(G) realized on
    the inner-coset indices, so its order is the index, and
    cocycle.alpha lifts each quotient element to the minimal
    representative of its coset, with the identity lifted to the
    identity.
    """

    ambient: PermGroup
    cocycle: Cocycle2

    def fingerprint(self) -> Mapping[int, int]:
        """Element order histogram of the ambient group."""
        return self.ambient.element_order_histogram()


def _inner_embedding(G: PermGroup) -> dict:
    """x -> conjugation_perm(G, x) for every x in G, in the order of G.

    Conjugation is a homomorphism, c(x * s) = c(x) * c(s), so the images
    c(s) of the generators determine it: homomorphism_from_images
    extends them over G in one closure of the graph, without a
    conjugation per element.
    """
    phi = homomorphism_from_images(
        G.generators, [conjugation_perm(G, s) for s in G.generators],
        G.order)
    if phi is None:
        raise InvariantViolationError("conjugation is not a homomorphism")
    return {x: phi[x] for x in G.elements}


def extension_from_out(auts: AutomorphismData, classes: Sequence[int],
                       config: Config = DEFAULT) -> ExtensionResult:
    """Build the extension of G by the chosen outer classes, checked.

    auts is the automorphism group of G (automorphisms.automorphism_group)
    and classes are indices into auts.out_cosets, from 1 to index - 1,
    each standing for its coset representative; an index out of that
    range is a ParseError.  Requires a trivial centre so that G embeds
    as its own inner automorphism group and cocycle values pull back
    uniquely.  The extension is <auts.inner, the chosen
    representatives>, a subgroup of auts.aut.  When classes name every
    outer class it is auts.aut itself, closed by no second closure, and
    its cosets over auts.inner are the ones automorphism_group cached.

    Nothing automorphism_group decided is decided again: every
    representative is an automorphism, and auts.inner is
    <c_s : s in the generators>, of order |G| / |Z(G)| = |G|.  A
    representative of a coset other than auts.inner lies outside it, so
    each nonidentity quotient element lifts to an outer automorphism.

    The crossed relations are checked in the extension itself, as
    u_a u_b = u_ab, by _check_crossed_law with x -> c_x as iota, and
    the first failure raises InvariantViolationError with its witness.
    iota is the homomorphism that homomorphism_from_images extends from
    the generators; its image is auts.inner and its kernel Z(G) = 1, so
    it is one to one, and the law gives the cocycle axioms, a
    normalized cocycle among them (see _check_crossed_law).
    """
    G, inner = auts.group, auts.inner
    available = auts.out_cosets.index - 1
    for p in classes:
        if not available:
            raise ParseError("outer class %d out of range: the group "
                             "has no outer automorphism classes" % p)
        if not 1 <= p <= available:
            raise ParseError("outer class %d out of range, have 1..%d"
                             % (p, available))
    if len(G.center()) != 1:
        raise NontrivialCenterError(
            "base group must have trivial centre")
    if len(set(classes)) == available:
        ambient = auts.aut
    else:
        reps = [auts.out_cosets.reps[i] for i in classes]
        ambient = PermGroup(G.order, inner.generators + tuple(reps), config)
    embedding = _inner_embedding(G)
    quotient, lifts, table, defects = _decompose(
        right_coset_data(ambient, inner), config)
    base_of = {a: x for x, a in embedding.items()}
    values = {pair: base_of[w] for pair, w in defects.items()}
    cocycle = Cocycle2(G, quotient, values, lifts)
    _check_crossed_law(cocycle, list(lifts), list(lifts.values()), table,
                       embedding.__getitem__)
    return ExtensionResult(ambient, cocycle)


# ---------------------------------------------------------------------------
# crossed product decomposition of a group over a normal subgroup

def _check_normal(G: PermGroup, K: PermGroup) -> None:
    if not K.is_subgroup_of(G):
        raise SubgroupError("not a subgroup")
    for g in G.generators:
        ginv = g.inv()
        for x in K.generators:
            if g * x * ginv not in K:
                raise NotNormalError("subgroup is not normal")


def _crossed_reps(G: PermGroup, K: PermGroup, rule: str) -> CosetData:
    """The cosets of K, one representative each, in the order of cosets.

    rule "min" takes the canonical minimal element of each coset, rule
    "max" takes the largest one by sort key except that the subgroup
    coset keeps the identity.
    """
    cosets = right_coset_data(G, K)
    if rule == "min":
        return cosets
    return cosets.with_reps([cosets.reps[0]] + [
        max(cosets.coset_elements(i), key=Perm.sort_key)
        for i in range(1, cosets.index)])


def _crossed_product_data(G: PermGroup, K: PermGroup, rule: str,
                          config: Config):
    """The decomposition of G over K by one rule, with alpha_g = Ad(r_g).

    Conjugation by a lift r keeps K in place without a check:
    crossed_product_check decides that K is normal in G (_check_normal)
    before it calls this, so r x r^-1 lies in K for every x in K.
    """
    cosets = _crossed_reps(G, K, rule)
    quotient, lifts, table, values = _decompose(cosets, config)
    alpha = {g: conjugation_perm(K, r) for g, r in lifts.items()}
    cocycle = Cocycle2(K, quotient, values, alpha)
    return cosets.reps, table, list(lifts), cocycle


def crossed_product_check(G: PermGroup, K: PermGroup,
                          config: Config = DEFAULT) -> Cocycle2:
    """Decompose G as a twisted crossed product of K by G/K and verify.

    K must be normal in G.  For two different representative choices,
    _check_crossed_law with the identity as iota checks r_e = 1, the
    product table against the quotient, r_i r_j = w(i,j) r_ij for all
    i, j and r_i b = alpha_i(b) r_i for every b in K:
    |Q|^2 + |Q|^2 + |Q| |K| points, which give the cocycle axioms.  The
    first failure raises InvariantViolationError with its witness; on
    success the cocycle of the second choice is returned.

    These points give the multiplication law for all a, b in K and all
    i, j, with r_ij the representative of the coset of r_i r_j, by
    associativity
    (a r_i)(b r_j) = a (r_i b) r_j = a alpha_i(b) r_i r_j
                   = a alpha_i(b) w(i,j) r_ij.

    The rest follows from the construction.  The a r_i with a in K are
    the elements of G once each: with_reps takes one r_i per coset of
    K, and those cosets partition G.
    """
    _check_normal(G, K)
    for rule in ("min", "max"):
        reps, table, elements, cocycle = \
            _crossed_product_data(G, K, rule, config)
        _check_crossed_law(cocycle, elements, reps, table, lambda b: b)
    return cocycle

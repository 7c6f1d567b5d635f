"""Twisted cocycle data for group extensions.

A finite group H containing a normal copy of G determines, after a
choice of coset lifts, an outer action of the quotient on G together
with a G-valued 2-cocycle twisting the multiplication.  This module
extracts that data from outer automorphisms or from an explicit normal
inclusion, verifies the cocycle axioms, and checks the twisted crossed
product relations as identities in the group, where the unitaries u_h
multiply.  Both sources go through one decomposition of a group over a
normal subgroup (_decompose): the quotient acting on the coset indices
by right translation, one lift per quotient element, the product table
of the cosets and the defects of the lifts.  An extension decomposes
over its inner automorphisms, which extend the conjugations by the
generators (permgroup.homomorphism_from_images), and pulls the defects
back to G.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Sequence, Tuple

from .automorphisms import (
    automorphism_perm,
    conjugation_perm,
    is_automorphism_perm,
)
from .config import Config, DEFAULT
from .errors import (
    HomomorphismError,
    InvariantViolationError,
    NontrivialCenterError,
    NotNormalError,
    PreconditionError,
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

    def value(self, g1: Perm, g2: Perm) -> Perm:
        return self.values[(g1, g2)]

    def apply_alpha(self, g: Perm, x: Perm) -> Perm:
        """Image of the base element x under the automorphism for g."""
        a = self.alpha[g]
        return self.base.elements[a(self.base.element_index(x))]

    def is_normalized(self) -> bool:
        one = self.quotient.identity
        return self.values[(one, one)] == self.base.identity


class CocycleReport(NamedTuple):
    ok: bool
    reason: str = ""
    witness: Optional[tuple] = None


def verify_cocycle(c: Cocycle2) -> CocycleReport:
    """Check the twisted cocycle axioms, reporting the first failure.

    Axioms: the identity acts trivially, composing two of the
    automorphisms equals conjugation by the cocycle value followed by
    the automorphism of the product, and the twisted associativity law
    alpha_g(w(h,k)) * w(g, hk) == w(g,h) * w(gh, k).
    """
    Q = c.quotient
    B = c.base
    for g in Q.elements:
        if g not in c.alpha:
            return CocycleReport(False, "missing automorphism", (g,))
        if not is_automorphism_perm(B, c.alpha[g]):
            return CocycleReport(False, "value is not an automorphism", (g,))
    for g in Q.elements:
        for h in Q.elements:
            if (g, h) not in c.values:
                return CocycleReport(False, "missing cocycle value", (g, h))
            if c.values[(g, h)] not in B:
                return CocycleReport(False, "cocycle value outside base",
                                     (g, h))
    one = Q.identity
    if c.alpha[one] != Perm.identity(B.order):
        return CocycleReport(False, "identity does not act trivially", (one,))
    for g in Q.elements:
        for h in Q.elements:
            lhs = c.alpha[g] * c.alpha[h]
            rhs = conjugation_perm(B, c.values[(g, h)]) * c.alpha[g * h]
            if lhs != rhs:
                return CocycleReport(False, "composition law fails", (g, h))
    for g in Q.elements:
        for h in Q.elements:
            for k in Q.elements:
                lhs = c.apply_alpha(g, c.values[(h, k)]) * c.values[(g, h * k)]
                rhs = c.values[(g, h)] * c.values[(g * h, k)]
                if lhs != rhs:
                    return CocycleReport(False, "twisted associativity fails",
                                         (g, h, k))
    return CocycleReport(True)


def _coerce_automorphism(G: PermGroup, item) -> Perm:
    """Accept either an element-index permutation or a Perm -> Perm map."""
    if isinstance(item, Perm):
        a = item
    elif isinstance(item, Mapping):
        try:
            a = automorphism_perm(G, item)
        except ValueError as e:
            raise HomomorphismError("supplied map is not an automorphism: %s"
                                    % e) from None
    else:
        raise PreconditionError(
            "automorphism must be a permutation of element indices or a "
            "mapping of group elements")
    if not is_automorphism_perm(G, a):
        raise HomomorphismError("supplied map is not an automorphism")
    return a


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

    The identity of the quotient lifts to the identity without a check.
    reps[0] = 1 holds for both callers: it is the least element in
    right_coset_data, and CosetData.with_reps refuses any other.  It
    gives k -> coset of reps[k] * 1 = k, the identity, and once the
    representatives are checked to separate, no other lift shares it.
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

    ambient acts on base element indices; inner is the image of the
    base under conjugation; quotient is realized on the inner-coset
    indices; lifts picks the minimal coset representative for each
    quotient element, with the identity lifted to the identity.
    """

    base: PermGroup
    ambient: PermGroup
    inner: PermGroup
    embedding: Mapping[Perm, Perm]
    quotient: PermGroup
    lifts: Mapping[Perm, Perm]
    cocycle: Cocycle2
    index: int

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


def extension_from_out(G: PermGroup, out_auts: Sequence,
                       config: Config = DEFAULT) -> ExtensionResult:
    """Build the extension of G by the chosen outer automorphisms.

    Requires a trivial centre so that G embeds as its own inner
    automorphism group and cocycle values pull back uniquely.  Each
    entry of out_auts is an automorphism given as an element-index
    permutation or as a mapping of group elements.

    Two facts follow from the construction.  inner lies in ambient,
    which its generators help generate.  And the cocycle is normalized:
    _decompose lifts the identity class to r_e = 1, so
    w(e,e) = r_e r_e r_e^-1 = 1, and 1 pulls back to the identity of G
    alone, since the embedding is one to one once inner is checked to
    have |G| elements.
    """
    if len(G.center()) != 1:
        raise NontrivialCenterError(
            "base group must have trivial centre")
    outs = [_coerce_automorphism(G, a) for a in out_auts]
    embedding = _inner_embedding(G)
    inner_gens = [embedding[x] for x in G.generators]
    inner = PermGroup(G.order, inner_gens, config)
    if inner.order != G.order:
        raise InvariantViolationError("inner automorphism count is off")
    ambient = PermGroup(G.order, inner_gens + outs, config)
    quotient, lifts, _, defects = _decompose(
        right_coset_data(ambient, inner), config)
    base_of = {a: x for x, a in embedding.items()}
    values = {pair: base_of[w] for pair, w in defects.items()}
    cocycle = Cocycle2(G, quotient, values, lifts)
    report = verify_cocycle(cocycle)
    if not report.ok:
        raise InvariantViolationError(
            "extracted cocycle fails axiom '%s' at %r"
            % (report.reason, report.witness))
    return ExtensionResult(G, ambient, inner, embedding, quotient,
                           lifts, cocycle, quotient.order)


# ---------------------------------------------------------------------------
# crossed product decomposition of a group over a normal subgroup

class CrossedProductReport(NamedTuple):
    ok: bool
    reason: str = ""
    witness: Optional[tuple] = None
    quotient_order: int = 0
    cocycle: Optional[Cocycle2] = None
    middle_indices: Tuple[int, ...] = ()


def _check_normal(G: PermGroup, K: PermGroup) -> None:
    if not K.is_subgroup_of(G):
        raise SubgroupError("not a subgroup")
    for g in G.generators:
        ginv = g.inv()
        for x in K.generators:
            if g * x * ginv not in K:
                raise NotNormalError("subgroup is not normal")


def _crossed_reps(G: PermGroup, K: PermGroup, H_mid: PermGroup,
                  rule: str) -> CosetData:
    """The cosets of K, one representative each, those inside H_mid first.

    rule "min" takes the canonical minimal element of each coset, rule
    "max" takes the largest one by sort key except that the subgroup
    coset keeps the identity, which sorts first under either rule.
    """
    cosets = right_coset_data(G, K)
    if rule == "max":
        chosen = [cosets.reps[0]] + [
            max(cosets.coset_elements(i), key=Perm.sort_key)
            for i in range(1, cosets.index)]
    else:
        chosen = list(cosets.reps)
    chosen.sort(key=lambda r: (r not in H_mid, r.sort_key()))
    return cosets.with_reps(chosen)


def _crossed_product_data(G: PermGroup, K: PermGroup, H_mid: PermGroup,
                          rule: str, config: Config):
    """The decomposition of G over K by one rule, with alpha_g = Ad(r_g).

    Conjugation by a lift r keeps K in place without a check:
    crossed_product_check decides that K is normal in G (_check_normal)
    before it calls this, so r x r^-1 lies in K for every x in K.
    """
    cosets = _crossed_reps(G, K, H_mid, rule)
    quotient, lifts, table, values = _decompose(cosets, config)
    alpha = {g: conjugation_perm(K, r) for g, r in lifts.items()}
    cocycle = Cocycle2(K, quotient, values, alpha)
    middle = tuple(j for j, r in enumerate(cosets.reps) if r in H_mid)
    return cosets.reps, table, list(lifts), cocycle, middle


def crossed_product_check(G: PermGroup, K: PermGroup,
                          H_mid: Optional[PermGroup] = None,
                          config: Config = DEFAULT) -> CrossedProductReport:
    """Decompose G as a twisted crossed product of K by G/K and verify.

    K must be normal in G; H_mid, when given, must sit between them,
    and middle_indices restricts the decomposition to it.  For two
    different representative choices, two things are checked: the
    cocycle axioms, and the multiplication law (a r_i)(b r_j) =
    a alpha_i(b) w(i,j) r_ij for all a, b in K and all i, j, where r_ij
    is the representative of the coset of r_i r_j.

    The rest follows from the construction.  The a r_i with a in K are
    the elements of G once each: with_reps takes one r_i per coset of
    K, and those cosets partition G.  The middle indices, the i with
    r_i in H_mid, number |H_mid| / |K| and are closed under the product
    table: K <= H_mid, checked on entry, makes H_mid a union of cosets
    of K, and a coset lies in H_mid exactly when its representative
    does; H_mid is a group, so for r_i and r_j in H_mid the coset of
    r_i r_j, and r_ij with it, lies in H_mid.

    The law is checked at a = 1 on |Q|^2 + |Q|(|K| - 1) points
    (i, a, j, b): at (i, 1, j, 1) for all i, j, and at (i, 1, e, b) for
    all i and b, with e the identity class.  These points give it
    everywhere.  _decompose lifts e to r_e = 1, so r_ie = r_i, and
    (i, 1, e, 1) reads r_i = alpha_i(1) w(i,e) r_i; verify_cocycle
    checked first that alpha_i is an automorphism, so w(i,e) = 1.  Then
    (i, 1, e, b) reads r_i b = alpha_i(b) r_i, and (i, 1, j, 1) reads
    r_i r_j = w(i,j) r_ij.  So by associativity
    (a r_i)(b r_j) = a (r_i b) r_j = a alpha_i(b) r_i r_j
                   = a alpha_i(b) w(i,j) r_ij.
    """
    _check_normal(G, K)
    if H_mid is None:
        H_mid = K
    if not (K.is_subgroup_of(H_mid) and H_mid.is_subgroup_of(G)):
        raise SubgroupError("middle group must sit between the two")
    last = None
    for rule in ("min", "max"):
        reps, table, qperms, cocycle, middle = \
            _crossed_product_data(G, K, H_mid, rule, config)
        report = verify_cocycle(cocycle)
        if not report.ok:
            return CrossedProductReport(False, report.reason, report.witness,
                                        len(reps), cocycle, middle)
        one = K.identity
        points = [(i, j, one) for i in range(len(reps))
                  for j in range(len(reps))]
        # class 0, lifted by reps[0] = 1, is e
        points += [(i, 0, b) for i in range(len(reps))
                   for b in K.elements[1:]]
        for i, j, b in points:
            gi = qperms[i]
            lhs = reps[i] * (b * reps[j])
            tw = cocycle.apply_alpha(gi, b) * cocycle.value(gi, qperms[j])
            if lhs != tw * reps[table[i][j]]:
                return CrossedProductReport(
                    False, "multiplication law fails", (i, one, j, b),
                    len(reps), cocycle, middle)
        last = CrossedProductReport(True, "", None, len(reps), cocycle,
                                    middle)
    return last


# ---------------------------------------------------------------------------
# crossed relations between the lifts, as identities in the extension

class SubfactorExtensionReport(NamedTuple):
    ok: bool
    index: int
    outer_count: int
    relation_pairs: int
    reason: str = ""
    witness: Optional[tuple] = None


def subfactor_report_from_out(G: PermGroup, out_auts: Sequence,
                              config: Config = DEFAULT):
    """Extend G by outer automorphisms and check the crossed relations.

    Verifies that every nonidentity quotient element lifts to an outer
    automorphism and that the lifts multiply by the cocycle twist and
    conjugate the embedded base like the outer action prescribes.  As
    u_a u_b = u_ab, each relation is checked in the extension itself.
    """
    result = extension_from_out(G, out_auts, config)
    Q = result.quotient
    outer_count = 0
    for g in Q.elements:
        if g == Q.identity:
            continue
        if result.lifts[g] in result.inner:
            return result, SubfactorExtensionReport(
                False, result.index, outer_count, 0,
                "lift of a nonidentity class is inner", (g,))
        outer_count += 1
    lifts, embedding = result.lifts, result.embedding
    pairs = 0
    for g1 in Q.elements:
        for g2 in Q.elements:
            w = embedding[result.cocycle.value(g1, g2)]
            if lifts[g1] * lifts[g2] != w * lifts[g1 * g2]:
                return result, SubfactorExtensionReport(
                    False, result.index, outer_count, pairs,
                    "twisted product relation fails", (g1, g2))
            pairs += 1
    for g in Q.elements:
        v = lifts[g]
        for s in G.generators:
            image = result.cocycle.apply_alpha(g, s)
            if v * embedding[s] * v.inv() != embedding[image]:
                return result, SubfactorExtensionReport(
                    False, result.index, outer_count, pairs,
                    "conjugation relation fails", (g, s))
            pairs += 1
    return result, SubfactorExtensionReport(True, result.index, outer_count,
                                            pairs)

"""Direct references that no sfw command needs.

symmetric_group, alternating_group and cyclic_group build the groups
the tests name by their standard generators; sfw declares its own groups
as cycle strings in one table, corpus.declared_group.

closure and conjugacy_cells build a group and its classes from plain
Perm products, the references of mulclose and of conjugacy_classes,
whose loops compose image tuples instead.  homomorphism_by_words
extends generator images along words and checks every relation
phi(x * s) = phi(x) * phi(s), the reference of
homomorphism_from_images, which closes the graph of the map instead.
Restriction and induction of class functions, permutation characters and
the float inner product stay here, outside the package, as the
references of the Frobenius-reciprocity tests, of the exact restriction
matrices and of the character-table route to relative commutant
dimensions.  The left cosets by a direct loop and the block monomial
matrices built on them are the references of the map that `induce`
prints, and trace reads the canonical trace of a group algebra element.
rational_rank eliminates over the rationals with Fraction, the reference
of the fraction-free integer elimination of the commutant oracle.
assert_cocycle_axioms checks the textbook axioms of a twisted 2-cocycle
point by point, the reference of the proof in the docstring of
cocycle._check_crossed_law that the crossed product law implies them.
check_action_table holds a table of images to being an action, which
the package never takes: B acts on the copies of a wreath-like group as
on its own points.  complement searches a wreath-like group for a
subgroup that its quotient map sends onto B one to one, so that the
tests can tell a split group from one that does not split.

GroupAlgebraElement is the complex group algebra of a permutation group,
with the conditional expectation onto a subgroup and the Pimsner-Popa
expansion over a coset basis.  The package computes every one of these
as products of group elements, and the algebra is the reference they are
held to: nested_expectation_entry reads an entry of an amplified matrix
by honest algebra products, the reference of theta.nested_theta_entry;
action_on_tuples solves the coset conditions of the tuple action one
coordinate at a time, the reference of the suffix-coset lookup of
ThetaMap.matrix; sparse_theta and sparse_theta_product read an amplified
matrix as a sparse matrix over the group algebra and multiply two of
them there, the reference of the wreath-product form that
ThetaMap.matrix returns.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping

from sfw.chartab import ClassFunction, conjugacy_classes
from sfw.config import Config, DEFAULT
from sfw.errors import PreconditionError, SubgroupError
from sfw.permgroup import CosetData, Perm, PermGroup


def closure(generators):
    """The set of all products of the generators, by Perm.__mul__ alone."""
    found = {Perm.identity(generators[0].degree)}
    frontier = found
    while frontier:
        frontier = {p * g for p in frontier for g in generators} - found
        found |= frontier
    return found


def symmetric_group(n: int, config: Config = DEFAULT) -> PermGroup:
    if n <= 1:
        return PermGroup(max(n, 1), (), config)
    gens = [Perm.from_cycles(n, [list(range(n))]),
            Perm.from_cycles(n, [[0, 1]])]
    return PermGroup(n, gens, config)


def alternating_group(n: int, config: Config = DEFAULT) -> PermGroup:
    if n <= 2:
        return PermGroup(max(n, 1), (), config)
    gens = [Perm.from_cycles(n, [[i, i + 1, i + 2]]) for i in range(n - 2)]
    return PermGroup(n, gens, config)


def cyclic_group(n: int, config: Config = DEFAULT) -> PermGroup:
    if n <= 1:
        return PermGroup(max(n, 1), (), config)
    return PermGroup(n, [Perm.from_cycles(n, [list(range(n))])], config)


def homomorphism_by_words(generators, images):
    """The map generators -> images extended to a homomorphism, or None.

    Each element is first met as x * s, with x met before and s a
    generator, and is sent to phi(x) * phi(s).  The map is a
    homomorphism exactly when phi(x * s) = phi(x) * phi(s) holds for
    every element x and generator s; None when one relation fails.
    """
    phi = {Perm.identity(generators[0].degree):
           Perm.identity(images[0].degree)}
    frontier = list(phi)
    while frontier:
        new = []
        for x in frontier:
            for s, a in zip(generators, images):
                y = x * s
                if y not in phi:
                    phi[y] = phi[x] * a
                    new.append(y)
        frontier = new
    for x in phi:
        for s, a in zip(generators, images):
            if phi[x * s] != phi[x] * a:
                return None
    return phi


def conjugacy_cells(G):
    """The classes of G as sets, each found by conjugating by every element."""
    cells = []
    covered = set()
    for p in G.elements:
        if p not in covered:
            cell = frozenset(x * p * x.inv() for x in G.elements)
            covered |= cell
            cells.append(cell)
    return cells


# how far a float inner product of two characters may sit from its integer
TOL_MULTIPLICITY = 1e-6


def inner_product(chi, psi):
    """<chi, psi> = |G|^-1 sum |C| chi conj(psi), in floats.

    For two genuine characters the value must lie within
    TOL_MULTIPLICITY of a non-negative integer, which is returned.
    """
    if chi.group != psi.group:
        raise PreconditionError("class functions live on different groups")
    classes = conjugacy_classes(chi.group)
    total = sum(classes.sizes[j] * chi.values[j] * psi.values[j].conjugate()
                for j in range(classes.count)) / chi.group.order
    if chi.is_character and psi.is_character:
        n = round(total.real)
        assert abs(total - n) <= TOL_MULTIPLICITY and n >= 0, total
        return int(n)
    return total


def restrict(chi, H):
    """Restriction of a class function on G to a subgroup H.

    Each class representative of H is looked up among the classes of G
    directly; no class fusion is cached.
    """
    if not H.is_subgroup_of(chi.group):
        raise SubgroupError("restriction target is not a subgroup")
    g_classes = conjugacy_classes(chi.group)
    return ClassFunction(H, tuple(chi.values[g_classes.class_index(rep)]
                                  for rep in conjugacy_classes(H).reps),
                         chi.is_character)


def induce(chi, G):
    """Induction from a subgroup to G via averaged conjugation sums."""
    H = chi.group
    if not H.is_subgroup_of(G):
        raise SubgroupError("induction target does not contain the subgroup")
    h_classes = conjugacy_classes(H)
    values = []
    for rep in conjugacy_classes(G).reps:
        total = 0.0 + 0.0j
        for x in G.elements:
            y = x * rep * x.inv()
            if y in H:
                total += chi.values[h_classes.class_index(y)]
        values.append(total / H.order)
    return ClassFunction(G, tuple(values), is_character=chi.is_character)


def trivial_character(G):
    return ClassFunction(G, tuple([1.0 + 0.0j] * conjugacy_classes(G).count),
                         is_character=True)


def complement(G, kappa, B):
    """A subgroup of G that kappa maps onto B one to one, or None.

    Such a subgroup holds a lift of each generator of B, and those lifts
    generate it; and lifts that generate a group of order |B| generate
    one that kappa maps onto B one to one.  So the search runs over the
    tuples of lifts of the generators.
    """
    lifts = [[g for g in G.elements if kappa[g] == b] for b in B.generators]
    for choice in itertools.product(*lifts):
        found = closure(list(choice))
        if len(found) == B.order:
            return found
    return None


def check_action_table(G, action, size):
    """Assert that action maps G homomorphically into Sym(size).

    The table must cover exactly G, each entry must be a bijection of
    0..size-1, the identity must act trivially, and action[x * s] must be
    action[x] composed with action[s], rightmost first, for every x in G
    and generator s, which makes it a homomorphism on all of G.
    """
    assert set(action) == set(G.elements), "table does not cover the group"
    image = {g: Perm(action[g]) for g in G.elements}
    assert all(p.degree == size for p in image.values()), "wrong degree"
    assert image[G.identity].is_identity(), "identity acts"
    for x in G.elements:
        for s in G.generators:
            assert image[x * s] == image[x] * image[s], (x, s)


def permutation_character(G, action, size):
    """Fixed-point character of a checked action of G on {0..size-1}."""
    check_action_table(G, action, size)
    values = []
    for rep in conjugacy_classes(G).reps:
        img = action[rep]
        values.append(complex(sum(1 for x in range(size) if img[x] == x)))
    return ClassFunction(G, tuple(values), is_character=True)


def assert_cocycle_axioms(c) -> None:
    """The textbook axioms of the 2-cocycle (alpha, w) of a Cocycle2.

    Each alpha_g is a bijective homomorphism of the base, alpha_e = 1 and
    w(e, e) = 1, alpha_g(alpha_h(b)) = w(g, h) alpha_gh(b) w(g, h)^-1
    for every b, and alpha_g(w(h, k)) w(g, hk) = w(g, h) w(gh, k).  All
    are read on elements by Perm products, with no automorphism composed
    as a permutation of indices.
    """
    B, Q = c.base, c.quotient
    one = Q.identity
    for g in Q.elements:
        images = [c.apply_alpha(g, b) for b in B.elements]
        assert sorted(images) == list(B.elements), ("not a bijection", g)
        for x, ax in zip(B.elements, images):
            for y, ay in zip(B.elements, images):
                assert c.apply_alpha(g, x * y) == ax * ay, \
                    ("not a homomorphism", g, x, y)
    assert all(c.apply_alpha(one, b) == b for b in B.elements)
    assert c.values[(one, one)] == B.identity
    for g in Q.elements:
        for h in Q.elements:
            w = c.values[(g, h)]
            assert w in B, ("value outside the base", g, h)
            for b in B.elements:
                assert c.apply_alpha(g, c.apply_alpha(h, b)) == \
                    w * c.apply_alpha(g * h, b) * w.inv(), \
                    ("composition law", g, h, b)
            for k in Q.elements:
                assert c.apply_alpha(g, c.values[(h, k)]) * \
                    c.values[(g, h * k)] == w * c.values[(g * h, k)], \
                    ("twisted associativity", g, h, k)


def trace(x):
    """The canonical trace of a group algebra element.

    It is the coefficient of the identity.
    """
    return x.coeffs.get(x.group.identity, 0.0)


def left_cosets(G, K):
    """Left cosets g K by a direct loop over G in Perm.sort_key order.

    The first element not yet assigned represents its coset, so the
    representatives are the coset minima, in increasing order.  Returns
    the representatives and the map from each element to its coset.
    """
    assigned = {}
    reps = []
    for g in sorted(G.elements, key=Perm.sort_key):
        if g in assigned:
            continue
        for h in K.elements:
            assigned[g * h] = len(reps)
        reps.append(g)
    return tuple(reps), assigned


def induced_monomials(G, K):
    """The block monomial matrix of every g induced from K.

    Returns {g: {(m, l): c}}.  With a_l the l-th representative of
    left_cosets, g a_l lies in the coset a_m K, and the entry of g at
    (m, l) is u_c with c = a_m^-1 g a_l; every other entry is zero.
    """
    reps, coset_of = left_cosets(G, K)
    out = {}
    for g in G.elements:
        matrix = out[g] = {}
        for l, a in enumerate(reps):
            m = coset_of[g * a]
            matrix[(m, l)] = reps[m].inv() * g * a
    return out


class GroupAlgebraElement:
    """A finitely supported function group -> C with convolution product.

    Products and the restriction to a subgroup only shuffle coefficients
    between disjoint supports, so equality tests on expand/reassemble
    round trips are exact even in floating point.
    """

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


def nested_expectation_entry(cosets, g, i_tuple, j_tuple):
    """Entry (i_tuple, j_tuple) of the amplified u_g in the group algebra.

    From the last coordinate backwards,
    y <- E_H(u_{g_{i_l}} * y * u_{g_{j_l}}^-1), starting from y = u_g,
    with honest group-algebra products.
    """
    G = cosets.group
    H = cosets.subgroup
    reps = cosets.reps
    from_perm = GroupAlgebraElement.from_perm
    y = from_perm(G, g)
    for l in range(len(i_tuple) - 1, -1, -1):
        left = from_perm(G, reps[i_tuple[l]])
        right = from_perm(G, reps[j_tuple[l]].inv())
        y = conditional_expectation(left * y * right, H)
    return y


def action_on_tuples(g, j_tuple, cosets, k=None):
    """The image tuple i with amplified-u_g entry (i, j) nonzero.

    Left action of G on index tuples: solving coset membership
    conditions from the last coordinate backwards gives each i_l
    uniquely.
    """
    j_tuple = tuple(j_tuple)
    if k is None:
        k = len(j_tuple)
    if len(j_tuple) != k:
        raise PreconditionError("tuple length must equal k")
    for i in j_tuple:
        if not 0 <= i < cosets.index:
            raise PreconditionError(
                "tuple entry %r outside coset range 0..%d" % (i, cosets.index - 1))
    if g not in cosets.group:
        raise PreconditionError("element is outside the ambient group")
    reps = cosets.reps
    ginv = g.inv()
    out = [0] * k
    suffix_j = cosets.group.identity
    suffix_i = cosets.group.identity
    for l in range(k - 1, -1, -1):
        suffix_j = reps[j_tuple[l]] * suffix_j
        idx = cosets.coset_index(suffix_j * ginv * suffix_i.inv())
        out[l] = idx
        suffix_i = reps[idx] * suffix_i
    return tuple(out)


def sparse_theta(theta, m):
    """ThetaMap.matrix form as {(i_tuple, j_tuple): u_w}, over L(H)."""
    H = theta.cosets.subgroup
    return {(theta.tuples[row], j): GroupAlgebraElement.from_perm(H, w)
            for j, (row, w) in zip(theta.tuples, m)}


def sparse_theta_product(m1, m2):
    """Product of two sparse amplified matrices ({(i, j): element})."""
    by_row = {}
    for (i, j), v in m2.items():
        by_row.setdefault(i, []).append((j, v))
    out = {}
    for (i, j), v in m1.items():
        for (jj, w) in by_row.get(j, []):
            prod = v * w
            if (i, jj) in out:
                prod = out[(i, jj)] + prod
            if prod.coeffs:
                out[(i, jj)] = prod
            else:
                out.pop((i, jj), None)
    return out


def rational_rank(rows):
    """Rank of a sparse matrix ({column: number} rows) over the rationals.

    Gaussian elimination with Fraction: each row is reduced at its least
    column by the pivot row kept for that column, and becomes a pivot
    row itself when no pivot row is kept there yet.
    """
    pivots = {}
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items() if v}
        while row:
            c = min(row)
            if c not in pivots:
                pivots[c] = row
                break
            piv = pivots[c]
            factor = row[c] / piv[c]
            for cc, vv in piv.items():
                nv = row.get(cc, Fraction(0)) - factor * vv
                if nv:
                    row[cc] = nv
                else:
                    row.pop(cc, None)
    return len(pivots)

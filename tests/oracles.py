"""Direct references that no sfw command needs.

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
sparse_theta and sparse_theta_product read an amplified matrix as a
sparse matrix over the group algebra and multiply two of them there, the
reference of the wreath-product form that ThetaMap.matrix returns.
"""

from __future__ import annotations

from sfw.chartab import ClassFunction, conjugacy_classes
from sfw.errors import PreconditionError, SubgroupError
from sfw.groupalgebra import GroupAlgebraElement
from sfw.permgroup import Perm
from sfw.wreath import verify_action_table


def closure(generators):
    """The set of all products of the generators, by Perm.__mul__ alone."""
    found = {Perm.identity(generators[0].degree)}
    frontier = found
    while frontier:
        frontier = {p * g for p in frontier for g in generators} - found
        found |= frontier
    return found


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


def permutation_character(G, action, size):
    """Fixed-point character of a verified action of G on {0..size-1}."""
    verify_action_table(G, action, size)
    values = []
    for rep in conjugacy_classes(G).reps:
        img = action[rep]
        values.append(complex(sum(1 for x in range(size) if img[x] == x)))
    return ClassFunction(G, tuple(values), is_character=True)


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

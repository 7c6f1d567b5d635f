"""Character-theory references that no sfw command needs.

Induction, permutation characters and the float inner product stay
here, outside the package, as the references of the Frobenius-reciprocity
tests, of the exact restriction multiplicities and of the
character-table route to relative commutant dimensions.
"""

from __future__ import annotations

from sfw.chartab import ClassFunction, conjugacy_classes
from sfw.errors import PreconditionError, SubgroupError
from sfw.permgroup import verify_action_table


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

"""Character-theory references that no sfw command needs.

Induction and permutation characters stay here, outside the package, as
the references of the Frobenius-reciprocity tests and of the
character-table route to relative commutant dimensions.
"""

from __future__ import annotations

from sfw.chartab import ClassFunction, conjugacy_classes
from sfw.errors import SubgroupError
from sfw.permgroup import verify_action_table


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

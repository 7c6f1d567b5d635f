"""Character tables, restriction, induction, permutation characters."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from sfw.chartab import (
    CLASS_CAP,
    ClassFunction,
    character_table,
    conjugacy_classes,
    restrict,
)
from sfw.errors import CapExceededError
from sfw.permgroup import (
    alternating_group,
    cyclic_group,
    parse_cycle_string,
    right_coset_data,
    symmetric_group,
)
import oracles
from oracles import (
    induce,
    inner_product,
    permutation_character,
    trivial_character,
)
from test_permgroup import inclusions


def perm(degree, text):
    return parse_cycle_string(degree, text)


def _degrees(G):
    return list(character_table(G).degrees)


def test_degrees_small_groups():
    assert _degrees(symmetric_group(3)) == [1, 1, 2]
    assert _degrees(symmetric_group(4)) == [1, 1, 2, 3, 3]
    assert _degrees(alternating_group(4)) == [1, 1, 1, 3]
    assert _degrees(cyclic_group(4)) == [1, 1, 1, 1]
    assert _degrees(cyclic_group(1)) == [1]


def test_degree_squares_sum_to_order():
    for G in (symmetric_group(3), symmetric_group(4), alternating_group(4),
              cyclic_group(6)):
        assert sum(d * d for d in _degrees(G)) == G.order


def test_regular_character_identity():
    """sum_chi chi(1) chi(g) is |G| at the identity and 0 elsewhere."""
    for G in (symmetric_group(3), alternating_group(4), cyclic_group(5)):
        tab = character_table(G)
        r = tab.classes.count
        for j in range(r):
            total = sum(d * chi.values[j]
                        for d, chi in zip(tab.degrees, tab.characters))
            expected = G.order if tab.classes.reps[j].is_identity() else 0.0
            assert abs(total - expected) < 1e-8


def test_cyclic_4_has_conjugate_pair():
    tab = character_table(cyclic_group(4))
    gen_class = tab.classes.class_index(perm(4, "(0 1 2 3)"))
    values = sorted(round(chi.values[gen_class].imag, 9)
                    for chi in tab.characters)
    assert values == [-1.0, 0.0, 0.0, 1.0]
    # every value is a 4th root of unity
    for chi in tab.characters:
        assert abs(chi.values[gen_class] ** 4 - 1.0) < 1e-8


def test_s3_table_values():
    G = symmetric_group(3)
    tab = character_table(G)
    classes = tab.classes
    j_id = classes.class_index(G.identity)
    j_2 = classes.class_index(perm(3, "(0 1)"))
    j_3 = classes.class_index(perm(3, "(0 1 2)"))
    rows = sorted(tuple(round(chi.values[j].real, 6) for j in (j_id, j_2, j_3))
                  for chi in tab.characters)
    assert rows == [(1.0, -1.0, 1.0), (1.0, 1.0, 1.0), (2.0, 0.0, -1.0)]


def test_trivial_index():
    for G in (symmetric_group(3), alternating_group(4)):
        tab = character_table(G)
        chi = tab.characters[tab.trivial_index()]
        assert all(abs(v - 1.0) < 1e-9 for v in chi.values)


def test_orthogonality_rows():
    for G in (symmetric_group(4), alternating_group(4)):
        tab = character_table(G)
        for a, fa in enumerate(tab.characters):
            for b, fb in enumerate(tab.characters):
                got = inner_product(fa, fb)
                assert got == (1 if a == b else 0)


def test_restrict_s3_regular_to_a3():
    G = symmetric_group(3)
    A3 = G.subgroup([perm(3, "(0 1 2)")])
    tab = character_table(G)
    a3_tab = character_table(A3)
    # the 2-dim character restricted to A3 splits into both nontrivial chars
    mults = restrict(tab, a3_tab)[tab.degrees.index(2)]
    triv = a3_tab.trivial_index()
    assert mults[triv] == 0
    assert sorted(mults) == [0, 1, 1]


def test_frobenius_reciprocity():
    """<Ind chi, psi>_G == <chi, Res psi>_H on every irreducible pair."""
    cases = [
        (symmetric_group(3), [perm(3, "(0 1)")]),
        (symmetric_group(3), [perm(3, "(0 1 2)")]),
        (symmetric_group(4), [perm(4, "(0 1 2)"), perm(4, "(0 1)")]),
        (alternating_group(4), [perm(4, "(0 1)(2 3)"), perm(4, "(0 2)(1 3)")]),
    ]
    for G, hgens in cases:
        H = G.subgroup(hgens)
        for chi in character_table(H).characters:
            ind = induce(chi, G)
            for psi in character_table(G).characters:
                lhs = inner_product(ind, psi)
                rhs = inner_product(chi, oracles.restrict(psi, H))
                assert lhs == rhs


@settings(derandomize=True, max_examples=60, deadline=None)
@given(inclusions())
def test_frobenius_reciprocity_on_random_subgroups(pair):
    G, H = pair
    g_chars = character_table(G).characters
    for chi in character_table(H).characters:
        ind = induce(chi, G)
        for psi in g_chars:
            assert inner_product(ind, psi) == inner_product(
                chi, oracles.restrict(psi, H))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(inclusions())
def test_exact_multiplicities_match_the_float_inner_product(pair):
    G, H = pair
    g_tab, h_tab = character_table(G), character_table(H)
    matrix = restrict(g_tab, h_tab)
    assert len(matrix) == g_tab.count
    for chi, degree, row in zip(g_tab.characters, g_tab.degrees, matrix):
        res = oracles.restrict(chi, H)
        assert list(row) == [inner_product(res, psi)
                             for psi in h_tab.characters]
        assert sum(m * d for m, d in zip(row, h_tab.degrees)) == degree


def test_induced_degree():
    G = symmetric_group(4)
    H = G.subgroup([perm(4, "(0 1 2)"), perm(4, "(0 1)")])
    for chi in character_table(H).characters:
        ind = induce(chi, G)
        # the identity's class comes first, so values[0] is the degree
        expected = (G.order // H.order) * chi.values[0]
        assert abs(ind.values[0] - expected) < 1e-8


def test_permutation_character_is_induced_trivial():
    G = symmetric_group(4)
    H = G.subgroup([perm(4, "(0 1 2)"), perm(4, "(0 1)")])
    cosets = right_coset_data(G, H)

    def act(g):
        return tuple(cosets.coset_index(cosets.reps[i] * g.inv())
                     for i in range(cosets.index))

    action = {g: act(g) for g in G.elements}
    chi = permutation_character(G, action, cosets.index)
    ind = induce(trivial_character(H), G)
    assert all(abs(a - b) < 1e-8 for a, b in zip(chi.values, ind.values))
    # contains the trivial character exactly once (transitive action)
    tab = character_table(G)
    assert inner_product(chi, tab.characters[tab.trivial_index()]) == 1


def test_permutation_character_natural_s4():
    G = symmetric_group(4)
    action = {g: g.images for g in G.elements}
    chi = permutation_character(G, action, 4)
    classes = conjugacy_classes(G)
    for j, rep in enumerate(classes.reps):
        assert chi.values[j] == 4 - len(rep.support())


def test_inner_product_non_characters_returns_complex():
    G = symmetric_group(3)
    tab = character_table(G)
    chi = tab.characters[tab.trivial_index()]
    f = ClassFunction(G, tuple(v * 0.5 for v in chi.values), is_character=False)
    got = inner_product(f, chi)
    assert isinstance(got, complex)
    assert abs(got - 0.5) < 1e-9


def test_class_cap_bounds_the_table_not_the_classes():
    G = cyclic_group(CLASS_CAP + 1)
    assert conjugacy_classes(G).count == CLASS_CAP + 1
    with pytest.raises(CapExceededError):
        character_table(G)

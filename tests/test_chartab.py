"""Character tables, restriction, induction, permutation characters."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from sfw import chartab
from sfw.chartab import (
    CLASS_CAP,
    ClassFunction,
    character_table,
    conjugacy_classes,
    restrict,
)
from sfw.errors import CapExceededError, InvariantViolationError
from sfw.permgroup import parse_cycle_string, right_coset_data
import oracles
from oracles import (
    alternating_group,
    cyclic_group,
    induce,
    inner_product,
    permutation_character,
    symmetric_group,
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


def test_a_table_without_its_trivial_character_has_no_trivial_index():
    tab = character_table(symmetric_group(3))
    trivial = tab.trivial_index()
    kept = [n for n in range(len(tab.characters)) if n != trivial]
    lost = tab._replace(
        characters=tuple(tab.characters[n] for n in kept))
    with pytest.raises(InvariantViolationError,
                       match="no trivial character found"):
        lost.trivial_index()


def test_orthogonality_rows():
    for G in (symmetric_group(4), alternating_group(4)):
        tab = character_table(G)
        for a, fa in enumerate(tab.characters):
            for b, fb in enumerate(tab.characters):
                got = inner_product(fa, fb)
                assert got == (1 if a == b else 0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(inclusions())
def test_columns_of_random_tables_are_orthogonal(pair):
    # the table checks its rows alone, which give the columns: sum_chi
    # chi(g_j) conj(chi(g_k)) = |G| / |C_j| delta_jk
    for G in pair:
        tab = character_table(G)
        sizes = tab.classes.sizes
        assert len(tab.characters) == len(sizes)
        for j, size in enumerate(sizes):
            for k in range(len(sizes)):
                total = sum(chi.values[j] * chi.values[k].conjugate()
                            for chi in tab.characters)
                assert abs(total - (G.order / size if j == k else 0)) < 1e-6


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


def test_restriction_rows_must_restrict_the_degree():
    # the degree-2 character of S3 with its value at the identity, its
    # degree, misread as 3: the multiplicities 0, 1, 1 on A3, read from
    # its spectra, meet the entry bound n psi(1) <= 3, but the
    # restriction has degree 2, not 3
    G = symmetric_group(3)
    A3 = G.subgroup([perm(3, "(0 1 2)")])
    tab = character_table(G)
    misread = tuple(chi._replace(values=(3,) + chi.values[1:])
                    if d == 2 else chi
                    for chi, d in zip(tab.characters, tab.degrees))
    with pytest.raises(InvariantViolationError,
                       match="restriction of a degree-3 character has "
                             "degree 2"):
        restrict(tab._replace(characters=misread), character_table(A3))


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
    assert len(matrix) == len(g_tab.characters)
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
    with pytest.raises(CapExceededError) as met:
        character_table(G)
    # no Config field raises this limit
    assert (met.value.field, met.value.limit) == (None,
                                                  "over the fixed limit 64")


# ---------------------------------------------------- internal consistency
#
# Each check of the table can fail only through a fault in sfw.  The
# fault is injected into a private step, and the table of a fresh S3 is
# computed without the cache: e = 6 and 4 |G| = 24 give p = 7, its
# classes are e, the transpositions and the 3-cycles, and its degrees
# are 1, 1 and 2.

def dropping_the_last_root(original):
    return lambda f, p: original(f, p)[:-1]


def splitting_nothing(original):
    return lambda basis, rows, p: [basis]


def doubling_the_fourier_rows(original):
    return lambda o, p, w: [[2 * x % p for x in row]
                            for row in original(o, p, w)]


def lines_made_by(change):
    """A wrapper of _common_lines that passes its lines through change."""
    def wrap(original):
        return lambda classes, p: change(original(classes, p))
    return wrap


@pytest.mark.parametrize("step, fault, message", [
    pytest.param("_roots", dropping_the_last_root,
                 "class matrix is not diagonalizable over GF(7)",
                 id="an-eigenvalue-lost"),
    pytest.param("_split", splitting_nothing,
                 "class matrices leave an eigenspace of dimension 3 mod 7",
                 id="no-space-split"),
    pytest.param("_fourier_rows", doubling_the_fourier_rows,
                 "eigenvalue multiplicities (2,) do not fit degree 1",
                 id="spectra-doubled"),
    pytest.param("_common_lines",
                 lines_made_by(lambda v: [[0] + v[0][1:]] + v[1:]),
                 "eigenvector vanishes at the identity class mod 7",
                 id="zero-at-the-identity"),
    pytest.param("_common_lines",
                 lines_made_by(lambda v: v[:-1] + [[1, 0, 0]]),
                 "no degree d <= sqrt(6) has d^2 = 6 mod 7",
                 id="no-character-line"),
    pytest.param("_common_lines", lines_made_by(lambda v: v + v[:1]),
                 "row orthogonality fails mod 7 at (0, 3)",
                 id="a-line-twice"),
    pytest.param("_common_lines", lines_made_by(lambda v: v[:-1]),
                 "degree squares sum to 2, expected 6",
                 id="a-line-lost"),
])
def test_a_fault_in_a_step_of_the_table_is_caught(monkeypatch, step, fault,
                                                  message):
    monkeypatch.setattr(chartab, step, fault(getattr(chartab, step)))
    with pytest.raises(InvariantViolationError) as excinfo:
        chartab._character_table(symmetric_group(3))
    assert str(excinfo.value) == message

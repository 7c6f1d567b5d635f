"""Theta maps, relative commutant dimensions, principal and dual graphs."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from sfw import groupalgebra, standard_invariant
from sfw.chartab import character_table
from sfw.config import DEFAULT
from sfw.corpus import builtin_cases, case_by_name
from sfw.errors import (
    CapExceededError,
    InvariantViolationError,
    PreconditionError,
)
from sfw.permgroup import (
    Perm,
    PermGroup,
    double_coset_data,
    parse_cycle_string,
    right_coset_data,
    symmetric_group,
)
from sfw.standard_invariant import (
    IN_GROUP,
    IN_SUBGROUP,
    SIDES,
    brute_force_commutant_dim,
    dual_principal_graph,
    principal_graph,
    relative_commutant_dim,
)
from sfw.theta import (
    ThetaMap,
    action_on_tuples,
    induced_theta,
    nested_theta_entry,
    stabilizer_matches_intersection,
    theta_matrix_product,
)
from oracles import (
    inner_product,
    permutation_character,
    restrict,
    sparse_theta,
    sparse_theta_product,
)
from test_permgroup import inclusions


def perm(degree, text):
    return parse_cycle_string(degree, text)


def vanishes(x):
    """x is the zero element of the group algebra."""
    return not x.coeffs


def all_tuples(n, k):
    out = [()]
    for _ in range(k):
        out = [t + (i,) for t in out for i in range(n)]
    return out


def oracle_fits(case, k):
    t = case.subgroup.order * case.index ** k
    return case.group.order * t <= DEFAULT.oracle_cap


# ---------------------------------------------------------------- theta maps


def test_theta_values_by_hand():
    # S3 over <(0 1)>: representatives (), (0 2), (1 2).  For g = (0 1) the
    # entry at row (1 2), column (0 2) is (1 2)(0 1)(0 2) = (0 1) itself, and
    # the entry at row (), column (0 2) falls outside the subgroup.
    case = case_by_name("s3-flip")
    cosets = right_coset_data(case.group, case.subgroup)
    g = perm(3, "(0 1)")
    theta = ThetaMap(cosets, 1)
    row, w = theta.matrix(g)[theta.tuples.index((1,))]
    assert theta.tuples[row] == (2,)
    assert w == perm(3, "(0 1)")
    assert vanishes(nested_theta_entry(cosets, g, (0,), (1,)))
    # Depth two: representative products telescope, the survivor at
    # ((2, 2), (1, 1)) is again (0 1).
    theta = ThetaMap(cosets, 2)
    row, w = theta.matrix(g)[theta.tuples.index((1, 1))]
    assert theta.tuples[row] == (2, 2)
    assert w == perm(3, "(0 1)")
    assert vanishes(nested_theta_entry(cosets, g, (0, 0), (1, 1)))


def test_action_identity_and_composition():
    rng = random.Random(7001)
    for case in builtin_cases():
        G = case.group
        cosets = right_coset_data(G, case.subgroup)
        e = G.elements[0]
        for k in (1, 2):
            tuples = all_tuples(len(cosets.reps), k)
            for t in tuples:
                assert action_on_tuples(e, t, cosets) == t
            for _ in range(10):
                g = G.elements[rng.randrange(G.order)]
                h = G.elements[rng.randrange(G.order)]
                t = tuples[rng.randrange(len(tuples))]
                via_h = action_on_tuples(h, t, cosets)
                lhs = action_on_tuples(g, via_h, cosets)
                rhs = action_on_tuples(g * h, t, cosets)
                assert lhs == rhs


def test_action_at_depth_one_is_right_coset_multiplication():
    for case in builtin_cases():
        cosets = right_coset_data(case.group, case.subgroup)
        for g in case.group.elements:
            for j, rep in enumerate(cosets.reps):
                (i,) = action_on_tuples(g, (j,), cosets)
                assert cosets.coset_index(rep * g.inv()) == i


def test_theta_matrix_shape_and_consistency():
    # Every matrix entry, and a sample of the entries off the support,
    # must equal the nested-expectation reference.
    rng = random.Random(7002)
    for case in builtin_cases():
        G = case.group
        cosets = right_coset_data(G, case.subgroup)
        for k in (1, 2):
            if not oracle_fits(case, k):
                continue
            theta = ThetaMap(cosets, k)
            tuples = all_tuples(len(cosets.reps), k)
            assert list(theta.tuples) == tuples
            for _ in range(50):
                g = G.elements[rng.randrange(G.order)]
                mat = sparse_theta(theta, theta.matrix(g))
                assert len(mat) == len(tuples)
                for (i_t, j_t), val in mat.items():
                    assert i_t == action_on_tuples(g, j_t, cosets)
                    assert val == nested_theta_entry(cosets, g, i_t, j_t)
                    assert not vanishes(val)
                # A sample of off-pattern entries vanish.
                for _ in range(5):
                    i_t = tuples[rng.randrange(len(tuples))]
                    j_t = tuples[rng.randrange(len(tuples))]
                    if i_t != action_on_tuples(g, j_t, cosets):
                        assert (i_t, j_t) not in mat
                        val = nested_theta_entry(cosets, g, i_t, j_t)
                        assert vanishes(val)


def test_theta_production_path_never_reaches_the_nested_route(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("production path reached the nested route")

    monkeypatch.setattr("sfw.theta.nested_theta_entry", forbidden)
    # theta reaches it as groupalgebra.conditional_expectation
    monkeypatch.setattr(groupalgebra, "conditional_expectation", forbidden)
    for case in builtin_cases():
        G = case.group
        cosets = right_coset_data(G, case.subgroup)
        for k in (1, 2):
            theta = ThetaMap(cosets, k)
            for g in G.generators:
                for j_t, (row, w) in zip(theta.tuples, theta.matrix(g)):
                    i_t = theta.tuples[row]
                    assert w == (theta.rep_product(i_t) * g
                                 * theta.rep_product(j_t).inv())
                    assert action_on_tuples(g, j_t, cosets, k) == i_t
        induced_theta(G, case.subgroup)


def test_theta_matrix_takes_three_products_per_column(monkeypatch):
    # S6 > <(0 1)> has t = 360 cosets.  One product per coset moves the
    # suffix cosets for the whole matrix and each entry takes two; a
    # tuple action per column took six, 43,200 products for these 20.
    G = symmetric_group(6)
    H = PermGroup(6, [parse_cycle_string(6, "(0 1)")])
    theta = ThetaMap(right_coset_data(G, H), 1)
    elements = G.elements[:20]
    products = 0
    mul = Perm.__mul__

    def counted(p, q):
        nonlocal products
        products += 1
        return mul(p, q)

    monkeypatch.setattr(Perm, "__mul__", counted)
    for g in elements:
        theta.matrix(g)
    assert products <= 3 * theta.cosets.index * len(elements)


def test_theta_is_multiplicative():
    rng = random.Random(7003)
    for name in ("s3-flip", "s3-a3", "s4-s3", "a4-v4"):
        case = case_by_name(name)
        G = case.group
        cosets = right_coset_data(G, case.subgroup)
        for k in (1, 2):
            if not oracle_fits(case, k):
                continue
            theta = ThetaMap(cosets, k)
            for _ in range(10):
                g = G.elements[rng.randrange(G.order)]
                h = G.elements[rng.randrange(G.order)]
                prod = theta_matrix_product(theta.matrix(g), theta.matrix(h))
                assert prod == theta.matrix(g * h)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(inclusions(), st.data())
def test_wreath_form_matches_the_sparse_group_algebra_reference(pair, data):
    G, H = pair
    cosets = right_coset_data(G, H)
    pick = st.integers(0, G.order - 1)
    g, h = (G.elements[data.draw(pick)] for _ in range(2))
    for k in (1, 2):
        # the nested reference takes k expectations per column
        if cosets.index ** k > 400:
            continue
        theta = ThetaMap(cosets, k)
        mg, mh = theta.matrix(g), theta.matrix(h)
        rows = {j: action_on_tuples(g, j, cosets) for j in theta.tuples}
        want = {(i, j): nested_theta_entry(cosets, g, i, j)
                for j, i in rows.items()}
        assert sparse_theta(theta, mg) == want
        product = sparse_theta(theta, theta_matrix_product(mg, mh))
        assert product == sparse_theta_product(sparse_theta(theta, mg),
                                               sparse_theta(theta, mh))
        assert product == sparse_theta(theta, theta.matrix(g * h))


def test_theta_rejects_bad_input():
    case = case_by_name("s3-flip")
    cosets = right_coset_data(case.group, case.subgroup)
    g = perm(3, "(0 1)")
    with pytest.raises(PreconditionError):
        action_on_tuples(g, (0,), cosets, 2)
    with pytest.raises(PreconditionError):
        action_on_tuples(g, (99,), cosets)
    case = case_by_name("a4-v4")
    cosets = right_coset_data(case.group, case.subgroup)
    # an odd permutation, and a permutation of another degree
    for outsider in (perm(4, "(0 1)"), perm(3, "(0 1)")):
        with pytest.raises(PreconditionError):
            action_on_tuples(outsider, (0,), cosets)
        with pytest.raises(PreconditionError):
            ThetaMap(cosets, 1).matrix(outsider)
    with pytest.raises(CapExceededError):
        ThetaMap(cosets, DEFAULT.theta_k_cap + 1)


def test_theta_matrix_honours_a_raised_k_cap():
    case = case_by_name("s3-a3")
    cosets = right_coset_data(case.group, case.subgroup)
    k = DEFAULT.theta_k_cap + 1
    theta = ThetaMap(cosets, k, DEFAULT.replace(theta_k_cap=k))
    g = perm(3, "(0 1)")
    mat = sparse_theta(theta, theta.matrix(g))
    assert len(mat) == 2 ** k
    for (i_t, j_t), val in mat.items():
        assert val == nested_theta_entry(cosets, g, i_t, j_t)


# ------------------------------------------------- relative commutant sizes


def test_commutant_dims_against_hand_values():
    dims = {}
    for name in ("s3-flip", "s4-s3"):
        case = case_by_name(name)
        G, H = case.group, case.subgroup
        row = []
        for k in (1, 2, 3):
            row.append(relative_commutant_dim(G, H, H, k, IN_SUBGROUP))
            row.append(relative_commutant_dim(G, H, H, k, IN_GROUP))
        dims[name] = tuple(row)
    assert dims["s3-flip"] == (2, 5, 14, 41, 122, 365)
    assert dims["s4-s3"] == (2, 5, 15, 51, 187, 715)


def test_commutant_dim_equals_brute_force():
    for case in builtin_cases():
        G, H = case.group, case.subgroup
        for G0 in (H, G):
            for side in (IN_SUBGROUP, IN_GROUP):
                fast = relative_commutant_dim(G, G0, H, 1, side)
                slow = brute_force_commutant_dim(G, G0, H, 1, side)
                assert fast == slow
    # Depth two where the cap allows the dense kernel computation.
    case = case_by_name("s3-flip")
    G, H = case.group, case.subgroup
    for side in (IN_SUBGROUP, IN_GROUP):
        assert relative_commutant_dim(G, H, H, 2, side) == brute_force_commutant_dim(
            G, H, H, 2, side
        )


def tuple_character(G0, cosets, k):
    """Permutation character of G0 on k-tuples, from an action table.

    The only 0-tuple is fixed by every element, so k = 0 gives the
    trivial character.
    """
    tuples = list(itertools.product(range(cosets.index), repeat=k))
    number = {tu: n for n, tu in enumerate(tuples)}
    table = {g: tuple(number[action_on_tuples(g, tu, cosets)] if tu else 0
                      for tu in tuples)
             for g in G0.elements}
    return permutation_character(G0, table, len(tuples))


def character_table_dim(G, G0, H, k, side):
    """The commutant dimension from the character table of G0.

    With chi_j the permutation character of G0 on j-tuples, the dimension
    is <chi_k, chi_k> on the group side and <chi_k, chi_{k-1}> on the
    subgroup side, expanded over the irreducible characters.
    """
    cosets = right_coset_data(G, H)
    chi = tuple_character(G0, cosets, k)
    psi = chi if side == IN_GROUP else tuple_character(G0, cosets, k - 1)
    return sum(inner_product(chi, irr) * inner_product(psi, irr)
               for irr in character_table(G0).characters)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(inclusions())
def test_commutant_dim_matches_oracle_and_character_table(pair):
    G, H = pair
    t = G.order // H.order
    for k in (1, 2):
        # the oracle solves for up to t^(2k) unknowns, so bound that
        # rather than its own |G| * t^k
        if G.order * t ** (2 * k) > DEFAULT.oracle_cap:
            break
        for G0 in (H, G):
            for side in SIDES:
                dim = relative_commutant_dim(G, G0, H, k, side)
                assert dim == brute_force_commutant_dim(G, G0, H, k, side)
                assert dim == character_table_dim(G, G0, H, k, side)


def test_commutant_dim_builds_no_character_table():
    G = symmetric_group(4)
    H = G.subgroup([perm(4, "(0 1 2)"), perm(4, "(0 1)")])
    dims = [relative_commutant_dim(G, G0, H, k, side)
            for G0 in (H, G) for k in (1, 2, 3) for side in SIDES]
    assert dims == [2, 5, 15, 51, 187, 715, 1, 2, 5, 15, 51, 187]
    for X in (G, H):
        assert not [key for key in X._cache
                    if key == "conjugacy_classes"
                    or (isinstance(key, tuple) and key[0] == "character_table")]


def path_count_dims(graph, steps):
    """Sum-of-squares path counts from the base vertex, one value per step."""
    B = [[0] * len(graph.odd) for _ in graph.even]
    for i, j, m in graph.edges:
        B[i][j] += m
    start = [1 if v.label == graph.designated else 0 for v in graph.even]
    vec, on_even, out = start, True, []
    for _ in range(steps):
        if on_even:
            vec = [
                sum(B[i][j] * vec[i] for i in range(len(graph.even)))
                for j in range(len(graph.odd))
            ]
        else:
            vec = [
                sum(B[i][j] * vec[j] for j in range(len(graph.odd)))
                for i in range(len(graph.even))
            ]
        on_even = not on_even
        out.append(sum(x * x for x in vec))
    return out


def test_commutant_dims_match_graph_path_counts():
    # Walks on the principal graph starting at the base vertex enumerate the
    # tower of relative commutants over the subgroup side; walks on the dual
    # graph enumerate the tower over the group side.
    for case in builtin_cases():
        G, H = case.group, case.subgroup
        sub_tower = path_count_dims(principal_graph(G, H), 6)
        grp_tower = path_count_dims(dual_principal_graph(G, H), 6)
        for k in (1, 2):
            if not oracle_fits(case, k):
                continue
            assert relative_commutant_dim(G, H, H, k, IN_SUBGROUP) == sub_tower[2 * k - 1]
            assert relative_commutant_dim(G, H, H, k, IN_GROUP) == sub_tower[2 * k]
            assert relative_commutant_dim(G, G, H, k, IN_SUBGROUP) == grp_tower[2 * k - 2]
            assert relative_commutant_dim(G, G, H, k, IN_GROUP) == grp_tower[2 * k - 1]


def test_depth_one_subgroup_side_counts_double_cosets():
    for case in builtin_cases():
        G, H = case.group, case.subgroup
        dim = relative_commutant_dim(G, H, H, 1, IN_SUBGROUP)
        assert dim <= case.index + 1


def test_commutant_rejects_bad_side():
    case = case_by_name("s3-flip")
    with pytest.raises(PreconditionError):
        relative_commutant_dim(case.group, case.subgroup, case.subgroup, 1, "sideways")
    with pytest.raises(PreconditionError):
        relative_commutant_dim(case.group, case.subgroup, case.subgroup, 0, IN_GROUP)


def test_stabilizers_match_intersections():
    for case in builtin_cases():
        assert stabilizer_matches_intersection(case.group, case.subgroup)


# ------------------------------------------------------------------- graphs


def test_principal_graph_of_s3_flip_is_the_five_vertex_path():
    case = case_by_name("s3-flip")
    g = principal_graph(case.group, case.subgroup)
    assert [v.label for v in g.even] == ["K1:chi0", "K1:chi1", "K2:chi0"]
    assert [v.label for v in g.odd] == ["H:chi0", "H:chi1"]
    assert g.edges == ((0, 0, 1), (1, 1, 1), (2, 0, 1), (2, 1, 1))
    assert g.designated == "K1:chi1"
    assert g.marked_odd == "H:chi1"
    assert g.norm_squared == 3.0
    # Path shape: every vertex has degree at most two, exactly two ends.
    degs = [sum(m for e, _, m in g.edges if e == i) for i in range(len(g.even))]
    degs += [sum(m for _, o, m in g.edges if o == j) for j in range(len(g.odd))]
    assert sorted(degs) == [1, 1, 2, 2, 2]


def test_dual_graph_of_s3_flip_is_the_five_vertex_path():
    case = case_by_name("s3-flip")
    g = dual_principal_graph(case.group, case.subgroup)
    assert [v.label for v in g.even] == ["G:chi0", "G:chi1", "G:chi2"]
    assert [(v.label, v.degree) for v in g.even] == [
        ("G:chi0", 1),
        ("G:chi1", 1),
        ("G:chi2", 2),
    ]
    assert [v.label for v in g.odd] == ["H:chi0", "H:chi1"]
    assert g.edges == ((0, 0, 1), (1, 1, 1), (2, 0, 1), (2, 1, 1))
    assert g.designated == "G:chi1"
    assert g.norm_squared == 3.0


def test_principal_graph_of_a4_v4_is_a_three_pointed_star():
    case = case_by_name("a4-v4")
    g = principal_graph(case.group, case.subgroup)
    assert [v.label for v in g.even] == ["K1:chi3", "K2:chi3", "K3:chi3"]
    assert [v.label for v in g.odd] == ["H:chi3"]
    assert g.edges == ((0, 0, 1), (1, 0, 1), (2, 0, 1))
    assert g.norm_squared == 3.0


def test_graph_norms_equal_the_index():
    for case in builtin_cases():
        for build in (principal_graph, dual_principal_graph):
            g = build(case.group, case.subgroup)
            assert g.norm_squared == case.index


def test_graphs_are_connected_from_the_designated_vertex():
    for case in builtin_cases():
        for build in (principal_graph, dual_principal_graph):
            g = build(case.group, case.subgroup)
            adj = {v.label: set() for v in list(g.even) + list(g.odd)}
            for i, j, _ in g.edges:
                a, b = g.even[i].label, g.odd[j].label
                adj[a].add(b)
                adj[b].add(a)
            seen, frontier = {g.designated}, [g.designated]
            while frontier:
                nxt = []
                for lbl in frontier:
                    for other in adj[lbl]:
                        if other not in seen:
                            seen.add(other)
                            nxt.append(other)
                frontier = nxt
            assert seen == set(adj)


def test_graph_dimension_bookkeeping():
    # Multiplicities weighted by degrees reconstruct degrees on both sides of
    # the restriction pairing: summed over an odd vertex's edges into one even
    # group block they give back the odd degree.
    for case in builtin_cases():
        g = principal_graph(case.group, case.subgroup)
        blocks = sorted({v.group_index for v in g.even})
        for j, odd in enumerate(g.odd):
            for block in blocks:
                total = sum(
                    m * g.even[i].degree
                    for i, jj, m in g.edges
                    if jj == j and g.even[i].group_index == block
                )
                if total:
                    assert total == odd.degree


def pairwise_graph(G, H, kind):
    """A graph built pair by pair, by the float inner product of an
    oracle restriction.

    Vertices and edges are laid out as principal_graph and
    dual_principal_graph lay them out, and the same component and norm
    certificate step finishes the graph.
    """
    h_tab = character_table(H)
    odd = [standard_invariant.GraphVertex("H:chi%d" % j, 0, j, d)
           for j, d in enumerate(h_tab.degrees)]
    if kind == "dual":
        g_tab = character_table(G)
        even = [standard_invariant.GraphVertex("G:chi%d" % j, 0, j, d)
                for j, d in enumerate(g_tab.degrees)]
        edges = [(e, o, inner_product(restrict(chi, H), psi))
                 for e, chi in enumerate(g_tab.characters)
                 for o, psi in enumerate(h_tab.characters)]
        designated = g_tab.trivial_index()
    else:
        even, edges, designated = [], [], None
        for i, K in enumerate(double_coset_data(G, H).stabilizers):
            k_tab = character_table(K)
            for j, rho in enumerate(k_tab.characters):
                if i == 0 and j == k_tab.trivial_index():
                    designated = len(even)
                edges += [(len(even), o,
                           inner_product(restrict(psi, K), rho))
                          for o, psi in enumerate(h_tab.characters)]
                even.append(standard_invariant.GraphVertex(
                    "K%d:chi%d" % (i + 1, j), i, j, k_tab.degrees[j]))
    return standard_invariant._assemble_graph(
        even, odd, edges, designated, h_tab.trivial_index(),
        G.order // H.order)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(inclusions())
def test_graphs_match_the_pairwise_reference(pair):
    G, H = pair
    for kind, build in (("principal", principal_graph),
                        ("dual", dual_principal_graph)):
        graph = build(G, H)
        assert graph == pairwise_graph(G, H, kind)
        assert graph.norm_squared == G.order // H.order


def test_dual_graph_checks_the_subgroup_once_per_pair(monkeypatch):
    # the restriction matrix, and the subgroup check with it, is kept
    # per (G, H): the graph's own check and the matrix's make two,
    # whatever the number of characters
    S5 = symmetric_group(5)
    S4 = S5.subgroup([perm(5, "(0 1 2 3)"), perm(5, "(0 1)")])
    calls = []
    is_subgroup_of = PermGroup.is_subgroup_of

    def counted(self, other):
        calls.append((self.order, other.order))
        return is_subgroup_of(self, other)

    monkeypatch.setattr(PermGroup, "is_subgroup_of", counted)
    dual_principal_graph(S5, S4)
    assert len(character_table(S5).characters) == 7
    assert calls == [(24, 120), (24, 120)]


def test_norm_certificate_rejects_a_raised_edge():
    # Raising any one multiplicity makes B^T B d exceed [G:H] d at the
    # odd end of that edge, so the Perron certificate must fail there.
    for case in builtin_cases():
        for build in (principal_graph, dual_principal_graph):
            g = build(case.group, case.subgroup)
            designated = [v.label for v in g.even].index(g.designated)
            marked = [v.label for v in g.odd].index(g.marked_odd)
            assert standard_invariant._assemble_graph(
                g.even, g.odd, g.edges, designated, marked,
                case.index) == g
            for n, (e, o, m) in enumerate(g.edges):
                edges = list(g.edges)
                edges[n] = (e, o, m + 1)
                with pytest.raises(InvariantViolationError):
                    standard_invariant._assemble_graph(
                        g.even, g.odd, edges, designated, marked,
                        case.index)

"""Permutation core: composition convention, enumeration, cosets, Aut, wreath."""

from __future__ import annotations

import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from sfw.automorphisms import automorphism_group, normal_core
from sfw.chartab import character_table
from sfw.cocycle import crossed_product_check
from sfw.config import Config
from sfw.corpus import declared_group
from sfw import automorphisms, chartab, permgroup, wreath
from sfw.errors import (CapExceededError,
                        InvariantViolationError, ParseError,
                        PreconditionError, SubgroupError)
from sfw.permgroup import (
    Perm,
    PermGroup,
    conjugacy_classes,
    double_coset_data,
    parse_cycle_string,
    right_coset_data,
)
from sfw.standard_invariant import (IN_SUBGROUP, brute_force_commutant_dim,
                                    dual_principal_graph, principal_graph,
                                    relative_commutant_dim)
from sfw.theta import induced_theta
from sfw.wreath import verify_wreath_like, wreath_product

import oracles
from oracles import alternating_group, cyclic_group, symmetric_group


def perm(degree, text):
    return parse_cycle_string(degree, text)


def test_composition_is_rightmost_first():
    a = perm(3, "(0 1)")
    b = perm(3, "(1 2)")
    # (a*b)(x) = a(b(x)): 0->0->1? no: b(0)=0, a(0)=1
    assert (a * b).images == (1, 2, 0)
    assert (b * a).images == (2, 0, 1)
    assert (a * b) == perm(3, "(0 1 2)")


def test_perm_basics():
    p = perm(4, "(0 1 2 3)")
    assert p.inv() * p == Perm.identity(4)
    assert p.order() == 4
    assert p.cycle_string() == "(0 1 2 3)"
    assert perm(4, "(0 1)(2 3)").cycle_string() == "(0 1)(2 3)"
    assert Perm.identity(4).cycle_string() == "()"
    assert parse_cycle_string(4, "()").is_identity()
    with pytest.raises(ValueError):
        Perm((0, 0, 1))
    with pytest.raises(ParseError):
        parse_cycle_string(3, "(0 5)")
    with pytest.raises(ParseError):
        parse_cycle_string(3, "0 1)")


def test_a_perm_rejects_boolean_images():
    # True and False are the ints 1 and 0 to isinstance
    with pytest.raises(ValueError):
        Perm((True, False, 2))
    with pytest.raises(ValueError):
        Perm((False,))


def test_cycle_string_roundtrip_random():
    rng = random.Random(7)
    for _ in range(200):
        images = list(range(6))
        rng.shuffle(images)
        p = Perm(images)
        assert parse_cycle_string(6, p.cycle_string()) == p


def test_hash_equality_and_order_are_those_of_the_images():
    rng = random.Random(11)
    perms = []
    for _ in range(60):
        images = list(range(5))
        rng.shuffle(images)
        perms.append(Perm(images))
    for p in perms:
        assert hash(p) == hash(p.images)
        assert p.images == tuple(p[x] for x in range(5))
        assert type(p.images) is tuple
        for q in perms:
            assert (p == q) == (p.images == q.images)
            assert (p != q) == (p.images != q.images)
            assert (p < q) == (p.images < q.images)
    assert sorted(perms) == sorted(perms, key=lambda p: p.images)
    assert len(set(perms)) == len({p.images for p in perms})


def test_products_are_only_between_perms():
    p = perm(3, "(0 1 2)")
    for make in (lambda: p * 2, lambda: 2 * p, lambda: p + p):
        with pytest.raises(TypeError):
            make()
    with pytest.raises(ValueError, match="degree mismatch"):
        p * Perm.identity(4)


def test_a_perm_is_one_operand_of_percent_formatting(monkeypatch):
    # a Perm is a tuple, which right of % would be spread over the
    # conversions; the stabilizer message formats one
    G, H = s4_over_s3()
    stabilizers_built_as(monkeypatch, lambda K: G)
    with pytest.raises(InvariantViolationError,
                       match=r"^stabilizer element Perm\[\(.*\)\] is outside "
                             r"the intersection$"):
        double_coset_data(G, H)


def test_degree_one_groups():
    # itemgetter with one index returns a scalar; degree 1 must not use it
    one = Perm((0,))
    assert permgroup.right_mul(one)(one) == one
    assert permgroup.conjugator(one)(one) == one
    assert [tuple(p) for p in permgroup.mulclose([one], 1)] == [(0,)]
    for G in (symmetric_group(1), cyclic_group(1), PermGroup(1, [one])):
        assert G.elements == (one,) and G.generators == (one,)
        H = G.subgroup([one])
        assert right_coset_data(G, H).reps == (one,)
        dc = double_coset_data(G, H)
        assert dc.reps == (one,) and dc.stabilizers == (H,)
        classes = conjugacy_classes(G)
        assert classes.reps == (one,) and classes.sizes == (1,)
        assert character_table(G).degrees == (1,)
        assert normal_core(G, H).order == 1
        assert len(principal_graph(G, H).even) == 1


def test_group_orders():
    assert symmetric_group(3).order == 6
    assert symmetric_group(4).order == 24
    assert alternating_group(4).order == 12
    assert cyclic_group(5).order == 5
    assert PermGroup(1, ()).order == 1


def test_identity_is_element_zero():
    for G in (symmetric_group(4), alternating_group(4), cyclic_group(6)):
        assert G.elements[0].is_identity()
        assert G.identity == Perm.identity(G.degree)


def test_order_divides_degree_factorial():
    import math

    for n in (2, 3, 4):
        G = symmetric_group(n)
        assert math.factorial(n) % G.order == 0
        A = alternating_group(n)
        assert math.factorial(n) % A.order == 0


def test_order_cap_enforced():
    with pytest.raises(CapExceededError):
        PermGroup(
            5,
            [perm(5, "(0 1 2 3 4)"), perm(5, "(0 1)")],
            Config(order_cap=100),
        )


def test_coset_data_s3():
    G = symmetric_group(3)
    H = G.subgroup([perm(3, "(0 1)")])
    cosets = right_coset_data(G, H)
    assert cosets.index == 3
    assert cosets.reps[0].is_identity()
    assert [r.cycle_string() for r in cosets.reps] == ["()", "(0 2)", "(1 2)"]
    assert {p.cycle_string() for p in cosets.coset_elements(1)} == {"(0 2)", "(0 2 1)"}
    assert {p.cycle_string() for p in cosets.coset_elements(2)} == {"(1 2)", "(0 1 2)"}


def test_with_reps_relabels_the_same_cosets():
    G = symmetric_group(4)
    H = G.subgroup([perm(4, "(0 1 2)"), perm(4, "(0 1)")])
    cosets = right_coset_data(G, H)
    # the identity, then the largest element of every other coset, in
    # reverse order
    reps = [G.identity] + [
        max(cosets.coset_elements(i), key=Perm.sort_key)
        for i in reversed(range(1, cosets.index))]
    relabelled = cosets.with_reps(reps)
    assert relabelled.reps == tuple(reps)
    assert relabelled.index == cosets.index
    for n, rep in enumerate(reps):
        cell = {h * rep for h in H.elements}
        assert cell == {x for x in G.elements
                        if relabelled.coset_index(x) == n}
    twice = perm(4, "(0 1)") * reps[1]
    assert cosets.coset_index(twice) == cosets.coset_index(reps[1])
    for bad in (reps[:-1],                      # a coset left out
                reps[:-1] + [twice],            # a coset twice
                reps[1:] + reps[:1],            # identity not first
                reps[:-1] + [perm(5, "(0 4)")]):  # outside the group
        with pytest.raises(PreconditionError):
            cosets.with_reps(bad)


def _coset_partition_oracle(G, H):
    """Independent partition of G by the relation x ~ y iff x*y^-1 in H."""
    cells = []
    left = list(G.elements)
    while left:
        x = left[0]
        cell = frozenset(y for y in G.elements if x * y.inv() in H)
        cells.append(cell)
        left = [y for y in left if y not in cell]
    return set(cells)


def _double_coset_oracle(G, H):
    cells = set()
    covered = set()
    for x in G.elements:
        if x in covered:
            continue
        cell = frozenset(h1 * x * h2 for h1 in H.elements for h2 in H.elements)
        cells.add(cell)
        covered |= cell
    return cells


def double_coset_sizes(H, dc):
    """|H g_i H| = |H|^2 / |K_i| for each double coset, in dc's order."""
    return [H.order ** 2 // K.order for K in dc.stabilizers]


CORPUS_PAIRS = [
    ("s3-transposition", lambda: (symmetric_group(3), [perm(3, "(0 1)")])),
    ("s3-a3", lambda: (symmetric_group(3), [perm(3, "(0 1 2)")])),
    ("s4-s3", lambda: (symmetric_group(4), [perm(4, "(0 1 2)"), perm(4, "(0 1)")])),
    ("s4-d4", lambda: (symmetric_group(4), [perm(4, "(0 1 2 3)"), perm(4, "(0 2)")])),
    ("a4-v4", lambda: (alternating_group(4), [perm(4, "(0 1)(2 3)"), perm(4, "(0 2)(1 3)")])),
]


@pytest.mark.parametrize("name,make", CORPUS_PAIRS)
def test_coset_partition_against_oracle(name, make):
    G, hgens = make()
    H = G.subgroup(hgens)
    cosets = right_coset_data(G, H)
    got = {frozenset(cosets.coset_elements(i)) for i in range(cosets.index)}
    assert got == _coset_partition_oracle(G, H)
    assert cosets.index * H.order == G.order
    # membership map agrees with the cells
    for i in range(cosets.index):
        for x in cosets.coset_elements(i):
            assert cosets.coset_index(x) == i


@pytest.mark.parametrize("name,make", CORPUS_PAIRS)
def test_double_cosets_against_oracle(name, make):
    G, hgens = make()
    H = G.subgroup(hgens)
    dc = double_coset_data(G, H)
    got = [frozenset(h1 * r * h2 for h1 in H.elements for h2 in H.elements)
           for r in dc.reps]
    assert set(got) == _double_coset_oracle(G, H)
    # the sizes the stabilizers give are the oracle's, and sum to |G|
    assert double_coset_sizes(H, dc) == [len(cell) for cell in got]
    assert sum(double_coset_sizes(H, dc)) == G.order
    for K in dc.stabilizers:
        assert K.is_subgroup_of(H)


@st.composite
def inclusions(draw):
    """A random subgroup G of S4, S5 or S6 and a random subgroup H of G."""
    n = draw(st.integers(4, 6))
    perms = st.permutations(range(n)).map(Perm)
    G = PermGroup(n, draw(st.lists(perms, min_size=1, max_size=2)))
    picks = st.lists(st.integers(0, G.order - 1), min_size=1, max_size=2)
    H = G.subgroup([G.elements[i] for i in draw(picks)])
    return G, H


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(3, 5).flatmap(lambda n: st.lists(
    st.lists(st.permutations(range(n)).map(Perm), min_size=1, max_size=2),
    min_size=2, max_size=2)))
def test_subgroup_test_on_generators_agrees_with_the_elements(gens):
    # is_subgroup_of tests only the generators of the smaller group
    A, B = (PermGroup(g[0].degree, g) for g in gens)
    assert A.is_subgroup_of(B) == set(A.elements).issubset(B.elements)
    assert B.is_subgroup_of(A) == set(B.elements).issubset(A.elements)


def test_stabilizers_of_a_normal_subgroup_are_the_subgroup():
    # H = C2^3 is normal in C2 wr S3, so all six stabilizers equal H and
    # are interned as H itself
    G = wreath_product(cyclic_group(2), symmetric_group(3)).group
    H = G.subgroup([perm(6, "(0 1)"), perm(6, "(2 3)"), perm(6, "(4 5)")])
    stabs = double_coset_data(G, H).stabilizers
    assert len(stabs) == 6
    assert all(K is H for K in stabs)


def count_stabilizer_closures(monkeypatch):
    """A list that gets one entry per PermGroup built by permgroup."""
    built, build = [], PermGroup

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(permgroup, "PermGroup", counting)
    return built


def test_an_orbit_of_one_coset_closes_no_stabilizer(monkeypatch):
    # every orbit of a normal subgroup on its cosets is one coset long,
    # which proves its stabilizer is the subgroup: nothing is closed
    G = wreath_product(cyclic_group(2), symmetric_group(3)).group
    H = G.subgroup([perm(6, "(0 1)"), perm(6, "(2 3)"), perm(6, "(4 5)")])
    right_coset_data(G, H)
    built = count_stabilizer_closures(monkeypatch)
    assert double_coset_data(G, H).stabilizers == (H,) * 6
    assert built == []


def test_a_longer_orbit_closes_its_stabilizer(monkeypatch):
    G, H = s4_over_s3()
    right_coset_data(G, H)
    built = count_stabilizer_closures(monkeypatch)
    # S3 fixes the coset of S3 and moves the other three together
    dc = double_coset_data(G, H)
    assert [K.order for K in dc.stabilizers] == [6, 2]
    assert len(built) == 1


@settings(derandomize=True, max_examples=100, deadline=None)
@given(inclusions())
def test_closures_match_plain_products_on_random_subgroups(pair):
    for X in pair:
        elements = permgroup.mulclose(X.generators, X.order)
        assert len(elements) == X.order
        assert set(elements) == oracles.closure(X.generators)
        assert all(type(p) is Perm for p in elements)
        assert list(X.elements) == sorted(elements)
        assert all(X.element_index(p) == i for i, p in enumerate(X))
    G = pair[0]
    if G.order > 1:
        with pytest.raises(CapExceededError):
            permgroup.mulclose(G.generators, G.order - 1)


@st.composite
def generator_images(draw):
    """A random group G of degree 1 to 5 and an image of each generator.

    The images are random permutations of one random degree, or the
    conjugates of the generators by a random element of G, or their
    conjugation perms of degree |G|.  The last two always define a
    homomorphism; random images mostly do not.
    """
    n = draw(st.integers(1, 5))
    G = PermGroup(n, draw(st.lists(st.permutations(range(n)).map(Perm),
                                   min_size=1, max_size=3)))
    gens = G.generators
    kind = draw(st.sampled_from(("random", "inner", "embedding")))
    if kind == "random":
        m = draw(st.integers(1, 4))
        images = draw(st.lists(st.permutations(range(m)).map(Perm),
                               min_size=len(gens), max_size=len(gens)))
    elif kind == "inner":
        g = G.elements[draw(st.integers(0, G.order - 1))]
        images = [g * s * g.inv() for s in gens]
    else:
        images = [automorphisms.conjugation_perm(G, s) for s in gens]
    return G, images


@settings(derandomize=True, max_examples=200, deadline=None)
@given(generator_images())
def test_homomorphisms_match_the_word_extension(drawn):
    G, images = drawn
    got = permgroup.homomorphism_from_images(G.generators, images, G.order)
    want = oracles.homomorphism_by_words(G.generators, images)
    assert (got is None) == (want is None)
    if want is not None:
        assert got == want
        assert all(type(x) is Perm and type(y) is Perm
                   for x, y in got.items())


def test_homomorphisms_on_one_point_and_on_the_trivial_group():
    one, swap = Perm((0,)), Perm((1, 0))
    hom = permgroup.homomorphism_from_images
    assert hom([one], [one], 1) == {one: one}
    assert hom([one], [swap], 1) is None
    trivial = PermGroup(3, ())
    assert hom(trivial.generators, [Perm.identity(5)], 1) == {
        trivial.identity: Perm.identity(5)}
    assert hom(trivial.generators, [perm(5, "(0 1)")], 1) is None
    # a generator of A4 of order 3 sent to a transposition
    A4 = alternating_group(4)
    assert hom(A4.generators, [perm(4, "(0 1)"), A4.generators[1]],
               A4.order) is None
    # the sign of S3, on two points
    S3 = symmetric_group(3)
    sign = hom(S3.generators, [Perm((0, 1)), swap], S3.order)
    assert [sign[g] == swap for g in S3] == [
        sum(len(c) - 1 for c in g.cycles()) % 2 == 1 for g in S3]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(inclusions())
def test_double_cosets_match_oracle_on_random_subgroups(pair):
    G, H = pair
    dc = double_coset_data(G, H)
    cells = _double_coset_oracle(G, H)
    cell_of = {x: cell for cell in cells for x in cell}
    assert {cell_of[r] for r in dc.reps} == cells
    assert dc.count == len(cells)
    # _double_cosets leaves these to the checks that decide them: the
    # coset partition gives the sum, orbit-stabilizer each size
    assert sum(double_coset_sizes(H, dc)) == G.order
    for r, K in zip(dc.reps, dc.stabilizers):
        assert r == min(cell_of[r], key=Perm.sort_key)
        assert len(cell_of[r]) * K.order == H.order * H.order
        conj = {r.inv() * h * r for h in H.elements}
        assert set(K.elements) == {h for h in H.elements if h in conj}
        # equal stabilizers are one object, and one equal to H is H
        assert all(L is K for L in dc.stabilizers if L == K)
        assert K is H or K != H
    assert dc.stabilizers[0] is H
    assert list(right_coset_data(G, H).coset_of) == list(G.elements)
    # the core is the largest subset of H closed under conjugation by G
    core, last = set(H.elements), None
    while core != last:
        last = core
        core = {x for x in core
                if all(s * x * s.inv() in core for s in G.generators)}
    assert set(normal_core(G, H).elements) == core


@settings(derandomize=True, max_examples=100, deadline=None)
@given(inclusions(), st.randoms(use_true_random=False))
def test_the_coset_action_is_a_right_action_on_random_subgroups(pair, rnd):
    G, H = pair
    cosets = right_coset_data(G, H)
    # another transversal: the identity, then a random element of every
    # other coset, in a random order
    others = [rnd.choice(cosets.coset_elements(i))
              for i in range(1, cosets.index)]
    rnd.shuffle(others)
    for data in (cosets, cosets.with_reps([G.identity] + others)):
        action = {g: data.action(g) for g in G.elements}
        for g, moved in action.items():
            assert moved == tuple(data.coset_of[r * g] for r in data.reps)
        assert action[G.identity] == tuple(range(data.index))
        # action(a * b)[i] == action(b)[action(a)[i]]
        for a in G.generators + H.generators:
            for b in G.elements:
                assert action[a * b] == tuple(action[b][c] for c in action[a])


def test_double_cosets_s7_s6_multiplication_count(monkeypatch):
    G = symmetric_group(7, Config(order_cap=10 ** 4))
    H = G.subgroup([perm(7, "(0 1 2 3 4 5)"), perm(7, "(0 1)")])
    calls = [0]
    mul = Perm.__mul__

    def counting_mul(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(Perm, "__mul__", counting_mul)
    dc = double_coset_data(G, H)
    assert double_coset_sizes(H, dc) == [720, 4320]
    assert calls[0] < 4 * G.order


def _group_and_derived_data():
    """Weak references to a group and subgroup whose caches are filled."""
    G = symmetric_group(4)
    H = G.subgroup([perm(4, "(0 1 2 3)"), perm(4, "(0 2)")])
    right_coset_data(G, H)
    double_coset_data(G, H)
    normal_core(G, H)
    principal_graph(G, H)
    relative_commutant_dim(G, H, H, 2, IN_SUBGROUP)
    for X in (G, H):
        conjugacy_classes(X)
        character_table(X)
    return weakref.ref(G), weakref.ref(H)


def test_cached_data_does_not_keep_groups_alive():
    refs = _group_and_derived_data()
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_double_cosets_s3_transposition():
    G = symmetric_group(3)
    H = G.subgroup([perm(3, "(0 1)")])
    dc = double_coset_data(G, H)
    assert dc.count == 2
    assert sorted(double_coset_sizes(H, dc)) == [2, 4]
    assert dc.stabilizers[0].order == 2
    assert dc.stabilizers[1].order == 1
    assert dc.reps[0].is_identity()


def test_double_cosets_s3_a3():
    G = symmetric_group(3)
    H = G.subgroup([perm(3, "(0 1 2)")])
    dc = double_coset_data(G, H)
    assert dc.count == 2
    assert double_coset_sizes(H, dc) == [3, 3]
    assert all(K.order == 3 for K in dc.stabilizers)


def test_double_cosets_s4_examples():
    G = symmetric_group(4)
    S3 = G.subgroup([perm(4, "(0 1 2)"), perm(4, "(0 1)")])
    dc = double_coset_data(G, S3)
    assert dc.count == 2
    assert sorted(K.order for K in dc.stabilizers) == [2, 6]
    D4 = G.subgroup([perm(4, "(0 1 2 3)"), perm(4, "(0 2)")])
    assert D4.order == 8
    dc = double_coset_data(G, D4)
    assert dc.count == 2
    assert sorted(K.order for K in dc.stabilizers) == [4, 8]


def test_normal_core():
    G = symmetric_group(4)
    D4 = G.subgroup([perm(4, "(0 1 2 3)"), perm(4, "(0 2)")])
    core = normal_core(G, D4)
    assert core.order == 4
    assert {p.cycle_string() for p in core.elements} == {
        "()", "(0 1)(2 3)", "(0 2)(1 3)", "(0 3)(1 2)"}
    A3 = symmetric_group(3).subgroup([perm(3, "(0 1 2)")])
    assert normal_core(symmetric_group(3), A3) == A3
    H = symmetric_group(3).subgroup([perm(3, "(0 1)")])
    assert normal_core(symmetric_group(3), H).order == 1


def test_subgroup_rejects_outsiders():
    G = alternating_group(4)
    with pytest.raises(SubgroupError):
        G.subgroup([perm(4, "(0 1)")])


@pytest.mark.parametrize("entry", [
    lambda G, H: G.subgroup(H.generators),
    right_coset_data,
    double_coset_data,
    lambda G, H: chartab.restrict(character_table(G), character_table(H)),
    principal_graph,
    dual_principal_graph,
    lambda G, H: relative_commutant_dim(G, G, H, 1, IN_SUBGROUP),
    lambda G, H: brute_force_commutant_dim(G, G, H, 1, IN_SUBGROUP),
    crossed_product_check,
    induced_theta,
    normal_core,
], ids=["subgroup", "right_cosets", "double_cosets", "restrict",
        "principal_graph", "dual_graph", "commutant_dim",
        "brute_force_commutant_dim", "crossed_product", "induced_theta",
        "normal_core"])
def test_every_entry_point_refuses_a_non_subgroup_with_one_message(entry):
    # <(0 1)> is no subgroup of A4, and each entry point says so through
    # permgroup.require_subgroup
    G = alternating_group(4)
    H = PermGroup(4, [perm(4, "(0 1)")])
    with pytest.raises(SubgroupError) as excinfo:
        entry(G, H)
    assert str(excinfo.value) == (
        "not a subgroup: degree 4 order 2 inside degree 4 order 12")


def test_conjugacy_partition_s4():
    G = symmetric_group(4)
    classes = conjugacy_classes(G)
    assert sorted(classes.sizes) == [1, 3, 6, 6, 8]
    assert classes.reps[0] == G.identity and classes.sizes[0] == 1


@settings(derandomize=True, max_examples=60, deadline=None)
@given(inclusions())
def test_conjugacy_classes_match_oracle_on_random_subgroups(pair):
    for X in pair:
        classes = conjugacy_classes(X)
        cells = oracles.conjugacy_cells(X)
        cell_of = {x: cell for cell in cells for x in cell}
        assert {cell_of[r] for r in classes.reps} == set(cells)
        assert classes.count == len(cells)
        for r, size in zip(classes.reps, classes.sizes):
            assert r == min(cell_of[r], key=lambda p: p.images)
            assert size == len(cell_of[r])
        keys = [(size, r.images) for r, size in zip(classes.reps,
                                                    classes.sizes)]
        assert keys == sorted(keys)
        assert classes.reps[0] == X.identity
        assert list(classes.class_of) == list(X.elements)
        for x, i in classes.class_of.items():
            assert type(x) is Perm
            assert x in cell_of[classes.reps[i]]


def test_center():
    assert len(symmetric_group(3).center()) == 1
    assert len(cyclic_group(6).center()) == 6
    D4 = symmetric_group(4).subgroup([perm(4, "(0 1 2 3)"), perm(4, "(0 2)")])
    assert len(D4.center()) == 2


# -- automorphisms ----------------------------------------------------------

def _aut_order_oracle(G):
    """Count all homomorphic bijections by unconstrained generator images."""
    from sfw.automorphisms import _reduced_generators

    gens = _reduced_generators(G)
    count = 0
    for images in itertools.product(G.elements, repeat=len(gens)):
        phi = {}
        # build words by BFS from the identity
        phi[G.identity] = G.identity
        frontier = [G.identity]
        ok = True
        while frontier:
            new = []
            for p in frontier:
                for g, img in zip(gens, images):
                    q = p * g
                    val = phi[p] * img
                    if q in phi:
                        if phi[q] != val:
                            ok = False
                            break
                    else:
                        phi[q] = val
                        new.append(q)
                if not ok:
                    break
            if not ok:
                break
            frontier = new
        if not ok or len(phi) != G.order:
            continue
        if len(set(phi.values())) != G.order:
            continue
        if all(phi[x * y] == phi[x] * phi[y] for x in G.elements for y in gens):
            count += 1
    return count


@pytest.mark.parametrize("make,aut_order,out_order", [
    (lambda: symmetric_group(3), 6, 1),
    (lambda: alternating_group(4), 24, 2),
    (lambda: cyclic_group(3), 2, 2),
])
def test_automorphism_group_orders(make, aut_order, out_order):
    G = make()
    data = automorphism_group(G)
    assert data.aut.order == aut_order
    assert data.out_cosets.index == out_order
    assert data.aut.order == _aut_order_oracle(G)
    assert data.inner.order * len(G.center()) == G.order
    assert data.inner.is_subgroup_of(data.aut)


def test_automorphisms_preserve_orders():
    G = alternating_group(4)
    data = automorphism_group(G)
    for a in data.aut.elements:
        for i, p in enumerate(G.elements):
            assert G.elements[a(i)].order() == p.order()


def test_automorphism_cap():
    with pytest.raises(CapExceededError):
        automorphism_group(symmetric_group(4), Config(aut_cap=10))


# -- wreath products --------------------------------------------------------

def test_wreath_z2_z3():
    A = cyclic_group(2)
    B = cyclic_group(3)
    data = wreath_product(A, B)
    G = data.group
    assert G.degree == 6
    assert G.order == 24
    assert len(data.base_copies) == 3
    base_gens = [g for A_i in data.base_copies for g in A_i.generators]
    base = G.subgroup(base_gens)
    assert base.order == 8
    verify_wreath_like(G, data.base_copies, data.kappa, B)


def test_wreath_along_a_faithful_action_table():
    # S3 acting on its three transpositions by conjugation: a faithful
    # action given as a table, which wreath_product takes as the
    # permutation group its images generate
    S3 = symmetric_group(3)
    points = [perm(3, c) for c in ("(0 1)", "(0 2)", "(1 2)")]
    table = {g: tuple(points.index(g * t * g.inv()) for t in points)
             for g in S3.elements}
    oracles.check_action_table(S3, table, 3)
    assert len(set(table.values())) == S3.order
    B = PermGroup(3, [Perm(table[g]) for g in S3.generators])
    assert set(B.elements) == set(map(Perm, table.values()))
    A = cyclic_group(2)
    data = wreath_product(A, B)
    assert data.group.order == A.order ** 3 * B.order
    verify_wreath_like(data.group, data.base_copies, data.kappa, B)


def test_wreath_z2_z2_is_dihedral():
    data = wreath_product(cyclic_group(2), cyclic_group(2))
    G = data.group
    assert G.order == 8
    hist = G.element_order_histogram()
    assert hist == {1: 1, 2: 5, 4: 2}


A4C4_INVOLUTIONS = ("(0 1)(2 3)", "(0 2)(1 3)", "(0 3)(1 2)")


def test_a4_by_c4_is_wreath_like_and_does_not_split():
    # copy i is <z v_i>, with z = (4 6)(5 7) and v_i an involution of V4,
    # and kappa(g) permutes the copies as conjugation by g does
    G, S3 = declared_group("A4C4"), declared_group("S3")
    assert (G.degree, G.order) == (8, 48)
    z = perm(8, "(4 6)(5 7)")
    copies = [G.subgroup([z * perm(8, v)]) for v in A4C4_INVOLUTIONS]
    found = [set(A.elements) for A in copies]
    kappa = {g: Perm([found.index({g * x * g.inv() for x in A.elements})
                      for A in copies])
             for g in G.elements}
    verify_wreath_like(G, copies, kappa, S3)
    # a complement would hold a lift of order 2 of each transposition
    swap = perm(3, "(0 1)")
    assert [g for g in G.elements if kappa[g] == swap and g.order() == 2] \
        == []
    assert oracles.complement(G, kappa, S3) is None
    # the split C2 wr S3 of the same order has one, permuting the blocks
    data = wreath_product(cyclic_group(2), S3)
    assert data.group.order == G.order
    C = oracles.complement(data.group, data.kappa, data.acting)
    assert len(C) == 6 and not any(data.kappa[c].is_identity()
                                   for c in C if not c.is_identity())


def c2_wr_c3():
    return wreath_product(cyclic_group(2), cyclic_group(3))


def test_verify_wreath_like_detects_bad_labeling():
    data = c2_wr_c3()
    # swap two copies without adjusting kappa: conjugation condition breaks
    bad_copies = (data.base_copies[1], data.base_copies[0], data.base_copies[2])
    turn = data.group.generators[-1]
    with pytest.raises(InvariantViolationError,
                       match="conjugation does not permute copies per kappa "
                             "at") as excinfo:
        verify_wreath_like(data.group, bad_copies, data.kappa, data.acting)
    assert excinfo.value.witness == (turn, 0)


def test_verify_wreath_like_detects_a_kappa_off_a_homomorphism():
    data = c2_wr_c3()
    G, B = data.group, data.acting
    turn = B.generators[0]
    # an element of the base, no generator, sent off the kernel
    g = next(g for g in sorted(G.elements, key=Perm.sort_key)
             if g not in G.generators and not g.is_identity()
             and data.kappa[g].is_identity())
    kappa = dict(data.kappa)
    kappa[g] = turn
    with pytest.raises(InvariantViolationError,
                       match="kappa is not a homomorphism") as excinfo:
        verify_wreath_like(G, data.base_copies, kappa, B)
    assert excinfo.value.witness == (g,)
    # a base generator of order 2 sent to the 3-cycle
    kappa = dict(data.kappa)
    kappa[G.generators[0]] = turn
    with pytest.raises(InvariantViolationError,
                       match="kappa is not a homomorphism") as excinfo:
        verify_wreath_like(G, data.base_copies, kappa, B)
    assert excinfo.value.witness is None


def test_an_acting_group_of_another_degree_is_a_fault():
    data = c2_wr_c3()
    with pytest.raises(InvariantViolationError,
                       match="^acting group of degree 4 on 3 copies$"):
        verify_wreath_like(data.group, data.base_copies, data.kappa,
                           cyclic_group(4))


def test_a_kappa_not_total_is_a_fault():
    data = c2_wr_c3()
    last = max(data.group.elements, key=Perm.sort_key)
    kappa = {g: b for g, b in data.kappa.items() if g != last}
    with pytest.raises(InvariantViolationError,
                       match="kappa is not a total map on the group at"
                       ) as excinfo:
        verify_wreath_like(data.group, data.base_copies, kappa, data.acting)
    assert excinfo.value.witness == (last,)


def test_a_kappa_not_onto_is_a_fault():
    # kappa lands in C3, which misses the transpositions of S3
    data = c2_wr_c3()
    with pytest.raises(InvariantViolationError,
                       match="kappa does not map onto the acting group at"
                       ) as excinfo:
        verify_wreath_like(data.group, data.base_copies, data.kappa,
                           symmetric_group(3))
    assert excinfo.value.witness == (perm(3, "(0 1)"),)


def test_a_copy_outside_the_group_is_a_fault():
    data = c2_wr_c3()
    # (0 2) mixes the blocks {0, 1} and {2, 3}
    copies = data.base_copies[:2] + (PermGroup(6, [perm(6, "(0 2)")]),)
    with pytest.raises(InvariantViolationError,
                       match="copy is not a subgroup at") as excinfo:
        verify_wreath_like(data.group, copies, data.kappa, data.acting)
    assert excinfo.value.witness == (2,)


def test_copies_short_of_the_kernel_are_a_fault():
    data = c2_wr_c3()
    first, second, _ = data.base_copies
    with pytest.raises(InvariantViolationError,
                       match="kernel of kappa differs from the span of the "
                             "copies at") as excinfo:
        verify_wreath_like(data.group, (first, second, first), data.kappa,
                           data.acting)
    # the least kernel element that the first two copies miss
    assert excinfo.value.witness == (perm(6, "(4 5)"),)


def test_copies_not_in_direct_sum_are_a_fault():
    data = c2_wr_c3()
    first, second, third = data.base_copies
    wide = data.group.subgroup(third.generators + first.generators)
    with pytest.raises(InvariantViolationError,
                       match="^copies are not in direct sum: orders 16 vs 8$"):
        verify_wreath_like(data.group, (first, second, wide), data.kappa,
                           data.acting)


def test_copies_that_do_not_commute_are_a_fault():
    # in S3 wr C2 the first copy and the diagonal S3 span the base, of
    # order 36 = 6 * 6, but a 3-cycle of one and a transposition of the
    # other do not commute
    data = wreath_product(symmetric_group(3), cyclic_group(2))
    diagonal = data.group.subgroup([perm(6, "(0 1 2)(3 4 5)"),
                                    perm(6, "(0 1)(3 4)")])
    first = data.base_copies[0]
    with pytest.raises(InvariantViolationError,
                       match="copies do not commute at") as excinfo:
        verify_wreath_like(data.group, (first, diagonal), data.kappa,
                           data.acting)
    assert excinfo.value.witness == (perm(6, "(0 1 2)"),
                                     perm(6, "(0 1)(3 4)"))


# ---------------------------------------------------- internal consistency
#
# Each check below can fail only through a fault in sfw, so it raises
# InvariantViolationError (exit 1), not an input error.  A fault is
# injected into fresh groups, so no cached data of other tests is touched.


def s4_over_s3():
    G = symmetric_group(4)
    return G, G.subgroup([perm(4, "(0 1)"), perm(4, "(0 1 2)")])


def test_a_corrupt_subgroup_order_breaks_the_coset_partition(monkeypatch):
    G, H = s4_over_s3()
    monkeypatch.setattr(H, "order", H.order + 1)
    with pytest.raises(InvariantViolationError) as e:
        right_coset_data(G, H)
    assert str(e.value) == ("coset partition inconsistent: 4 cosets of size "
                            "7 in order 24")


def stabilizers_built_as(monkeypatch, make):
    """Double cosets whose stabilizers K_i, i > 1, come from make(K_i)."""
    build = PermGroup

    def faulty(degree, generators, config):
        return make(build(degree, generators, config))

    monkeypatch.setattr(permgroup, "PermGroup", faulty)


def test_a_stabilizer_outside_the_intersection_is_a_fault(monkeypatch):
    G, H = s4_over_s3()
    stabilizers_built_as(monkeypatch, lambda K: G)
    with pytest.raises(InvariantViolationError,
                       match="outside the intersection"):
        double_coset_data(G, H)


def test_a_stabilizer_of_the_wrong_order_is_a_fault(monkeypatch):
    G, H = s4_over_s3()
    trivial = PermGroup(4, ())
    stabilizers_built_as(monkeypatch, lambda K: trivial)
    with pytest.raises(InvariantViolationError) as e:
        double_coset_data(G, H)
    assert str(e.value) == ("orbit of length 3 and stabilizer of order 1 "
                            "violate |H| = 6")


def test_an_automorphism_set_not_closed_is_a_fault(monkeypatch):
    # every automorphism found is encoded as the identity
    G = symmetric_group(3)
    monkeypatch.setattr(automorphisms, "automorphism_perm",
                        lambda group, phi: Perm.identity(group.order))
    with pytest.raises(InvariantViolationError) as e:
        automorphism_group(G)
    assert str(e.value) == "automorphism set is not closed"


def test_an_automorphism_set_generating_more_is_a_fault(monkeypatch):
    # the second automorphism found is encoded as a swap that moves the
    # identity, so the found set generates a group larger than itself
    G = symmetric_group(3)
    encode = automorphisms.automorphism_perm
    calls = []

    def encode_one_wrongly(group, phi):
        calls.append(phi)
        if len(calls) == 2:
            return Perm((1, 0) + tuple(range(2, group.order)))
        return encode(group, phi)

    monkeypatch.setattr(automorphisms, "automorphism_perm", encode_one_wrongly)
    with pytest.raises(InvariantViolationError) as e:
        automorphism_group(G)
    assert str(e.value) == ("the set is not closed: it generates more than 6 "
                            "elements")


def test_an_inner_automorphism_count_off_the_centre_is_a_fault(monkeypatch):
    # every inner automorphism is encoded as the identity
    G = symmetric_group(3)
    monkeypatch.setattr(automorphisms, "conjugation_perm",
                        lambda group, g: Perm.identity(group.order))
    with pytest.raises(InvariantViolationError) as e:
        automorphism_group(G)
    assert str(e.value) == "inner automorphism count violates |G/Z(G)|"

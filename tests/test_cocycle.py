"""Two-cocycles, outer-automorphism extensions, crossed product checks."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, strategies as st

from sfw import cocycle
from sfw.cocycle import (
    Cocycle2,
    _crossed_product_data,
    crossed_product_check,
    extension_from_out,
    subfactor_report_from_out,
    verify_cocycle,
)
from sfw.config import DEFAULT
from sfw.errors import (
    HomomorphismError,
    InvariantViolationError,
    NontrivialCenterError,
    NotNormalError,
    SubgroupError,
)
from sfw.automorphisms import automorphism_group, conjugation_perm
from sfw.permgroup import (
    Perm,
    PermGroup,
    alternating_group,
    conjugacy_classes,
    cyclic_group,
    parse_cycle_string,
    symmetric_group,
)


def perm(degree, text):
    return parse_cycle_string(degree, text)


def a4_extension():
    A4 = alternating_group(4)
    t = perm(4, "(0 1)")
    out = {x: t * x * t.inv() for x in A4.elements}
    return A4, extension_from_out(A4, [out])


# ------------------------------------------------------------- extensions


def test_a4_extension_has_order_24_and_index_2():
    A4, res = a4_extension()
    assert res.index == 2
    assert res.ambient.order == 24
    assert res.inner.order == 12
    assert res.quotient.order == 2
    assert res.fingerprint() == {1: 1, 2: 9, 3: 8, 4: 6}


def test_a4_extension_cocycle_is_verified_and_normalized():
    _, res = a4_extension()
    report = verify_cocycle(res.cocycle)
    assert report.ok, report.reason
    assert res.cocycle.is_normalized()
    identity = res.quotient.elements[0]
    trivial_action = Perm(tuple(range(res.base.order)))
    assert res.cocycle.alpha[identity] == trivial_action


def test_a4_subfactor_report():
    A4 = alternating_group(4)
    t = perm(4, "(0 1)")
    out = {x: t * x * t.inv() for x in A4.elements}
    res, report = subfactor_report_from_out(A4, [out])
    assert report.ok, report.reason
    assert report.index == 2
    assert report.outer_count == 1
    expected_pairs = res.quotient.order ** 2 + res.quotient.order * len(
        A4.generators
    )
    assert report.relation_pairs == expected_pairs
    crossed = crossed_product_check(res.ambient, res.inner)
    assert crossed.ok, crossed.reason


def test_empty_outer_data_gives_a_trivial_extension():
    S3 = symmetric_group(3)
    res, report = subfactor_report_from_out(S3, [])
    assert report.ok
    assert res.index == 1
    assert res.ambient.order == 6


def test_s3_times_s3_with_swap():
    gens = [perm(6, t) for t in ("(0 1)", "(0 1 2)", "(3 4)", "(3 4 5)")]
    G = PermGroup(6, gens)
    assert G.order == 36
    swap = perm(6, "(0 3)(1 4)(2 5)")
    out = {x: swap * x * swap.inv() for x in G.elements}
    res, report = subfactor_report_from_out(G, [out])
    assert report.ok, report.reason
    assert res.index == 2
    assert res.ambient.order == 72


@pytest.mark.parametrize("degree, generators", [
    (4, ("(0 1 2)", "(1 2 3)")),
    (4, ("(0 1 2 3)", "(0 1)")),
    (6, ("(0 1 2)", "(3 4 5)", "(1 2)(4 5)")),
])
def test_the_embedding_is_conjugation_by_every_element(degree, generators):
    # A4, S4 and C3^2 x| C2: the embedding is composed from the images
    # of the generators, and must agree with conjugation computed anew
    G = PermGroup(degree, [perm(degree, text) for text in generators])
    res = extension_from_out(G, [])
    assert list(res.embedding) == list(G.elements)
    assert res.embedding == {x: conjugation_perm(G, x) for x in G.elements}


def test_extension_requires_a_trivial_centre():
    with pytest.raises(NontrivialCenterError):
        extension_from_out(cyclic_group(4), [])


def test_extension_rejects_a_non_automorphism():
    A4 = alternating_group(4)
    collapse = {x: A4.elements[0] for x in A4.elements}
    with pytest.raises(HomomorphismError):
        extension_from_out(A4, [collapse])


# ---------------------------------------------------------------- cocycles


def test_bad_identity_lift_is_detected_deterministically():
    _, res = a4_extension()
    identity = res.quotient.elements[0]
    other_inner = next(
        g for g in res.inner.elements if g != res.ambient.elements[0]
    )
    alpha = dict(res.cocycle.alpha)
    alpha[identity] = other_inner
    broken = Cocycle2(res.base, res.quotient, res.cocycle.values, alpha)
    r1 = verify_cocycle(broken)
    assert not r1.ok
    assert r1.reason == "identity does not act trivially"
    r2 = verify_cocycle(broken)
    assert r2.witness == r1.witness


def test_tampered_cocycle_fails_an_axiom():
    _, res = a4_extension()
    q = res.quotient.elements
    nontrivial = next(g for g in res.base.elements if g != res.base.elements[0])
    values = dict(res.cocycle.values)
    values[(q[1], q[1])] = nontrivial * values[(q[1], q[1])]
    tampered = type(res.cocycle)(
        res.cocycle.base, res.cocycle.quotient, values, res.cocycle.alpha
    )
    report = verify_cocycle(tampered)
    assert not report.ok
    assert report.reason
    assert report.witness is not None


# ---------------------------------------------------------- crossed products


def test_crossed_product_over_the_normal_core():
    S3 = symmetric_group(3)
    A3 = S3.subgroup([perm(3, "(0 1 2)")])
    report = crossed_product_check(S3, A3, A3)
    assert report.ok, report.reason
    assert report.quotient_order == 2
    inner = verify_cocycle(report.cocycle)
    assert inner.ok, inner.reason


def test_crossed_product_with_an_intermediate_subgroup():
    S4 = symmetric_group(4)
    V4 = S4.subgroup([perm(4, "(0 1)(2 3)"), perm(4, "(0 2)(1 3)")])
    A4 = alternating_group(4)
    report = crossed_product_check(S4, V4, A4)
    assert report.ok, report.reason
    assert report.quotient_order == 6
    assert report.middle_indices == (0, 1, 2)


def test_crossed_product_of_a4_over_v4():
    A4 = alternating_group(4)
    V4 = A4.subgroup([perm(4, "(0 1)(2 3)"), perm(4, "(0 2)(1 3)")])
    report = crossed_product_check(A4, V4)
    assert report.ok, report.reason
    assert report.quotient_order == 3


def test_crossed_product_sees_a_nonsplit_extension():
    # C4 over its order-two subgroup: whatever transversal is chosen, the
    # square of the nontrivial representative is the nontrivial element of
    # the subgroup, so the cocycle cannot be constantly trivial.
    C4 = cyclic_group(4)
    half = C4.subgroup([perm(4, "(0 2)(1 3)")])
    report = crossed_product_check(C4, half)
    assert report.ok, report.reason
    assert report.quotient_order == 2
    identity = C4.elements[0]
    nontrivial = [v for v in report.cocycle.values.values() if v != identity]
    assert len(nontrivial) == 1
    assert nontrivial[0] == perm(4, "(0 2)(1 3)")


def test_extension_and_crossed_product_decompose_alike():
    # C3^2 x| C2 has Out = S4: a quotient of order 24, on which right
    # translation and the rows of the product table are different
    # permutations of the coset indices
    G = PermGroup(6, [perm(6, t) for t in ("(0 1 2)", "(3 4 5)",
                                           "(1 2)(4 5)")])
    res = extension_from_out(G, automorphism_group(G).out_cosets.reps[1:])
    assert res.quotient.order == 24
    _, _, elements, crossed, _ = _crossed_product_data(
        res.ambient, res.inner, res.inner, "min", DEFAULT)
    assert list(elements) == list(res.lifts)
    assert crossed.quotient == res.quotient
    embedding = res.embedding
    assert crossed.values == {pair: embedding[x]
                              for pair, x in res.cocycle.values.items()}
    for g in elements:
        for x in G.elements:
            assert crossed.apply_alpha(g, embedding[x]) == \
                embedding[res.cocycle.apply_alpha(g, x)]


def test_crossed_product_requires_a_normal_subgroup():
    S3 = symmetric_group(3)
    flip = S3.subgroup([perm(3, "(0 1)")])
    with pytest.raises(NotNormalError):
        crossed_product_check(S3, flip)


def test_crossed_product_middle_must_sit_between():
    S4 = symmetric_group(4)
    V4 = S4.subgroup([perm(4, "(0 1)(2 3)"), perm(4, "(0 2)(1 3)")])
    stray = S4.subgroup([perm(4, "(0 1)")])
    with pytest.raises(SubgroupError):
        crossed_product_check(S4, V4, stray)


# -------------------------------------------- facts the construction gives
#
# Neither the extension nor the crossed product check re-decides these;
# the docstrings of extension_from_out, _decompose and
# crossed_product_check prove them, and random groups test them here.


@st.composite
def outer_data(draw):
    """A random centreless subgroup G of S3, S4 or S5, with up to two
    automorphisms of G that conjugate it by elements of its normalizer."""
    n = draw(st.integers(3, 5))
    perms = st.permutations(range(n)).map(Perm)
    G = PermGroup(n, draw(st.lists(perms, min_size=1, max_size=2)))
    assume(len(G.center()) == 1)
    normalizer = [t for t in symmetric_group(n).elements
                  if all(t * g * t.inv() in G for g in G.generators)]
    # an element outside G is more likely to act by an outer class
    ts = draw(st.lists(st.sampled_from(
        [t for t in normalizer if t not in G] or normalizer), max_size=2))
    return G, [{x: t * x * t.inv() for x in G.elements} for t in ts]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(outer_data())
def test_extensions_lift_the_identity_first_and_are_normalized(drawn):
    G, outs = drawn
    res = extension_from_out(G, outs)
    identity = res.quotient.identity
    assert next(iter(res.lifts)) == identity
    assert res.lifts[identity] == res.ambient.identity
    assert res.cocycle.is_normalized()
    assert res.inner.is_subgroup_of(res.ambient)


def normal_closure(G, gens):
    """The least normal subgroup of G holding gens."""
    K = G.subgroup(gens)
    while True:
        conjugates = [g * x * g.inv() for g in G.generators
                      for x in K.generators]
        outside = [y for y in conjugates if y not in K]
        if not outside:
            return K
        K = G.subgroup(K.generators + tuple(outside))


@st.composite
def normal_triples(draw):
    """A random subgroup G of S3, S4 or S5, a normal subgroup K, and a
    group H_mid between K and G; G/K has order at most 24.

    K is drawn from the normal closures of the conjugacy classes of G,
    and H_mid is generated over K by a random element.
    """
    n = draw(st.integers(3, 5))
    perms = st.permutations(range(n)).map(Perm)
    G = PermGroup(n, draw(st.lists(perms, min_size=1, max_size=2)))
    normal = {normal_closure(G, [x]) for x in conjugacy_classes(G).reps}
    K = draw(st.sampled_from(sorted(normal, key=lambda N: N.elements)))
    assume(G.order <= 24 * K.order)
    H_mid = G.subgroup(K.generators + (draw(st.sampled_from(G.elements)),))
    return G, K, H_mid


@settings(derandomize=True, max_examples=60, deadline=None)
@given(normal_triples())
def test_crossed_product_bases_and_middle_indices_on_random_groups(triple):
    G, K, H_mid = triple
    assert crossed_product_check(G, K, H_mid).ok
    for rule in ("min", "max"):
        reps, table, elements, crossed, middle = _crossed_product_data(
            G, K, H_mid, rule, DEFAULT)
        assert reps[0] == G.identity
        assert elements[0] == crossed.quotient.identity
        # the a r_i with a in K are the elements of G once each
        assert sorted(a * r for r in reps for a in K.elements) == \
            list(G.elements)
        # the middle indices are closed and number |H_mid| / |K|
        assert all(table[i][j] in middle for i in middle for j in middle)
        assert len(middle) * K.order == H_mid.order
        # K is normal, so conjugation by every lift keeps it in place
        assert all(r * x * r.inv() in K for r in reps for x in K.elements)


# ---------------------------------------------------- internal consistency
#
# Each check below can fail only through a fault in sfw, so it raises
# InvariantViolationError (exit 1), not an input error.


def test_a_lift_moved_inside_its_coset_breaks_the_multiplication_law(
        monkeypatch):
    # A4 over V4: the lift r_1 is replaced by c r_1, c in V4, while the
    # table, the defects and alpha stay those of r_1.  Then
    # r_1' r_1' = c alpha_1(c) r_1 r_1, and alpha_1 fixes no c != 1
    A4 = alternating_group(4)
    c = perm(4, "(0 1)(2 3)")
    V4 = A4.subgroup([c, perm(4, "(0 2)(1 3)")])
    data = cocycle._crossed_product_data

    def moved_lift(G, K, H_mid, rule, config):
        reps, table, elements, crossed, middle = data(G, K, H_mid, rule,
                                                      config)
        reps = (reps[0], c * reps[1]) + tuple(reps[2:])
        return reps, table, elements, crossed, middle

    monkeypatch.setattr(cocycle, "_crossed_product_data", moved_lift)
    report = crossed_product_check(A4, V4)
    assert not report.ok
    assert report.reason == "multiplication law fails"
    i, a, j, b = report.witness
    assert a in V4 and b in V4 and 1 in (i, j)


def test_a_trivial_action_breaks_the_multiplication_law(monkeypatch):
    # S3 over A3 with alpha replaced by the identity: w is trivial, so the
    # cocycle axioms still hold, but r_1 b = b r_1 fails for the 3-cycles
    S3 = symmetric_group(3)
    A3 = S3.subgroup([perm(3, "(0 1 2)")])
    data = cocycle._crossed_product_data

    def trivial_action(G, K, H_mid, rule, config):
        reps, table, elements, crossed, middle = data(G, K, H_mid, rule,
                                                      config)
        identity = Perm.identity(K.order)
        crossed = crossed._replace(
            alpha={g: identity for g in crossed.alpha})
        return reps, table, elements, crossed, middle

    monkeypatch.setattr(cocycle, "_crossed_product_data", trivial_action)
    report = crossed_product_check(S3, A3)
    assert not report.ok
    assert report.reason == "multiplication law fails"
    i, a, j, b = report.witness
    assert a in A3 and b in A3 and b != A3.identity


def test_an_inner_embedding_that_is_no_homomorphism_is_a_fault(monkeypatch):
    # the 3-cycle of S3 sent to the conjugation by a transposition, of
    # order 2, and the transposition to the identity
    S3 = symmetric_group(3)
    flip = perm(3, "(0 1)")

    def swapped(G, g):
        if g.order() == 3:
            return conjugation_perm(G, flip)
        return Perm.identity(G.order)

    monkeypatch.setattr(cocycle, "conjugation_perm", swapped)
    with pytest.raises(InvariantViolationError,
                       match="conjugation is not a homomorphism"):
        extension_from_out(S3, [])

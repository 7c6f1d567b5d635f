"""Two-cocycles, outer-automorphism extensions, crossed product checks."""

from __future__ import annotations

import pytest

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


# ---------------------------------------------------- internal consistency
#
# Each check below can fail only through a fault in sfw, so it raises
# InvariantViolationError (exit 1), not an input error.


def test_a_lift_that_moves_the_normal_subgroup_is_a_fault(monkeypatch):
    # the normal subgroup <(0 1)> of <(0 1), (2 3)> is conjugated by
    # (1 2), from outside the group, to <(0 2)>
    G = PermGroup(4, [perm(4, "(0 1)"), perm(4, "(2 3)")])
    K = G.subgroup([perm(4, "(0 1)")])
    decompose = cocycle._decompose

    def stray_lifts(cosets, config):
        quotient, lifts, table, defects = decompose(cosets, config)
        lifts = {g: r if g == quotient.identity else perm(4, "(1 2)")
                 for g, r in lifts.items()}
        return quotient, lifts, table, defects

    monkeypatch.setattr(cocycle, "_decompose", stray_lifts)
    with pytest.raises(InvariantViolationError,
                       match="conjugation left the subgroup"):
        crossed_product_check(G, K)


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

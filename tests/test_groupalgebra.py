"""Group algebra arithmetic, conditional expectation, coset expansion."""

from __future__ import annotations

import random

import pytest

from sfw.corpus import builtin_cases
from sfw.errors import PreconditionError
from sfw.groupalgebra import (
    GroupAlgebraElement,
    conditional_expectation,
    pimsner_popa_expand,
    pimsner_popa_reassemble,
)
from sfw.permgroup import (
    Perm,
    parse_cycle_string,
    right_coset_data,
    symmetric_group,
)
from oracles import trace


def perm(degree, text):
    return parse_cycle_string(degree, text)


def random_element(rng, G, span=None):
    """A random element with small integer coefficients on a few group elements."""
    pool = span if span is not None else G.elements
    coeffs = {}
    for _ in range(rng.randrange(1, 5)):
        g = pool[rng.randrange(len(pool))]
        coeffs[g] = coeffs.get(g, 0) + complex(rng.randrange(-3, 4), rng.randrange(-3, 4))
    return GroupAlgebraElement(G, coeffs)


def test_unit_and_zero():
    G = symmetric_group(3)
    one = GroupAlgebraElement.from_perm(G, G.identity)
    zero = GroupAlgebraElement.zero(G)
    x = GroupAlgebraElement.from_perm(G, perm(3, "(0 1 2)"))
    assert one * x == x
    assert x * one == x
    assert zero * x == zero
    assert zero.coeffs == {}


def test_convolution_matches_group_multiplication():
    G = symmetric_group(3)
    a = perm(3, "(0 1)")
    b = perm(3, "(1 2)")
    x = GroupAlgebraElement.from_perm(G, a) * GroupAlgebraElement.from_perm(G, b)
    assert x == GroupAlgebraElement.from_perm(G, a * b)


def test_coefficients_must_live_in_the_group():
    G = symmetric_group(3)
    H = G.subgroup([perm(3, "(0 1)")])
    with pytest.raises(PreconditionError):
        GroupAlgebraElement(H, {perm(3, "(0 1 2)"): 1.0})


def test_trace_properties():
    G = symmetric_group(4)
    rng = random.Random(4022)
    for _ in range(40):
        x = random_element(rng, G)
        y = random_element(rng, G)
        # tr(xy) = tr(yx), and tr picks out the identity coefficient.
        assert abs(trace(x * y) - trace(y * x)) < 1e-12
        got = x.coeffs.get(G.elements[0], 0)
        assert abs(trace(x) - got) < 1e-12


def test_conditional_expectation_restricts_coefficients():
    G = symmetric_group(3)
    H = G.subgroup([perm(3, "(0 1)")])
    x = GroupAlgebraElement(
        G,
        {
            perm(3, "()"): 2.0,
            perm(3, "(0 1)"): 3.0,
            perm(3, "(0 1 2)"): 5.0,
        },
    )
    e = conditional_expectation(x, H)
    assert e.coeffs == {perm(3, "()"): 2.0 + 0j, perm(3, "(0 1)"): 3.0 + 0j}


def test_conditional_expectation_is_a_bimodule_projection():
    G = symmetric_group(4)
    H = G.subgroup([perm(4, "(0 1)"), perm(4, "(0 1 2)")])
    rng = random.Random(4023)
    for _ in range(30):
        x = random_element(rng, G)
        e = conditional_expectation(x, H)
        assert conditional_expectation(e, H) == e
        assert abs(trace(e) - trace(x)) < 1e-12
        # tr(e* e) <= tr(x* x), with tr(x* x) the sum of |coefficient|^2
        assert (sum(abs(c) ** 2 for c in e.coeffs.values())
                <= sum(abs(c) ** 2 for c in x.coeffs.values()) + 1e-9)
        h1 = GroupAlgebraElement.from_perm(G, H.elements[rng.randrange(H.order)])
        h2 = GroupAlgebraElement.from_perm(G, H.elements[rng.randrange(H.order)])
        assert conditional_expectation(h1 * x * h2, H) == h1 * e * h2


def test_expansion_coefficients_by_hand():
    # G = S3 over H = <(0 1)> has coset representatives (), (0 2), (1 2).
    # For x = u_{(0 1 2)}, the only representative with (0 1 2) * rep^-1 in H
    # is (1 2), and the coefficient there is u_{(0 1)}.
    G = symmetric_group(3)
    H = G.subgroup([perm(3, "(0 1)")])
    cosets = right_coset_data(G, H)
    assert [r.cycle_string() for r in cosets.reps] == ["()", "(0 2)", "(1 2)"]
    x = GroupAlgebraElement.from_perm(G, perm(3, "(0 1 2)"))
    parts = pimsner_popa_expand(x, cosets)
    assert len(parts) == 3
    assert parts[0] == GroupAlgebraElement.zero(H)
    assert parts[1] == GroupAlgebraElement.zero(H)
    assert parts[2] == GroupAlgebraElement.from_perm(G, perm(3, "(0 1)"))


def test_expansion_coefficients_land_in_the_subgroup():
    rng = random.Random(4024)
    for case in builtin_cases():
        cosets = right_coset_data(case.group, case.subgroup)
        for _ in range(5):
            x = random_element(rng, case.group)
            for part in pimsner_popa_expand(x, cosets):
                for g in part.coeffs:
                    assert g in case.subgroup


def test_reassembly_is_exact_on_random_elements():
    rng = random.Random(4025)
    for case in builtin_cases():
        cosets = right_coset_data(case.group, case.subgroup)
        for _ in range(100):
            x = random_element(rng, case.group)
            parts = pimsner_popa_expand(x, cosets)
            assert pimsner_popa_reassemble(parts, cosets) == x


def test_reassembly_rejects_wrong_arity():
    G = symmetric_group(3)
    H = G.subgroup([perm(3, "(0 1)")])
    cosets = right_coset_data(G, H)
    x = GroupAlgebraElement.from_perm(G, G.identity)
    parts = pimsner_popa_expand(x, cosets)
    with pytest.raises(PreconditionError):
        pimsner_popa_reassemble(parts[:2], cosets)

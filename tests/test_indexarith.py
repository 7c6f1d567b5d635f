"""Jones spectrum queries, virtual indices, chains, and the induced map.

The block monomial map that `induce` prints is theta at k = 1 on the
inverted left transversal (theta.induced_theta); its tests
stay here, next to the rest of the index arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from sfw.config import Config, DEFAULT
from sfw.corpus import builtin_cases
from sfw.errors import (
    ConstraintError,
    HomomorphismError,
    PreconditionError,
    SubgroupError,
)
from sfw.indexarith import (
    SpectrumVerdict,
    VirtualEmbeddingSpec,
    VirtualPart,
    commutant_bound_check,
    index_chain_check,
    jones_spectrum_query,
    local_index_combine,
    virtual_index,
    virtual_index_concrete,
)
from sfw.permgroup import (
    Perm,
    alternating_group,
    parse_cycle_string,
    symmetric_group,
)
from sfw.theta import induced_theta
from oracles import induced_monomials, left_cosets
from test_permgroup import inclusions


def perm(degree, text):
    return parse_cycle_string(degree, text)


# ----------------------------------------------------------------- spectrum


def test_spectrum_discrete_points():
    for x, n in ((1.0, 3), (2.0, 4), (3.0, 6)):
        verdict = jones_spectrum_query(x)
        assert verdict.kind == "discrete"
        assert verdict.n == n
        assert verdict.residual < 1e-9


def test_spectrum_gap_and_continuum():
    gap = jones_spectrum_query(3.5)
    assert gap.kind == "not-in-spectrum"
    assert gap.n is None
    assert gap.residual > 1e-3
    for x in (4.0, 4.7, 6.25, 100.0):
        assert jones_spectrum_query(x).kind == "continuous"


def test_spectrum_tolerance_behaviour():
    # Just under four counts as the continuum once inside tolerance, and a
    # barely perturbed discrete point still resolves to its integer label.
    assert jones_spectrum_query(4 - 1e-10).kind == "continuous"
    assert jones_spectrum_query(1 + 1e-12).n == 3
    assert jones_spectrum_query(
        3.5, config=Config(tol_spectrum=1.0)).kind != "not-in-spectrum"


def test_spectrum_points_increase_with_n():
    previous = 0.0
    for n in range(3, 13):
        x = 4 * math.cos(math.pi / n) ** 2
        verdict = jones_spectrum_query(x)
        assert verdict.kind == "discrete"
        assert verdict.n == n
        assert x > previous
        previous = x


def test_spectrum_rejects_small_values():
    with pytest.raises(PreconditionError):
        jones_spectrum_query(0.5)


def scan_spectrum_query(x, tol):
    """Reference: walk the increasing discrete points until one stops it."""
    if x < 1.0 - tol:
        raise PreconditionError("index values start at 1, got %r" % x)
    if x >= 4.0 - tol:
        return SpectrumVerdict("continuous", x, None, max(0.0, 4.0 - x))
    prev = None
    n = 3
    while True:
        point = 4.0 * math.cos(math.pi / n) ** 2
        if abs(x - point) <= tol:
            return SpectrumVerdict("discrete", x, n, abs(x - point))
        if point > x + tol:
            lower = abs(x - prev) if prev is not None else point - x
            return SpectrumVerdict("not-in-spectrum", x, None,
                                   min(lower, point - x))
        prev = point
        n += 1


def test_spectrum_matches_the_scan():
    default = DEFAULT.tol_spectrum
    cases = []
    for n in range(3, 13):
        point = 4.0 * math.cos(math.pi / n) ** 2
        cases += [(point, default), (float("%.15g" % point), default)]
    values = [1.0 + 3.0 * i / 97 for i in range(97)]
    for n in (3, 4, 5, 7, 12, 50, 333, 2000):
        point = 4.0 * math.cos(math.pi / n) ** 2
        for d in (0.0, 1e-12, 1e-9, 5e-10, 1e-6, 1e-3):
            values += [point - d, point + d]
    values += [4.0 - 1e-5, 4.0 - 1e-6, 4.0 - 1e-8, 3.9999]
    for tol in (0.0, 1e-12, 5e-10, default, 1e-6, 1e-3, 0.05, 0.5, 2.0):
        cases += [(x, tol) for x in values if x < 4.0]
    for x, tol in cases:
        config = Config(tol_spectrum=tol)
        try:
            want = scan_spectrum_query(x, tol)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                jones_spectrum_query(x, config=config)
            continue
        assert jones_spectrum_query(x, config=config) == want, (x, tol)
    # the tolerance comes from a Config, which holds no negative one
    with pytest.raises(ValueError):
        Config(tol_spectrum=-1e-9)


# ------------------------------------------------------------ virtual index


def test_virtual_index_worked_examples():
    assert virtual_index(VirtualEmbeddingSpec.make(1, [VirtualPart(1, 1, 1)])) == 1
    assert virtual_index(VirtualEmbeddingSpec.make(2, [VirtualPart(1, 2, 5)])) == 10
    spec = VirtualEmbeddingSpec.make(
        3, [VirtualPart(1, 1, 2), VirtualPart(1, 2, 3)]
    )
    assert virtual_index(spec) == 15


def test_virtual_index_constraint_is_enforced():
    with pytest.raises(ConstraintError) as err:
        virtual_index(VirtualEmbeddingSpec.make(4, [VirtualPart(1, 2, 5)]))
    assert "2" in str(err.value) and "4" in str(err.value)


def test_virtual_index_rejects_nonpositive_data():
    with pytest.raises(PreconditionError):
        VirtualEmbeddingSpec.make(1, [VirtualPart(0, 1, 1)])
    with pytest.raises(PreconditionError):
        VirtualEmbeddingSpec.make(1, [])


def test_virtual_index_concrete_identity_embedding():
    S3 = symmetric_group(3)
    gamma = {x: x for x in S3.elements}
    assert virtual_index_concrete(S3, S3, 1, [(1, S3, gamma)]) == 1


def test_virtual_index_concrete_subgroup_embedding():
    # G = H = S4, one part with K = A4 embedded by inclusion: the constraint
    # forces t = [G:K] = 2 and the result is 2 * [H:K] = 4.
    S4 = symmetric_group(4)
    A4 = alternating_group(4)
    gamma = {x: x for x in A4.elements}
    assert virtual_index_concrete(S4, S4, 2, [(1, A4, gamma)]) == 4
    with pytest.raises(ConstraintError):
        virtual_index_concrete(S4, S4, 1, [(1, A4, gamma)])


def test_virtual_index_concrete_validates_the_embedding():
    S4 = symmetric_group(4)
    A4 = alternating_group(4)
    collapse = {x: A4.elements[0] for x in A4.elements}
    with pytest.raises(HomomorphismError, match="not injective"):
        virtual_index_concrete(S4, S4, 2, [(1, A4, collapse)])
    # the inclusion, but two elements of order 3 that are no generators
    # swapped
    x, y = [x for x in A4.elements
            if x.order() == 3 and x not in A4.generators][:2]
    swapped = {x: x for x in A4.elements}
    swapped[x], swapped[y] = y, x
    with pytest.raises(HomomorphismError, match="not a homomorphism"):
        virtual_index_concrete(S4, S4, 2, [(1, A4, swapped)])
    # a generator of order 3 sent to a transposition
    bent = {x: x for x in A4.elements}
    bent[A4.generators[0]] = perm(4, "(0 1)")
    with pytest.raises(HomomorphismError, match="not a homomorphism"):
        virtual_index_concrete(S4, S4, 2, [(1, A4, bent)])


# ----------------------------------------------------- combination formulas


def test_local_index_combination():
    assert local_index_combine([(Fraction(1, 2), 2), (Fraction(1, 2), 2)]) == 8.0
    assert local_index_combine([(Fraction(1, 3), 1), (Fraction(2, 3), 2)]) == 6.0
    assert local_index_combine([(1, 7)]) == 7.0
    # Float weights that are exact dyadics follow the same path.
    assert local_index_combine([(0.5, 2), (0.5, 2)]) == 8.0


def test_local_index_combination_validates_weights():
    with pytest.raises(ConstraintError):
        local_index_combine([(Fraction(1, 2), 2), (Fraction(1, 3), 2)])
    with pytest.raises(PreconditionError):
        local_index_combine([(Fraction(3, 2), 2)])
    with pytest.raises(PreconditionError):
        local_index_combine([(Fraction(1, 2), 0.5), (Fraction(1, 2), 2)])


def test_index_chain_arithmetic():
    assert index_chain_check(6, 2, 3)
    assert index_chain_check(6, 3, 2)
    assert not index_chain_check(2, 2, 3)
    assert not index_chain_check(7, 2, 3)


def test_index_chains_on_nested_subgroups():
    S4 = symmetric_group(4)
    A4 = alternating_group(4)
    V4 = S4.subgroup([perm(4, "(0 1)(2 3)"), perm(4, "(0 2)(1 3)")])
    a = S4.order // V4.order
    b = S4.order // A4.order
    c = A4.order // V4.order
    assert a == b * c
    assert index_chain_check(a, b, c)


def test_commutant_dimension_bound():
    assert commutant_bound_check(2, 3)
    assert commutant_bound_check(1, 1)
    assert not commutant_bound_check(5, 3)


def test_corpus_indices_sit_in_the_spectrum():
    for case in builtin_cases():
        verdict = jones_spectrum_query(float(case.index))
        assert verdict.kind in ("discrete", "continuous")


# ------------------------------------------------ the map that induce prints


def left_transversal(theta):
    """The left coset representatives a_l and x -> l, read off theta.

    theta represents the right coset K a_l^-1 by a_l^-1, and x lies in
    a_l K exactly when x^-1 lies in K a_l^-1.
    """
    cosets = theta.cosets
    reps = tuple(rep.inv() for rep in cosets.reps)
    return reps, lambda x: cosets.coset_index(x.inv())


def dense(theta, g):
    """theta(g) at k = 1 as rows of labels in K, None off the support."""
    t = theta.cosets.index
    rows = [[None] * t for _ in range(t)]
    for j, (i, w) in enumerate(theta.matrix(g)):
        rows[i][j] = w
    return rows


def test_left_cosets_partition_the_group():
    S4 = symmetric_group(4)
    A4 = alternating_group(4)
    left_reps, left_coset_index = left_transversal(induced_theta(S4, A4))
    assert left_reps[0] == S4.elements[0]
    assert len(left_reps) == 2
    seen = set()
    for rep in left_reps:
        cell = [g for g in S4.elements
                if left_coset_index(g) == left_coset_index(rep)]
        for x in cell:
            assert rep.inv() * x in A4
        seen.update(cell)
    assert len(seen) == S4.order


@settings(derandomize=True, max_examples=60, deadline=None)
@given(inclusions())
def test_left_cosets_match_the_direct_loop(pair):
    G, K = pair
    reps, coset_index = left_transversal(induced_theta(G, K))
    want_reps, want_index = left_cosets(G, K)
    assert reps == want_reps
    assert {g: coset_index(g) for g in G.elements} == want_index


@settings(derandomize=True, max_examples=60, deadline=None)
@given(inclusions())
def test_induced_theta_matches_the_monomial_reference(pair):
    G, K = pair
    theta = induced_theta(G, K)
    for g, monomial in induced_monomials(G, K).items():
        got = {(i, j): w for j, (i, w) in enumerate(theta.matrix(g))}
        assert got == monomial


def test_induced_map_for_s3_over_a3():
    S3 = symmetric_group(3)
    A3 = S3.subgroup([perm(3, "(0 1 2)")])
    theta = induced_theta(S3, A3)
    assert theta.cosets.index == 2

    m_id = dense(theta, perm(3, "()"))
    assert m_id[0][0] == perm(3, "()") and m_id[1][1] == perm(3, "()")
    assert m_id[0][1] is None and m_id[1][0] is None

    m_flip = dense(theta, perm(3, "(0 1)"))
    assert m_flip[0][0] is None and m_flip[1][1] is None
    assert m_flip[0][1] == perm(3, "()") and m_flip[1][0] == perm(3, "()")

    m_rot = dense(theta, perm(3, "(0 1 2)"))
    assert m_rot[0][0] == perm(3, "(0 1 2)")
    assert m_rot[1][1] == perm(3, "(0 2 1)")
    assert m_rot[0][1] is None and m_rot[1][0] is None


def block_mul(a, b):
    """Product of two label matrices; each entry lists its nonzero terms."""
    n = len(a)
    return [[[a[i][l] * b[l][j] for l in range(n)
              if a[i][l] is not None and b[l][j] is not None]
             for j in range(n)] for i in range(n)]


def test_induced_map_is_multiplicative_everywhere():
    S3 = symmetric_group(3)
    A3 = S3.subgroup([perm(3, "(0 1 2)")])
    theta = induced_theta(S3, A3)
    for g in S3.elements:
        for h in S3.elements:
            lhs = block_mul(dense(theta, g), dense(theta, h))
            rhs = [[[] if w is None else [w] for w in row]
                   for row in dense(theta, g * h)]
            assert lhs == rhs


def test_induced_map_is_unitary():
    # u_w* = u_(w^-1), so theta(g)* is the transpose with inverted labels
    S3 = symmetric_group(3)
    A3 = S3.subgroup([perm(3, "(0 1 2)")])
    theta = induced_theta(S3, A3)
    for g in S3.elements:
        m = dense(theta, g)
        minv = dense(theta, g.inv())
        star = [[None if m[i][j] is None else m[i][j].inv()
                 for i in range(len(m))] for j in range(len(m))]
        assert star == minv


def test_induced_map_rejects_bad_data():
    S3 = symmetric_group(3)
    A3 = S3.subgroup([perm(3, "(0 1 2)")])
    K = S3.subgroup([perm(3, "(0 1)")])
    with pytest.raises(SubgroupError):
        induced_theta(A3, K)
    theta = induced_theta(S3, A3)
    with pytest.raises(PreconditionError):
        theta.matrix(perm(4, "(0 3)"))

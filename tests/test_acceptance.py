"""Acceptance gate: ten checks, one printed PASS or FAIL line each.

Each criterion runs as its own test and prints a single summary line, so
`pytest -v -s tests/test_acceptance.py` reads as a checklist.  Tolerances
are pinned here and do not follow the runtime configuration.
"""

from __future__ import annotations

import random
import time

import pytest

from sfw.chartab import character_table
from sfw.cocycle import (
    crossed_product_check,
    extension_from_out,
)
from sfw.config import Config
from sfw.corpus import builtin_cases, case_by_name
from sfw.errors import CapExceededError, ConstraintError
from sfw.indexarith import (
    VirtualEmbeddingSpec,
    VirtualPart,
    jones_spectrum_query,
    virtual_index,
)
from sfw.automorphisms import automorphism_group, normal_core
from sfw.permgroup import right_coset_data
from sfw.standard_invariant import (
    IN_GROUP,
    IN_SUBGROUP,
    brute_force_commutant_dim,
    dual_principal_graph,
    principal_graph,
    relative_commutant_dim,
)
from sfw.theta import ThetaMap, induced_theta
from sfw.verify import run_suite
from oracles import (
    GroupAlgebraElement,
    action_on_tuples,
    alternating_group,
    assert_cocycle_axioms,
    induce,
    inner_product,
    nested_expectation_entry,
    pimsner_popa_expand,
    pimsner_popa_reassemble,
    restrict,
    sparse_theta,
)

TOL_MULT = 1e-6
TOL_ORTHO = 1e-9
SPECTRUM = Config(tol_spectrum=1e-9)


def criterion(number, label):
    """Decorator printing one PASS/FAIL line per acceptance criterion."""

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException:
                print("criterion %2d %-28s FAIL" % (number, label))
                raise
            print("criterion %2d %-28s PASS" % (number, label))

        run.__name__ = fn.__name__
        run.__doc__ = fn.__doc__
        return run

    return wrap


@criterion(1, "theta consistency")
def test_criterion_01_theta_consistency():
    # Every entry of the full matrix for random elements must equal the
    # nested-expectation reference, and the support pattern must be the
    # graph of the tuple action.  Sampled entries off the support must
    # vanish by both routes.
    started = time.perf_counter()
    rng = random.Random(20260822)
    for case in builtin_cases():
        G = case.group
        cosets = right_coset_data(G, case.subgroup)
        for k in (1, 2):
            theta = ThetaMap(cosets, k)
            expected_rows = len(cosets.reps) ** k
            for _ in range(50):
                g = G.elements[rng.randrange(G.order)]
                mat = sparse_theta(theta, theta.matrix(g))
                assert len(mat) == expected_rows
                for (i_t, j_t), value in mat.items():
                    assert i_t == action_on_tuples(g, j_t, cosets)
                    assert value.coeffs
                    assert value == nested_expectation_entry(cosets, g, i_t,
                                                             j_t)
                i_t = theta.tuples[rng.randrange(expected_rows)]
                j_t = theta.tuples[rng.randrange(expected_rows)]
                if i_t != action_on_tuples(g, j_t, cosets):
                    assert (i_t, j_t) not in mat
                    value = nested_expectation_entry(cosets, g, i_t, j_t)
                    assert not value.coeffs
    assert time.perf_counter() - started < 30.0


@criterion(2, "commutant oracle equivalence")
def test_criterion_02_commutant_oracles():
    checked_depth_two = 0
    for case in builtin_cases():
        G, H = case.group, case.subgroup
        for G0 in (H, G):
            for side in (IN_SUBGROUP, IN_GROUP):
                assert relative_commutant_dim(
                    G, G0, H, 1, side
                ) == brute_force_commutant_dim(G, G0, H, 1, side)
                try:
                    slow = brute_force_commutant_dim(G, G0, H, 2, side)
                except CapExceededError:
                    continue
                assert relative_commutant_dim(G, G0, H, 2, side) == slow
                checked_depth_two += 1
    assert checked_depth_two > 0


@criterion(3, "graph norms and shapes")
def test_criterion_03_graphs():
    for case in builtin_cases():
        for build in (principal_graph, dual_principal_graph):
            g = build(case.group, case.subgroup)
            assert g.norm_squared == case.index
    case = case_by_name("s3-flip")
    g = principal_graph(case.group, case.subgroup)
    assert [v.label for v in g.even] == ["K1:chi0", "K1:chi1", "K2:chi0"]
    assert [v.label for v in g.odd] == ["H:chi0", "H:chi1"]
    assert g.edges == ((0, 0, 1), (1, 1, 1), (2, 0, 1), (2, 1, 1))
    d = dual_principal_graph(case.group, case.subgroup)
    assert [v.label for v in d.even] == ["G:chi0", "G:chi1", "G:chi2"]
    assert [v.label for v in d.odd] == ["H:chi0", "H:chi1"]
    assert d.edges == ((0, 0, 1), (1, 1, 1), (2, 0, 1), (2, 1, 1))


@criterion(4, "basis reassembly")
def test_criterion_04_reassembly():
    rng = random.Random(20260823)
    for case in builtin_cases():
        G = case.group
        cosets = right_coset_data(G, case.subgroup)
        for _ in range(100):
            coeffs = {}
            for _ in range(rng.randrange(1, 5)):
                g = G.elements[rng.randrange(G.order)]
                coeffs[g] = complex(rng.randrange(-3, 4), rng.randrange(-3, 4))
            x = GroupAlgebraElement(G, coeffs)
            parts = pimsner_popa_expand(x, cosets)
            assert pimsner_popa_reassemble(parts, cosets) == x


@criterion(5, "extension pipeline")
def test_criterion_05_extension():
    # Out(A4) = C2: class 1 is the only outer class
    A4 = alternating_group(4)
    auts = automorphism_group(A4)
    result = extension_from_out(auts, [1])
    assert result.ambient.order == 24
    assert result.cocycle.quotient.order == 2
    assert result.fingerprint() == {1: 1, 2: 9, 3: 8, 4: 6}
    assert sum(lift not in auts.inner
               for lift in result.cocycle.alpha.values()) == 1
    assert_cocycle_axioms(result.cocycle)
    crossed_product_check(result.ambient, auts.inner)


@criterion(6, "crossed product decomposition")
def test_criterion_06_crossed_products():
    s3 = case_by_name("s3-a3")
    assert s3.group.order ** 2 == 36
    crossed_product_check(s3.group, s3.subgroup)
    wr = case_by_name("wr2x3-base")
    crossed_product_check(wr.group, wr.subgroup)


@criterion(7, "index arithmetic")
def test_criterion_07_index_arithmetic():
    for x, n in ((1.0, 3), (2.0, 4), (3.0, 6)):
        verdict = jones_spectrum_query(x, config=SPECTRUM)
        assert verdict.kind == "discrete" and verdict.n == n
    assert jones_spectrum_query(3.5, config=SPECTRUM).kind == "not-in-spectrum"

    assert virtual_index(VirtualEmbeddingSpec.make(1, [VirtualPart(1, 1, 1)])) == 1
    assert virtual_index(VirtualEmbeddingSpec.make(2, [VirtualPart(1, 2, 5)])) == 10
    assert (
        virtual_index(
            VirtualEmbeddingSpec.make(3, [VirtualPart(1, 1, 2), VirtualPart(1, 2, 3)])
        )
        == 15
    )
    with pytest.raises(ConstraintError):
        virtual_index(VirtualEmbeddingSpec.make(4, [VirtualPart(1, 2, 5)]))

    for case in builtin_cases():
        G, H = case.group, case.subgroup
        K = normal_core(G, H)
        a = G.order // K.order
        b = G.order // H.order
        c = H.order // K.order
        assert a == b * c


@criterion(8, "character theory laws")
def test_criterion_08_character_laws():
    for case in builtin_cases():
        G, H = case.group, case.subgroup
        tg = character_table(G)
        th = character_table(H)
        assert sum(d * d for d in tg.degrees) == G.order
        for i, chi in enumerate(tg.characters):
            for j, psi in enumerate(tg.characters):
                got = inner_product(chi, psi)
                want = 1 if i == j else 0
                assert abs(got - want) < TOL_ORTHO
        for chi in th.characters:
            ind = induce(chi, G)
            for psi in tg.characters:
                lhs = inner_product(ind, psi)
                rhs = inner_product(chi, restrict(psi, H))
                assert abs(lhs - round(lhs.real)) < TOL_MULT
                assert round(lhs.real) == round(rhs.real)


@criterion(9, "induced homomorphism")
def test_criterion_09_induced_homomorphism():
    S3 = case_by_name("s3-flip").group
    A3 = case_by_name("s3-a3").subgroup
    # The law holds by construction (ThetaMap.matrix) and is not checked
    # per call; this test and verify's theta:<case>:induced check it.
    theta = induced_theta(S3, A3)
    degree = theta.cosets.index

    def dense(g):
        """Rows of labels in A3, None off the support."""
        rows = [[None] * degree for _ in range(degree)]
        for j, (i, w) in enumerate(theta.matrix(g)):
            rows[i][j] = w
        return rows

    identity = dense(S3.elements[0])
    for i in range(degree):
        for j in range(degree):
            if i == j:
                assert identity[i][j] == A3.identity
            else:
                assert identity[i][j] is None
    for g in S3.generators:
        for h in S3.generators:
            prod = dense(g * h)
            mg, mh = dense(g), dense(h)
            for i in range(degree):
                for j in range(degree):
                    terms = [mg[i][l] * mh[l][j] for l in range(degree)
                             if mg[i][l] is not None and mh[l][j] is not None]
                    assert terms == ([] if prod[i][j] is None
                                     else [prod[i][j]])
        # u_w* = u_(w^-1)
        minv = dense(g.inv())
        mg = dense(g)
        for i in range(degree):
            for j in range(degree):
                star = None if mg[j][i] is None else mg[j][i].inv()
                assert star == minv[i][j]


@criterion(10, "full verification suite")
def test_criterion_10_verify_all():
    started = time.perf_counter()
    report = run_suite("all")
    elapsed = time.perf_counter() - started
    assert not report.failures, report.to_json()
    assert elapsed < 60.0

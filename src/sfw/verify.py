"""Self-checking suites over the built-in inclusion corpus.

Each suite runs a list of named cases and reports per-case outcomes;
a case failure is recorded, not raised, so one bad inclusion does not
hide the rest.  Precondition and parse errors from malformed custom
corpora still propagate.

The suites hold the fast paths against the exact references kept for
them: theta entries against nested conditional expectations, commutant
dimensions against the integer-rank oracle wherever its unknowns fit
under oracle_cap.  They also run what no command reaches: the
wreath-like axioms on C2 wr C3, index towers over the normal core, and
virtual indices of concrete embeddings.  The cocycles and extensions
suites build a few groups of their own under the run's config; the
other suites use only the corpus.
"""

from __future__ import annotations

import os
import random
import time
from typing import NamedTuple

# reached through their modules, so that under sfw.cli's lazy
# registration a suite runs only the modules it uses
from . import (
    automorphisms,
    chartab,
    cocycle,
    corpus,
    formats,
    groupalgebra,
    indexarith,
    permgroup,
    standard_invariant,
    theta,
    wreath,
)
from .config import Config, DEFAULT
from .errors import CapExceededError, ParseError, SfwError, SubgroupError

SUITES = ("theta", "graphs", "cocycles", "extensions", "arithmetic")


class CaseResult(NamedTuple):
    case_id: str
    ok: bool
    detail: str = ""


class VerifyReport(NamedTuple):
    suite: str
    cases: tuple
    wall_time: float

    @property
    def cases_run(self) -> int:
        return len(self.cases)

    @property
    def failures(self) -> tuple:
        return tuple(c for c in self.cases if not c.ok)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "cases_run": self.cases_run,
            "failed": len(self.failures),
            "wall_time": round(self.wall_time, 3),
            "cases": [{"id": c.case_id, "ok": c.ok, "detail": c.detail}
                      for c in self.cases],
        }


class _Recorder:
    def __init__(self):
        self.results = []

    def run(self, case_id: str, fn) -> None:
        try:
            detail = fn()
        except SfwError as e:
            self.results.append(CaseResult(case_id, False,
                                           "%s: %s" % (type(e).__name__, e)))
        except AssertionError as e:
            self.results.append(CaseResult(case_id, False, str(e)))
        else:
            self.results.append(CaseResult(case_id, True, detail or ""))


def _sample_elements(G, rng, count):
    """Generators, identity, and a few random elements, deduplicated."""
    picks = [G.identity] + list(G.generators)
    for _ in range(count):
        picks.append(G.elements[rng.randrange(G.order)])
    seen = []
    for p in picks:
        if p not in seen:
            seen.append(p)
    return seen


def _suite_theta(cases, config: Config) -> list:
    rec = _Recorder()
    for n, case in enumerate(cases):
        G, H = case.group, case.subgroup
        cosets = permgroup.right_coset_data(G, H)
        rng = random.Random(91100 + 13 * n)
        for k in (1, 2):
            if G.order * cosets.index ** k > config.oracle_cap:
                continue
            amplified = theta.ThetaMap(cosets, k, config)

            def entries_consistent(amplified=amplified, G=G, H=H, rng=rng,
                                   cosets=cosets):
                count = 0
                for g in _sample_elements(G, rng, 4):
                    m = amplified.matrix(g)
                    if len({row for row, _ in m}) != len(m):
                        raise AssertionError("duplicate row in amplified "
                                             "matrix")
                    for j, (row, w) in zip(amplified.tuples, m):
                        i = amplified.tuples[row]
                        value = groupalgebra.GroupAlgebraElement.from_perm(
                            H, w)
                        if value != theta.nested_theta_entry(cosets, g, i, j):
                            raise AssertionError(
                                "entry at (%r, %r) disagrees with nested "
                                "expectations" % (i, j))
                    count += len(m)
                return "%d entries cross-checked" % count

            rec.run("theta:%s:k%d:entries" % (case.name, k),
                    entries_consistent)

            def multiplicative(amplified=amplified, G=G, rng=rng):
                g = G.elements[rng.randrange(G.order)]
                h = G.elements[rng.randrange(G.order)]
                lhs = theta.theta_matrix_product(amplified.matrix(g),
                                                 amplified.matrix(h))
                rhs = amplified.matrix(g * h)
                for (row, w), (want_row, want_w) in zip(lhs, rhs):
                    if row != want_row:
                        raise AssertionError("product support mismatch")
                    if w != want_w:
                        raise AssertionError("product entry mismatch")
                return "checked one random product"

            rec.run("theta:%s:k%d:product" % (case.name, k), multiplicative)

        def pp_round_trip(G=G, H=H, cosets=cosets, rng=rng):
            for _ in range(5):
                support = [G.elements[rng.randrange(G.order)]
                           for _ in range(4)]
                coeffs = {}
                for p in support:
                    coeffs[p] = complex(rng.randint(-3, 3), rng.randint(-3, 3))
                x = groupalgebra.GroupAlgebraElement(G, coeffs)
                parts = groupalgebra.pimsner_popa_expand(x, cosets)
                back = groupalgebra.pimsner_popa_reassemble(parts, cosets)
                if back != x:
                    raise AssertionError("expansion did not reassemble")
            return "5 random elements"

        rec.run("theta:%s:expansion" % case.name, pp_round_trip)

        def stab(G=G, H=H):
            if not theta.stabilizer_matches_intersection(G, H):
                raise AssertionError("stabilizer mismatch")
            return ""

        rec.run("theta:%s:stabilizers" % case.name, stab)
    return rec.results


def _check_dimension_law(graph, direction: str) -> None:
    """Degrees around each vertex must add up along the edges.

    For "restriction" (the principal graph) each odd degree is the sum
    of the weighted even degrees within every stabilizer block; for
    "induction" (the dual graph) each even degree is the weighted sum
    of the odd degrees around it.
    """
    if direction == "restriction":
        for o_idx, o in enumerate(graph.odd):
            blocks = {}
            for e, od, m in graph.edges:
                if od != o_idx:
                    continue
                blocks.setdefault(graph.even[e].group_index, 0)
                blocks[graph.even[e].group_index] += m * graph.even[e].degree
            if any(total != o.degree for total in blocks.values()):
                raise AssertionError(
                    "degrees around %s do not add up" % o.label)
    else:
        for e_idx, e in enumerate(graph.even):
            total = sum(m * graph.odd[o].degree
                        for ee, o, m in graph.edges if ee == e_idx)
            if total != e.degree:
                raise AssertionError(
                    "degrees around %s do not add up" % e.label)


def _suite_graphs(cases, config: Config) -> list:
    rec = _Recorder()
    for case in cases:
        G, H = case.group, case.subgroup

        def principal(G=G, H=H, case=case):
            graph = standard_invariant.principal_graph(G, H, config)
            if graph.norm_squared != case.index:
                raise AssertionError(
                    "norm squared %r is not the index %d"
                    % (graph.norm_squared, case.index))
            _check_dimension_law(graph, "restriction")
            return "%d even, %d odd" % (len(graph.even), len(graph.odd))

        rec.run("graphs:%s:principal" % case.name, principal)

        def dual(G=G, H=H, case=case):
            graph = standard_invariant.dual_principal_graph(G, H, config)
            if graph.norm_squared != case.index:
                raise AssertionError(
                    "norm squared %r is not the index %d"
                    % (graph.norm_squared, case.index))
            _check_dimension_law(graph, "induction")
            return "%d even, %d odd" % (len(graph.even), len(graph.odd))

        rec.run("graphs:%s:dual" % case.name, dual)

        def commutants(G=G, H=H, case=case):
            compared = 0
            for k in (1, 2):
                for G0 in (H, G):
                    for side in standard_invariant.SIDES:
                        try:
                            want = (standard_invariant
                                    .brute_force_commutant_dim(
                                        G, G0, H, k, side, config))
                        except CapExceededError:
                            # too large for oracle_cap or theta_k_cap
                            continue
                        dim = standard_invariant.relative_commutant_dim(
                            G, G0, H, k, side, config)
                        if dim != want:
                            raise AssertionError(
                                "k=%d %s over %s: orbit count %d, oracle %d"
                                % (k, side, "H" if G0 is H else "G", dim,
                                   want))
                        compared += 1
            d1 = standard_invariant.relative_commutant_dim(
                G, H, H, 1, standard_invariant.IN_SUBGROUP, config)
            if not indexarith.commutant_bound_check(d1, case.index):
                raise AssertionError("first commutant exceeds index + 1")
            return "%d tower entries match the oracle" % compared

        rec.run("graphs:%s:commutants" % case.name, commutants)

        def char_table_laws(G=G, H=H):
            for grp in (G, H):
                tab = chartab.character_table(grp)
                total = sum(d * d for d in tab.degrees)
                if total != grp.order:
                    raise AssertionError("degree squares do not sum")
            return ""

        rec.run("graphs:%s:characters" % case.name, char_table_laws)
    return rec.results


def _normal_triples(cases, config: Config):
    """Triples (G, K, mid) with K normal in G, drawn from the corpus.

    The groups are built under the run's config, outside any recorded
    case, so one above order_cap ends the run with CapExceededError.
    """
    S4 = permgroup.symmetric_group(4, config)
    A4 = permgroup.alternating_group(4, config)
    V4 = permgroup.PermGroup(
        4, [permgroup.parse_cycle_string(4, "(0 1)(2 3)"),
            permgroup.parse_cycle_string(4, "(0 2)(1 3)")], config)
    S3 = permgroup.symmetric_group(3, config)
    A3 = permgroup.alternating_group(3, config)
    triples = [("s4-v4-a4", S4, V4, A4),
               ("a4-v4", A4, V4, V4),
               ("s3-a3", S3, A3, A3)]
    for case in cases:
        if case.name == "wr2x3-base":
            triples.append(("wr2x3-base", case.group, case.subgroup,
                            case.subgroup))
    return triples


def _suite_cocycles(cases, config: Config) -> list:
    rec = _Recorder()
    for name, G, K, mid in _normal_triples(cases, config):

        def crossed(G=G, K=K, mid=mid):
            report = cocycle.crossed_product_check(G, K, mid, config)
            if not report.ok:
                raise AssertionError("%s at %r"
                                     % (report.reason, report.witness))
            return "quotient order %d" % report.quotient_order

        rec.run("cocycles:%s" % name, crossed)
    return rec.results


def _suite_extensions(cases, config: Config) -> list:
    rec = _Recorder()
    # built outside the recorded cases, so a group above order_cap ends
    # the run with CapExceededError instead of failing one case
    A4 = permgroup.alternating_group(4, config)
    S3 = permgroup.symmetric_group(3, config)
    S3xS3 = permgroup.PermGroup(
        6, [permgroup.parse_cycle_string(6, text)
            for text in ("(0 1)", "(0 1 2)", "(3 4)", "(3 4 5)")], config)
    wr = wreath.wreath_product(permgroup.cyclic_group(2, config),
                               permgroup.cyclic_group(3, config),
                               config=config)

    def a4_out(config=config):
        t = permgroup.parse_cycle_string(4, "(0 1)")
        out = {x: t * x * t.inv() for x in A4.elements}
        result, report = cocycle.subfactor_report_from_out(A4, [out], config)
        if not report.ok:
            raise AssertionError("%s at %r" % (report.reason, report.witness))
        hist = dict(result.fingerprint())
        if hist != {1: 1, 2: 9, 3: 8, 4: 6}:
            raise AssertionError("unexpected extension fingerprint %r" % hist)
        return "index %d, ambient order %d" % (result.index,
                                               result.ambient.order)

    rec.run("extensions:a4-out", a4_out)

    def s3_trivial_out(config=config):
        result, report = cocycle.subfactor_report_from_out(S3, [], config)
        if not report.ok:
            raise AssertionError(report.reason)
        if result.index != 1:
            raise AssertionError("empty outer data must give index 1")
        return ""

    rec.run("extensions:s3-trivial", s3_trivial_out)

    def s3xs3_swap(config=config):
        swap = permgroup.parse_cycle_string(6, "(0 3)(1 4)(2 5)")
        out = {x: swap * x * swap.inv() for x in S3xS3.elements}
        result, report = cocycle.subfactor_report_from_out(S3xS3, [out],
                                                           config)
        if not report.ok:
            raise AssertionError("%s at %r" % (report.reason, report.witness))
        if result.index != 2 or result.ambient.order != 72:
            raise AssertionError("swap extension has the wrong size")
        return "index %d" % result.index

    rec.run("extensions:s3xs3-swap", s3xs3_swap)

    def wreath_like(wr=wr):
        report = wreath.verify_wreath_like(wr.group, wr.base_copies, wr.kappa,
                                    wr.acting, wr.action)
        if not report.ok:
            raise AssertionError("%s at %r" % (report.reason, report.witness))
        return "C2 wr C3, order %d, %d copies" % (wr.group.order,
                                                  len(wr.base_copies))

    rec.run("extensions:c2wrc3-wreath-like", wreath_like)
    return rec.results


def _suite_arithmetic(cases, config: Config) -> list:
    rec = _Recorder()

    def spectrum(config=config):
        import math
        for n in range(3, 9):
            point = 4.0 * math.cos(math.pi / n) ** 2
            verdict = indexarith.jones_spectrum_query(point, config=config)
            if verdict.kind != "discrete" or verdict.n != n:
                raise AssertionError("point for n=%d misclassified" % n)
        for x, kind in ((3.5, "not-in-spectrum"), (4.0, "continuous"),
                        (6.25, "continuous")):
            verdict = indexarith.jones_spectrum_query(x, config=config)
            if verdict.kind != kind:
                raise AssertionError("%r should be %s" % (x, kind))
        return "6 discrete points, 3 off-lattice values"

    rec.run("arithmetic:spectrum", spectrum)

    def chains(cases=cases):
        # G >= H >= core_G(H), all indices integers
        for case in cases:
            G, H = case.group, case.subgroup
            K = automorphisms.normal_core(G, H)
            a = G.order // K.order
            c = H.order // K.order
            if a != case.index * c:
                raise AssertionError("index tower is not multiplicative "
                                     "on %s" % case.name)
            if not indexarith.index_chain_check(a, case.index, c):
                raise AssertionError("chain bounds violated on %s"
                                     % case.name)
        if indexarith.index_chain_check(2, 2, 3):
            raise AssertionError("impossible chain accepted")
        return "%d towers over the normal core" % len(cases)

    rec.run("arithmetic:chains", chains)

    def bounds(cases=cases):
        for case in cases:
            dim = standard_invariant.relative_commutant_dim(
                case.group, case.subgroup, case.subgroup, 1,
                standard_invariant.IN_SUBGROUP, config)
            if not indexarith.commutant_bound_check(dim, case.index):
                raise AssertionError("bound fails on %s" % case.name)
        return "%d inclusions" % len(cases)

    rec.run("arithmetic:bounds", bounds)

    def virtual(cases=cases):
        # one part (1, H, inclusion of H into G): t = [G:H] and the
        # virtual index is t * [G:H] = t^2
        for case in cases:
            G, H, t = case.group, case.subgroup, case.index
            inclusion = {x: x for x in H.elements}
            value = indexarith.virtual_index_concrete(G, G, t,
                                                      [(1, H, inclusion)])
            if value != t * t:
                raise AssertionError("virtual index %d on %s, want %d"
                                     % (value, case.name, t * t))
        return "%d inclusions" % len(cases)

    rec.run("arithmetic:virtual", virtual)

    def combination(config=config):
        # the only case that needs exact rationals
        from fractions import Fraction
        value = indexarith.local_index_combine([(Fraction(1, 2), 2),
                                                (Fraction(1, 2), 2)])
        if abs(value - 8.0) > 1e-12:
            raise AssertionError("halved pair should combine to 8")
        value = indexarith.local_index_combine([(Fraction(1, 3), 1),
                                                (Fraction(2, 3), 2)])
        if abs(value - 6.0) > 1e-12:
            raise AssertionError("weighted pair should combine to 6")
        return ""

    rec.run("arithmetic:combination", combination)
    return rec.results


_SUITE_FUNCS = {
    "theta": _suite_theta,
    "graphs": _suite_graphs,
    "cocycles": _suite_cocycles,
    "extensions": _suite_extensions,
    "arithmetic": _suite_arithmetic,
}


def load_corpus_dir(path: str, config: Config = DEFAULT) -> tuple:
    """Read inclusion cases from JSON files in a directory.

    Each file holds {"name": ..., "group": {...}, "subgroup": {...}};
    H <= G is checked, so |H| divides |G| by Lagrange.  A directory or file
    that cannot be read is a ParseError.
    """
    cases = []
    try:
        listed = os.listdir(path)
    except OSError as e:
        raise ParseError("cannot read %s: %s" % (path, e)) from None
    names = sorted(fn for fn in listed if fn.endswith(".json"))
    if not names:
        raise ParseError("no .json corpus files in %r" % path)
    for fn in names:
        obj = formats.read_json_file(os.path.join(path, fn))
        if not isinstance(obj, dict):
            raise ParseError("%s: corpus entry must be an object" % fn)
        name = obj.get("name") or os.path.splitext(fn)[0]
        G = formats.group_from_json(obj.get("group"), config)
        H = formats.group_from_json(obj.get("subgroup"), config)
        if not H.is_subgroup_of(G):
            raise SubgroupError("%s: subgroup entry is not contained" % fn)
        cases.append(corpus.InclusionCase(name, G, H, G.order // H.order))
    return tuple(cases)


def run_suite(suite: str, cases=None, corpus_dir=None,
              config: Config = DEFAULT) -> VerifyReport:
    """Run one named suite, or every suite with "all"."""
    if cases is None:
        cases = (load_corpus_dir(corpus_dir, config) if corpus_dir
                 else tuple(corpus.require_order_cap(case, config)
                            for case in corpus.builtin_cases()))
    start = time.perf_counter()
    if suite == "all":
        results = []
        for name in SUITES:
            results.extend(_SUITE_FUNCS[name](cases, config))
    elif suite in _SUITE_FUNCS:
        results = _SUITE_FUNCS[suite](cases, config)
    else:
        raise ParseError("unknown suite %r, have %s"
                         % (suite, ", ".join(SUITES + ("all",))))
    return VerifyReport(suite, tuple(results), time.perf_counter() - start)

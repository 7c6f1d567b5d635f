"""Self-checking suites over the built-in inclusion corpus.

Each suite runs a list of named cases and reports per-case outcomes;
a case failure is recorded, not raised, so one bad inclusion does not
hide the rest.  A case fails by raising AssertionError or any SfwError
but CapExceededError: the cocycle, crossed-product, extension and
wreath-like checks raise InvariantViolationError themselves, and the
case records its message with the witness.  Precondition and parse
errors from malformed custom corpora still propagate.

The suites hold the fast paths against the exact references kept for
them: theta entries against nested conditional expectations, commutant
dimensions against the integer-rank oracle wherever its unknowns fit
under oracle_cap.  Every reference is a computation with group
elements: an entry of the amplified u_g is one element of H or zero,
and the coset basis expands L(G) over L(H) exactly when H x [t] -> G,
(h, i) -> h g_i, is a bijection.  No check samples: the theta suite
proves the product law on all of G x gens, on the standard transversal
and on the map `induce` prints, holds the reference on e and the
generators, and checks the bijection on all of G, each reduction proved
in its docstring.  verify keeps no cap logic
of its own: a cap met inside a case (CapExceededError, whose message
names the cap, its value and its flag) makes that case a skip with the
message as its detail, counted apart from passes and failures.

The suites also run what no command reaches: the wreath-like axioms on
the split C2 wr C3 and the non-split A4 x| C4, and index towers over
the normal core.  The cocycles and extensions suites take a few groups
of their own from corpus.declared_group under the run's config, and
under a corpus directory those cases say so in their detail; the other
suites use only the corpus.  Each extension case picks outer classes of
the automorphism group of its base, found inside the case, so aut_cap
meets it there as a skip.
"""

from __future__ import annotations

import os
import time
from typing import NamedTuple

# reached through their modules, so that under sfw.cli's lazy
# registration a suite runs only the modules it uses
from . import (
    automorphisms,
    cocycle,
    corpus,
    formats,
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
    """One case's outcome: passed (ok), skipped, or else failed.

    A skipped case is not ok either; its detail names the cap that kept
    it from running.
    """

    case_id: str
    ok: bool
    detail: str = ""
    skipped: bool = False


class VerifyReport(NamedTuple):
    suite: str
    cases: tuple
    wall_time: float

    @property
    def cases_run(self) -> int:
        return len(self.cases)

    @property
    def failures(self) -> tuple:
        return tuple(c for c in self.cases if not c.ok and not c.skipped)

    @property
    def skipped(self) -> tuple:
        return tuple(c for c in self.cases if c.skipped)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "cases_run": self.cases_run,
            "failed": len(self.failures),
            "skipped": len(self.skipped),
            "wall_time": round(self.wall_time, 3),
            "cases": [{"id": c.case_id, "ok": c.ok, "skipped": c.skipped,
                       "detail": c.detail}
                      for c in self.cases],
        }


class _Recorder:
    """Case outcomes; own_note ends the detail of a case on built groups."""

    def __init__(self, own_note: str = ""):
        self.results = []
        self.own_note = own_note

    def run(self, case_id: str, fn, own_groups: bool = False) -> None:
        ok = skipped = False
        try:
            detail, ok = fn() or "", True
        except CapExceededError as e:
            # a cap met inside a case bounds work; it is no failed check
            detail, skipped = str(e), True
        except SfwError as e:
            detail = "%s: %s" % (type(e).__name__, e)
        except AssertionError as e:
            detail = str(e)
        if own_groups and self.own_note:
            detail = "; ".join(filter(None, (detail, self.own_note)))
        self.results.append(CaseResult(case_id, ok, detail, skipped))


def _under_oracle_cap(amplified, config: Config):
    """amplified, if the |G| t^k columns a case reads fit under oracle_cap."""
    cosets, k = amplified.cosets, amplified.k
    size = cosets.group.order * cosets.index ** k
    if size > config.oracle_cap:
        raise CapExceededError("|G| t^%d =" % k, size, config.oracle_cap,
                               "oracle_cap")
    return amplified


def _check_theta_law(amplified) -> str:
    """theta(e) = 1, unitary rows and theta(g s) = theta(g) theta(s).

    Every h in G is a word s_1 ... s_m in the generators (G is finite,
    so no inverses are needed), and induction on m gives
    theta(g h) = theta(g s_1 ... s_(m-1)) theta(s_m) = theta(g) theta(h).
    """
    G, H = amplified.cosets.group, amplified.cosets.subgroup
    mats = {g: amplified.matrix(g) for g in G.elements}
    one = tuple(enumerate([H.identity] * len(amplified.tuples)))
    if mats[G.identity] != one:
        raise AssertionError("theta of the identity is not 1")
    for g, m in mats.items():
        if len({row for row, _ in m}) != len(m):
            raise AssertionError("duplicate row in amplified matrix")
        for s in G.generators:
            if theta.theta_matrix_product(m, mats[s]) != mats[g * s]:
                raise AssertionError(
                    "theta is not multiplicative at (%r, %r)" % (g, s))
    return "%d products checked" % (G.order * len(G.generators))


def _suite_theta(rec: _Recorder, cases, config: Config) -> None:
    for case in cases:
        G, H = case.group, case.subgroup
        cosets = permgroup.right_coset_data(G, H)
        for k in (1, 2):

            def entries(k=k, G=G, cosets=cosets):
                """The matrices against nested expectations on e and gens.

                Both are homomorphisms, the matrices by the product case
                and the reference by construction, and two homomorphisms
                that agree on generators agree on every product of them.
                """
                amplified = _under_oracle_cap(
                    theta.ThetaMap(cosets, k, config), config)
                count = 0
                for g in (G.identity,) + tuple(G.generators):
                    m = amplified.matrix(g)
                    for j, (row, w) in zip(amplified.tuples, m):
                        i = amplified.tuples[row]
                        if w != theta.nested_theta_entry(cosets, g, i, j):
                            raise AssertionError(
                                "entry at (%r, %r) disagrees with nested "
                                "expectations" % (i, j))
                    count += len(m)
                return "%d entries cross-checked" % count

            rec.run("theta:%s:k%d:entries" % (case.name, k), entries)

            def product(k=k, cosets=cosets):
                return _check_theta_law(_under_oracle_cap(
                    theta.ThetaMap(cosets, k, config), config))

            rec.run("theta:%s:k%d:product" % (case.name, k), product)

        def induced(G=G, H=H):
            return _check_theta_law(_under_oracle_cap(
                theta.induced_theta(G, H), config))

        rec.run("theta:%s:induced" % case.name, induced)

        def expansion(G=G, H=H, cosets=cosets):
            """The coset basis u_{g_i} expands L(G) over L(H), exactly.

            Expanding x into the E_H(x u_{g_i}^-1) and reassembling
            sum_i c_i u_{g_i} maps each u_g to N_g u_g, with N_g the
            number of i for which g lies in H g_i.  So the round trip is
            the identity on all of L(G) exactly when (h, i) -> h g_i is
            a bijection H x [t] -> G.
            """
            products = {h * rep for rep in cosets.reps for h in H.elements}
            if not (len(products) == H.order * len(cosets.reps) == G.order
                    and all(x in G for x in products)):
                raise AssertionError("h * g_i is no bijection H x [t] -> G, "
                                     "so the expansion does not reassemble")
            return "%d coefficients round-tripped" % G.order

        rec.run("theta:%s:expansion" % case.name, expansion)

        def stab(G=G, H=H):
            theta.verify_stabilizers(G, H)

        rec.run("theta:%s:stabilizers" % case.name, stab)


def _suite_graphs(rec: _Recorder, cases, config: Config) -> None:
    for case in cases:
        G, H = case.group, case.subgroup

        def principal(G=G, H=H):
            graph = standard_invariant.principal_graph(G, H, config)
            return "%d even, %d odd" % (len(graph.even), len(graph.odd))

        rec.run("graphs:%s:principal" % case.name, principal)

        def dual(G=G, H=H):
            graph = standard_invariant.dual_principal_graph(G, H, config)
            return "%d even, %d odd" % (len(graph.even), len(graph.odd))

        rec.run("graphs:%s:dual" % case.name, dual)

        def commutants(G=G, H=H):
            compared, capped = 0, []
            for k in (1, 2):
                for G0 in (H, G):
                    for side in standard_invariant.SIDES:
                        try:
                            want = (standard_invariant
                                    .brute_force_commutant_dim(
                                        G, G0, H, k, side, config))
                        except CapExceededError as e:
                            capped.append(e)
                            continue
                        dim = standard_invariant.relative_commutant_dim(
                            G, G0, H, k, side, config)
                        if dim != want:
                            raise AssertionError(
                                "k=%d %s over %s: orbit count %d, oracle %d"
                                % (k, side, "H" if G0 is H else "G", dim,
                                   want))
                        compared += 1
            if not compared:
                raise capped[0]
            detail = "%d tower entries match the oracle" % compared
            if capped:
                limits = dict.fromkeys(e.limit for e in capped)
                detail += ", %d skipped %s" % (len(capped),
                                               " and ".join(limits))
            return detail

        rec.run("graphs:%s:commutants" % case.name, commutants)


def _normal_pairs(cases, config: Config):
    """Pairs (G, K) with K normal in G, and whether sfw built them.

    The corpus adds its wr2x3-base case to the declared groups taken
    here.  These are built under the run's config, outside any recorded
    case, so one above order_cap ends the run with CapExceededError.
    The S4 over V4 case is named s4-v4-a4, the id that the recorded
    output of `verify` holds.
    """
    S4, A4, V4, S3, A3 = (corpus.declared_group(name, config)
                          for name in ("S4", "A4", "V4", "S3", "A3"))
    pairs = [("s4-v4-a4", S4, V4, True),
             ("a4-v4", A4, V4, True),
             ("s3-a3", S3, A3, True)]
    for case in cases:
        if case.name == "wr2x3-base":
            pairs.append(("wr2x3-base", case.group, case.subgroup, False))
    return pairs


def _suite_cocycles(rec: _Recorder, cases, config: Config) -> None:
    for name, G, K, own in _normal_pairs(cases, config):

        def crossed(G=G, K=K):
            c = cocycle.crossed_product_check(G, K, config)
            return "quotient order %d" % c.quotient.order

        rec.run("cocycles:%s" % name, crossed, own_groups=own)


def _suite_extensions(rec: _Recorder, cases, config: Config) -> None:
    # built outside the recorded cases, so a group above order_cap ends
    # the run with CapExceededError instead of failing one case
    A4, S3, S3xS3, C2, C3, A4C4 = (
        corpus.declared_group(name, config)
        for name in ("A4", "S3", "S3xS3", "C2", "C3", "A4C4"))
    wr = wreath.wreath_product(C2, C3, config)

    def extension(G, classes):
        return cocycle.extension_from_out(
            automorphisms.automorphism_group(G, config), classes, config)

    def a4_out():
        # Out(A4) = C2, so class 1 is the only one
        result = extension(A4, [1])
        hist = dict(result.fingerprint())
        if hist != {1: 1, 2: 9, 3: 8, 4: 6}:
            raise AssertionError("unexpected extension fingerprint %r" % hist)
        return "index %d, ambient order %d" % (
            result.cocycle.quotient.order, result.ambient.order)

    rec.run("extensions:a4-out", a4_out, own_groups=True)

    def s3_trivial_out():
        result = extension(S3, [])
        if result.cocycle.quotient.order != 1:
            raise AssertionError("empty outer data must give index 1")

    rec.run("extensions:s3-trivial", s3_trivial_out, own_groups=True)

    def s3xs3_swap():
        # Out(S3 x S3) = C2, its class the swap of the factors
        result = extension(S3xS3, [1])
        index = result.cocycle.quotient.order
        if index != 2 or result.ambient.order != 72:
            raise AssertionError("swap extension has the wrong size")
        return "index %d" % index

    rec.run("extensions:s3xs3-swap", s3xs3_swap, own_groups=True)

    def wreath_like(wr=wr):
        wreath.verify_wreath_like(wr.group, wr.base_copies, wr.kappa,
                                  wr.acting)
        return "C2 wr C3, order %d, %d copies" % (wr.group.order,
                                                  len(wr.base_copies))

    rec.run("extensions:c2wrc3-wreath-like", wreath_like, own_groups=True)

    def nonsplit_wreath_like():
        # A4 x| C4 as WR(C2, S3 on 3 points): copy i is <z v_i>, with
        # z = (4 6)(5 7) and v_i the i-th involution of V4, and kappa
        # sends each generator to the permutation it makes of the copies.
        # No lift of a transposition has order 2, so G does not split.
        cycles = ("(0 1)(2 3)(4 6)(5 7)", "(0 2)(1 3)(4 6)(5 7)",
                  "(0 3)(1 2)(4 6)(5 7)")
        copies = [permgroup.PermGroup(
            8, [permgroup.parse_cycle_string(8, c)], config) for c in cycles]
        kappa = permgroup.homomorphism_from_images(
            A4C4.generators, [permgroup.parse_cycle_string(3, c)
                              for c in ("(0 2 1)", "(0 1 2)", "(1 2)")],
            A4C4.order)
        wreath.verify_wreath_like(A4C4, copies, kappa, S3)
        return "A4 x| C4, order %d, %d copies" % (A4C4.order, len(copies))

    rec.run("extensions:a4c4-wreath-like", nonsplit_wreath_like,
            own_groups=True)


def _suite_arithmetic(rec: _Recorder, cases, config: Config) -> None:

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
        # G >= H >= K = core_G(H), all indices integers; they hold for
        # any K <= H, so K is held to being the kernel of G on H\G
        for case in cases:
            G, H = case.group, case.subgroup
            K = automorphisms.normal_core(G, H)
            a = G.order // K.order
            c = H.order // K.order
            if a != case.index * c:
                raise AssertionError("index tower is not multiplicative "
                                     "on %s" % case.name)
            if any(g * x * g.inv() not in K
                   for g in G.generators for x in K.generators):
                raise AssertionError("core is not normal on %s" % case.name)
            # K fixes every coset, and G acts on them with |G|/|K| images
            action = permgroup.right_coset_data(G, H).action
            trivial = tuple(range(case.index))
            image = permgroup.PermGroup(case.index, [
                permgroup.Perm(action(g)) for g in G.generators], config)
            if (image.order != a
                    or any(action(x) != trivial for x in K.elements)):
                raise AssertionError("core is not the kernel on the cosets "
                                     "of %s" % case.name)
        return "%d towers over the normal core" % len(cases)

    rec.run("arithmetic:chains", chains)


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
    H <= G is checked, so |H| divides |G| by Lagrange.  The name, the
    file's stem when left out, names the file's cases; like the
    built-in names it holds only ASCII letters, digits, "-" and "_", so
    it can split neither a case id at ":" nor an output line.  A
    directory or file that cannot be read is a ParseError.
    """
    cases, taken = [], set()
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
        name = obj.get("name", os.path.splitext(fn)[0])
        if not (isinstance(name, str) and name) or name in taken:
            raise ParseError("%s: corpus name must be a non-empty string "
                             "that no other file takes" % fn)
        if not (name.isascii()
                and all(ch.isalnum() or ch in "-_" for ch in name)):
            raise ParseError("%s: corpus name %r may hold only letters, "
                             "digits, '-' and '_'" % (fn, name))
        taken.add(name)
        G = formats.group_from_json(obj.get("group"), config)
        H = formats.group_from_json(obj.get("subgroup"), config)
        if not H.is_subgroup_of(G):
            raise SubgroupError("%s: subgroup entry is not contained" % fn)
        cases.append(corpus.InclusionCase(name, G, H))
    return tuple(cases)


def run_suite(suite: str, cases=None, corpus_dir=None,
              config: Config = DEFAULT) -> VerifyReport:
    """Run one named suite, or every suite with "all"."""
    if cases is None:
        cases = (load_corpus_dir(corpus_dir, config) if corpus_dir
                 else corpus.builtin_cases(config))
    if suite != "all" and suite not in _SUITE_FUNCS:
        raise ParseError("unknown suite %r, have %s"
                         % (suite, ", ".join(SUITES + ("all",))))
    rec = _Recorder("on built-in groups, not the corpus" if corpus_dir
                    else "")
    start = time.perf_counter()
    for name in SUITES if suite == "all" else (suite,):
        _SUITE_FUNCS[name](rec, cases, config)
    return VerifyReport(suite, tuple(rec.results),
                        time.perf_counter() - start)

"""Self-check suite runner and corpus directory loading."""

from __future__ import annotations

import itertools
import json

import pytest

from sfw import automorphisms, chartab, cli, corpus, permgroup, theta
from sfw.config import DEFAULT
from sfw.corpus import InclusionCase, builtin_cases, case_by_name, case_names
from sfw.errors import InvariantViolationError, ParseError, SubgroupError
from sfw.formats import canonical_json
from sfw.permgroup import (CosetData, PermGroup, parse_cycle_string,
                           right_coset_data)
from sfw.verify import SUITES, load_corpus_dir, run_suite
from oracles import (
    GroupAlgebraElement,
    nested_expectation_entry,
    symmetric_group,
)


def test_every_named_suite_passes_on_the_builtin_corpus():
    for name in SUITES:
        report = run_suite(name)
        assert not report.failures, report.to_json()
        assert report.cases_run > 0


def test_unknown_suite_name():
    with pytest.raises(ParseError):
        run_suite("nonsense")


def test_report_json_shape():
    report = run_suite("arithmetic")
    obj = report.to_json()
    assert obj["suite"] == "arithmetic"
    assert obj["failed"] == 0
    assert obj["cases_run"] == len(obj["cases"])
    assert all("id" in c and "ok" in c for c in obj["cases"])


def test_corpus_dir_loading(tmp_path):
    entry = {
        "name": "c4-c2",
        "group": {
            "degree": 4,
            "convention": "rightmost-first",
            "generators": ["(0 1 2 3)"],
        },
        "subgroup": {
            "degree": 4,
            "convention": "rightmost-first",
            "generators": ["(0 2)(1 3)"],
        },
    }
    (tmp_path / "case.json").write_text(canonical_json(entry))
    cases = load_corpus_dir(str(tmp_path))
    assert len(cases) == 1
    assert cases[0].name == "c4-c2"
    assert cases[0].index == 2
    report = run_suite("theta", cases=cases)
    assert not report.failures


def test_corpus_dir_rejects_bad_entries(tmp_path):
    with pytest.raises(ParseError):
        load_corpus_dir(str(tmp_path))
    bad = {
        "name": "broken",
        "group": {
            "degree": 3,
            "convention": "rightmost-first",
            "generators": ["(0 1)"],
        },
        "subgroup": {
            "degree": 3,
            "convention": "rightmost-first",
            "generators": ["(0 1 2)"],
        },
    }
    (tmp_path / "bad.json").write_text(canonical_json(bad))
    with pytest.raises(SubgroupError):
        load_corpus_dir(str(tmp_path))


# S3 > A3 as a corpus entry with no name
S3_A3 = {"group": {"degree": 3, "convention": "rightmost-first",
                   "generators": ["(0 1 2)", "(0 1)"]},
         "subgroup": {"degree": 3, "convention": "rightmost-first",
                      "generators": ["(0 1 2)"]}}


@pytest.mark.parametrize("name", [{"x": [1]}, [1], 7, None, ""],
                         ids=["object", "list", "number", "null", "empty"])
def test_corpus_names_are_non_empty_strings(tmp_path, capsys, name):
    (tmp_path / "bad.json").write_text(
        canonical_json(dict(S3_A3, name=name)))
    with pytest.raises(ParseError, match="^bad.json: corpus name must be a "
                                         "non-empty string that no other "
                                         "file takes$"):
        load_corpus_dir(str(tmp_path))
    assert cli.main(["verify", "--suite", "theta", "--corpus-dir",
                     str(tmp_path)]) == 2
    assert "bad.json" in capsys.readouterr().err


def test_corpus_names_are_distinct_across_the_directory(tmp_path):
    # a name left out is the file's stem, which another file may take
    def write(fn, **name):
        (tmp_path / fn).write_text(canonical_json(dict(S3_A3, **name)))

    write("a.json", name="s3-a3")
    write("b.json")
    assert [c.name for c in load_corpus_dir(str(tmp_path))] == ["s3-a3", "b"]
    write("c.json", name="b")
    for other in ("b", "s3-a3"):
        write("c.json", name=other)
        with pytest.raises(ParseError, match="^c.json: corpus name must be "
                                             "a non-empty string that no "
                                             "other file takes$"):
            load_corpus_dir(str(tmp_path))


@pytest.mark.parametrize("fn, name", [
    ("bad.json", {"name": "a b:c\nd"}),
    ("bad.json", {"name": "theta:s3-a3"}),
    ("a:b.json", {}),
], ids=["newline", "colon", "stem"])
def test_corpus_names_cannot_split_a_case_id_or_a_line(tmp_path, capsys, fn,
                                                       name):
    # a newline would split an output line, and a ":" makes an id that
    # reads as another case's; a name left out is the file's stem
    (tmp_path / fn).write_text(canonical_json(dict(S3_A3, **name)))
    with pytest.raises(ParseError, match="^%s: corpus name .* may hold only "
                                         "letters, digits" % fn):
        load_corpus_dir(str(tmp_path))
    assert cli.main(["verify", "--suite", "theta", "--corpus-dir",
                     str(tmp_path)]) == 2
    assert fn in capsys.readouterr().err


def _theta_failures_on_s4_s3() -> set:
    report = run_suite("theta", cases=(case_by_name("s4-s3"),))
    return {c.case_id for c in report.failures}


def _corrupt_theta_at(monkeypatch, target, corrupt) -> None:
    real = theta.ThetaMap.matrix

    def matrix(self, g):
        m = real(self, g)
        return corrupt(m) if g == target else m

    monkeypatch.setattr(theta.ThetaMap, "matrix", matrix)


def test_theta_product_catches_a_fault_off_the_generators(monkeypatch):
    # (0 2) is no product of at most two generators of S4, so only a
    # product law checked on all of G x gens reaches it
    target = parse_cycle_string(4, "(0 2)")
    _corrupt_theta_at(monkeypatch, target,
                      lambda m: (m[1], m[0]) + m[2:])
    failures = _theta_failures_on_s4_s3()
    assert "theta:s4-s3:k1:product" in failures
    assert "theta:s4-s3:k1:entries" not in failures


def test_theta_entries_catch_a_wrong_label_on_a_generator(monkeypatch):
    case = case_by_name("s4-s3")
    h = next(x for x in case.subgroup.elements if not x.is_identity())
    _corrupt_theta_at(monkeypatch, case.group.generators[0],
                      lambda m: ((m[0][0], m[0][1] * h),) + m[1:])
    assert "theta:s4-s3:k1:entries" in _theta_failures_on_s4_s3()


def test_theta_expansion_catches_two_reps_in_one_coset(monkeypatch):
    # the coset of reps[2] loses its representative to the coset of
    # reps[1], so h * g_i misses one coset and meets another twice
    case = case_by_name("s4-s3")
    h = next(x for x in case.subgroup.elements if not x.is_identity())
    real = permgroup.right_coset_data

    def doubled(G, H):
        cosets = real(G, H)
        reps = cosets.reps
        return cosets._replace(reps=(reps[:2] + (h * reps[1],) + reps[3:]))

    monkeypatch.setattr(permgroup, "right_coset_data", doubled)
    # the theta maps refuse the doubled coset, each inside its own case
    report = run_suite("theta", cases=(case,))
    assert {c.case_id for c in report.failures} == {
        "theta:s4-s3:k%d:%s" % (k, check)
        for k in (1, 2) for check in ("entries", "product")} | {
        "theta:s4-s3:expansion"}


def test_theta_stabilizers_catch_a_corrupted_coset_action(monkeypatch):
    # h is in H, so it fixes the coset H of reps[0]; the corrupted action
    # moves it to coset 1 and leaves every other point alone
    case = case_by_name("s4-s3")
    h = next(x for x in case.subgroup.elements if not x.is_identity())
    real = CosetData.action

    def action(self, g):
        moved = real(self, g)
        return (1,) + moved[1:] if g == h else moved

    monkeypatch.setattr(CosetData, "action", action)
    assert "theta:s4-s3:stabilizers" in _theta_failures_on_s4_s3()
    # the check names the first point where the two sides disagree
    with pytest.raises(InvariantViolationError) as caught:
        theta.verify_stabilizers(case.group, case.subgroup)
    assert caught.value.witness == (h, 0)
    report = run_suite("theta", cases=(case,))
    detail = {c.case_id: c.detail for c in report.cases}[
        "theta:s4-s3:stabilizers"]
    assert detail == ("InvariantViolationError: stabilizer of the coset "
                      "differs from the intersection at %r" % ((h, 0),))


def test_a_wrong_row_fails_the_law_on_both_transversals(monkeypatch,
                                                        capsys):
    # theta((0 2)) with the rows of its first two columns swapped, as a
    # faulty row lookup would give; (0 2) is off the generators, so only
    # the law on G x gens reaches it, on the map `induce` prints too
    target = parse_cycle_string(4, "(0 2)")
    _corrupt_theta_at(monkeypatch, target,
                      lambda m: ((m[1][0], m[0][1]), (m[0][0], m[1][1]))
                      + m[2:])
    assert cli.main(["verify", "--suite", "theta", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    failed = {c["id"]: c["detail"] for c in report["cases"]
              if not c["ok"] and not c["skipped"]}
    for case_id in ("theta:s4-s3:k1:product", "theta:s4-s3:induced"):
        assert failed[case_id].startswith("theta is not multiplicative at ")
    assert "theta:s4-s3:k1:entries" not in failed


def test_nested_theta_entry_matches_the_group_algebra():
    # every (g, i, j), on and off the support of the amplified matrices
    count = 0
    for case in builtin_cases():
        G, H = case.group, case.subgroup
        cosets = right_coset_data(G, H)
        zero = GroupAlgebraElement.zero(H)
        for k in (1, 2):
            tuples = list(itertools.product(range(cosets.index), repeat=k))
            for g in G.elements:
                for i in tuples:
                    for j in tuples:
                        w = theta.nested_theta_entry(cosets, g, i, j)
                        want = nested_expectation_entry(cosets, g, i, j)
                        assert want == (zero if w is None else
                                        GroupAlgebraElement.from_perm(H, w))
                        count += 1
    assert count == 12588


def test_a_capped_theta_suite_lists_its_skipped_cases(capsys):
    # every case appears; the 8 (case, k) pairs over the cap skip their
    # entries and product cases, the 3 inclusions whose |G| t is over it
    # skip their induced case, and the skips name the cap and its flag
    argv = ["verify", "--suite", "theta", "--oracle-cap", "50"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("suite=theta cases=42 failures=0 skipped=19 ")
    skips = [line for line in lines if line.startswith("skip ")]
    assert len(skips) == 19 and len(lines) == 43
    assert all(line.endswith("over oracle_cap=50, set by --oracle-cap)")
               and line.split()[1].split(":")[2] in ("k1", "k2", "induced")
               for line in skips)
    assert sorted(line.split()[1] for line in skips
                  if line.split()[1].endswith(":induced")) == [
        "theta:s4-d4:induced", "theta:s4-s3:induced",
        "theta:wr2x3-base:induced"]
    assert cli.main(argv + ["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["cases_run"], report["failed"], report["skipped"]) == (
        42, 0, 19)
    assert sum(c["skipped"] and not c["ok"] for c in report["cases"]) == 19


def test_a_commutants_case_with_every_entry_over_the_cap_is_a_skip():
    config = DEFAULT.replace(oracle_cap=50)
    report = run_suite("graphs", config=config)
    commutants = {c.case_id.split(":")[1]: c for c in report.cases
                  if c.case_id.endswith(":commutants")}
    assert not report.failures
    assert sorted(name for name, c in commutants.items() if c.skipped) == [
        "a4-v4", "s3-flip", "s4-d4", "s4-s3", "wr2x3-base"]
    partial = commutants["s3-a3"]
    assert partial.ok and not partial.skipped
    assert partial.detail == ("4 tower entries match the oracle, 4 skipped "
                              "over oracle_cap=50, set by --oracle-cap")


@pytest.mark.parametrize("flags, skipped", [
    (["--theta-k-cap", "1"], 12),
    (["--theta-k-cap", "0"], 30),
    (["--order-cap", "60"], 1),
    (["--oracle-cap", "50"], 24),
])
def test_a_cap_met_inside_a_case_is_a_skip(capsys, flags, skipped):
    # a cap bounds work and checks nothing: the theta cases over the k
    # cap, the commutants cases under a k cap of 0, the swap extension,
    # whose automorphism group of order 72 is found inside its case, and the
    # theta and commutants cases over the oracle cap skip.  Each detail
    # is the error's message, which names the cap and its flag.
    assert cli.main(["verify", "--json"] + flags) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["failed"], report["skipped"]) == (0, skipped)
    skips = {c["id"]: c["detail"] for c in report["cases"] if c["skipped"]}
    limit = " is over %s=%s, set by %s" % (flags[0][2:].replace("-", "_"),
                                           flags[1], flags[0])
    assert all(detail.endswith(limit) for detail in skips.values())
    if flags[0] == "--order-cap":
        assert skips == {"extensions:s3xs3-swap": "group order" + limit}
    elif flags[0] == "--oracle-cap":
        assert skips["theta:s4-s3:k1:entries"] == "|G| t^1 = 96" + limit
        assert skips["theta:s4-s3:induced"] == "|G| t^1 = 96" + limit
        assert skips["graphs:s4-s3:commutants"] == "oracle size 384" + limit
    elif flags[1] == "1":
        assert all(":k2:" in case and detail == "tuple length 2" + limit
                   for case, detail in skips.items())
    else:
        assert not any(case.startswith("arithmetic:") for case in skips)
        assert all(skips["graphs:%s:commutants" % name]
                   == "tuple length 1" + limit for name in case_names())


def test_the_nonsplit_wreath_like_case_fails_on_another_group(monkeypatch):
    # with (0 1)(4 6)(5 7) for the generator of C4, the group is S4 on
    # the first four points, which holds no z v_i: the case fails, and
    # the other extension cases still pass
    declared = corpus.declared_group
    other = PermGroup(8, [parse_cycle_string(8, c) for c in (
        "(0 1 2)", "(1 2 3)", "(0 1)(4 6)(5 7)")])
    monkeypatch.setattr(corpus, "declared_group", lambda name, config: (
        other if name == "A4C4" else declared(name, config)))
    report = run_suite("extensions")
    outcomes = {c.case_id: (c.ok, c.detail) for c in report.cases}
    assert outcomes.pop("extensions:a4c4-wreath-like") == (
        False, "InvariantViolationError: copy is not a subgroup at (0,)")
    assert all(ok for ok, _ in outcomes.values())


def test_the_extension_cases_skip_an_automorphism_search_over_aut_cap(
        capsys):
    # each extension case finds the automorphism group of its base (A4,
    # S3 and S3 x S3, of orders 12, 6 and 36) inside the case
    argv = ["verify", "--suite", "extensions", "--aut-cap", "5", "--json"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    skips = {c["id"]: c["detail"] for c in report["cases"] if c["skipped"]}
    limit = " is over aut_cap=5, set by --aut-cap"
    assert skips == {"extensions:a4-out": "group order 12" + limit,
                     "extensions:s3-trivial": "group order 6" + limit,
                     "extensions:s3xs3-swap": "group order 36" + limit}
    assert report["failed"] == 0


def test_the_dual_graph_case_checks_the_character_tables(monkeypatch):
    # the tables are built, and their orthogonality checked, by the dual
    # graph; fresh groups keep any table cached on the corpus out
    def broken(*args):
        raise InvariantViolationError("row orthogonality fails")

    monkeypatch.setattr(chartab, "_check_orthogonality", broken)
    S3 = symmetric_group(3)
    case = InclusionCase("s3-flip", S3,
                         S3.subgroup([parse_cycle_string(3, "(0 1)")]))
    report = run_suite("graphs", cases=(case,))
    dual = {c.case_id: c for c in report.cases}["graphs:s3-flip:dual"]
    assert not dual.ok and not dual.skipped
    assert dual.detail == ("InvariantViolationError: row orthogonality "
                           "fails")


@pytest.mark.parametrize("core, detail", [
    pytest.param("trivial", "core is not the kernel on the cosets of s3-a3",
                 id="trivial"),
    pytest.param("subgroup", "core is not normal on s3-flip", id="subgroup"),
])
def test_arithmetic_chains_catch_a_wrong_normal_core(monkeypatch, core,
                                                     detail):
    # |G|/|K| = [G:H] |H|/|K| holds for any K <= H, so the index checks
    # alone pass with either of these in place of the core
    wrong = {"trivial": lambda G, H: permgroup.PermGroup(G.degree, ()),
             "subgroup": lambda G, H: H}[core]
    monkeypatch.setattr(automorphisms, "normal_core", wrong)
    report = run_suite("arithmetic")
    chains = {c.case_id: c for c in report.cases}["arithmetic:chains"]
    assert not chains.ok and not chains.skipped
    assert chains.detail == detail

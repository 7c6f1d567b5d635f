"""Self-check suite runner and corpus directory loading."""

from __future__ import annotations

import pytest

from sfw import groupalgebra, theta
from sfw.corpus import case_by_name
from sfw.errors import ParseError, SubgroupError
from sfw.formats import canonical_json
from sfw.permgroup import parse_cycle_string
from sfw.verify import SUITES, load_corpus_dir, run_suite


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


def test_theta_expansion_catches_dropped_imaginary_parts(monkeypatch):
    real = groupalgebra.pimsner_popa_expand

    def real_parts(x, cosets):
        return [groupalgebra.GroupAlgebraElement(
                    part.group, {g: complex(c.real)
                                 for g, c in part.coeffs.items()})
                for part in real(x, cosets)]

    monkeypatch.setattr(groupalgebra, "pimsner_popa_expand", real_parts)
    assert "theta:s4-s3:expansion" in _theta_failures_on_s4_s3()

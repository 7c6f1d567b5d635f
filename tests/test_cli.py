"""Command line interface: outputs, option handling, exit codes."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sfw import chartab, cli, verify
from sfw.config import DEFAULT, Config, config_fields
from sfw.corpus import builtin_cases, case_by_name, case_names
from sfw.formats import canonical_json, graph_from_json, group_to_json
from sfw.permgroup import CosetData, cyclic_group

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, argv):
    try:
        rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code
    return rc, capsys.readouterr().out


def child_env() -> dict:
    """The environment for a child process that imports sfw from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def write_group(path, G):
    path.write_text(canonical_json(group_to_json(G)))
    return str(path)


def test_index_command(capsys):
    rc, out = run(capsys, ["index", "--case", "s3-flip", "--json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["index"] == 3
    assert obj["double_cosets"] == 2
    assert obj["right_cosets"] == 3
    assert obj["commutant_dims"]["in-L(H)"]["1"] == 2
    assert obj["commutant_dims"]["in-L(G)"]["2"] == 41


def test_index_from_group_files(capsys, tmp_path):
    g = write_group(tmp_path / "g.json", case_by_name("s3-flip").group)
    h = write_group(tmp_path / "h.json", case_by_name("s3-a3").subgroup)
    rc, out = run(capsys, ["index", "--group", g, "--subgroup", h, "--json"])
    assert rc == 0
    assert json.loads(out)["index"] == 2


def test_index_reports_every_k_up_to_the_k_cap(capsys, tmp_path):
    # |S6| * 6^k passes the default oracle_cap at k = 2, but the orbit
    # count does not grow with k, so only theta_k_cap may stop the tower
    g, h = tmp_path / "s6.json", tmp_path / "s5.json"
    for path, gens in ((g, ["(0 1 2 3 4 5)", "(0 1)"]),
                       (h, ["(0 1 2 3 4)", "(0 1)"])):
        path.write_text(canonical_json({"degree": 6,
                                        "convention": "rightmost-first",
                                        "generators": gens}))
    rc, out = run(capsys, ["index", "--group", str(g), "--subgroup", str(h),
                           "--json"])
    assert rc == 0
    assert json.loads(out)["commutant_dims"] == {
        "in-L(H)": {"1": 2, "2": 15, "3": 203},
        "in-L(G)": {"1": 5, "2": 52, "3": 876},
    }


def test_graph_command_json_and_dot(capsys):
    rc, out = run(capsys, ["graph", "--case", "a4-v4", "--kind", "principal", "--json"])
    assert rc == 0
    graph = graph_from_json(json.loads(out))
    assert len(graph.even) == 3 and len(graph.odd) == 1
    assert graph.norm_squared == 3.0

    rc, out = run(capsys, ["graph", "--case", "s3-flip", "--format", "dot"])
    assert rc == 0
    assert out.startswith("graph principal")
    assert out.count(" -- ") == 4

    rc, out = run(capsys, ["graph", "--case", "s3-flip", "--kind", "dual", "--format", "dot"])
    assert rc == 0
    assert "G:chi2" in out


def test_chartab_command(capsys):
    rc, out = run(capsys, ["chartab", "--case", "s3-flip", "--member", "subgroup", "--json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["degrees"] == [1, 1]
    assert obj["group_order"] == 2


def test_chartab_prints_no_negative_zero(capsys):
    # a zero real or imaginary part of a float sum of roots of unity
    # comes out with the sign of its rounding error
    for name in case_names():
        for member in ("group", "subgroup"):
            argv = ["chartab", "--case", name, "--member", member]
            rc, out = run(capsys, argv + ["--json"])
            assert rc == 0
            numbers = [x for row in json.loads(out)["values"]
                       for pair in row for x in pair]
            assert all(x or math.copysign(1.0, x) > 0 for x in numbers)
            rc, out = run(capsys, argv)
            assert rc == 0
            assert not re.search(r"-0(?![.\d])", out), out


@pytest.mark.parametrize("rung", [
    (7, ["(0 1 2 3 4 5 6)", "(0 1)"], ["(0 1 2 3 4 5)", "(0 1)"]),
    (8, ["(0 1)", "(0 2)(1 3)", "(0 2 4 6)(1 3 5 7)"],
     ["(0 1)", "(2 3)", "(4 5)", "(6 7)"]),
], ids=["s7", "c2wrs4"])
def test_rational_character_tables_print_exact_integers(capsys, tmp_path,
                                                        rung):
    # S7 and C2 wr S4 are Weyl groups (types A6 and B4), so every
    # character value is an integer; a float eigen-solve printed
    # 3.999999999999 on S7 and -4.000000000001 on C2 wr S4
    degree, group, subgroup = rung
    paths = []
    for name, gens in (("g", group), ("h", subgroup)):
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps({"degree": degree, "generators": gens}))
        paths.append(str(path))
    rc, out = run(capsys, ["chartab", "--json", "--group", paths[0],
                           "--subgroup", paths[1], "--order-cap", "10000"])
    assert rc == 0
    values = json.loads(out)["values"]
    assert all(re == int(re) and im == 0.0
               for row in values for re, im in row)


def test_spectrum_command(capsys):
    rc, out = run(capsys, ["spectrum", "2", "--json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["kind"] == "discrete" and obj["n"] == 4
    rc, out = run(capsys, ["spectrum", "3.5", "--json"])
    assert rc == 0
    assert json.loads(out)["kind"] == "not-in-spectrum"


def test_spectrum_nan_exits_2():
    # NaN fails every comparison of the spectrum scan; run in a child
    # process so that a scan that never ends fails the test on timeout
    env = child_env()
    proc = subprocess.run([sys.executable, "-m", "sfw.cli", "spectrum", "nan"],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert proc.stdout == ""


@pytest.mark.parametrize("value", ["inf", "-inf"])
def test_spectrum_infinite_value_exits_2(capsys, value):
    # an infinite value has no JSON form
    rc = cli.main(["spectrum", "--json", "--", value])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_spectrum_next_to_four_returns_promptly():
    # the discrete points accumulate at 4: the largest float below 4 sits
    # beyond n = 10^8, so a walk over the points would run for minutes
    env = child_env()
    proc = subprocess.run([sys.executable, "-m", "sfw.cli", "spectrum",
                           "3.9999999999999996", "--tol-spectrum", "0",
                           "--json"],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] in ("discrete", "not-in-spectrum")


def test_vindex_command(capsys):
    rc, out = run(
        capsys,
        ["vindex", "--total", "3", "--part", "1:1:2", "--part", "1:2:3", "--json"],
    )
    assert rc == 0
    assert json.loads(out)["virtual_index"] == 15


def test_vindex_constraint_violation_exits_3(capsys):
    rc, _ = run(capsys, ["vindex", "--total", "4", "--part", "1:2:5"])
    assert rc == 3


VINDEX = ["vindex", "--total", "1", "--part", "1:1:1"]


def test_vindex_rejects_an_unknown_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("SFW_BOGUS", "1")
    rc = cli.main(VINDEX)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == \
        "error: bad environment setting: unknown variables: SFW_BOGUS\n"


def test_vindex_rejects_a_missing_config_file(capsys, tmp_path):
    rc = cli.main(VINDEX + ["--config", str(tmp_path / "missing.json")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: cannot read config")


def test_vindex_rejects_a_bad_flag_value(capsys):
    rc = cli.main(VINDEX + ["--order-cap", "0"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: bad option")


def test_extend_command(capsys):
    rc, out = run(capsys, ["extend", "--case", "a4-v4", "--json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["index"] == 2
    assert obj["ambient_order"] == 24
    assert obj["fingerprint"] == {"1": 1, "2": 9, "3": 8, "4": 6}
    assert obj["relations_ok"] is True


def test_induce_command(capsys):
    rc, out = run(capsys, ["induce", "--case", "s3-a3", "--element", "(0 1)", "--json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["degree"] == 2
    entries = obj["matrices"][0]["entries"]
    assert sorted((e["row"], e["col"]) for e in entries) == [(0, 1), (1, 0)]
    assert all(e["support"] == "()" for e in entries)


def test_induce_is_not_bound_by_the_theta_k_cap(capsys):
    # induce prints theta at k = 1 built with the default config, so a
    # k cap of 0, which leaves index no k at all, changes nothing here
    argv = ["induce", "--case", "s3-a3", "--json"]
    rc, out = run(capsys, argv)
    assert rc == 0
    rc, capped = run(capsys, argv + ["--theta-k-cap", "0"])
    assert rc == 0
    assert capped == out


def test_verify_command(capsys):
    rc, out = run(capsys, ["verify", "--suite", "arithmetic"])
    assert rc == 0
    assert "failures=0" in out


def test_verify_corpus_dir(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
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
    (corpus / "c4c2.json").write_text(canonical_json(entry))
    rc, out = run(capsys, ["verify", "--suite", "graphs", "--corpus-dir", str(corpus)])
    assert rc == 0
    assert "failures=0" in out


@pytest.mark.parametrize("suite, builds_its_own", [
    pytest.param("cocycles", True, id="cocycles"),
    pytest.param("extensions", True, id="extensions"),
    pytest.param("arithmetic", False, id="arithmetic"),
])
def test_verify_groups_of_its_own_respect_order_cap(capsys, tmp_path, suite,
                                                    builds_its_own):
    # The corpus fits under the cap, but cocycles and extensions also
    # build S4, A4 or S3 x S3 for themselves; those must stop the run,
    # not pass it.  arithmetic uses the corpus alone and passes.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    entry = {
        "name": "s3-a3",
        "group": {"degree": 3, "convention": "rightmost-first",
                  "generators": ["(0 1 2)", "(0 1)"]},
        "subgroup": {"degree": 3, "convention": "rightmost-first",
                     "generators": ["(0 1 2)"]},
    }
    (corpus / "s3a3.json").write_text(canonical_json(entry))
    argv = ["verify", "--suite", suite, "--corpus-dir", str(corpus)]
    rc = cli.main(argv + ["--order-cap", "6"])
    captured = capsys.readouterr()
    if builds_its_own:
        assert rc == 4
        assert captured.err.startswith("error: group order exceeds cap 6")
        assert captured.out == ""
    else:
        assert rc == 0 and "failures=0" in captured.out
    rc, out = run(capsys, argv)
    assert rc == 0
    assert "failures=0" in out


def test_out_file_replaces_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    rc, out = run(capsys, ["index", "--case", "s3-flip", "--json", "--out", str(target)])
    assert rc == 0
    assert out == ""
    assert json.loads(target.read_text())["index"] == 3


def test_out_file_in_missing_directory_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    rc = cli.main(["index", "--case", "s3-flip", "--out", str(target)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: cannot write")
    assert captured.out == ""


def test_unknown_case_exits_2(capsys):
    rc, _ = run(capsys, ["index", "--case", "nope"])
    assert rc == 2


def test_case_and_group_are_mutually_exclusive(capsys, tmp_path):
    g = write_group(tmp_path / "g.json", case_by_name("s3-flip").group)
    rc, _ = run(capsys, ["index", "--case", "s3-flip", "--group", g])
    assert rc == 2


def test_non_subgroup_exits_3(capsys, tmp_path):
    g = write_group(tmp_path / "g.json", case_by_name("s3-flip").group)
    h = write_group(tmp_path / "h.json", case_by_name("a4-v4").subgroup)
    rc, _ = run(capsys, ["index", "--group", g, "--subgroup", h])
    assert rc == 3


def test_order_cap_exits_4(capsys, tmp_path):
    g = write_group(tmp_path / "g.json", case_by_name("s3-flip").group)
    h = write_group(tmp_path / "h.json", case_by_name("s3-a3").subgroup)
    rc, _ = run(capsys, ["index", "--group", g, "--subgroup", h, "--order-cap", "3"])
    assert rc == 4


def test_chartab_past_the_class_cap_exits_4(capsys, tmp_path):
    # C65 has one conjugacy class more than the table cap admits
    g = write_group(tmp_path / "c65.json",
                    cyclic_group(chartab.CLASS_CAP + 1))
    rc = cli.main(["chartab", "--group", g, "--subgroup", g])
    captured = capsys.readouterr()
    assert rc == 4
    assert "65 conjugacy classes, cap is 64" in captured.err


def test_bad_cycle_string_exits_2(capsys):
    rc, _ = run(capsys, ["induce", "--case", "s3-a3", "--element", "(0 9)"])
    assert rc == 2


def test_bad_suite_is_an_argparse_error(capsys):
    rc, _ = run(capsys, ["verify", "--suite", "bogus"])
    assert rc == 2


def test_parser_lists_the_builtin_cases_and_the_verify_suites():
    # spelled out in cli so that building the parser runs neither module
    assert cli.CASE_NAMES == case_names()
    assert cli.SUITE_NAMES == verify.SUITES


def subcommand_help(parser, name, capsys):
    with pytest.raises(SystemExit):
        parser.parse_args([name, "--help"])
    return capsys.readouterr().out


def test_the_parser_adds_arguments_only_for_the_named_subcommand(capsys):
    full = cli.build_parser()
    names = [name for name, _, _, _ in cli.SUBCOMMANDS]
    for name in names:
        narrow = cli.build_parser([name, "--json"])
        assert narrow.format_help() == full.format_help()
        assert (subcommand_help(narrow, name, capsys)
                == subcommand_help(full, name, capsys))
        for other in names:
            if other != name:
                assert "--json" not in subcommand_help(narrow, other, capsys)
    # no subcommand named: every subcommand gets its arguments
    for argv in ([], ["--help"], ["bogus"]):
        parser = cli.build_parser(argv)
        assert all("--json" in subcommand_help(parser, name, capsys)
                   for name in names)


def test_a_case_builds_only_its_own_groups():
    # a fresh interpreter, so that no case is cached yet
    code = "\n".join([
        "import sys",
        "# importing the wreath product code now raises ImportError",
        "sys.modules['sfw.wreath'] = None",
        "from sfw import corpus",
        "case = corpus.case_by_name('s4-d4')",
        "print(case.group.order, case.subgroup.order, case.index)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "24 8 3\n"


def test_the_cases_are_listed_in_order_and_built_once():
    cases = builtin_cases()
    assert tuple(c.name for c in cases) == case_names()
    assert all(case_by_name(c.name) is c for c in cases)
    # S3 and S4 each serve two cases as one group
    assert cases[0].group is cases[1].group
    assert cases[2].group is cases[3].group


def test_theta_entry_outside_the_subgroup_exits_1(capsys, monkeypatch):
    # a fault only sfw can make: relabelled cosets that keep the old labels
    relabel = CosetData.with_reps

    def unmapped(self, reps):
        return relabel(self, reps)._replace(coset_of=self.coset_of)

    monkeypatch.setattr(CosetData, "with_reps", unmapped)
    rc = cli.main(["induce", "--case", "a4-v4"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "lies outside the subgroup" in captured.err


def test_a_table_without_its_trivial_character_exits_1(capsys, monkeypatch,
                                                      tmp_path):
    # a fault only sfw can make: a character table that lost its trivial
    # character.  It runs on groups read from files, so the restriction
    # matrix built from the faulty table is cached on groups of its own,
    # not on the built-in case that later tests read.
    case = case_by_name("s3-a3")
    g = write_group(tmp_path / "g.json", case.group)
    h = write_group(tmp_path / "h.json", case.subgroup)
    build = chartab.character_table

    def faulty(G):
        table = build(G)
        kept = [n for n, chi in enumerate(table.characters)
                if not all(v == 1 for v in chi.values)]
        return table._replace(
            characters=tuple(table.characters[n] for n in kept),
            degrees=tuple(table.degrees[n] for n in kept))

    monkeypatch.setattr(chartab, "character_table", faulty)
    rc = cli.main(["graph", "--group", g, "--subgroup", h, "--kind", "dual"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "no trivial character" in captured.err


def test_config_file_settings_apply(capsys, tmp_path):
    g = write_group(tmp_path / "g.json", case_by_name("s3-flip").group)
    h = write_group(tmp_path / "h.json", case_by_name("s3-a3").subgroup)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"order_cap": 3}\n')
    rc, _ = run(capsys, ["index", "--group", g, "--subgroup", h, "--config", str(cfg)])
    assert rc == 4
    cfg.write_text('{"order_cpa": 3}\n')
    rc, _ = run(capsys, ["index", "--group", g, "--subgroup", h, "--config", str(cfg)])
    assert rc == 2


def test_env_cap_applies_and_flags_win(capsys, tmp_path, monkeypatch):
    g = write_group(tmp_path / "g.json", case_by_name("s3-flip").group)
    h = write_group(tmp_path / "h.json", case_by_name("s3-a3").subgroup)
    monkeypatch.setenv("SFW_ORDER_CAP", "3")
    rc, _ = run(capsys, ["index", "--group", g, "--subgroup", h])
    assert rc == 4
    rc, _ = run(capsys, ["index", "--group", g, "--subgroup", h, "--order-cap", "100"])
    assert rc == 0


def test_non_integer_env_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("SFW_ORDER_CAP", "abc")
    rc = cli.main(["index", "--case", "s3-flip"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: bad environment setting")
    assert "SFW_ORDER_CAP" in captured.err


@pytest.mark.parametrize("text", [
    '{"order_cap": "x"}',
    '{"oracle_cap": null}',
    '{"tol_multiplicity": "x"}',
    '{"aut_cap": true}',
    '{"theta_k_cap": -1}',
    '{"order_cap": 0}',
    '{"tol_spectrum": -1e-9}',
    '{"tol_char": Infinity}',
    '[1]',
])
def test_bad_config_file_value_exits_2(capsys, tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    rc = cli.main(["index", "--case", "s3-flip", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: bad config file")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["--order-cap", "-1"],
    ["--oracle-cap", "0"],
    ["--theta-k-cap", "-1"],
    ["--aut-cap", "0"],
    ["--tol-spectrum", "-0.5"],
    ["--tol-spectrum", "nan"],
])
def test_bad_config_flag_value_exits_2(capsys, argv):
    rc = cli.main(["index", "--case", "s3-flip"] + argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: bad option")


@pytest.mark.parametrize("name", ["SFW_ORDER_CAPP", "SFW_TOL_NORM",
                                  "SFW_TOL_CHAR", "SFW_TOL_MULTIPLICITY"])
def test_unknown_env_variable_exits_2(capsys, monkeypatch, name):
    monkeypatch.setenv(name, "1")
    rc = cli.main(["index", "--case", "s3-a3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == \
        "error: bad environment setting: unknown variables: %s\n" % name
    assert captured.out == ""


def test_bad_env_config_value_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("SFW_TOL_SPECTRUM", "nan")
    rc = cli.main(["index", "--case", "s3-flip"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: bad environment setting")
    assert "tol_spectrum" in captured.err


def test_every_config_field_has_a_flag():
    parser = cli.build_parser()
    for name, kind in config_fields():
        flag = "--" + name.replace("_", "-")
        args = parser.parse_args(["index", "--case", "s3-flip", flag, "1"])
        value = getattr(cli._build_config(args), name)
        assert value == 1 and type(value) is kind


def test_removed_norm_tolerance_exits_2(capsys, tmp_path):
    rc, out = run(capsys, ["graph", "--case", "s4-d4", "--tol-norm", "0"])
    assert rc == 2 and out == ""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tol_norm": 1e-6}')
    rc = cli.main(["graph", "--case", "s4-d4", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: bad config file: unknown config keys: " \
        "tol_norm\n"


@pytest.mark.parametrize("name", ["tol_char", "tol_multiplicity"])
def test_removed_character_tolerances_exit_2(capsys, tmp_path, name):
    # character tables and multiplicities are exact and take no tolerance;
    # test_unknown_env_variable_exits_2 covers the SFW_ variables
    flag = "--" + name.replace("_", "-")
    rc, out = run(capsys, ["chartab", "--case", "s4-d4", flag, "1e-9"])
    assert rc == 2 and out == ""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"%s": 1e-9}' % name)
    rc = cli.main(["graph", "--case", "s4-d4", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: bad config file: unknown config keys: " \
        "%s\n" % name


def test_config_validates_on_construction():
    # replace() makes a Config too, and must not skip the checks
    for bad in ({"order_cap": 0}, {"aut_cap": 2.0}, {"oracle_cap": True},
                {"theta_k_cap": -1}, {"tol_spectrum": float("nan")},
                {"tol_spectrum": -1e-12}, {"tol_spectrum": "1e-6"}):
        with pytest.raises(ValueError):
            Config(**bad)
        with pytest.raises(ValueError):
            DEFAULT.replace(**bad)
    with pytest.raises(TypeError):
        DEFAULT.replace(order_cpa=1)
    edge = Config(order_cap=1, aut_cap=1, theta_k_cap=0, oracle_cap=1,
                  tol_spectrum=0.0)
    assert edge.theta_k_cap == 0 and edge.tol_spectrum == 0
    assert config_fields() == (
        ("order_cap", int), ("aut_cap", int), ("theta_k_cap", int),
        ("oracle_cap", int), ("tol_spectrum", float))


def test_config_is_an_immutable_value():
    with pytest.raises(AttributeError):
        DEFAULT.order_cap = 1
    with pytest.raises(AttributeError):
        del DEFAULT.order_cap
    assert (DEFAULT.order_cap, DEFAULT.aut_cap, DEFAULT.theta_k_cap,
            DEFAULT.oracle_cap, DEFAULT.tol_spectrum) == (
        5000, 300, 3, 20000, 1e-9)
    changed = DEFAULT.replace(aut_cap=7)
    assert changed == Config(aut_cap=7)
    assert hash(changed) == hash(Config(aut_cap=7))
    assert changed != DEFAULT and changed.aut_cap == 7
    assert DEFAULT.replace() == DEFAULT == Config()


@pytest.mark.parametrize("argv, enough", [
    (["index", "--case", "s4-d4", "--order-cap", "2"], 24),
    (["graph", "--case", "s4-d4", "--order-cap", "23"], 24),
    (["chartab", "--case", "s3-a3", "--config", "CFG"], 6),
    (["induce", "--case", "s3-a3", "--order-cap", "5"], 6),
    # the extension of A4 by its outer class has order 24
    (["extend", "--case", "a4-v4", "--order-cap", "11"], 24),
    (["verify", "--suite", "graphs", "--order-cap", "2"], 24),
])
def test_order_cap_applies_to_builtin_cases(capsys, tmp_path, argv, enough):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"order_cap": 5}\n')
    argv = [str(cfg) if a == "CFG" else a for a in argv]
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.err.startswith("error: case ")
    assert captured.out == ""
    rc = cli.main(argv[:3] + ["--order-cap", str(enough)])
    capsys.readouterr()
    assert rc == 0


STABLE_COMMANDS = [
    [command, "--case", name, "--json"] + extra
    for name in ("a4-v4", "s4-s3")
    for command, extra in (("index", []), ("graph", []),
                           ("graph", ["--kind", "dual"]), ("chartab", []))
] + [
    ["extend", "--case", "a4-v4", "--json"],
    ["induce", "--case", "a4-v4", "--json"],
    ["verify", "--suite", "all", "--json"],
]

# one child process per hash seed runs every command, which keeps the two
# starts of the interpreter the only fixed cost
_STABLE_CHILD = """
import json, os, sys
from sfw import cli
out, commands = sys.argv[1], json.loads(sys.argv[2])
for n, argv in enumerate(commands):
    if cli.main(argv + ["--out", os.path.join(out, str(n))]) != 0:
        sys.exit("%r failed" % (argv,))
"""


def test_output_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    env = child_env()
    children = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        out.mkdir()
        children.append(subprocess.Popen(
            [sys.executable, "-c", _STABLE_CHILD, str(out),
             json.dumps(STABLE_COMMANDS)],
            env=dict(env, PYTHONHASHSEED=seed), stderr=subprocess.PIPE,
            text=True))
    for child in children:
        _, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
    for n, argv in enumerate(STABLE_COMMANDS):
        first, second = ((tmp_path / seed / str(n)).read_bytes()
                         for seed in ("0", "1"))
        if argv[0] == "verify":
            # the one field that measures the run instead of describing it
            first, second = (b"".join(line for line in text.splitlines(True)
                                      if b'"wall_time"' not in line)
                             for text in (first, second))
        assert first == second, argv


# one child process hides numpy from every import and runs the commands
# that build groups, tables, graphs, induced maps and extensions
_NO_NUMPY_CHILD = """
import json, os, sys
sys.modules["numpy"] = None
from sfw import cli
out, commands = sys.argv[1], json.loads(sys.argv[2])
failed = [argv for n, argv in enumerate(commands)
          if cli.main(argv + ["--out", os.path.join(out, str(n))]) != 0]
if failed or "numpy" in sys.modules and sys.modules["numpy"] is not None:
    sys.exit("failed without numpy: %r" % (failed,))
"""


def test_commands_run_without_numpy(tmp_path):
    commands = [["verify", "--suite", "all"]]
    for name in case_names():
        commands += [["index", "--case", name],
                     ["graph", "--case", name],
                     ["graph", "--case", name, "--kind", "dual"],
                     ["chartab", "--case", name],
                     ["induce", "--case", name]]
        # the one built-in group with a centre has no extension
        if name != "wr2x3-base":
            commands.append(["extend", "--case", name])
    env = child_env()
    child = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_CHILD, str(tmp_path),
         json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr


# The child imports sfw.cli, runs the command it is given, if any, and
# prints which modules of the package have run, and which other modules
# that import and the command loaded.  A module that cli registered
# lazily and that has not run yet is not a plain module object; reading
# any attribute of it would run it.
_EXECUTED_CHILD = """
import json, os, sys, types
before = set(sys.modules)
from sfw import cli
if len(sys.argv) > 1 and cli.main(sys.argv[1:] + ["--out", os.devnull]):
    sys.exit("%r failed" % (sys.argv[1:],))
ours = {name: type(module) is types.ModuleType
        for name, module in sys.modules.items()
        if name == "sfw" or name.startswith("sfw.")}
print(json.dumps({"sfw": ours,
                  "loaded": sorted(set(sys.modules) - before - set(ours))}))
"""


def executed_modules(*argv) -> tuple:
    """({sfw module: has run}, {other module loaded}) in a fresh process."""
    child = subprocess.run(
        [sys.executable, "-c", _EXECUTED_CHILD] + list(argv),
        env=child_env(), capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout)
    return result["sfw"], set(result["loaded"])


def test_importing_cli_runs_only_cli_config_and_errors():
    executed, _ = executed_modules()
    modules = {"sfw"} | {"sfw." + path.stem
                         for path in (SRC / "sfw").glob("*.py")
                         if path.stem != "__init__"}
    assert set(executed) == modules
    assert sorted(name for name, ran in executed.items() if ran) == [
        "sfw", "sfw.cli", "sfw.config", "sfw.errors"]


@pytest.mark.parametrize("argv, unused", [
    (["vindex", "--total", "1", "--part", "1:1:1"], ["permgroup"]),
    (["spectrum", "4.0"], ["permgroup"]),
    (["index", "--case", "s4-s3", "--json"],
     ["chartab", "cocycle", "indexarith", "verify"]),
    # theta and the extension relations are products in the group
    (["induce", "--case", "s4-d4", "--json"], ["groupalgebra", "verify"]),
    (["extend", "--case", "a4-v4", "--json"], ["groupalgebra", "verify"]),
    (["graph", "--case", "s4-s3"],
     ["cocycle", "groupalgebra", "indexarith", "verify"]),
    (["chartab", "--case", "s4-s3"],
     ["cocycle", "groupalgebra", "indexarith", "standard_invariant",
      "verify"]),
])
def test_a_subcommand_runs_only_the_modules_it_uses(argv, unused):
    executed, loaded = executed_modules(*argv)
    assert [name for name in unused if executed["sfw." + name]] == []
    # record classes are NamedTuples, which generate no code when their
    # module runs, and only the oracles need exact rationals
    assert sorted(loaded & {"dataclasses", "fractions"}) == []


# The modules whose bodies each command runs, besides sfw, cli, config and
# errors: index runs no automorphism, wreath-product, theta, character
# table, cocycle or group algebra code, and graph and chartab none of the
# automorphism, wreath-product or theta code.  Only the wr2x3-base case
# builds a wreath product.
@pytest.mark.parametrize("argv, runs", [
    (["index", "--case", "s4-s3", "--json"],
     ["corpus", "formats", "permgroup", "standard_invariant"]),
    (["graph", "--case", "s4-s3"],
     ["chartab", "corpus", "formats", "permgroup", "standard_invariant"]),
    (["graph", "--case", "s4-s3", "--kind", "dual"],
     ["chartab", "corpus", "formats", "permgroup", "standard_invariant"]),
    (["chartab", "--case", "s4-s3"],
     ["chartab", "corpus", "formats", "permgroup"]),
    (["induce", "--case", "s4-d4", "--json"],
     ["corpus", "formats", "permgroup", "standard_invariant", "theta"]),
    (["extend", "--case", "a4-v4", "--json"],
     ["automorphisms", "cocycle", "corpus", "formats", "permgroup"]),
    (["vindex", "--total", "1", "--part", "1:1:1"], ["indexarith"]),
    (["spectrum", "4.0"], ["indexarith"]),
    (["index", "--case", "wr2x3-base"],
     ["corpus", "permgroup", "standard_invariant", "wreath"]),
    (["verify", "--suite", "arithmetic"],
     ["automorphisms", "corpus", "indexarith", "permgroup",
      "standard_invariant", "verify", "wreath"]),
])
def test_each_command_runs_exactly_the_modules_it_reaches(argv, runs):
    executed, _ = executed_modules(*argv)
    assert sorted(name for name, ran in executed.items() if ran) == sorted(
        ["sfw", "sfw.cli", "sfw.config", "sfw.errors"]
        + ["sfw." + name for name in runs])


def test_verify_does_not_import_dataclasses():
    _, loaded = executed_modules("verify", "--suite", "all")
    assert "dataclasses" not in loaded

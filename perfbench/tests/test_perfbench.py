"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads as W  # noqa: E402
from sfw.chartab import character_table  # noqa: E402
from sfw.config import Config  # noqa: E402
from sfw.formats import group_from_json  # noqa: E402
from sfw.permgroup import double_coset_data  # noqa: E402
from sfw.standard_invariant import (  # noqa: E402
    IN_GROUP,
    IN_SUBGROUP,
    brute_force_commutant_dim,
    dual_principal_graph,
    principal_graph,
    relative_commutant_dim,
)

CFG = Config(order_cap=W.ORDER_CAP, oracle_cap=W.ORACLE_CAP)
# the exact oracle runs where G.order * t**k stays below this
ORACLE_LIMIT = 8000


def load_rung(name, seed, tmp_path):
    g_path, h_path = W.relabelled_files(W.RUNGS[name], random.Random(seed),
                                        str(tmp_path))
    return tuple(group_from_json(json.loads(Path(p).read_text()), CFG)
                 for p in (g_path, h_path))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(W.RUNGS))
def test_relabelled_rung_keeps_pinned_invariants(name, seed, tmp_path):
    rung = W.RUNGS[name]
    G, H = load_rung(name, seed, tmp_path)
    assert (G.order, H.order) == (rung.group_order, rung.subgroup_order)
    assert H.is_subgroup_of(G)
    assert double_coset_data(G, H).count == rung.double_cosets
    for k, dims in rung.dims.items():
        if G.order * rung.index ** k > ORACLE_LIMIT:
            continue
        for side, want in zip((IN_SUBGROUP, IN_GROUP), dims):
            assert relative_commutant_dim(G, H, H, k, side, CFG) == want
            assert brute_force_commutant_dim(G, H, H, k, side, CFG) == want
    if rung.classes is not None:
        for grp, count in zip((G, H), rung.classes):
            table = character_table(grp, CFG)
            assert table.classes.count == count
            assert sum(d * d for d in table.degrees) == grp.order
    if rung.vertices is not None:
        pe, po, de, do = rung.vertices
        graphs = [(dual_principal_graph(G, H, CFG), de, do)]
        if G.order <= 1000:
            graphs.append((principal_graph(G, H, CFG), pe, po))
        for graph, even, odd in graphs:
            assert (len(graph.even), len(graph.odd)) == (even, odd)
            assert abs(graph.norm_squared - rung.index) <= W.TOL_NORM


def test_seed_fixes_inputs(tmp_path):
    first = [c.argv[1:] for c in W.build("checks", 5, str(tmp_path))]
    again = [c.argv[1:] for c in W.build("checks", 5, str(tmp_path))]
    assert first == again
    files = [Path(tmp_path, n) for n in ("a", "b")]
    for path in files:
        path.mkdir()
    for path in files:
        W.build("tower", 5, str(path))
    names = sorted(p.name for p in files[0].iterdir())
    assert len(names) == 2 * len(W.TOWER_RUNGS)
    for n in names:
        assert (files[0] / n).read_text() == (files[1] / n).read_text()


def test_index_check_rejects_a_dropped_k():
    rung = W.RUNGS["s5-s4"]
    check = W._check_index(rung.group_order, rung.index, rung.double_cosets,
                           rung.dims, (1, 2, 3))
    dims = {side: {str(k): v[i] for k, v in rung.dims.items()}
            for i, side in enumerate((W.IN_H, W.IN_G))}
    out = {"group_order": 120, "index": 5, "double_cosets": 2,
           "commutant_dims": dims}
    assert check(json.dumps(out)) is None
    del dims[W.IN_G]["3"]
    assert "missing" in check(json.dumps(out))
    dims[W.IN_G]["3"] = 854
    assert "want 855" in check(json.dumps(out))


def test_times_are_scaled_by_the_reference_runs_around_them():
    import run

    class FakeRunner:
        references = iter([0.2, 0.4, 0.6])

        def reference(self):
            return next(self.references)

        def run(self, cmd, traced):
            return {"metric": cmd.metric, "wall_s": 1.5, "rss_mb": 0.0,
                    "summary": None}

    out = run.bracketed(FakeRunner(), [(W.NOOP, False)] * 2)
    assert [r["reference_s"] for r in out] == pytest.approx([0.3, 0.5])
    assert [r["time_s"] for r in out] == pytest.approx(
        [1.5 * run.REFERENCE_S / 0.3, 1.5 * run.REFERENCE_S / 0.5])


def last_json_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload, trace", [
    ("checks", 0), ("tower", 1), ("graphs", 1), ("checks", 1)])
def test_run_prints_every_declared_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = last_json_line(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        # a zero baseline has no relative change to compare against
        assert got["value"] != 0, m["name"]
    printed = {line.split()[0] for line in proc.stdout.splitlines()}
    assert {m["name"] for m in declared} <= printed


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tower",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")

"""End-to-end benchmark of the `sfw` command line tool.

usage: python3 perfbench/run.py --workload {tower,graphs,checks}
           --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every command is a fresh subprocess,
`python -m sfw.cli` with PYTHONPATH=src, run one at a time from this
process: a closed loop with a single client.  The inputs come from the
seed (see workloads.py) and every answer is checked.

--trace 0 times the no-op invocation (setup_s) and then repeats passes
over the workload's command list for about S seconds.  --trace 1
alternates untraced passes with passes in which each command runs under
traced_sfw.py, and reports the per-layer metrics from the traced ones.

The speed of a shared virtual machine drifts by up to 1.7x within
seconds.  Every timed command is therefore bracketed by runs of a fixed
reference program that uses no code of this repository, and its wall
time is reported scaled to reference speed: times REFERENCE_S over the
mean of the two reference runs around it.  The raw wall times are
printed too (pass_wall_s, setup_wall_s, reference_s).

Every metric is printed as "name value unit"; the last line of standard
output is one JSON object with the metrics that BENCHMARK.json names for
the chosen trace mode.  The exit code is 0 when the run completed, also
when answers were wrong (then "correct" is false), and non-zero without
a JSON line when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path
from statistics import median, quantiles

import traced_sfw
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# setup_s samples: a few before the first pass, then one after every
# SETUP_EVERY commands, so that they span the whole run like the passes
SETUP_REPEATS = 3
SETUP_EVERY = 6
# The reference program: interpreter start and numpy import, which every
# sfw command does too.  A loop run inside this process does not follow
# the drift; a fresh process does.  REFERENCE_S is about its wall time
# on an unloaded 2-vCPU Xeon VM; times are scaled to it.
REFERENCE = ("-c", "import numpy")
REFERENCE_S = 0.2
# no command may run past this many seconds after the run started
DEADLINE_S = 150.0
COMMAND_TIMEOUT_S = 60.0

SUITES = ("theta", "graphs", "cocycles", "extensions", "arithmetic")
E2E_BY_COMMAND = ("index_s", "graph_s", "chartab_s", "verify_s", "aux_s")


class BenchmarkError(Exception):
    """The benchmark itself cannot run here."""


class Runner:
    """Runs sfw commands as subprocesses and checks their answers."""

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("SFW_")}
        self.env["PYTHONPATH"] = "src"
        self.env["PYTHONHASHSEED"] = "0"
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._serial = 0

    def run(self, cmd: workloads.Command, traced: bool = False) -> dict:
        """One invocation: wall time, peak RSS, verdict, and trace summary."""
        self._serial += 1
        out_path = os.path.join(self.workdir, "out.%d" % self._serial)
        err_path = os.path.join(self.workdir, "err.%d" % self._serial)
        summary_path = os.path.join(self.workdir, "trace.%d.json"
                                    % self._serial)
        if traced:
            argv = [sys.executable, str(HERE / "traced_sfw.py"),
                    summary_path] + list(cmd.argv)
        else:
            argv = [sys.executable, "-m", "sfw.cli"] + list(cmd.argv)
        timeout = min(COMMAND_TIMEOUT_S, self.deadline - time.monotonic())
        self.attempted += 1
        result = {"metric": cmd.metric, "wall_s": 0.0, "rss_mb": 0.0,
                  "summary": None}
        reason = None
        if timeout <= 0:
            reason = "not started: the run's deadline has passed"
        else:
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                start = time.perf_counter()
                proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                        stdin=subprocess.DEVNULL,
                                        stdout=out, stderr=err)
                timer = threading.Timer(timeout, proc.kill)
                timer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                finally:
                    timer.cancel()
                result["wall_s"] = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            result["rss_mb"] = usage.ru_maxrss / 1024.0
            reason = self._verdict(cmd, proc.returncode, out_path, err_path,
                                   timeout)
            if traced and reason is None:
                with open(summary_path, encoding="utf-8") as fh:
                    result["summary"] = json.load(fh)
        for path in (out_path, err_path, summary_path):
            if os.path.exists(path):
                os.remove(path)
        if reason is not None:
            self.failed += 1
            self.failures.append("%s: %s" % (" ".join(cmd.argv), reason))
        return result

    def reference(self) -> float:
        """Wall time of one run of the reference program."""
        start = time.perf_counter()
        try:
            proc = subprocess.run((sys.executable,) + REFERENCE,
                                  cwd=self.workdir, env=self.env,
                                  stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL,
                                  timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchmarkError("the reference program timed out") from None
        if proc.returncode != 0:
            raise BenchmarkError("the reference program exits %d"
                                 % proc.returncode)
        return time.perf_counter() - start

    @staticmethod
    def _verdict(cmd, code, out_path, err_path, timeout):
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            out = fh.read()
        if code < 0:
            return "killed by signal %d (timeout %.0fs)" % (-code, timeout)
        if code != 0:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                err = fh.read().strip().splitlines()
            return "exit %d: %s" % (code, err[-1] if err else "")
        try:
            return cmd.check(out)
        except (ValueError, KeyError, TypeError) as e:
            return "unreadable output: %s: %s" % (type(e).__name__, e)


def bracketed(runner, items) -> list:
    """Run (command, traced) items with a reference run around each.

    Each result gains "time_s": its wall time scaled to reference speed,
    and "reference_s": the mean of the two reference runs around it.
    """
    before = runner.reference()
    results = []
    for cmd, traced in items:
        r = runner.run(cmd, traced)
        after = runner.reference()
        r["reference_s"] = (before + after) / 2.0
        r["time_s"] = r["wall_s"] * REFERENCE_S / r["reference_s"]
        results.append(r)
        before = after
    return results


def run_pass(runner, cmds, traced=False, noop=None) -> dict:
    items = []
    for i, cmd in enumerate(cmds):
        items.append((cmd, traced))
        if noop is not None and i % SETUP_EVERY == SETUP_EVERY - 1:
            items.append((noop, False))
    done = bracketed(runner, items)
    setup = [r for r in done if r["metric"] == workloads.NOOP.metric]
    results = [r for r in done if r["metric"] != workloads.NOOP.metric]
    by_metric = {}
    for r in results:
        by_metric[r["metric"]] = by_metric.get(r["metric"], 0.0) + r["time_s"]
    return {"total_s": sum(r["time_s"] for r in results),
            "wall_s": sum(r["wall_s"] for r in results),
            "rss_mb": max(r["rss_mb"] for r in results),
            "by_metric": by_metric,
            "setup": setup,
            "reference_s": [r["reference_s"] for r in done],
            "summaries": [r["summary"] for r in results]}


def timed_passes(runner, cmds, seconds, kinds, noop=None) -> dict:
    """Repeat rounds of passes (one per kind) for about `seconds`.

    At least one round runs; another starts only if it is expected to
    end within the time.
    """
    rounds = {kind: [] for kind in kinds}
    start = time.monotonic()
    while True:
        for kind in kinds:
            rounds[kind].append(run_pass(runner, cmds, kind, noop))
        n = len(rounds[kinds[0]])
        elapsed = time.monotonic() - start
        if elapsed * (n + 1) / n > seconds:
            return rounds
        if time.monotonic() >= runner.deadline:
            return rounds


def percentile_note(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 90):
        if n * (100 - p) / 100.0 >= 10:
            q = quantiles(values, n=100)[p - 1]
            return "p%d %.4f s over %d samples" % (p, q, n)
    return "no tail percentile: %d samples" % n


def end_to_end(runner, cmds, seconds) -> dict:
    setup = bracketed(runner, [(workloads.NOOP, False)] * SETUP_REPEATS)
    passes = timed_passes(runner, cmds, seconds, (False,),
                          workloads.NOOP)[False]
    references = [r["reference_s"] for r in setup]
    for p in passes:
        setup.extend(p["setup"])
        references.extend(p["reference_s"])
    totals = [p["total_s"] for p in passes]
    metrics = {
        "setup_s": (median([r["time_s"] for r in setup]), "s"),
        "pass_s": (median(totals), "s"),
        "peak_rss_mb": (median([p["rss_mb"] for p in passes]), "MB"),
    }
    for name in E2E_BY_COMMAND:
        if any(name in p["by_metric"] for p in passes):
            metrics[name] = (median([p["by_metric"].get(name, 0.0)
                                     for p in passes]), "s")
    metrics["setup_wall_s"] = (median([r["wall_s"] for r in setup]), "s")
    metrics["pass_wall_s"] = (median([p["wall_s"] for p in passes]), "s")
    metrics["reference_s"] = (median(references), "s")
    print("passes: %d; pass_s %s" % (len(totals), percentile_note(totals)))
    return metrics


def per_layer(runner, cmds, seconds) -> dict:
    rounds = timed_passes(runner, cmds, seconds, (False, True))
    plain = median([p["total_s"] for p in rounds[False]])
    traced = rounds[True]
    complete = [p for p in traced if None not in p["summaries"]]
    if not complete:
        return {}
    layers = [layer_metrics(p["summaries"]) for p in complete]
    metrics = {}
    for name, (value, unit) in layers[0].items():
        if value is not None and unit == "s":
            value = median([m[name][0] for m in layers])
        metrics[name] = (value, unit)
    metrics["trace.overhead_frac"] = (
        median([p["total_s"] for p in traced]) / plain - 1.0, "frac")
    return metrics


def layer_metrics(summaries) -> dict:
    """Per-layer metrics of one traced pass: sums over its commands."""
    stages, counts, extra = {}, {}, {}
    absent = set()
    for s in summaries:
        absent.update(s["absent"])
        for name, row in s["stages"].items():
            acc = stages.setdefault(name, dict(traced_sfw.EMPTY_STAGE))
            for k, v in row.items():
                acc[k] += v
        for k, v in s["counts"].items():
            counts[k] = counts.get(k, 0) + v
        e = s["extra"]
        for k in ("enumerate_elements", "double_coset_group_order",
                  "chartab_distinct"):
            extra[k] = extra.get(k, 0) + e[k]
        for side, v in e["commutant_total_s"].items():
            extra[side] = extra.get(side, 0.0) + v
        if e["norm_err_max"] is not None:
            extra["norm_err_max"] = max(extra.get("norm_err_max", 0.0),
                                        e["norm_err_max"])

    functions = {}
    for stage, mod, path in traced_sfw.STAGES:
        functions.setdefault(stage, []).append("%s.%s" % (mod, path))
    gone = {stage for stage, fns in functions.items()
            if all(f in absent for f in fns)}
    counted_gone = {name for name, mod, path in traced_sfw.COUNTED
                    if "%s.%s" % (mod, path) in absent}

    def stage(name):
        return stages.get(name, traced_sfw.EMPTY_STAGE)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in dict.fromkeys(stage for stage, _, _ in traced_sfw.STAGES):
        s = stage(name)
        missing = name in gone
        m[name + ".calls"] = (None if missing else s["calls"], "count")
        m[name + ".self_s"] = (None if missing else s["self_s"], "s")
        m[name + ".perm_mul"] = (None if missing else s["perm_mul"], "count")
    for suite in SUITES:
        m["verify.%s.total_s" % suite] = (
            stage("verify." + suite)["total_s"], "s")
    main = stage("cli.main")
    m["cli.main.self_s"] = (main["self_s"], "s")
    m["cli.import_s"] = (median([s["import_s"] for s in summaries]), "s")
    m["cli.numpy_import_s"] = (
        median([s["numpy_import_s"] for s in summaries]), "s")

    def counted(key, value):
        return None if key in counted_gone else value

    m["permgroup.perm_mul"] = (counted("perm_mul", counts["perm_mul"]),
                               "count")
    m["permgroup.group_hash"] = (counted("group_hash", counts["group_hash"]),
                                 "count")
    enum = stage("permgroup.enumerate")
    m["permgroup.enumerate.elements"] = (extra["enumerate_elements"], "count")
    m["permgroup.enumerate.useful_ratio"] = (
        ratio(extra["enumerate_elements"], enum["perm_mul_total"]), "ratio")
    m["permgroup.double_cosets.useful_ratio"] = (
        ratio(extra["double_coset_group_order"],
              stage("permgroup.double_cosets")["perm_mul_total"]), "ratio")
    tuple_stage = m.pop("standard_invariant.tuple_action.calls")
    m["standard_invariant.tuple_action.tables"] = tuple_stage
    m["standard_invariant.tuple_action.calls"] = (
        counted("tuple_action", counts["tuple_action"]), "count")
    m["standard_invariant.commutant.inH.total_s"] = (
        extra.get(workloads.IN_H, 0.0), "s")
    m["standard_invariant.commutant.inG.total_s"] = (
        extra.get(workloads.IN_G, 0.0), "s")
    m["standard_invariant.graph.norm_err_max"] = (
        extra.get("norm_err_max", 0.0), "abs")
    m["chartab.table.distinct"] = (extra["chartab_distinct"], "count")
    m["groupalgebra.mul.calls"] = (counted("ga_mul", counts["ga_mul"]),
                                   "count")
    m["trace.unattributed_frac"] = (ratio(main["self_s"], main["total_s"]),
                                    "frac")
    return m


# ---------------------------------------------------------------------------

def git_commit() -> str:
    """The checked-out commit; a repository above ROOT is not consulted."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(args) -> list:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return [("workload", args.workload), ("seed", args.seed),
            ("seconds", args.seconds), ("trace", args.trace),
            ("nproc", os.cpu_count()), ("cpu", cpu_model()),
            ("python", platform.python_version()),
            ("numpy", numpy_version), ("commit", git_commit()),
            ("load", "closed loop, 1 client, 1 subprocess at a time")]


def declared_metrics(trace: bool) -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise BenchmarkError("cannot read %s: %s" % (path, e)) from None
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_sources():
    if not (ROOT / "src" / "sfw" / "cli.py").is_file():
        raise BenchmarkError("no sfw sources under %s" % (ROOT / "src"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        check_sources()
        declared = declared_metrics(bool(args.trace))
    except BenchmarkError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    for key, value in machine_facts(args):
        print("%s: %s" % (key, value))
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        cmds = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(workdir, deadline)
        # one untimed no-op checks the set-up and fills the bytecode cache
        runner.run(workloads.NOOP)
        if runner.failed:
            print("error: the no-op command fails: %s" % runner.failures[0],
                  file=sys.stderr)
            return 1
        print("commands per pass: %d" % len(cmds))
        if args.trace:
            metrics = per_layer(runner, cmds, args.seconds)
        else:
            metrics = end_to_end(runner, cmds, args.seconds)
    except BenchmarkError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in runner.failures:
        print("FAIL %s" % failure)
    fail_frac = runner.failed / runner.attempted
    print("fail_frac %.4f (%d of %d commands)"
          % (fail_frac, runner.failed, runner.attempted))
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else repr(value)
        print("%s %s %s" % (name, shown, unit))
    result = {name: {"value": metrics[name][0], "unit": unit}
              for name, unit in declared.items()
              if metrics.get(name, (None,))[0] is not None}
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""sfw verify: run the built-in consistency suites."""

from __future__ import annotations

from .. import formats, verify
from ..config import Config
from . import _add_common, _emit

# The verify suites (verify.SUITES) that the parser lists, spelled out
# here so that building it runs no suite code; tests/test_cli.py holds
# them equal.
SUITE_NAMES = ("theta", "graphs", "cocycles", "extensions", "arithmetic")


def add_arguments(p):
    _add_common(p)
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--corpus-dir",
                   help="directory of inclusion JSON files replacing the "
                        "built-in corpus")


def run(args, cfg: Config) -> int:
    report = verify.run_suite(args.suite, corpus_dir=args.corpus_dir,
                              config=cfg)
    if args.json:
        _emit(args, formats.canonical_json(report.to_json()))
        return 0 if report.ok else 1
    lines = []
    for case in report.cases:
        flag = "skip" if case.skipped else "ok  " if case.ok else "FAIL"
        detail = " (%s)" % case.detail if case.detail else ""
        lines.append("%s %s%s" % (flag, case.case_id, detail))
    lines.append("suite=%s cases=%d failures=%d skipped=%d wall=%.2fs"
                 % (report.suite, report.cases_run, len(report.failures),
                    len(report.skipped), report.wall_time))
    _emit(args, "\n".join(lines) + "\n")
    return 0 if report.ok else 1

"""Golden output digests of sfw commands: the command list and its runner.

usage: python tests/golden/update_digests.py

Runs every command of COMMANDS in one child process that imports sfw from
src/, and rewrites digests.json beside this file.  For each command the
file holds the exit code and the SHA-256 of its stdout and its stderr.
tests/test_golden.py runs the same commands and compares, so a change
that alters the bytes of any output fails there; a change that means to
alter one rewrites the file with this script and names the command and
the reason in CHANGES.md.

The field "wall_time" of `verify --json` measures the run instead of
describing it, so its line is left out of the digest.  The `--help`
texts are formatted by argparse and are recorded at 80 columns; another
minor version of Python may wrap them differently.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
SRC = HERE.parents[1] / "src"

# (case, generators of the group), as `corpus.builtin_cases` builds them
BUILTINS = (
    ("s3-flip", ("(0 1 2)", "(0 1)")),
    ("s3-a3", ("(0 1 2)", "(0 1)")),
    ("s4-s3", ("(0 1 2 3)", "(0 1)")),
    ("s4-d4", ("(0 1 2 3)", "(0 1)")),
    ("a4-v4", ("(0 1 2)", "(1 2 3)")),
    ("wr2x3-base", ("(0 1)", "(2 3)", "(4 5)", "(0 2 4)(1 3 5)")),
)

# three small rungs of the benchmark ladders: (name, degree, G, H)
RUNGS = (
    ("s5-s4", 5, ("(0 1 2 3 4)", "(0 1)"), ("(0 1 2 3)", "(0 1)")),
    ("a5-s3", 5, ("(0 1 2 3 4)", "(0 1 2)"), ("(0 1 2)", "(0 1)(3 4)")),
    ("c3wrc3", 9, ("(0 1 2)", "(0 3 6)(1 4 7)(2 5 8)"),
     ("(0 1 2)", "(3 4 5)", "(6 7 8)")),
)


# (name, degree, generators, outer class selections) for `extend`.
# C3^2 x| C2, the inversion acting on both factors, is centerless with
# Out = S4, so `extend` meets quotients of order 3 and 4 as well as 2.
# A5 (Out = C2) and S5 (Out = 1) run the automorphism search on groups
# of order 60 and 120.  Their points are kept as listed.
EXTEND_GROUPS = (
    ("c3sq-c2", 6, ("(0 1 2)", "(3 4 5)", "(1 2)(4 5)"), ("all", "16")),
    ("a5", 5, ("(0 1 2 3 4)", "(0 1 2)"), ("all",)),
    ("s5", 5, ("(0 1 2 3 4)", "(0 1)"), ("all",)),
)


def relabelled(degree: int, cycles: str) -> str:
    """The cycle string on points renamed by x -> 2x + 1 mod degree.

    The map is a bijection for the odd degrees of RUNGS, and renaming the
    points of a cycle string gives the conjugate permutation, so the
    inclusion stays isomorphic to the one listed.
    """
    return "".join(
        "(%s)" % " ".join(str((2 * int(x) + 1) % degree)
                          for x in chunk.split())
        for chunk in cycles.strip("()").split(")("))


def group_files() -> dict:
    """{placeholder: group JSON} for the relabelled rungs and EXTEND_GROUPS."""
    files = {}
    for name, degree, group, subgroup in RUNGS:
        for tag, gens in (("G", group), ("H", subgroup)):
            files["@%s.%s" % (name, tag)] = {
                "degree": degree,
                "generators": [relabelled(degree, g) for g in gens]}
    for name, degree, group, _ in EXTEND_GROUPS:
        files["@%s.G" % name] = {"degree": degree, "generators": list(group)}
    return files


def _commands() -> list:
    cmds = []
    for name, generators in BUILTINS:
        case = ["--case", name]
        for fmt in ([], ["--json"]):
            cmds.append(["index"] + case + fmt)
            cmds.append(["chartab"] + case + fmt)
            cmds.append(["chartab"] + case + ["--member", "subgroup"] + fmt)
            cmds.append(["extend"] + case + fmt)
            cmds.append(["induce"] + case + fmt)
        for kind in ("principal", "dual"):
            for fmt in ("json", "dot"):
                cmds.append(["graph"] + case + ["--kind", kind,
                                                "--format", fmt])
        for g in generators:
            cmds.append(["induce"] + case + ["--element", g])
            cmds.append(["induce"] + case + ["--element", g, "--json"])
    for suite in ("theta", "graphs", "cocycles", "extensions", "arithmetic",
                  "all"):
        cmds.append(["verify", "--suite", suite, "--json"])
    rng = random.Random(2011)
    for _ in range(4):
        n = rng.randrange(3, 13)
        value = "%.15g" % (4.0 * math.cos(math.pi / n) ** 2)
        cmds.append(["spectrum", value])
        cmds.append(["spectrum", value, "--json"])
    for value in ("1.5", "4.0", "7.25"):
        cmds.append(["spectrum", value, "--json"])
    for _ in range(3):
        parts = [(rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 4))
                 for _ in range(rng.randint(1, 3))]
        argv = ["vindex", "--total", str(sum(s * g for s, g, _ in parts))]
        for p in parts:
            argv += ["--part", "%d:%d:%d" % p]
        cmds.append(argv)
        cmds.append(argv + ["--json"])
    cmds.append(["--help"])
    for sub in ("index", "graph", "chartab", "extend", "spectrum", "vindex",
                "induce", "verify"):
        cmds.append([sub, "--help"])
    # one input error for each of the exit codes 2, 3 and 4
    cmds.append(["index", "--case", "no-such-case"])
    cmds.append(["verify", "--suite", "bogus"])
    cmds.append(["extend", "--case", "wr2x3-base", "--json"])
    # outer classes out of range: below 1, above index - 1 (A4 has one
    # outer class), and any class of a group with trivial Out (S3)
    cmds.append(["extend", "--case", "a4-v4", "--out-classes", "0"])
    cmds.append(["extend", "--case", "a4-v4", "--out-classes", "2"])
    cmds.append(["extend", "--case", "s3-flip", "--out-classes", "1"])
    cmds.append(["spectrum", "0.5"])
    # an odd permutation is no element of A4: exit 3, in both formats
    cmds.append(["induce", "--case", "a4-v4", "--element", "(0 1)"])
    cmds.append(["induce", "--case", "a4-v4", "--element", "(0 1)",
                 "--json"])
    cmds.append(["index", "--case", "s4-s3", "--order-cap", "10"])
    for name, _, _, _ in RUNGS:
        files = ["--group", "@%s.G" % name, "--subgroup", "@%s.H" % name]
        cmds.append(["index"] + files + ["--json"])
        cmds.append(["graph"] + files)
        cmds.append(["graph"] + files + ["--kind", "dual"])
        cmds.append(["chartab"] + files + ["--json"])
        cmds.append(["induce"] + files + ["--json"])
    # S4 is no subgroup of A5: both commands refuse the pair with exit 3
    files = ["--group", "@a5-s3.G", "--subgroup", "@s5-s4.H"]
    cmds.append(["chartab"] + files + ["--json"])
    cmds.append(["graph"] + files + ["--kind", "dual"])
    # every outer class, and for C3^2 x| C2 (quotient S4) class 16 alone
    # (quotient C4)
    for name, _, _, selections in EXTEND_GROUPS:
        for classes in selections:
            for fmt in ([], ["--json"]):
                cmds.append(["extend", "--group", "@%s.G" % name,
                             "--out-classes", classes] + fmt)
    # a repeated random pick runs once
    return [list(a) for a in dict.fromkeys(map(tuple, cmds))]


COMMANDS = _commands()

# Runs each command in-process with stdout and stderr captured.  A
# command's argv is given with placeholders for the group files, which
# the child writes first.
_CHILD = """
import contextlib, hashlib, io, json, os, sys
from sfw import cli
directory, files, commands = sys.argv[1], *map(json.loads, sys.argv[2:])
paths = {}
for key, group in files.items():
    paths[key] = os.path.join(directory, key[1:] + ".json")
    with open(paths[key], "w", encoding="utf-8") as fh:
        json.dump(group, fh)
digests = {}
for argv in commands:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([paths.get(a, a) for a in argv])
        except SystemExit as e:
            rc = e.code or 0
    text = out.getvalue()
    if argv[0] == "verify":
        text = "".join(line for line in text.splitlines(True)
                       if '"wall_time"' not in line)
    digests[" ".join(argv)] = {
        "exit": rc,
        "stdout": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest()}
print(json.dumps(digests))
"""


def compute(directory) -> dict:
    """{command: {"exit", "stdout", "stderr"}} from one child process."""
    env = dict(os.environ, PYTHONHASHSEED="0", COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(directory),
         json.dumps(group_files()), json.dumps(COMMANDS)],
        env=env, capture_output=True, text=True, timeout=300)
    if child.returncode != 0:
        raise RuntimeError("digest child failed:\n%s" % child.stderr)
    return json.loads(child.stdout)


def main() -> int:
    with tempfile.TemporaryDirectory() as directory:
        digests = compute(directory)
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print("wrote %d digests to %s" % (len(digests), DIGESTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Every command on the golden list prints the bytes recorded for it.

tests/golden/digests.json holds, for each command of
tests/golden/update_digests.py, the exit code and the SHA-256 of stdout
and stderr.  A change that alters an output on purpose rewrites the file
with that script and says which command changed and why.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def load_script():
    spec = importlib.util.spec_from_file_location(
        "update_digests", GOLDEN / "update_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_command_prints_its_recorded_bytes(tmp_path):
    script = load_script()
    want = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))
    got = script.compute(tmp_path)
    assert list(got) == list(want), "the command list changed"
    changed = [command for command in want if got[command] != want[command]]
    assert changed == []


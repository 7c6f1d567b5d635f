"""The subcommands of sfw, one module each, and what they share.

Each module holds its subcommand's argument adder (add_arguments), its
handler (run) and the writers only it prints.  sfw.cli imports the one
module a command line names, or all of them when it names none, so a
command compiles no other subcommand's code.  No module here imports
sfw.cli: under `python -m sfw.cli` that module runs as __main__, and
importing it by name would run it a second time.

The modules of the package are reached through their module objects,
so that under sfw.cli's lazy registration a command runs only the
modules it uses.
"""

from __future__ import annotations

import sys

from .. import corpus, formats, permgroup
from ..config import Config, config_fields
from ..errors import ParseError

# The built-in case names (corpus.case_names()) that the parser lists,
# spelled out here so that building it runs no group code;
# tests/test_cli.py holds them equal.
CASE_NAMES = ("s3-flip", "s3-a3", "s4-s3", "s4-d4", "a4-v4", "wr2x3-base")


def _add_common(sub, inclusion=False, group_only=False):
    sub.add_argument("--config", help="JSON file with cap/tolerance settings")
    sub.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON")
    sub.add_argument("--out", help="write output to a file instead of stdout")
    for name, kind in config_fields():
        sub.add_argument("--" + name.replace("_", "-"), type=kind, dest=name)
    if inclusion or group_only:
        sub.add_argument("--case", help="built-in case: %s"
                         % ", ".join(CASE_NAMES))
        sub.add_argument("--group", help="JSON file with the group")
    if inclusion:
        sub.add_argument("--subgroup", help="JSON file with the subgroup")


def _load_group_file(path: str, config: Config):
    return formats.group_from_json(formats.read_json_file(path), config)


def _load_inclusion(args, config: Config):
    if args.case:
        if args.group or args.subgroup:
            raise ParseError("--case excludes --group/--subgroup")
        case = corpus.case_by_name(args.case, config)
        return case.name, case.group, case.subgroup
    if not (args.group and args.subgroup):
        raise ParseError("need --case or both --group and --subgroup")
    G = _load_group_file(args.group, config)
    H = _load_group_file(args.subgroup, config)
    # every command on an inclusion needs H <= G, chartab --member too
    permgroup.require_subgroup(G, H)
    return "custom", G, H


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise ParseError("cannot write %s: %s" % (args.out, e)) from None
    else:
        sys.stdout.write(text)

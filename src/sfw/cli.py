"""Standard invariants of finite group-subgroup inclusions.

subcommands:
  index     Jones index, coset counts, and relative commutant dimensions
  graph     principal or dual principal graph as JSON or DOT
  chartab   character table of the group or the subgroup
  extend    extension of a centerless group by outer automorphisms
  spectrum  locate a value in the admissible index spectrum
  vindex    index of a virtual embedding from its part data
  induce    block matrix images of the homomorphism induced by a subgroup
  verify    run the built-in consistency suites

Inclusions come from a built-in case name (--case) or from JSON files
holding {"degree": n, "generators": [...]} (--group, --subgroup).
Exit codes: 0 success, 1 failed checks, 2 bad input, 3 unmet
preconditions, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys

from .config import Config, DEFAULT, config_fields
from .errors import ParseError, SfwError

# Every other module of the package, except the subcommand modules of
# sfw.commands.  Importing cli registers each one in sys.modules without
# running it (importlib.util.LazyLoader); its body runs on the first
# attribute access, so a subcommand executes only the modules it
# reaches.  `from sfw.x import y` still imports x as usual.
LAZY_MODULES = ("automorphisms", "chartab", "cocycle", "commutant", "corpus",
                "formats", "indexarith", "permgroup", "standard_invariant",
                "theta", "verify", "wreath")


def _register_lazily(name: str) -> None:
    """Put sfw.<name> in sys.modules, to be run on first attribute access.

    The recipe of the importlib docs ("Implementing lazy imports").  The
    module is bound on the package as an eager import would bind it, so
    that `from . import name` finds it there without running it.  A
    module that is already imported is left as it is.
    """
    full = "%s.%s" % (__package__, name)
    if full in sys.modules:
        return
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)


for _name in LAZY_MODULES:
    _register_lazily(_name)


def _build_config(args) -> Config:
    cfg = DEFAULT
    if getattr(args, "config", None):
        try:
            cfg = Config.from_file(args.config, cfg)
        except OSError as e:
            raise ParseError("cannot read config: %s" % e) from None
        except ValueError as e:
            raise ParseError("bad config file: %s" % e) from None
    try:
        cfg = cfg.replace(**Config.env_overrides())
    except ValueError as e:
        raise ParseError("bad environment setting: %s" % e) from None
    overrides = {}
    for name, _ in config_fields():
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    try:
        return cfg.replace(**overrides)
    except ValueError as e:
        raise ParseError("bad option: %s" % e) from None


# (name, help) of each subcommand, in the order `sfw --help` lists them.
# The module sfw.commands.<name> holds its argument adder and handler.
SUBCOMMANDS = (
    ("index", "index and commutant dimensions"),
    ("graph", "principal or dual principal graph"),
    ("chartab", "character table"),
    ("extend", "extension by outer automorphisms"),
    ("spectrum", "admissible index spectrum lookup"),
    ("vindex", "virtual embedding index"),
    ("induce", "induced block matrix homomorphism"),
    ("verify", "run consistency suites"),
)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The sfw parser, with the arguments of the subcommand argv names.

    Every subcommand is registered with its name and help, so the top
    level usage, help and "invalid choice" read the same whatever argv
    is.  When argv[0] names a subcommand, only its module is imported
    and only it gets its arguments and handler; otherwise every
    subcommand does.
    """
    wanted = argv[0] if argv else None
    if wanted not in {name for name, _ in SUBCOMMANDS}:
        wanted = None
    parser = argparse.ArgumentParser(
        prog="sfw", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in SUBCOMMANDS:
        p = subs.add_parser(name, help=help_text)
        if wanted is None or wanted == name:
            command = importlib.import_module(
                "%s.commands.%s" % (__package__, name))
            command.add_arguments(p)
            p.set_defaults(func=command.run)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args, _build_config(args))
    except SfwError as e:
        print("error: %s" % e, file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())

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
from .errors import ParseError, PreconditionError, SfwError

# Every other module of the package.  Importing cli registers each one
# in sys.modules without running it (importlib.util.LazyLoader); its
# body runs on the first attribute access, so a subcommand executes only
# the modules it reaches.  `from sfw.x import y` still imports x as usual.
LAZY_MODULES = ("automorphisms", "chartab", "cocycle", "corpus", "formats",
                "groupalgebra", "indexarith", "permgroup",
                "standard_invariant", "theta", "verify", "wreath")

# The built-in case names (corpus.case_names()) and the verify suites
# (verify.SUITES) that the parser lists, spelled out here so that
# building it runs neither module; tests/test_cli.py holds them equal.
CASE_NAMES = ("s3-flip", "s3-a3", "s4-s3", "s4-d4", "a4-v4", "wr2x3-base")
SUITE_NAMES = ("theta", "graphs", "cocycles", "extensions", "arithmetic")


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

# bound to the registered modules, none of which has run yet
from . import (
    automorphisms,
    chartab,
    cocycle,
    corpus,
    formats,
    indexarith,
    permgroup,
    standard_invariant,
    theta,
    verify,
)


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


def _load_group_file(path: str, config: Config):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError("cannot read %s: %s" % (path, e)) from None
    return formats.group_from_json(formats.parse_json_text(text), config)


def _load_case(name: str, config: Config):
    """A built-in case, held to the same order cap as a group file."""
    try:
        case = corpus.case_by_name(name)
    except KeyError as e:
        raise ParseError(str(e.args[0])) from None
    return corpus.require_order_cap(case, config)


def _load_inclusion(args, config: Config):
    if args.case:
        if args.group or args.subgroup:
            raise ParseError("--case excludes --group/--subgroup")
        case = _load_case(args.case, config)
        return case.name, case.group, case.subgroup
    if not (args.group and args.subgroup):
        raise ParseError("need --case or both --group and --subgroup")
    G = _load_group_file(args.group, config)
    H = _load_group_file(args.subgroup, config)
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


# ---------------------------------------------------------------------------
# subcommands

def cmd_index(args, cfg: Config) -> int:
    name, G, H = _load_inclusion(args, cfg)
    cosets = permgroup.right_coset_data(G, H)
    dc = permgroup.double_coset_data(G, H)
    in_h, in_g = standard_invariant.SIDES
    dims = {in_h: {}, in_g: {}}
    for k in range(1, cfg.theta_k_cap + 1):
        for side in (in_h, in_g):
            dims[side][k] = standard_invariant.relative_commutant_dim(
                G, H, H, k, side, cfg)
    if args.json:
        payload = {
            "name": name,
            "group_order": G.order,
            "subgroup_order": H.order,
            "index": cosets.index,
            "right_cosets": cosets.index,
            "double_cosets": dc.count,
            "commutant_dims": {side: {str(k): v for k, v in table.items()}
                               for side, table in dims.items()},
        }
        _emit(args, formats.canonical_json(payload))
        return 0
    lines = ["inclusion: %s" % name,
             "group order: %d, subgroup order: %d" % (G.order, H.order),
             "index: %d" % cosets.index,
             "double cosets: %d" % dc.count]
    for k in sorted(dims[in_h]):
        lines.append("relative commutants k=%d: %s=%d %s=%d"
                     % (k, in_h, dims[in_h][k], in_g, dims[in_g][k]))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_graph(args, cfg: Config) -> int:
    name, G, H = _load_inclusion(args, cfg)
    build = (standard_invariant.principal_graph if args.kind == "principal"
             else standard_invariant.dual_principal_graph)
    graph = build(G, H, cfg)
    if args.format == "dot":
        _emit(args, formats.graph_to_dot(graph, "%s_%s" % (args.kind, name)))
    else:
        _emit(args, formats.canonical_json(formats.graph_to_json(graph)))
    return 0


def cmd_chartab(args, cfg: Config) -> int:
    name, G, H = _load_inclusion(args, cfg)
    target = H if args.member == "subgroup" else G
    table = chartab.character_table(target)
    if args.json:
        _emit(args, formats.canonical_json(formats.chartab_to_json(table)))
        return 0
    lines = ["group of order %d, %d conjugacy classes"
             % (target.order, table.classes.count),
             "degrees: %s" % " ".join(str(d) for d in table.degrees)]
    header = ["class"] + [rep.cycle_string()
                          for rep in table.classes.reps]
    lines.append("  ".join(header))
    lines.append("  ".join(["sizes"] + [str(s) for s in table.classes.sizes]))
    for i, chi in enumerate(table.characters):
        cells = []
        for z in chi.values:
            re, im = formats.rounded(z.real, 6), formats.rounded(z.imag, 6)
            if abs(z.imag) < 1e-9:
                cells.append("%g" % re)
            else:
                cells.append("%g%+gi" % (re, im))
        lines.append("  ".join(["chi%d" % i] + cells))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_extend(args, cfg: Config) -> int:
    if args.case:
        G = _load_case(args.case, cfg).group
    elif args.group:
        G = _load_group_file(args.group, cfg)
    else:
        raise ParseError("need --case or --group")
    auts = automorphisms.automorphism_group(G, cfg)
    available = auts.out_cosets.index - 1
    if args.out_classes == "all":
        picks = list(range(1, auts.out_cosets.index))
    else:
        picks = []
        for chunk in args.out_classes.split(","):
            try:
                picks.append(int(chunk))
            except ValueError:
                raise ParseError("outer class list must be integers or "
                                 "'all'") from None
        for p in picks:
            if not 1 <= p <= available:
                raise ParseError("outer class %d out of range, have 1..%d"
                                 % (p, available))
    outs = [auts.out_cosets.reps[p] for p in picks]
    result, report = cocycle.subfactor_report_from_out(G, outs, cfg)
    if args.json:
        payload = formats.extension_to_json(result)
        payload["relations_ok"] = report.ok
        payload["outer_lifts"] = report.outer_count
        _emit(args, formats.canonical_json(payload))
        return 0 if report.ok else 1
    lines = ["base order: %d" % result.base.order,
             "extension order: %d" % result.ambient.order,
             "index: %d" % result.index,
             "element order histogram: %s" % dict(sorted(
                 result.fingerprint().items())),
             "cocycle normalized: %s" % result.cocycle.is_normalized(),
             "relations verified: %s" % report.ok]
    if not report.ok:
        lines.append("failure: %s at %r" % (report.reason, report.witness))
    _emit(args, "\n".join(lines) + "\n")
    return 0 if report.ok else 1


def cmd_spectrum(args, cfg: Config) -> int:
    verdict = indexarith.jones_spectrum_query(args.value, config=cfg)
    if args.json:
        payload = {"value": verdict.value, "kind": verdict.kind,
                   "residual": verdict.residual}
        if verdict.n is not None:
            payload["n"] = verdict.n
        _emit(args, formats.canonical_json(payload))
        return 0
    if verdict.kind == "discrete":
        _emit(args, "discrete point 4cos^2(pi/%d), residual %.2e\n"
              % (verdict.n, verdict.residual))
    elif verdict.kind == "continuous":
        _emit(args, "continuous range [4, inf)\n")
    else:
        _emit(args, "not in the spectrum, distance %.6g to nearest point\n"
              % verdict.residual)
    return 0


def cmd_vindex(args, cfg: Config) -> int:
    parts = []
    for raw in args.part:
        bits = raw.split(":")
        if len(bits) != 3:
            raise ParseError("part must look like s:indexGK:indexHK")
        try:
            parts.append(tuple(int(b) for b in bits))
        except ValueError:
            raise ParseError("part entries must be integers") from None
    spec = indexarith.VirtualEmbeddingSpec.make(args.total, parts)
    value = indexarith.virtual_index(spec)
    if args.json:
        payload = {"t": spec.t,
                   "parts": [[p.s, p.index_G_K, p.index_H_gammaK]
                             for p in spec.parts],
                   "virtual_index": value}
        _emit(args, formats.canonical_json(payload))
    else:
        _emit(args, "virtual index: %d\n" % value)
    return 0


def cmd_induce(args, cfg: Config) -> int:
    name, G, K = _load_inclusion(args, cfg)
    induced = theta.induced_theta(G, K)
    degree = induced.cosets.index
    elements = []
    if args.element:
        elements.append(permgroup.parse_cycle_string(G.degree, args.element))
    else:
        elements.extend(G.generators)
    for g in elements:
        if g not in G:
            raise PreconditionError("element %s is outside the group"
                                    % g.cycle_string())
    if args.json:
        blocks = []
        for g in elements:
            entries = [{"row": r, "col": c,
                        "coeff": formats.complex_pair(1 + 0j),
                        "support": w.cycle_string()}
                       for r, c, w in sorted(
                           (r, c, w)
                           for c, (r, w) in enumerate(induced.matrix(g)))]
            blocks.append({"element": g.cycle_string(), "entries": entries})
        payload = {"name": name, "degree": degree,
                   "target_order": K.order, "matrices": blocks}
        _emit(args, formats.canonical_json(payload))
        return 0
    lines = ["inclusion: %s" % name,
             "block matrix degree: %d over group of order %d"
             % (degree, K.order)]
    for g in elements:
        lines.append("element %s:" % g.cycle_string())
        rows = [["0"] * degree for _ in range(degree)]
        for c, (r, w) in enumerate(induced.matrix(g)):
            rows[r][c] = "(%s)*u[%s]" % (1 + 0j, w.cycle_string())
        for row in rows:
            lines.append("  [" + ", ".join(row) + "]")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args, cfg: Config) -> int:
    report = verify.run_suite(args.suite, corpus_dir=args.corpus_dir,
                              config=cfg)
    if args.json:
        _emit(args, formats.canonical_json(report.to_json()))
        return 0 if report.ok else 1
    lines = []
    for case in report.cases:
        flag = "ok  " if case.ok else "FAIL"
        detail = " (%s)" % case.detail if case.detail else ""
        lines.append("%s %s%s" % (flag, case.case_id, detail))
    lines.append("suite=%s cases=%d failures=%d wall=%.2fs"
                 % (report.suite, report.cases_run, len(report.failures),
                    report.wall_time))
    _emit(args, "\n".join(lines) + "\n")
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------

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


def _index_arguments(p):
    _add_common(p, inclusion=True)


def _graph_arguments(p):
    _add_common(p, inclusion=True)
    p.add_argument("--kind", choices=("principal", "dual"),
                   default="principal")
    p.add_argument("--format", choices=("json", "dot"), default="json")


def _chartab_arguments(p):
    _add_common(p, inclusion=True)
    p.add_argument("--member", choices=("group", "subgroup"),
                   default="group")


def _extend_arguments(p):
    _add_common(p, group_only=True)
    p.add_argument("--out-classes", default="all",
                   help="comma list of outer class indices, or 'all'")


def _spectrum_arguments(p):
    _add_common(p)
    p.add_argument("value", type=float)


def _vindex_arguments(p):
    _add_common(p)
    p.add_argument("--total", type=int, required=True,
                   help="row count t of the virtual embedding")
    p.add_argument("--part", action="append", required=True,
                   help="s:indexGK:indexHK, repeatable")


def _induce_arguments(p):
    _add_common(p, inclusion=True)
    p.add_argument("--element", help="cycle notation for one group element")


def _verify_arguments(p):
    _add_common(p)
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--corpus-dir",
                   help="directory of inclusion JSON files replacing the "
                        "built-in corpus")


# (name, help, command, adder of the subcommand's arguments), in the
# order `sfw --help` lists them
SUBCOMMANDS = (
    ("index", "index and commutant dimensions", cmd_index,
     _index_arguments),
    ("graph", "principal or dual principal graph", cmd_graph,
     _graph_arguments),
    ("chartab", "character table", cmd_chartab, _chartab_arguments),
    ("extend", "extension by outer automorphisms", cmd_extend,
     _extend_arguments),
    ("spectrum", "admissible index spectrum lookup", cmd_spectrum,
     _spectrum_arguments),
    ("vindex", "virtual embedding index", cmd_vindex, _vindex_arguments),
    ("induce", "induced block matrix homomorphism", cmd_induce,
     _induce_arguments),
    ("verify", "run consistency suites", cmd_verify, _verify_arguments),
)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The sfw parser, with the arguments of the subcommand argv names.

    Every subcommand is registered with its name and help, so the top
    level usage, help and "invalid choice" read the same whatever argv
    is.  When argv[0] names a subcommand, only that one gets its
    arguments; otherwise every subcommand does.
    """
    wanted = argv[0] if argv else None
    if wanted not in {name for name, _, _, _ in SUBCOMMANDS}:
        wanted = None
    parser = argparse.ArgumentParser(
        prog="sfw", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, add_arguments in SUBCOMMANDS:
        p = subs.add_parser(name, help=help_text)
        if wanted is None or wanted == name:
            add_arguments(p)
        p.set_defaults(func=func)
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

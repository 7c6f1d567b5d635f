"""Run one `sfw` command in-process with its stages traced from outside.

usage: python perfbench/traced_sfw.py SUMMARY.json SFW-ARGS...

Run with src/ on PYTHONPATH.  The script times `import numpy` and
`import sfw.cli`, wraps the functions that make up each stage (table
STAGES below) in every sfw module that refers to them, and then calls
`sfw.cli.main(SFW-ARGS)`.  Spans are kept in memory; when main returns,
the per-stage sums are written once to SUMMARY.json and the script exits
with main's exit code.  Nothing under src/ changes.

A span records its stage, start, end, parent and the Perm.__mul__
counter at entry and exit.  A call into a stage that is already the
innermost open span is folded into that span.  Self time is a span's
duration minus the durations of its child spans, and the same holds for
the counter.  PermGroup.__hash__ calls are counted as one total.  A function named in STAGES but missing
from the package is listed under "absent" instead of being wrapped.
"""

import functools
import json
import sys
import time

# (stage, module, attribute path).  A stage is the set of its functions.
STAGES = (
    ("formats.load", "formats", "group_from_json"),
    ("formats.emit", "formats", "canonical_json"),
    ("formats.emit", "formats", "graph_to_json"),
    ("formats.emit", "formats", "graph_to_dot"),
    ("formats.emit", "formats", "chartab_to_json"),
    ("formats.emit", "formats", "extension_to_json"),
    ("permgroup.enumerate", "permgroup", "PermGroup.__init__"),
    ("permgroup.cosets", "permgroup", "right_coset_data"),
    ("permgroup.cosets", "indexarith", "left_coset_data"),
    ("permgroup.double_cosets", "permgroup", "double_coset_data"),
    ("permgroup.automorphisms", "permgroup", "automorphism_group"),
    ("chartab.classes", "chartab", "conjugacy_classes"),
    ("chartab.table", "chartab", "character_table"),
    ("chartab.multiplicity", "chartab", "multiplicity"),
    ("chartab.multiplicity", "chartab", "inner_product"),
    ("chartab.multiplicity", "chartab", "restrict"),
    ("chartab.perm_character", "chartab", "permutation_character"),
    ("chartab.induce", "chartab", "induce"),
    ("standard_invariant.tuple_action", "standard_invariant",
     "_tuple_action_table"),
    ("standard_invariant.commutant", "standard_invariant",
     "relative_commutant_dim"),
    ("standard_invariant.theta", "standard_invariant", "ThetaMap.__init__"),
    ("standard_invariant.theta", "standard_invariant", "ThetaMap.entry"),
    ("standard_invariant.theta", "standard_invariant", "ThetaMap.matrix"),
    ("standard_invariant.theta", "standard_invariant", "theta_entry"),
    ("standard_invariant.theta", "standard_invariant",
     "theta_matrix_product"),
    ("standard_invariant.graph", "standard_invariant", "principal_graph"),
    ("standard_invariant.graph", "standard_invariant",
     "dual_principal_graph"),
    ("groupalgebra.ops", "groupalgebra", "conditional_expectation"),
    ("groupalgebra.ops", "groupalgebra", "pimsner_popa_expand"),
    ("groupalgebra.ops", "groupalgebra", "pimsner_popa_reassemble"),
    ("indexarith.spectrum", "indexarith", "jones_spectrum_query"),
    ("indexarith.induced_hom", "indexarith",
     "induced_standard_homomorphism"),
    ("indexarith.induced_hom", "indexarith", "InducedHomomorphism.matrix"),
    ("cocycle.extension", "cocycle", "subfactor_report_from_out"),
    ("cocycle.extension", "cocycle", "extension_from_out"),
    ("cocycle.crossed_product", "cocycle", "crossed_product_check"),
)

# (counter, module, attribute path): calls counted, no span.
COUNTED = (
    ("perm_mul", "permgroup", "Perm.__mul__"),
    ("group_hash", "permgroup", "PermGroup.__hash__"),
    ("tuple_action", "standard_invariant", "action_on_tuples"),
    ("ga_mul", "groupalgebra", "GroupAlgebraElement.__mul__"),
)

MUL = 0  # slot of the counter that spans record

# per-stage sums written to the summary
EMPTY_STAGE = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "perm_mul": 0,
               "perm_mul_total": 0}

# One row per span:
# [stage, start, end, parent, mul_in, mul_out, note]
spans = []
stack = []
counts = [0] * len(COUNTED)


def _note_enumerate(args, kwargs, result):
    return len(args[0].elements)


def _note_group_order(args, kwargs, result):
    return args[0].order


def _note_group(args, kwargs, result):
    return args[0]


def _note_side(args, kwargs, result):
    return kwargs["side"] if "side" in kwargs else args[4]


def _note_norm_err(args, kwargs, result):
    G, H = args[0], args[1]
    return abs(result.norm_squared - G.order / H.order)


NOTES = {
    "permgroup.enumerate": _note_enumerate,
    "permgroup.double_cosets": _note_group_order,
    "chartab.table": _note_group,
    "standard_invariant.commutant": _note_side,
    "standard_invariant.graph": _note_norm_err,
}


def span_wrapper(stage, fn, note=None):
    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if stack and spans[stack[-1]][0] == stage:
            return fn(*args, **kwargs)
        row = [stage, 0.0, 0.0, stack[-1] if stack else -1,
               counts[MUL], 0, None]
        stack.append(len(spans))
        spans.append(row)
        row[1] = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            row[2] = perf()
            row[5] = counts[MUL]
            stack.pop()
        if note is not None:
            row[6] = note(args, kwargs, result)
        return result
    return wrapper


def count_wrapper(slot, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[slot] += 1
        return fn(*args, **kwargs)
    return wrapper


def _lookup(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, getattr(owner, parts[-1], None)


def install(package_modules) -> list:
    """Wrap every STAGES and COUNTED function; return the absent ones."""
    absent = []
    replace = {}
    planned = [(stage, mod, path, True) for stage, mod, path in STAGES]
    planned += [(slot, mod, path, False)
                for slot, (_, mod, path) in enumerate(COUNTED)]
    for key, mod, path, is_span in planned:
        owner, fn = _lookup(package_modules.get(mod), path)
        if fn is None:
            absent.append("%s.%s" % (mod, path))
            continue
        if is_span:
            wrapped = span_wrapper(key, fn, NOTES.get(key))
        else:
            wrapped = count_wrapper(key, fn)
        if isinstance(owner, type):
            setattr(owner, path.split(".")[-1], wrapped)
        else:
            replace[id(fn)] = (fn, wrapped)
    # module functions are bound by name in every module that imported
    # them, and by value in dispatch tables such as verify._SUITE_FUNCS
    suites = getattr(package_modules.get("verify"), "_SUITE_FUNCS", {})
    for name, fn in suites.items():
        replace[id(fn)] = (fn, span_wrapper("verify." + name, fn))
    for module in package_modules.values():
        for attr, value in list(vars(module).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
            elif isinstance(value, dict):
                for k, v in value.items():
                    hit = replace.get(id(v))
                    if hit is not None and hit[0] is v:
                        value[k] = hit[1]
    return absent


def summarize(absent, import_s, numpy_import_s) -> dict:
    """Per-stage sums over the spans, with self time and self counters."""
    n = len(spans)
    child_time = [0.0] * n
    child_mul = [0] * n
    for row in spans:
        parent = row[3]
        if parent >= 0:
            child_time[parent] += row[2] - row[1]
            child_mul[parent] += row[5] - row[4]
    stages = {}
    extra = {"enumerate_elements": 0, "double_coset_group_order": 0,
             "commutant_total_s": {}, "norm_err_max": None,
             "chartab_groups": []}
    for i, row in enumerate(spans):
        stage = row[0]
        dur = row[2] - row[1]
        mul = row[5] - row[4]
        s = stages.setdefault(stage, dict(EMPTY_STAGE))
        s["calls"] += 1
        s["total_s"] += dur
        s["self_s"] += dur - child_time[i]
        s["perm_mul"] += mul - child_mul[i]
        s["perm_mul_total"] += mul
        note = row[6]
        if note is None:
            continue
        if stage == "permgroup.enumerate":
            extra["enumerate_elements"] += note
        elif stage == "permgroup.double_cosets":
            extra["double_coset_group_order"] += note
        elif stage == "standard_invariant.commutant":
            sides = extra["commutant_total_s"]
            sides[note] = sides.get(note, 0.0) + dur
        elif stage == "standard_invariant.graph":
            extra["norm_err_max"] = max(extra["norm_err_max"] or 0.0, note)
        elif stage == "chartab.table":
            extra["chartab_groups"].append(note)
    distinct = {(G.degree, G.elements) for G in extra.pop("chartab_groups")}
    extra["chartab_distinct"] = len(distinct)
    return {
        "stages": stages,
        "counts": {name: counts[slot]
                   for slot, (name, _, _) in enumerate(COUNTED)},
        "extra": extra,
        "absent": absent,
        "import_s": import_s,
        "numpy_import_s": numpy_import_s,
    }


def main(argv) -> int:
    summary_path, sfw_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed apart from sfw's own modules)
    t1 = time.perf_counter()
    import sfw.cli
    t2 = time.perf_counter()
    modules = {name[len("sfw."):]: mod for name, mod in sys.modules.items()
               if name.startswith("sfw.") and mod is not None}
    absent = install(modules)
    code = span_wrapper("cli.main", sfw.cli.main)(sfw_args)
    sys.stdout.flush()
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summarize(absent, t2 - t1, t1 - t0), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

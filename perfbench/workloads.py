"""Workloads of the sfw benchmark: inclusion ladders, commands and answers.

Every workload is a fixed list of `sfw` invocations.  The seed only
relabels the points of each rung and reorders its generators (for
`tower` and `graphs`), or picks the small arguments of the auxiliary
commands and the command order (for `checks`).  Neither changes the
answer, so every command's output is checked against invariants pinned
here; a relabelled inclusion is isomorphic to the original one.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

IN_H = "in-L(H)"
IN_G = "in-L(G)"

# Caps passed explicitly to every command on a generated rung.  S7 has
# order 5040, above the default order_cap of 5000; the oracle cap must
# admit G.order * t**k for every k listed, or `index` drops that k
# without saying so.
ORDER_CAP = 10000
ORACLE_CAP = 10 ** 9


@dataclass(frozen=True)
class Rung:
    """An inclusion H < G given by generators in cycle notation."""

    name: str
    degree: int
    group: tuple
    subgroup: tuple
    group_order: int
    subgroup_order: int
    double_cosets: int
    # dims[k] = (in-L(H), in-L(G)) commutant dimensions
    dims: dict
    # (principal even, principal odd, dual even, dual odd) vertex counts
    vertices: Optional[tuple] = None
    # conjugacy class counts of (G, H)
    classes: Optional[tuple] = None

    @property
    def index(self) -> int:
        return self.group_order // self.subgroup_order


RUNGS = {r.name: r for r in (
    Rung("s5-s4", 5, ("(0 1 2 3 4)", "(0 1)"), ("(0 1 2 3)", "(0 1)"),
         120, 24, 2, {1: (2, 5), 2: (15, 52), 3: (202, 855)},
         (8, 5, 7, 5), (7, 5)),
    Rung("s6-s5", 6, ("(0 1 2 3 4 5)", "(0 1)"), ("(0 1 2 3 4)", "(0 1)"),
         720, 120, 2, {1: (2, 5), 2: (15, 52), 3: (203, 876)},
         (12, 7, 11, 7), (11, 7)),
    Rung("s7-s6", 7, ("(0 1 2 3 4 5 6)", "(0 1)"),
         ("(0 1 2 3 4 5)", "(0 1)"),
         5040, 720, 2, {}, (18, 11, 15, 11), (15, 11)),
    Rung("a5-a4", 5, ("(0 1 2 3 4)", "(0 1 2)"), ("(0 1 2)", "(1 2 3)"),
         60, 12, 2, {1: (2, 5), 2: (16, 63), 3: (282, 1345)}),
    # S3 acting on {0,1,2} and, through its sign, on {3,4}: index 10
    Rung("a5-s3", 5, ("(0 1 2 3 4)", "(0 1 2)"), ("(0 1 2)", "(0 1)(3 4)"),
         60, 6, 3, {1: (3, 19), 2: (171, 1675), 3: (16683, 166699)},
         (6, 3, 5, 3), (5, 3)),
    Rung("a5-d5", 5, ("(0 1 2 3 4)", "(0 1 2)"),
         ("(0 1 2 3 4)", "(1 4)(2 3)"),
         60, 10, 2, {1: (2, 6), 2: (26, 138), 3: (794, 4698)}),
    Rung("c2wrs3", 6, ("(0 1)", "(0 2)(1 3)", "(0 2 4)(1 3 5)"),
         ("(0 1)", "(2 3)", "(4 5)"),
         48, 8, 6, {1: (6, 36), 2: (216, 1296), 3: (7776, 46656)}),
    Rung("c2wrs4", 8, ("(0 1)", "(0 2)(1 3)", "(0 2 4 6)(1 3 5 7)"),
         ("(0 1)", "(2 3)", "(4 5)", "(6 7)"),
         384, 16, 24, {1: (24, 576), 2: (13824, 331776)}),
    Rung("c3wrc3", 9, ("(0 1 2)", "(0 3 6)(1 4 7)(2 5 8)"),
         ("(0 1 2)", "(3 4 5)", "(6 7 8)"),
         81, 27, 3, {}, (3, 1, 3, 1), (17, 27)),
    Rung("c2wrc4", 8, ("(0 1)", "(0 2 4 6)(1 3 5 7)"),
         ("(0 1)", "(2 3)", "(4 5)", "(6 7)"),
         64, 16, 4, {}, (4, 1, 4, 1), (13, 16)),
)}

TOWER_RUNGS = ("s5-s4", "s6-s5", "a5-a4", "a5-s3", "a5-d5", "c2wrs3",
               "c2wrs4")
GRAPH_RUNGS = ("s5-s4", "s6-s5", "s7-s6", "a5-s3", "c3wrc3", "c2wrc4")


@dataclass(frozen=True)
class Builtin:
    """A built-in case of `sfw --case` with its pinned answers."""

    name: str
    group_order: int
    index: int
    double_cosets: int
    dims: dict
    principal: tuple  # (even, odd) vertex counts
    classes: int      # conjugacy classes of G


BUILTINS = {b.name: b for b in (
    Builtin("s3-flip", 6, 3, 2, {1: (2, 5), 2: (14, 41), 3: (122, 365)},
            (3, 2), 3),
    Builtin("s3-a3", 6, 2, 2, {1: (2, 4), 2: (8, 16), 3: (32, 64)},
            (2, 1), 3),
    Builtin("s4-s3", 24, 4, 2, {1: (2, 5), 2: (15, 51), 3: (187, 715)},
            (5, 3), 5),
    Builtin("s4-d4", 24, 3, 2, {1: (2, 5), 2: (14, 41), 3: (122, 365)},
            (3, 2), 5),
    Builtin("a4-v4", 12, 3, 3, {1: (3, 9), 2: (27, 81), 3: (243, 729)},
            (3, 1), 4),
    Builtin("wr2x3-base", 24, 3, 3, {1: (3, 9), 2: (27, 81), 3: (243, 729)},
            (3, 1), 8),
)}

# absolute tolerance on norm^2 == index, the CLI's default tol_norm
TOL_NORM = 1e-6


# ---------------------------------------------------------------------------
# seeded inputs

def parse_cycles(degree: int, text: str) -> list:
    """Images list of a permutation written as "(0 1)(2 3)"."""
    images = list(range(degree))
    body = text.strip()
    if body in ("", "()"):
        return images
    for chunk in body[1:-1].split(")("):
        pts = [int(tok) for tok in chunk.split()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return images


def cycle_string(images) -> str:
    seen = set()
    out = []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            continue
        cyc = [start]
        seen.add(start)
        x = images[start]
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = images[x]
        out.append("(%s)" % " ".join(map(str, cyc)))
    return "".join(out) or "()"


def relabel(images, sigma) -> list:
    """sigma * g * sigma^-1: the same permutation on renamed points."""
    out = [0] * len(images)
    for x, y in enumerate(images):
        out[sigma[x]] = sigma[y]
    return out


def relabelled_files(rung: Rung, rng: random.Random, directory: str) -> tuple:
    """Write G and H of the rung, relabelled by a random point map.

    The generator count stays fixed; their order is shuffled.  Both
    groups use the same point map, so the inclusion is isomorphic to
    the pinned one.
    """
    sigma = list(range(rung.degree))
    rng.shuffle(sigma)
    paths = []
    for tag, gens in (("G", rung.group), ("H", rung.subgroup)):
        gens = [cycle_string(relabel(parse_cycles(rung.degree, g), sigma))
                for g in gens]
        rng.shuffle(gens)
        path = os.path.join(directory, "%s.%s.json" % (rung.name, tag))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"degree": rung.degree,
                       "convention": "rightmost-first",
                       "generators": gens}, fh)
        paths.append(path)
    return tuple(paths)


# ---------------------------------------------------------------------------
# answer checks: each returns None when the output is right, else a reason

def _check_index(group_order, index, dcs, dims, ks):
    def check(out):
        o = json.loads(out)
        if (o["group_order"], o["index"], o["double_cosets"]) != \
                (group_order, index, dcs):
            return "index data %r" % ((o["group_order"], o["index"],
                                       o["double_cosets"]),)
        got = o["commutant_dims"]
        for k in ks:
            for side, want in zip((IN_H, IN_G), dims[k]):
                value = got.get(side, {}).get(str(k))
                if value is None:
                    return "k=%d %s missing from the output" % (k, side)
                if value != want:
                    return "k=%d %s is %r, want %d" % (k, side, value, want)
        return None
    return check


def _check_graph(index, even, odd):
    def check(out):
        o = json.loads(out)
        if (len(o["even"]), len(o["odd"])) != (even, odd):
            return "vertices %d/%d, want %d/%d" % (
                len(o["even"]), len(o["odd"]), even, odd)
        if abs(o["norm_squared"] - index) > TOL_NORM:
            return "norm^2 %r, want %d" % (o["norm_squared"], index)
        return None
    return check


def _check_chartab(order, classes):
    def check(out):
        o = json.loads(out)
        if o["group_order"] != order or len(o["classes"]) != classes:
            return "order %r, %d classes" % (o["group_order"],
                                             len(o["classes"]))
        if sum(d * d for d in o["degrees"]) != order:
            return "degree squares do not sum to %d" % order
        if sum(c["size"] for c in o["classes"]) != order:
            return "class sizes do not sum to %d" % order
        return None
    return check


def _check_verify(out):
    o = json.loads(out)
    if o["failed"] or o["cases_run"] < 1:
        return "%d of %d verify cases failed" % (o["failed"], o["cases_run"])
    return None


def _check_extend(out):
    o = json.loads(out)
    got = (o["relations_ok"], o["index"], o["base_order"],
           o["ambient_order"])
    if got != (True, 2, 12, 24):
        return "extension data %r" % (got,)
    return None


def _check_induce(index, order, element):
    def check(out):
        o = json.loads(out)
        if (o["degree"], o["target_order"]) != (index, order):
            return "degree %r over order %r" % (o["degree"],
                                                o["target_order"])
        [block] = o["matrices"]
        if block["element"] != element:
            return "matrix of %r, want %r" % (block["element"], element)
        cells = {(e["row"], e["col"]) for e in block["entries"]}
        rows = {r for r, _ in cells}
        cols = {c for _, c in cells}
        if len(cells) != index or len(rows) != index or len(cols) != index:
            return "induced matrix is not monomial"
        if any(e["coeff"] != [1.0, 0.0] for e in block["entries"]):
            return "trivial representation gave a coefficient other than 1"
        return None
    return check


def _check_spectrum(n):
    def check(out):
        o = json.loads(out)
        if o["kind"] != "discrete" or o.get("n") != n:
            return "verdict %r, want discrete n=%d" % (o, n)
        return None
    return check


def _check_vindex(value):
    def check(out):
        o = json.loads(out)
        if o["virtual_index"] != value:
            return "virtual index %r, want %d" % (o["virtual_index"], value)
        return None
    return check


def check_noop(out):
    return None if out == "virtual index: 1\n" else "no-op said %r" % out


# ---------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class Command:
    """One sfw invocation, the end-to-end metric it counts towards, and
    the check of its standard output."""

    metric: str
    argv: tuple
    check: Callable


# The no-op invocation whose wall time is setup_s.
NOOP = Command("setup_s", ("vindex", "--total", "1", "--part", "1:1:1"),
               check_noop)


def _files(paths):
    return ("--group", paths[0], "--subgroup", paths[1], "--json",
            "--order-cap", str(ORDER_CAP))


def tower(rng: random.Random, directory: str) -> list:
    cmds = []
    for name in TOWER_RUNGS:
        rung = RUNGS[name]
        paths = relabelled_files(rung, rng, directory)
        kmax = max(rung.dims)
        argv = ("index",) + _files(paths) + (
            "--oracle-cap", str(ORACLE_CAP), "--theta-k-cap", str(kmax))
        cmds.append(Command("index_s", argv, _check_index(
            rung.group_order, rung.index, rung.double_cosets, rung.dims,
            range(1, kmax + 1))))
    return cmds


def graphs(rng: random.Random, directory: str) -> list:
    cmds = []
    for name in GRAPH_RUNGS:
        rung = RUNGS[name]
        paths = relabelled_files(rung, rng, directory)
        base = _files(paths)
        pe, po, de, do = rung.vertices
        cmds.append(Command("graph_s", ("graph", "--kind", "principal")
                            + base, _check_graph(rung.index, pe, po)))
        cmds.append(Command("graph_s", ("graph", "--kind", "dual") + base,
                            _check_graph(rung.index, de, do)))
        cmds.append(Command("chartab_s", ("chartab", "--member", "group")
                            + base, _check_chartab(rung.group_order,
                                                   rung.classes[0])))
        cmds.append(Command("chartab_s", ("chartab", "--member", "subgroup")
                            + base, _check_chartab(rung.subgroup_order,
                                                   rung.classes[1])))
    return cmds


def checks(rng: random.Random, directory: str) -> list:
    """24 short commands on the built-in cases, in a seeded order."""
    cmds = [Command("verify_s", ("verify", "--suite", "all", "--json"),
                    _check_verify)]
    for b in BUILTINS.values():
        case = ("--case", b.name, "--json")
        cmds.append(Command("index_s", ("index",) + case, _check_index(
            b.group_order, b.index, b.double_cosets, b.dims, (1, 2, 3))))
        cmds.append(Command("graph_s", ("graph",) + case,
                            _check_graph(b.index, *b.principal)))
        cmds.append(Command("chartab_s", ("chartab",) + case,
                            _check_chartab(b.group_order, b.classes)))
    cmds.append(Command("aux_s", ("extend", "--case", "a4-v4", "--json"),
                        _check_extend))
    # s3-a3: A3 = <(0 1 2)> inside S3; any element of S3 may be induced
    element = rng.choice(("()", "(0 1)", "(0 2)", "(1 2)", "(0 1 2)",
                          "(0 2 1)"))
    cmds.append(Command("aux_s", ("induce", "--case", "s3-a3", "--element",
                                  element, "--json"),
                        _check_induce(2, 3, element)))
    for _ in range(2):
        n = rng.randrange(3, 13)
        value = "%.15g" % (4.0 * math.cos(math.pi / n) ** 2)
        cmds.append(Command("aux_s", ("spectrum", value, "--json"),
                            _check_spectrum(n)))
    # parts (s, [G:K], [H:gamma K]); t is forced to sum s * [G:K]
    parts = [(rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 4))
             for _ in range(rng.randint(1, 3))]
    t = sum(s * g for s, g, _ in parts)
    value = t * sum(s * h for s, _, h in parts)
    argv = ("vindex", "--total", str(t))
    for p in parts:
        argv += ("--part", "%d:%d:%d" % p)
    cmds.append(Command("aux_s", argv + ("--json",), _check_vindex(value)))
    rng.shuffle(cmds)
    return cmds


WORKLOADS = {"tower": tower, "graphs": graphs, "checks": checks}


def build(workload: str, seed: int, directory: str) -> list:
    """The workload's commands for this seed; input files go to directory."""
    return WORKLOADS[workload](random.Random(seed), directory)

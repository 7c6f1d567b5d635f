"""JSON and DOT serialization for groups, graphs, tables, and cocycles.

All writers produce plain dicts of JSON-safe values; canonical_json
renders them byte-deterministically (sorted keys, fixed indentation,
trailing newline) so repeated runs diff clean.  Only the readers build
objects of the package, so they import permgroup and standard_invariant
when called, and writing JSON runs no other module of it.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .config import Config, DEFAULT
from .errors import ParseError

if TYPE_CHECKING:
    from .chartab import CharacterTable
    from .cocycle import Cocycle2, ExtensionResult
    from .permgroup import PermGroup
    from .standard_invariant import BipartiteMultiGraph, GraphVertex

CONVENTION = "rightmost-first"


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def parse_json_text(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError("invalid JSON at line %d column %d: %s"
                         % (e.lineno, e.colno, e.msg)) from None


def _require(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError("missing key %r in %s" % (key, where))
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise ParseError("key %r in %s has the wrong type" % (key, where))
    return value


# ---------------------------------------------------------------------------
# groups

def group_to_json(G: PermGroup) -> dict:
    gens = []
    for g in G.generators:
        gens.append({"cycles": g.cycle_string(), "images": list(g.images)})
    return {"degree": G.degree, "convention": CONVENTION, "generators": gens}


def group_from_json(obj, config: Config = DEFAULT) -> PermGroup:
    from .permgroup import Perm, PermGroup, parse_cycle_string
    degree = _require(obj, "degree", int, "group")
    if degree < 1:
        raise ParseError("degree must be at least 1")
    if "convention" in obj and obj["convention"] != CONVENTION:
        raise ParseError("unsupported composition convention %r"
                         % (obj["convention"],))
    raw = _require(obj, "generators", list, "group")
    gens = []
    for i, entry in enumerate(raw):
        where = "generator %d" % i
        if isinstance(entry, str):
            gens.append(parse_cycle_string(degree, entry))
            continue
        if not isinstance(entry, dict):
            raise ParseError("%s must be a string or an object" % where)
        from_cycles = None
        from_images = None
        if "cycles" in entry:
            if not isinstance(entry["cycles"], str):
                raise ParseError("%s cycles must be a string" % where)
            from_cycles = parse_cycle_string(degree, entry["cycles"])
        if "images" in entry:
            images = entry["images"]
            if (not isinstance(images, list)
                    or not all(isinstance(x, int) for x in images)):
                raise ParseError("%s images must be a list of ints" % where)
            if len(images) != degree:
                raise ParseError("%s images must have length %d"
                                 % (where, degree))
            try:
                from_images = Perm(images)
            except Exception as e:
                raise ParseError("%s: %s" % (where, e)) from None
        if from_cycles is None and from_images is None:
            raise ParseError("%s needs cycles or images" % where)
        if (from_cycles is not None and from_images is not None
                and from_cycles != from_images):
            raise ParseError("%s cycles and images disagree" % where)
        gens.append(from_images if from_images is not None else from_cycles)
    return PermGroup(degree, gens, config)


# ---------------------------------------------------------------------------
# bipartite graphs

def _vertex_to_json(v: GraphVertex) -> dict:
    return {"label": v.label, "group": v.group_index,
            "irrep": v.irrep_index, "degree": v.degree}

def _vertex_from_json(obj, where) -> GraphVertex:
    from .standard_invariant import GraphVertex
    return GraphVertex(
        _require(obj, "label", str, where),
        _require(obj, "group", int, where),
        _require(obj, "irrep", int, where),
        _require(obj, "degree", int, where))


def graph_to_json(g: BipartiteMultiGraph) -> dict:
    return {
        "even": [_vertex_to_json(v) for v in g.even],
        "odd": [_vertex_to_json(v) for v in g.odd],
        "edges": [[e, o, m] for e, o, m in sorted(g.edges)],
        "designated": g.designated,
        "marked_odd": g.marked_odd,
        "norm_squared": round(g.norm_squared, 10),
    }


def graph_from_json(obj) -> BipartiteMultiGraph:
    from .standard_invariant import BipartiteMultiGraph
    even = tuple(_vertex_from_json(v, "even vertex")
                 for v in _require(obj, "even", list, "graph"))
    odd = tuple(_vertex_from_json(v, "odd vertex")
                for v in _require(obj, "odd", list, "graph"))
    edges = []
    for entry in _require(obj, "edges", list, "graph"):
        if (not isinstance(entry, list) or len(entry) != 3
                or not all(isinstance(x, int) for x in entry)):
            raise ParseError("graph edges must be [even, odd, mult] triples")
        e, o, m = entry
        if not (0 <= e < len(even) and 0 <= o < len(odd) and m >= 1):
            raise ParseError("graph edge out of range")
        edges.append((e, o, m))
    designated = _require(obj, "designated", str, "graph")
    marked = _require(obj, "marked_odd", str, "graph")
    if designated not in {v.label for v in even}:
        raise ParseError("designated label is not an even vertex")
    if marked not in {v.label for v in odd}:
        raise ParseError("marked odd label is not an odd vertex")
    norm = float(_require(obj, "norm_squared", (int, float), "graph"))
    return BipartiteMultiGraph(even, odd, tuple(edges), designated,
                               marked, norm)


def graph_to_dot(g: BipartiteMultiGraph, name: str = "principal") -> str:
    lines = ["graph %s {" % name,
             "  rankdir=LR;",
             "  node [shape=circle];"]
    for i, v in enumerate(g.even):
        style = ', style=filled, fillcolor="#c8d8f0"'
        shape = "doublecircle" if v.label == g.designated else "circle"
        lines.append('  e%d [label="%s", shape=%s%s];'
                     % (i, v.label, shape, style))
    for i, v in enumerate(g.odd):
        shape = "doublecircle" if v.label == g.marked_odd else "circle"
        lines.append('  o%d [label="%s", shape=%s];' % (i, v.label, shape))
    lines.append("  { rank=same; %s }"
                 % "; ".join("e%d" % i for i in range(len(g.even))))
    lines.append("  { rank=same; %s }"
                 % "; ".join("o%d" % i for i in range(len(g.odd))))
    for e, o, m in sorted(g.edges):
        attr = ' [label="%d"]' % m if m > 1 else ""
        lines.append("  e%d -- o%d%s;" % (e, o, attr))
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# character tables

def rounded(x: float, places: int) -> float:
    """x rounded to the given decimal places, with -0.0 read as 0.0.

    A character value that is not an integer is a float sum of roots of
    unity, and a zero real or imaginary part of it comes out with the
    sign of its rounding error; that sign is not data.
    """
    value = round(x, places)
    return value if value else 0.0


def complex_pair(z: complex) -> list:
    return [rounded(z.real, 12), rounded(z.imag, 12)]


def chartab_to_json(table: CharacterTable) -> dict:
    classes = [{"representative": rep.cycle_string(), "size": size}
               for rep, size in zip(table.classes.reps, table.classes.sizes)]
    values = [[complex_pair(chi.values[j])
               for j in range(table.classes.count)]
              for chi in table.characters]
    return {
        "group_order": table.group.order,
        "degree": table.group.degree,
        "classes": classes,
        "degrees": list(table.degrees),
        "values": values,
    }


# ---------------------------------------------------------------------------
# cocycles and extensions

def cocycle_to_json(c: Cocycle2) -> dict:
    index_of = {g: i for i, g in enumerate(c.quotient.elements)}
    triples = []
    for (g1, g2), w in c.values.items():
        triples.append([index_of[g1], index_of[g2], w.cycle_string()])
    triples.sort()
    return {
        "base_degree": c.base.degree,
        "quotient_order": c.quotient.order,
        "values": triples,
    }


def extension_to_json(result: ExtensionResult) -> dict:
    fingerprint = {str(k): v
                   for k, v in sorted(result.fingerprint().items())}
    return {
        "base_order": result.base.order,
        "ambient_order": result.ambient.order,
        "index": result.index,
        "fingerprint": fingerprint,
        "cocycle": cocycle_to_json(result.cocycle),
    }

"""sfw graph: the principal or dual principal graph as JSON or DOT.

The DOT writer lives here, since no other command prints it and nothing
reads it back; the JSON writer stays in sfw.formats beside its reader.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import formats, standard_invariant
from ..config import Config
from . import _add_common, _emit, _load_inclusion

if TYPE_CHECKING:
    from ..standard_invariant import BipartiteMultiGraph


def add_arguments(p):
    _add_common(p, inclusion=True)
    p.add_argument("--kind", choices=("principal", "dual"),
                   default="principal")
    p.add_argument("--format", choices=("json", "dot"), default="json")


def run(args, cfg: Config) -> int:
    name, G, H = _load_inclusion(args, cfg)
    build = (standard_invariant.principal_graph if args.kind == "principal"
             else standard_invariant.dual_principal_graph)
    graph = build(G, H, cfg)
    if args.format == "dot":
        _emit(args, graph_to_dot(graph, "%s_%s" % (args.kind, name)))
    else:
        _emit(args, formats.canonical_json(formats.graph_to_json(graph)))
    return 0


def graph_to_dot(g: BipartiteMultiGraph, name: str = "principal") -> str:
    # a quoted ID may hold any character; case names hold hyphens
    quoted = name.replace("\\", "\\\\").replace('"', '\\"')
    lines = ['graph "%s" {' % quoted,
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

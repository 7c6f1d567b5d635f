"""sfw extend: the extension of a centerless group by outer automorphisms.

The JSON writers of an extension and its cocycle live here, since no
other command prints them and nothing reads them back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import automorphisms, cocycle, corpus, formats
from ..config import Config
from ..errors import ParseError
from . import _add_common, _emit, _load_group_file

if TYPE_CHECKING:
    from ..cocycle import Cocycle2, ExtensionResult


def add_arguments(p):
    _add_common(p, group_only=True)
    p.add_argument("--out-classes", default="all",
                   help="comma list of outer class indices, or 'all'")


def run(args, cfg: Config) -> int:
    if args.case:
        G = corpus.case_by_name(args.case, cfg).group
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
            if not available:
                raise ParseError("outer class %d out of range: the group "
                                 "has no outer automorphism classes" % p)
            if not 1 <= p <= available:
                raise ParseError("outer class %d out of range, have 1..%d"
                                 % (p, available))
    # extension_from_out raises at a failed relation, so whatever is
    # printed has passed them all; the index - 1 nonidentity classes
    # lift to coset representatives outside Inn(G), so to outer
    # automorphisms
    result = cocycle.extension_from_out(auts, picks, cfg)
    if args.json:
        payload = extension_to_json(result)
        payload["relations_ok"] = True
        payload["outer_lifts"] = result.index - 1
        _emit(args, formats.canonical_json(payload))
        return 0
    lines = ["base order: %d" % result.base.order,
             "extension order: %d" % result.ambient.order,
             "index: %d" % result.index,
             "element order histogram: %s" % dict(sorted(
                 result.fingerprint().items())),
             "cocycle normalized: %s" % result.cocycle.is_normalized(),
             "relations verified: True"]
    _emit(args, "\n".join(lines) + "\n")
    return 0


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

"""sfw vindex: the index of a virtual embedding from its part data."""

from __future__ import annotations

from .. import formats, indexarith
from ..config import Config
from ..errors import ParseError
from . import _add_common, _emit


def add_arguments(p):
    _add_common(p)
    p.add_argument("--total", type=int, required=True,
                   help="row count t of the virtual embedding")
    p.add_argument("--part", action="append", required=True,
                   help="s:indexGK:indexHK, repeatable")


def run(args, cfg: Config) -> int:
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

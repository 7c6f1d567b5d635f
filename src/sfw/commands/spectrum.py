"""sfw spectrum: locate a value in the admissible index spectrum."""

from __future__ import annotations

from .. import formats, indexarith
from ..config import Config
from . import _add_common, _emit


def add_arguments(p):
    _add_common(p)
    p.add_argument("value", type=float)


def run(args, cfg: Config) -> int:
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

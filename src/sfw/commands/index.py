"""sfw index: Jones index, coset counts and relative commutant dimensions.

The double cosets and the dimensions are orbit counts of sfw.commutant;
this command builds no double coset and runs no graph, table or theta.
"""

from __future__ import annotations

from .. import commutant, formats, permgroup
from ..config import Config
from . import _add_common, _emit, _load_inclusion


def add_arguments(p):
    _add_common(p, inclusion=True)


def run(args, cfg: Config) -> int:
    name, G, H = _load_inclusion(args, cfg)
    cosets = permgroup.right_coset_data(G, H)
    double_cosets = commutant.orbit_count(G, H, H, 1)
    in_h, in_g = commutant.SIDES
    dims = {in_h: {}, in_g: {}}
    for k in range(1, cfg.theta_k_cap + 1):
        for side in (in_h, in_g):
            dims[side][k] = commutant.relative_commutant_dim(
                G, H, H, k, side, cfg)
    if args.json:
        payload = {
            "name": name,
            "group_order": G.order,
            "subgroup_order": H.order,
            "index": cosets.index,
            "right_cosets": cosets.index,
            "double_cosets": double_cosets,
            "commutant_dims": {side: {str(k): v for k, v in table.items()}
                               for side, table in dims.items()},
        }
        _emit(args, formats.canonical_json(payload))
        return 0
    lines = ["inclusion: %s" % name,
             "group order: %d, subgroup order: %d" % (G.order, H.order),
             "index: %d" % cosets.index,
             "double cosets: %d" % double_cosets]
    for k in sorted(dims[in_h]):
        lines.append("relative commutants k=%d: %s=%d %s=%d"
                     % (k, in_h, dims[in_h][k], in_g, dims[in_g][k]))
    _emit(args, "\n".join(lines) + "\n")
    return 0

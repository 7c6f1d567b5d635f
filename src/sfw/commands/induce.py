"""sfw induce: block matrix images of the homomorphism a subgroup induces.

The images are the k = 1 theta maps of sfw.theta; this command runs
neither the graphs nor the brute-force oracle of sfw.standard_invariant.
"""

from __future__ import annotations

from .. import formats, permgroup, theta
from ..config import Config
from . import _add_common, _emit, _load_inclusion


def add_arguments(p):
    _add_common(p, inclusion=True)
    p.add_argument("--element", help="cycle notation for one group element")


def run(args, cfg: Config) -> int:
    name, G, K = _load_inclusion(args, cfg)
    induced = theta.induced_theta(G, K)
    degree = induced.cosets.index
    # theta refuses an element outside G, with exit 3
    elements = ([permgroup.parse_cycle_string(G.degree, args.element)]
                if args.element else G.generators)
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

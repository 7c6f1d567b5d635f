"""sfw chartab: the character table of the group or the subgroup.

The JSON writer of a table lives here, since no other command prints
one and nothing reads it back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import chartab, formats
from ..config import Config
from . import _add_common, _emit, _load_inclusion

if TYPE_CHECKING:
    from ..chartab import CharacterTable


def add_arguments(p):
    _add_common(p, inclusion=True)
    p.add_argument("--member", choices=("group", "subgroup"),
                   default="group")


def run(args, cfg: Config) -> int:
    name, G, H = _load_inclusion(args, cfg)
    target = H if args.member == "subgroup" else G
    table = chartab.character_table(target)
    if args.json:
        _emit(args, formats.canonical_json(chartab_to_json(table)))
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


def chartab_to_json(table: CharacterTable) -> dict:
    classes = [{"representative": rep.cycle_string(), "size": size}
               for rep, size in zip(table.classes.reps, table.classes.sizes)]
    values = [[formats.complex_pair(chi.values[j])
               for j in range(table.classes.count)]
              for chi in table.characters]
    return {
        "group_order": table.group.order,
        "degree": table.group.degree,
        "classes": classes,
        "degrees": list(table.degrees),
        "values": values,
    }

"""Built-in group-subgroup inclusions used by the verification suites."""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .config import Config
from .errors import CapExceededError, PreconditionError
from .permgroup import (
    PermGroup,
    alternating_group,
    cyclic_group,
    parse_cycle_string,
    symmetric_group,
    wreath_product,
)


class InclusionCase(NamedTuple):
    name: str
    group: PermGroup
    subgroup: PermGroup
    index: int


@lru_cache(maxsize=1)
def builtin_cases() -> tuple:
    """Six inclusions of index 2 to 4 with varied shapes."""
    cases = []

    S3 = symmetric_group(3)
    flip = PermGroup(3, [parse_cycle_string(3, "(0 1)")])
    cases.append(InclusionCase("s3-flip", S3, flip, 3))
    cases.append(InclusionCase("s3-a3", S3, alternating_group(3), 2))

    S4 = symmetric_group(4)
    S3_in_S4 = PermGroup(
        4, [parse_cycle_string(4, "(0 1)"), parse_cycle_string(4, "(0 1 2)")])
    cases.append(InclusionCase("s4-s3", S4, S3_in_S4, 4))
    D4 = PermGroup(
        4, [parse_cycle_string(4, "(0 1 2 3)"), parse_cycle_string(4, "(0 2)")])
    cases.append(InclusionCase("s4-d4", S4, D4, 3))

    A4 = alternating_group(4)
    V4 = PermGroup(
        4, [parse_cycle_string(4, "(0 1)(2 3)"),
            parse_cycle_string(4, "(0 2)(1 3)")])
    cases.append(InclusionCase("a4-v4", A4, V4, 3))

    wr = wreath_product(cyclic_group(2), cyclic_group(3))
    base_gens = [g for copy in wr.base_copies for g in copy.generators]
    base = PermGroup(wr.group.degree, base_gens)
    cases.append(InclusionCase("wr2x3-base", wr.group, base, 3))

    for c in cases:
        if c.group.order != c.index * c.subgroup.order:
            raise PreconditionError("corpus index bookkeeping is wrong")
    return tuple(cases)


def case_names() -> tuple:
    return tuple(c.name for c in builtin_cases())


def case_by_name(name: str) -> InclusionCase:
    for c in builtin_cases():
        if c.name == name:
            return c
    raise KeyError("unknown case %r, have %s"
                   % (name, ", ".join(case_names())))


def require_order_cap(case: InclusionCase, config: Config) -> InclusionCase:
    """The case, held to config.order_cap like a group read from a file.

    The built-in groups are enumerated once under the default config, so
    a lower cap has to be applied here.
    """
    if case.group.order > config.order_cap:
        raise CapExceededError("case %s has group order %d, above cap %d"
                               % (case.name, case.group.order,
                                  config.order_cap))
    return case

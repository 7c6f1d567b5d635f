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
)


class InclusionCase(NamedTuple):
    name: str
    group: PermGroup
    subgroup: PermGroup
    index: int


@lru_cache(maxsize=None)
def _symmetric(n: int) -> PermGroup:
    # S3 and S4 each serve two cases, which share one group and its caches
    return symmetric_group(n)


def _inclusion(G: PermGroup, *cycles: str) -> tuple:
    """G and its subgroup generated by the cycles, checked to lie in G."""
    return G, G.subgroup([parse_cycle_string(G.degree, c) for c in cycles])


def _wreath_base() -> tuple:
    # imported here, so that no other case runs sfw.wreath
    from .wreath import wreath_product
    wr = wreath_product(cyclic_group(2), cyclic_group(3))
    base_gens = [g for copy in wr.base_copies for g in copy.generators]
    return wr.group, wr.group.subgroup(base_gens)


# name -> (index, builder of (group, subgroup)), in the order of
# builtin_cases: six inclusions of index 2 to 4 with varied shapes
_BUILDERS = {
    "s3-flip": (3, lambda: _inclusion(_symmetric(3), "(0 1)")),
    "s3-a3": (2, lambda: _inclusion(_symmetric(3), "(0 1 2)")),
    "s4-s3": (4, lambda: _inclusion(_symmetric(4), "(0 1)", "(0 1 2)")),
    "s4-d4": (3, lambda: _inclusion(_symmetric(4), "(0 1 2 3)", "(0 2)")),
    "a4-v4": (3, lambda: _inclusion(alternating_group(4),
                                    "(0 1)(2 3)", "(0 2)(1 3)")),
    "wr2x3-base": (3, _wreath_base),
}


def builtin_cases() -> tuple:
    """Six inclusions of index 2 to 4 with varied shapes."""
    return tuple(case_by_name(name) for name in _BUILDERS)


def case_names() -> tuple:
    return tuple(_BUILDERS)


@lru_cache(maxsize=None)
def case_by_name(name: str) -> InclusionCase:
    """The named built-in case; only its own groups are built."""
    try:
        index, build = _BUILDERS[name]
    except KeyError:
        raise KeyError("unknown case %r, have %s"
                       % (name, ", ".join(case_names()))) from None
    group, subgroup = build()
    if group.order != index * subgroup.order:
        raise PreconditionError("corpus index bookkeeping is wrong")
    return InclusionCase(name, group, subgroup, index)


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

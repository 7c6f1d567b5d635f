"""The groups sfw declares for itself, and its built-in inclusions.

Every group sfw declares arrives as a group file does: a degree and
generators in cycle notation.  declared_group builds one from the table
below under a config; the built-in cases, listed under the run's config
too, and the verify suites all take their groups from it.  C2wrC3 is
the wreath product C2 wr C3 by its four generators, the base copies
first.  A4C4 is A4 x| C4, of order 48, with C4 acting on A4 as a
transposition of S4 does: a wreath-like group over C2 and S3 that does
not split.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .config import Config, DEFAULT
from .errors import InvariantViolationError, ParseError
from .permgroup import PermGroup, parse_cycle_string

# name -> (degree, generator cycle strings)
_GROUPS = {
    "S3": (3, ("(0 1 2)", "(0 1)")),
    "A3": (3, ("(0 1 2)",)),
    "S4": (4, ("(0 1 2 3)", "(0 1)")),
    "A4": (4, ("(0 1 2)", "(1 2 3)")),
    "V4": (4, ("(0 1)(2 3)", "(0 2)(1 3)")),
    "S3xS3": (6, ("(0 1)", "(0 1 2)", "(3 4)", "(3 4 5)")),
    "C2": (2, ("(0 1)",)),
    "C3": (3, ("(0 1 2)",)),
    "C2wrC3": (6, ("(0 1)", "(2 3)", "(4 5)", "(0 2 4)(1 3 5)")),
    "A4C4": (8, ("(0 1 2)", "(1 2 3)", "(0 1)(4 5 6 7)")),
}


def declared_group(name: str, config: Config = DEFAULT) -> PermGroup:
    """The named group of the table, enumerated under config.

    Every caller naming one group under one config shares it and its
    caches, whether or not it passes the default config.
    """
    return _declared_group(name, config)


@lru_cache(maxsize=None)
def _declared_group(name: str, config: Config) -> PermGroup:
    degree, cycles = _GROUPS[name]
    return PermGroup(degree, [parse_cycle_string(degree, c) for c in cycles],
                     config)


class InclusionCase(NamedTuple):
    name: str
    group: PermGroup
    subgroup: PermGroup

    @property
    def index(self) -> int:
        return self.group.order // self.subgroup.order


# name -> (index, group name, subgroup generator cycle strings), in the
# order of builtin_cases: six inclusions of index 2 to 4 with varied shapes
_CASES = {
    "s3-flip": (3, "S3", ("(0 1)",)),
    "s3-a3": (2, "S3", ("(0 1 2)",)),
    "s4-s3": (4, "S4", ("(0 1)", "(0 1 2)")),
    "s4-d4": (3, "S4", ("(0 1 2 3)", "(0 2)")),
    "a4-v4": (3, "A4", ("(0 1)(2 3)", "(0 2)(1 3)")),
    "wr2x3-base": (3, "C2wrC3", ("(0 1)", "(2 3)", "(4 5)")),
}


def builtin_cases(config: Config = DEFAULT) -> tuple:
    """Six inclusions of index 2 to 4 with varied shapes, under config."""
    return tuple(case_by_name(name, config) for name in _CASES)


def case_names() -> tuple:
    return tuple(_CASES)


def case_by_name(name: str, config: Config = DEFAULT) -> InclusionCase:
    """The named case, its groups listed under config like a group file.

    Only its own groups are built, and cached as by declared_group.  An
    unknown name is bad input, a ParseError.
    """
    if name not in _CASES:
        raise ParseError("unknown case %r, have %s"
                         % (name, ", ".join(case_names())))
    return _case_by_name(name, config)


@lru_cache(maxsize=None)
def _case_by_name(name: str, config: Config) -> InclusionCase:
    index, group_name, cycles = _CASES[name]
    group = declared_group(group_name, config)
    subgroup = group.subgroup(
        [parse_cycle_string(group.degree, c) for c in cycles], config)
    # the stored index checks the table above, not any input
    if group.order != index * subgroup.order:
        raise InvariantViolationError("corpus index bookkeeping is wrong")
    return InclusionCase(name, group, subgroup)

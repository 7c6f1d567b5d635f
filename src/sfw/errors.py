"""Exception hierarchy shared across the package.

Each class carries the CLI exit code it maps onto: ParseError 2,
PreconditionError and its subclasses 3, CapExceededError 4, and every
other SfwError 1.  Verification failures are data (reports), not
exceptions, and also exit 1.  InvariantViolationError signals a broken
internal consistency check and is never expected to fire; the exact
checks of a character table (orthogonality mod p, the squared degrees,
the eigenvalue multiplicities) raise it.
"""


class SfwError(Exception):
    exit_code = 1


class ParseError(SfwError):
    """Malformed input data (JSON syntax, bad generator images, ...)."""

    exit_code = 2


class PreconditionError(SfwError):
    """Input is well formed but violates a documented precondition."""

    exit_code = 3


class SubgroupError(PreconditionError):
    pass


class NotNormalError(PreconditionError):
    pass


class NontrivialCenterError(PreconditionError):
    pass


class InvalidActionError(PreconditionError):
    pass


class HomomorphismError(PreconditionError):
    pass


class ConstraintError(PreconditionError):
    """An arithmetic side condition failed; the message reports both sides."""


class CapExceededError(SfwError):
    """A configured resource cap (group order, k, oracle size) was exceeded."""

    exit_code = 4


class InvariantViolationError(SfwError):
    """Internal cross-check failed.  Indicates a bug, not bad input."""

"""Exception hierarchy shared across the package.

Each class carries the CLI exit code it maps onto: ParseError 2,
PreconditionError and its subclasses 3, CapExceededError 4, and every
other SfwError 1.  Every cap is met by CapExceededError, and verify
makes one met inside a case that case's skip.  Every check raises at
its first failure; none returns a verdict.  InvariantViolationError
signals a broken internal consistency check and is never expected to
fire; the exact checks of a character table (orthogonality mod p, the
squared degrees, the eigenvalue multiplicities) raise it, and so do the
cocycle, crossed-product and wreath-like checks, with the failing point
as its witness.  No input names an automorphism by a map, so no class
refuses one: `extend` picks outer classes of the automorphism group
that automorphisms.automorphism_group found.
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


class ConstraintError(PreconditionError):
    """An arithmetic side condition failed; the message reports both sides."""


class CapExceededError(SfwError):
    """"<measure> <value> is over <field>=<cap>, set by --<flag>".

    value is left out where it is unknown.  field is the Config field of
    the cap, or None for a limit fixed in the code, "over the fixed limit
    <cap>".  limit is the message from "over" on.
    """

    exit_code = 4

    def __init__(self, measure: str, value, cap: int, field: str = None):
        self.field = field
        self.limit = ("over the fixed limit %d" % cap if field is None else
                      "over %s=%d, set by --%s"
                      % (field, cap, field.replace("_", "-")))
        shown = measure if value is None else "%s %s" % (measure, value)
        super().__init__("%s is %s" % (shown, self.limit))


class InvariantViolationError(SfwError):
    """Internal cross-check failed.  Indicates a bug, not bad input.

    witness, when given, is the point where the check failed; the
    message ends with it.
    """

    def __init__(self, message: str, witness=None):
        if witness is not None:
            message = "%s at %r" % (message, witness)
        super().__init__(message)
        self.witness = witness

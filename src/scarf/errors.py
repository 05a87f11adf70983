"""Exception taxonomy shared across the package.

Exit codes used by the CLI: 2 malformed input, 3 positivity violation,
4 genericity required but absent, 5 internal invariant failure, 6 search
depth limit reached before a star or quotient certified itself complete,
or no depth can certify it.
"""


class ScarfError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InputError(ScarfError, ValueError):
    """Malformed input data or an unmet operation precondition."""

    exit_code = 2


class RadiusError(InputError):
    """A truncation oracle was given a witness radius too small to be exact."""


class PositivityError(ScarfError):
    """The lattice meets the nonnegative orthant in a nonzero point."""

    exit_code = 3

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class GenericityError(ScarfError):
    """A genericity-requiring construction received a non-generic input."""

    exit_code = 4

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CertificationError(ScarfError):
    """Depth doubling reached its limit before the result certified itself, or no depth can.

    Not a bug: report is the CompletenessReport of the last depth tried, or
    None when no depth was tried, as when the star was shown to have faces
    of every dimension before the search began.
    """

    exit_code = 6

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InternalError(ScarfError):
    """An internal invariant failed; indicates a bug, not bad input."""

    exit_code = 5

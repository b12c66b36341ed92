"""Shared exception types, mapped to CLI exit codes by normspace.cli."""


# what reading a malformed outside document raises: every reader of JSON
# input turns exactly these into a UsageError
MALFORMED = (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError,
             OverflowError, RecursionError)


class NormspaceError(Exception):
    """Base class for all library errors."""


class UsageError(NormspaceError):
    """Bad input: dimension/context mismatch, unparsable data, invalid value."""


class InfeasibleScaleError(NormspaceError):
    """Requested instance exceeds the documented enumeration envelope."""


class PairwiseRadiusError(NormspaceError):
    """A ball family violates the pairwise compatibility d(x_s, x_t) <= r_s + r_t."""

    def __init__(self, pair, gap, message=None):
        self.pair = pair
        self.gap = gap
        super().__init__(
            message
            or f"balls {pair[0]} and {pair[1]} do not intersect: gap {gap}"
        )

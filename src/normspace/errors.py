"""Shared exception types, mapped to CLI exit codes by normspace.cli, and
the base of the immutable classes."""


# what reading a malformed outside document raises: every reader of JSON
# input turns exactly these into a UsageError, through `malformed`
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


class Frozen:
    """Base of the immutable classes: their slots are set through `_set`."""

    __slots__ = ()

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


def malformed(what, exc):
    """The UsageError for an outside document whose reading raised exc."""
    missing = isinstance(exc, KeyError)
    return UsageError(f"{what}: missing key {exc.args[0]!r}" if missing
                      else f"{what}: {type(exc).__name__}: {exc}")

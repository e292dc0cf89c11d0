"""Exception types shared across the package."""


class GasketError(Exception):
    """Base class for all library errors."""


class NonConsecutiveError(GasketError):
    """Edge sequence is not a path: edge ``index`` does not start where its
    predecessor ends."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"edge {index} is not consecutive with its predecessor")


class ExactnessUnavailableError(GasketError):
    """Exact mode was requested for data that is not piecewise-harmonic."""


class NonConvergentError(GasketError):
    """A certified evaluation could not reach the requested tolerance."""


class NotComparableError(GasketError):
    """Matrix entry requested for words that are not prefix-comparable."""


class NonIntegerResultError(GasketError):
    """A quantity that must be an integer came out fractional (internal bug)."""


class DepthTooSmallError(GasketError):
    """A requested depth is below what the input needs."""

"""Exception types shared across the package."""


class TripleLabError(Exception):
    """Base class for all triple-lab errors."""


class InvalidInput(TripleLabError):
    """Malformed numerical input: non-finite entries, bad shapes, bad arguments."""


class InvalidSpec(TripleLabError):
    """A factor specification with inconsistent kind or dimensions."""


class SystemMismatch(TripleLabError):
    """Elements or maps from different triple systems were combined."""


class NotTripotent(TripleLabError):
    """An operation requiring a tripotent was called on a non-tripotent."""


class NoConvergence(TripleLabError):
    """An iterative solver did not reach its tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class NoSpectralGap(TripleLabError):
    """A numerical rank decision found a value within 10x of its cutoff."""


class Unsupported(TripleLabError):
    """The requested computation is not defined for this system."""


class TooLarge(InvalidInput):
    """The system dimension exceeds the supported cap."""


class EmptySpec(TripleLabError):
    """An operation requiring at least one summand received none."""

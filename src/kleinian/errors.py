"""Exception types shared across the package."""


class KleinianError(Exception):
    """Base class for all package errors."""


class DiscsOverlap(KleinianError):
    """Two discs that must be disjoint have intersecting closures."""


class EnlargedDiscsOverlap(DiscsOverlap):
    """Enlarged discs requested for a contraction bound are not disjoint."""


class NumericallyAmbiguous(KleinianError):
    """A classification discriminant is too close to the parabolic threshold."""


class BudgetExceeded(KleinianError):
    """The enumeration node budget was exhausted.

    Carries the partial progress so callers can keep what was computed.
    """

    def __init__(self, message: str, *, words_generated: int = 0,
                 depth_completed: int = -1):
        super().__init__(message)
        self.words_generated = words_generated
        self.depth_completed = depth_completed


class InconclusiveBracket(KleinianError):
    """Bisection endpoints did not show the required convergence/divergence evidence."""


class TargetNotInDomainClosure(KleinianError):
    """A boundary target lies inside an open generator disc."""


class InvalidSeparation(KleinianError):
    """A separation schedule value is below the admissible minimum of 2."""


class PlacementInfeasible(KleinianError):
    """The disc placement policy cannot fit the requested generator pairs."""


class ConfigError(KleinianError):
    """A run configuration document is malformed."""

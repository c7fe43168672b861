"""Structured exceptions shared across the package."""


class AscontrolError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(AscontrolError):
    """A state, table, or index does not match the owning ModelSpec."""


class EnumerationBudgetError(AscontrolError):
    """A dense or exhaustive computation would exceed its ceiling."""

    def __init__(self, message, required=None, allowed=None):
        super().__init__(message)
        self.required = required
        self.allowed = allowed


class ImpossibleObservationError(AscontrolError):
    """An observation sequence has zero marginal probability."""


class DegenerateSupportError(AscontrolError):
    """A transition row has no remaining support after reweighting."""


class DegenerateWeightsError(AscontrolError):
    """Every Monte Carlo rollout carries zero importance weight."""


class NonFiniteObjectiveError(AscontrolError):
    """Training hit a non-finite objective or gradient."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class NonUniqueStationaryError(AscontrolError):
    """A chain has more than one recurrent class, so no unique stationary
    distribution."""


class ConvergenceError(AscontrolError):
    """An iterative solver exhausted its iteration budget."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual

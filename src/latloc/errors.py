"""Exception hierarchy shared by all latloc modules."""


class LatlocError(Exception):
    """Base class for all errors raised by this package."""


class TopologyError(LatlocError):
    """Invalid topology input: parse failure, dangling edge, disconnected graph."""


class PlacementError(LatlocError):
    """Invalid landmark placement request (e.g. k out of range)."""


class DegenerateCirclesError(LatlocError):
    """Two circles share a center and radius within tolerance: infinitely many
    intersections."""


class ModelDomainError(LatlocError):
    """Latency outside the domain of the fitted distance curve."""


class FitError(LatlocError):
    """Curve fit failed: too few samples, degenerate data, or no convergence."""


class InsufficientDataError(FitError):
    """A landmark lacks the calibration measurements needed for a fit."""


class LaterationError(LatlocError):
    """Not enough usable circles to laterate."""


class EstimationError(LatlocError):
    """Location estimation failed (e.g. empty candidate cloud)."""


class SimulationError(LatlocError):
    """Simulator could not satisfy the request (e.g. unreachable endpoint)."""


class UsageError(LatlocError):
    """Bad command-line arguments or configuration."""

"""Exception types shared across the solver modules."""


class SolverError(RuntimeError):
    """Base class for numerical-failure exceptions raised by iterative solvers.

    `report` is the partial run record when the raiser has one; every
    SolverError that fixed_point.solve() raises carries its SolveReport.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConvergenceError(SolverError):
    """An iteration hit its iteration cap without meeting its tolerance."""


class CollapseError(SolverError):
    """An iterate decayed to (numerical) zero; the trivial solution was reached."""


class ContractionError(SolverError):
    """A fixed-point iterate left the contraction ball (divergence)."""


class StagnationError(SolverError):
    """Krylov residual stopped decreasing; operator is (near-)singular."""


class SymmetryError(ValueError):
    """A field violated a realness/radial-symmetry requirement."""


class DomainOverflowError(ValueError):
    """Requested resampling needs points outside the source periodic cell."""


class ConfigError(ValueError):
    """A run configuration file is malformed or contains unknown keys."""

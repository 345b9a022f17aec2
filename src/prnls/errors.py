"""Exception types shared across the solver modules."""


class SolverError(RuntimeError):
    """Base class for numerical-failure exceptions raised by iterative solvers."""


class ConvergenceError(SolverError):
    """An iteration hit its cap, or stalled, without meeting its tolerance."""


class CollapseError(SolverError):
    """An iterate decayed to (numerical) zero; the trivial solution was reached."""


class ConfigError(ValueError):
    """A run configuration file is malformed or contains unknown keys."""

"""Physical and reduced parameter sets, and the scaling between them.

The solver works on the reduced equation (mass 1/2, frequency 1); a solution
of the full three-parameter problem is recovered by an amplitude factor and a
coordinate dilation. All validation is fail-fast at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spectral import Field, Grid, resample


def _validate_common(n: int, p: float):
    if n not in (1, 2, 3):
        raise ValueError(f"dimension n must be 1, 2 or 3, got {n}")
    if not (p > 1 and math.isfinite(p)):
        raise ValueError(f"nonlinearity exponent p must satisfy p > 1, got {p}")


@dataclass(frozen=True)
class ToleranceSet:
    """Stopping tolerances of the solver stack; the one place their defaults live.

    tol_gs: Petviashvili sup-norm step; tol_lin: relative residual of each
    linearized solve; tol_step: Picard step in the intersection norm;
    tol_residual: L^2 residual a converged u_c must meet.
    """

    tol_gs: float = 1e-12
    tol_lin: float = 1e-10
    tol_step: float = 1e-10
    tol_residual: float = 1e-8


class _Exponents:
    """Critical exponents of (n, p), shared by both parameter sets."""

    @property
    def critical_sobolev(self) -> float:
        """H^1-critical exponent (n+2)/(n-2); inf for n <= 2."""
        return (self.n + 2) / (self.n - 2) if self.n >= 3 else math.inf

    @property
    def critical_half(self) -> float:
        """H^{1/2}-critical exponent (n+1)/(n-1); inf for n = 1."""
        return (self.n + 1) / (self.n - 1) if self.n >= 2 else math.inf

    @property
    def subcritical_for_construction(self) -> bool:
        return self.p < self.critical_sobolev


@dataclass(frozen=True)
class PhysicalParams(_Exponents):
    """Parameters of the full equation: dimension, exponent, mass, frequency, speed."""

    n: int
    p: float
    m: float
    mu: float
    c: float

    def __post_init__(self):
        _validate_common(self.n, self.p)
        for name in ("m", "mu"):
            val = getattr(self, name)
            if not (0 < val < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {val}")
        if not (self.c > 0):
            raise ValueError(f"c must be positive, got {self.c}")


@dataclass(frozen=True)
class ReducedParams(_Exponents):
    """Parameters of the reduced equation (m = 1/2, mu = 1): dimension, exponent, speed."""

    n: int
    p: float
    c_tilde: float

    def __post_init__(self):
        _validate_common(self.n, self.p)
        if not (self.c_tilde > 0):
            raise ValueError(f"c_tilde must be positive, got {self.c_tilde}")


def reduce_params(params: PhysicalParams) -> ReducedParams:
    """Map (m, mu, c) to the equivalent reduced speed c_tilde = c sqrt(mu / (2 m)).

    A finite c whose c_tilde underflows to 0 or overflows raises ValueError.
    """
    c_tilde = params.c * math.sqrt(params.mu / (2.0 * params.m))
    if math.isfinite(params.c) and not (0 < c_tilde < math.inf):
        raise ValueError(f"c = {params.c!r}, m = {params.m!r}, mu = {params.mu!r} give "
                         f"c_tilde = {c_tilde!r}; it must be positive and finite")
    return ReducedParams(params.n, params.p, c_tilde)


def lift_solution(v: Field, params: PhysicalParams, target: Grid) -> Field:
    """Undo the reduction: u(x) = mu^{1/(p-1)} v(sqrt(2 m mu) x) on the target grid.

    v is the reduced solution on its even block, as solve returns it, and so
    is the result, on target.even (write_field writes its lift). v is
    evaluated by trigonometric interpolation at the rescaled coordinates
    (resample); a DomainOverflowError is raised if the rescaled target box
    does not fit inside v's periodic cell, and a ValueError for a full-grid v.
    """
    if target.n != v.grid.n or target.n != params.n:
        raise ValueError("dimension mismatch between solution, parameters and target grid")
    amplitude = params.mu ** (1.0 / (params.p - 1.0))
    scale = math.sqrt(2.0 * params.m * params.mu)
    return amplitude * resample(v, target, scale=scale)

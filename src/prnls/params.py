"""Physical and reduced parameter sets, and the scaling between them.

The solver works on the reduced equation (mass 1/2, frequency 1); a solution
of the full three-parameter problem is recovered by an amplitude factor and a
coordinate dilation. All validation is fail-fast at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spectral import Field, Grid


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


@dataclass(frozen=True)
class PhysicalParams:
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
class ReducedParams:
    """Parameters of the reduced equation (m = 1/2, mu = 1): dimension, exponent, speed."""

    n: int
    p: float
    c_tilde: float

    def __post_init__(self):
        _validate_common(self.n, self.p)
        if not (self.c_tilde > 0):
            raise ValueError(f"c_tilde must be positive, got {self.c_tilde}")

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


def reduce_params(params: PhysicalParams) -> ReducedParams:
    """Map (m, mu, c) to the equivalent reduced speed c_tilde = c sqrt(2 m / mu).

    Dividing the physical equation by mu matches P_c's quartic-to-quadratic
    ratio when 1/c_tilde^2 = mu / (2 m c^2). A finite c whose c_tilde
    underflows to 0 or overflows raises ValueError.
    """
    c_tilde = params.c * math.sqrt(2.0 * params.m / params.mu)
    if math.isfinite(params.c) and not (0 < c_tilde < math.inf):
        raise ValueError(f"c = {params.c!r}, m = {params.m!r}, mu = {params.mu!r} give "
                         f"c_tilde = {c_tilde!r}; it must be positive and finite")
    return ReducedParams(params.n, params.p, c_tilde)


def physical_frame(grid: Grid, params: PhysicalParams) -> tuple[Grid, float]:
    """The grid and amplitude of the physical frame of a reduced field on grid.

    u(x) = mu^{1/(p-1)} v(sqrt(2 m mu) x) sends point j of
    Grid(n, N, L / sqrt(2 m mu)) to point j of grid, so the lift is a
    relabeling of the lattice times the amplitude mu^{1/(p-1)}. A grid or an
    amplitude outside float64 raises ValueError.
    """
    scale = math.sqrt(2.0 * params.m * params.mu)
    try:
        target = Grid(grid.n, grid.N, grid.L / scale if scale > 0.0 else math.inf)
    except ValueError as exc:
        raise ValueError(f"physical lift grid: {exc}") from exc
    try:
        amplitude = params.mu ** (1.0 / (params.p - 1.0))
    except OverflowError:
        amplitude = math.inf
    if not 0.0 < amplitude < math.inf:
        raise ValueError(f"physical lift amplitude mu^(1/(p-1)) = {amplitude!r} at "
                         f"mu = {params.mu!r}, p = {params.p!r} must be a positive finite float")
    return target, amplitude


def lift_solution(v: Field, params: PhysicalParams) -> Field:
    """Undo the reduction: u(x) = mu^{1/(p-1)} v(sqrt(2 m mu) x), on physical_frame's grid.

    v is the reduced solution on its even block, as solve returns it, and so
    is the result (write_field writes its lift): v's block values times the
    amplitude, with no interpolation. A full-grid v raises ValueError.
    """
    if isinstance(v.grid, Grid):
        raise ValueError("lift_solution takes an even-block field; "
                         "EvenBlock.restrict takes a full-grid field there")
    if v.grid.n != params.n:
        raise ValueError("dimension mismatch between solution and parameters")
    target, amplitude = physical_frame(v.grid.grid, params)
    return Field(target.even, amplitude * v.values)

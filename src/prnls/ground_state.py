"""Ground state of the non-relativistic limit equation -Laplace(u) + u = u^p.

Solved by the Petviashvili spectral renormalization iteration

    u_{k+1} = M_k^gamma * P_inf(D)^{-1} (u_k^p),    gamma = p / (p - 1),
    M_k     = <P_inf(D) u_k, u_k> / <u_k^p, u_k>,

with radial symmetrization after every step. The normalization factor M_k
converges to 1 exactly when the iterates converge to a solution. Negative
values of an iterate (transients of the first few steps) are clamped to zero
before taking fractional powers; the clamp count is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollapseError, ConvergenceError
from .params import ReducedParams, ToleranceSet
from .spectral import (Field, Grid, gradient, half_spectrum_apply, norm_lq, signed_power,
                       symmetrize_radial)

_COLLAPSE_FLOOR = 1e-10
_BLOWUP_CEILING = 1e12


@dataclass(frozen=True)
class GroundState:
    """Converged limit-equation ground state and its solve metadata."""

    u: Field
    p: float
    residual: float
    iterations: int
    final_factor: float
    negative_clamps: int

    @property
    def grid(self) -> Grid:
        return self.u.grid


def _clamped_power(values: np.ndarray, p: float):
    neg = int(np.sum(values < 0.0))
    return np.maximum(values, 0.0) ** p, neg


def initial_gaussian(grid: Grid, p: float, width: float = 1.0) -> Field:
    """Gaussian seed A exp(-|x|^2 / (2 width^2)) with unit Nehari quotient.

    A solves (||grad g||^2 + ||g||^2) / ||g||_{p+1}^{p+1} = 1 for g = A * shape,
    which puts the seed on the correct amplitude scale for any (n, p).
    """
    shape = Field(grid, np.exp(-grid.radius_sq / (2.0 * width * width)))
    quad = sum(norm_lq(d, 2) ** 2 for d in gradient(shape)) + norm_lq(shape, 2) ** 2
    source = norm_lq(shape, p + 1.0) ** (p + 1.0)
    return float((quad / source) ** (1.0 / (p - 1.0))) * shape


def limit_residual(u: Field, p: float) -> float:
    """Discrete L^2 residual ||P_inf(D) u - sign(u)|u|^p||_2."""
    grid = u.grid
    pu = half_spectrum_apply(grid, u.values, grid.xi_sq_half + 1.0)
    return norm_lq(Field(grid, pu - signed_power(u.values, p)), 2)


def solve_limit_equation(rp: ReducedParams, grid: Grid, tol: float = ToleranceSet.tol_gs,
                         max_iter: int = 2000, init_width: float = 1.0,
                         allow_supercritical: bool = False) -> GroundState:
    """Run the Petviashvili iteration to the discrete ground state.

    Stops when the sup-norm step is below tol and the equation residual is
    below 10 tol. Raises CollapseError if the iterate decays to numerical
    zero, ConvergenceError on blow-up or when max_iter is exhausted.
    """
    if grid.n != rp.n:
        raise ValueError(f"grid dimension {grid.n} does not match parameters (n={rp.n})")
    if not (rp.subcritical_for_construction or allow_supercritical):
        raise ValueError(
            f"p={rp.p} is not subcritical for construction at n={rp.n}; "
            "pass allow_supercritical=True to probe anyway")

    p = rp.p
    gamma = p / (p - 1.0)
    pinf_half = grid.xi_sq_half + 1.0
    vol = grid.cell_volume

    u = symmetrize_radial(initial_gaussian(grid, p, init_width)).values
    clamps = 0
    factor = np.nan
    for k in range(1, max_iter + 1):
        up, neg = _clamped_power(u, p)
        clamps += neg
        pu = half_spectrum_apply(grid, u, pinf_half)
        num = vol * float(np.sum(pu * u))
        den = vol * float(np.sum(up * u))
        if den <= 0.0:
            raise CollapseError(f"petviashvili source term vanished at iteration {k}")
        factor = num / den
        unew = factor ** gamma * half_spectrum_apply(grid, up, 1.0 / pinf_half)
        unew = symmetrize_radial(Field(grid, unew)).values

        amp = float(np.max(np.abs(unew)))
        if amp < _COLLAPSE_FLOOR:
            raise CollapseError(f"petviashvili iterate collapsed to zero at iteration {k}")
        if amp > _BLOWUP_CEILING or not np.isfinite(amp):
            raise ConvergenceError(f"petviashvili iterate diverged at iteration {k}")

        step = float(np.max(np.abs(unew - u)))
        u = unew
        if step < tol:
            field = Field(grid, u)
            res = limit_residual(field, p)
            if res < 10.0 * tol:
                return GroundState(field, p, res, k, factor, clamps)

    raise ConvergenceError(
        f"petviashvili iteration did not meet tol={tol:g} within {max_iter} steps")


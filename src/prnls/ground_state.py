"""Ground state of the non-relativistic limit equation -Laplace(u) + u = u^p.

Solved by the Petviashvili spectral renormalization iteration

    u_{k+1} = M_k^gamma * P_inf(D)^{-1} (u_k^p),    gamma = p / (p - 1),
    M_k     = <P_inf(D) u_k, u_k> / <u_k^p, u_k>,

with radial symmetrization after every step. The iterates are radial, so the
seed is built, the iteration runs and its residual is checked on the grid's
even block (see spectral), and the ground state is the block iterate, u_even;
only a field dump lifts it to the full grid. M_k converges to 1
exactly when the iterates converge to a solution. Each step takes one
transform pair, for P_inf(D)^{-1}: P_inf(D) u_{k+1} = M_k^gamma u_k^p is
exact, since the radial projection commutes with P_inf(D) and leaves the
radial u_k^p unchanged, so M_{k+1}'s numerator needs no transform of its
own; only P_inf(D) u_0 is transformed, once. Negative values of an
iterate are clamped to zero before taking fractional powers; negative_clamps
counts, in full-grid points, every negative point of every step: early
transients and rounding-level negatives in the decayed tail alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollapseError, ConvergenceError
from .params import ReducedParams, ToleranceSet
from .spectral import (Field, Grid, half_spectrum_apply, half_spectrum_multiplier, norm_h1,
                       norm_lq, signed_power, symmetrize_radial)
from .symbols import p_c

_COLLAPSE_FLOOR = 1e-10
_BLOWUP_CEILING = 1e12
_MAX_PETVIASHVILI = 2000
_RESIDUAL_STALL = 0.999  # a settled iterate "improves" if it beats the last residual by 0.1%


@dataclass(frozen=True)
class GroundState:
    """Converged limit-equation ground state and its solve metadata."""

    u_even: Field  # the ground state on the even block of its grid
    p: float
    residual: float
    iterations: int
    final_factor: float
    negative_clamps: int

    @property
    def grid(self) -> Grid:
        return self.u_even.grid.grid


def initial_gaussian(grid: Grid, p: float, width: float = 1.0) -> Field:
    """Gaussian seed A exp(-|x|^2 / (2 width^2)) with unit Nehari quotient, on grid's even block.

    A solves ||g||_{H^1}^2 / ||g||_{p+1}^{p+1} = 1 for g = A * shape, which
    puts the seed on the correct amplitude scale for any (n, p).
    """
    block = grid.even
    shape = Field(block, np.exp(-block.radius_sq / (2.0 * width * width)))
    quad = norm_h1(shape) ** 2
    source = norm_lq(shape, p + 1.0) ** (p + 1.0)
    return float((quad / source) ** (1.0 / (p - 1.0))) * shape


def limit_residual(u: Field, p: float, c: float = np.inf) -> float:
    """Discrete L^2 residual ||P_c(D) u - sign(u)|u|^p||_2, on a Grid or an EvenBlock.

    The default c = inf, where P_inf(D) = -Laplace + 1, is the limit equation.
    """
    grid = u.grid
    pu = half_spectrum_apply(grid, u.values, half_spectrum_multiplier(grid, p_c(c)))
    return norm_lq(Field(grid, pu - signed_power(u.values, p)), 2)


def solve_limit_equation(rp: ReducedParams, grid: Grid, tol: float = ToleranceSet.tol_gs,
                         allow_supercritical: bool = False) -> GroundState:
    """Run the Petviashvili iteration from initial_gaussian to the discrete ground state.

    Stops when the sup-norm step is below tol and the equation residual is
    below 10 tol. Once the step is below tol, the residual of each such
    iterate must also fall by the factor _RESIDUAL_STALL: on an
    under-resolved grid the clamped map max(u, 0)^p has a fixed point that
    solves no equation, where the residual stalls, and ConvergenceError is
    raised there. Raises CollapseError if the iterate decays to numerical
    zero, ConvergenceError on blow-up or after _MAX_PETVIASHVILI steps.
    """
    if grid.n != rp.n:
        raise ValueError(f"grid dimension {grid.n} does not match parameters (n={rp.n})")
    if not (rp.subcritical_for_construction or allow_supercritical):
        raise ValueError(
            f"p={rp.p} is not subcritical for construction at n={rp.n}; "
            "pass allow_supercritical=True to probe anyway")

    p = rp.p
    gamma = p / (p - 1.0)
    block = grid.even
    pinf = block.xi_sq + 1.0
    vol = grid.cell_volume

    u = symmetrize_radial(initial_gaussian(grid, p)).values
    pu = half_spectrum_apply(block, u, pinf)
    clamps = 0
    factor = np.nan
    last_res = np.inf
    for k in range(1, _MAX_PETVIASHVILI + 1):
        up = np.maximum(u, 0.0) ** p
        clamps += int(block.lattice_sum(u < 0.0))
        num = vol * block.lattice_sum(pu * u)
        den = vol * block.lattice_sum(up * u)
        if den <= 0.0:
            raise CollapseError(f"petviashvili source term vanished at iteration {k}")
        factor = num / den
        unew = factor ** gamma * half_spectrum_apply(block, up, 1.0 / pinf)
        unew = symmetrize_radial(Field(block, unew)).values

        amp = float(np.max(np.abs(unew)))
        if amp < _COLLAPSE_FLOOR:
            raise CollapseError(f"petviashvili iterate collapsed to zero at iteration {k}")
        if amp > _BLOWUP_CEILING or not np.isfinite(amp):
            raise ConvergenceError(f"petviashvili iterate diverged at iteration {k}")

        step = float(np.max(np.abs(unew - u)))
        u = unew
        pu = factor ** gamma * up  # P_inf(D) u_{k+1}, exact but for the transforms' rounding
        if step < tol:
            u_even = Field(block, u)
            res = limit_residual(u_even, p)
            if res < 10.0 * tol:
                return GroundState(u_even, p, res, k, factor, clamps)
            if res > _RESIDUAL_STALL * last_res:
                raise ConvergenceError(
                    f"petviashvili iteration settled at iteration {k} on a fixed point that "
                    f"is no solution: residual {res:.3e} stalled above {10.0 * tol:g} after "
                    f"{clamps} negative clamps, at grid spacing h={grid.h:.3g}")
            last_res = res

    raise ConvergenceError(
        f"petviashvili iteration did not meet tol={tol:g} within {_MAX_PETVIASHVILI} steps")


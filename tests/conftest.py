"""Shared fixtures: the expensive ground states and solve sweeps are built once
per session and reused by both the unit tests and the acceptance suite."""

import time

import numpy as np
import pytest

from prnls.ground_state import solve_limit_equation
from prnls.params import ReducedParams
from prnls.spectral import Field, Grid
from prnls import fixed_point

C5_LADDER = (8.0, 16.0, 32.0, 64.0)


def coords(grid) -> tuple:
    """Broadcastable full-grid coordinate arrays, one per axis (open meshgrid)."""
    return tuple(np.reshape(grid.axis_coords, [-1 if b == a else 1 for b in range(grid.n)])
                 for a in range(grid.n))


def radius_sq(grid) -> np.ndarray:
    """|x|^2 on the full grid."""
    out = np.zeros(grid.shape)
    for c in coords(grid):
        out = out + c * c
    return out


def sample_field(grid, fn) -> Field:
    """Sample fn(x1, ..., xn) on the full grid (fn must broadcast)."""
    return Field(grid, np.broadcast_to(fn(*coords(grid)), grid.shape).astype(np.float64).copy())


@pytest.fixture(scope="session")
def grid2d():
    return Grid(2, 256, 20.0)


@pytest.fixture(scope="session")
def gs2d(grid2d):
    return solve_limit_equation(ReducedParams(2, 3.0, 8.0), grid2d, tol=1e-12)


@pytest.fixture(scope="session")
def grid2d_small():
    return Grid(2, 128, 20.0)


@pytest.fixture(scope="session")
def gs2d_small(grid2d_small):
    return solve_limit_equation(ReducedParams(2, 3.0, 8.0), grid2d_small, tol=1e-12)


@pytest.fixture(scope="session")
def gs1d():
    return solve_limit_equation(
        ReducedParams(1, 3.0, 8.0), Grid(1, 1024, 20.0 * np.pi), tol=1e-12)


@pytest.fixture(scope="session")
def grid3d():
    return Grid(3, 64, 15.0)


@pytest.fixture(scope="session")
def gs3d(grid3d):
    return solve_limit_equation(ReducedParams(3, 1.8, 8.0), grid3d, tol=1e-12)


@pytest.fixture(scope="session")
def uc16_small(grid2d_small, gs2d_small):
    """Baseline converged solution at (n=2, p=3, c=16) on the small grid."""
    return fixed_point.solve(ReducedParams(2, 3.0, 16.0), grid2d_small, gs=gs2d_small)


@pytest.fixture(scope="session")
def c5_runs(grid2d, gs2d):
    """The production-resolution existence sweep shared by criteria 5-7."""
    t0 = time.perf_counter()
    runs = {}
    for c in C5_LADDER:
        u_c, rep = fixed_point.solve(ReducedParams(2, 3.0, c), grid2d, gs=gs2d)
        runs[c] = (u_c, rep)
    return {"elapsed": time.perf_counter() - t0, "runs": runs}

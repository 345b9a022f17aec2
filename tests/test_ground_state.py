import math

import numpy as np
import pytest
from scipy.integrate import quad

from prnls import ground_state
from prnls.errors import ConvergenceError
from prnls.ground_state import initial_gaussian, limit_residual, solve_limit_equation
from prnls.params import ReducedParams
from prnls.spectral import (Field, Grid, gradient, norm_h1, norm_lq, plancherel_sum,
                            symmetrize_radial)

from conftest import radius_sq
from fft_reference import full_grid_gaussian


def norm_hs(f, s):
    """Sobolev H^s norm via the (1 + |xi|^2)^s multiplier."""
    return math.sqrt(plancherel_sum(f, lambda r2: (1.0 + r2) ** s))


def regularity_report(gs, s_values=(1.0, 2.0, 3.0, 4.0)):
    """Sobolev norms ||u||_{H^s} of the ground state for each requested s."""
    return {float(s): norm_hs(gs.u, float(s)) for s in s_values}


def _closed_form_soliton(x, p):
    # the one-dimensional solitary wave ((p+1)/2)^{1/(p-1)} sech^{2/(p-1)}((p-1) x / 2)
    amp = ((p + 1.0) / 2.0) ** (1.0 / (p - 1.0))
    return amp * np.cosh((p - 1.0) * x / 2.0) ** (-2.0 / (p - 1.0))


def test_1d_cubic_matches_sqrt2_sech(gs1d):
    x = gs1d.grid.axis_coords
    exact = math.sqrt(2) * (1.0 / np.cosh(x))
    assert np.max(np.abs(gs1d.u.values - exact)) < 1e-6
    center = gs1d.u.values[gs1d.grid.N // 2]
    assert center == pytest.approx(1.4142136, abs=1e-6)


def test_1d_quadratic_matches_sech_squared():
    grid = Grid(1, 1024, 20.0 * np.pi)
    gs = solve_limit_equation(ReducedParams(1, 2.0, 8.0), grid, tol=1e-12)
    exact = _closed_form_soliton(grid.axis_coords, 2.0)
    assert np.max(np.abs(gs.u.values - exact)) < 1e-6
    assert gs.u.values[grid.N // 2] == pytest.approx(1.5, abs=1e-6)


def test_closed_form_family_satisfies_limit_equation():
    # substitute the sech profile into -u'' + u = u^p on a fine grid
    grid = Grid(1, 2048, 20.0 * np.pi)
    for p in (2.0, 3.0):
        u = Field(grid, _closed_form_soliton(grid.axis_coords, p))
        assert limit_residual(u, p) < 1e-7


def test_petviashvili_factor_converges_to_one(gs1d):
    assert abs(gs1d.final_factor - 1.0) < 1e-11


def test_residual_definition_consistent(gs1d):
    assert gs1d.residual == pytest.approx(limit_residual(gs1d.u, 3.0), rel=1e-12)
    assert gs1d.residual <= 1e-11


def test_positive_everywhere(gs1d, gs2d_small):
    # strict positivity where the solution lives; the far field of the final
    # iterate carries ~1e-7 spectral ringing around zero, so the global
    # statement is "no visible negative mass"
    for gs in (gs1d, gs2d_small):
        peak = np.max(gs.u.values)
        bulk = radius_sq(gs.grid) <= (gs.grid.L / 3.0) ** 2
        assert np.all(gs.u.values[bulk] > 0.0)
        assert np.min(gs.u.values) >= -1e-6 * peak


def test_radially_invariant(gs2d_small):
    s = symmetrize_radial(gs2d_small.u)
    assert np.max(np.abs(s.values - gs2d_small.u.values)) < 1e-10


def test_nehari_identity(gs2d_small):
    u = gs2d_small.u
    lhs = sum(norm_lq(d, 2) ** 2 for d in gradient(u)) + norm_lq(u, 2) ** 2
    rhs = norm_lq(u, 4.0) ** 4
    # rel 1e-6 rather than solver tolerance: the two sides are discretized
    # differently (spectral derivative vs pointwise power), so they agree only
    # up to the N = 128 quadrature error (~1e-8 relative here)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_boundary_decay(gs1d, gs2d_small):
    # the wave decays like e^{-r}, so on the 2D box (L = 20) the r >= L/2
    # shell still holds ~e^{-10} ~ 5e-5 of genuine amplitude; only the outer
    # shell is below 1e-6 of the peak
    for gs in (gs1d, gs2d_small):
        grid = gs.grid
        shell = radius_sq(grid) >= (0.9 * grid.L) ** 2
        peak = np.max(gs.u.values)
        assert np.max(gs.u.values[shell]) < 1e-6 * peak


def test_monotone_along_axes(gs2d_small):
    # non-strict decrease moving outward from the center along each axis,
    # checked down to 1e-6 of the peak; past that the profile is buried in
    # ~1e-7 spectral ringing
    N = gs2d_small.grid.N
    vals = gs2d_small.u.values
    peak = np.max(vals)
    for line in (vals[N // 2, N // 2:], vals[N // 2:, N // 2]):
        above = line >= 1e-6 * peak
        assert np.count_nonzero(above) >= N // 4
        core = line[above]
        assert np.all(np.diff(core) <= 1e-12)


def test_uniqueness_across_seed_widths(monkeypatch):
    grid = Grid(1, 1024, 20.0 * np.pi)
    rp = ReducedParams(1, 3.0, 8.0)
    solutions = []
    for w in (0.5, 1.0, 2.0):
        monkeypatch.setattr(ground_state, "initial_gaussian",
                            lambda g, p, w=w: initial_gaussian(g, p, width=w))
        solutions.append(solve_limit_equation(rp, grid, tol=1e-12).u.values)
    for other in solutions[1:]:
        assert np.max(np.abs(other - solutions[0])) < 1e-8


def test_initial_gaussian_has_unit_nehari_quotient():
    grid = Grid(2, 64, 20.0)
    g = initial_gaussian(grid, 3.0, width=1.0)
    assert g.grid == grid.even
    assert norm_h1(g) ** 2 == pytest.approx(norm_lq(g, 4.0) ** 4, rel=1e-12)


@pytest.mark.parametrize("name", ["gs3d", "gs2d", "gs2d_small"])
def test_block_seed_gives_the_full_grid_seeds_ground_state(name, request, monkeypatch):
    # on the three benchmark grids (3-D 64^3, 2-D 256^2 and 128^2) the block
    # seed and the ground state it leads to are bit-identical to those of the
    # full-grid seed, restricted as solve_limit_equation once took it
    gs = request.getfixturevalue(name)
    grid, p = gs.grid, gs.p
    oracle = grid.even.restrict(full_grid_gaussian(grid, p))
    assert np.array_equal(symmetrize_radial(initial_gaussian(grid, p)).values,
                          symmetrize_radial(oracle).values)
    monkeypatch.setattr(ground_state, "initial_gaussian", lambda g, p: oracle)
    ref = solve_limit_equation(ReducedParams(grid.n, p, 8.0), grid, tol=1e-12)
    assert np.array_equal(gs.u.values, ref.u.values)
    assert (gs.iterations, gs.residual) == (ref.iterations, ref.residual)


def test_regularity_report(gs1d):
    table = regularity_report(gs1d)
    assert set(table) == {1.0, 2.0, 3.0, 4.0}
    values = [table[s] for s in (1.0, 2.0, 3.0, 4.0)]
    assert all(math.isfinite(v) and v > 0 for v in values)
    assert values == sorted(values)  # multiplier grows with s

    # H^0 consistency between the multiplier route and the plain L^2 norm
    assert norm_hs(gs1d.u, 0.0) == pytest.approx(norm_lq(gs1d.u, 2), rel=1e-12)

    # quadrature oracle: u = sqrt(2) sech has continuum transform
    # sqrt(2) pi sech(pi xi / 2), so ||u||_{H^s}^2 = pi * int (1+xi^2)^s sech^2(pi xi/2)
    def sech2(y):
        # overflow-free: cosh(y)^2 blows up for |y| > ~350 while quad probes far out
        e = math.exp(-abs(y))
        return 4.0 * e * e / (1.0 + e * e) ** 2

    for s in (1.0, 2.0, 3.0, 4.0):
        oracle, _ = quad(lambda xi: math.pi * (1 + xi * xi) ** s
                         * sech2(math.pi * xi / 2.0), -np.inf, np.inf)
        assert table[s] == pytest.approx(math.sqrt(oracle), rel=1e-6)


def test_clamp_counter_reported(gs1d):
    assert isinstance(gs1d.negative_clamps, int)
    assert gs1d.negative_clamps >= 0


def test_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(ground_state, "_MAX_PETVIASHVILI", 2)
    grid = Grid(1, 256, 20.0)
    with pytest.raises(ConvergenceError):
        solve_limit_equation(ReducedParams(1, 3.0, 8.0), grid, tol=1e-14)


@pytest.mark.parametrize("n, N, L, p", [(3, 32, 15.0, 1.8), (2, 32, 25.0, 3.0)])
def test_clamped_fixed_point_fails_fast(n, N, L, p):
    # on these under-resolved grids the clamped iteration settles (step < tol
    # from iterations 82 and 17 on) on a fixed point whose residual stalls at
    # ~3e-7; the solve must say so there instead of running on to the cap
    with pytest.raises(ConvergenceError,
                       match=r"no solution: residual .* clamps, at grid spacing h="):
        solve_limit_equation(ReducedParams(n, p, 8.0), Grid(n, N, L))


def test_settled_iterate_may_still_converge():
    # here the step first falls below tol at iteration 69 with a residual of
    # 1.38e-11, just above 10 tol; it falls by 0.84, 0.89 and 0.94 to 9.6e-12
    # at iteration 72, which is convergence, not a clamped fixed point
    gs = solve_limit_equation(ReducedParams(2, 3.0, 8.0), Grid(2, 64, 22.0))
    assert gs.iterations == 72 and gs.residual < 1e-11


def test_supercritical_exponent_rejected_by_default():
    grid = Grid(3, 16, 10.0)
    with pytest.raises(ValueError):
        solve_limit_equation(ReducedParams(3, 5.0, 8.0), grid)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        solve_limit_equation(ReducedParams(2, 3.0, 8.0), Grid(1, 64, 20.0))

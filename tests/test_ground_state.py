import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from prnls import ground_state
from prnls.errors import ConvergenceError
from prnls.ground_state import initial_gaussian, limit_residual, solve_limit_equation
from prnls.params import ReducedParams, ToleranceSet
from prnls.spectral import (Field, Grid, gradient, half_spectrum_multiplier, norm_h1, norm_lq,
                            plancherel_sum, symmetrize_radial)
from prnls.symbols import p_c

from conftest import axis_coords
from fft_reference import full_grid_gaussian, lift, two_pair_petviashvili


def norm_hs(f, s):
    """Sobolev H^s norm via the (1 + |xi|^2)^s multiplier."""
    return math.sqrt(plancherel_sum(f, lambda r2: (1.0 + r2) ** s)[0])


def regularity_report(gs, s_values=(1.0, 2.0, 3.0, 4.0)):
    """Sobolev norms ||u||_{H^s} of the ground state for each requested s."""
    return {float(s): norm_hs(gs.u_even, float(s)) for s in s_values}


def _closed_form_soliton(x, p):
    # the one-dimensional solitary wave ((p+1)/2)^{1/(p-1)} sech^{2/(p-1)}((p-1) x / 2)
    amp = ((p + 1.0) / 2.0) ** (1.0 / (p - 1.0))
    return amp * np.cosh((p - 1.0) * x / 2.0) ** (-2.0 / (p - 1.0))


def test_1d_cubic_matches_sqrt2_sech(gs1d):
    x = axis_coords(gs1d.grid)
    exact = math.sqrt(2) * (1.0 / np.cosh(x))
    assert np.max(np.abs(lift(gs1d.grid.even, gs1d.u_even).values - exact)) < 1e-6
    center = gs1d.u_even.values[0]
    assert center == pytest.approx(1.4142136, abs=1e-6)


def test_1d_quadratic_matches_sech_squared():
    grid = Grid(1, 1024, 20.0 * np.pi)
    gs = solve_limit_equation(ReducedParams(1, 2.0, 8.0), grid, tol=1e-12)
    exact = _closed_form_soliton(axis_coords(grid), 2.0)
    assert np.max(np.abs(lift(grid.even, gs.u_even).values - exact)) < 1e-6
    assert gs.u_even.values[0] == pytest.approx(1.5, abs=1e-6)


def test_closed_form_family_satisfies_limit_equation():
    # substitute the sech profile into -u'' + u = u^p on a fine grid
    grid = Grid(1, 2048, 20.0 * np.pi)
    for p in (2.0, 3.0):
        u = Field(grid, _closed_form_soliton(axis_coords(grid), p))
        assert limit_residual(u, p) < 1e-7


@pytest.mark.parametrize("name", ["gs3d", "gs2d_small", "gs2d"])
def test_u_even_is_the_restricted_ground_state(name, request):
    # the block iterate lifts to the full grid, where restrict gives it back
    # bit for bit
    gs = request.getfixturevalue(name)
    block = gs.grid.even
    assert np.array_equal(gs.u_even.values, block.restrict(lift(block, gs.u_even)).values)


def test_petviashvili_factor_converges_to_one(gs1d):
    # the Petviashvili factor M = <P_inf(D) u, u> / <u^p, u> at the ground
    # state, for p = 3
    u = gs1d.u_even
    (h1_sq,) = plancherel_sum(u, lambda r2: 1.0 + r2)
    factor = h1_sq / norm_lq(u, 4.0) ** 4
    assert abs(factor - 1.0) < 1e-11


def test_residual_definition_consistent(gs1d):
    # the same block computation as the solver's exit check, so equal bit for
    # bit; abs=0 keeps pytest.approx from accepting any gap below 1e-12
    assert gs1d.residual == pytest.approx(limit_residual(gs1d.u_even, 3.0), rel=1e-12, abs=0)
    assert gs1d.residual <= 1e-11


@pytest.mark.parametrize("n", [1, 2, 3])
def test_p_c_at_infinite_speed_is_xi_sq_plus_one(n):
    # limit_residual's default c = inf gives the limit symbol bit for bit
    grid = Grid.default(n)
    assert np.array_equal(half_spectrum_multiplier(grid, p_c(math.inf)), grid.xi_sq_half + 1.0)
    assert np.array_equal(half_spectrum_multiplier(grid.even, p_c(math.inf)),
                          grid.even.xi_sq + 1.0)


# limit_residual of a block field against that of its lift, n = 1..3 on the
# default grids: at most 4.4e-15 relative off solution, and 1.9e-14 absolute
# at a ground state, where the residual itself is rounding
_BLOCK_RESIDUAL_REL_FLOOR = 5e-15
_BLOCK_RESIDUAL_ABS_FLOOR = 2.5e-14


@pytest.mark.parametrize("name", ["gs1d", "gs2d", "gs3d"])
def test_limit_residual_on_the_block_is_the_lifted_one(name, request):
    gs = request.getfixturevalue(name)
    block = gs.grid.even
    gap = abs(limit_residual(gs.u_even, gs.p) - limit_residual(lift(block, gs.u_even), gs.p))
    assert gap <= _BLOCK_RESIDUAL_ABS_FLOOR
    noise = np.random.default_rng(3).standard_normal(block.shape)
    f = symmetrize_radial(Field(block, gs.u_even.values * (1.0 + 0.1 * noise)))
    for c in (math.inf, 4.0, 16.0):
        lifted = limit_residual(lift(block, f), gs.p, c)
        assert abs(limit_residual(f, gs.p, c) - lifted) <= _BLOCK_RESIDUAL_REL_FLOOR * lifted


def test_ground_state_holds_only_the_block_field():
    # no full-grid copy rides along: a pickled ground state (a sweep job)
    # carries the (N/2+1)^n block values and nothing N^n
    gs = solve_limit_equation(ReducedParams(2, 3.0, 8.0), Grid(2, 32, 10.0))
    assert not hasattr(gs, "u")
    held = [f.name for f in dataclasses.fields(gs) if isinstance(getattr(gs, f.name), Field)]
    assert held == ["u_even"] and gs.u_even.grid == gs.grid.even
    assert vars(gs).keys() == {f.name for f in dataclasses.fields(gs)}


def test_ground_state_tends_to_the_gausson_as_p_tends_to_one():
    # As p -> 1, -u'' + u = u^p scales to the log-NLS -u'' = u log u, whose
    # ground state, the Gausson, has max e^{n/2}. Measured on the 1-D default
    # grid: max 1.56250 ... 1.64463 at p = 1.5 ... 1.02, the gap to e^{1/2}
    # 0.172-0.205 (p - 1), and at most 1.8e-8 of the max on the block's outer
    # face, so the box does not truncate the wave.
    grid = Grid.default(1)
    gaps = []
    for p in (1.3, 1.1, 1.05, 1.02):
        u = solve_limit_equation(ReducedParams(1, p, 8.0), grid).u_even.values
        assert abs(u[-1]) < 1e-6 * u.max()
        gap = math.exp(0.5) - u.max()
        assert 0.16 * (p - 1.0) <= gap <= 0.22 * (p - 1.0), (p, gap)
        gaps.append(gap)
    assert gaps == sorted(gaps, reverse=True)


def test_positive_everywhere(gs1d, gs2d_small):
    # strict positivity where the solution lives; the far field of the final
    # iterate carries ~1e-7 spectral ringing around zero, so the global
    # statement is "no visible negative mass"
    for gs in (gs1d, gs2d_small):
        u = gs.u_even.values
        peak = np.max(u)
        bulk = gs.grid.even.radius_sq <= (gs.grid.L / 3.0) ** 2
        assert np.all(u[bulk] > 0.0)
        assert np.min(u) >= -1e-6 * peak


def test_radially_invariant(gs2d_small):
    s = symmetrize_radial(gs2d_small.u_even)
    assert np.max(np.abs(s.values - gs2d_small.u_even.values)) < 1e-10


def test_nehari_identity(gs2d_small):
    u = lift(gs2d_small.grid.even, gs2d_small.u_even)
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
        u = gs.u_even.values
        shell = gs.grid.even.radius_sq >= (0.9 * gs.grid.L) ** 2
        peak = np.max(u)
        assert np.max(u[shell]) < 1e-6 * peak


def test_monotone_along_axes(gs2d_small):
    # non-strict decrease moving outward from the center along each axis,
    # checked down to 1e-6 of the peak; past that the profile is buried in
    # ~1e-7 spectral ringing
    N = gs2d_small.grid.N
    vals = lift(gs2d_small.grid.even, gs2d_small.u_even).values
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
        seed = grid.even.restrict(full_grid_gaussian(grid, rp.p, width=w))
        monkeypatch.setattr(ground_state, "initial_gaussian", lambda g, p, seed=seed: seed)
        solutions.append(solve_limit_equation(rp, grid, tol=1e-12).u_even.values)
    for other in solutions[1:]:
        assert np.max(np.abs(other - solutions[0])) < 1e-8


def test_initial_gaussian_has_unit_nehari_quotient():
    grid = Grid(2, 64, 20.0)
    g = initial_gaussian(grid, 3.0)
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
    assert np.array_equal(gs.u_even.values, ref.u_even.values)
    assert (gs.iterations, gs.residual) == (ref.iterations, ref.residual)


def test_regularity_report(gs1d):
    table = regularity_report(gs1d)
    assert set(table) == {1.0, 2.0, 3.0, 4.0}
    values = [table[s] for s in (1.0, 2.0, 3.0, 4.0)]
    assert all(math.isfinite(v) and v > 0 for v in values)
    assert values == sorted(values)  # multiplier grows with s

    # H^0 consistency between the multiplier route and the plain L^2 norm
    assert norm_hs(gs1d.u_even, 0.0) == pytest.approx(norm_lq(gs1d.u_even, 2), rel=1e-12)

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


@pytest.mark.parametrize("n, N, L, p", [(1, 128, 30.0, 5.0), (2, 64, 22.0, 3.0),
                                        (3, 32, 10.0, 1.8), (3, 32, 15.0, 1.5),
                                        (3, 64, 15.0, 1.8), (2, 128, 20.0, 3.0),
                                        (2, 256, 20.0, 3.0)])
def test_one_pair_petviashvili_matches_the_two_pair_loop(n, N, L, p, monkeypatch):
    # each step carries P_inf(D) u_{k+1} = M_k^gamma u_k^p over instead of
    # transforming u_{k+1}, and takes its sums once per orbit where the oracle
    # sums over the block; iterations and clamps (0 to 89,454 here) match the
    # loop that transforms, and u within 1.5e-15 of its max (measured). The
    # last three are the benchmark's grids (49 to 79 steps).
    # Clamps count values below zero, so on a box whose tail sits at
    # rounding level they may differ: on the 1-D N = 1024, L = 20 pi grid
    # at tol 1e-12 the two loops count 1,230 and 1,167 in the same 36 steps
    rp = ReducedParams(n, p, 8.0)
    grid = Grid(n, N, L)
    calls = {"pairs": 0, "residuals": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ground_state, "half_spectrum_apply",
                        counted("pairs", ground_state.half_spectrum_apply))
    monkeypatch.setattr(ground_state, "limit_residual",
                        counted("residuals", ground_state.limit_residual))
    gs = solve_limit_equation(rp, grid)
    monkeypatch.undo()
    # one pair per step, one for P_inf(D) u_0 and one per residual check
    assert calls["pairs"] == gs.iterations + 1 + calls["residuals"]
    u, iterations, clamps = two_pair_petviashvili(rp, grid, ToleranceSet.tol_gs)
    assert (gs.iterations, gs.negative_clamps) == (iterations, clamps)
    assert np.max(np.abs(gs.u_even.values - u)) <= 3e-15 * np.max(np.abs(u))


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


def test_supercritical_exponent_fails_as_a_solver_error():
    # p = 5 is H^1-critical in 3-D; the iteration runs, and on this coarse
    # grid settles on a fixed point that solves nothing, which it raises
    grid = Grid(3, 16, 10.0)
    with pytest.raises(ConvergenceError, match="no solution"):
        solve_limit_equation(ReducedParams(3, 5.0, 8.0), grid)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        solve_limit_equation(ReducedParams(2, 3.0, 8.0), Grid(1, 64, 20.0))

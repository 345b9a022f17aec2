"""Contraction-map construction and the full solve driver, including the
probe outcomes in the regimes where no solution is expected."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prnls import fixed_point as fp
from prnls import spectral
from prnls.diagnostics import fit_rate
from prnls.errors import ConvergenceError, SolverError
from prnls.ground_state import solve_limit_equation
from prnls.linsolve import linearized_operator
from prnls.params import PhysicalParams, ReducedParams, ToleranceSet, reduce_params
from prnls.spectral import (Field, Grid, intersection_norm, norm_h1, norm_lq,
                            signed_power, symmetrize_radial)
from prnls.symbols import p_c

from fft_reference import fft_multiplier, full_grid_symmetrize_radial, lift, random_band_limited


def test_remainder_vanishes_at_infinite_speed(gs2d_small):
    op = linearized_operator(ReducedParams(2, 3.0, math.inf), gs2d_small)
    rc = fp.remainder_rc(op)
    assert np.max(np.abs(rc.values)) == 0.0


def test_remainder_decay_rate_2d(gs2d_small):
    # p = 3 > 2: the remainder shrinks like 1/c^2, so doubling c quarters it
    norms = {}
    for c in (8.0, 16.0):
        op = linearized_operator(ReducedParams(2, 3.0, c), gs2d_small)
        norms[c] = intersection_norm(fp.remainder_rc(op))
    ratio = norms[16.0] / norms[8.0]
    assert 0.15 <= ratio <= 0.35, f"measured R_2c/R_c = {ratio}"


def test_remainder_decay_rate_3d(gs3d):
    # p = 1.8 <= 2 carries only a 1/c guarantee (ratio <= 1/2); the measured
    # decay is typically faster, so only the guaranteed edge is asserted
    norms = {}
    for c in (8.0, 16.0):
        op = linearized_operator(ReducedParams(3, 1.8, c), gs3d)
        norms[c] = intersection_norm(fp.remainder_rc(op))
    ratio = norms[16.0] / norms[8.0]
    print(f"measured 3d remainder ratio R_2c/R_c = {ratio:.4f}")
    assert 0.1 <= ratio <= 0.5 + 1e-9


# w = R_c + L^-1 Q(w), and Q is quadratic in w where u_inf > 0, so w - R_c
# falls like ||w||^2 ~ c^-4. Measured on the ladder c = 8, 16, 32, 64 over 22
# families (1-D 256-1024 points, p = 1.5-7; 2-D 64^2-256^2, p = 1.6-3.5;
# 3-D 32^3-64^3, p = 1.4-1.8): slopes -3.997 to -4.268 (2-D 64^2, p = 3) with
# r^2 >= 0.9988. At c = 4, ||w - R_c|| is still 0.64 ||w||, so the ladder
# starts at 8, where it is at most 0.18 ||w||.
_SECOND_ORDER_LADDER = (8.0, 16.0, 32.0, 64.0)


@pytest.mark.parametrize("n,N,L,p", [(1, 512, 20.0 * math.pi, 5.0), (2, 128, 20.0, 3.0),
                                     (3, 32, 10.0, 1.8)])
def test_construction_is_second_order_in_the_speed(n, N, L, p):
    grid = Grid(n, N, L)
    gs = solve_limit_equation(ReducedParams(n, p, 8.0), grid)
    points = []
    for c in _SECOND_ORDER_LADDER:
        rp = ReducedParams(n, p, c)
        construction = fp.prepare(rp, gs)
        u_c, rep = fp.solve(rp, grid, gs, construction=construction)
        assert rep.converged
        points.append((c, intersection_norm(u_c - gs.u_even - construction.rc)))
    fit = fit_rate(points)
    assert -4.4 <= fit.slope <= -3.9 and fit.r_squared >= 0.995, fit


def test_nonlinear_q_zero(gs2d_small):
    # Q(0) = (u)^p - u^p - 0, identical terms computed by two code paths; the
    # difference is pure roundoff, not exactly zero
    op = linearized_operator(ReducedParams(2, 3.0, 16.0), gs2d_small)
    out = fp.nonlinear_q(op, Field.zeros(gs2d_small.grid.even))
    assert np.max(np.abs(out.values)) <= 1e-15


def test_nonlinear_q_cubic_closed_form(gs2d_small):
    rng = np.random.default_rng(31)
    block = gs2d_small.grid.even
    w = symmetrize_radial(block.restrict(
        Field(gs2d_small.grid, 0.1 * rng.standard_normal(gs2d_small.grid.shape))))
    got = fp.nonlinear_q(linearized_operator(ReducedParams(2, 3.0, 16.0), gs2d_small), w)
    u = gs2d_small.u_even.values
    uw = u + w.values
    exact = signed_power(uw, 3.0) - u ** 3 - 3.0 * u ** 2 * w.values
    # for p = 3 that expansion collapses to 3 u w^2 + w^3 wherever u + w >= 0
    binom = 3.0 * u * w.values ** 2 + w.values ** 3
    mask = uw >= 0
    assert np.max(np.abs(exact[mask] - binom[mask])) < 1e-12
    assert np.max(np.abs(got.values - exact)) < 1e-12


@pytest.mark.parametrize("p,floor", [(3.0, 1.9), (1.8, 1.7)])
def test_nonlinear_q_superlinear(p, floor, gs2d_small):
    grid = gs2d_small.grid
    if p == 3.0:
        gs = gs2d_small
    else:
        from prnls.ground_state import solve_limit_equation
        gs = solve_limit_equation(ReducedParams(2, p, 8.0), grid, tol=1e-12)
    rng = np.random.default_rng(7)
    v = symmetrize_radial(grid.even.restrict(random_band_limited(grid, rng, 3.0)))
    v = Field(v.grid, v.values / norm_h1(v))
    eps = np.array([1e-1, 1e-2, 1e-3])
    op = linearized_operator(ReducedParams(2, p, 8.0), gs)
    norms = [norm_lq(fp.nonlinear_q(op, Field(v.grid, e * v.values)), 2) for e in eps]
    slope = np.polyfit(np.log(eps), np.log(norms), 1)[0]
    assert slope >= min(p, 2.0) - 0.1


@pytest.mark.parametrize("name", ["gs1d", "gs2d_small", "gs3d"])
def test_nonlinear_q_linear_term_is_the_operator_potential(name, request):
    # Q(w)'s ground-state and linear terms are op.source and op.potential
    # times w, which compute max(u, 0)^p and p max(u, 0)^{p-1} in the same
    # operations at the orbit representatives, so Q is the formula bit for bit
    gs = request.getfixturevalue(name)
    op = linearized_operator(ReducedParams(gs.grid.n, gs.p, 16.0), gs)
    block = gs.grid.even
    w = symmetrize_radial(Field(block, 0.1 * np.random.default_rng(5).standard_normal(block.shape)))
    u = gs.u_even.values
    up = np.maximum(u, 0.0)
    p = gs.p
    formula = signed_power(u + w.values, p) - up ** p - p * up ** (p - 1.0) * w.values
    assert np.array_equal(fp.nonlinear_q(op, w).values, formula)


def test_phi_at_zero_is_remainder(gs2d_small):
    # phi(0) = rc + L^{-1} Q(0) where Q(0) is roundoff-level, so the match is
    # to machine precision rather than bitwise
    op = linearized_operator(ReducedParams(2, 3.0, 16.0), gs2d_small)
    rc = fp.remainder_rc(op)
    out = fp.phi(op, Field.zeros(gs2d_small.grid.even), rc=rc)
    assert np.max(np.abs(out.values - rc.values)) < 1e-15


def test_phi_contracts_small_pairs(gs2d_small):
    op = linearized_operator(ReducedParams(2, 3.0, 64.0), gs2d_small)
    rc = fp.remainder_rc(op)
    delta = 0.1 * norm_h1(gs2d_small.u_even)
    worst = 0.0
    for seed in range(4):
        rng = np.random.default_rng(500 + seed)
        w1 = fp.random_start(gs2d_small.grid, rng, delta / 2)
        w2 = fp.random_start(gs2d_small.grid, rng, delta / 2)
        num = intersection_norm(fp.phi(op, w1, rc=rc) - fp.phi(op, w2, rc=rc))
        worst = max(worst, num / intersection_norm(w1 - w2))
    assert worst < 0.5, f"contraction factor {worst}"


def test_random_start_properties(grid2d_small):
    rng = np.random.default_rng(11)
    w = fp.random_start(grid2d_small, rng, 0.25)
    assert w.grid == grid2d_small.even
    assert intersection_norm(w) == pytest.approx(0.25, rel=1e-12)
    full = lift(grid2d_small.even, w)
    sym = full_grid_symmetrize_radial(full)
    assert np.max(np.abs(sym.values - full.values)) < 1e-12


@pytest.mark.parametrize("grid", [Grid(2, 128, 20.0), Grid(3, 32, 15.0)])
def test_random_start_matches_full_grid_construction(grid):
    # the block start against the full-grid path it replaces: the same noise,
    # rfftn band mask, full symmetrization, then restriction (gap 1.0e-15 on 64^3)
    for seed in range(3):
        radial = grid.even.restrict(full_grid_symmetrize_radial(
            random_band_limited(grid, np.random.default_rng(seed), 4.0)))
        ref = (radial * (0.7 / intersection_norm(radial))).values
        got = fp.random_start(grid, np.random.default_rng(seed), 0.7).values
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_solve_baseline_converges(uc16_small):
    u_c, rep = uc16_small
    assert rep.outcome == fp.OUTCOME_CONVERGED
    assert rep.converged
    assert rep.final_residual < 1e-8
    assert rep.contraction_estimate < 1.0
    assert rep.iterations <= 200
    # on the even block; positive on the bulk, while the far field carries
    # ~1e-7 spectral ringing
    assert u_c.grid == u_c.grid.grid.even
    peak = np.max(u_c.values)
    bulk = u_c.grid.radius_sq <= (u_c.grid.grid.L / 3.0) ** 2
    assert np.all(u_c.values[bulk] > 0.0)
    assert np.min(u_c.values) >= -1e-6 * peak
    sym = symmetrize_radial(u_c)
    assert np.max(np.abs(sym.values - u_c.values)) < 1e-10


def test_solve_report_steps_decrease(uc16_small):
    _, rep = uc16_small
    steps = rep.steps
    assert len(steps) == rep.iterations
    for a, b in zip(steps[1:-1], steps[2:]):
        assert b < a


def test_contraction_estimate_is_the_largest_step_ratio_above_the_floor():
    # the oscillating run SolveReport's docstring quotes (c_tilde = 4 sqrt(2)):
    # it converges, yet 30 of its 70 step ratios above the step floor exceed 1
    rp = reduce_params(PhysicalParams(2, 3.0, 2.0, 0.5, 2.0))
    grid = Grid(2, 64, 20.0)
    gs = solve_limit_equation(rp, grid)
    _, rep = fp.solve(rp, grid, gs)
    tol = ToleranceSet()
    floor = max(10.0 * tol.tol_step, fp.ROUNDING_FLOOR * max(norm_h1(gs.u_even), 1.0))
    ratios = [b / a for a, b in zip(rep.steps, rep.steps[1:]) if a > floor]
    assert rep.converged and rep.iterations == len(rep.steps) == len(rep.w_norms) == 78
    assert len(ratios) == 70 and sum(r > 1.0 for r in ratios) == 30
    assert rep.contraction_estimate == max(ratios)
    assert rep.contraction_estimate == pytest.approx(2.4613, abs=1e-4)


def test_independent_residual_recompute(uc16_small):
    u_c, rep = uc16_small
    u_c = lift(u_c.grid, u_c)
    pc_u = fft_multiplier(p_c(16.0), u_c)
    resid = norm_lq(Field(u_c.grid, pc_u.values - signed_power(u_c.values, 3.0)), 2)
    assert resid <= 1e-8
    # the recomputation takes a different transform path; roundoff on a
    # residual this small allows only a loose relative comparison
    assert resid == pytest.approx(rep.final_residual, rel=0.05)


def test_fixed_point_property(uc16_small, gs2d_small):
    u_c, rep = uc16_small
    w_star = u_c - gs2d_small.u_even
    op = linearized_operator(ReducedParams(2, 3.0, 16.0), gs2d_small)
    rc = fp.remainder_rc(op)
    drift = intersection_norm(fp.phi(op, w_star, rc=rc) - w_star)
    assert drift <= 1e-8


def test_multi_start_uniqueness(gs2d_small, uc16_small):
    u_base, _ = uc16_small
    rp = ReducedParams(2, 3.0, 16.0)
    delta = norm_h1(gs2d_small.u_even)
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        w0 = fp.random_start(gs2d_small.grid, rng, delta / 2)
        u_c, rep = fp.solve(rp, gs2d_small.grid, gs=gs2d_small, w0=w0)
        assert rep.converged
        assert np.max(np.abs(u_c.values - u_base.values)) < 1e-8


def test_large_speed_limit_1d(gs1d):
    rp = ReducedParams(1, 3.0, 1e4)
    u_c, rep = fp.solve(rp, gs1d.grid, gs=gs1d)
    assert rep.converged
    assert np.max(np.abs(u_c.values - gs1d.u_even.values)) < 1e-6


def test_probe_mode_below_existence_threshold(gs2d_small):
    rp = ReducedParams(2, 3.0, 1.0)
    assert "floor" in fp.construction_precondition(rp)
    u_c, rep = fp.solve(rp, gs2d_small.grid, gs=gs2d_small)
    assert rep.outcome in ("collapsed", "diverged")
    assert not rep.converged
    assert u_c is None


def test_supercritical_exponent_runs_to_a_report():
    # p = 5 is H^1-critical in 3-D: outside the construction's hypotheses,
    # solve() reports an outcome like any other run instead of raising
    rp = ReducedParams(3, 5.0, 8.0)
    assert "subcritical" in fp.construction_precondition(rp)
    gs = solve_limit_equation(rp, Grid(3, 16, 8.0))
    u_c, rep = fp.solve(rp, gs.grid, gs)
    assert rep.outcome in _OUTCOMES
    assert (u_c is None) == (not rep.converged)


def test_stalled_run_returns_its_report(gs2d_small):
    # a residual tolerance no run can meet: the step tolerance is met, the
    # run stalls, and solve() returns the report instead of raising
    rp = ReducedParams(2, 3.0, 16.0)
    u_c, rep = fp.solve(rp, gs2d_small.grid, gs2d_small, tol=ToleranceSet(tol_residual=1e-30))
    assert u_c is None
    assert rep.outcome == fp.OUTCOME_STALLED and not rep.converged
    assert 0.0 < rep.final_residual < 1e-8
    assert "tol_residual" in rep.message


_OUTCOMES = (fp.OUTCOME_CONVERGED, fp.OUTCOME_COLLAPSED, fp.OUTCOME_DIVERGED,
             fp.OUTCOME_STALLED)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([1, 2]), N=st.sampled_from([32, 64]),
       L=st.floats(5.0, 25.0, exclude_min=True, exclude_max=True),
       p=st.floats(1.2, 6.0, exclude_min=True, exclude_max=True),
       log_c=st.floats(math.log(0.3), math.log(64.0), exclude_min=True, exclude_max=True),
       scale_exp=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 16))
def test_probe_mode_classifies_and_never_raises(n, N, L, p, log_c, scale_exp, seed):
    rp = ReducedParams(n, p, math.exp(log_c))
    grid = Grid(n, N, L)
    try:
        gs = solve_limit_equation(rp, grid)
    except SolverError:
        assume(False)
    w0 = fp.random_start(grid, np.random.default_rng(seed),
                         10.0 ** scale_exp * intersection_norm(gs.u_even))
    u_c, rep = fp.solve(rp, grid, gs, w0=w0)
    assert rep.outcome in _OUTCOMES
    assert (u_c is None) == (not rep.converged)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p,c,exponent", [(3.0, 16.0, 62), (5.0, 1.0, 80), (5.0, 1.0, 200)])
def test_probe_start_far_outside_the_ball_diverges(p, c, exponent):
    # at 1e62 ||f||_2 of Q(w) overflows, so the inversion must fail instead of
    # returning w = 0; at 1e80 and 1e200 Q(w) itself overflows. The report
    # says so, and numpy's overflow warnings stay quiet
    rp = ReducedParams(2, p, c)
    grid = Grid(2, 32, 10.0)
    gs = solve_limit_equation(rp, grid)
    w0 = fp.random_start(grid, np.random.default_rng(0),
                         10.0 ** exponent * intersection_norm(gs.u_even))
    u_c, rep = fp.solve(rp, grid, gs, w0=w0)
    assert u_c is None
    assert rep.outcome == fp.OUTCOME_DIVERGED and rep.iterations == 1
    assert "iteration 1" in rep.message


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("exponent", [250, 307])
def test_start_near_the_float64_limit_reports_its_norm(exponent):
    # the start's transform sums overflow (to inf, and at 1e307 to inf - inf =
    # nan); the report must still carry the start's true, finite norm, and
    # numpy's overflow warnings stay quiet
    rp = ReducedParams(2, 1.2, 1.0)
    grid = Grid(2, 32, 10.0)
    gs = solve_limit_equation(rp, grid)
    scale = 10.0 ** exponent * intersection_norm(gs.u_even)
    w0 = fp.random_start(grid, np.random.default_rng(0), scale)
    u_c, rep = fp.solve(rp, grid, gs, w0=w0)
    assert u_c is None
    assert rep.outcome == fp.OUTCOME_DIVERGED and rep.iterations == 1
    assert rep.w_norm == pytest.approx(scale, rel=1e-12)


def test_every_norm_of_a_3d_solve_takes_the_one_partial_path(monkeypatch):
    # every field solve() measures is exactly radial (symmetrize_radial's
    # output, invert's, and their sums and differences), so intersection_norm
    # measures each from one partial; a change that breaks the exact symmetry
    # makes intersection_norm raise ValueError and fails here
    rp = ReducedParams(3, 1.8, 4.0)
    grid = Grid(3, 32, 10.0)
    gs = solve_limit_equation(rp, grid)
    counts = {"norms": 0, "one_partial": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(fp, "intersection_norm", counted("norms", fp.intersection_norm))
    monkeypatch.setattr(spectral, "_symmetric_block_norms",
                        counted("one_partial", spectral._symmetric_block_norms))
    w0 = fp.random_start(grid, np.random.default_rng(0), 0.01 * norm_h1(gs.u_even))
    u_c, rep = fp.solve(rp, grid, gs, w0=w0)
    assert rep.converged
    # the start's, R_c's, and the step's and w's at each Picard step
    assert counts["norms"] == 2 + 2 * rep.iterations
    assert counts["one_partial"] == counts["norms"]


def _solve_both_ways(rp, gs, **kwargs):
    # solve() preparing its own construction, and solve() handed a prepared one
    tol = kwargs.get("tol", ToleranceSet())
    own = fp.solve(rp, gs.grid, gs, **kwargs)
    handed = fp.solve(rp, gs.grid, gs, construction=fp.prepare(rp, gs, tol.tol_lin), **kwargs)
    np.testing.assert_equal(dataclasses.astuple(handed[1]), dataclasses.astuple(own[1]))
    assert (handed[0] is None) == (own[0] is None)
    if own[0] is not None:
        assert np.array_equal(handed[0].values, own[0].values)
    return own[1]


def test_prepared_construction_changes_nothing(gs2d_small, monkeypatch):
    assert _solve_both_ways(ReducedParams(2, 3.0, 16.0), gs2d_small).converged

    w0 = fp.random_start(gs2d_small.grid, np.random.default_rng(7),
                         0.3 * intersection_norm(gs2d_small.u_even))
    rep = _solve_both_ways(ReducedParams(2, 3.0, 1.0), gs2d_small, w0=w0)
    assert rep.outcome == fp.OUTCOME_DIVERGED and rep.iterations >= 1

    def failing(op, f, **kwargs):
        raise ConvergenceError("injected linear-solve failure")

    monkeypatch.setattr(fp, "invert", failing)
    rep = _solve_both_ways(ReducedParams(2, 3.0, 16.0), gs2d_small)
    assert rep.outcome == fp.OUTCOME_DIVERGED and rep.iterations == 0
    assert "lost invertibility" in rep.message and math.isnan(rep.rc_norm)


def test_foreign_construction_rejected(gs2d_small):
    rp = ReducedParams(2, 3.0, 16.0)
    grid = gs2d_small.grid
    other_gs = solve_limit_equation(rp, grid, tol=1e-12)
    for construction, tol in ((fp.prepare(ReducedParams(2, 3.0, 32.0), gs2d_small),
                               ToleranceSet()),
                              (fp.prepare(rp, other_gs), ToleranceSet()),
                              (fp.prepare(rp, gs2d_small), ToleranceSet(tol_lin=1e-9))):
        with pytest.raises(ValueError, match="construction"):
            fp.solve(rp, grid, gs2d_small, tol=tol, construction=construction)


def test_mismatched_input_rejected(gs2d_small):
    with pytest.raises(ValueError, match="dimension"):
        fp.solve(ReducedParams(2, 3.0, 16.0), Grid(3, 16, 10.0), gs=gs2d_small)
    with pytest.raises(ValueError, match="does not match"):
        fp.solve(ReducedParams(2, 2.5, 16.0), gs2d_small.grid, gs=gs2d_small)
    # a start on the full grid, or on another grid's block
    for w0 in (Field.zeros(gs2d_small.grid), Field.zeros(Grid(2, 64, 20.0).even)):
        with pytest.raises(ValueError, match="even block"):
            fp.solve(ReducedParams(2, 3.0, 16.0), gs2d_small.grid, gs=gs2d_small, w0=w0)

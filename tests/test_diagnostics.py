import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import prnls
from prnls import spectral
from prnls.diagnostics import (action, check_identities, extension_weights, fit_rate,
                               nonexistence_certificate, trace_inequality_check)
from prnls.params import ReducedParams
from prnls.spectral import Field, Grid, norm_lq, plancherel_sum
from prnls.symbols import sigma_halfspace

from conftest import sample_field
from strip_oracle import halfspace_fd_weights


# ------------------------------------------------------------ closed weights

def test_extension_weights_single_mode():
    grid = Grid(1, 64, math.pi)
    amp, k, c, p = 2.3, 4.0, 3.0, 3.0
    u = grid.even.restrict(sample_field(grid, lambda x: amp * np.cos(k * x)))
    l2sq = norm_lq(u, 2) ** 2
    sigma = math.sqrt(k * k + c * c / 4.0)
    w = extension_weights(u, c, p)
    assert w.grad_x_bulk == pytest.approx(c * c * k * k / (2 * sigma) * l2sq, rel=1e-12)
    assert w.grad_t_bulk == pytest.approx(c * c * sigma / 2 * l2sq, rel=1e-12)
    assert w.mass_bulk == pytest.approx(c ** 4 / 4 / (2 * sigma) * l2sq, rel=1e-12)
    assert w.boundary_l2 == pytest.approx(c * l2sq, rel=1e-12)
    assert w.boundary_lp1 == pytest.approx(c * norm_lq(u, p + 1) ** (p + 1), rel=1e-12)
    assert w.grad_bulk == pytest.approx(w.grad_x_bulk + w.grad_t_bulk, rel=1e-15)


def test_bulk_summand_identity():
    # 2 c^2 sigma^2 = c^2 |xi|^2 + c^2 sigma^2 + c^4/4 summed against |u_hat|^2:
    # the three bulk terms collapse to a single sigma-weighted Plancherel sum
    grid = Grid(2, 32, 10.0)
    rng = np.random.default_rng(2)
    u = grid.even.restrict(Field(grid, rng.standard_normal(grid.shape)))
    for c in (2.0, 16.0):
        w = extension_weights(u, c, 3.0)
        total = w.grad_x_bulk + w.grad_t_bulk + w.mass_bulk
        sig = sigma_halfspace(c)
        direct = c * c * plancherel_sum(u, lambda r2: sig(r2))[0]
        assert total == pytest.approx(direct, rel=1e-12)


def test_extension_weights_zero_field():
    grid = Grid(1, 32, 5.0)
    w = extension_weights(Field.zeros(grid.even), 4.0, 3.0)
    assert w.grad_bulk == 0.0 and w.mass_bulk == 0.0 and w.boundary_l2 == 0.0
    for c in (0.0, -4.0, math.nan):
        with pytest.raises(ValueError, match="c must be positive"):
            extension_weights(Field.zeros(grid.even), c, 3.0)


def test_half_space_quantities_take_one_transform_each(monkeypatch):
    # the x-gradient, t-gradient and mass sums share one DCT-I of u
    grid = Grid(2, 32, 10.0)
    u = grid.even.restrict(Field(grid, np.random.default_rng(6).standard_normal(grid.shape)))
    calls = []
    transform = spectral._transform
    monkeypatch.setattr(spectral, "_transform",
                        lambda *args: calls.append(args) or transform(*args))
    for quantity in (lambda: extension_weights(u, 4.0, 3.0),
                     lambda: trace_inequality_check(u, 4.0)):
        calls.clear()
        quantity()
        assert len(calls) == 1


# ---------------------------------------------------------------- iden-tities

def test_identities_hold_for_converged_solution(uc16_small):
    u_c, _ = uc16_small
    rep = check_identities(u_c, ReducedParams(2, 3.0, 16.0))
    for row in rep.rows():
        assert row.rel_mismatch < 1e-6, (row.label, row.rel_mismatch)
    assert rep.max_mismatch == max(r.rel_mismatch for r in rep.rows())


def test_identities_reject_wrong_speed(gs2d_small):
    # u_inf solves the limit equation, not the c = 4 equation: the mismatch is
    # far above solver noise and scales like 1/c^2
    rep = check_identities(gs2d_small.u_even, ReducedParams(2, 3.0, 4.0))
    assert rep.nehari.rel_mismatch > 1e-3


def test_trace_inequality_single_mode_equality():
    grid = Grid(1, 64, math.pi)
    u = grid.even.restrict(sample_field(grid, lambda x: np.cos(3.0 * x)))
    assert trace_inequality_check(u, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_trace_inequality_bounded_by_one():
    grid = Grid(2, 32, 10.0)
    rng = np.random.default_rng(5)
    for c in (2.0, 8.0):
        u = grid.even.restrict(Field(grid, rng.standard_normal(grid.shape)))
        ratio = trace_inequality_check(u, c)
        assert ratio <= 1.0 + 1e-12


def test_trace_inequality_zero_field():
    grid = Grid(1, 32, 5.0)
    assert trace_inequality_check(Field.zeros(grid.even), 4.0) == 0.0


# ------------------------------------------------------------------ rate fits

def test_fit_rate_exact_powers():
    cs = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    fit2 = fit_rate([(c, 7.0 * c ** -2.0) for c in cs])
    assert fit2.slope == pytest.approx(-2.0, abs=1e-12)
    assert fit2.intercept == pytest.approx(math.log(7.0), abs=1e-12)
    assert fit2.r_squared > 1.0 - 1e-12

    fit1 = fit_rate([(c, 0.3 * c ** -1.0) for c in cs])
    assert fit1.slope == pytest.approx(-1.0, abs=1e-12)


def test_fit_rate_order_independent():
    pts = [(16.0, 2e-3), (4.0, 3e-2), (64.0, 1.4e-4), (8.0, 8e-3)]
    a = fit_rate(pts)
    b = fit_rate(list(reversed(pts)))
    assert a.slope == b.slope and a.r_squared == b.r_squared


def test_fit_rate_input_validation():
    with pytest.raises(ValueError):
        fit_rate([(4.0, 1.0), (8.0, 0.5), (16.0, 0.25)])  # too few points
    with pytest.raises(ValueError):
        fit_rate([(4.0, 1.0), (4.0, 0.9), (8.0, 0.5), (16.0, 0.25)])  # repeat c
    with pytest.raises(ValueError):
        fit_rate([(4.0, 1.0), (8.0, 0.0), (16.0, 0.25), (32.0, 0.1)])  # zero dist


def test_fit_rate_imports_no_numpy_ma():
    # np.unique imports numpy.ma on its first call (about 10 ms in a fresh
    # process); the CLI loads no module that does, so the fit must not either
    code = ("import sys, prnls.cli\n"
            "from prnls.diagnostics import fit_rate\n"
            "fit_rate([(4.0, 1.0), (8.0, 0.3), (16.0, 0.1), (32.0, 0.02)])\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(prnls.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_fit_rate_flat_data_is_a_perfect_zero_slope():
    fit = fit_rate([(4.0, 1.0), (8.0, 1.0), (16.0, 1.0), (32.0, 1.0)])
    assert fit.slope == pytest.approx(0.0, abs=1e-14)
    assert fit.r_squared == 1.0


# -------------------------------------------------------------------- action

def test_action_zero_field():
    grid = Grid(2, 32, 10.0)
    assert action(Field.zeros(grid.even), ReducedParams(2, 3.0, 16.0)) == 0.0


def test_action_of_solution_matches_nehari_form(uc16_small):
    # on a solution the quadratic part equals the L^{p+1} mass, so the action
    # reduces to (1/2 - 1/(p+1)) ||u||_{p+1}^{p+1}
    u_c, _ = uc16_small
    a = action(u_c, ReducedParams(2, 3.0, 16.0))
    expected = (0.5 - 0.25) * norm_lq(u_c, 4.0) ** 4
    assert a == pytest.approx(expected, rel=1e-6)
    assert a > 0


# -------------------------------------------------------------- certificates

def test_certificate_vacuous_for_zero_field():
    grid = Grid(2, 32, 10.0)
    cert = nonexistence_certificate(Field.zeros(grid.even), ReducedParams(2, 3.0, 1.0))
    assert cert.regime == "A"
    assert cert.combined_lhs == 0.0 and cert.combined_rhs == 0.0
    assert cert.conclusion.startswith("vacuously consistent")


def test_certificate_regime_a_signs(gs2d_small):
    for c in (0.5, 1.0, 1.4):
        cert = nonexistence_certificate(gs2d_small.u_even, ReducedParams(2, 3.0, c))
        assert cert.regime == "A"
        assert cert.combined_lhs > 0.0
        assert cert.combined_rhs <= 0.0


def test_certificate_regime_b_signs():
    grid = Grid(3, 32, 10.0)
    u = grid.even.restrict(sample_field(grid, lambda x, y, z: np.exp(-(x * x + y * y + z * z))))
    rp = ReducedParams(3, 5.0, 4.0)
    cert = nonexistence_certificate(u, rp)
    assert cert.regime == "B"
    assert cert.combined_lhs > 0.0
    assert "slack" in cert.conclusion


def test_certificate_rejects_out_of_regime():
    grid = Grid(2, 32, 10.0)
    u = grid.even.restrict(sample_field(grid, lambda x, y: np.exp(-(x * x + y * y))))
    with pytest.raises(ValueError):
        nonexistence_certificate(u, ReducedParams(2, 3.0, 8.0))  # existence range
    with pytest.raises(ValueError):
        nonexistence_certificate(u, ReducedParams(2, 2.0, 1.0))  # p below critical


# ------------------------------------------------------------ strip FD oracle

def test_fd_oracle_matches_sparse_solve():
    # same 5-point system built naively with scipy.sparse: the fast sine-mode
    # solver must reproduce the brute-force bulk integrals to roundoff
    grid = Grid(1, 32, 6.0)
    u = sample_field(grid, lambda x: np.exp(-x * x))
    c, p, n_t = 3.0, 3.0, 24
    w = halfspace_fd_weights(u, c, p, n_t=n_t)

    nx, hx = grid.N, grid.h
    ht = (40.0 / c) / n_t
    lap_x = sp.diags([np.ones(nx - 1), -2.0 * np.ones(nx), np.ones(nx - 1)],
                     [-1, 0, 1]) / hx ** 2
    lap_t = sp.diags([np.ones(n_t - 2), -2.0 * np.ones(n_t - 1), np.ones(n_t - 2)],
                     [-1, 0, 1]) / ht ** 2
    A = c * c * (sp.kron(lap_x, sp.eye(n_t - 1)) + sp.kron(sp.eye(nx), lap_t)) \
        - 0.25 * c ** 4 * sp.kron(sp.eye(nx), sp.eye(n_t - 1))
    rhs = np.zeros((nx, n_t - 1))
    rhs[:, 0] = -c * c / ht ** 2 * u.values
    interior = spla.spsolve(A.tocsc(), rhs.ravel()).reshape(nx, n_t - 1)
    strip = np.concatenate([u.values[:, None], interior, np.zeros((nx, 1))], axis=1)

    t_w = np.full(n_t + 1, ht)
    t_w[0] *= 0.5
    t_w[-1] *= 0.5
    mass = 0.25 * c ** 4 * float(np.sum(strip ** 2 * t_w[None, :]) * hx)
    padded = np.concatenate([np.zeros((1, n_t + 1)), strip, np.zeros((1, n_t + 1))])
    gx = (padded[1:, :] - padded[:-1, :]) / hx
    grad_x = c * c * float(np.sum(gx ** 2 * t_w[None, :]) * hx)
    gt = (strip[:, 1:] - strip[:, :-1]) / ht
    grad_t = c * c * float(np.sum(gt ** 2) * hx * ht)

    assert w.mass_bulk == pytest.approx(mass, rel=1e-10)
    assert w.grad_x_bulk == pytest.approx(grad_x, rel=1e-10)
    assert w.grad_t_bulk == pytest.approx(grad_t, rel=1e-10)


def test_fd_oracle_richardson_agrees_with_closed_form():
    grid = Grid(1, 256, 20.0)
    u = sample_field(grid, lambda x: np.exp(-0.5 * x * x))
    c, p = 4.0, 3.0
    exact = extension_weights(grid.even.restrict(u), c, p)
    coarse = halfspace_fd_weights(u, c, p, n_t=192)
    fine = halfspace_fd_weights(u, c, p, n_t=192, refine=1)
    for name in ("grad_x_bulk", "grad_t_bulk", "mass_bulk"):
        ex = getattr(exact, name)
        raw = getattr(coarse, name)
        rich = (4.0 * getattr(fine, name) - raw) / 3.0
        assert abs(raw - ex) / ex < 2e-2  # sanity on the unextrapolated error
        assert abs(rich - ex) / ex < 1e-4
    # boundary terms involve no extension solve and match directly
    assert coarse.boundary_l2 == pytest.approx(exact.boundary_l2, rel=1e-12)


def test_fd_oracle_input_validation():
    with pytest.raises(ValueError):
        halfspace_fd_weights(Field.zeros(Grid(2, 32, 5.0)), 4.0, 3.0)
    with pytest.raises(ValueError):
        halfspace_fd_weights(Field.zeros(Grid(1, 32, 5.0)), -1.0, 3.0)

import math

import numpy as np
import pytest

from prnls.errors import ConvergenceError, StagnationError, SymmetryError
from prnls.linsolve import (_gmres, apply, invert, linearized_operator,
                            operator_norm_probe)
from prnls.params import ReducedParams
from prnls.spectral import (Field, Grid, gradient, half_spectrum_apply,
                            half_spectrum_multiplier, norm_h1, norm_lq,
                            random_band_limited, symmetrize_radial)
from prnls.symbols import inverse_difference


def _random_radial(grid, seed, kmax=4.0):
    f = symmetrize_radial(random_band_limited(grid, np.random.default_rng(seed), kmax))
    return f.with_values(f.values / norm_lq(f, 2))


def test_apply_zero_is_zero(gs2d_small):
    op = linearized_operator(ReducedParams(2, 3.0, 16.0), gs2d_small)
    out = apply(op, Field.zeros(gs2d_small.grid))
    assert np.max(np.abs(out.values)) == 0.0


def test_potential_invariants(gs2d_small):
    op = linearized_operator(ReducedParams(2, 3.0, 16.0), gs2d_small)
    # nonnegative everywhere (the far field of the wave carries exact zeros),
    # strictly positive on the bulk, and radially symmetric
    assert np.all(op.potential.values >= 0.0)
    bulk = gs2d_small.grid.radius_sq <= (gs2d_small.grid.L / 3.0) ** 2
    assert np.all(op.potential.values[bulk] > 0.0)
    sym = symmetrize_radial(op.potential)
    assert np.max(np.abs(sym.values - op.potential.values)) < 1e-10


def test_limit_operator_on_ground_state(gs2d_small):
    # with the nonrelativistic symbol the operator sends u_inf to (1-p) u_inf^p
    op = linearized_operator(ReducedParams(2, 3.0, math.inf), gs2d_small)
    got = apply(op, gs2d_small.u)
    expected = (1.0 - 3.0) * np.maximum(gs2d_small.u.values, 0.0) ** 3
    diff = norm_lq(Field(gs2d_small.grid, got.values - expected), 2)
    assert diff < 1e-8


def test_apply_preserves_symmetry(gs2d_small):
    op = linearized_operator(ReducedParams(2, 3.0, 16.0), gs2d_small)
    w = _random_radial(gs2d_small.grid, 21)
    out = apply(op, w)
    sym = symmetrize_radial(out)
    assert np.max(np.abs(out.values - sym.values)) < 1e-12 * max(
        norm_lq(out, math.inf), 1.0)


@pytest.mark.parametrize("c", [4.0, 16.0, 64.0])
def test_roundtrip_recovers_input(gs2d_small, c):
    op = linearized_operator(ReducedParams(2, 3.0, c), gs2d_small)
    for seed in range(5):
        g = _random_radial(gs2d_small.grid, 100 + seed)
        f = apply(op, g)
        w = invert(op, f, tol=1e-10)
        assert norm_lq(Field(gs2d_small.grid, w.values - g.values), 2) <= 1e-9


def test_invert_ground_state_at_large_speed(gs2d_small):
    op = linearized_operator(ReducedParams(2, 3.0, 1e8), gs2d_small)
    w = invert(op, gs2d_small.u, tol=1e-10)
    back = apply(op, w)
    err = norm_lq(Field(gs2d_small.grid, back.values - gs2d_small.u.values), 2)
    assert err <= 1e-9 * norm_lq(gs2d_small.u, 2)


def test_invert_requires_symmetrized_input(gs2d_small):
    op = linearized_operator(ReducedParams(2, 3.0, 16.0), gs2d_small)
    d1 = gradient(gs2d_small.u)[0]  # odd in x_1, not radial
    with pytest.raises(SymmetryError):
        invert(op, d1)


def test_kernel_direction_defeats_unprojected_inversion(gs2d_small):
    # d_1 u_inf spans the translation kernel of the limit operator; without the
    # radial projection the inversion must fail to meet tolerance (or blow up)
    op = linearized_operator(ReducedParams(2, 3.0, math.inf), gs2d_small)
    grid = op.grid
    d1 = gradient(gs2d_small.u)[0]

    def apply_b(v):  # invert()'s Krylov operator without the radial projection
        flat = v.reshape(grid.shape)
        return (flat - op.potential.values
                * half_spectrum_apply(grid, flat, op.inv_pc_half)).ravel()

    b = d1.values.ravel()
    try:
        v, _ = _gmres(apply_b, b, 0.8e-10 * np.linalg.norm(b), 50, 500)
    except (StagnationError, ConvergenceError):
        return
    w = Field(grid, half_spectrum_apply(grid, v.reshape(grid.shape), op.inv_pc_half))
    assert norm_h1(w) > 1e3 * norm_h1(d1)


def test_invert_zero_rhs(gs2d_small):
    op = linearized_operator(ReducedParams(2, 3.0, 16.0), gs2d_small)
    w = invert(op, Field.zeros(gs2d_small.grid))
    assert np.max(np.abs(w.values)) == 0.0


def test_smoothing_constant_stable_in_c(gs2d_small):
    sups = []
    for c in (4.0, 64.0, 256.0):
        op = linearized_operator(ReducedParams(2, 3.0, c), gs2d_small)
        worst = 0.0
        for seed in range(5):
            f = _random_radial(gs2d_small.grid, 300 + seed)
            w = invert(op, f, tol=1e-10)
            worst = max(worst, norm_h1(w) / norm_lq(f, 2))
        sups.append(worst)
    assert max(sups) < 2.0 * min(sups), sups


def test_single_mode_inverse_difference_ratio():
    # on one Fourier mode the multiplier difference acts as the scalar a(xi_0)
    grid = Grid(1, 64, math.pi)
    k = 5.0
    f = Field.from_function(grid, lambda x: np.cos(k * x))
    for c in (4.0, 32.0):
        a = inverse_difference(c)
        g = Field(grid, half_spectrum_apply(grid, f.values,
                                            half_spectrum_multiplier(grid, a)))
        ratio = norm_lq(g, 2) / norm_lq(f, 2)
        assert ratio == pytest.approx(abs(float(a(np.array(k * k)))), rel=1e-12)


def test_probe_parseval_bound(grid2d_small):
    for c in (4.0, 64.0):
        rep = operator_norm_probe(grid2d_small, c, 2.0, trials=8, seed=0)
        assert rep.inv_diff_ratio <= rep.lattice_sup + 1e-10
        assert rep.lower_ratio > 0 and rep.upper_ratio > 0


def test_probe_deterministic(grid2d_small):
    a = operator_norm_probe(grid2d_small, 8.0, 4.0, trials=5, seed=3)
    b = operator_norm_probe(grid2d_small, 8.0, 4.0, trials=5, seed=3)
    assert a == b


def test_operator_grid_mismatch(gs2d_small):
    op = linearized_operator(ReducedParams(2, 3.0, 16.0), gs2d_small)
    other = Field.zeros(Grid(2, 64, 20.0))
    with pytest.raises(ValueError):
        invert(op, other)

import itertools
import math

import numpy as np
import pytest

from prnls import linsolve, spectral
from prnls.diagnostics import action, check_identities
from prnls.errors import ConvergenceError
from prnls.ground_state import solve_limit_equation
from prnls.linsolve import _gmres, invert, linearized_operator, operator_norm_probe
from prnls.params import ReducedParams
from prnls.spectral import (Field, Grid, gradient, half_spectrum_apply,
                            half_spectrum_multiplier, intersection_norm, norm_h1, norm_lq,
                            plancherel_sum, symmetrize_radial)
from prnls.symbols import inverse_difference

from conftest import sample_field
from fft_reference import (block_apply, block_potential, fft_plancherel_sum, full_grid_invert,
                           full_grid_krylov_operator, full_grid_pc, full_grid_potential, gather,
                           lift, lstsq_gmres, random_band_limited)


def _random_radial(grid, seed, kmax=4.0):
    """A radial band-limited field of unit L^2 norm, on grid's even block."""
    f = random_band_limited(grid, np.random.default_rng(seed), kmax)
    f = symmetrize_radial(grid.even.restrict(f))
    return Field(f.grid, f.values / norm_lq(f, 2))


def test_invert_raises_when_the_norm_of_f_overflows():
    # invert's right-hand side b is finite but ||b|| overflows to inf (its dot
    # product warns of the overflow); invert must name the overflow before
    # GMRES runs, not report the nan residual of a Krylov solve that never ran
    rp = ReducedParams(2, 3.0, 16.0)
    gs = solve_limit_equation(rp, Grid(2, 32, 10.0))
    with pytest.warns(RuntimeWarning, match="overflow"), \
            pytest.raises(ConvergenceError, match="right-hand side norm overflows"):
        invert(linearized_operator(rp, gs), 1e160 * gs.u_even)


def test_apply_zero_is_zero(gs2d_small):
    op = linearized_operator(ReducedParams(2, 3.0, 16.0), gs2d_small)
    out = block_apply(op, Field.zeros(gs2d_small.grid.even))
    assert np.max(np.abs(out.values)) == 0.0


def test_potential_invariants(gs2d_small):
    op = linearized_operator(ReducedParams(2, 3.0, 16.0), gs2d_small)
    # nonnegative everywhere (the far field of the wave carries exact zeros),
    # strictly positive on the bulk, and radially symmetric
    pot = block_potential(op)
    assert np.all(pot.values >= 0.0)
    bulk = gs2d_small.grid.even.radius_sq <= (gs2d_small.grid.L / 3.0) ** 2
    assert np.all(pot.values[bulk] > 0.0)
    sym = symmetrize_radial(pot)
    assert np.max(np.abs(sym.values - pot.values)) < 1e-10


@pytest.mark.parametrize("name", ["gs1d", "gs2d_small", "gs3d"])
def test_block_potential_is_the_full_grid_formula(name, request):
    # u, p max(u, 0)^{p-1} and max(u, 0)^p work point by point, so building
    # them at the orbit representatives gives the block formulas read there,
    # and expanding and lifting the potential gives the full-grid formula, bit
    # for bit
    gs = request.getfixturevalue(name)
    op = linearized_operator(ReducedParams(gs.grid.n, gs.p, 16.0), gs)
    block = gs.grid.even
    u = lift(block, gs.u_even)
    ref = gs.p * np.maximum(u.values, 0.0) ** (gs.p - 1.0)
    assert np.array_equal(full_grid_potential(op).values, ref)
    assert np.array_equal(block_potential(op).values, gather(block, ref))
    reps = block.orbits.reps
    positive = np.maximum(gs.u_even.values, 0.0)
    for got, formula in ((op.u, gs.u_even.values), (op.potential, gs.p * positive ** (gs.p - 1.0)),
                         (op.source, positive ** gs.p)):
        assert np.array_equal(got, formula.ravel()[reps])


def test_limit_operator_on_ground_state(gs2d_small):
    # with the nonrelativistic symbol the operator sends u_inf to (1-p) u_inf^p
    op = linearized_operator(ReducedParams(2, 3.0, math.inf), gs2d_small)
    u = gs2d_small.u_even
    got = block_apply(op, u)
    expected = (1.0 - 3.0) * np.maximum(u.values, 0.0) ** 3
    diff = norm_lq(Field(u.grid, got.values - expected), 2)
    assert diff < 1e-8


def test_apply_preserves_symmetry(gs2d_small):
    op = linearized_operator(ReducedParams(2, 3.0, 16.0), gs2d_small)
    w = _random_radial(gs2d_small.grid, 21)
    out = block_apply(op, w)
    sym = symmetrize_radial(out)
    assert np.max(np.abs(out.values - sym.values)) < 1e-12 * max(
        norm_lq(out, math.inf), 1.0)


@pytest.mark.parametrize("c", [4.0, 16.0, 64.0])
def test_roundtrip_recovers_input(gs2d_small, c):
    op = linearized_operator(ReducedParams(2, 3.0, c), gs2d_small)
    for seed in range(5):
        g = _random_radial(gs2d_small.grid, 100 + seed)
        f = block_apply(op, g)
        w = invert(op, f, tol=1e-10)
        assert norm_lq(w - g, 2) <= 1e-9


def test_invert_ground_state_at_large_speed(gs2d_small):
    op = linearized_operator(ReducedParams(2, 3.0, 1e8), gs2d_small)
    u = gs2d_small.u_even
    w = invert(op, u, tol=1e-10)
    err = norm_lq(block_apply(op, w) - u, 2)
    assert err <= 1e-9 * norm_lq(u, 2)


def test_invert_solves_for_the_radial_projection(gs2d_small):
    # a right-hand side that is even but not permutation-symmetric is solved
    # for its radial projection, and the result is radial
    op = linearized_operator(ReducedParams(2, 3.0, 16.0), gs2d_small)
    grid = gs2d_small.grid
    f = grid.even.restrict(random_band_limited(grid, np.random.default_rng(41), 4.0))
    sym_f = symmetrize_radial(f)
    assert np.max(np.abs(sym_f.values - f.values)) > 1e-2 * norm_lq(f, math.inf)
    w = invert(op, f, tol=1e-10)
    assert norm_lq(block_apply(op, w) - sym_f, 2) <= 1e-9 * norm_lq(sym_f, 2)
    asym = np.max(np.abs(symmetrize_radial(w).values - w.values))
    assert asym <= 1e-12 * norm_lq(w, math.inf)


def test_kernel_direction_defeats_unprojected_inversion(gs2d_small):
    # d_1 u_inf spans the translation kernel of the limit operator; without the
    # radial projection the inversion must fail to meet tolerance (or blow up)
    op = linearized_operator(ReducedParams(2, 3.0, math.inf), gs2d_small)
    grid = op.grid
    d1 = gradient(lift(gs2d_small.grid.even, gs2d_small.u_even))[0]
    apply_b = full_grid_krylov_operator(op, project=False)

    b = d1.values.ravel()
    try:
        v, _ = _gmres(apply_b, b, 0.8e-10 * np.linalg.norm(b))
    except ConvergenceError:
        return
    w = Field(grid, half_spectrum_apply(grid, v.reshape(grid.shape), 1.0 / full_grid_pc(op)))
    h1_weight = lambda r2: 1.0 + r2
    assert fft_plancherel_sum(w, h1_weight) > 1e6 * fft_plancherel_sum(d1, h1_weight)


@pytest.fixture(scope="module")
def gs3d_coarse():
    return solve_limit_equation(ReducedParams(3, 1.8, 8.0), Grid(3, 32, 8.0))


# worst relative L^2 gap between invert() and full_grid_invert, measured over
# 40 random radial right-hand sides in each of the four cases: 1.2e-15
_FULL_GRID_ORACLE_FLOOR = 1e-14


@pytest.mark.parametrize("c", [4.0, 64.0])
@pytest.mark.parametrize("dim", [2, 3])
def test_invert_matches_full_grid_krylov_reference(dim, c, gs2d_small, gs3d_coarse,
                                                    monkeypatch):
    # the even-block Krylov solve in sqrt(weights) variables is the full-grid
    # one: the same operator applications, and the same solution to roundoff
    gs = gs2d_small if dim == 2 else gs3d_coarse
    op = linearized_operator(ReducedParams(dim, gs.p, c), gs)
    applied = []
    gmres = linsolve._gmres

    def counting_gmres(apply_b, *args, **kwargs):
        def counted(v):
            applied.append(1)
            return apply_b(v)
        return gmres(counted, *args, **kwargs)

    monkeypatch.setattr(linsolve, "_gmres", counting_gmres)
    block = op.grid.even
    for seed in (0, 1):
        f = _random_radial(op.grid, seed)
        ref, matvecs = full_grid_invert(op, lift(block, f), 1e-10)
        applied.clear()
        w = invert(op, f, tol=1e-10)
        assert len(applied) == matvecs
        assert norm_lq(lift(block, w) - ref, 2) <= _FULL_GRID_ORACLE_FLOOR * norm_lq(ref, 2)


def _counted(apply_b):
    calls = []

    def counted(v):
        calls.append(1)
        return apply_b(v)
    return counted, calls


# worst relative gap between _gmres and lstsq_gmres, measured over 40 random
# radial right-hand sides in each of the four cases, at restart 50 and 5:
# 1.0e-14 (2-D, c = 4)
_LSTSQ_ORACLE_FLOOR = 2e-14


@pytest.mark.parametrize("c", [4.0, 64.0])
@pytest.mark.parametrize("dim", [2, 3])
def test_gmres_matches_lstsq_reference(dim, c, gs2d_small, gs3d_coarse, monkeypatch):
    # the Givens residual is the least-squares residual: the same iterations,
    # and the same solution to roundoff, both at invert()'s restart length and
    # at one short enough to restart (set by linsolve._RESTART, which _gmres
    # reads); _gmres makes one operator application fewer, since it starts
    # from r = b where the oracle applies the operator to x = 0
    gs = gs2d_small if dim == 2 else gs3d_coarse
    op = linearized_operator(ReducedParams(dim, gs.p, c), gs)
    gmres = linsolve._gmres
    calls = []

    def capturing_gmres(*args):
        calls.append(args)
        return gmres(*args)

    monkeypatch.setattr(linsolve, "_gmres", capturing_gmres)
    restart = linsolve._RESTART
    for seed in (0, 1):
        monkeypatch.setattr(linsolve, "_RESTART", restart)
        calls.clear()
        invert(op, _random_radial(op.grid, seed), tol=1e-10)
        apply_b, b, tol_abs = calls[0]
        for length in (restart, 5):
            monkeypatch.setattr(linsolve, "_RESTART", length)
            new_b, new_calls = _counted(apply_b)
            ref_b, ref_calls = _counted(apply_b)
            x, iterations = gmres(new_b, b, tol_abs)
            ref, ref_iterations = lstsq_gmres(ref_b, b, tol_abs, length, linsolve._MAX_KRYLOV)
            assert iterations == ref_iterations
            assert len(new_calls) == len(ref_calls) - 1
            if length == 5:
                assert iterations > 2 * length  # at least two restarts
            assert np.linalg.norm(x - ref) <= _LSTSQ_ORACLE_FLOOR * np.linalg.norm(ref)


@pytest.mark.parametrize("name, size", [("gs2d_small", 2145), ("gs3d", 6545)])
def test_krylov_runs_on_the_orbit_representatives(name, size, request, monkeypatch):
    # C(N/2+n, n) unknowns: the orbits j_1 <= ... <= j_n of 65^2 and 33^3
    gs = request.getfixturevalue(name)
    op = linearized_operator(ReducedParams(gs.grid.n, gs.p, 16.0), gs)
    gmres = linsolve._gmres
    sizes = []

    def capturing_gmres(apply_b, b, *args):
        sizes.append(b.size)
        return gmres(apply_b, b, *args)

    monkeypatch.setattr(linsolve, "_gmres", capturing_gmres)
    invert(op, _random_radial(op.grid, 0), tol=1e-10)
    assert sizes == [size] == [math.comb(gs.grid.N // 2 + gs.grid.n, gs.grid.n)]


# largest |B v - B v permuted| / max |B v| of the block matvec B = Id - pot
# P_c^{-1} on expanded random y, measured on 65^2, 129^2, 33^3 and 17^3: 1.24e-15
_MATVEC_SYMMETRY_FLOOR = 1.5e-15


@pytest.mark.parametrize("name", ["gs2d_small", "gs2d", "gs3d", "gs3d_coarse"])
def test_matvec_output_is_permutation_symmetric(name, request, monkeypatch):
    # the matvec reads its block output at the representatives and takes no
    # permutation average: an expanded y is exactly symmetric, and its image
    # is symmetric to rounding
    gs = request.getfixturevalue(name)
    op = linearized_operator(ReducedParams(gs.grid.n, gs.p, 4.0), gs)
    gmres = linsolve._gmres
    captured = []

    def capturing_gmres(apply_b, *args):
        captured.append(apply_b)
        return gmres(apply_b, *args)

    monkeypatch.setattr(linsolve, "_gmres", capturing_gmres)
    invert(op, _random_radial(op.grid, 0), tol=1e-10)
    block = op.grid.even
    orbits = block.orbits
    scale = np.sqrt(orbits.weights)
    for seed in range(3):
        y = np.random.default_rng(seed).standard_normal(orbits.reps.size)
        v = (y / scale)[orbits.expand].reshape(block.shape)
        out = v - block_potential(op).values * half_spectrum_apply(block, v, op.inv_pc_even)
        assert np.array_equal(captured[0](y), out.ravel()[orbits.reps] * scale)
        for perm in itertools.permutations(range(block.n)):
            gap = np.max(np.abs(np.transpose(out, perm) - out))
            assert gap <= _MATVEC_SYMMETRY_FLOOR * np.max(np.abs(out))


def test_invert_raises_when_its_residual_check_fails(gs2d_small, monkeypatch):
    # a Krylov solution off by 1e-3 of its size passes GMRES's own test but
    # not invert's residual check on the original system
    gmres = linsolve._gmres

    def perturbed_gmres(*args):
        y, iterations = gmres(*args)
        return y * (1.0 + 1e-3), iterations

    monkeypatch.setattr(linsolve, "_gmres", perturbed_gmres)
    op = linearized_operator(ReducedParams(2, 3.0, 16.0), gs2d_small)
    with pytest.raises(ConvergenceError, match="after krylov convergence"):
        invert(op, _random_radial(gs2d_small.grid, 0), tol=1e-10)


def test_invert_symmetrizes_once(gs2d_small, monkeypatch):
    # the right-hand side is projected by an orbit mean at the representatives;
    # only the solution passes through symmetrize_radial
    calls = []

    def counted(f):
        calls.append(1)
        return symmetrize_radial(f)

    monkeypatch.setattr(linsolve, "symmetrize_radial", counted)
    op = linearized_operator(ReducedParams(2, 3.0, 16.0), gs2d_small)
    invert(op, _random_radial(gs2d_small.grid, 0), tol=1e-10)
    assert len(calls) == 1


def test_invert_zero_rhs(gs2d_small):
    op = linearized_operator(ReducedParams(2, 3.0, 16.0), gs2d_small)
    w = invert(op, Field.zeros(gs2d_small.grid.even))
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
    f = sample_field(grid, lambda x: np.cos(k * x))
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


@pytest.mark.parametrize("n, N", [(2, 32), (3, 16)])
def test_probe_takes_two_plus_n_plus_the_j_ge_i_second_partials_per_field(n, N, monkeypatch):
    # per field: P_c f and a f, the n first partials and the n(n+1)/2 second
    # partials d_j d_i f with j >= i, besides the pair that builds the field
    pairs = []

    def counted(*args):
        pairs.append(1)
        return half_spectrum_apply(*args)

    monkeypatch.setattr(linsolve, "half_spectrum_apply", counted)
    monkeypatch.setattr(spectral, "half_spectrum_apply", counted)
    trials = 4
    rep = operator_norm_probe(Grid(n, N, 8.0), 8.0, 2.0, trials=trials, seed=0)
    assert rep.trials == trials
    assert len(pairs) == trials * (1 + 2 + n + n * (n + 1) // 2)


def test_probe_deterministic(grid2d_small):
    a = operator_norm_probe(grid2d_small, 8.0, 4.0, trials=5, seed=3)
    b = operator_norm_probe(grid2d_small, 8.0, 4.0, trials=5, seed=3)
    assert a == b


def test_operator_grid_mismatch(gs2d_small):
    # fields of another grid, of its block, and of the operator's own full
    # grid: invert and the block reference operator take only the operator's
    # even block
    rp = ReducedParams(2, 3.0, 16.0)
    op = linearized_operator(rp, gs2d_small)
    other = Grid(2, 64, 20.0)
    for f in (Field.zeros(other), Field.zeros(other.even), Field.zeros(gs2d_small.grid)):
        with pytest.raises(ValueError):
            invert(op, f)
        with pytest.raises(ValueError):
            block_apply(op, f)
    # the radial quantities take only block fields, and intersection_norm
    # only permutation-symmetric ones
    full = Field.zeros(gs2d_small.grid)
    for measure in (lambda f: plancherel_sum(f, lambda r2: 1.0 + r2), norm_h1,
                    intersection_norm, lambda f: check_identities(f, rp),
                    lambda f: action(f, rp)):
        with pytest.raises(ValueError, match="EvenBlock.restrict"):
            measure(full)
    block = gs2d_small.grid.even
    skew = Field(block, np.indices(block.shape)[0].astype(np.float64))
    with pytest.raises(ValueError, match="symmetrize_radial"):
        intersection_norm(skew)

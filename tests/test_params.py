import math

import numpy as np
import pytest

from prnls.params import (PhysicalParams, ReducedParams, lift_solution, physical_frame,
                          reduce_params)
from prnls.spectral import Field, Grid, norm_lq, signed_power
from fft_reference import fft_multiplier, lift, relativistic_symbol


def test_reduce_worked_examples():
    assert reduce_params(PhysicalParams(n=2, p=3.0, m=0.5, mu=1.0, c=4.0)).c_tilde == pytest.approx(4.0, rel=1e-15)
    assert reduce_params(PhysicalParams(n=2, p=3.0, m=1.0, mu=2.0, c=4.0)).c_tilde == pytest.approx(4.0, rel=1e-15)
    assert reduce_params(PhysicalParams(n=3, p=2.0, m=0.5, mu=4.0, c=5.0)).c_tilde == pytest.approx(2.5, rel=1e-15)


def test_reduce_keeps_n_and_p():
    rp = reduce_params(PhysicalParams(n=3, p=2.2, m=0.7, mu=1.3, c=6.0))
    assert rp.n == 3 and rp.p == 2.2


def test_reduce_invariant_under_joint_scaling():
    # (m, mu, c) -> (lam m, lam mu, c) leaves the reduced speed unchanged
    rng = np.random.default_rng(41)
    base = PhysicalParams(n=2, p=3.0, m=0.8, mu=2.5, c=7.0)
    target = reduce_params(base).c_tilde
    for lam in rng.uniform(0.1, 10.0, size=8):
        scaled = PhysicalParams(n=2, p=3.0, m=lam * 0.8, mu=lam * 2.5, c=7.0)
        assert reduce_params(scaled).c_tilde == pytest.approx(target, rel=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError, match="p > 1"):
        PhysicalParams(n=2, p=0.5, m=0.5, mu=1.0, c=4.0)
    with pytest.raises(ValueError):
        PhysicalParams(n=4, p=3.0, m=0.5, mu=1.0, c=4.0)
    with pytest.raises(ValueError):
        PhysicalParams(n=2, p=3.0, m=0.0, mu=1.0, c=4.0)
    with pytest.raises(ValueError):
        PhysicalParams(n=2, p=3.0, m=0.5, mu=-1.0, c=4.0)
    for m, mu in ((math.inf, 1.0), (0.5, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            PhysicalParams(n=2, p=3.0, m=m, mu=mu, c=4.0)
    with pytest.raises(ValueError, match="c_tilde"):  # c_tilde overflows
        reduce_params(PhysicalParams(n=2, p=3.0, m=1e-300, mu=1e300, c=16.0))
    with pytest.raises(ValueError):
        PhysicalParams(n=2, p=3.0, m=0.5, mu=1.0, c=0.0)
    with pytest.raises(ValueError):
        ReducedParams(2, 3.0, -2.0)


def test_critical_exponents():
    rp2 = ReducedParams(2, 3.0, 8.0)
    assert rp2.critical_half == pytest.approx(3.0)
    assert rp2.critical_sobolev == math.inf
    assert rp2.subcritical_for_construction

    rp3 = ReducedParams(3, 5.0, 8.0)
    assert rp3.critical_half == pytest.approx(2.0)
    assert rp3.critical_sobolev == pytest.approx(5.0)
    assert not rp3.subcritical_for_construction  # p = (n+2)/(n-2) exactly

    assert ReducedParams(1, 9.0, 8.0).critical_half == math.inf


def test_lift_identity_when_already_reduced():
    grid = Grid(1, 128, 12.0)
    v = Field(grid.even, np.exp(-grid.even.radius_sq))
    params = PhysicalParams(n=1, p=3.0, m=0.5, mu=1.0, c=4.0)
    lifted = lift_solution(v, params)
    assert lifted.grid == grid.even and np.array_equal(lifted.values, v.values)


def test_lift_scaling_factors():
    # mu = 4, p = 3, m = 1/2: amplitude mu^{1/(p-1)} = 2, coordinate sqrt(2 m mu) = 2
    grid = Grid(1, 256, 12.0)
    v = Field(grid.even, np.exp(-grid.even.radius_sq))
    params = PhysicalParams(n=1, p=3.0, m=0.5, mu=4.0, c=4.0)
    target = Grid(1, 256, 6.0)
    assert physical_frame(grid, params) == (target, 2.0)
    lifted = lift_solution(v, params)
    assert lifted.grid == target.even
    expected = 2.0 * np.exp(-4.0 * target.even.radius_sq)
    assert np.max(np.abs(lifted.values - expected)) < 1e-14


# (n, p, fixture of its ground state on the default-sized test grid)
_LIFT_FAMILIES = ((1, 3.0, "gs1d"), (2, 3.0, "gs2d"), (3, 1.8, "gs3d"))
# (m, mu, c): mu = 2m, where c_tilde = c, and mu != 2m, where c_tilde = c sqrt(2m / mu)
_LIFT_FRAMES = ((1.0, 2.0, 16.0), (0.3, 3.0, 40.0))


def test_lifted_residual_nearly_solves_physical_equation(request):
    # Solve the reduced problem, lift it, and check the lifted field against
    # the physical equation directly. The lift sends lattice point j of the
    # reduced grid to lattice point j of the physical one, so it is
    # mu^{1/(p-1)} u_c bit for bit, and the physical symbol at the physical
    # frequencies is mu times P_c - 1 at the reduced ones: the physical
    # residual is the reduced solve's own, relative to the source term.
    # Measured worst over these six cases: 1.2e-12.
    from prnls.fixed_point import solve

    for n, p, name in _LIFT_FAMILIES:
        gs = request.getfixturevalue(name)
        for m, mu, c in _LIFT_FRAMES:
            params = PhysicalParams(n=n, p=p, m=m, mu=mu, c=c)
            u_c, rep = solve(reduce_params(params), gs.grid, gs=gs)
            assert rep.converged, (n, m, mu)
            with pytest.raises(ValueError, match="restrict"):  # solve returns u_c on the block
                lift_solution(lift(gs.grid.even, u_c), params)
            lifted = lift_solution(u_c, params)
            target = Grid(n, gs.grid.N, gs.grid.L / math.sqrt(2.0 * m * mu))
            assert lifted.grid == target.even
            assert np.array_equal(lifted.values, mu ** (1.0 / (p - 1.0)) * u_c.values)
            u = lift(target.even, lifted)
            source = signed_power(u.values, p)
            resid = fft_multiplier(relativistic_symbol(m, c), u).values + mu * u.values - source
            rel = norm_lq(Field(target, resid), 2) / norm_lq(Field(target, source), 2)
            assert rel <= 1e-9, (n, m, mu, rel)

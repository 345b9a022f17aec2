import math

import numpy as np
import pytest

from prnls.errors import DomainOverflowError
from prnls.params import PhysicalParams, ReducedParams, lift_solution, reduce_params
from prnls.spectral import Field, Grid, norm_lq, signed_power
from prnls.symbols import relativistic_symbol

from fft_reference import fft_multiplier


def test_reduce_worked_examples():
    assert reduce_params(PhysicalParams(n=2, p=3.0, m=0.5, mu=1.0, c=4.0)).c_tilde == pytest.approx(4.0, rel=1e-15)
    assert reduce_params(PhysicalParams(n=2, p=3.0, m=1.0, mu=2.0, c=4.0)).c_tilde == pytest.approx(4.0, rel=1e-15)
    assert reduce_params(PhysicalParams(n=3, p=2.0, m=0.5, mu=4.0, c=5.0)).c_tilde == pytest.approx(10.0, rel=1e-15)


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


def test_q_default_is_2n():
    assert ReducedParams(1, 3.0, 8.0).q_default == 2.0
    assert ReducedParams(2, 3.0, 8.0).q_default == 4.0
    assert ReducedParams(3, 1.8, 8.0).q_default == 6.0


def test_lift_identity_when_already_reduced():
    grid = Grid(1, 128, 12.0)
    v = Field.from_function(grid, lambda x: np.exp(-(x ** 2)))
    params = PhysicalParams(n=1, p=3.0, m=0.5, mu=1.0, c=4.0)
    lifted = lift_solution(v, params, grid)
    assert np.max(np.abs(lifted.values - v.values)) < 1e-13


def test_lift_scaling_factors():
    # mu = 4, p = 3, m = 1/2: amplitude mu^{1/(p-1)} = 2, coordinate sqrt(2 m mu) = 2
    grid = Grid(1, 256, 12.0)
    v = Field.from_function(grid, lambda x: np.exp(-(x ** 2)))
    params = PhysicalParams(n=1, p=3.0, m=0.5, mu=4.0, c=4.0)
    target = Grid(1, 256, 6.0)
    lifted = lift_solution(v, params, target)
    expected = 2.0 * np.exp(-((2.0 * target.axis_coords) ** 2))
    assert np.max(np.abs(lifted.values - expected)) < 1e-10


def test_lift_rejects_oversized_target():
    grid = Grid(1, 128, 12.0)
    v = Field.from_function(grid, lambda x: np.exp(-(x ** 2)))
    params = PhysicalParams(n=1, p=3.0, m=0.5, mu=4.0, c=4.0)
    with pytest.raises(DomainOverflowError):
        lift_solution(v, params, Grid(1, 128, 10.0))  # 2 * 10 > 12


def test_lifted_residual_nearly_solves_physical_equation(grid2d, gs2d):
    # Solve the reduced problem, lift it, and check the lifted field against the
    # physical equation directly.  With scale sqrt(2 m mu) = 2 the target lattice
    # maps exactly onto the source lattice, so the lift is a pure relabeling of
    # lattice data (amplitude mu^{1/(p-1)} = sqrt(2)) up to the resampler dropping
    # the unpaired Nyquist plane.  The physical residual therefore bottoms out at
    # the source solution's spectral-tail mass at the shared cutoff, amplified by
    # the first-order growth of the symbol (~ c|xi| ~ 3e2 here) -- about 2e-6 at
    # this resolution -- rather than at the reduced solver's 1e-12 tolerance.
    from prnls.fixed_point import solve

    params = PhysicalParams(n=2, p=3.0, m=1.0, mu=2.0, c=16.0)
    assert reduce_params(params).c_tilde == pytest.approx(16.0)
    u_c, rep = solve(ReducedParams(2, 3.0, 16.0), grid2d, gs=gs2d)
    assert rep.converged and rep.final_residual < 1e-10

    target = Grid(2, 256, 10.0)  # scale sqrt(2 m mu) = 2 halves the box
    lifted = lift_solution(u_c, params, target)
    transfer_dev = np.max(np.abs(lifted.values - math.sqrt(2.0) * u_c.values))
    assert transfer_dev < 1e-7

    sym = relativistic_symbol(params.m, params.c)
    resid = fft_multiplier(sym, lifted).values + params.mu * lifted.values \
        - signed_power(lifted.values, params.p)
    physical = norm_lq(Field(target, resid), 2)
    assert physical < 1e-4

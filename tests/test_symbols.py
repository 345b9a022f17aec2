import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prnls.symbols import (check_derivative_bounds, check_difference_bound,
                           check_pointwise_bounds, inverse_difference, p_c,
                           p_infty_minus_p_c, relativistic_symbol,
                           sigma_halfspace, symbol_ratio)

_SAMPLE_R2 = np.geomspace(1e-12, 1e12, 2000)


def naive_p_c(r2, c: float, dtype=np.float64):
    """Textbook evaluation sqrt(c^2 r2 + c^4/4) - c^2/2 + 1 in a chosen dtype.

    Catastrophically cancels for |xi| << c in float64; used as an oracle in
    extended precision and as a counterexample in double precision.
    """
    r2 = np.asarray(r2, dtype=dtype)
    c = dtype(c)
    one = dtype(1.0)
    return np.sqrt(c * c * r2 + c ** 4 / dtype(4.0)) - c * c / dtype(2.0) + one


# worst relative errors against the 100-digit oracle below, over 230,000
# log-uniform draws of r2 in [1e-12, 1e12] and c in [1e-2, 1e6]: 3.05e-16
# (P_c), 7.63e-16 (P_inf - P_c) and 1.05e-15 (1/P_inf - 1/P_c)
_P_C_FLOOR = 3.2e-16
_DIFFERENCE_FLOOR = 8e-16
_INVERSE_DIFFERENCE_FLOOR = 1.1e-15
_DIGITS = decimal.Context(prec=100)


def decimal_symbols(r2: float, c: float):
    """P_c, P_inf - P_c and 1/P_inf - 1/P_c by the textbook formulas, to 100 digits.

    longdouble cannot serve here: its 64-bit mantissa cannot resolve the
    cancellation, which grows like c^2 / r2; 100 digits leave over 50 after
    the worst of it in this range.
    """
    ctx = _DIGITS
    r2, c = decimal.Decimal(r2), decimal.Decimal(c)
    c2 = ctx.multiply(c, c)
    root = ctx.sqrt(ctx.add(ctx.multiply(c2, r2), ctx.divide(ctx.multiply(c2, c2), 4)))
    pc = ctx.add(ctx.subtract(root, ctx.divide(c2, 2)), 1)
    pinf = ctx.add(r2, 1)
    return pc, ctx.subtract(pinf, pc), ctx.subtract(ctx.divide(1, pinf), ctx.divide(1, pc))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(-12.0, 12.0), st.floats(-2.0, 6.0))
def test_symbols_match_a_100_digit_oracle(log_r2, log_c):
    r2, c = 10.0 ** log_r2, 10.0 ** log_c
    floors = (_P_C_FLOOR, _DIFFERENCE_FLOOR, _INVERSE_DIFFERENCE_FLOOR)
    for sym, ref, floor in zip((p_c, p_infty_minus_p_c, inverse_difference),
                               decimal_symbols(r2, c), floors):
        got = decimal.Decimal(float(sym(c)(np.float64(r2))))
        assert abs(got - ref) <= decimal.Decimal(floor) * abs(ref)


def test_p_c_at_origin_is_one():
    for c in (2.0, 7.5, 64.0, 1024.0):
        assert p_c(c)(np.array(0.0)) == 1.0


def test_p_c_direct_arithmetic():
    # c=2, |xi|=1: sqrt(4 + 4) - 2 + 1 = 2 sqrt(2) - 1
    assert float(p_c(2.0)(np.array(1.0))) == pytest.approx(2 * math.sqrt(2) - 1, abs=1e-14)


def test_p_c_stable_at_extreme_speed():
    # At c = 1e6, r^2 = 1 the exact value is 2 - r^4/c^2 + O(c^-4), i.e.
    # 2 - 1e-12 up to 1e-24.  The correction is a relative 2e-24 of the sqrt
    # argument, so even an 80-bit extended-precision evaluation of the naive
    # formula rounds it away (returns exactly 2.0); the rearranged form is
    # the only one of the three that keeps it.
    c = 1.0e6
    expected = 2.0 - 1e-12
    stable = float(p_c(c)(np.array(1.0)))
    oracle = float(naive_p_c(np.longdouble(1.0), c, dtype=np.longdouble))
    naive64 = float(naive_p_c(np.array(1.0), c))
    assert abs(stable - expected) < 1e-13
    assert abs(oracle - expected) > 10 * max(abs(stable - expected), 1e-16)
    assert abs(naive64 - expected) > 10 * max(abs(stable - expected), 1e-16)


def test_p_c_matches_naive_formula_away_from_cancellation():
    for c in (2.0, 32.0, 1024.0):
        r2 = _SAMPLE_R2[_SAMPLE_R2 >= (c / 100.0) ** 2]
        stable = p_c(c)(r2)
        naive = naive_p_c(r2, c)
        assert np.max(np.abs(stable - naive) / np.abs(naive)) < 1e-9


def test_p_infty_values():
    sym = p_c(math.inf)  # P_inf = |xi|^2 + 1 is the c = inf limit
    assert sym(np.array(0.0)) == 1.0
    assert sym(np.array(4.0)) == 5.0  # |xi| = 2


def test_symbols_are_radial():
    # the evaluation depends on xi only through |xi|^2: rotating xi leaves it fixed
    rng = np.random.default_rng(17)
    for _ in range(5):
        xi = rng.standard_normal(3)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rot = q @ xi
        for sym in (p_c(4.0), p_c(math.inf), sigma_halfspace(4.0)):
            a = float(sym(np.array(xi @ xi)))
            b = float(sym(np.array(rot @ rot)))
            assert a == pytest.approx(b, rel=1e-10)


def test_pointwise_bounds_spot_values():
    # c=2, |xi|=1 (below sqrt(3) c / 2): quadratic window [1, 2]
    v1 = float(p_c(2.0)(np.array(1.0)))
    assert 1.0 <= v1 <= 2.0
    # c=2, |xi|=10 (above): linear window [10.5, 21]; value is sqrt(404) - 1
    v10 = float(p_c(2.0)(np.array(100.0)))
    assert v10 == pytest.approx(math.sqrt(404) - 1, abs=1e-12)
    assert 10.5 <= v10 <= 21.0


@pytest.mark.parametrize("c", [2.0, 32.0])
def test_pointwise_bounds_sampled(c):
    for report in check_pointwise_bounds(c, samples=20000, seed=0):
        assert report.violations == 0
        # samples counts the points that landed in the report's own regime
        # (plus pinned endpoints); each regime must actually get exercised
        assert report.samples > 0


def test_difference_bound_spot_values():
    d = abs(float(p_c(2.0)(np.array(1.0))) - 2.0)
    assert d == pytest.approx(3 - 2 * math.sqrt(2), abs=1e-14)
    assert d <= 0.25  # |xi|^4 / c^2
    assert float(p_infty_minus_p_c(2.0)(np.array(0.0))) == 0.0


@pytest.mark.parametrize("c", [2.0, 32.0])
def test_difference_bound_sampled(c):
    report = check_difference_bound(c, samples=20000, seed=0)
    assert report.violations == 0


def test_difference_symbol_is_nonnegative_and_cancellation_free():
    for c in (2.0, 128.0):
        vals = p_infty_minus_p_c(c)(_SAMPLE_R2)
        assert np.all(vals >= 0.0)
        # near the origin the difference is |xi|^4 / c^2 (1 + O(|xi|^2/c^2));
        # direct subtraction loses everything here, the fused form must not
        r2 = 1e-12
        got = float(p_infty_minus_p_c(c)(np.array(r2)))
        assert got == pytest.approx(r2 * r2 / (c * c), rel=1e-9)
        # at moderate radii the naive subtraction is trustworthy; agree there
        mid = float(p_infty_minus_p_c(c)(np.array(4.0 * c)))
        naive = float(1.0 + 4.0 * c - naive_p_c(np.longdouble(4.0 * c), c,
                                                dtype=np.longdouble))
        assert mid == pytest.approx(naive, rel=1e-12)


def test_inverse_difference_sign():
    # a(xi) = 1/P_infty - 1/P_c <= 0 everywhere since P_c <= P_infty
    for c in (2.0, 32.0, 1024.0):
        vals = inverse_difference(c)(_SAMPLE_R2)
        assert np.all(vals <= 1e-18)


def test_inverse_difference_alpha0_spot_value():
    # |a(1)| at c=2 is about 0.04692, under the scaled bound 4 min{1/c^2, ...} = 1
    a = float(inverse_difference(2.0)(np.array(1.0)))
    assert abs(a) == pytest.approx(abs(0.5 - 1.0 / (2 * math.sqrt(2) - 1)), abs=1e-12)
    assert abs(a) <= 4 * min(0.25, 1.0 / (2 * math.sqrt(2)))


def test_ratio_bounded_by_one():
    for c in (2.0, 32.0):
        vals = symbol_ratio(c)(_SAMPLE_R2)
        assert np.all(vals <= 1.0 + 1e-15)
        assert np.all(vals > 0.0)


def test_derivative_bounds_report_shape_and_finiteness():
    rep = check_derivative_bounds(4.0, samples=500, seed=0)
    assert rep.c == 4.0
    assert {(row.family, row.order) for row in rep.rows} == {
        ("inverse-difference", 0), ("inverse-difference", 1), ("inverse-difference", 2),
        ("symbol-ratio", 0), ("symbol-ratio", 1), ("symbol-ratio", 2)}
    for row in rep.rows:
        assert math.isfinite(row.sup_scaled)
        assert row.sup_scaled >= 0.0


def test_derivative_bounds_c_stability_smoke():
    # the full four-point ladder runs in the acceptance suite; spot-check a pair here
    reps = {c: check_derivative_bounds(c, samples=500, seed=0)
            for c in (2.0, 32.0)}
    by_key = {}
    for c, rep in reps.items():
        for row in rep.rows:
            by_key.setdefault((row.family, row.order), []).append(row.sup_scaled)
    for key, sups in by_key.items():
        assert max(sups) < 2.0 * min(sups), f"{key}: {sups}"


def test_sigma_halfspace_values():
    sig = sigma_halfspace(4.0)
    assert float(sig(np.array(0.0))) == pytest.approx(2.0, rel=1e-15)
    assert float(sig(np.array(9.0))) == pytest.approx(math.sqrt(13.0), rel=1e-15)


def test_relativistic_symbol_reduces_to_p_c_minus_one():
    # at m = 1/2 the physical symbol is exactly P_c - 1
    for c in (2.0, 64.0):
        a = relativistic_symbol(0.5, c)(_SAMPLE_R2)
        b = p_c(c)(_SAMPLE_R2) - 1.0
        # the "- 1.0" path costs the comparison an absolute 1e-16 of noise,
        # which dominates where the symbol itself is ~1e-12
        assert np.allclose(a, b, rtol=1e-12, atol=1e-15)


def test_relativistic_symbol_nonrelativistic_limit():
    # for |xi| << c the symbol approaches |xi|^2 / (2 m)
    r2 = np.array(4.0)
    val = float(relativistic_symbol(1.0, 1e8)(r2))
    assert val == pytest.approx(2.0, rel=1e-12)


def test_symbol_validation():
    with pytest.raises(ValueError):
        p_c(0.0)
    with pytest.raises(ValueError):
        p_c(-2.0)

"""Grid/transform/norm substrate checks: exact single-mode identities, analytic
integrals, and the roundtrip/idempotence properties everything else leans on."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prnls.errors import SymmetryError
from prnls.spectral import (Field, Grid, _require_real, gradient, half_spectrum_apply,
                            half_spectrum_multiplier, norm_h1, norm_lq, norm_w1q, norm_w2q,
                            plancherel_sum, random_band_limited, read_field, resample,
                            symmetrize_radial, write_field)
from prnls.symbols import (inverse_difference, p_c, p_infty, p_infty_minus_p_c,
                           relativistic_symbol, sigma_halfspace, symbol_ratio)

from fft_reference import fft_multiplier, fft_plancherel_sum


def _random_field(grid, seed):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.standard_normal(grid.shape))


def _apply_symbol(sym, f):
    return Field(f.grid, half_spectrum_apply(f.grid, f.values,
                                             half_spectrum_multiplier(f.grid, sym)))


# ---------------------------------------------------------------- transforms

def test_roundtrip_random_fields():
    for n, N in ((1, 128), (2, 32), (3, 16)):
        grid = Grid(n, N, 7.0)
        f = _random_field(grid, 10 + n)
        back = half_spectrum_apply(grid, f.values, 1.0)
        assert np.max(np.abs(back - f.values)) < 1e-13 * norm_lq(f, math.inf)


# ---------------------------------------------------------------- multipliers

def test_multiplier_identity():
    grid = Grid(2, 32, 5.0)
    f = _random_field(grid, 0)
    g = _apply_symbol(lambda r2: np.ones_like(r2), f)
    assert np.max(np.abs(g.values - f.values)) < 1e-13 * norm_lq(f, math.inf)


def test_multiplier_eigenfunction():
    grid = Grid(1, 64, 3.0)
    f = Field.from_function(grid, lambda x: np.cos(np.pi * x / grid.L))
    g = _apply_symbol(lambda r2: r2, f)
    expected = (np.pi / grid.L) ** 2 * f.values
    assert np.max(np.abs(g.values - expected)) < 1e-12


def test_p_infty_roundtrip():
    grid = Grid(2, 32, 5.0)
    f = _random_field(grid, 1)
    g = _apply_symbol(lambda r2: 1.0 / (1.0 + r2), _apply_symbol(p_infty(), f))
    assert np.max(np.abs(g.values - f.values)) < 1e-12 * norm_lq(f, math.inf)


def test_multiplier_composition():
    grid = Grid(2, 32, 5.0)
    f = _random_field(grid, 2)
    s1 = lambda r2: 1.0 + 0.5 * r2
    s2 = lambda r2: np.exp(-0.1 * r2)
    a = _apply_symbol(s1, _apply_symbol(s2, f))
    b = _apply_symbol(lambda r2: s1(r2) * s2(r2), f)
    assert np.max(np.abs(a.values - b.values)) < 1e-12 * norm_lq(f, math.inf)


def test_inverse_rejects_broken_conjugate_symmetry():
    # the realness check resample applies after its inverse transform
    grid = Grid(1, 32, 3.0)
    bad = np.fft.fftn(_random_field(grid, 4).values)
    bad[1] *= 2.0  # break c(-k) = conj(c(k)); the imaginary residue check fires
    with pytest.raises(SymmetryError):
        _require_real(np.fft.ifftn(bad), "inverse transform")


# ------------------------------------------- half spectrum against full fftn

# measured over 400 random cases of _half_vs_full_cases: worst relative gap
# 5.3e-16 for plancherel_sum and 7.1e-16 (of the field's max) for
# half_spectrum_apply; each floor sits just above its measured value
_PLANCHEREL_FLOOR = 1e-15
_MULTIPLIER_FLOOR = 1.5e-15

_WEIGHTS = (lambda c: (lambda r2: np.ones_like(r2)), lambda c: p_infty(), p_c,
            p_infty_minus_p_c, inverse_difference, symbol_ratio, sigma_halfspace,
            lambda c: relativistic_symbol(0.5, c))


@st.composite
def _half_vs_full_cases(draw):
    grid = Grid(draw(st.integers(1, 3)), 2 * draw(st.integers(8, 32)),
                draw(st.floats(1.0, 40.0, exclude_min=True, exclude_max=True)))
    weight = draw(st.sampled_from(_WEIGHTS))(draw(st.floats(0.5, 64.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return Field(grid, rng.standard_normal(grid.shape)), weight


_HALF_VS_FULL = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@_HALF_VS_FULL
@given(_half_vs_full_cases())
def test_plancherel_sum_matches_full_fft(case):
    f, weight = case
    ref = fft_plancherel_sum(f, weight)
    assert abs(plancherel_sum(f, weight) - ref) <= _PLANCHEREL_FLOOR * abs(ref)


@_HALF_VS_FULL
@given(_half_vs_full_cases())
def test_half_spectrum_apply_matches_full_fft(case):
    f, sym = case
    ref = fft_multiplier(sym, f).values
    got = _apply_symbol(sym, f).values
    assert np.max(np.abs(got - ref)) <= _MULTIPLIER_FLOOR * np.max(np.abs(ref))


# ---------------------------------------------------------------- derivatives

def test_gradient_constant_is_zero():
    grid = Grid(2, 32, 5.0)
    for d in gradient(Field(grid, np.ones(grid.shape))):
        assert np.max(np.abs(d.values)) < 1e-14


def test_gradient_single_mode():
    grid = Grid(1, 64, 3.0)
    f = Field.from_function(grid, lambda x: np.sin(np.pi * x / grid.L))
    (df,) = gradient(f)
    expected = (np.pi / grid.L) * np.cos(np.pi * grid.axis_coords / grid.L)
    assert np.max(np.abs(df.values - expected)) < 1e-12


def test_mixed_partials_commute():
    grid = Grid(2, 32, 5.0)
    f = _random_field(grid, 5)
    dx = gradient(f)
    dxy = gradient(dx[0])[1]
    dyx = gradient(dx[1])[0]
    scale = norm_lq(dxy, math.inf)
    assert np.max(np.abs(dxy.values - dyx.values)) < 1e-12 * max(scale, 1.0)


# ---------------------------------------------------------------------- norms

@pytest.mark.parametrize("q", [1.0, 2.0, 3.5])
def test_norm_lq_constant(q):
    grid = Grid(2, 32, 5.0)
    f = Field(grid, np.ones(grid.shape))
    assert norm_lq(f, q) == pytest.approx((2 * grid.L) ** (2.0 / q), rel=1e-12)


def test_norm_linf_is_max():
    grid = Grid(1, 64, 3.0)
    f = _random_field(grid, 6)
    assert norm_lq(f, math.inf) == np.max(np.abs(f.values))


def test_norm_l2_gaussian():
    grid = Grid(1, 256, 12.0)
    f = Field.from_function(grid, lambda x: np.exp(-(x ** 2)))
    assert norm_lq(f, 2) ** 2 == pytest.approx(math.sqrt(math.pi / 2), rel=1e-10)


def test_norm_h1_gaussian():
    # ||f||_2^2 = sqrt(pi/2) and ||f'||_2^2 = sqrt(pi/2) for f = exp(-x^2)
    grid = Grid(1, 256, 12.0)
    f = Field.from_function(grid, lambda x: np.exp(-(x ** 2)))
    assert norm_h1(f) == pytest.approx(math.sqrt(2 * math.sqrt(math.pi / 2)), rel=1e-10)


def test_norm_w1q_gaussian_q2():
    grid = Grid(1, 256, 12.0)
    f = Field.from_function(grid, lambda x: np.exp(-(x ** 2)))
    assert norm_w1q(f, 2) == pytest.approx(2 * (math.pi / 2) ** 0.25, rel=1e-10)


@pytest.mark.parametrize("N", [32, 64])
@pytest.mark.parametrize("q", [2.0, 4.0, 6.0])
@pytest.mark.parametrize("ka, kb", [(1, 2), (3, 1)])
def test_norm_w2q_separable_cosine_closed_form(N, q, ka, kb):
    # f = cos(ax)cos(by): every first and second derivative is f up to the
    # factor a, b, a^2, ab or b^2 and a sine/cosine swap, which leaves the
    # lattice L^q norm unchanged for frequencies well below Nyquist
    grid = Grid(2, N, 5.0)
    a, b = math.pi * ka / grid.L, math.pi * kb / grid.L
    x, y = grid.coords
    f = Field(grid, np.cos(a * x) * np.cos(b * y))
    expected = (1 + a + b + a * a + a * b + b * b) * norm_lq(f, q)
    assert norm_w2q(f, q) == pytest.approx(expected, rel=2e-15)


def test_parseval():
    grid = Grid(2, 32, 5.0)
    f = _random_field(grid, 7)
    assert plancherel_sum(f, lambda r2: np.ones_like(r2)) == pytest.approx(
        norm_lq(f, 2) ** 2, rel=1e-12)


def test_norm_lq_rejects_small_q():
    grid = Grid(1, 32, 3.0)
    with pytest.raises(ValueError):
        norm_lq(Field(grid, np.ones(grid.shape)), 0.5)


# -------------------------------------------------------------- symmetrization

def test_symmetrize_kills_odd_functions():
    # box large enough that the x = -L plane (its own reflection image on the
    # periodic lattice) carries nothing: the projection leaves a residue equal
    # to the function's value there
    grid = Grid(2, 32, 8.0)
    x, _ = grid.coords
    f = Field(grid, x * np.exp(-grid.radius_sq))
    assert np.max(np.abs(symmetrize_radial(f).values)) < 1e-14


def test_symmetrize_idempotent():
    grid = Grid(2, 32, 5.0)
    once = symmetrize_radial(_random_field(grid, 9))
    twice = symmetrize_radial(once)
    assert np.max(np.abs(twice.values - once.values)) <= 1e-15 * norm_lq(once, math.inf)


def test_symmetrize_kills_ground_state_translation_mode(gs2d_small):
    d1 = gradient(gs2d_small.u)[0]
    assert np.max(np.abs(symmetrize_radial(d1).values)) < 1e-12


def test_multipliers_commute_with_symmetrization():
    grid = Grid(2, 32, 5.0)
    f = _random_field(grid, 11)
    sym = lambda r2: 1.0 / (1.0 + r2)
    a = symmetrize_radial(_apply_symbol(sym, f))
    b = _apply_symbol(sym, symmetrize_radial(f))
    assert np.max(np.abs(a.values - b.values)) < 1e-12 * max(norm_lq(f, math.inf), 1.0)


# ---------------------------------------------------------------- housekeeping

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(4, 32, 5.0)
    with pytest.raises(ValueError):
        Grid(2, 33, 5.0)
    with pytest.raises(ValueError):
        Grid(2, 8, 5.0)
    with pytest.raises(ValueError):
        Grid(2, 32, -1.0)


def test_grid_duality():
    grid = Grid(1, 64, 3.0)
    assert grid.h * grid.N == pytest.approx(2 * grid.L, rel=1e-15)
    assert np.min(grid.axis_coords) == pytest.approx(-grid.L)


def test_field_rejects_nonfinite():
    grid = Grid(1, 32, 3.0)
    bad = np.ones(grid.shape)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        Field(grid, bad)


def test_resample_to_finer_grid_hits_common_points():
    grid = Grid(1, 64, 5.0)
    f = Field.from_function(grid, lambda x: np.exp(-(x ** 2)))
    fine = resample(f, Grid(1, 128, 5.0))
    assert np.max(np.abs(fine.values[::2] - f.values)) < 1e-12


def test_random_band_limited_deterministic():
    grid = Grid(2, 32, 5.0)
    a = random_band_limited(grid, np.random.default_rng(5), 3.0)
    b = random_band_limited(grid, np.random.default_rng(5), 3.0)
    assert np.array_equal(a.values, b.values)


def test_field_dump_roundtrip(tmp_path):
    grid = Grid(2, 32, 5.0)
    f = _random_field(grid, 12)
    path = tmp_path / "field.bin"
    write_field(path, f, "unit", p=2.5, c=8.0)
    g, meta = read_field(path)
    assert np.array_equal(g.values, f.values)  # bit-exact
    assert g.grid == grid
    assert meta["label"] == "unit"
    assert meta["p"] == 2.5 and meta["c"] == 8.0


def _dump_bytes(tmp_path):
    path = tmp_path / "good.bin"
    write_field(path, _random_field(Grid(2, 16, 5.0), 3), "u", p=3.0, c=8.0)
    return path.read_bytes()


@pytest.mark.parametrize("mangle, message", [
    (lambda b: b[:-8], "2040 bytes.*needs 2048"),
    (lambda b: b[:-1], "2047 bytes.*needs 2048"),
    (lambda b: b.replace(b" N=16", b"", 1), r"lacks metadata key\(s\) N$"),
    (lambda b: b"", "lacks metadata key"),
    (lambda b: b.replace(b"label=u", b"label=\xfc", 1), "ascii"),
], ids=["truncated", "odd-byte-count", "missing-N", "empty-file", "non-ascii-header"])
def test_read_field_rejects_malformed_dump(tmp_path, mangle, message):
    path = tmp_path / "bad.bin"
    path.write_bytes(mangle(_dump_bytes(tmp_path)))
    with pytest.raises(ValueError, match=message):
        read_field(path)

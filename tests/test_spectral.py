"""Grid/transform/norm substrate checks: exact single-mode identities, analytic
integrals, and the roundtrip/idempotence properties everything else leans on."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prnls.linsolve import _random_shell_field
from prnls.spectral import (Field, Grid, _is_permutation_symmetric,
                            _symmetric_block_norms, _transform, gradient,
                            half_spectrum_apply, half_spectrum_multiplier, intersection_norm,
                            norm_h1, norm_lq, plancherel_sum, read_field, sobolev_norms, symmetrize_radial,
                            write_field)
from prnls.symbols import (inverse_difference, kinetic, p_c, p_infty_minus_p_c,
                           sigma_halfspace, symbol_ratio)

from conftest import axis_coords, coords, radius_sq, sample_field
from fft_reference import (_along_axis, _require_real, block_partials, dct1_multiplier,
                           dct1_plancherel_sum, dst1_partials, fft_multiplier,
                           fft_plancherel_sum, flip_average, full_grid_symmetrize_radial, gather,
                           general_norms, lift, norm_w1q, norm_w2q, random_band_limited)


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
    f = sample_field(grid, lambda x: np.cos(np.pi * x / grid.L))
    g = _apply_symbol(lambda r2: r2, f)
    expected = (np.pi / grid.L) ** 2 * f.values
    assert np.max(np.abs(g.values - expected)) < 1e-12


def test_p_infty_roundtrip():
    grid = Grid(2, 32, 5.0)
    f = _random_field(grid, 1)
    g = _apply_symbol(lambda r2: 1.0 / (1.0 + r2), _apply_symbol(lambda r2: r2 + 1.0, f))
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
    # the realness check fft_multiplier and full_grid_resample apply after their inverse transforms
    grid = Grid(1, 32, 3.0)
    bad = np.fft.fftn(_random_field(grid, 4).values)
    bad[1] *= 2.0  # break c(-k) = conj(c(k)); the imaginary residue check fires
    with pytest.raises(ValueError, match="imaginary residue"):
        _require_real(np.fft.ifftn(bad), "inverse transform")


# ------------------------------------------- half spectrum against full fftn

# measured over 400 random cases of _half_vs_full_cases: worst gap 7.1e-16
# (of the field's max) for half_spectrum_apply; the floor sits just above it
_MULTIPLIER_FLOOR = 1.5e-15

_WEIGHTS = (lambda c: (lambda r2: np.ones_like(r2)), lambda c: (lambda r2: r2 + 1.0), p_c,
            p_infty_minus_p_c, inverse_difference, symbol_ratio, sigma_halfspace,
            kinetic)


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
def test_half_spectrum_apply_matches_full_fft(case):
    f, sym = case
    ref = fft_multiplier(sym, f).values
    got = _apply_symbol(sym, f).values
    assert np.max(np.abs(got - ref)) <= _MULTIPLIER_FLOOR * np.max(np.abs(ref))


# ------------------------------------------------ even block against full grid

# measured over 1,200 random cases of _block_vs_full_cases: worst relative gap
# 9.3e-16 (of the field's max) for half_spectrum_apply and 3.7e-16 for
# norm_lq; over 4,000 cases, 8.5e-16 for the block plancherel_sum against the
# full fftn lattice's. Each floor sits just above its measured value
_BLOCK_MULTIPLIER_FLOOR = 1.5e-15
_BLOCK_PLANCHEREL_FLOOR = 1e-15
_BLOCK_NORM_FLOOR = 6e-16


@st.composite
def _block_vs_full_cases(draw):
    """An even white-noise field (sign-flip averaged, not permuted) and a symbol."""
    f, sym = draw(_half_vs_full_cases())
    return Field(f.grid, flip_average(f.values)), sym


@st.composite
def _full_grid_fields(draw):
    """White noise of amplitude 10^e, |e| <= 300, on a grid of n = 1..3 and even N."""
    n = draw(st.integers(1, 3))
    N = 2 * draw(st.integers(8, (128, 32, 16)[n - 1]))
    amplitude = 10.0 ** draw(st.integers(-300, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return Field(Grid(n, N, 5.0), amplitude * rng.standard_normal((N,) * n))


def _rel_gap(got, ref):
    return abs(got - ref) / abs(ref)


@_HALF_VS_FULL
@given(_block_vs_full_cases())
def test_even_block_lift_restrict_roundtrip_is_exact(case):
    f, _ = case
    block = f.grid.even
    assert block.shape == (f.grid.N // 2 + 1,) * f.grid.n
    assert np.sum(block.weights) == f.grid.N ** f.grid.n
    assert np.array_equal(lift(block, block.restrict(f)).values, f.values)


@_HALF_VS_FULL
@given(_block_vs_full_cases())
def test_even_block_multiplier_matches_full_grid(case):
    f, sym = case
    block = f.grid.even
    ref = block.restrict(_apply_symbol(sym, f)).values
    got = _apply_symbol(sym, block.restrict(f)).values
    assert np.max(np.abs(got - ref)) <= _BLOCK_MULTIPLIER_FLOOR * np.max(np.abs(ref))


@_HALF_VS_FULL
@given(_block_vs_full_cases())
def test_plancherel_sum_matches_full_fft(case):
    # the block sum of an even field against the sum over its full fftn lattice
    f, weight = case
    ref = fft_plancherel_sum(f, weight)
    assert _rel_gap(plancherel_sum(f.grid.even.restrict(f), weight), ref) \
        <= _BLOCK_PLANCHEREL_FLOOR


@_HALF_VS_FULL
@given(_block_vs_full_cases())
def test_even_block_norms_match_full_grid(case):
    f, _ = case
    fb = f.grid.even.restrict(f)
    for q in (2.0, 2.0 * f.grid.n):
        assert _rel_gap(norm_lq(fb, q), norm_lq(f, q)) <= _BLOCK_NORM_FLOOR


def test_even_block_partials_are_the_restricted_gradient():
    # the block partials (diff_matrix along each axis, one of which the
    # block norms take) are the full-grid spectral gradient at the orthant's
    # points, zero on both faces (worst gap over 200 seeds of these three
    # grids: 7.5e-16 of the partial's max); a partial is odd along its axis,
    # so it is gathered, not restricted (restrict would average it to zero)
    for n, N in ((1, 64), (2, 32), (3, 16)):
        grid = Grid(n, N, 5.0)
        f = full_grid_symmetrize_radial(_random_field(grid, 20 + n))
        block = grid.even
        for got, full in zip(block_partials(block.restrict(f)), gradient(f)):
            ref = gather(block, full.values)
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


# ------------------------------------- even block against scipy's DCT-I/DST-I

# The block transforms are per-axis (N/2+1)-square matrix products. Each
# output is a dot product of length N/2+1, whose rounding error grows like the
# square root of that length, where scipy's FFTs grow like its logarithm. The
# floors above hold for block sides up to 33 (N <= 64, the grids of the block
# tests above), and above that grow by sqrt(side / 33). The scipy path takes
# a partial through 2n one-axis transforms, as a multiplier pair does, so the
# partials have the multiplier's floor. Measured over 2,000 derandomized cases
# of _block_oracle_cases and the 15 fields of the shapes test below: worst gap
# 1.74e-15 for the multiplier (1.24e-15 after the scaling), 8.4e-16 for
# plancherel_sum and 1.63e-15 for the partials (1.25e-15 after the scaling).

def _side_scale(block):
    return max(1.0, math.sqrt((block.N // 2 + 1) / 33))


@st.composite
def _block_oracle_cases(draw):
    """White noise on an even block, N = 16..256 (16..128 in 3-D), and a symbol."""
    n = draw(st.integers(1, 3))
    block = Grid(n, 2 * draw(st.integers(8, 64 if n == 3 else 128)),
                 draw(st.floats(1.0, 40.0, exclude_min=True, exclude_max=True))).even
    weight = draw(st.sampled_from(_WEIGHTS))(draw(st.floats(0.5, 64.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return Field(block, rng.standard_normal(block.shape)), weight


def _check_block_against_scipy(f, sym):
    block = f.grid
    scale = _side_scale(block)
    mult = half_spectrum_multiplier(block, sym)
    ref = dct1_multiplier(f.values, mult)
    got = half_spectrum_apply(block, f.values, mult)
    assert np.max(np.abs(got - ref)) <= _BLOCK_MULTIPLIER_FLOOR * scale * np.max(np.abs(ref))
    assert _rel_gap(plancherel_sum(f, sym), dct1_plancherel_sum(f, sym)) \
        <= _BLOCK_PLANCHEREL_FLOOR
    for got, ref in zip(block_partials(f), dst1_partials(f)):
        assert np.max(np.abs(got - ref)) <= _BLOCK_MULTIPLIER_FLOOR * scale * np.max(np.abs(ref))


@_HALF_VS_FULL
@given(_block_oracle_cases())
def test_even_block_transforms_match_scipy_dct(case):
    _check_block_against_scipy(*case)


@pytest.mark.parametrize("n, N", [(3, 16), (3, 48), (3, 64), (3, 96), (2, 128), (2, 256),
                                  (1, 34), (1, 256)])
def test_even_block_transforms_match_scipy_dct_on_production_shapes(n, N):
    # 33^3, 65^2 and 129^2 are the blocks of the 3-D and 2-D default grids;
    # 9^3, 25^3 and 49^3 are other sides of the 3-D stacked matmuls;
    # at 1-D N = 34 a cosine of the unreduced angle breaks the floor
    block = Grid(n, N, 15.0).even
    for seed in range(3):
        f = Field(block, np.random.default_rng(seed).standard_normal(block.shape))
        _check_block_against_scipy(f, p_c(4.0))


@pytest.mark.parametrize("n, N", [(1, 34), (1, 1024), (2, 64), (2, 128), (2, 256)])
def test_one_and_two_d_block_transforms_keep_the_per_axis_bits(n, N):
    # only a 3-D block runs as stacked matmuls; 1-D and 2-D keep their GEMMs
    block = Grid(n, N, 15.0).even
    v = np.random.default_rng(n).standard_normal(block.shape)
    for mat, mat_t in ((block.dct_matrix, block.dct_matrix_t),
                       (block.idct_matrix, block.idct_matrix_t)):
        want = v
        for axis in range(n):
            want = _along_axis(want, mat, mat_t, axis)
        assert np.array_equal(_transform(v, mat, mat_t), want)


def test_even_block_rejects_foreign_fields():
    grid = Grid(2, 32, 5.0)
    f = _random_field(grid, 13)
    with pytest.raises(ValueError):
        Grid(2, 32, 6.0).even.restrict(f)
    with pytest.raises(ValueError):
        lift(grid.even, f)


# ---------------------------------------------------------------- derivatives

def test_gradient_constant_is_zero():
    grid = Grid(2, 32, 5.0)
    for d in gradient(Field(grid, np.ones(grid.shape))):
        assert np.max(np.abs(d.values)) < 1e-14


def test_gradient_single_mode():
    grid = Grid(1, 64, 3.0)
    f = sample_field(grid, lambda x: np.sin(np.pi * x / grid.L))
    (df,) = gradient(f)
    expected = (np.pi / grid.L) * np.cos(np.pi * axis_coords(grid) / grid.L)
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
    f = sample_field(grid, lambda x: np.exp(-(x ** 2)))
    assert norm_lq(f, 2) ** 2 == pytest.approx(math.sqrt(math.pi / 2), rel=1e-10)


def test_norm_h1_gaussian():
    # ||f||_2^2 = sqrt(pi/2) and ||f'||_2^2 = sqrt(pi/2) for f = exp(-x^2)
    grid = Grid(1, 256, 12.0)
    f = grid.even.restrict(sample_field(grid, lambda x: np.exp(-(x ** 2))))
    assert norm_h1(f) == pytest.approx(math.sqrt(2 * math.sqrt(math.pi / 2)), rel=1e-10)


def test_norm_w1q_gaussian_q2():
    grid = Grid(1, 256, 12.0)
    f = sample_field(grid, lambda x: np.exp(-(x ** 2)))
    assert sobolev_norms(f, 2)[0] == pytest.approx(2 * (math.pi / 2) ** 0.25, rel=1e-10)


@pytest.mark.parametrize("n, N", [(1, 64), (2, 32), (3, 16)])
def test_sobolev_norms_match_the_two_function_pair_bit_for_bit(n, N):
    # one gradient and the j >= i second partials give the very sums of
    # norm_w1q and norm_w2q, which build the gradient twice and all n^2 partials
    grid = Grid(n, N, 6.0)
    for seed in range(3):
        f = random_band_limited(grid, np.random.default_rng(seed), 0.4 * grid.freqs_half[-1])
        for q in (2.0, 2.0 * n, 2.8):
            assert sobolev_norms(f, q) == (norm_w1q(f, q), norm_w2q(f, q))


def test_intersection_norm_takes_q_2n():
    # the solution norm is H^1 intersect W^{1,2n}; in 2-D and 3-D the broad
    # Gaussian has the larger H^1 norm and the narrow one the larger W^{1,2n}
    for n in (1, 2, 3):
        grid = Grid(n, 16, 6.0)
        for width_sq in (8.0, 0.5):
            f = symmetrize_radial(grid.even.restrict(
                Field(grid, np.exp(-radius_sq(grid) / width_sq))))
            assert _rel_gap(intersection_norm(f), max(general_norms(f))) <= _ONE_PARTIAL_FLOOR


# measured over 1,500 restricted white-noise fields (n = 1..3, N = 16..256),
# symmetrized and scaled to unit max: worst relative gap between the
# one-partial norms and the general path's (general_norms) 4.1e-16 for H^1,
# 2.7e-16 for W^{1,2n}
_ONE_PARTIAL_FLOOR = 6e-16


@pytest.mark.parametrize("n, N", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("amplitude", [1e300, 1e307, 1.7e308])
@pytest.mark.parametrize("field", ["block", "full", "radial"])
def test_intersection_norm_near_the_float64_limit(n, N, amplitude, field):
    # the transform sums of these finite fields overflow, to inf and to
    # inf - inf = nan; the norm is homogeneous and the unit field's max is 1,
    # so it must be exactly amplitude times the unit field's norm (inf when
    # that overflows, finite at 1e300). Each unit field is radial with values
    # in {-1, 0, 1}, so amplitude times it is exact: the signs of the radial
    # projection of random signs on the block, or on the full grid, or random
    # signs constant on each axis-permutation orbit. Its unit norm, from one
    # partial, is the general path's within the one-partial floor
    grid = Grid(n, N, 5.0)
    block = grid.even
    rng = np.random.default_rng(n)
    if field == "full":
        signs = block.restrict(Field(grid, np.sign(rng.standard_normal(grid.shape)))).values
    else:
        signs = np.sign(rng.standard_normal(block.shape))
    if field == "radial":
        signs = signs.ravel()[block.orbits.reps][block.orbits.expand].reshape(block.shape)
    else:
        signs = np.sign(symmetrize_radial(Field(block, signs)).values)
    assert _is_permutation_symmetric(signs)
    unit = intersection_norm(Field(block, signs))
    assert _rel_gap(unit, max(general_norms(Field(block, signs)))) <= _ONE_PARTIAL_FLOOR
    with np.errstate(over="ignore", invalid="ignore"):
        got = intersection_norm(Field(block, amplitude * signs))
    assert got == amplitude * unit


@_HALF_VS_FULL
@given(_full_grid_fields())
def test_one_partial_norms_match_the_general_path(f):
    radial = symmetrize_radial(f.grid.even.restrict(f))
    unit = radial * (1.0 / norm_lq(radial, math.inf))
    for got, ref in zip(_symmetric_block_norms(unit), general_norms(unit)):
        assert _rel_gap(got, ref) <= _ONE_PARTIAL_FLOOR
    assert _rel_gap(intersection_norm(unit), max(general_norms(unit))) <= _ONE_PARTIAL_FLOOR


@pytest.mark.parametrize("n, N", [(1, 64), (2, 32), (3, 16), (3, 32)])
def test_one_partial_h1_counts_the_nyquist_planes(n, N):
    # (-1)^{j_1 + ... + j_n} times a Gaussian puts much of its H^1 energy on
    # the Nyquist planes k_a = N/2, which the DST-I partials drop: without
    # them H^1 reads 0.66-0.70 of its value here (the gaps measured 2.1e-16)
    block = Grid(n, N, 5.0).even
    alternating = (-1.0) ** np.sum(np.indices(block.shape), axis=0)
    f = symmetrize_radial(Field(block, alternating * np.exp(-block.radius_sq / 4.0)))
    for got, ref in zip(_symmetric_block_norms(f), general_norms(f)):
        assert _rel_gap(got, ref) <= _ONE_PARTIAL_FLOOR
    partials_only = math.sqrt(norm_lq(f, 2) ** 2 + sum(
        norm_lq(Field(block, d), 2) ** 2 for d in block_partials(f)))
    assert norm_h1(f) > 1.4 * partials_only


def test_integer_norm_powers_match_the_float_power():
    # _lq takes q = 2, 4, 6 by repeated multiplication
    grid = Grid(3, 32, 5.0).even
    f = Field(grid, np.random.default_rng(17).standard_normal(grid.shape))
    for q in (2.0, 4.0, 6.0):
        ref = (grid.cell_volume * grid.lattice_sum(np.abs(f.values) ** q)) ** (1.0 / q)
        assert norm_lq(f, q) == pytest.approx(ref, rel=1e-15)


@pytest.mark.parametrize("N", [32, 64])
@pytest.mark.parametrize("q", [2.0, 4.0, 6.0])
@pytest.mark.parametrize("ka, kb", [(1, 2), (3, 1)])
def test_norm_w2q_separable_cosine_closed_form(N, q, ka, kb):
    # f = cos(ax)cos(by): every first and second derivative is f up to the
    # factor a, b, a^2, ab or b^2 and a sine/cosine swap, which leaves the
    # lattice L^q norm unchanged for frequencies well below Nyquist
    grid = Grid(2, N, 5.0)
    a, b = math.pi * ka / grid.L, math.pi * kb / grid.L
    x, y = coords(grid)
    f = Field(grid, np.cos(a * x) * np.cos(b * y))
    expected = (1 + a + b + a * a + a * b + b * b) * norm_lq(f, q)
    assert sobolev_norms(f, q)[1] == pytest.approx(expected, rel=2e-15)


def test_parseval():
    grid = Grid(2, 32, 5.0)
    f = grid.even.restrict(_random_field(grid, 7))
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
    x, _ = coords(grid)
    f = Field(grid, x * np.exp(-radius_sq(grid)))
    assert np.max(np.abs(symmetrize_radial(grid.even.restrict(f)).values)) < 1e-14


@_HALF_VS_FULL
@given(_full_grid_fields())
def test_grid_symmetrize_matches_the_full_grid_oracle(f):
    # restrict, the block's permutation average and lift do the full-grid
    # pass's arithmetic at the block's points, in the same order
    block = f.grid.even
    got = lift(block, symmetrize_radial(block.restrict(f)))
    assert np.array_equal(got.values, full_grid_symmetrize_radial(f).values)
    with pytest.raises(ValueError, match="even-block"):
        symmetrize_radial(f)


@_HALF_VS_FULL
@given(_full_grid_fields().filter(lambda f: f.grid.n > 1))
def test_symmetrize_output_is_bitwise_radial_and_a_fixed_point(f):
    block = f.grid.even
    once = symmetrize_radial(block.restrict(f)).values
    for perm in itertools.permutations(range(block.n)):
        assert np.array_equal(np.transpose(once, perm), once)
    assert symmetrize_radial(Field(block, once)).values.tobytes() == once.tobytes()


@_HALF_VS_FULL
@given(_full_grid_fields())
def test_restrict_is_the_sign_flip_average(f):
    block = f.grid.even
    flipped = flip_average(f.values)
    assert np.array_equal(block.restrict(f).values, gather(block, flipped))
    even = Field(f.grid, flipped)  # an even field keeps its own block values
    assert np.array_equal(block.restrict(even).values, gather(block, flipped))


@pytest.mark.parametrize("n, N", [(1, 32), (2, 16), (3, 16)])
def test_restrict_stays_finite_at_the_float64_limit(n, N):
    # a + b overflows where two values exceed half the float64 maximum, but
    # 0.5 a + 0.5 b does not: the flip average of 0.5 f, doubled
    grid = Grid(n, N, 5.0)
    f = Field(grid, 1e308 * np.sign(np.random.default_rng(n).standard_normal(grid.shape)))
    block = grid.even
    assert np.array_equal(block.restrict(f).values,
                          2.0 * gather(block, flip_average(0.5 * f.values)))
    even = lift(block, block.restrict(f))  # an even field keeps its own block values
    assert np.array_equal(block.restrict(even).values, block.restrict(f).values)
    top = Field(grid, np.full(grid.shape, -1e308))
    assert np.array_equal(block.restrict(top).values, np.full(block.shape, -1e308))


@st.composite
def _block_fields(draw):
    """White noise on the even block of a grid of n = 1..3 and even N <= 256/64/32."""
    n = draw(st.integers(1, 3))
    block = Grid(n, 2 * draw(st.integers(8, (128, 32, 16)[n - 1])), 5.0).even
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return Field(block, rng.standard_normal(block.shape))


@_HALF_VS_FULL
@given(_block_fields())
def test_orbit_projection_is_the_block_permutation_average(f):
    block = f.grid
    orbits = block.orbits
    assert orbits.reps.size == math.comb(block.N // 2 + block.n, block.n)
    assert np.sum(orbits.weights) == block.N ** block.n
    # a radial field is set by its values at the representatives: expanding
    # them gives an exactly symmetric field, the radial one itself
    sym = symmetrize_radial(f).values
    expanded = sym.ravel()[orbits.reps][orbits.expand].reshape(block.shape)
    for perm in itertools.permutations(range(block.n)):
        assert np.array_equal(np.transpose(expanded, perm), expanded)
    assert np.array_equal(expanded, sym)


@pytest.mark.parametrize("n, N", [(1, 64), (2, 128), (2, 256), (3, 32), (3, 64)])
def test_orbit_mean_is_the_radial_projection_at_the_representatives(n, N):
    # the orbit mean has one definition: symmetrize_radial is its expansion.
    # Checked on white noise and on a multiplier's image of a radial field,
    # which is symmetric only to rounding; in 2-D the mean is (v + v^T) / 2
    # read at the representatives, in 1-D the field itself
    block = Grid(n, N, 15.0).even
    orbits = block.orbits
    noise = np.random.default_rng(n * N).standard_normal(block.shape)
    radial = symmetrize_radial(Field(block, noise)).values
    image = half_spectrum_apply(block, radial, 1.0 / (1.0 + block.xi_sq))
    assert n == 1 or not _is_permutation_symmetric(image)
    for v in (noise, image):
        mean = block.orbit_mean(v)
        sym = symmetrize_radial(Field(block, v)).values
        assert mean.tobytes() == sym.ravel()[orbits.reps].tobytes()
        assert np.array_equal(mean[orbits.expand].reshape(block.shape), sym)
        # at_reps is the plain read at the representatives and from_reps the
        # expansion: a symmetrize_radial output comes back bit for bit
        assert block.at_reps(v).tobytes() == v.ravel()[orbits.reps].tobytes()
        assert block.at_reps(sym).tobytes() == mean.tobytes()
        assert block.from_reps(block.at_reps(sym)).tobytes() == sym.tobytes()
        if n < 3:
            plain = (v + v.T) / 2.0 if n == 2 else v
            assert mean.tobytes() == plain.ravel()[orbits.reps].tobytes()


@pytest.mark.parametrize("n, N", [(1, 1024), (2, 128), (2, 256), (3, 32), (3, 64)])
def test_orbit_weighted_sums_are_the_block_lattice_sums(n, N):
    # the loops take their full-grid sums once per orbit, as orbits.weights @ x:
    # the block's lattice_sum of the expansion, with the terms added in another
    # order. Measured worst over 200 fields per grid: 3.9e-17 of the sum of
    # |x| (2-D 128^2); counts, as the ground state's clamp count, are exact
    block = Grid(n, N, 5.0).even
    orbits = block.orbits
    rng = np.random.default_rng(n * N)
    for _ in range(200):
        x = rng.standard_normal(orbits.reps.size) * math.exp(rng.uniform(-20.0, 20.0))
        expanded = x[orbits.expand].reshape(block.shape)
        assert block.from_reps(x).tobytes() == expanded.tobytes()
        assert block.at_reps(block.from_reps(x)).tobytes() == x.tobytes()
        gap = abs(float(orbits.weights @ x) - block.lattice_sum(expanded))
        assert gap <= 1e-16 * block.lattice_sum(np.abs(expanded))
        assert orbits.weights @ (x < 0.0) == block.lattice_sum(expanded < 0.0)


def test_symmetrize_idempotent():
    grid = Grid(2, 32, 5.0)
    once = symmetrize_radial(grid.even.restrict(_random_field(grid, 9)))
    twice = symmetrize_radial(once)
    assert np.max(np.abs(twice.values - once.values)) <= 1e-15 * norm_lq(once, math.inf)


def test_symmetrize_kills_ground_state_translation_mode(gs2d_small):
    d1 = gradient(lift(gs2d_small.grid.even, gs2d_small.u_even))[0]
    assert np.max(np.abs(symmetrize_radial(gs2d_small.grid.even.restrict(d1)).values)) < 1e-12


def test_multipliers_commute_with_symmetrization():
    grid = Grid(2, 32, 5.0)
    f = _random_field(grid, 11)
    sym = lambda r2: 1.0 / (1.0 + r2)
    # the full-grid multiplier then the projection, against the projection
    # then the block multiplier
    a = symmetrize_radial(grid.even.restrict(_apply_symbol(sym, f)))
    b = _apply_symbol(sym, symmetrize_radial(grid.even.restrict(f)))
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
    # L for which h^n, n L^2 or n (pi N / 2L)^2 leaves the positive floats, each
    # of which would otherwise fail only after a command's output: the first
    # three overflow h^n, the fourth underflows it, the next two overflow the
    # largest |xi|^2 and the seventh n L^2; then L = 0, inf and nan
    for n, L in ((2, 1e160), (2, 1e300), (3, 1e110), (2, 1e-300), (1, 1e-160), (2, 1e-155),
                 (1, 1e160), (2, 0.0), (2, math.inf), (2, math.nan)):
        with pytest.raises(ValueError, match="box half-width"):
            Grid(n, 16, L)
    assert Grid(2, 16, 1e150).cell_volume < math.inf and Grid(1, 16, 1e-150).h > 0.0


def test_grid_duality():
    grid = Grid(1, 64, 3.0)
    assert grid.h * grid.N == pytest.approx(2 * grid.L, rel=1e-15)
    assert math.sqrt(np.max(grid.even.radius_sq)) == pytest.approx(grid.L)  # the x = L face


def test_field_rejects_nonfinite():
    grid = Grid(1, 32, 3.0)
    bad = np.ones(grid.shape)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        Field(grid, bad)


# the largest rfftn coefficient of a shell field outside its shell, relative to
# its largest one: measured worst 2.9e-16 over 400 fields (1-D 64 and 256,
# 2-D 32^2 and 64^2, 3-D 32^3; balls and shells, 20 seeds each)
_SHELL_LEAK_FLOOR = 1e-15


@pytest.mark.parametrize("n, N, L", [(1, 256, 10.0), (2, 64, 20.0), (3, 32, 10.0)])
@pytest.mark.parametrize("ball", [True, False], ids=["ball", "shell"])
def test_random_shell_field_is_seeded_of_max_one_on_its_shell(n, N, L, ball):
    # the norm probe's generator: a ball up to half the Nyquist frequency, as
    # for its broadband fields, or one of its log-spaced shells
    grid = Grid(n, N, L)
    kmax = np.pi * N / (4.0 * L)
    r_lo, r_hi = (0.0, kmax) if ball else (0.7 * kmax / 3.0, 1.3 * kmax / 3.0)
    f = _random_shell_field(grid, np.random.default_rng(5), r_lo, r_hi)
    again = _random_shell_field(grid, np.random.default_rng(5), r_lo, r_hi)
    assert np.array_equal(f.values, again.values)
    assert np.max(np.abs(f.values)) == 1.0
    spectrum = np.abs(np.fft.rfftn(f.values))
    r2 = grid.xi_sq_half
    outside = (r2 < r_lo * r_lo) | (r2 > r_hi * r_hi)
    assert np.max(spectrum[outside]) <= _SHELL_LEAK_FLOOR * np.max(spectrum)
    # the zero mode is in the ball, and no shell holds it
    assert (spectrum.flat[0] > _SHELL_LEAK_FLOOR * np.max(spectrum)) == ball


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
    # a block field is written as its lift, byte for byte the full-grid dump
    block = grid.even.restrict(f)
    write_field(tmp_path / "block.bin", block, "unit", p=2.5, c=8.0)
    write_field(path, lift(grid.even, block), "unit", p=2.5, c=8.0)
    assert (tmp_path / "block.bin").read_bytes() == path.read_bytes()



@pytest.mark.parametrize("n, N, on_block", [(1, 16, True), (2, 16, True), (3, 16, True),
                                            (3, 16, False)])
def test_write_field_gives_the_lift_then_tobytes_bytes(tmp_path, n, N, on_block):
    grid = Grid(n, N, 5.0)
    where = grid.even if on_block else grid
    # a transposed full-grid field checks the row-major payload of a non-contiguous buffer
    values = np.random.default_rng(n).standard_normal(where.shape)
    f = Field(where, values if on_block else values.T)
    full = lift(grid.even, f) if on_block else f
    head = f"n={n} N={N} L={grid.L!r} p=2.5 c=8.0 label=u\n".encode("ascii")
    path = tmp_path / "field.bin"
    write_field(path, f, "u", p=2.5, c=8.0)
    assert path.read_bytes() == head + np.ascontiguousarray(full.values, dtype="<f8").tobytes()
    g, _ = read_field(path)
    assert g.grid == grid and np.array_equal(g.values, full.values)


def test_write_field_streams_a_block_field_without_a_full_grid_array(tmp_path):
    grid = Grid(3, 64, 15.0)
    f = Field(grid.even, np.random.default_rng(0).standard_normal(grid.even.shape))
    tracemalloc.start()
    try:
        write_field(tmp_path / "field.bin", f, "u")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * grid.N ** grid.n  # one full-grid float64 array is 2 MiB

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
    (lambda b: b.replace(b" L=", b" L=1.0 L=", 1), "'L' is repeated or empty"),
    (lambda b: b.replace(b"label=u", b"label=", 1), "'label' is repeated or empty"),
    (lambda b: b.replace(b" L=5.0", b" L=1e+160", 1), "box half-width"),
], ids=["truncated", "odd-byte-count", "missing-N", "empty-file", "non-ascii-header",
        "repeated-key", "empty-label", "overflowing-box"])
def test_read_field_rejects_malformed_dump(tmp_path, mangle, message):
    path = tmp_path / "bad.bin"
    path.write_bytes(mangle(_dump_bytes(tmp_path)))
    with pytest.raises(ValueError, match=message):
        read_field(path)

"""Periodic spectral substrate: grids, fields, transforms, multipliers, norms.

Everything downstream (ground states, linearized solves, diagnostics) runs on a
uniform periodic grid over the box [-L, L)^n and represents Fourier-multiplier
operators diagonally on the discrete frequency lattice xi_k = (pi/L) k.

Two substrates
--------------
* The full periodic grid (Grid): N^n points, any real field. Field dumps
  and the norm probe live here. No radial field is built, projected,
  solved for or measured here.
* The even block (Grid.even, an EvenBlock): the non-negative orthant
  x = j h, j = 0..N/2 per axis. A field even in every coordinate is fully set
  by these (N/2+1)^n values, and every field the solver and the diagnostics
  touch is radial, hence even: ground states, solutions and their identities
  live here end to end. A block point stands for `weights` full-grid points
  (1 on the x = 0 and x = L faces, 2 inside, multiplied over axes), so sums
  over the block reproduce full-grid sums. EvenBlock.restrict is the one
  projection from the full grid, the average over the sign flips
  x_a -> -x_a, and write_field the one way back: it writes a block field
  as its lift, streamed from the block values. EvenBlock.orbits describes
  the block's axis-permutation orbits, whose representatives j_1 <= ... <= j_n
  (C(N/2+n, n) points) set a permutation-symmetric block field. Its values
  there, the orbit vector, are the hot loops' working form (full-grid sums
  are orbits.weights @ x). EvenBlock.at_reps reads a block array there and
  EvenBlock.from_reps expands an orbit vector to the block, for a transform
  pair; no other module indexes the orbit tables. symmetrize_radial is
  from_reps of EvenBlock.orbit_mean, so its output equals its axis transposes
  bit for bit, and intersection_norm measures such a field from one partial.
A Field lives on one of the two; the transforms and norm_lq take the path of
its grid. Each radial quantity has one path, on the block: plancherel_sum
(hence norm_h1 and the diagnostics), symmetrize_radial and intersection_norm
raise ValueError for a full-grid field, which EvenBlock.restrict takes there.

Conventions
-----------
* Every Fourier multiplier is applied by half_spectrum_apply. On the full
  grid that is the real rfftn/irfftn pair on the half lattice (last axis
  0..N/2): fields are real, so the other half of the spectrum is the complex
  conjugate and carries no information. On the even block it is the DCT-I
  pair, whose coefficients are the full-lattice DFT on the non-negative
  frequency orthant k = 0..N/2 (the spectrum of an even field is even, with
  the same multiplicities as the block's points).
* The even block's transforms are dense matrix products, one cached
  (N/2+1)-square matrix (EvenBlock.dct_matrix, idct_matrix, diff_matrix)
  along each axis, through BLAS. A 1-D block is mat @ v and a 2-D block
  (mat @ V) @ mat_t, plain GEMMs, the last axis on the matrix's cached
  C-contiguous transpose (dct_matrix_t, idct_matrix_t). A 3-D block of side
  s is three stacked s-square matmuls and never one flat GEMM with s^2
  rows: axis 0 on the (j1, j0, j2) view, axis 2 through the transpose, then
  axis 1, which rotates the layout back to (k0, k1, k2). Measured with one
  BLAS thread on an Intel Xeon (best of 15 interleaved rounds), a 3-D
  multiplier pair takes, against the flat GEMMs along the first and the
  last axis, 14.0 against 15.6 us at s = 9 (16^3), 39 against 36 us at 17
  (32^3), 107 against 100 us at 25 (48^3), 0.24 against 0.31 ms at 33 (the
  default 64^3), 0.59 against 0.70 ms at 41 (80^3) and 1.15 against
  1.37 ms at 49 (96^3). Sides 17 and 25 lose 5-21 % over four such runs:
  the cost of one form, with no size switch.
  A transform costs O(N^{n+1}) against an FFT's O(N^n log N), and its
  rounding error grows like sqrt(N) against an FFT's log N. At the block
  sides of the default 3-D grid (33) and of a 128^2 grid (65) the products
  are the faster, and at the 2-D default grid's 129 about even. Measured the
  same way, a multiplier pair takes 0.25 ms against scipy's DCT-I 0.93 ms on
  33^3, 0.040 against 0.086 ms on 65^2 (0.050 ms through mat.T) and 0.31
  against 0.28 ms on 129^2, but 0.16 against 0.03 ms at 1-D N = 1024 and
  2.3 against 1.4 ms at 2-D N = 512.
  Each matrix angle pi j k / M is reduced exactly (j k mod 2M) before its
  cosine or sine is taken.
* Plancherel-type sums use the factor h^n / N^n on raw unscaled FFT power,
  which is exactly consistent with the physical-space quadrature h^n * sum().
* First-derivative multipliers zero the Nyquist mode (k = -N/2), the standard
  convention that keeps spectral derivatives of real fields real and makes
  mixed partials commute exactly. On the even block a first derivative is a
  DST-I along its axis, zero on both faces, which is the same convention.
  It commutes with the transforms along the other axes, so it is one matrix
  (diff_matrix) along its own axis.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_MAX_MULTIPLIED_POWER = 6  # 2n, the W^{1,2n} exponent of intersection_norm, for n <= 3


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L)^n with N points per axis.

    Parameters
    ----------
    n : int
        Spatial dimension, 1 <= n <= 3.
    N : int
        Points per axis; even and at least 16 (powers of two recommended).
    L : float
        Half-width of the periodic box.
    """

    n: int
    N: int
    L: float

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"dimension n must be 1, 2 or 3, got {self.n}")
        if self.N < 16 or self.N % 2 != 0:
            raise ValueError(f"N must be even and >= 16, got {self.N}")
        try:  # L, h^n, the largest |x|^2 and the largest |xi|^2 must be positive floats
            scales = (self.L, self.cell_volume, self.n * self.L * self.L, self.xi_sq_max)
        except (OverflowError, ZeroDivisionError):
            scales = (0.0,)
        if not all(0.0 < s < math.inf for s in scales):
            raise ValueError(f"box half-width L = {self.L!r} must be positive, with h^n, n L^2 "
                             f"and n (pi N / 2L)^2 positive floats (n = {self.n}, N = {self.N})")

    def __reduce__(self):
        # pickle as (n, N, L): the cached spectra and the even block are rebuilt on demand
        return Grid, (self.n, self.N, self.L)

    @property
    def h(self) -> float:
        """Grid spacing 2L/N."""
        return 2.0 * self.L / self.N

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.n

    @property
    def xi_sq_max(self) -> float:
        """The largest |xi|^2 of the lattice, n (pi N / 2L)^2, at its Nyquist corner."""
        return self.n * (math.pi * self.N / (2.0 * self.L)) ** 2

    @property
    def cell_volume(self) -> float:
        return self.h ** self.n

    @cached_property
    def freqs(self) -> np.ndarray:
        """Frequency values xi = (pi/L) k of every axis, in FFT storage order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.h)

    @cached_property
    def freqs_half(self) -> np.ndarray:
        """Frequencies of the last axis in rfft (half-spectrum) layout."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.N, d=self.h)

    @cached_property
    def xi_sq_half(self) -> np.ndarray:
        """|xi|^2 on the rfftn lattice (last axis halved)."""
        return _axis_sum([xi * xi for xi in [self.freqs] * (self.n - 1) + [self.freqs_half]])

    @cached_property
    def deriv_freqs_half(self) -> tuple:
        """Per-axis first-derivative frequencies on the rfftn lattice, Nyquist mode zeroed."""
        xi, xi_half = self.freqs.copy(), self.freqs_half.copy()
        xi[self.N // 2] = 0.0
        xi_half[-1] = 0.0  # last rfft entry is the Nyquist mode
        return tuple(np.reshape(v, _axis_shape(self.n, a))
                     for a, v in enumerate([xi] * (self.n - 1) + [xi_half]))

    @cached_property
    def even(self) -> "EvenBlock":
        """The even block of this grid, where the solver's radial fields live."""
        return EvenBlock(self)

    def lattice_sum(self, values: np.ndarray) -> float:
        """Sum of values over the grid points."""
        return float(np.sum(values))

    @classmethod
    def default(cls, n: int) -> "Grid":
        """Production default resolution per dimension."""
        if n == 1:
            return cls(1, 1024, 20.0 * np.pi)
        if n == 2:
            return cls(2, 256, 20.0)
        if n == 3:
            return cls(3, 64, 15.0)
        raise ValueError(f"no default grid for n={n}")


def _axis_shape(n: int, axis: int) -> tuple:
    shape = [1] * n
    shape[axis] = -1
    return tuple(shape)


def _axis_sum(per_axis) -> np.ndarray:
    """sum_a v_a[j_a] on the product lattice, for one 1-D array v_a per axis a."""
    return sum(np.reshape(v, _axis_shape(len(per_axis), a)) for a, v in enumerate(per_axis))


def _reduced_angles(m: int) -> np.ndarray:
    """(j k) mod 2m for j, k = 0..m: the angle pi j k / m reduced exactly to [0, 2 pi).

    Taking cos or sin of pi j k / m directly carries the rounding of an
    angle up to m pi, about m ulps of pi; after the reduction each matrix
    entry is correct to about an ulp.
    """
    j = np.arange(m + 1)
    return np.outer(j, j) % (2 * m)


def _transform(values: np.ndarray, mat: np.ndarray, mat_t: np.ndarray | None) -> np.ndarray:
    """Apply the square matrix mat, with its C-contiguous transpose mat_t, along every axis.

    1-D is mat @ v and 2-D (mat @ V) @ mat_t, plain GEMMs (mat_t is None in
    1-D). A 3-D block (s, s, s) runs as three stacked s-square matmuls, never
    as one flat GEMM with s^2 rows: at s = 33 the last axis as one (1089 x 33)
    @ (33 x 33) GEMM took 62 us against 37 us stacked, and axis 0 as one
    (33 x 33) @ (33 x 1089) GEMM 48 against 40 us (one thread, Intel Xeon).
    The passes rotate the layout (j0, j1, j2) -> (j1, k0, j2) -> (j1, k0, k2)
    -> (k0, k1, k2).
    """
    if values.ndim == 1:
        return mat @ values
    if values.ndim == 2:
        return (mat @ values) @ mat_t
    rows = np.matmul(mat, values.transpose(1, 0, 2))  # axis 0
    rows = np.matmul(rows, mat_t)  # axis 2
    return np.matmul(mat, rows.transpose(1, 0, 2))  # axis 1


@dataclass(frozen=True)
class Orbits:
    """The axis-permutation orbits of an EvenBlock's points.

    A permutation-symmetric block field is set by its values at the orbit
    representatives, the points j_1 <= ... <= j_n: 2,145 of 4,225 on 65^2,
    6,545 of 35,937 on 33^3. Indices are into the row-major flattened block,
    read only by EvenBlock.at_reps and from_reps. symmetrize_radial's output
    is symmetric bit for bit, so from_reps of its at_reps gives it back;
    at_reps of a field symmetric only to rounding, such as a multiplier's
    image of one, keeps its representatives' rounding.
    """

    reps: np.ndarray     # the representatives, in row-major order
    expand: np.ndarray   # per block point, the position of its representative in reps
    weights: np.ndarray  # full-grid points per orbit: block weight times orbit size


@dataclass(frozen=True)
class EvenBlock:
    """Non-negative orthant x = j h, j = 0..N/2 per axis, of a Grid.

    Holds fields even in every coordinate by their block values. Block index
    j is full-grid index (N/2 + j) mod N; j = N/2 is the face x = L, which the
    periodic grid stores as x = -L.
    """

    grid: Grid

    def __reduce__(self):
        # pickle as its grid's even block, so the cached matrices stay out of the pickle
        return getattr, (self.grid, "even")

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def N(self) -> int:
        return self.grid.N

    @property
    def cell_volume(self) -> float:
        return self.grid.cell_volume

    @property
    def shape(self) -> tuple:
        return (self.N // 2 + 1,) * self.n

    @cached_property
    def weights(self) -> np.ndarray:
        """Full-grid points per block point: 1 on the x = 0 and x = L faces, 2 inside, per axis."""
        axis = np.full(self.N // 2 + 1, 2.0)
        axis[[0, -1]] = 1.0
        return math.prod(np.reshape(axis, _axis_shape(self.n, a)) for a in range(self.n))

    @cached_property
    def xi_sq(self) -> np.ndarray:
        """|xi|^2 on the non-negative frequency orthant k = 0..N/2 (the DCT-I lattice)."""
        xi = self.grid.freqs_half
        return _axis_sum([xi * xi] * self.n)

    @property
    def radius_sq(self) -> np.ndarray:
        """|x|^2 at the block points x = j h."""
        x = self.grid.h * np.arange(self.N // 2 + 1)
        return _axis_sum([x * x] * self.n)

    @cached_property
    def dct_matrix(self) -> np.ndarray:
        """Unnormalized DCT-I along one axis: C[k, j] = w_j cos(pi j k / M), M = N/2.

        w_j is 1 for j = 0, M and 2 otherwise. C is the matrix of
        scipy.fft.dct(type=1), and C C = N times the identity.
        """
        m = self.N // 2
        r = _reduced_angles(m)
        out = np.cos(np.pi * np.minimum(r, 2 * m - r) / m)
        out[:, 1:-1] *= 2.0
        return out

    @cached_property
    def idct_matrix(self) -> np.ndarray:
        """Inverse of dct_matrix: the same matrix divided by N."""
        return self.dct_matrix / self.N

    @cached_property
    def diff_matrix(self) -> np.ndarray:
        """Spectral first derivative along one axis, of a field even along it.

        The inverse DST-I of -xi_k times the DCT-I coefficients, S dct_matrix
        with S[j, k] = -xi_k sin(pi j k / M) / M for j, k = 1..M-1. S has zero
        rows on the x = 0 and x = L faces, where the odd derivative vanishes,
        and zero columns at k = 0 and the Nyquist mode k = M. A derivative
        along one axis commutes with the transforms along the others, so it
        is this one matrix along its axis.
        """
        m = self.N // 2
        r = _reduced_angles(m)[1:-1, 1:-1]
        rr = r % m  # sin(pi r / m) = +-sin(pi rr / m), taken at an angle in [0, pi/2]
        sin = np.where(r < m, 1.0, -1.0) * np.sin(np.pi * np.minimum(rr, m - rr) / m)
        synth = np.zeros((m + 1, m + 1))
        synth[1:-1, 1:-1] = sin * (-self.grid.freqs_half[1:-1] / m)
        return synth @ self.dct_matrix

    @cached_property
    def dct_matrix_t(self) -> np.ndarray | None:
        """dct_matrix's C-contiguous transpose, for the last axis (_transform); None in 1-D."""
        return np.ascontiguousarray(self.dct_matrix.T) if self.n > 1 else None

    @cached_property
    def idct_matrix_t(self) -> np.ndarray | None:
        """idct_matrix's C-contiguous transpose, for the last axis (_transform); None in 1-D."""
        return np.ascontiguousarray(self.idct_matrix.T) if self.n > 1 else None

    @cached_property
    def orbits(self) -> "Orbits":
        """The block's axis-permutation orbits (see Orbits)."""
        shape = self.shape
        # each point's sorted multi-index j_1 <= ... <= j_n names its orbit. Freeing the
        # (n, (N/2+1)^n) int64 index transient also raises glibc's dynamic mmap and trim
        # thresholds, so the loops' block temporaries are not trimmed and faulted in each step
        rep_of = np.ravel_multi_index(np.sort(np.indices(shape).reshape(self.n, -1), axis=0),
                                      shape)
        reps = np.flatnonzero(rep_of == np.arange(rep_of.size))
        position = np.zeros(rep_of.size, dtype=np.intp)
        position[reps] = np.arange(reps.size)
        expand = position[rep_of]
        weights = self.weights.ravel()[reps] * np.bincount(expand)
        return Orbits(reps, expand, weights)

    @cached_property
    def _orbit_images(self) -> np.ndarray:
        """Flat indices s(j) of each orbit representative j, one row per axis permutation s.

        The rows follow itertools.permutations; the first is the identity.
        """
        reps = np.unravel_index(self.orbits.reps, self.shape)
        return np.stack([np.ravel_multi_index(tuple(reps[a] for a in perm), self.shape)
                         for perm in itertools.permutations(range(self.n))])

    def at_reps(self, values: np.ndarray) -> np.ndarray:
        """The block array values read at orbits.reps, in their order: no average is taken."""
        return values.ravel()[self.orbits.reps]

    def from_reps(self, x: np.ndarray) -> np.ndarray:
        """The block array holding the orbit vector x at every point of each orbit."""
        return x[self.orbits.expand].reshape(self.shape)

    def orbit_mean(self, values: np.ndarray) -> np.ndarray:
        """Mean of a block field over each axis-permutation orbit, at orbits.reps in their order.

        In 3-D it is taken from the values t_s = v(s(j)) over the permutations
        s in a fixed order, as t_1 + ((t_2 - t_1) + ... + (t_6 - t_1)) / 6:
        t_1 itself on an orbit of equal values. In 2-D it is (v + v^T) / 2 at
        the representatives, in 1-D a copy of v.
        """
        terms = values.ravel()[self._orbit_images]
        if self.n < 3:
            return terms[0] if self.n == 1 else (terms[0] + terms[1]) / 2.0
        first = terms[0]
        spread = terms[1] - first
        for t in terms[2:]:
            spread += t - first
        return first + spread / len(terms)

    def restrict(self, f: "Field") -> "Field":
        """The block values of f's average over the sign flips x_a -> -x_a.

        That average is the orthogonal projection of f onto the even fields,
        which the block holds. It is taken as 0.5 a + 0.5 b, which is finite
        for finite a and b and, outside the subnormal range, the same bits as
        0.5 (a + b); an even field's own block values come back bit for bit.
        """
        if f.grid != self.grid:
            raise ValueError("field does not live on this block's grid")
        m, j = self.N // 2, np.arange(self.N // 2 + 1)
        v = f.values
        for axis in range(self.n):  # full-grid index m + j is x = j h, m - j is x = -j h
            v = 0.5 * np.take(v, m + j, axis, mode="wrap") + 0.5 * np.take(v, m - j, axis)
        return Field(self, v)

    def lattice_sum(self, values: np.ndarray) -> float:
        """Sum over the full grid of the even field with block values `values`."""
        return float(np.sum(self.weights * values))


@dataclass(frozen=True)
class Field:
    """Real scalar field on a Grid or on its EvenBlock (values row-major by axis)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ValueError(f"field shape {v.shape} does not match grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", v)

    def _check_same_grid(self, other: "Field"):
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")

    def __add__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, other) -> "Field":
        """The field scaled by the real number other; a Field operand raises TypeError."""
        return Field(self.grid, self.values * float(other))

    __rmul__ = __mul__

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.shape))


def half_spectrum_multiplier(grid, sym) -> np.ndarray:
    """Values of a radial symbol, a callable of |xi|^2 (see symbols), on grid's frequency grid."""
    xi_sq = grid.xi_sq if isinstance(grid, EvenBlock) else grid.xi_sq_half
    return np.asarray(sym(xi_sq), dtype=np.float64)


def half_spectrum_apply(grid, values: np.ndarray, mult_half: np.ndarray) -> np.ndarray:
    """Apply the Fourier multiplier mult_half to a real array on grid.

    The one multiplier path: irfftn(mult_half * rfftn(values)) on a Grid
    (mult_half in rfftn layout), idctn(mult_half * dctn(values)) with DCT-I on
    an EvenBlock (mult_half on the k = 0..N/2 orthant, an even symbol). The
    output is real by construction, so no realness check is needed. On a Grid,
    mult_half may be complex when the symbol is odd, as for the derivatives in
    gradient().
    """
    if isinstance(grid, EvenBlock):
        spectrum = _transform(values, grid.dct_matrix, grid.dct_matrix_t)
        return _transform(mult_half * spectrum, grid.idct_matrix, grid.idct_matrix_t)
    return np.fft.irfftn(mult_half * np.fft.rfftn(values), s=grid.shape,
                          axes=range(grid.n))


def gradient(f: Field) -> tuple:
    """Spectral gradient, one Field per axis (Nyquist mode dropped)."""
    g = f.grid
    return tuple(Field(g, half_spectrum_apply(g, f.values, 1j * xi))
                 for xi in g.deriv_freqs_half)


def signed_power(values: np.ndarray, p: float) -> np.ndarray:
    """Odd-extension power sign(v) |v|^p used as the nonlinearity."""
    return np.sign(values) * np.abs(values) ** p


# ---------------------------------------------------------------------------
# norms and inner products
# ---------------------------------------------------------------------------

def _lq(grid, values: np.ndarray, q: float, weights=None) -> float:
    """L^q norm of values on grid, or of values at the orbit representatives with their weights."""
    if q == math.inf:
        return float(np.max(np.abs(values)))
    if q < 1:
        raise ValueError(f"q must be >= 1 or inf, got {q}")
    a = np.abs(values)
    if q == int(q) and q <= _MAX_MULTIPLIED_POWER:
        power = a.copy()  # repeated multiplication: about twice as fast as a float power
        for _ in range(int(q) - 1):
            power *= a
    else:
        power = a ** q
    total = grid.lattice_sum(power) if weights is None else float(weights @ power)
    return float((grid.cell_volume * total) ** (1.0 / q))


def norm_lq(f: Field, q: float) -> float:
    """Discrete L^q norm, (h^n sum |f|^q)^(1/q) over the full grid; q = inf gives the max norm."""
    return _lq(f.grid, f.values, q)


def plancherel_sum(f: Field, *weights) -> tuple:
    """Frequency-side quadratic forms sum_k weight(|xi_k|^2) |fhat_k|^2 of an even-block field.

    Each weight maps |xi|^2 to a radial weight; all of them are summed
    against one DCT-I of f, and the result holds one sum per weight, in
    order. The sum runs over the full lattice: the DCT-I coefficients are
    fhat on the non-negative orthant and count with the block's weights.
    Normalized to match (2 pi)^{-n} * integral of weight * |continuum FT|^2;
    with weight 1 this equals the squared L^2 norm. A full-grid field raises
    ValueError: EvenBlock.restrict takes its sign-flip average onto the block.
    """
    g = f.grid
    if not isinstance(g, EvenBlock):
        raise ValueError("plancherel_sum takes an even-block field; "
                         "EvenBlock.restrict takes a full-grid field there")
    power = g.weights * _transform(f.values, g.dct_matrix, g.dct_matrix_t) ** 2
    return tuple(float(g.cell_volume / g.N ** g.n
                       * np.sum(half_spectrum_multiplier(g, weight) * power))
                 for weight in weights)


def norm_h1(f: Field) -> float:
    """Sobolev H^1 norm of an even-block field, via the (1 + |xi|^2) multiplier."""
    (h1_sq,) = plancherel_sum(f, lambda r2: 1.0 + r2)
    return math.sqrt(h1_sq)


def sobolev_norms(f: Field, q: float) -> tuple:
    """(W^{1,q}, W^{2,q}) norms of a full-grid field, from one gradient.

    W^{1,q} is ||f||_q + sum_i ||d_i f||_q, and W^{2,q} adds
    sum_{i<=j} ||d_j d_i f||_q, each d_i f's second partials right after it.
    Only the n(n+1)/2 second partials with j >= i are transformed.
    """
    g = f.grid
    fq = norm_lq(f, q)
    first, w2 = 0.0, fq
    for i, gi in enumerate(gradient(f)):
        di = norm_lq(gi, q)
        first += di
        w2 += di
        for xi in g.deriv_freqs_half[i:]:
            w2 += _lq(g, half_spectrum_apply(g, gi.values, 1j * xi), q)
    return fq + first, w2


def _is_permutation_symmetric(values: np.ndarray) -> bool:
    """Whether values equal every axis transpose bit for bit (adjacent swaps generate them)."""
    return all(np.array_equal(values, np.swapaxes(values, a, a + 1))
               for a in range(values.ndim - 1))


def _symmetric_block_norms(f: Field) -> tuple:
    """(H^1, W^{1,2n}) norms of a permutation-symmetric block field, from one partial.

    The n partials of such a field are transposes of d = d_0 f, so they
    share its norms. Its H^1 Plancherel sum splits into ||f||_2^2, the
    partials' ||d_a||_2^2, and the Nyquist planes k_a = N/2 that the DST-I
    partials drop, each with weight xi_M^2. By discrete Parseval on the other
    axes, the plane k_0 = N/2 has energy h^n / N * sum weights[0] g^2, with g
    the alternating sum along axis 0 (row N/2 of dct_matrix).
    """
    g = f.grid
    n, v = g.n, f.values
    orbits = g.orbits
    vr = g.at_reps(v)  # v's own terms are taken once per orbit
    d = (g.diff_matrix @ v.reshape(v.shape[0], -1)).reshape(v.shape)
    nyquist = (g.dct_matrix[-1] @ v.reshape(v.shape[0], -1)).reshape(v.shape[1:])
    plane = g.cell_volume / g.N * float(np.sum(g.weights[0] * nyquist * nyquist))
    xi_m = g.grid.freqs_half[-1]
    h1_sq = g.cell_volume * (float(orbits.weights @ (vr * vr)) + n * g.lattice_sum(d * d)) \
        + n * xi_m * xi_m * plane
    q = 2.0 * n
    return math.sqrt(h1_sq), _lq(g, vr, q, orbits.weights) + n * _lq(g, d, q)


def intersection_norm(f: Field) -> float:
    """Norm of H^1 intersect W^{1,2n} of a radial even-block field: the max of the two norms.

    f must equal its axis transposes bit for bit, as symmetrize_radial and
    invert return it (and their sums and differences); it is measured from
    one partial (_symmetric_block_norms). A full-grid field, or a block field
    that is not permutation-symmetric, raises ValueError: EvenBlock.restrict
    takes a field to the block and symmetrize_radial makes it radial. Near
    the float64 limit the transform sums of a finite field can overflow, to
    inf or to inf - inf = nan. Both norms are homogeneous, so the field is
    then measured at unit max and scaled back: the result is the true value
    or inf.
    """
    if not (isinstance(f.grid, EvenBlock) and _is_permutation_symmetric(f.values)):
        raise ValueError("intersection_norm takes a permutation-symmetric even-block field; "
                         "EvenBlock.restrict and symmetrize_radial make one")
    norms = _symmetric_block_norms(f)
    if all(math.isfinite(x) for x in norms):
        return max(norms)
    scale = float(np.max(np.abs(f.values)))
    return scale * intersection_norm(Field(f.grid, f.values / scale))


# ---------------------------------------------------------------------------
# radial (hyperoctahedral) symmetrization
# ---------------------------------------------------------------------------

def symmetrize_radial(f: Field) -> Field:
    """Average of an EvenBlock field over the grid symmetry group.

    A block field is already even, so the average is the one over the axis
    permutations: EvenBlock.orbit_mean, written to every point of each orbit.
    A full-grid field raises ValueError: EvenBlock.restrict takes its
    sign-flip average onto the block.

    The output equals each of its axis transposes bit for bit, and a second
    call returns it unchanged. On 33^3 the 3-D orbit mean takes 0.13 ms
    against 0.32 ms for the sum of the six transposes, which is symmetric
    only to rounding (one BLAS thread, Intel Xeon).
    """
    block = f.grid
    if not isinstance(block, EvenBlock):
        raise ValueError("symmetrize_radial takes an even-block field; restrict it first")
    return Field(block, block.from_reps(block.orbit_mean(f.values)))


# ---------------------------------------------------------------------------
# field dump format
# ---------------------------------------------------------------------------

def write_field(path, f: Field, label: str, p: float = float("nan"),
                c: float = float("nan")) -> None:
    """Write a field dump: one metadata line, then raw little-endian float64.

    Layout: b"n=<n> N=<N> L=<repr> p=<repr> c=<repr> label=<label>\\n" followed
    by the full-grid values row-major; a block field is written as its lift,
    the even full-grid field whose index i reads block index |i - N/2| on
    every axis, one N^(n-1) slab at a time, so no full-grid array is built.
    A full-grid field round-trips bit-exactly.
    """
    if any(ch.isspace() for ch in label) or not label:
        raise ValueError(f"label must be non-empty and contain no whitespace: {label!r}")
    if not label.isascii():  # checked before open() truncates path
        raise ValueError(f"label must be ASCII: {label!r}")
    grid = f.grid.grid if isinstance(f.grid, EvenBlock) else f.grid
    head = (f"n={grid.n} N={grid.N} L={grid.L!r} p={float(p)!r} "
            f"c={float(c)!r} label={label}\n")
    v = np.asarray(f.values, dtype="<f8")
    if grid is f.grid:
        slabs = (v,)
    else:
        idx = np.abs(np.arange(grid.N) - grid.N // 2)
        rest = np.ix_(*(idx,) * (grid.n - 1))
        slabs = (v[idx],) if grid.n == 1 else (v[i][rest] for i in idx)
    with open(path, "wb") as fh:
        fh.write(head.encode("ascii"))
        for slab in slabs:
            fh.write(np.ascontiguousarray(slab))


_DUMP_KEYS = {"n": int, "N": int, "L": float, "p": float, "c": float, "label": str}


def read_field(path):
    """Read a field dump written by write_field; returns (Field, metadata dict).

    A malformed header (an unknown, repeated, empty or missing key) or a
    payload that is not 8 N^n bytes raises ValueError.
    """
    with open(path, "rb") as fh:
        head = fh.readline().decode("ascii").strip()
        meta = {}
        for tok in head.split():
            key, _, val = tok.partition("=")
            if key not in _DUMP_KEYS:
                raise ValueError(f"unknown field-dump metadata key {key!r}")
            if key in meta or not val:
                raise ValueError(f"field-dump metadata key {key!r} is repeated or empty")
            meta[key] = _DUMP_KEYS[key](val)
        missing = [key for key in _DUMP_KEYS if key not in meta]
        if missing:
            raise ValueError(f"field dump lacks metadata key(s) {', '.join(missing)}")
        grid = Grid(meta["n"], meta["N"], meta["L"])
        expected = 8 * grid.N ** grid.n
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size == expected:
            values = np.empty(grid.shape, dtype="<f8")  # the payload is read once, into place
            size = fh.readinto(memoryview(values).cast("B"))
    if size != expected:
        raise ValueError(f"field dump payload is {size} bytes; a {grid.shape} grid "
                         f"needs {expected}")
    return Field(grid, values), meta

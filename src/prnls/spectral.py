"""Periodic spectral substrate: grids, fields, transforms, multipliers, norms.

Everything downstream (ground states, linearized solves, diagnostics) runs on a
uniform periodic grid over the box [-L, L)^n and represents Fourier-multiplier
operators diagonally on the discrete frequency lattice xi_k = (pi/L) k.

Conventions
-----------
* Every Fourier multiplier is applied by half_spectrum_apply, the real
  rfftn/irfftn pair on the half lattice (last axis 0..N/2). Fields are real,
  so the other half of the spectrum is the complex conjugate and carries no
  information. Only resample, which evaluates off the lattice, takes a full
  fftn.
* Plancherel-type sums use the factor h^n / N^n on raw unscaled FFT power,
  which is exactly consistent with the physical-space quadrature h^n * sum().
* First-derivative multipliers zero the Nyquist mode (k = -N/2), the standard
  convention that keeps spectral derivatives of real fields real and makes
  mixed partials commute exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainOverflowError, SymmetryError

_IMAG_RESIDUE_TOL = 1e-12


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
        if not (self.L > 0 and math.isfinite(self.L)):
            raise ValueError(f"box half-width L must be positive and finite, got {self.L}")

    @property
    def h(self) -> float:
        """Grid spacing 2L/N."""
        return 2.0 * self.L / self.N

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.n

    @property
    def cell_volume(self) -> float:
        return self.h ** self.n

    @property
    def num_points(self) -> int:
        return self.N ** self.n

    @cached_property
    def axis_coords(self) -> np.ndarray:
        """Physical coordinates along one axis: x_j = -L + j h."""
        return -self.L + self.h * np.arange(self.N)

    @cached_property
    def coords(self) -> tuple:
        """Broadcastable coordinate arrays, one per axis (open meshgrid)."""
        return tuple(np.reshape(self.axis_coords, _axis_shape(self.n, a)) for a in range(self.n))

    @cached_property
    def radius_sq(self) -> np.ndarray:
        """|x|^2 on the full grid."""
        out = np.zeros(self.shape)
        for c in self.coords:
            out = out + c * c
        return out

    @cached_property
    def freqs(self) -> tuple:
        """Per-axis frequency values xi = (pi/L) k in FFT storage order."""
        xi = 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.h)
        return (xi,) * self.n

    @cached_property
    def freqs_half(self) -> np.ndarray:
        """Frequencies of the last axis in rfft (half-spectrum) layout."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.N, d=self.h)

    @cached_property
    def xi_sq_half(self) -> np.ndarray:
        """|xi|^2 on the rfftn lattice (last axis halved)."""
        shape = self.shape[:-1] + (self.N // 2 + 1,)
        out = np.zeros(shape)
        for a in range(self.n - 1):
            xi = np.reshape(self.freqs[a], _axis_shape(self.n, a))
            out = out + xi * xi
        xi = self.freqs_half
        out = out + np.reshape(xi * xi, (1,) * (self.n - 1) + (len(xi),))
        return out

    @cached_property
    def deriv_freqs_half(self) -> tuple:
        """Per-axis first-derivative frequencies on the rfftn lattice."""
        out = []
        for a in range(self.n - 1):
            xi = self.freqs[a].copy()
            xi[self.N // 2] = 0.0
            out.append(np.reshape(xi, _axis_shape(self.n, a)))
        xi = self.freqs_half.copy()
        xi[-1] = 0.0  # last rfft entry is the Nyquist mode
        out.append(np.reshape(xi, (1,) * (self.n - 1) + (len(xi),)))
        return tuple(out)

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


@dataclass(frozen=True)
class Field:
    """Real scalar field sampled on a Grid (values indexed row-major by axis)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ValueError(f"field shape {v.shape} does not match grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", v)

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.grid, values)

    def _check_same_grid(self, other: "Field"):
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")

    def __add__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.values - other.values)

    def __neg__(self) -> "Field":
        return Field(self.grid, -self.values)

    def __mul__(self, other):
        if isinstance(other, Field):
            self._check_same_grid(other)
            return Field(self.grid, self.values * other.values)
        return Field(self.grid, self.values * float(other))

    __rmul__ = __mul__

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "Field":
        """Sample fn(x1, ..., xn) on the grid (fn must broadcast)."""
        return cls(grid, np.broadcast_to(fn(*grid.coords), grid.shape).astype(np.float64).copy())


def _require_real(w: np.ndarray, what: str) -> np.ndarray:
    scale = np.max(np.abs(w.real))
    residue = np.max(np.abs(w.imag))
    if residue > _IMAG_RESIDUE_TOL * max(scale, 1.0):
        raise SymmetryError(
            f"{what}: imaginary residue {residue:.3e} exceeds {_IMAG_RESIDUE_TOL:.0e} * scale"
        )
    return w.real.copy()


def half_spectrum_multiplier(grid: Grid, sym) -> np.ndarray:
    """Values of a radial symbol (see symbols.Symbol) on the rfftn lattice."""
    return np.asarray(sym(grid.xi_sq_half), dtype=np.float64)


def half_spectrum_apply(grid: Grid, values: np.ndarray, mult_half: np.ndarray) -> np.ndarray:
    """Apply the Fourier multiplier mult_half (rfftn layout) to a real array.

    The one multiplier path: irfftn(mult_half * rfftn(values)). The output is
    real by construction, so no realness check is needed. mult_half may be
    complex when the symbol is odd, as for the derivatives in gradient().
    """
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

def norm_lq(f: Field, q: float) -> float:
    """Discrete L^q norm, (h^n sum |f|^q)^(1/q); q = inf gives the max norm."""
    if q == math.inf:
        return float(np.max(np.abs(f.values)))
    if q < 1:
        raise ValueError(f"q must be >= 1 or inf, got {q}")
    return float((f.grid.cell_volume * np.sum(np.abs(f.values) ** q)) ** (1.0 / q))


def plancherel_sum(f: Field, weight) -> float:
    """Frequency-side quadratic form sum_k weight(|xi_k|^2) |fhat_k|^2.

    `weight` maps |xi|^2 to a radial weight. The sum runs over the full
    lattice but is evaluated on the rfftn half: a real field has
    |fhat(-k)| = |fhat(k)|, so last-axis columns 1..N/2-1 stand for
    themselves and their mirror columns and count twice, while columns 0 and
    N/2 are their own mirrors. Normalized to match (2 pi)^{-n} * integral of
    weight * |continuum FT|^2; with weight 1 this equals the squared L^2 norm.
    """
    g = f.grid
    power = np.abs(np.fft.rfftn(f.values)) ** 2
    power[..., 1:g.N // 2] *= 2.0
    w = np.asarray(weight(g.xi_sq_half), dtype=np.float64)
    return float(g.cell_volume / g.num_points * np.sum(w * power))


def norm_h1(f: Field) -> float:
    """Sobolev H^1 norm via the (1 + |xi|^2) multiplier."""
    return math.sqrt(plancherel_sum(f, lambda r2: 1.0 + r2))


def norm_w1q(f: Field, q: float) -> float:
    """W^{1,q} norm: ||f||_q + sum_i ||d_i f||_q."""
    return norm_lq(f, q) + sum(norm_lq(df, q) for df in gradient(f))


def norm_w2q(f: Field, q: float) -> float:
    """W^{2,q} norm: ||f||_q + sum_i ||d_i f||_q + sum_{i<=j} ||d_i d_j f||_q."""
    total = norm_lq(f, q)
    for i, gi in enumerate(gradient(f)):
        total += norm_lq(gi, q)
        second = gradient(gi)
        for j in range(i, f.grid.n):
            total += norm_lq(second[j], q)
    return total


def intersection_norm(f: Field, q: float) -> float:
    """Norm of H^1 intersect W^{1,q}, taken as the max of the two norms."""
    return max(norm_h1(f), norm_w1q(f, q))


# ---------------------------------------------------------------------------
# radial (hyperoctahedral) symmetrization
# ---------------------------------------------------------------------------

def _reflect(values: np.ndarray, axis: int) -> np.ndarray:
    # periodic point reflection x -> -x maps index j to (N - j) mod N
    return np.roll(np.flip(values, axis=axis), 1, axis=axis)


def symmetrize_radial(f: Field) -> Field:
    """Average over the grid symmetry group (sign flips and axis permutations).

    Sequential per-axis even projections realize the sign-flip average; the
    permutation average then completes the full group average (the flip
    average is permutation-equivariant). Idempotent up to roundoff.
    """
    v = f.values
    for axis in range(f.grid.n):
        v = 0.5 * (v + _reflect(v, axis))
    if f.grid.n > 1:
        perms = list(itertools.permutations(range(f.grid.n)))
        acc = np.zeros_like(v)
        for perm in perms:
            acc += np.transpose(v, perm)
        v = acc / len(perms)
    return Field(f.grid, v)


def is_radial_symmetric(f: Field, tol: float) -> bool:
    """True if f is invariant under the grid symmetry group within tol (relative)."""
    sym = symmetrize_radial(f)
    scale = max(float(np.max(np.abs(f.values))), 1e-300)
    return float(np.max(np.abs(sym.values - f.values))) <= tol * scale


# ---------------------------------------------------------------------------
# resampling (trigonometric interpolation)
# ---------------------------------------------------------------------------

def resample(f: Field, target: Grid, scale: float = 1.0) -> Field:
    """Evaluate the trigonometric interpolant of f at scale * target coordinates.

    Exact (to roundoff) for band-limited fields when the evaluation points lie
    on the source lattice; Nyquist content is dropped. Raises
    DomainOverflowError if the rescaled points leave the source box.
    """
    src = f.grid
    if target.n != src.n:
        raise ValueError("resample requires matching dimensions")
    if scale <= 0 or not math.isfinite(scale):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    if scale * target.L > src.L * (1.0 + 1e-9):
        raise DomainOverflowError(
            f"rescaled half-width {scale * target.L:.6g} exceeds source half-width {src.L:.6g}"
        )

    coeffs = np.fft.fftn(f.values)
    k_int = np.rint(np.fft.fftfreq(src.N) * src.N).astype(int)
    # drop the Nyquist plane on every axis (it has no conjugate partner)
    nyq = k_int == -src.N // 2
    for axis in range(src.n):
        idx = [slice(None)] * src.n
        idx[axis] = nyq
        coeffs[tuple(idx)] = 0.0

    phase = np.where(k_int % 2 == 0, 1.0, -1.0)  # e^{i xi_k L} = (-1)^k
    y = scale * target.axis_coords
    out = coeffs
    for axis in range(src.n):
        e = np.exp(1j * np.outer(y, src.freqs[axis])) * phase / src.N
        out = np.moveaxis(np.tensordot(e, out, axes=(1, axis)), 0, axis)
    return Field(target, _require_real(out, "resample"))


def random_band_limited(grid: Grid, rng: np.random.Generator, kmax: float,
                        symmetric: bool = False) -> Field:
    """Random smooth test field with spectrum restricted to |xi| <= kmax."""
    noise = rng.standard_normal(grid.shape)
    mask = (grid.xi_sq_half <= kmax * kmax).astype(np.float64)
    v = half_spectrum_apply(grid, noise, mask)
    f = Field(grid, v)
    if symmetric:
        f = symmetrize_radial(f)
    scale = float(np.max(np.abs(f.values)))
    if scale > 0:
        f = f * (1.0 / scale)
    return f


# ---------------------------------------------------------------------------
# field dump format
# ---------------------------------------------------------------------------

def write_field(path, f: Field, label: str, p: float = float("nan"),
                c: float = float("nan")) -> None:
    """Write a field dump: one metadata line, then raw little-endian float64.

    Layout: b"n=<n> N=<N> L=<repr> p=<repr> c=<repr> label=<label>\\n" followed
    by the values row-major. Round-trips bit-exactly.
    """
    if any(ch.isspace() for ch in label) or not label:
        raise ValueError(f"label must be non-empty and contain no whitespace: {label!r}")
    head = (f"n={f.grid.n} N={f.grid.N} L={f.grid.L!r} p={float(p)!r} "
            f"c={float(c)!r} label={label}\n")
    with open(path, "wb") as fh:
        fh.write(head.encode("ascii"))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


_DUMP_KEYS = {"n": int, "N": int, "L": float, "p": float, "c": float, "label": str}


def read_field(path):
    """Read a field dump written by write_field; returns (Field, metadata dict).

    A malformed header or a payload that is not 8 N^n bytes raises ValueError.
    """
    with open(path, "rb") as fh:
        head = fh.readline().decode("ascii").strip()
        raw = fh.read()
    meta = {}
    for tok in head.split():
        key, _, val = tok.partition("=")
        if key not in _DUMP_KEYS:
            raise ValueError(f"unknown field-dump metadata key {key!r}")
        meta[key] = _DUMP_KEYS[key](val)
    missing = [key for key in _DUMP_KEYS if key not in meta]
    if missing:
        raise ValueError(f"field dump lacks metadata key(s) {', '.join(missing)}")
    grid = Grid(meta["n"], meta["N"], meta["L"])
    expected = 8 * grid.N ** grid.n
    if len(raw) != expected:
        raise ValueError(f"field dump payload is {len(raw)} bytes; a {grid.shape} grid "
                         f"needs {expected}")
    values = np.frombuffer(raw, dtype="<f8").reshape(grid.shape).astype(np.float64)
    return Field(grid, values), meta

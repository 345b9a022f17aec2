"""Full-lattice and scipy.fft references for the half-spectrum and even-block paths.

prnls applies every Fourier multiplier through the real rfftn/irfftn pair (or
the DCT-I pair on the even block) and sums Plancherel forms over the rfftn
half lattice. These helpers do the same work the textbook way, on the full
complex fftn lattice, and serve the tests as an independent oracle.
dct1_multiplier, dct1_plancherel_sum and dst1_partials are the even-block
transforms as scipy.fft computes them (DCT-I, and DST-I for the partials),
the path the block took before it became cached per-axis matrix products.
full_grid_resample is the trigonometric interpolant on the full grid, which
strip_oracle uses to refine its fields: the complex fftn coefficients,
phase-shifted to the box origin, evaluated by a complex exponential per axis,
with the realness check (_require_real) that fft_multiplier also applies.
block_partials and general_norms are intersection_norm's general path, the
way it measured a block field before it took only permutation-symmetric
ones: all n partials (diff_matrix along each axis), norm_h1 and the
W^{1,2n} norm summed over the partials. _along_axis, which takes each of
those partials, is one matrix along one axis of a block, the per-axis pass
that the block transforms ran through before a 3-D block became three
stacked matmuls; a 1-D or 2-D transform still gives its bits.
full_grid_symmetrize_radial and full_grid_gaussian are the radial
projection and the Petviashvili seed as they were built on the full grid,
before the even block became the only place that builds or projects a
radial field; gather is EvenBlock.restrict as it was then.
block_potential and block_apply are the linearized operator on the even
block, as LinearizedOperator and linsolve.apply held it before the operator
kept its pointwise terms at the orbit representatives and invert checked its
residual there. full_grid_pc, full_grid_potential and full_grid_apply are the
linearized operator on the full periodic grid, as LinearizedOperator and
apply() held it before that, and full_grid_invert is the linearized
inversion there, the path invert() took before it moved to the even block.
two_pair_petviashvili is solve_limit_equation's loop as it was when each
step took P_inf(D) u_k by a transform pair of its own. lstsq_gmres is the
restarted GMRES that solves the full Hessenberg least-squares problem at
every step, the loop _gmres ran before it updated the residual by Givens
rotations. norm_w1q and norm_w2q are the norm probe's W^{1,q} and W^{2,q}
norms as two functions, before sobolev_norms returned both from one
gradient: each builds the gradient, and norm_w2q transforms all n^2 second
partials. lift is EvenBlock.lift as it was before write_field streamed a
block field's dump slab by slab: the whole even full-grid field at once.
relativistic_symbol is the physical frame's kinetic symbol
sqrt(c^2 |xi|^2 + m^2 c^4) - m c^2 at any mass m, an oracle for the reduced
kinetic part (m = 1/2) and for lifted solutions. random_band_limited is the
norm probe's broadband field as it was drawn before the probe drew it as a
shell from 0 to kmax.
"""

import itertools
import math

import numpy as np
import scipy.fft

from prnls.errors import ConvergenceError
from prnls.ground_state import (_MAX_PETVIASHVILI, _RESIDUAL_STALL, initial_gaussian,
                                limit_residual)
from prnls.linsolve import _STALL_FACTOR, _STALL_WINDOW, _gmres
from prnls.spectral import (Field, Grid, _along_first_axis, gradient, half_spectrum_apply,
                            half_spectrum_multiplier, norm_h1, norm_lq, symmetrize_radial)
from prnls.symbols import p_c

from conftest import axis_coords, radius_sq

_IMAG_RESIDUE_TOL = 1e-12


def _require_real(w: np.ndarray, what: str) -> np.ndarray:
    """The real part of w; ValueError if its imaginary residue exceeds 1e-12 of its scale."""
    scale = np.max(np.abs(w.real))
    residue = np.max(np.abs(w.imag))
    if residue > _IMAG_RESIDUE_TOL * max(scale, 1.0):
        raise ValueError(
            f"{what}: imaginary residue {residue:.3e} exceeds {_IMAG_RESIDUE_TOL:.0e} * scale"
        )
    return w.real.copy()


def lift(block, f: Field) -> Field:
    """The even full-grid field with block values f (index i reads |i - N/2|)."""
    if f.grid != block:
        raise ValueError("field does not live on this block")
    idx = np.abs(np.arange(block.N) - block.N // 2)
    return Field(block.grid, f.values[np.ix_(*(idx,) * block.n)])


def xi_sq_full(grid) -> np.ndarray:
    """|xi|^2 on the full frequency lattice (fftn layout)."""
    out = np.zeros(grid.shape)
    for a in range(grid.n):
        shape = [1] * grid.n
        shape[a] = -1
        xi = np.reshape(grid.freqs, shape)
        out = out + xi * xi
    return out


def fft_multiplier(sym, f: Field) -> Field:
    """Apply a real radial multiplier as ifftn(sym(|xi|^2) * fftn(f)), realness checked."""
    mult = np.asarray(sym(xi_sq_full(f.grid)), dtype=np.float64)
    w = np.fft.ifftn(mult * np.fft.fftn(f.values))
    return Field(f.grid, _require_real(w, "fft_multiplier"))


def fft_plancherel_sum(f: Field, weight) -> float:
    """sum_k weight(|xi_k|^2) |fhat_k|^2 over the full lattice, in Plancherel scaling."""
    g = f.grid
    w = np.asarray(weight(xi_sq_full(g)), dtype=np.float64)
    power = np.abs(np.fft.fftn(f.values)) ** 2
    return float(g.cell_volume / g.N ** g.n * np.sum(w * power))


def relativistic_symbol(m: float, c: float):
    """General kinetic symbol sqrt(c^2 |xi|^2 + m^2 c^4) - m c^2 (no unit shift)."""
    if not (c > 0 and m > 0):
        raise ValueError(f"mass m and speed c must be positive, got m = {m}, c = {c}")

    def fn(r2):
        s = np.sqrt(1.0 + r2 / (m * m * c * c))
        return r2 / (m * (1.0 + s))

    return fn


def random_band_limited(grid: Grid, rng: np.random.Generator, kmax: float) -> Field:
    """Random smooth test field with spectrum restricted to |xi| <= kmax, of max 1."""
    noise = rng.standard_normal(grid.shape)
    mask = (grid.xi_sq_half <= kmax * kmax).astype(np.float64)
    f = Field(grid, half_spectrum_apply(grid, noise, mask))
    scale = float(np.max(np.abs(f.values)))
    return f * (1.0 / scale) if scale > 0 else f


def full_grid_resample(f: Field, target: Grid, scale: float = 1.0) -> Field:
    """The trigonometric interpolant of a full-grid field at scale * target's coordinates.

    The Nyquist plane is dropped on every axis (it has no conjugate partner).
    """
    src = f.grid
    coeffs = np.fft.fftn(f.values)
    k_int = np.rint(np.fft.fftfreq(src.N) * src.N).astype(int)
    nyq = k_int == -src.N // 2
    for axis in range(src.n):
        idx = [slice(None)] * src.n
        idx[axis] = nyq
        coeffs[tuple(idx)] = 0.0

    phase = np.where(k_int % 2 == 0, 1.0, -1.0)  # e^{i xi_k L} = (-1)^k
    y = scale * axis_coords(target)
    out = coeffs
    for axis in range(src.n):
        e = np.exp(1j * np.outer(y, src.freqs)) * phase / src.N
        out = np.moveaxis(np.tensordot(e, out, axes=(1, axis)), 0, axis)
    return Field(target, _require_real(out, "resample"))


def dct1_multiplier(values: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """idctn(mult * dctn(values)) with scipy's DCT-I, for block values."""
    return scipy.fft.idctn(mult * scipy.fft.dctn(values, type=1), type=1)


def dct1_plancherel_sum(f: Field, weight) -> float:
    """plancherel_sum of a block field from scipy's DCT-I coefficients."""
    g = f.grid
    power = g.weights * scipy.fft.dctn(f.values, type=1) ** 2
    w = np.asarray(weight(g.xi_sq), dtype=np.float64)
    return float(g.cell_volume / g.N ** g.n * np.sum(w * power))


def dst1_partials(f: Field) -> list:
    """First partials of a block field: per axis a, the DST-I along a (DCT-I along the
    others) of -xi_a times the DCT-I coefficients, zero on the x = 0 and x = L faces."""
    g = f.grid
    coeffs = scipy.fft.dctn(f.values, type=1)
    out = []
    for a in range(g.n):
        inner = tuple(slice(1, -1) if b == a else slice(None) for b in range(g.n))
        shape = [1] * g.n
        shape[a] = -1
        xi = np.reshape(g.grid.freqs_half[1:-1], shape)
        d = scipy.fft.idst(-xi * coeffs[inner], type=1, axis=a)
        others = tuple(b for b in range(g.n) if b != a)
        if others:
            d = scipy.fft.idctn(d, type=1, axes=others)
        out.append(np.pad(d, [(1, 1) if b == a else (0, 0) for b in range(g.n)]))
    return out


def _along_axis(values: np.ndarray, mat: np.ndarray, mat_t: np.ndarray | None,
                axis: int) -> np.ndarray:
    """Apply the square matrix mat along one axis of values.

    Axis 0 is spectral._along_first_axis, also in 1-D, where mat_t is not
    read. The last axis of a 2-D or 3-D array is one GEMM too,
    values.reshape(-1, s) @ mat_t, and the 3-D middle axis a stacked matmul.
    """
    if axis == 0:
        return _along_first_axis(values, mat)
    shape = values.shape
    if axis == len(shape) - 1:
        return (values.reshape(-1, shape[axis]) @ mat_t).reshape(shape)
    return np.matmul(mat, values.reshape(-1, shape[axis], math.prod(shape[axis + 1:]))
                     ).reshape(shape)


def block_partials(f: Field) -> list:
    """First partials of a block field, as raw arrays on the block.

    d_a f is odd along axis a, so it is no block Field: it is diff_matrix
    along axis a, zero on the x = 0 and x = L faces.
    """
    g = f.grid
    return [_along_axis(f.values, g.diff_matrix, g.diff_matrix.T, a) for a in range(g.n)]


def general_norms(f: Field) -> tuple:
    """(H^1, W^{1,2n}) norms of any block field, from norm_h1 and all n partials."""
    g = f.grid
    q = 2.0 * g.n
    return norm_h1(f), norm_lq(f, q) + sum(norm_lq(Field(g, d), q) for d in block_partials(f))


def norm_w1q(f: Field, q: float) -> float:
    """W^{1,q} norm of a full-grid field: ||f||_q + sum_i ||d_i f||_q."""
    return norm_lq(f, q) + sum(norm_lq(d, q) for d in gradient(f))


def norm_w2q(f: Field, q: float) -> float:
    """W^{2,q} norm: ||f||_q + sum_i ||d_i f||_q + sum_{i<=j} ||d_i d_j f||_q."""
    total = norm_lq(f, q)
    for i, gi in enumerate(gradient(f)):
        total += norm_lq(gi, q)
        second = gradient(gi)
        for j in range(i, f.grid.n):
            total += norm_lq(second[j], q)
    return total


def gather(block, values: np.ndarray) -> np.ndarray:
    """The values of a full-grid array at the block's points, x = j h, j = 0..N/2 per axis.

    EvenBlock.restrict before it became the sign-flip average: on a field
    that is not even it drops the x_a < 0 half instead of averaging it in.
    """
    idx = (block.N // 2 + np.arange(block.N // 2 + 1)) % block.N
    return values[np.ix_(*(idx,) * block.n)]


def reflect(values: np.ndarray, axis: int) -> np.ndarray:
    """Periodic point reflection x -> -x along one axis: index j goes to (N - j) mod N."""
    return np.roll(np.flip(values, axis=axis), 1, axis=axis)


def flip_average(values: np.ndarray) -> np.ndarray:
    """Average of a full-grid array over the sign flips x_a -> -x_a, by sequential
    per-axis even projections."""
    for axis in range(values.ndim):
        values = 0.5 * (values + reflect(values, axis))
    return values


def full_grid_symmetrize_radial(f: Field) -> Field:
    """Average of a full-grid field over sign flips and axis permutations, on the full grid.

    The permutation average of the flip average v is the full group average.
    In 2-D it is (v + v^T) / 2. In 3-D each point x sums the values at the
    permutations of x in symmetrize_radial's order, which is fixed per orbit:
    the coordinates of x are sorted by |x_a| (stably), and the value at the
    sorted coordinates permuted by s, t_s, is taken for s in
    itertools.permutations order. The mean is t_1 + sum_s (t_s - t_1) / 6.
    """
    v = flip_average(f.values)
    if f.grid.n == 2:
        v = (v + v.T) / 2.0
    elif f.grid.n == 3:
        idx = np.indices(v.shape)
        by_radius = np.argsort(np.abs(idx - f.grid.N // 2), axis=0, kind="stable")
        coords = np.take_along_axis(idx, by_radius, axis=0)
        terms = [v[tuple(coords[a] for a in perm)]
                 for perm in itertools.permutations(range(3))]
        spread = terms[1] - terms[0]
        for t in terms[2:]:
            spread += t - terms[0]
        v = terms[0] + spread / len(terms)
    return Field(f.grid, v)


def full_grid_gaussian(grid, p: float, width: float = 1.0) -> Field:
    """initial_gaussian on the full grid: A exp(-|x|^2 / (2 width^2)), with A from
    the quadratic form ||grad g||^2 + ||g||^2 of the full-grid spectral gradient."""
    shape = Field(grid, np.exp(-radius_sq(grid) / (2.0 * width * width)))
    quad = sum(norm_lq(d, 2) ** 2 for d in gradient(shape)) + norm_lq(shape, 2) ** 2
    source = norm_lq(shape, p + 1.0) ** (p + 1.0)
    return float((quad / source) ** (1.0 / (p - 1.0))) * shape


def block_potential(op) -> Field:
    """op's potential p max(u_inf, 0)^{p-1} on the even block, expanded from its orbit vector."""
    block = op.grid.even
    return Field(block, op.potential[block.orbits.expand].reshape(block.shape))


def block_apply(op, w: Field) -> Field:
    """L w = P_c(D) w - p u_inf^{p-1} w, for w on the even block of op's grid."""
    block = op.grid.even
    if w.grid != block:
        raise ValueError("field does not live on the even block of the operator's grid")
    pw = half_spectrum_apply(block, w.values, op.pc_even)
    return Field(block, pw - block_potential(op).values * w.values)


def full_grid_pc(op) -> np.ndarray:
    """P_c(D) of op on the rfftn half lattice of its grid."""
    return half_spectrum_multiplier(op.grid, p_c(op.c))


def full_grid_potential(op) -> Field:
    """op's potential p max(u_inf, 0)^{p-1} on the full grid, lifted from the block."""
    return lift(op.grid.even, block_potential(op))


def full_grid_apply(op, w: Field) -> Field:
    """L w = P_c(D) w - p u_inf^{p-1} w for a full-grid w, by the rfftn pair."""
    pw = half_spectrum_apply(op.grid, w.values, full_grid_pc(op))
    return Field(op.grid, pw - full_grid_potential(op).values * w.values)


def full_grid_krylov_operator(op, project=True):
    """invert()'s Krylov operator Id - p u_inf^{p-1} P_c^{-1} on the full grid.

    An rfftn matvec on flattened full-grid arrays, followed by a full
    full_grid_symmetrize_radial unless project is False.
    """
    grid = op.grid
    inv_pc = 1.0 / full_grid_pc(op)
    pot = full_grid_potential(op).values

    def apply_b(v):
        flat = v.reshape(grid.shape)
        out = flat - pot * half_spectrum_apply(grid, flat, inv_pc)
        if project:
            out = full_grid_symmetrize_radial(Field(grid, out)).values
        return out.ravel()
    return apply_b


def full_grid_invert(op, f: Field, tol: float):
    """Solve L w = f for the radial projection of f on the full grid.

    Returns (w, matvecs): the solution, and the number of Krylov operator
    applications _gmres made.
    """
    grid = op.grid
    f = full_grid_symmetrize_radial(f)
    apply_b = full_grid_krylov_operator(op)
    calls = []

    def counted(v):
        calls.append(1)
        return apply_b(v)

    b = f.values.ravel()
    v, _ = _gmres(counted, b, 0.8 * tol * float(np.linalg.norm(b)))
    w = Field(grid, half_spectrum_apply(grid, v.reshape(grid.shape), 1.0 / full_grid_pc(op)))
    return full_grid_symmetrize_radial(w), len(calls)


def two_pair_petviashvili(rp, grid, tol: float):
    """The Petviashvili iteration from initial_gaussian with two transform pairs per step.

    P_inf(D) u_k is applied to each iterate, where solve_limit_equation
    carries M_k^gamma u_k^p over from the step before. Stops as it does, on
    step < tol and residual < 10 tol, and raises ConvergenceError where it
    would. Returns (u_even values, iterations, negative clamps).
    """
    p = rp.p
    gamma = p / (p - 1.0)
    block = grid.even
    pinf = block.xi_sq + 1.0
    vol = grid.cell_volume
    u = symmetrize_radial(initial_gaussian(grid, p)).values
    clamps = 0
    last_res = np.inf
    for k in range(1, _MAX_PETVIASHVILI + 1):
        up = np.maximum(u, 0.0) ** p
        clamps += int(block.lattice_sum(u < 0.0))
        num = vol * block.lattice_sum(half_spectrum_apply(block, u, pinf) * u)
        factor = num / (vol * block.lattice_sum(up * u))
        unew = factor ** gamma * half_spectrum_apply(block, up, 1.0 / pinf)
        unew = symmetrize_radial(Field(block, unew)).values
        step = float(np.max(np.abs(unew - u)))
        u = unew
        if step < tol:
            res = limit_residual(Field(block, u), p)
            if res < 10.0 * tol:
                return u, k, clamps
            if res > _RESIDUAL_STALL * last_res:
                raise ConvergenceError(f"settled at iteration {k} on residual {res:.3e}")
            last_res = res
    raise ConvergenceError(f"no convergence within {_MAX_PETVIASHVILI} steps")


def lstsq_gmres(apply_b, b: np.ndarray, tol_abs: float, restart: int, max_iter: int):
    """_gmres with an np.linalg.lstsq solve per Krylov step; returns (x, iterations)."""
    size = b.size
    x = np.zeros(size)
    best = np.inf
    last_improve = 0
    total = 0
    while True:
        r = b - apply_b(x)
        beta = float(np.linalg.norm(r))
        if beta <= tol_abs:
            return x, total
        m = min(restart, max_iter - total)
        if m <= 0:
            raise ConvergenceError(
                f"krylov inversion did not reach tolerance within {max_iter} iterations")
        basis = np.empty((m + 1, size))
        basis[0] = r / beta
        hess = np.zeros((m + 1, m))
        y = np.zeros(0)
        used = 0
        for j in range(m):
            w = apply_b(basis[j])
            for i in range(j + 1):  # modified Gram-Schmidt
                hess[i, j] = float(np.dot(basis[i], w))
                w -= hess[i, j] * basis[i]
            hess[j + 1, j] = float(np.linalg.norm(w))
            total += 1
            used = j + 1

            e1 = np.zeros(j + 2)
            e1[0] = beta
            y = np.linalg.lstsq(hess[:j + 2, :j + 1], e1, rcond=None)[0]
            res = float(np.linalg.norm(hess[:j + 2, :j + 1] @ y - e1))
            if res < best * _STALL_FACTOR:
                best = res
                last_improve = total
            elif total - last_improve >= _STALL_WINDOW:
                raise ConvergenceError(
                    f"krylov residual stagnated near {best:.3e} for {_STALL_WINDOW} "
                    "iterations (operator is near-singular)")
            if res <= tol_abs:
                return x + np.tensordot(y, basis[:used], axes=(0, 0)), total
            if hess[j + 1, j] <= 1e-14 * beta:
                break  # invariant subspace reached; restart from the new residual
            basis[j + 1] = w / hess[j + 1, j]
        x = x + np.tensordot(y, basis[:used], axes=(0, 0))

"""Full-lattice and scipy.fft references for the half-spectrum and even-block paths.

prnls applies every Fourier multiplier through the real rfftn/irfftn pair (or
the DCT-I pair on the even block) and sums Plancherel forms over the rfftn
half lattice. These helpers do the same work the textbook way, on the full
complex fftn lattice, and serve the tests as an independent oracle.
dct1_multiplier, dct1_plancherel_sum and dst1_partials are the even-block
transforms as scipy.fft computes them (DCT-I, and DST-I for the partials),
the path the block took before it became cached per-axis matrix products.
full_grid_symmetrize_radial and full_grid_gaussian are the radial
projection and the Petviashvili seed as they were built on the full grid,
before the even block became the only place that builds or projects a
radial field; gather is EvenBlock.restrict as it was then.
full_grid_invert is the linearized inversion on the full periodic grid, the
path invert() took before it moved to the even block. lstsq_gmres is the
restarted GMRES that solves the full Hessenberg least-squares problem at
every step, the loop _gmres ran before it updated the residual by Givens
rotations.
"""

import itertools

import numpy as np
import scipy.fft

from prnls.errors import ConvergenceError
from prnls.linsolve import _MAX_KRYLOV, _RESTART, _STALL_FACTOR, _STALL_WINDOW, _gmres
from prnls.spectral import Field, _require_real, gradient, half_spectrum_apply, norm_lq

from conftest import radius_sq


def xi_sq_full(grid) -> np.ndarray:
    """|xi|^2 on the full frequency lattice (fftn layout)."""
    out = np.zeros(grid.shape)
    for a in range(grid.n):
        shape = [1] * grid.n
        shape[a] = -1
        xi = np.reshape(grid.freqs[a], shape)
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

    The permutation average of the flip average is the full group average.
    """
    v = flip_average(f.values)
    if f.grid.n > 1:
        perms = list(itertools.permutations(range(f.grid.n)))
        acc = np.zeros_like(v)
        for perm in perms:
            acc += np.transpose(v, perm)
        v = acc / len(perms)
    return Field(f.grid, v)


def full_grid_gaussian(grid, p: float, width: float = 1.0) -> Field:
    """initial_gaussian on the full grid: A exp(-|x|^2 / (2 width^2)), with A from
    the quadratic form ||grad g||^2 + ||g||^2 of the full-grid spectral gradient."""
    shape = Field(grid, np.exp(-radius_sq(grid) / (2.0 * width * width)))
    quad = sum(norm_lq(d, 2) ** 2 for d in gradient(shape)) + norm_lq(shape, 2) ** 2
    source = norm_lq(shape, p + 1.0) ** (p + 1.0)
    return float((quad / source) ** (1.0 / (p - 1.0))) * shape


def full_grid_krylov_operator(op, project=True):
    """invert()'s Krylov operator Id - p u_inf^{p-1} P_c^{-1} on the full grid.

    An rfftn matvec on flattened full-grid arrays, followed by a full
    full_grid_symmetrize_radial unless project is False.
    """
    grid = op.grid
    inv_pc = 1.0 / op.pc_half

    def apply_b(v):
        flat = v.reshape(grid.shape)
        out = flat - op.potential.values * half_spectrum_apply(grid, flat, inv_pc)
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
    v, _ = _gmres(counted, b, 0.8 * tol * float(np.linalg.norm(b)), _RESTART, _MAX_KRYLOV)
    w = Field(grid, half_spectrum_apply(grid, v.reshape(grid.shape), 1.0 / op.pc_half))
    return full_grid_symmetrize_radial(w), len(calls)


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

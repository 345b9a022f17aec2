"""Full-lattice references for the half-spectrum and even-block paths.

prnls applies every Fourier multiplier through the real rfftn/irfftn pair (or
the DCT-I pair on the even block) and sums Plancherel forms over the rfftn
half lattice. These helpers do the same work the textbook way, on the full
complex fftn lattice, and serve the tests as an independent oracle.
full_grid_invert is the linearized inversion on the full periodic grid, the
path invert() took before it moved to the even block.
"""

import numpy as np

from prnls.linsolve import _MAX_KRYLOV, _RESTART, _gmres
from prnls.spectral import Field, _require_real, half_spectrum_apply, symmetrize_radial


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
    return float(g.cell_volume / g.num_points * np.sum(w * power))


def full_grid_krylov_operator(op, project=True):
    """invert()'s Krylov operator Id - p u_inf^{p-1} P_c^{-1} on the full grid.

    An rfftn matvec on flattened full-grid arrays, followed by a full
    symmetrize_radial unless project is False.
    """
    grid = op.grid
    inv_pc = 1.0 / op.pc_half

    def apply_b(v):
        flat = v.reshape(grid.shape)
        out = flat - op.potential.values * half_spectrum_apply(grid, flat, inv_pc)
        if project:
            out = symmetrize_radial(Field(grid, out)).values
        return out.ravel()
    return apply_b


def full_grid_invert(op, f: Field, tol: float):
    """Solve L w = f for the radial projection of f on the full grid.

    Returns (w, matvecs): the solution, and the number of Krylov operator
    applications _gmres made.
    """
    grid = op.grid
    f = symmetrize_radial(f)
    apply_b = full_grid_krylov_operator(op)
    calls = []

    def counted(v):
        calls.append(1)
        return apply_b(v)

    b = f.values.ravel()
    v, _ = _gmres(counted, b, 0.8 * tol * float(np.linalg.norm(b)), _RESTART, _MAX_KRYLOV)
    w = Field(grid, half_spectrum_apply(grid, v.reshape(grid.shape), 1.0 / op.pc_half))
    return symmetrize_radial(w), len(calls)

"""Full-lattice fftn reference for the half-spectrum transform path.

prnls applies every Fourier multiplier through the real rfftn/irfftn pair and
sums Plancherel forms over the rfftn half lattice. These helpers do the same
work the textbook way, on the full complex fftn lattice, and serve the tests
as an independent oracle.
"""

import numpy as np

from prnls.spectral import Field, _require_real


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

"""Finite-difference oracle for the half-space extension weights.

A finite-difference solver for the (1+1)-dimensional extension strip, the
verification oracle for the Plancherel weights of
prnls.diagnostics.extension_weights: the closed-form weights are exact in t
and spectral in x, and this solver discretizes the strip instead.
"""

import numpy as np
import scipy.fft

from prnls.diagnostics import ExtensionWeights
from prnls.spectral import Field, Grid

from fft_reference import full_grid_resample


def _thomas_constant_offdiag(diag, offdiag: float, rhs):
    """Solve tridiagonal systems [off, d_k, off] x = r, vectorized over rows.

    diag has shape (K,), rhs has shape (K, M); every system shares the
    constant off-diagonal. Standard Thomas elimination, stable here because
    the systems are symmetric negative definite.
    """
    k_count, m = rhs.shape
    scratch = np.empty((k_count, m))
    out = np.empty((k_count, m))
    w = diag.astype(np.float64).copy()
    out[:, 0] = rhs[:, 0] / w
    for j in range(1, m):
        scratch[:, j] = offdiag / w
        w = diag - offdiag * scratch[:, j]
        out[:, j] = (rhs[:, j] - offdiag * out[:, j - 1]) / w
    for j in range(m - 2, -1, -1):
        out[:, j] -= scratch[:, j + 1] * out[:, j + 1]
    return out


def halfspace_fd_weights(u: Field, c: float, p: float, n_t: int = 256,
                         t_height: float = None, refine: int = 0) -> ExtensionWeights:
    """Verification oracle: solve the extension strip by finite differences.

    One space dimension only. The strip [-L, L] x [0, T] (default T = 40/c,
    making the Dirichlet truncation at t = T an e^{-20} effect) is discretized
    with the 5-point Laplacian, Dirichlet data u at t = 0 and zero on the
    other sides, and solved exactly per sine mode; bulk integrals use
    trapezoid/midpoint quadrature. refine = k halves both mesh widths k times
    (trigonometric resampling in x), so a (4 I_fine - I_coarse) / 3 pair of
    calls cancels the leading O(h^2) error.
    """
    grid = u.grid
    if grid.n != 1:
        raise ValueError(f"the strip oracle is one-dimensional, got n={grid.n}")
    if not (c > 0):
        raise ValueError(f"speed c must be positive, got {c}")
    if t_height is None:
        t_height = 40.0 / c
    if refine:
        fine = Grid(1, grid.N * 2 ** refine, grid.L)
        u = full_grid_resample(u, fine, 1.0)
        grid = fine
        n_t = n_t * 2 ** refine

    h_x = grid.h
    h_t = t_height / n_t
    vals = u.values
    nx = grid.N

    # Sine modes of the Dirichlet x-Laplacian: eigenvalues -4 sin^2 / h^2.
    lam = -4.0 / h_x ** 2 * np.sin(np.pi * (np.arange(1, nx + 1)) / (2.0 * (nx + 1))) ** 2
    a_k = scipy.fft.dst(vals, type=1)
    diag = c * c * lam - 2.0 * c * c / h_t ** 2 - 0.25 * c ** 4
    off = c * c / h_t ** 2
    rhs = np.zeros((nx, n_t - 1))
    rhs[:, 0] = -off * a_k
    interior = _thomas_constant_offdiag(diag, off, rhs)

    modes = np.concatenate([a_k[:, None], interior, np.zeros((nx, 1))], axis=1)
    strip = scipy.fft.idst(modes, type=1, axis=0)  # U(x_i, t_j), shape (nx, n_t+1)

    t_weights = np.full(n_t + 1, h_t)
    t_weights[0] = t_weights[-1] = 0.5 * h_t
    mass_raw = h_x * float(np.sum(t_weights * np.sum(strip ** 2, axis=0)))

    padded = np.concatenate([np.zeros((1, n_t + 1)), strip, np.zeros((1, n_t + 1))], axis=0)
    dx = np.diff(padded, axis=0) / h_x
    grad_x_raw = h_x * float(np.sum(t_weights * np.sum(dx ** 2, axis=0)))

    dt = np.diff(strip, axis=1) / h_t
    grad_t_raw = h_x * h_t * float(np.sum(dt ** 2))

    return ExtensionWeights(c * c * grad_x_raw, c * c * grad_t_raw,
                            0.25 * c ** 4 * mass_raw,
                            c * h_x * float(np.sum(vals ** 2)),
                            c * h_x * float(np.sum(np.abs(vals) ** (p + 1.0))))

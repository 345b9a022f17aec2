"""Matrix-free inversion of the linearized operator L = P_c(D) - p u_inf^{p-1}.

The inversion uses the bounded-perturbation factorization

    L w = f   <=>   (Id - p u_inf^{p-1} P_c(D)^{-1}) v = f,   w = P_c(D)^{-1} v,

so the Krylov iteration only ever sees Id minus a compact operator. The
restarted minimal-residual (GMRES) loop is written out here rather than taken
from scipy because the contract calls for radial re-projection of every
Krylov iterate, stagnation detection over a fixed window, and a convergence
test phrased on the original system's relative residual.

On the radial subspace L is invertible for large c; the translation modes
d_i u_inf span its near-kernel, which is why omitting the projection makes
inversion of antisymmetric data stagnate (probed in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, StagnationError, SymmetryError
from .ground_state import GroundState
from .params import ReducedParams, ToleranceSet
from .spectral import (Field, Grid, half_spectrum_apply, half_spectrum_multiplier,
                       is_radial_symmetric, norm_lq, norm_w1q, norm_w2q,
                       random_band_limited, symmetrize_radial)
from .symbols import inverse_difference, p_c

_RESTART = 50
_MAX_KRYLOV = 500
_STALL_WINDOW = 50
_STALL_FACTOR = 0.999  # an iteration "improves" if it beats the best residual by 0.1%


@dataclass(frozen=True)
class LinearizedOperator:
    """L = P_c(D) - p u_inf^{p-1} around a ground state, at reduced speed c."""

    rp: ReducedParams
    gs: GroundState
    potential: Field

    @property
    def grid(self) -> Grid:
        return self.gs.grid

    @property
    def c(self) -> float:
        return self.rp.c_tilde

    @cached_property
    def pc_half(self) -> np.ndarray:
        return half_spectrum_multiplier(self.grid, p_c(self.c))

    @cached_property
    def inv_pc_half(self) -> np.ndarray:
        return 1.0 / self.pc_half


def linearized_operator(rp: ReducedParams, gs: GroundState) -> LinearizedOperator:
    if rp.p != gs.p:
        raise ValueError(f"parameter exponent p={rp.p} does not match ground state p={gs.p}")
    if rp.n != gs.grid.n:
        raise ValueError("parameter dimension does not match ground-state grid")
    pot = rp.p * np.maximum(gs.u.values, 0.0) ** (rp.p - 1.0)
    return LinearizedOperator(rp, gs, Field(gs.grid, pot))


def apply(op: LinearizedOperator, w: Field) -> Field:
    """L w = P_c(D) w - p u_inf^{p-1} w."""
    if w.grid != op.grid:
        raise ValueError("field grid does not match operator grid")
    pw = half_spectrum_apply(op.grid, w.values, op.pc_half)
    return Field(op.grid, pw - op.potential.values * w.values)


def _gmres(apply_b, b: np.ndarray, tol_abs: float, restart: int, max_iter: int):
    """Restarted GMRES on flattened real arrays; returns (x, iterations).

    Raises StagnationError when no iteration in a window of _STALL_WINDOW
    improves the best residual by at least 0.1%, and ConvergenceError when
    max_iter is exhausted.
    """
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
                raise StagnationError(
                    f"krylov residual stagnated near {best:.3e} for {_STALL_WINDOW} "
                    "iterations (operator is near-singular)")
            if res <= tol_abs:
                return x + np.tensordot(y, basis[:used], axes=(0, 0)), total
            if hess[j + 1, j] <= 1e-14 * beta:
                break  # invariant subspace reached; restart from the new residual
            basis[j + 1] = w / hess[j + 1, j]
        x = x + np.tensordot(y, basis[:used], axes=(0, 0))


def invert(op: LinearizedOperator, f: Field, tol: float = ToleranceSet.tol_lin) -> Field:
    """Solve L w = f to relative residual <= tol on the original system.

    f must already be radially symmetrized (asserted to 1e-8 relative); every
    Krylov iterate is projected back onto the radial subspace.
    """
    if f.grid != op.grid:
        raise ValueError("field grid does not match operator grid")
    grid = op.grid
    fnorm = norm_lq(f, 2)
    if fnorm == 0.0:
        return Field.zeros(grid)
    if not is_radial_symmetric(f, 1e-8):
        raise SymmetryError("invert() requires radially symmetrized data; "
                            "apply symmetrize_radial to the right-hand side first")

    pot = op.potential.values
    inv_pc = op.inv_pc_half

    def apply_b(v):
        flat = v.reshape(grid.shape)
        out = flat - pot * half_spectrum_apply(grid, flat, inv_pc)
        return symmetrize_radial(Field(grid, out)).values.ravel()

    bnorm = float(np.linalg.norm(f.values.ravel()))
    v, _ = _gmres(apply_b, f.values.ravel(), 0.8 * tol * bnorm, _RESTART, _MAX_KRYLOV)
    w_values = half_spectrum_apply(grid, v.reshape(grid.shape), inv_pc)
    w = symmetrize_radial(Field(grid, w_values))

    residual = norm_lq(apply(op, w) - f, 2) / fnorm
    if residual > tol:
        raise ConvergenceError(
            f"inversion residual {residual:.3e} exceeds tol {tol:g} after krylov convergence")
    return w


@dataclass(frozen=True)
class ProbeReport:
    """Empirical operator-norm ratios over random band-limited test fields."""

    c: float
    q: float
    trials: int
    lower_ratio: float      # sup ||f||_{W^{1,q}} / ||P_c f||_q
    upper_ratio: float      # sup ||P_c f||_q / ||f||_{W^{2,q}}
    inv_diff_ratio: float   # sup c^2 ||(P_inf^{-1} - P_c^{-1}) f||_q / ||f||_q
    lattice_sup: float      # max over the frequency lattice of c^2 |1/P_inf - 1/P_c|


def _random_shell_field(grid: Grid, rng: np.random.Generator, r_lo: float,
                        r_hi: float) -> Field:
    """Random field with spectrum supported on the shell r_lo <= |xi| <= r_hi."""
    r2 = grid.xi_sq_half
    mask = ((r2 >= r_lo * r_lo) & (r2 <= r_hi * r_hi)).astype(np.float64)
    v = half_spectrum_apply(grid, rng.standard_normal(grid.shape), mask)
    scale = float(np.max(np.abs(v)))
    return Field(grid, v / scale if scale > 0 else v)


def operator_norm_probe(grid: Grid, c: float, q: float, trials: int = 20,
                        seed: int = 0, kmax: float = None) -> ProbeReport:
    """Sample the two-sided W^{1,q}/W^{2,q} symbol bounds and the c^-2 inverse gap.

    The test ensemble mixes spectrally concentrated fields (random phases on
    log-spaced frequency shells, which approach the per-frequency extremizers
    of the symbol ratios) with broadband band-limited noise. The suprema
    estimate the equivalence constants of P_c(D) between W^{1,q} and W^{2,q}
    (uniform in c) and the decay rate of P_inf(D)^{-1} - P_c(D)^{-1} (bounded
    by c^-2 times the lattice supremum of c^2 |a|, exactly so at q = 2 by
    Parseval).
    """
    if kmax is None:
        kmax = np.pi * grid.N / (4.0 * grid.L)
    rng = np.random.default_rng([seed, int(round(c * 1000)) % (2 ** 31), int(q)])
    pc_half = half_spectrum_multiplier(grid, p_c(c))
    a_half = half_spectrum_multiplier(grid, inverse_difference(c))

    xi_min = np.pi / grid.L
    n_shells = max(trials - 2, 1)
    radii = np.exp(np.linspace(np.log(xi_min), np.log(kmax), n_shells))
    fields = [_random_shell_field(grid, rng, 0.7 * r, 1.3 * r) for r in radii]
    fields += [random_band_limited(grid, rng, kmax) for _ in range(min(trials - n_shells, 2))]

    lower = upper = inv_ratio = 0.0
    for f in fields:
        pf = Field(grid, half_spectrum_apply(grid, f.values, pc_half))
        af = Field(grid, half_spectrum_apply(grid, f.values, a_half))
        fq = norm_lq(f, q)
        pq = norm_lq(pf, q)
        lower = max(lower, norm_w1q(f, q) / pq)
        upper = max(upper, pq / norm_w2q(f, q))
        inv_ratio = max(inv_ratio, c * c * norm_lq(af, q) / fq)
    lattice_sup = float(c * c * np.max(np.abs(a_half)))
    return ProbeReport(c, q, len(fields), lower, upper, inv_ratio, lattice_sup)

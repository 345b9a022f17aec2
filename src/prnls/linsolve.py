"""Matrix-free inversion of the linearized operator L = P_c(D) - p u_inf^{p-1}.

The inversion uses the bounded-perturbation factorization

    L w = f   <=>   (Id - p u_inf^{p-1} P_c(D)^{-1}) v = f,   w = P_c(D)^{-1} v,

so the Krylov iteration only ever sees Id minus a compact operator. The
restarted minimal-residual (GMRES) loop is written out here rather than taken
from scipy because the contract keeps every Krylov iterate radial and calls
for stagnation detection over a fixed window and a convergence test phrased
on the original system's relative residual. Each new Krylov vector is
orthogonalized against the basis by classical Gram-Schmidt taken twice
(CGS2), two matrix-vector products with the basis block per pass; its
least-squares residual is updated by Givens rotations, one per Krylov step,
and the small triangular system is solved once per restart cycle.

On the radial subspace L is invertible for large c; the translation modes
d_i u_inf span its near-kernel, which is why omitting the projection makes
inversion of antisymmetric data stagnate (probed in the tests).

Radial fields are even and permutation-symmetric, so the Krylov iteration
runs on the representatives of the axis-permutation orbits of the grid's even
block (see spectral), in the variables y = sqrt(orbit weights) v: the
Euclidean inner products of y are then the full-grid inner products of v,
and the iteration is the full-grid one up to roundoff on C(N/2+n, n) instead
of N^n points. A matvec expands y to the block, applies the operator there
and reads the result at the representatives, with no permutation average:
the image of an exactly symmetric expansion is symmetric up to the
transforms' rounding. invert's solution passes through symmetrize_radial
once more, so it is radial bit for bit, and the Picard loop measures it
from one partial (see spectral.intersection_norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError
from .ground_state import GroundState
from .params import ReducedParams, ToleranceSet
from .spectral import (Field, Grid, half_spectrum_apply, half_spectrum_multiplier, norm_lq,
                       random_band_limited, sobolev_norms, symmetrize_radial)
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
    potential_even: Field  # p max(u_inf, 0)^{p-1} on the even block
    source_even: Field     # max(u_inf, 0)^p on the even block, Q(w)'s ground-state term

    @property
    def grid(self) -> Grid:
        return self.gs.grid

    @property
    def c(self) -> float:
        return self.rp.c_tilde

    @cached_property
    def pc_even(self) -> np.ndarray:
        return half_spectrum_multiplier(self.grid.even, p_c(self.c))

    @cached_property
    def inv_pc_even(self) -> np.ndarray:
        return 1.0 / self.pc_even


def linearized_operator(rp: ReducedParams, gs: GroundState) -> LinearizedOperator:
    if rp.p != gs.p:
        raise ValueError(f"parameter exponent p={rp.p} does not match ground state p={gs.p}")
    if rp.n != gs.grid.n:
        raise ValueError("parameter dimension does not match ground-state grid")
    block = gs.grid.even
    positive = np.maximum(gs.u_even.values, 0.0)
    return LinearizedOperator(rp, gs, Field(block, rp.p * positive ** (rp.p - 1.0)),
                              Field(block, positive ** rp.p))


def apply(op: LinearizedOperator, w: Field) -> Field:
    """L w = P_c(D) w - p u_inf^{p-1} w, for w on the even block of op's grid."""
    block = op.grid.even
    if w.grid != block:
        raise ValueError("field does not live on the even block of the operator's grid")
    pw = half_spectrum_apply(block, w.values, op.pc_even)
    return Field(block, pw - op.potential_even.values * w.values)


def _gmres(apply_b, b: np.ndarray, tol_abs: float, restart: int, max_iter: int):
    """Restarted GMRES on flattened real arrays; returns (x, iterations).

    Starts from x = 0, where apply_b is zero for a linear operator, so the
    first cycle's residual is b with no operator application. Each new
    Krylov vector w is orthogonalized against the basis block V by CGS2,
    h = V w, w -= V^T h, taken twice with the two h summed (Giraud, Langou &
    Rozloznik, Comput. Math. Appl. 2005: twice is enough). Each new
    Hessenberg column is reduced to upper-triangular form by the earlier
    Givens rotations and one new one, so the least-squares residual is
    |g_{j+1}| at every step, and the triangular system is solved once per
    cycle (Saad & Schultz, SIAM J. Sci. Stat. Comput. 1986). Raises
    ConvergenceError when no iteration in a window of _STALL_WINDOW improves
    the best residual by at least 0.1% (a near-singular operator), or when
    max_iter is exhausted.
    """
    size = b.size
    x = np.zeros(size)
    r = b
    best = np.inf
    last_improve = 0
    total = 0
    while True:
        beta = float(np.linalg.norm(r))
        if beta <= tol_abs:
            return x, total
        m = min(restart, max_iter - total)
        if m <= 0:
            raise ConvergenceError(
                f"krylov inversion did not reach tolerance within {max_iter} iterations")
        basis = np.empty((m + 1, size))
        basis[0] = r / beta
        tri = np.zeros((m, m))  # the rotated Hessenberg matrix, upper triangular
        g = [beta]              # the rotated right-hand side beta e_1
        rotations = []
        used = 0
        for j in range(m):
            w = apply_b(basis[j])
            span = basis[:j + 1]
            h = span @ w
            w -= h @ span
            again = span @ w
            w -= again @ span
            col = (h + again).tolist()
            h_next = float(np.linalg.norm(w))
            total += 1
            used = j + 1

            for i, (cs, sn) in enumerate(rotations):
                col[i], col[i + 1] = cs * col[i] + sn * col[i + 1], cs * col[i + 1] - sn * col[i]
            diag = math.hypot(col[j], h_next)
            cs, sn = col[j] / diag, h_next / diag
            rotations.append((cs, sn))
            col[j] = diag
            tri[:used, j] = col
            g.append(-sn * g[j])
            g[j] *= cs
            res = abs(g[j + 1])
            if res < best * _STALL_FACTOR:
                best = res
                last_improve = total
            elif total - last_improve >= _STALL_WINDOW:
                raise ConvergenceError(
                    f"krylov residual stagnated near {best:.3e} for {_STALL_WINDOW} "
                    "iterations (operator is near-singular)")
            if res <= tol_abs:
                break
            if h_next <= 1e-14 * beta:
                break  # invariant subspace reached; restart from the new residual
            basis[j + 1] = w / h_next
        y = np.linalg.solve(tri[:used, :used], np.asarray(g[:used]))
        x = x + np.tensordot(y, basis[:used], axes=(0, 0))
        if res <= tol_abs:
            return x, total
        r = b - apply_b(x)


def invert(op: LinearizedOperator, f: Field, tol: float = ToleranceSet.tol_lin) -> Field:
    """Solve L w = f to relative residual <= tol on the original system.

    f and w live on the even block of op's grid (a full-grid f raises
    ValueError; EvenBlock.restrict takes its sign-flip average). f is
    projected onto the radial subspace first (symmetrize_radial), and every
    Krylov iterate is radial, as it lives on the orbit representatives; a
    non-radial f is solved for its projection.
    """
    block = op.grid.even
    if f.grid != block:
        raise ValueError("field does not live on the even block of the operator's grid")
    f = symmetrize_radial(f)
    fnorm = norm_lq(f, 2)
    if fnorm == 0.0:
        return Field.zeros(block)

    pot = op.potential_even.values
    inv_pc = op.inv_pc_even
    orbits = block.orbits
    scale = np.sqrt(orbits.weights)  # the Krylov variable is y = scale * v at the representatives

    def expand(y):
        return (y / scale)[orbits.expand].reshape(block.shape)

    def apply_b(y):
        v = expand(y)
        bv = v - pot * half_spectrum_apply(block, v, inv_pc)
        return bv.ravel()[orbits.reps] * scale

    b = f.values.ravel()[orbits.reps] * scale
    bnorm = float(np.linalg.norm(b))
    y, _ = _gmres(apply_b, b, 0.8 * tol * bnorm, _RESTART, _MAX_KRYLOV)
    w = symmetrize_radial(Field(block, half_spectrum_apply(block, expand(y), inv_pc)))

    residual = norm_lq(apply(op, w) - f, 2) / fnorm
    if not residual <= tol:  # nan when ||f|| overflows and GMRES stopped at w = 0
        raise ConvergenceError(
            f"inversion residual {residual:.3e} exceeds tol {tol:g} after krylov convergence")
    return w


@dataclass(frozen=True)
class ProbeReport:
    """Empirical operator-norm ratios over random band-limited test fields."""

    c: float
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
                        seed: int = 0) -> ProbeReport:
    """Sample the two-sided W^{1,q}/W^{2,q} symbol bounds and the c^-2 inverse gap.

    The test ensemble mixes spectrally concentrated fields (random phases on
    log-spaced frequency shells, which approach the per-frequency extremizers
    of the symbol ratios) with broadband band-limited noise, all up to half
    the Nyquist frequency. The suprema estimate the equivalence constants of
    P_c(D) between W^{1,q} and W^{2,q} (uniform in c) and the decay rate of
    P_inf(D)^{-1} - P_c(D)^{-1} (bounded by c^-2 times the lattice supremum of
    c^2 |a|, exactly so at q = 2 by Parseval).
    """
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
        w1, w2 = sobolev_norms(f, q)
        lower = max(lower, w1 / pq)
        upper = max(upper, pq / w2)
        inv_ratio = max(inv_ratio, c * c * norm_lq(af, q) / fq)
    lattice_sup = float(c * c * np.max(np.abs(a_half)))
    return ProbeReport(c, len(fields), lower, upper, inv_ratio, lattice_sup)

"""Contraction construction of solitary waves near the non-relativistic limit.

Writing u_c = u_inf + w, the reduced equation P_c(D) u = sign(u)|u|^p becomes
the fixed-point problem

    w = Phi_c(w) = R_c + L^{-1} Q(w),
    R_c  = L^{-1} (P_inf(D) - P_c(D)) u_inf,
    Q(w) = |u_inf + w|^{p-1} (u_inf + w) - u_inf^p - p u_inf^{p-1} w,

with L the linearized operator around u_inf at speed c. For large c the map
is a contraction on a ball whose radius tracks ||R_c|| (order c^-2 for p > 2
and at worst c^-1 for p <= 2), and plain Picard iteration from w = 0
converges geometrically. Every run ends in one of four outcomes, converged,
collapsed, diverged (including loss of invertibility) or stalled, which solve()
returns as data in its report, also for small c or supercritical p, outside the
hypotheses that construction_precondition names and the CLI checks first.

The iterates are radial, so the loop runs on the grid's even block (see
spectral): R_c, Q(w), Phi_c(w), their norms and u_c's residual are taken
there, and solve() returns u_c there too. The pointwise work, Q(w) and the
collapse check, is done once per orbit, on the operator's orbit vectors
and on w read by EvenBlock.at_reps; Q(w) returns to the block by from_reps.

What does not depend on the start w0 (the operator L, R_c and its norm, the
contraction-ball ceiling) is a Construction, built by prepare(). solve()
prepares its own unless it is handed one, so a campaign of random starts at
one speed (certify) pays for the R_c inversion once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
# solve_limit_equation is not called here: kept importable because
# bench/tracing.PATCHES wraps this name
from .ground_state import (_COLLAPSE_FLOOR, GroundState, limit_residual,  # noqa: F401
                           solve_limit_equation)
from .linsolve import LinearizedOperator, invert, linearized_operator
from .params import ReducedParams, ToleranceSet
from .spectral import (Field, Grid, half_spectrum_apply, half_spectrum_multiplier,
                       intersection_norm, norm_h1, signed_power, symmetrize_radial)
from .symbols import p_infty_minus_p_c

_C_FLOOR = 2.0
_MAX_PICARD = 200
_START_KMAX = 4.0
_ROUNDING_FLOOR = 1e-14

OUTCOME_CONVERGED = "converged"
OUTCOME_COLLAPSED = "collapsed"
OUTCOME_DIVERGED = "diverged"
OUTCOME_STALLED = "stalled"


def rounding_floor(h1_norm: float) -> float:
    """Rounding floor 1e-14 max(h1_norm, 1) of a norm, for h1_norm = ||u_inf||_{H^1}.

    solve()'s contraction estimate and rate-sweep's fit read no distance below it.
    """
    return _ROUNDING_FLOOR * max(h1_norm, 1.0)


@dataclass(frozen=True)
class SolveReport:
    """Per-run record of the contraction iteration.

    steps[k] and w_norms[k] are ||w_{k+1} - w_k|| and ||w_{k+1}||. contraction_estimate
    is the largest steps[k] / steps[k-1] whose steps[k-1] is above the step floor
    max(10 tol_step, rounding_floor(||u_inf||_{H^1})), else 0; not a
    contraction constant: a converged run can report it above 1. At n = 2, p = 3,
    m = 2, mu = 0.5, c = 2 on 64^2, L = 20 the run converges in 78 steps, but 30
    of its 70 ratios above the floor exceed 1, up to 2.46, recurring every 7
    steps to the end: the iteration oscillates while it converges.
    """

    outcome: str
    iterations: int
    contraction_estimate: float
    final_residual: float
    rc_norm: float
    w_norm: float
    w_norms: tuple = ()
    steps: tuple = ()
    message: str = ""

    @property
    def converged(self) -> bool:
        return self.outcome == OUTCOME_CONVERGED


def remainder_rc(op: LinearizedOperator, tol_lin: float) -> Field:
    """First-order correction R_c = L^{-1} (P_inf(D) - P_c(D)) u_inf, on the even block."""
    block = op.grid.even
    mult = half_spectrum_multiplier(block, p_infty_minus_p_c(op.c))
    rhs = Field(block, half_spectrum_apply(block, op.gs.u_even.values, mult))
    return invert(op, rhs, tol=tol_lin)


def nonlinear_q(op: LinearizedOperator, w: Field) -> Field:
    """Superlinear remainder Q(w) of the nonlinearity around op's ground state, on the even block.

    w must equal its axis transposes bit for bit, as solve()'s iterates do;
    Q(w) is then radial too, and is taken once per orbit. Its ground-state
    and linear terms are op's source and potential times w. Raises
    OverflowError when Q(w) leaves float64.
    """
    block = w.grid
    wr = block.at_reps(w.values)
    q = signed_power(op.u + wr, op.rp.p) - op.source - op.potential * wr
    if not np.all(np.isfinite(q)):
        raise OverflowError("Q(w) overflows float64")
    return Field(block, block.from_reps(q))


def phi(op: LinearizedOperator, w: Field, rc: Field, tol_lin: float) -> Field:
    """Phi_c(w) = R_c + L^{-1} Q(w) on the even block, for a radial w; both terms are radial."""
    return rc + invert(op, nonlinear_q(op, w), tol=tol_lin)


def random_start(grid: Grid, rng: np.random.Generator, scale: float) -> Field:
    """Random radial perturbation on grid's even block, with intersection norm equal to scale.

    The radial projection of full-grid white noise, band-limited to
    |xi| <= _START_KMAX, built on the block: restrict takes the noise's
    sign-flip average, and the DCT-I band mask and the permutation average
    finish the projection.
    """
    block = grid.even
    v = block.restrict(Field(grid, rng.standard_normal(grid.shape))).values
    mask = (block.xi_sq <= _START_KMAX * _START_KMAX).astype(np.float64)
    f = symmetrize_radial(Field(block, half_spectrum_apply(block, v, mask)))
    size = intersection_norm(f)
    return f * (scale / size) if size > 0 else f


def construction_precondition(rp: ReducedParams) -> str:
    """Which hypothesis of the construction (p H^1-subcritical, c >= _C_FLOOR) rp breaks, or ""."""
    if not rp.subcritical_for_construction:
        return f"p={rp.p} at n={rp.n} is not subcritical for construction"
    if rp.c_tilde < _C_FLOOR:
        return f"c={rp.c_tilde} below the construction floor {_C_FLOOR}"
    return ""


@dataclass(frozen=True)
class Construction:
    """The start-independent part of solve() at one (grid, p, c) and tol_lin.

    rc is R_c on the even block and ceiling the contraction-ball bound
    ||u_inf||_{H^1}. When R_c's inversion failed, failure says why and rc is
    None; every solve() with this construction then reports it as diverged.
    """

    op: LinearizedOperator
    tol_lin: float
    rc: Field
    rc_norm: float
    ceiling: float
    failure: str = ""


def prepare(rp: ReducedParams, gs: GroundState, tol_lin: float) -> Construction:
    """Build the operator and R_c for solve() at rp around the ground state gs."""
    op = linearized_operator(rp, gs)
    ceiling = norm_h1(gs.u_even)
    try:
        rc = remainder_rc(op, tol_lin)
    except ConvergenceError as exc:
        return Construction(op, tol_lin, None, np.nan, ceiling,
                            f"linearized operator lost invertibility: {exc}")
    return Construction(op, tol_lin, rc, intersection_norm(rc), ceiling)


def solve(rp: ReducedParams, grid: Grid, gs: GroundState, w0: Field = None,
          tol: ToleranceSet = ToleranceSet(), construction: Construction = None):
    """Construct the solitary wave u_c = u_inf + w on grid.even; returns (u_c, SolveReport).

    gs is the limit ground state u_inf for rp.p on grid (checked); a start w0
    is a field on grid.even (checked), as random_start() builds it, and is
    projected onto the radial subspace. construction, if given, is
    prepare(rp, gs, tol.tol_lin) (checked); otherwise solve() prepares it.
    Every run returns its report, whose outcome classifies it as converged /
    collapsed / diverged / stalled; u_c is None unless it converged, also for
    a rp that breaks the construction's hypotheses (construction_precondition).
    Only malformed input raises: ValueError for a mismatched grid, start,
    ground state or construction.
    """
    if grid.n != rp.n:
        raise ValueError(f"grid dimension {grid.n} does not match parameters (n={rp.n})")
    if gs.p != rp.p or gs.grid != grid:
        raise ValueError("supplied ground state does not match parameters/grid")
    if w0 is not None and w0.grid != grid.even:
        raise ValueError("start w0 does not live on the even block of grid")
    if construction is None:
        construction = prepare(rp, gs, tol.tol_lin)
    elif (construction.op.rp != rp or construction.op.gs is not gs
          or construction.tol_lin != tol.tol_lin):
        raise ValueError("supplied construction was prepared for other parameters, "
                         "ground state or tol_lin")
    block = grid.even
    op, rc, ceiling = construction.op, construction.rc, construction.ceiling
    step_floor = max(10.0 * tol.tol_step, rounding_floor(ceiling))
    # the report's steps, w_norms and running contraction_estimate, as SolveReport defines them
    steps, w_norms = [], []
    k, wn, estimate = 0, np.nan, 0.0

    def report(outcome, message="", residual=np.nan):  # built once, at the run's exit
        return SolveReport(outcome, k, estimate, residual, construction.rc_norm, wn,
                           tuple(w_norms), tuple(steps), message)

    if construction.failure:
        return None, report(OUTCOME_DIVERGED, construction.failure)
    # a start far outside the ball overflows float64 on its way to a diverged
    # outcome, which the report carries, so numpy's overflow warnings stay quiet
    with np.errstate(over="ignore"):
        w = symmetrize_radial(w0) if w0 is not None else Field.zeros(block)
        for k in range(1, _MAX_PICARD + 1):
            try:
                w_new = phi(op, w, rc, tol.tol_lin)
            except (ConvergenceError, OverflowError) as exc:
                wn = intersection_norm(w)
                return None, report(OUTCOME_DIVERGED, f"Phi_c(w) failed at iteration {k}: {exc}")
            steps.append(intersection_norm(w_new - w))
            wn = intersection_norm(w_new)
            w_norms.append(wn)
            w = w_new
            if k > 1 and steps[-2] > step_floor:
                estimate = max(estimate, steps[-1] / steps[-2])

            if float(np.max(np.abs(op.u + block.at_reps(w.values)))) < _COLLAPSE_FLOOR:
                return None, report(OUTCOME_COLLAPSED, "iterate collapsed to zero")
            if not np.isfinite(wn) or wn > ceiling:
                return None, report(OUTCOME_DIVERGED, f"||w||={wn:.3e} left the contraction ball "
                                                      f"(ceiling {ceiling:.3e})")
            if steps[-1] < tol.tol_step:
                u_c = gs.u_even + w
                residual = limit_residual(u_c, rp.p, rp.c_tilde)
                if residual <= tol.tol_residual:
                    return u_c, report(OUTCOME_CONVERGED, residual=residual)
                return None, report(OUTCOME_STALLED, f"step tolerance met but residual "
                                                     f"{residual:.3e} > tol_residual "
                                                     f"{tol.tol_residual:g}", residual)

        return None, report(OUTCOME_STALLED, f"no convergence within {_MAX_PICARD} iterations")

"""Contraction construction of solitary waves near the non-relativistic limit.

Writing u_c = u_inf + w, the reduced equation P_c(D) u = sign(u)|u|^p becomes
the fixed-point problem

    w = Phi_c(w) = R_c + L^{-1} Q(w),
    R_c  = L^{-1} (P_inf(D) - P_c(D)) u_inf,
    Q(w) = |u_inf + w|^{p-1} (u_inf + w) - u_inf^p - p u_inf^{p-1} w,

with L the linearized operator around u_inf at speed c. For large c the map
is a contraction on a ball whose radius tracks ||R_c|| (order c^-2 for p > 2
and at worst c^-1 for p <= 2), and plain Picard iteration from w = 0
converges geometrically. For small c or supercritical p the same iteration is
run in probe mode, where collapse, divergence and loss of invertibility are
recorded as data rather than raised.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (CollapseError, ContractionError, ConvergenceError, StagnationError)
# not called here: kept importable because bench/tracing.PATCHES wraps this name
from .ground_state import GroundState, solve_limit_equation  # noqa: F401
from .linsolve import LinearizedOperator, invert, linearized_operator
from .params import ReducedParams, ToleranceSet
from .spectral import (Field, Grid, half_spectrum_apply, half_spectrum_multiplier,
                       intersection_norm, norm_h1, norm_lq, random_band_limited,
                       signed_power, symmetrize_radial)
from .symbols import p_infty_minus_p_c

_C_FLOOR = 2.0
_COLLAPSE_FLOOR = 1e-10
_MAX_PICARD = 200

OUTCOME_CONVERGED = "converged"
OUTCOME_COLLAPSED = "collapsed"
OUTCOME_DIVERGED = "diverged"
OUTCOME_STALLED = "stalled"


@dataclass(frozen=True)
class SolveReport:
    """Per-run record of the contraction iteration."""

    n: int
    p: float
    c: float
    outcome: str
    iterations: int
    contraction_estimate: float
    final_residual: float
    rc_norm: float
    w_norm: float
    gs_residual: float
    w_norms: tuple = ()
    steps: tuple = ()
    message: str = ""

    @property
    def converged(self) -> bool:
        return self.outcome == OUTCOME_CONVERGED


def remainder_rc(op: LinearizedOperator, tol_lin: float = ToleranceSet.tol_lin) -> Field:
    """First-order correction R_c = L^{-1} (P_inf(D) - P_c(D)) u_inf."""
    grid = op.grid
    mult = half_spectrum_multiplier(grid, p_infty_minus_p_c(op.c))
    rhs = Field(grid, half_spectrum_apply(grid, op.gs.u.values, mult))
    return invert(op, symmetrize_radial(rhs), tol=tol_lin)


def nonlinear_q(gs: GroundState, w: Field) -> Field:
    """Superlinear remainder Q(w) of the nonlinearity around the ground state."""
    u = gs.u.values
    p = gs.p
    up = np.maximum(u, 0.0)
    return Field(w.grid, signed_power(u + w.values, p) - up ** p - p * up ** (p - 1.0) * w.values)


def phi(op: LinearizedOperator, w: Field, rc: Field,
        tol_lin: float = ToleranceSet.tol_lin) -> Field:
    """One application of the contraction map Phi_c(w) = R_c + L^{-1} Q(w)."""
    correction = invert(op, symmetrize_radial(nonlinear_q(op.gs, w)), tol=tol_lin)
    return symmetrize_radial(rc + correction)


def random_start(grid: Grid, rng: np.random.Generator, scale: float, q: float,
                 kmax: float = 4.0) -> Field:
    """Random radial perturbation with intersection norm equal to scale."""
    f = random_band_limited(grid, rng, kmax, symmetric=True)
    size = intersection_norm(f, q)
    return f * (scale / size) if size > 0 else f


def _contraction_estimate(steps, floor: float) -> float:
    ratios = [steps[k] / steps[k - 1] for k in range(1, len(steps)) if steps[k - 1] > floor]
    return max(ratios) if ratios else 0.0


_FAILURES = {OUTCOME_COLLAPSED: CollapseError, OUTCOME_DIVERGED: ContractionError,
             OUTCOME_STALLED: ConvergenceError}


def _finish(report: SolveReport, probe: bool, u_c: Field = None):
    """The one exit of solve().

    Returns (u_c, report) on convergence and (None, report) for any other
    outcome in probe mode; otherwise raises the outcome's SolverError with
    the report attached.
    """
    if report.converged:
        return u_c, report
    if probe:
        return None, report
    raise _FAILURES[report.outcome](report.message, report)


def solve(rp: ReducedParams, grid: Grid, gs: GroundState, w0: Field = None,
          probe: bool = False, tol: ToleranceSet = ToleranceSet()):
    """Construct the solitary wave u_c = u_inf + w; returns (u_c, SolveReport).

    gs is the limit ground state u_inf for rp.p on grid (checked).

    Normal mode requires a construction-subcritical exponent and c >= 2, and
    raises typed errors (ContractionError on divergence, CollapseError on
    decay to zero, ConvergenceError on a stall) each carrying the partial
    report. Probe mode lifts the preconditions and never raises for
    mathematical outcomes: the returned report classifies the run as
    converged / collapsed / diverged / stalled, and u_c is None for
    unconverged probe runs.
    """
    if grid.n != rp.n:
        raise ValueError(f"grid dimension {grid.n} does not match parameters (n={rp.n})")
    if not probe:
        if not rp.subcritical_for_construction:
            raise ValueError(
                f"p={rp.p} at n={rp.n} is not subcritical for construction; "
                "probe=True runs the same iteration as a probe")
        if rp.c_tilde < _C_FLOOR:
            raise ValueError(f"c={rp.c_tilde} below the construction floor {_C_FLOOR}; "
                             "probe=True lifts the floor")

    if gs.p != rp.p or gs.grid != grid:
        raise ValueError("supplied ground state does not match parameters/grid")
    # one running report; its "stalled" outcome stands unless an earlier exit decides
    report = SolveReport(rp.n, rp.p, rp.c_tilde, OUTCOME_STALLED, 0, 0.0, np.nan,
                         np.nan, np.nan, gs.residual)
    q = rp.q_default

    op = linearized_operator(rp, gs)
    ceiling = norm_h1(gs.u)
    try:
        rc = remainder_rc(op, tol.tol_lin)
    except (StagnationError, ConvergenceError) as exc:
        return _finish(replace(report, outcome=OUTCOME_DIVERGED,
                               message=f"linearized operator lost invertibility: {exc}"),
                       probe)
    report = replace(report, rc_norm=intersection_norm(rc, q))

    w = w0 if w0 is not None else Field.zeros(grid)
    step_floor = max(10.0 * tol.tol_step, 1e-14 * max(ceiling, 1.0))
    for k in range(1, _MAX_PICARD + 1):
        try:
            w_new = phi(op, w, rc, tol.tol_lin)
        except (StagnationError, ConvergenceError) as exc:
            return _finish(replace(report, outcome=OUTCOME_DIVERGED, iterations=k,
                                   w_norm=intersection_norm(w, q),
                                   message=f"linearized solve failed at iteration {k}: {exc}"),
                           probe)
        steps = report.steps + (intersection_norm(w_new - w, q),)
        wn = intersection_norm(w_new, q)
        w = w_new
        report = replace(report, iterations=k, steps=steps, w_norms=report.w_norms + (wn,),
                         w_norm=wn, contraction_estimate=_contraction_estimate(steps, step_floor))

        if float(np.max(np.abs(gs.u.values + w.values))) < _COLLAPSE_FLOOR:
            return _finish(replace(report, outcome=OUTCOME_COLLAPSED,
                                   message="iterate collapsed to zero"), probe)
        if not np.isfinite(wn) or wn > ceiling:
            return _finish(replace(report, outcome=OUTCOME_DIVERGED,
                                   message=f"||w||={wn:.3e} left the contraction ball "
                                           f"(ceiling {ceiling:.3e})"), probe)
        if steps[-1] < tol.tol_step:
            u_c = Field(grid, gs.u.values + w.values)
            pcu = half_spectrum_apply(grid, u_c.values, op.pc_half)
            residual = norm_lq(Field(grid, pcu - signed_power(u_c.values, rp.p)), 2)
            report = replace(report, final_residual=residual)
            if residual <= tol.tol_residual:
                return _finish(replace(report, outcome=OUTCOME_CONVERGED), probe, u_c)
            return _finish(replace(report, message=f"step tolerance met but residual "
                                                   f"{residual:.3e} > tol_residual "
                                                   f"{tol.tol_residual:g}"), probe)

    return _finish(replace(report, message=f"no convergence within {_MAX_PICARD} iterations"),
                   probe)


@dataclass(frozen=True)
class ThresholdReport:
    """Bisection bracket for the smallest c at which the contraction converges."""

    c_diverged: float
    c_converged: float
    history: tuple


def find_convergence_threshold(gs: GroundState, c_lo: float, c_hi: float, rounds: int = 8,
                               tol: ToleranceSet = ToleranceSet()) -> ThresholdReport:
    """Bisect [c_lo, c_hi] for the empirical convergence threshold of solve().

    n, p and the grid are those of the ground state gs, which every probe run
    reuses. c_lo must fail and c_hi must converge (checked). Returns the final
    bracket and the probe history.
    """
    history = []

    def outcome_at(c):
        rp = ReducedParams(gs.grid.n, gs.p, c)
        _, rep = solve(rp, gs.grid, gs, probe=True, tol=tol)
        history.append((c, rep.outcome))
        return rep.converged

    if outcome_at(c_lo):
        raise ValueError(f"bisection needs a failing lower endpoint; c={c_lo} converged")
    if not outcome_at(c_hi):
        raise ValueError(f"bisection needs a converging upper endpoint; c={c_hi} did not")
    lo, hi = c_lo, c_hi
    for _ in range(rounds):
        mid = 0.5 * (lo + hi)
        if outcome_at(mid):
            hi = mid
        else:
            lo = mid
    return ThresholdReport(lo, hi, tuple(history))

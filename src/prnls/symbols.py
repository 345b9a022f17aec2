"""Fourier symbols of the pseudo-relativistic operator and their bound checks.

The reduced dispersion symbol

    P_c(xi) = sqrt(c^2 |xi|^2 + c^4/4) - c^2/2 + 1

interpolates between the non-relativistic symbol P_inf(xi) = |xi|^2 + 1
(c -> inf) and half-wave behavior c|xi| + 1 (|xi| >> c). All evaluations use
cancellation-free algebraic forms so that both regimes are computed to full
relative precision:

    P_c - 1      = 2 r2 / (1 + s),                s = sqrt(1 + 4 r2 / c^2)
    P_inf - P_c  = 4 r2^2 / (c^2 (1 + s)^2)  (>= 0, exact difference form)

with r2 = |xi|^2; kinetic is P_c - 1, the paper's sqrt(c^2 |xi|^2 + m^2 c^4)
- m c^2 at m = 1/2, and p_c adds 1 to it. Symbols are radial by construction:
each factory returns a vectorized function of |xi|^2 only, which preserves the
floating dtype of its input (longdouble in the finite-difference checks below).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _check_c(c: float):
    if not (c > 0):
        raise ValueError(f"propagation speed c must be positive, got {c}")


def kinetic(c: float):
    """Kinetic part P_c - 1 of the reduced symbol, stable in all regimes (c = inf allowed)."""
    _check_c(c)

    def fn(r2):
        s = np.sqrt(1.0 + 4.0 * r2 / (c * c))
        return 2.0 * r2 / (1.0 + s)

    return fn


def p_c(c: float):
    """Reduced pseudo-relativistic symbol P_c = kinetic(c) + 1."""
    kin = kinetic(c)
    return lambda r2: kin(r2) + 1.0


def p_infty_minus_p_c(c: float):
    """Exact nonnegative difference P_inf - P_c (no subtractive cancellation)."""
    _check_c(c)

    def fn(r2):
        t = 1.0 + np.sqrt(1.0 + 4.0 * r2 / (c * c))
        return 4.0 * r2 * r2 / (c * c * t * t)

    return fn


def inverse_difference(c: float):
    """a(xi) = 1/P_inf - 1/P_c (nonpositive; decays like -|xi|^4/c^2 at the origin)."""
    _check_c(c)
    diff = p_infty_minus_p_c(c)
    pc = p_c(c)
    return lambda r2: -diff(r2) / (pc(r2) * (r2 + 1.0))


def symbol_ratio(c: float):
    """P_c / P_inf, bounded between 0 and 1."""
    _check_c(c)
    pc = p_c(c)
    return lambda r2: pc(r2) / (r2 + 1.0)


def sigma_halfspace(c: float):
    """Decay rate sqrt(|xi|^2 + c^2/4) of the half-space harmonic extension."""
    _check_c(c)
    return lambda r2: np.sqrt(r2 + 0.25 * c * c)


# ---------------------------------------------------------------------------
# bound checks
# ---------------------------------------------------------------------------

_XI_LOG_RANGE = (1e-6, 1e6)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of a sampled inequality check.

    worst_ratio is the family-specific normalized extremum: the smallest
    relative slack for two-sided/domination checks (must stay >= 0) or the
    largest bound ratio for the difference check (must stay <= 1).
    """

    label: str
    samples: int
    violations: int
    worst_ratio: float
    argmax_xi: float


def _sample_radii(samples: int, seed: int, extra=()):
    rng = np.random.default_rng([seed, 0x5e])
    lo, hi = _XI_LOG_RANGE
    r = np.exp(rng.uniform(math.log(lo), math.log(hi), size=samples))
    return np.concatenate([r, np.asarray([lo, hi, *extra])])


def check_pointwise_bounds(c: float, samples: int = 20000, seed: int = 0):
    """Sample the two-sided regime bounds and the global domination P_c <= P_inf.

    Low regime |xi| <= sqrt(3) c / 2:   (|xi|^2 + 1)/2 <= P_c <= |xi|^2 + 1.
    High regime |xi| >= sqrt(3) c / 2:  (c |xi| + 1)/2  <= P_c <= c |xi| + 1.

    Returns three BoundReports (low regime, high regime, domination), each
    with a count of strict violations (expected 0; a nan slack counts as one)
    and the smallest relative slack seen.
    """
    _check_c(c)
    crossover = math.sqrt(3.0) * c / 2.0
    r = _sample_radii(samples, seed, extra=(crossover,))
    r2 = r * r
    val = p_c(c)(r2)
    pinf = r2 + 1.0

    reports = []
    for label, mask, lower, upper in (
        ("low-regime", r <= crossover, 0.5 * pinf, pinf),
        ("high-regime", r >= crossover, 0.5 * (c * r + 1.0), c * r + 1.0),
    ):
        slack = np.minimum(val - lower, upper - val)[mask] / upper[mask]
        worst = int(np.argmin(slack))
        reports.append(BoundReport(label, int(mask.sum()), int(np.sum(~(slack >= 0))),
                                   float(slack[worst]), float(r[mask][worst])))

    slack = (pinf - val) / pinf
    worst = int(np.argmin(slack))
    reports.append(BoundReport("domination", len(r), int(np.sum(~(slack >= 0))),
                               float(slack[worst]), float(r[worst])))
    return tuple(reports)


def check_difference_bound(c: float, samples: int = 20000, seed: int = 0) -> BoundReport:
    """Check |P_c - P_inf| <= |xi|^4 / c^2; worst_ratio is the largest ratio, nan a violation."""
    _check_c(c)
    r = _sample_radii(samples, seed)
    r2 = r * r
    ratio = p_infty_minus_p_c(c)(r2) / (r2 * r2 / (c * c))
    worst = int(np.argmax(ratio))
    return BoundReport("difference", len(r), int(np.sum(~(ratio <= 1.0))),
                       float(ratio[worst]), float(r[worst]))


@dataclass(frozen=True)
class DerivativeBoundRow:
    family: str
    order: int
    sup_scaled: float
    argmax_xi: float


def _multi_indices(order: int):
    if order == 0:
        return [()]
    if order == 1:
        return [(i,) for i in range(3)]
    return [(i, j) for i in range(3) for j in range(i, 3)]


def check_derivative_bounds(c: float, samples: int = 2000, seed: int = 0) -> tuple:
    """Empirical derivative bounds for a(xi) = 1/P_inf - 1/P_c and P_c/P_inf.

    Central finite differences in xi (step 1e-4 * max(|xi|, 1), accumulated in
    extended precision) estimate grad^alpha for |alpha| <= 2 at
    log-uniform sample radii with random directions in R^3. Returns one
    DerivativeBoundRow per family and order, each with the empirical constant

        sup |grad^alpha a|   * |xi|^|alpha| * max(c^2, c sqrt(|xi|^2 + 1))
        sup |grad^alpha P_c/P_inf| * |xi|^|alpha|

    which the symbol calculus asserts is bounded uniformly in c.
    """
    _check_c(c)
    rng = np.random.default_rng([seed, 0xd1])
    lo, hi = _XI_LOG_RANGE
    r = np.exp(rng.uniform(math.log(lo), math.log(hi), size=samples)).astype(np.longdouble)
    direction = rng.standard_normal((samples, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    xi = r[:, None] * direction.astype(np.longdouble)
    step = np.longdouble(1e-4) * np.maximum(r, np.longdouble(1.0))

    r64 = r.astype(np.float64)
    weight_a = np.maximum(c * c, c * np.sqrt(r64 * r64 + 1.0))

    def deriv(fn, alpha):
        def at(offsets):
            pt = xi.copy()
            for axis, mult in offsets:
                pt[:, axis] += mult * step
            return fn(np.sum(pt * pt, axis=1))

        if len(alpha) == 0:
            return at(())
        if len(alpha) == 1:
            i = alpha[0]
            return (at(((i, 1),)) - at(((i, -1),))) / (2.0 * step)
        i, j = alpha
        if i == j:
            return (at(((i, 1),)) - 2.0 * at(()) + at(((i, -1),))) / (step * step)
        return (at(((i, 1), (j, 1))) - at(((i, 1), (j, -1)))
                - at(((i, -1), (j, 1))) + at(((i, -1), (j, -1)))) / (4.0 * step * step)

    rows = []
    for family, fn, weight in (("inverse-difference", inverse_difference(c), weight_a),
                               ("symbol-ratio", symbol_ratio(c), 1.0)):
        for order in range(3):
            scaled = np.zeros(samples)
            for alpha in _multi_indices(order):
                est = np.abs(deriv(fn, alpha)).astype(np.float64)
                scaled = np.maximum(scaled, est * r64 ** order * weight)
            worst = int(np.argmax(scaled))
            rows.append(DerivativeBoundRow(family, order, float(scaled[worst]),
                                           float(r64[worst])))
    return tuple(rows)

"""Quantitative checks on computed solutions.

The solitary-wave equation lifts to a degenerate elliptic problem on the
upper half-space {t > 0}: the extension U(x,t) with boundary trace u solves
(-c^2 Lap + c^4/4) U = 0, and in Fourier variables U(xi,t) = u(xi)
exp(-t sigma(xi)) with sigma = sqrt(|xi|^2 + c^2/4). All bulk integrals of U
therefore reduce to weighted Plancherel sums over the boundary grid - the
half-space is never discretized in production. On top of these weights sit
the Nehari and Pohozaev identities (exact for true solutions; their residual
measures solver plus discretization error), the trace-inequality ratio, the
variational action, convergence-rate fits, and the coefficient-sign
certificates for the non-existence regimes.

Every quantity here takes a radial candidate on the even block of its grid
(see spectral); a full-grid field raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ReducedParams
from .spectral import Field, norm_lq, plancherel_sum
from .symbols import kinetic, sigma_halfspace

_MISMATCH_EPS = 1e-300


def _rel_mismatch(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), _MISMATCH_EPS)


@dataclass(frozen=True)
class ExtensionWeights:
    """Bulk and boundary integrals of the half-space extension of u.

    grad_x_bulk = int c^2 |grad_x U|^2, grad_t_bulk = int c^2 |dt U|^2,
    mass_bulk = int (c^4/4) |U|^2 (all over the half-space);
    boundary_l2 = c int |u|^2, boundary_lp1 = c int |u|^{p+1} (over the trace).
    """

    grad_x_bulk: float
    grad_t_bulk: float
    mass_bulk: float
    boundary_l2: float
    boundary_lp1: float

    @property
    def grad_bulk(self) -> float:
        """Full gradient term int c^2 |grad_{(x,t)} U|^2."""
        return self.grad_x_bulk + self.grad_t_bulk


def extension_weights(u: Field, c: float, p: float) -> ExtensionWeights:
    """Half-space integrals of the extension of an even-block field u, in closed form.

    With U(xi,t) = u(xi) e^{-t sigma}, every t-integral collapses analytically
    (int_0^inf e^{-2 t sigma} dt = 1/(2 sigma)), leaving pure Plancherel sums.
    """
    if not (c > 0):
        raise ValueError(f"speed c must be positive, got {c}")
    sigma = sigma_halfspace(c)
    grad_x = c * c * plancherel_sum(u, lambda r2: r2 / (2.0 * sigma(r2)))
    grad_t = c * c * plancherel_sum(u, lambda r2: 0.5 * sigma(r2))
    mass = 0.25 * c ** 4 * plancherel_sum(u, lambda r2: 0.5 / sigma(r2))
    return ExtensionWeights(grad_x, grad_t, mass, c * norm_lq(u, 2) ** 2,
                            c * norm_lq(u, p + 1.0) ** (p + 1.0))


@dataclass(frozen=True)
class IdentityRow:
    label: str
    lhs: float
    rhs: float
    rel_mismatch: float


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of the Nehari and the two Pohozaev identities."""

    nehari: IdentityRow
    poho1: IdentityRow
    poho2: IdentityRow

    def rows(self):
        return (self.nehari, self.poho1, self.poho2)

    @property
    def max_mismatch(self) -> float:
        return max(row.rel_mismatch for row in self.rows())


def _identity_row(label, lhs, rhs) -> IdentityRow:
    return IdentityRow(label, lhs, rhs, _rel_mismatch(lhs, rhs))


def check_identities(u_c: Field, rp: ReducedParams) -> IdentityReport:
    """Evaluate the three half-space identities for a candidate solution on the even block.

    All three hold exactly for true solutions, so each rel_mismatch measures
    discretization plus solver error; macroscopic values flag a non-solution
    (the negative control) or a lattice artifact with no decaying continuum
    counterpart.
    """
    n, p, c = rp.n, rp.p, rp.c_tilde
    w = extension_weights(u_c, c, p)
    mu_coeff = 0.5 * c * c - 1.0

    boundary = mu_coeff * w.boundary_l2 + w.boundary_lp1
    nehari = _identity_row("Nehari", w.grad_bulk + w.mass_bulk, boundary)

    poho_rhs = mu_coeff * 0.5 * n * w.boundary_l2 + n / (p + 1.0) * w.boundary_lp1
    poho1 = _identity_row("Poho1",
                          0.5 * (n - 1) * w.grad_bulk + 0.5 * (n + 1) * w.mass_bulk,
                          poho_rhs)
    poho2 = _identity_row("Poho2",
                          0.5 * (n - 2) * w.grad_x_bulk + 0.5 * n * w.grad_t_bulk
                          + 0.5 * n * w.mass_bulk,
                          poho_rhs)
    return IdentityReport(nehari, poho1, poho2)


def trace_inequality_check(u: Field, c: float) -> float:
    """Ratio ||u||_2^2 / (2 ||U||_2 ||dt U||_2), <= 1 by Cauchy-Schwarz; u on the even block."""
    sigma = sigma_halfspace(c)
    mass_raw = plancherel_sum(u, lambda r2: 0.5 / sigma(r2))
    grad_t_raw = plancherel_sum(u, lambda r2: 0.5 * sigma(r2))
    bound = 2.0 * math.sqrt(mass_raw) * math.sqrt(grad_t_raw)
    trace = norm_lq(u, 2) ** 2
    if bound == 0.0:
        return 0.0 if trace == 0.0 else math.inf
    return trace / bound


@dataclass(frozen=True)
class RateFit:
    """Least-squares power-law fit distance ~ C * c^slope."""

    slope: float
    intercept: float
    r_squared: float


def fit_rate(points) -> RateFit:
    """Fit log(distance) against log(c) for a sweep of (c, distance) pairs."""
    pts = tuple(sorted((float(c), float(d)) for c, d in points))
    if len(pts) < 4:
        raise ValueError(f"rate fit needs at least 4 points, got {len(pts)}")
    cs = np.array([c for c, _ in pts])
    ds = np.array([d for _, d in pts])
    if np.any(np.diff(cs) == 0.0):  # cs is sorted; np.unique would import numpy.ma
        raise ValueError("rate fit needs distinct c values")
    if np.any(ds <= 0):
        raise ValueError("rate fit needs positive distances")
    x = np.log(cs)
    y = np.log(ds)
    if np.ptp(x) == 0.0:
        raise ValueError("rate fit needs variation in log c")
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(residuals ** 2)) / ss_tot
    return RateFit(float(slope), float(intercept), r_squared)


def action(u: Field, rp: ReducedParams) -> float:
    """Variational action, whose critical points are the solitary waves, of an even-block field.

    (1/2) <(P_c(D) - 1) u, u> + (1/2) ||u||_2^2 - ||u||_{p+1}^{p+1} / (p+1) at
    the reduced speed c_tilde, the kinetic term in cancellation-free form.
    """
    kin = plancherel_sum(u, kinetic(rp.c_tilde))
    return (0.5 * kin + 0.5 * norm_lq(u, 2) ** 2
            - norm_lq(u, rp.p + 1.0) ** (rp.p + 1.0) / (rp.p + 1.0))


@dataclass(frozen=True)
class Certificate:
    """Coefficient-sign certificate from the non-existence argument."""

    regime: str
    combined_lhs: float
    combined_rhs: float
    conclusion: str


def nonexistence_regime(rp: ReducedParams):
    """The non-existence regime (n, p, c) lies in: "A", "B" or None.

    Regime A is c^2/2 <= 1 with p >= (n+1)/(n-1); regime B is c^2/2 > 1 with
    p >= (n+2)/(n-2).
    """
    if 0.5 * rp.c_tilde * rp.c_tilde - 1.0 <= 0.0:
        return "A" if rp.p >= rp.critical_half else None
    return "B" if rp.p >= rp.critical_sobolev else None


def nonexistence_certificate(u: Field, rp: ReducedParams) -> Certificate:
    """Evaluate the identity combination that rules out nontrivial solutions, on the even block.

    Regime A (c^2/2 <= 1, p >= (n+1)/(n-1)): the Nehari/Poho1 combination has
    non-negative bulk coefficients against a non-positive boundary side, so a
    true solution must have zero bulk mass. Regime B (c^2/2 > 1,
    p >= (n+2)/(n-2)): the Nehari/Poho2 combination plus the trace/Young
    absorption leaves the slack (c^2-1) * int |U|^2, which must vanish. The
    certificate reports both sides for the candidate u; a nonzero candidate
    shows a strictly positive gap. When c^4/4 underflows to 0 in float64 the
    bulk terms vanish for a nonzero candidate too, and the conclusion says
    the certificate is inconclusive; the regime and both sides are kept.
    """
    n, p, c = rp.n, rp.p, rp.c_tilde
    mu_coeff = 0.5 * c * c - 1.0
    share = n / (p + 1.0)
    regime = nonexistence_regime(rp)
    if regime is None:
        raise ValueError(
            f"(n={n}, p={p}, c={c}) lies in neither non-existence regime: "
            "need c^2/2 <= 1 with p >= (n+1)/(n-1), or c^2/2 > 1 with p >= (n+2)/(n-2)")

    w = extension_weights(u, c, p)
    if regime == "A":
        a_grad = 0.5 * (n - 1) - share
        a_mass = 0.5 * (n + 1) - share
        lhs = a_grad * w.grad_bulk + a_mass * w.mass_bulk
        rhs = mu_coeff * (0.5 * n - share) * w.boundary_l2
        text = (f"regime A signs fired (gradient coefficient {a_grad:.6g} >= 0, "
                f"mass coefficient {a_mass:.6g} > 0, boundary side {rhs:.6g} <= 0): "
                f"a solution needs zero bulk mass, but the candidate leaves "
                f"gap {lhs - rhs:.6g} > 0")
    else:
        b_grad_x = 0.5 * (n - 2) - share
        b_rest = 0.5 * n - share
        lhs = b_grad_x * w.grad_x_bulk + b_rest * (w.grad_t_bulk + w.mass_bulk)
        rhs = mu_coeff * b_rest * w.boundary_l2
        slack = (c * c - 1.0) * (4.0 * w.mass_bulk / c ** 4)
        text = (f"regime B signs fired (x-gradient coefficient {b_grad_x:.6g} >= 0, "
                f"remaining coefficient {b_rest:.6g} > 0): after absorbing the "
                f"boundary term through the trace inequality and Young, the slack "
                f"(c^2-1) * int |U|^2 = {slack:.6g} must vanish, but the candidate "
                f"keeps it positive")
    if not np.any(u.values):
        text = "vacuously consistent: all terms vanish for u = 0"
    elif 0.25 * c ** 4 == 0.0:  # c^4/4 underflows first; c^2 may underflow with it
        small = "c^2 and c^4/4" if c * c == 0.0 else "c^4/4"
        text = (f"inconclusive: {small} underflow to 0 in float64 at c = {c:.6g}, so the "
                f"bulk terms vanish for a nonzero field and the gap {lhs - rhs:.6g} does "
                f"not measure its bulk mass")
    return Certificate(regime, lhs, rhs, text)

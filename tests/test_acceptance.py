"""End-to-end acceptance checks, one test per criterion.

Each test states its tolerance inline and prints a single summary line with
the measured quantities; `pytest -v` therefore shows one pass/fail verdict
per criterion. Budgeted wall-clock limits are asserted where the criterion
sets one.
"""

import glob
import math
import os
import time

import numpy as np
import pytest

from prnls.cli import main
from prnls.diagnostics import (check_identities, extension_weights, fit_rate,
                               nonexistence_certificate, trace_inequality_check)
from prnls.fixed_point import OUTCOME_CONVERGED, random_start, solve
from prnls.ground_state import solve_limit_equation
from prnls.linsolve import invert, linearized_operator, operator_norm_probe
from prnls.params import ReducedParams
from prnls.spectral import Field, Grid, intersection_norm, norm_h1, norm_lq, random_band_limited
from prnls.symbols import (check_derivative_bounds, check_difference_bound,
                           check_pointwise_bounds)

from conftest import C5_LADDER, sample_field
from fft_reference import full_grid_apply, full_grid_symmetrize_radial
from strip_oracle import halfspace_fd_weights


def test_criterion_01_symbol_bounds_hold_everywhere():
    start = time.perf_counter()
    total_violations = 0
    worst_margin = math.inf
    for c in (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0):
        reports = list(check_pointwise_bounds(c, samples=100000, seed=0))
        reports.append(check_difference_bound(c, samples=100000, seed=0))
        for rep in reports:
            total_violations += rep.violations
            if rep.label != "difference":
                worst_margin = min(worst_margin, rep.worst_ratio)
    elapsed = time.perf_counter() - start
    assert total_violations == 0
    assert elapsed < 10.0
    print(f"criterion 01 PASS: 0/{10 * 4} reports with violations over 1e5 "
          f"samples each, smallest slack {worst_margin:.3e}, {elapsed:.1f}s")


def test_criterion_02_derivative_constants_are_c_uniform():
    start = time.perf_counter()
    sups = {}
    for c in (2.0, 8.0, 32.0, 128.0):
        report = check_derivative_bounds(c, samples=2000, seed=0)
        for row in report.rows:
            sups.setdefault((row.family, row.order), []).append(row.sup_scaled)
    factors = {key: max(vals) / min(vals) for key, vals in sups.items()}
    elapsed = time.perf_counter() - start
    assert set(o for _, o in factors) == {0, 1, 2}
    for key, factor in factors.items():
        assert factor < 2.0, (key, factor)
    assert elapsed < 30.0
    print(f"criterion 02 PASS: worst c-variation factor "
          f"{max(factors.values()):.3f} < 2 over |alpha| <= 2, {elapsed:.1f}s")


def test_criterion_03_closed_form_ground_states():
    start = time.perf_counter()
    grid = Grid(1, 1024, 20.0 * math.pi)
    x = grid.axis_coords
    cases = {
        3.0: math.sqrt(2.0) / np.cosh(x),
        2.0: 1.5 / np.cosh(0.5 * x) ** 2,
    }
    errors = {}
    for p, exact in cases.items():
        gs = solve_limit_equation(ReducedParams(1, p, 8.0), grid, tol=1e-12)
        errors[p] = float(np.max(np.abs(grid.even.lift(gs.u_even).values - exact)))
        assert errors[p] < 1e-6, (p, errors[p])
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 03 PASS: L-inf errors p=3: {errors[3.0]:.2e}, "
          f"p=2: {errors[2.0]:.2e}, {elapsed:.1f}s")


def test_criterion_04_linear_solver_roundtrip(gs2d_small, gs3d):
    start = time.perf_counter()
    worst = 0.0
    count = 0
    # invert runs on the even block; the round trip is measured on the full
    # grid, by the rfftn operator, independently of the block transforms
    for n, p, gs in ((2, 3.0, gs2d_small), (3, 1.8, gs3d)):
        grid = gs.grid
        block = grid.even
        for c in (4.0, 16.0, 64.0):
            op = linearized_operator(ReducedParams(n, p, c), gs)
            for k in range(20):
                rng = np.random.default_rng([4, n, int(c), k])
                f = full_grid_symmetrize_radial(random_band_limited(grid, rng, 4.0))
                f = Field(grid, f.values / norm_lq(f, 2))
                w = block.lift(invert(op, block.restrict(f), tol=1e-10))
                rel = norm_lq(full_grid_apply(op, w) - f, 2) / norm_lq(f, 2)
                worst = max(worst, rel)
                count += 1
    elapsed = time.perf_counter() - start
    assert count == 120
    assert worst < 1e-9
    assert elapsed < 120.0
    print(f"criterion 04 PASS: worst relative roundtrip residual {worst:.2e} "
          f"over {count} inversions, {elapsed:.0f}s")


def test_criterion_05_existence_sweep_converges(c5_runs, gs2d, grid2d):
    runs = c5_runs["runs"]
    for c in C5_LADDER:
        u_c, rep = runs[c]
        assert rep.outcome == OUTCOME_CONVERGED and rep.converged
        assert u_c is not None
        assert rep.final_residual < 1e-8, (c, rep.final_residual)
        assert rep.contraction_estimate < 1.0, (c, rep.contraction_estimate)

    # multi-start uniqueness at the weakest-contraction rung
    start = time.perf_counter()
    rp = ReducedParams(2, 3.0, 8.0)
    base = runs[8.0][0]
    delta = 0.5 * norm_h1(gs2d.u_even)
    dists = []
    for seed in (1, 2):
        w0 = random_start(grid2d, np.random.default_rng(seed), delta)
        u_alt, rep_alt = solve(rp, grid2d, gs=gs2d, w0=w0)
        assert rep_alt.converged
        dists.append(norm_h1(u_alt - base))
    elapsed = c5_runs["elapsed"] + (time.perf_counter() - start)
    assert max(dists) < 1e-8
    assert elapsed < 600.0
    kappas = [runs[c][1].contraction_estimate for c in C5_LADDER]
    print(f"criterion 05 PASS: 4/4 rungs converged, max residual "
          f"{max(runs[c][1].final_residual for c in C5_LADDER):.2e}, "
          f"kappa range [{min(kappas):.2e}, {max(kappas):.2e}], "
          f"multi-start spread {max(dists):.2e}, {elapsed:.0f}s")


def test_criterion_06_convergence_rates(c5_runs, gs3d, grid3d):
    fit = fit_rate([(c, rep.w_norm) for c, (_, rep) in c5_runs["runs"].items()])
    assert -2.3 <= fit.slope <= -1.7, fit.slope
    assert fit.r_squared > 0.99, fit.r_squared

    ladder = (4.0, 8.0, 16.0, 32.0)
    norms = {}
    for c in ladder:
        _, rep = solve(ReducedParams(3, 1.8, c), grid3d, gs=gs3d)
        assert rep.converged
        norms[c] = rep.w_norm
    base = norms[ladder[0]]
    ratios = []
    for c in ladder[1:]:
        bound = base * (ladder[0] / c)
        ratios.append(norms[c] / bound)
        assert norms[c] <= bound * (1.0 + 1e-9), (c, norms[c], bound)
    print(f"criterion 06 PASS: n=2 slope {fit.slope:.4f} (R^2 "
          f"{fit.r_squared:.8f}); n=3 p=1.8 distances at most "
          f"{max(ratios):.3f} of the 1/c envelope")


def test_criterion_07_identity_suite(c5_runs):
    worst_identity = 0.0
    worst_trace = 0.0
    for c, (u_c, rep) in c5_runs["runs"].items():
        report = check_identities(u_c, ReducedParams(2, 3.0, c))
        worst_identity = max(worst_identity, report.max_mismatch)
        assert report.max_mismatch < 1e-6, (c, report.max_mismatch)
        ratio = trace_inequality_check(u_c, c)
        worst_trace = max(worst_trace, ratio)
        assert ratio <= 1.0 + 1e-12, (c, ratio)

    grid = Grid(1, 256, 20.0)
    u = sample_field(grid, lambda x: np.exp(-0.5 * x * x))
    c, p = 4.0, 3.0
    exact = extension_weights(grid.even.restrict(u), c, p)
    coarse = halfspace_fd_weights(u, c, p, n_t=192)
    fine = halfspace_fd_weights(u, c, p, n_t=192, refine=1)
    worst_fd = 0.0
    for name in ("grad_x_bulk", "grad_t_bulk", "mass_bulk"):
        ex = getattr(exact, name)
        rich = (4.0 * getattr(fine, name) - getattr(coarse, name)) / 3.0
        worst_fd = max(worst_fd, abs(rich - ex) / ex)
        assert worst_fd < 1e-4, (name, worst_fd)
    print(f"criterion 07 PASS: max identity mismatch {worst_identity:.2e}, "
          f"max trace ratio 1{worst_trace - 1.0:+.1e}, "
          f"FD oracle deviation {worst_fd:.2e}")


def test_criterion_08_nonexistence_probes(gs2d_small, grid2d_small, grid3d):
    start = time.perf_counter()
    outcomes = set()
    for c in (0.5, 1.0, 1.4):
        rp = ReducedParams(2, 3.0, c)
        scale = 0.3 * intersection_norm(gs2d_small.u_even)
        for k in range(50):
            rng = np.random.default_rng([0, k])
            w0 = random_start(grid2d_small, rng, scale)
            u_c, rep = solve(rp, grid2d_small, gs=gs2d_small, w0=w0, probe=True)
            outcomes.add(rep.outcome)
            assert u_c is None
            assert rep.outcome in ("collapsed", "diverged"), (c, k, rep.outcome)
        cert = nonexistence_certificate(gs2d_small.u_even, rp)
        assert cert.regime == "A"
        assert cert.combined_lhs > 0.0 >= cert.combined_rhs

    rp3 = ReducedParams(3, 5.0, 4.0)
    gs3 = solve_limit_equation(rp3, grid3d, tol=1e-12, allow_supercritical=True)
    scale = 0.3 * intersection_norm(gs3.u_even)
    genuine = 0
    converged = 0
    for k in range(50):
        rng = np.random.default_rng([0, k])
        w0 = random_start(grid3d, rng, scale)
        u_c, rep = solve(rp3, grid3d, gs=gs3, w0=w0, probe=True)
        if u_c is not None:
            converged += 1
            if check_identities(u_c, rp3).max_mismatch < 1e-6:
                genuine += 1
    cert_b = nonexistence_certificate(gs3.u_even, rp3)
    assert cert_b.regime == "B" and cert_b.combined_lhs > 0.0
    elapsed = time.perf_counter() - start
    assert genuine == 0
    assert elapsed < 600.0
    print(f"criterion 08 PASS: n=2 probes all in {sorted(outcomes)}; n=3 p=5: "
          f"{converged}/50 hit the lattice bubble, 0 pass the identity filter; "
          f"certificate regimes A/B consistent, {elapsed:.0f}s")


def test_criterion_09_norm_comparability(grid2d_small):
    factors = {}
    for q in (2.0, 4.0):
        stats = {"lower_ratio": [], "upper_ratio": [], "inv_diff_ratio": []}
        for c in (4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0):
            rep = operator_norm_probe(grid2d_small, c, q, trials=20, seed=0)
            for key in stats:
                stats[key].append(getattr(rep, key))
            if q == 2.0:
                assert rep.inv_diff_ratio <= rep.lattice_sup * (1.0 + 1e-10), \
                    (c, rep.inv_diff_ratio, rep.lattice_sup)
        for key, vals in stats.items():
            factors[q, key] = max(vals) / min(vals)
            assert factors[q, key] < 2.0, (q, key, factors[q, key])
    print(f"criterion 09 PASS: worst ratio variation factor "
          f"{max(factors.values()):.3f} < 2; q=2 inverse-difference never "
          f"exceeded the lattice supremum")


def test_criterion_10_byte_identical_reruns(tmp_path):
    config = tmp_path / "sweep.ini"
    config.write_text("""
[params]
n = 2
p = 3.0

[grid]
n_points = 64
box_radius = 20.0

[sweep]
c_min = 8.0
c_max = 32.0
rungs = 3
""")
    def run(tag, *extra):
        out = tmp_path / tag
        assert main(["sweep", str(config), *extra, "--output-dir", str(out)]) == 0
        return out

    serial = [run("serial-a"), run("serial-b")]
    parallel = [run("par-a", "--workers", "3"), run("par-b", "--workers", "3")]
    compared = 0
    for pair in (serial, parallel):
        names = sorted(os.path.basename(p) for p in glob.glob(str(pair[0] / "*.csv")))
        assert names  # the run must actually produce CSV reports
        for name in names:
            a = (pair[0] / name).read_bytes()
            b = (pair[1] / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"
            compared += 1
    assert (serial[0] / "sweep.csv").read_bytes() == \
        (parallel[0] / "sweep.csv").read_bytes()
    print(f"criterion 10 PASS: {compared} CSV files byte-identical across "
          f"reruns, serial and 3-worker runs agree")

"""Command-line front end: config parsing, sweep orchestration, CSV reports.

Subcommands
    ground-state   solve the limit equation at (n, p)
    solve          construct u_c at one speed; dumps u_inf and u_c
    sweep          geometric c-ladder of solves (--probe skips the construction gate)
    rate-sweep     sweep's ladder, rows in rate.csv, plus power-law fit of distance vs c
    identity-check solve, then evaluate the half-space identities and trace ratio
    certify        seeded probe campaign plus non-existence certificate
    symbol-check   sampled symbol inequalities and derivative-bound constants
    norm-probe     empirical operator-norm ratios over a c-ladder

Config files are INI-style with sections [params], [grid], [tolerances],
[sweep], [run]; unknown sections or keys are rejected, and _SCHEMA gives each
key's type and default. The subcommand alone names the command. The output
directory is --output-dir, else [run] output_dir, else ./prnls-out; one that
cannot be created is a config error (exit 1) before any output. Every run writes
manifest.txt (config echo, versions) before any numeric work and appends
timings, each as a line "timings.<phase>_seconds = ...":
    ground_state   the ground-state solve, when it ends (also if it fails)
    rc             solve, identity-check, certify: operator, R_c and ceiling
    picard         solve, identity-check: the Picard loop; certify: summed
                   over its probes
    identities     identity-check: the identities and the trace ratio
    total          the whole command, on completion
Sweep rungs can run in worker processes and write no phase times.
Numeric outputs are CSV with 17-significant-digit floats: fixed config,
seed and thread count give byte-identical files.

Exit codes: 0 success, 1 usage/config error, 2 mathematical failure
(non-convergence; for certify, an unrefuted converged solution). A solve
that does not converge still writes its rows on exit 2, so sweep scripts
can treat collapse as data; for the one solve of solve and identity-check,
manifest.txt's "result = solver failure: <outcome>: <message>" line also
says why it failed; sweep and rate-sweep append, after their CSVs, one
line "rung = c <c>: <outcome>: <message>" per rung that did not converge,
the same with or without workers; a rate-sweep with fewer than four
converged rungs above the rounding floor writes no rate_fit.csv and says so
in a "rate_fit = skipped: ..." line. A ground state that fails (a
Petviashvili stall, collapse or blow-up) ends every command with exit 2
and a manifest.txt whose "result = solver failure: ..." line says why;
ground-state also writes its ground_state.csv row, the other commands
nothing more. A value that
leaves float64 during a run (an overflow, a division by zero or an invalid
operation such as 0/0; underflow to 0 is allowed) ends it where it is formed,
with exit 2 and a "result = float64 range: <message> at <file>:<line>" line;
ground-state still writes its row.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import __version__
from .diagnostics import action, check_identities, fit_rate, nonexistence_certificate, \
    nonexistence_regime, trace_inequality_check
from .errors import CollapseError, ConfigError, SolverError
from .fixed_point import OUTCOME_COLLAPSED, OUTCOME_CONVERGED, OUTCOME_DIVERGED, SolveReport, \
    construction_precondition, prepare, random_start, rounding_floor, solve
from .ground_state import solve_limit_equation
from .linsolve import operator_norm_probe
from .params import PhysicalParams, ReducedParams, ToleranceSet, lift_solution, \
    physical_frame, reduce_params
from .spectral import Grid, intersection_norm, norm_h1, write_field
from .symbols import check_derivative_bounds, check_difference_bound, \
    check_pointwise_bounds

_GENUINE_MISMATCH = 1e-6
_PROBE_START_SCALE = 0.3
_DERIVATIVE_C_LADDER = (2.0, 8.0, 32.0, 128.0)
# underflow stays quiet: the Gaussian seed's tail underflows by design
_FLOAT_POLICY = {"over": "raise", "divide": "raise", "invalid": "raise"}


@dataclass(frozen=True)
class SweepSpec:
    c_min: float
    c_max: float
    rungs: int

    def ladder(self):
        return [float(c) for c in np.geomspace(self.c_min, self.c_max, self.rungs)]


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: PhysicalParams
    grid: Grid
    tolerances: ToleranceSet
    sweep: SweepSpec
    output_dir: str
    seed: int
    probes: int
    trials: int
    samples: int
    workers: int
    probe: bool = False


# each config key's (type, default) for parse_config: a _REQUIRED key must be
# set, a grid key left at None takes Grid.default(n)'s value
_REQUIRED = object()
_SCHEMA = {
    "params": {"n": (int, _REQUIRED), "p": (float, _REQUIRED), "c": (float, math.inf),
               "m": (float, 0.5), "mu": (float, 1.0)},
    "grid": {"n_points": (int, None), "box_radius": (float, None)},
    "tolerances": {f.name: (float, f.default) for f in fields(ToleranceSet)},
    "sweep": {"c_min": (float, _REQUIRED), "c_max": (float, _REQUIRED),
              "rungs": (int, _REQUIRED)},
    "run": {"output_dir": (str, "prnls-out"), "seed": (int, 0), "probes": (int, 50),
            "trials": (int, 20), "samples": (int, 100000), "workers": (int, 1)},
}

_RUN_FLOORS = {"seed": 0, "probes": 1, "trials": 1, "samples": 100, "workers": 1}
_NEEDS_FINITE_C = {"solve", "identity-check", "certify"}
_NEEDS_SWEEP = {"sweep", "rate-sweep", "norm-probe"}


def _get(cp, section: str, key: str):
    """[section] key as its _SCHEMA type, or its _SCHEMA default when absent."""
    cast, default = _SCHEMA[section][key]
    if not cp.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigError(f"missing required key '{key}' in section [{section}]")
        return default
    raw = cp.get(section, key)
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from None


def _run_floor(key: str, val):
    """Check a [run] value against its floor, if it has one, whether from the file or a flag."""
    if key in _RUN_FLOORS and val < _RUN_FLOORS[key]:
        raise ConfigError(f"{key} must be >= {_RUN_FLOORS[key]}, got {val}")
    return val


def parse_config(text: str, command: str) -> RunConfig:
    """Parse and validate an INI config; unknown sections/keys are errors."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")

    if not cp.has_section("params"):
        raise ConfigError("missing required section [params]")
    n, p, c, m, mu = (_get(cp, "params", key) for key in _SCHEMA["params"])
    try:
        params = PhysicalParams(n, p, m, mu, c)
        reduce_params(params)  # a finite c must reduce to a finite positive c_tilde
        default_grid = Grid.default(n)
        size, radius = (_get(cp, "grid", key) for key in _SCHEMA["grid"])
        grid = Grid(n, default_grid.N if size is None else size,
                    default_grid.L if radius is None else radius)
        if command == "solve":  # solve lifts u_c to the physical frame
            physical_frame(grid, params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    def tol(key):
        val = _get(cp, "tolerances", key)
        if not (0 < val < math.inf):
            raise ConfigError(f"{key} must be positive and finite, got {val}")
        return val

    tols = ToleranceSet(*map(tol, _SCHEMA["tolerances"]))

    sweep = None
    if cp.has_section("sweep"):
        sweep = SweepSpec(*(_get(cp, "sweep", key) for key in _SCHEMA["sweep"]))
        if not (0 < sweep.c_min < sweep.c_max < math.inf):
            raise ConfigError(f"need 0 < c_min < c_max < inf, got {sweep.c_min}, "
                              f"{sweep.c_max}")
        min_rungs = 4 if command == "rate-sweep" else 2
        if sweep.rungs < min_rungs:
            raise ConfigError(f"{command} needs rungs >= {min_rungs}, got {sweep.rungs}")
        if len(set(sweep.ladder())) < sweep.rungs:
            raise ConfigError(f"{sweep.rungs} rungs from c_min = {sweep.c_min!r} to c_max = "
                              f"{sweep.c_max!r} repeat a speed")
    elif command in _NEEDS_SWEEP:
        raise ConfigError(f"{command} requires a [sweep] section")
    elif command == "symbol-check":
        sweep = SweepSpec(2.0, 1024.0, 10)

    run = {key: _run_floor(key, _get(cp, "run", key)) for key in _SCHEMA["run"]}
    if not run["output_dir"]:  # an empty output_dir = takes the default too
        run["output_dir"] = _SCHEMA["run"]["output_dir"][1]
    cfg = RunConfig(command, params, grid, tols, sweep, **run)
    if cfg.command in _NEEDS_FINITE_C and math.isinf(params.c):
        raise ConfigError(f"{cfg.command} requires a finite c in [params]")
    return cfg


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_manifest(cfg: RunConfig, path: str):
    sections = {"params": cfg.params, "grid": SimpleNamespace(n_points=cfg.grid.N,
                                                              box_radius=cfg.grid.L),
                "tolerances": cfg.tolerances, "sweep": cfg.sweep, "run": cfg}
    lines = [f"command = {cfg.command}"]
    lines += [f"{section}.{key} = {_fmt(getattr(sections[section], key))}"
              for section, keys in _SCHEMA.items() if sections[section] is not None
              for key in keys]
    lines.append(f"run.probe = {_fmt(cfg.probe)}")
    lines += [f"versions.python = {sys.version.split()[0]}",
              f"versions.numpy = {np.__version__}",
              f"versions.package = {__version__}"]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_SOLVE_HEADER = ("n", "p", "c", "outcome", "iterations", "contraction_estimate",
                 "final_residual", "rc_norm", "w_norm", "gs_residual", "action")


def _solve_row(rp: ReducedParams, gs, rep: SolveReport, act: float):
    return (rp.n, rp.p, rp.c_tilde, rep.outcome, rep.iterations, rep.contraction_estimate,
            rep.final_residual, rep.rc_norm, rep.w_norm, gs.residual, act)


def _action(rp: ReducedParams, u_c) -> float:
    """u_c's action at rp, nan when the solve did not converge."""
    if u_c is None:
        return math.nan
    return action(u_c, rp)


# a sweep worker's (cfg, gs), set once by the pool's initializer; the parent never sets it
_worker_state = None


def _start_worker(cfg: RunConfig, gs):
    global _worker_state
    _worker_state = (cfg, gs)
    np.seterr(**_FLOAT_POLICY)  # spawn and forkserver workers do not inherit run()'s


class _OutOfRange(Exception):
    """A value left float64 during a run: "<message> at <file>:<line>"."""


@contextmanager
def _float_range():
    """Re-raise a float64 escape as _OutOfRange, named with the innermost prnls line it passed."""
    try:
        yield
    except (FloatingPointError, OverflowError) as exc:
        line = [f for f in traceback.extract_tb(exc.__traceback__)
                if os.path.dirname(f.filename) == os.path.dirname(__file__)][-1]
        raise _OutOfRange(f"{exc} at {os.path.basename(line.filename)}:{line.lineno}") from exc


@_float_range()  # in a pool worker too: the parent's traceback ends at pool.map
def _solve_rung(c: float, cfg: RunConfig | None = None, gs=None):
    cfg, gs = _worker_state if cfg is None else (cfg, gs)
    rp = ReducedParams(cfg.params.n, cfg.params.p, c)
    u_c, rep = solve(rp, cfg.grid, gs, tol=cfg.tolerances)
    return rp, rep, _action(rp, u_c)


def _append_manifest(out: str, *lines: str):
    with open(os.path.join(out, "manifest.txt"), "a") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def _append_time(out: str, phase: str, seconds: float):
    _append_manifest(out, f"timings.{phase}_seconds = {seconds:.3f}")


@contextmanager
def _timed(out: str, phase: str):
    """Append the block's wall time to the manifest as timings.<phase>_seconds, even on a raise."""
    start = time.perf_counter()
    try:
        yield
    finally:
        _append_time(out, phase, time.perf_counter() - start)


def _limit_state(cfg: RunConfig):
    with _timed(cfg.output_dir, "ground_state"):
        return solve_limit_equation(reduce_params(cfg.params), cfg.grid,
                                    tol=cfg.tolerances.tol_gs)


def _solve_one(cfg: RunConfig, rp: ReducedParams, gs):
    """solve() at one speed, timing R_c's phase (operator, R_c, ceiling) and the Picard loop.

    Writes solve.csv and returns u_c; a solve that fails raises SolverError
    with its outcome and reason after its row.
    """
    with _timed(cfg.output_dir, "rc"):
        construction = prepare(rp, gs, cfg.tolerances.tol_lin)
    with _timed(cfg.output_dir, "picard"):
        u_c, rep = solve(rp, cfg.grid, gs, tol=cfg.tolerances, construction=construction)
    _write_csv(os.path.join(cfg.output_dir, "solve.csv"), _SOLVE_HEADER,
               [_solve_row(rp, gs, rep, _action(rp, u_c))])
    if u_c is None:
        raise SolverError(f"{rep.outcome}: {rep.message}")
    return u_c


def _cmd_ground_state(cfg: RunConfig, out: str) -> int:
    path = os.path.join(out, "ground_state.csv")
    header = ("n", "p", "n_points", "box_radius", "outcome", "iterations",
              "residual", "h1_norm", "center_value")
    run = (cfg.params.n, cfg.params.p, cfg.grid.N, cfg.grid.L)
    try:
        gs = _limit_state(cfg)
    except (SolverError, FloatingPointError, OverflowError) as exc:  # run() writes the reason
        outcome = OUTCOME_COLLAPSED if isinstance(exc, CollapseError) else OUTCOME_DIVERGED
        _write_csv(path, header, [run + (outcome, 0, math.nan, math.nan, math.nan)])
        raise
    center = float(gs.u_even.values[(0,) * cfg.params.n])
    _write_csv(path, header, [run + (OUTCOME_CONVERGED, gs.iterations, gs.residual,
                                     norm_h1(gs.u_even), center)])
    write_field(os.path.join(out, "u_inf.bin"), gs.u_even, "u_inf", cfg.params.p, math.inf)
    return 0


def _cmd_solve(cfg: RunConfig, out: str) -> int:
    rp = reduce_params(cfg.params)
    gs = _limit_state(cfg)
    write_field(os.path.join(out, "u_inf.bin"), gs.u_even, "u_inf", rp.p, math.inf)
    u_c = _solve_one(cfg, rp, gs)
    write_field(os.path.join(out, "u_c.bin"), u_c, "u_c", rp.p, rp.c_tilde)
    if (cfg.params.m, cfg.params.mu) != (0.5, 1.0):  # else u_c is in the physical frame
        write_field(os.path.join(out, "u_c_physical.bin"), lift_solution(u_c, cfg.params),
                    "u_c_physical", cfg.params.p, cfg.params.c)
    return 0


def _sweep_rows(cfg: RunConfig, gs):
    """Solve every rung of the ladder; returns its (params, report, action) triples."""
    ladder = cfg.sweep.ladder()
    if cfg.workers <= 1:
        return [_solve_rung(c, cfg, gs) for c in ladder]
    # imported here, so only a sweep that forks loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    # a forking pool starts all its workers at the first submit: one per rung and CPU at most.
    # Each worker gets (cfg, gs) once (by fork, or pickled once under spawn); a job is its speed
    with ProcessPoolExecutor(max_workers=min(cfg.workers, len(ladder), os.cpu_count() or 1),
                             initializer=_start_worker, initargs=(cfg, gs)) as pool:
        return list(pool.map(_solve_rung, ladder))


def _rate_fit(out: str, gs, results) -> bool:
    """Fit the converged rungs above solve()'s rounding floor to rate_fit.csv.

    Fewer than four give no fit, a "rate_fit = skipped: ..." line and False.
    """
    floor = rounding_floor(norm_h1(gs.u_even))
    points = [(rp.c_tilde, rep.w_norm) for rp, rep, _ in results
              if rep.converged and rep.w_norm > floor]
    if len(points) < 4:
        _append_manifest(out, f"rate_fit = skipped: {len(points)} of {len(results)} rungs "
                              f"converged above the rounding floor {floor:.3e}; the fit needs 4")
        return False
    fit = fit_rate(points)
    _write_csv(os.path.join(out, "rate_fit.csv"), ("slope", "intercept", "r_squared", "points"),
               [(fit.slope, fit.intercept, fit.r_squared, len(points))])
    return True


def _run_ladder(cfg: RunConfig, out: str, csv_name: str, fit=None) -> int:
    """sweep and rate-sweep: the ground state (dumped as u_inf.bin), then a csv_name row per rung.

    Then fit(out, gs, results), if given, and a "rung = c <c>: ..." manifest line
    per unconverged rung; exit 2 unless every rung converged and the fit was written.
    """
    gs = _limit_state(cfg)
    write_field(os.path.join(out, "u_inf.bin"), gs.u_even, "u_inf", cfg.params.p, math.inf)
    results = _sweep_rows(cfg, gs)
    _write_csv(os.path.join(out, csv_name), _SOLVE_HEADER,
               [_solve_row(rp, gs, rep, act) for rp, rep, act in results])
    fitted = fit is None or fit(out, gs, results)
    _append_manifest(out, *(f"rung = c {_fmt(rp.c_tilde)}: {rep.outcome}: {rep.message}"
                            for rp, rep, _ in results if not rep.converged))
    return 0 if fitted and all(rep.converged for _, rep, _ in results) else 2


def _cmd_identity_check(cfg: RunConfig, out: str) -> int:
    rp = reduce_params(cfg.params)
    gs = _limit_state(cfg)
    u_c = _solve_one(cfg, rp, gs)
    with _timed(out, "identities"):
        report = check_identities(u_c, rp)
        ratio = trace_inequality_check(u_c, rp.c_tilde)
    _write_csv(os.path.join(out, "identities.csv"),
               ("c", "identity", "lhs", "rhs", "rel_mismatch"),
               [(rp.c_tilde, row.label, row.lhs, row.rhs, row.rel_mismatch)
                for row in report.rows()])
    _write_csv(os.path.join(out, "trace_ratio.csv"), ("c", "ratio"), [(rp.c_tilde, ratio)])
    write_field(os.path.join(out, "u_c.bin"), u_c, "u_c", rp.p, rp.c_tilde)
    return 0


def _cmd_certify(cfg: RunConfig, out: str) -> int:
    rp = reduce_params(cfg.params)
    gs = _limit_state(cfg)
    cert = nonexistence_certificate(gs.u_even, rp)
    _write_csv(os.path.join(out, "certificate.csv"),
               ("regime", "combined_lhs", "combined_rhs", "conclusion"),
               [(cert.regime, cert.combined_lhs, cert.combined_rhs, cert.conclusion)])

    scale = _PROBE_START_SCALE * intersection_norm(gs.u_even)
    with _timed(out, "rc"):
        construction = prepare(rp, gs, cfg.tolerances.tol_lin)  # one R_c for every probe
    rows = []
    genuine = 0
    picard = 0.0
    for k in range(cfg.probes):
        rng = np.random.default_rng([cfg.seed, k])
        w0 = random_start(cfg.grid, rng, scale)
        start = time.perf_counter()
        u_c, rep = solve(rp, cfg.grid, gs, w0=w0, tol=cfg.tolerances,
                         construction=construction)
        picard += time.perf_counter() - start
        mismatch = math.nan
        if u_c is not None:
            mismatch = check_identities(u_c, rp).max_mismatch
            if mismatch < _GENUINE_MISMATCH:
                genuine += 1
        rows.append((k, rep.outcome, rep.iterations, rep.w_norm, mismatch))
    _append_time(out, "picard", picard)
    _write_csv(os.path.join(out, "probes.csv"),
               ("seed", "outcome", "iterations", "w_norm", "identity_max_mismatch"),
               rows)
    return 0 if genuine == 0 else 2


def _cmd_symbol_check(cfg: RunConfig, out: str) -> int:
    rows = []
    violations = 0
    for c in cfg.sweep.ladder():
        reports = list(check_pointwise_bounds(c, cfg.samples, cfg.seed))
        reports.append(check_difference_bound(c, cfg.samples, cfg.seed))
        for rep in reports:
            violations += rep.violations
            rows.append((c, rep.label, rep.samples, rep.violations,
                         rep.worst_ratio, rep.argmax_xi))
    _write_csv(os.path.join(out, "symbols.csv"),
               ("c", "check", "samples", "violations", "worst_ratio", "argmax_xi"), rows)

    deriv_rows = []
    for c in _DERIVATIVE_C_LADDER:
        for row in check_derivative_bounds(c, samples=min(cfg.samples, 2000), seed=cfg.seed):
            deriv_rows.append((c, row.family, row.order, row.sup_scaled, row.argmax_xi))
    _write_csv(os.path.join(out, "derivatives.csv"),
               ("c", "family", "order", "sup_scaled", "argmax_xi"), deriv_rows)
    return 0 if violations == 0 else 2


def _cmd_norm_probe(cfg: RunConfig, out: str) -> int:
    rows = []
    parseval_ok = True
    for c in cfg.sweep.ladder():
        for q in sorted({2.0, 2.0 * cfg.params.n}):  # one q = 2 in 1-D
            rep = operator_norm_probe(cfg.grid, c, q, trials=cfg.trials, seed=cfg.seed)
            ok = rep.inv_diff_ratio <= rep.lattice_sup * (1.0 + 1e-10)
            parseval_ok = parseval_ok and (ok or q != 2.0)
            rows.append((c, q, rep.trials, rep.lower_ratio, rep.upper_ratio,
                         rep.inv_diff_ratio, rep.lattice_sup, ok))
    _write_csv(os.path.join(out, "norm_probe.csv"),
               ("c", "q", "trials", "lower_ratio", "upper_ratio", "inv_diff_ratio",
                "lattice_sup", "parseval_ok"), rows)
    return 0 if parseval_ok else 2


_RUNNERS = {
    "ground-state": _cmd_ground_state,
    "solve": _cmd_solve,
    "sweep": partial(_run_ladder, csv_name="sweep.csv"),
    "rate-sweep": partial(_run_ladder, csv_name="rate.csv", fit=_rate_fit),
    "identity-check": _cmd_identity_check,
    "certify": _cmd_certify,
    "symbol-check": _cmd_symbol_check,
    "norm-probe": _cmd_norm_probe,
}
COMMANDS = tuple(_RUNNERS)


def _check_construction(cfg: RunConfig):
    """Raise ConfigError if cfg breaks its command's preconditions, before any output.

    The one gate on the paper's hypotheses: the solvers run any input. certify
    needs (n, p, c) inside a non-existence regime. The other solves must meet
    construction_precondition: sweeps check their lowest rung, whose ladder
    value is c_tilde itself; sweep --probe skips the check.
    """
    if cfg.command == "certify":
        rp = reduce_params(cfg.params)
        if nonexistence_regime(rp) is None:
            raise ConfigError(f"(n={rp.n}, p={rp.p}, c={rp.c_tilde}) is outside both "
                              "non-existence regimes; certify does not apply")
        return
    if cfg.command in ("solve", "identity-check"):
        c_tilde = reduce_params(cfg.params).c_tilde
    elif cfg.command == "rate-sweep" or (cfg.command == "sweep" and not cfg.probe):
        c_tilde = cfg.sweep.c_min
    else:
        return
    reason = construction_precondition(ReducedParams(cfg.params.n, cfg.params.p, c_tilde))
    if reason:
        raise ConfigError(reason)


def run(cfg: RunConfig) -> int:
    """Execute a parsed configuration; returns the process exit code."""
    _check_construction(cfg)
    out = cfg.output_dir
    try:
        os.makedirs(out, exist_ok=True)
        _write_manifest(cfg, os.path.join(out, "manifest.txt"))
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out!r}: {exc}") from exc
    try:
        with _timed(out, "total"), np.errstate(**_FLOAT_POLICY), _float_range():
            code = _RUNNERS[cfg.command](cfg, out)
        note = "ok" if code == 0 else f"exit {code}"
    except SolverError as exc:
        code, note = 2, f"solver failure: {exc}"
    except _OutOfRange as exc:
        code, note = 2, f"float64 range: {exc}"
    _append_manifest(out, f"result = {note}")
    return code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(prog="prnls", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("config", help="path to an INI config file")
        cmd.add_argument("--output-dir", default=None)
        if name in ("sweep", "rate-sweep"):
            cmd.add_argument("--workers", type=int, default=None)
        if name == "sweep":
            cmd.add_argument("--probe", action="store_true")

    try:
        args = parser.parse_args(argv)
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        cfg = parse_config(text, args.command)
        updates = {}
        if args.output_dir:
            updates["output_dir"] = args.output_dir
        if getattr(args, "workers", None) is not None:
            updates["workers"] = _run_floor("workers", args.workers)
        if getattr(args, "probe", False):
            updates["probe"] = True
        return run(replace(cfg, **updates))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

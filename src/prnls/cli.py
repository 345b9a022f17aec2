"""Command-line front end: config parsing, sweep orchestration, CSV reports.

Subcommands
    ground-state   solve the limit equation at (n, p)
    solve          construct u_c at one speed; dumps u_inf and u_c
    sweep          geometric c-ladder of solves (--probe, --find-threshold)
    rate-sweep     sweep plus power-law fit of distance vs c
    identity-check solve, then evaluate the half-space identities and trace ratio
    certify        seeded probe campaign plus non-existence certificate
    symbol-check   sampled symbol inequalities and derivative-bound constants
    norm-probe     empirical operator-norm ratios over a c-ladder

Config files are INI-style with sections [params], [grid], [tolerances],
[sweep], [run]; unknown sections or keys are rejected. Every run writes
manifest.txt (config echo, versions) before any numeric work and appends
timings on completion. Numeric outputs are CSV with 17-significant-digit
floats: fixed config, seed and thread count give byte-identical files.

Exit codes: 0 success, 1 usage/config error, 2 mathematical failure
(non-convergence; for certify, an unrefuted converged solution). Reports are
still written on exit 2 so sweep scripts can treat collapse as data.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .diagnostics import action, check_identities, fit_rate, nonexistence_certificate, \
    nonexistence_regime, trace_inequality_check
from .errors import CollapseError, ConfigError, SolverError
from .fixed_point import SolveReport, find_convergence_threshold, random_start, solve
from .ground_state import solve_limit_equation
from .linsolve import operator_norm_probe
from .params import PhysicalParams, ReducedParams, ToleranceSet, lift_solution, reduce_params
from .spectral import Grid, intersection_norm, norm_h1, write_field
from .symbols import check_derivative_bounds, check_difference_bound, \
    check_pointwise_bounds

COMMANDS = ("ground-state", "solve", "sweep", "rate-sweep", "identity-check",
            "certify", "symbol-check", "norm-probe")

_OUTPUT_DIR_ENV = "PRNLS_OUTPUT_DIR"
_GENUINE_MISMATCH = 1e-6
_PROBE_START_SCALE = 0.3
_DERIVATIVE_C_LADDER = (2.0, 8.0, 32.0, 128.0)


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
    find_threshold: bool = False


_SCHEMA = {
    "params": {"n": int, "p": float, "c": float, "m": float, "mu": float},
    "grid": {"n_points": int, "box_radius": float},
    "tolerances": {f.name: float for f in fields(ToleranceSet)},
    "sweep": {"c_min": float, "c_max": float, "rungs": int},
    "run": {"command": str, "output_dir": str, "seed": int, "probes": int,
            "trials": int, "samples": int, "workers": int},
}

_RUN_FLOORS = {"seed": 0, "probes": 1, "trials": 1, "samples": 100, "workers": 1}
_NEEDS_FINITE_C = {"solve", "identity-check", "certify"}
_NEEDS_SWEEP = {"sweep", "rate-sweep", "norm-probe"}


def _get(cp, section: str, key: str, cast, default):
    if not cp.has_option(section, key):
        if default is None:
            raise ConfigError(f"missing required key '{key}' in section [{section}]")
        return default
    raw = cp.get(section, key)
    try:
        if cast is bool:
            raise TypeError
        return cast(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from None


def _run_floor(key: str, val: int) -> int:
    """Check a [run] integer against its floor, whether it came from the file or a flag."""
    if val < _RUN_FLOORS[key]:
        raise ConfigError(f"{key} must be >= {_RUN_FLOORS[key]}, got {val}")
    return val


def parse_config(text: str, command: str = None) -> RunConfig:
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

    file_command = _get(cp, "run", "command", str, "")
    if file_command and file_command not in COMMANDS:
        raise ConfigError(f"unknown command {file_command!r} (choose from {', '.join(COMMANDS)})")
    if command and file_command and command != file_command:
        raise ConfigError(f"config says command = {file_command} but {command} was invoked")
    resolved_command = command or file_command or "solve"

    if not cp.has_section("params"):
        raise ConfigError("missing required section [params]")
    n = _get(cp, "params", "n", int, None)
    p = _get(cp, "params", "p", float, None)
    c = _get(cp, "params", "c", float, math.inf)
    m = _get(cp, "params", "m", float, 0.5)
    mu = _get(cp, "params", "mu", float, 1.0)
    try:
        params = PhysicalParams(n, p, m, mu, c)
        default_grid = Grid.default(n)
        grid = Grid(n, _get(cp, "grid", "n_points", int, default_grid.N),
                    _get(cp, "grid", "box_radius", float, default_grid.L))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    def tol(field):
        val = _get(cp, "tolerances", field.name, float, field.default)
        if not (val > 0):
            raise ConfigError(f"{field.name} must be positive, got {val}")
        return val

    tols = ToleranceSet(*(tol(f) for f in fields(ToleranceSet)))

    sweep = None
    if cp.has_section("sweep"):
        sweep = SweepSpec(_get(cp, "sweep", "c_min", float, None),
                          _get(cp, "sweep", "c_max", float, None),
                          _get(cp, "sweep", "rungs", int, None))
        if not (0 < sweep.c_min < sweep.c_max):
            raise ConfigError(f"need 0 < c_min < c_max, got {sweep.c_min}, {sweep.c_max}")
        min_rungs = 4 if resolved_command == "rate-sweep" else 2
        if sweep.rungs < min_rungs:
            raise ConfigError(f"{resolved_command} needs rungs >= {min_rungs}, got {sweep.rungs}")
    elif resolved_command in _NEEDS_SWEEP:
        raise ConfigError(f"{resolved_command} requires a [sweep] section")
    elif resolved_command == "symbol-check":
        sweep = SweepSpec(2.0, 1024.0, 10)

    def run_int(key, default):
        return _run_floor(key, _get(cp, "run", key, int, default))

    output_dir = _get(cp, "run", "output_dir", str, "") \
        or os.environ.get(_OUTPUT_DIR_ENV, "") or "prnls-out"

    cfg = RunConfig(resolved_command, params, grid, tols, sweep, output_dir,
                    run_int("seed", 0), run_int("probes", 50), run_int("trials", 20),
                    run_int("samples", 100000), run_int("workers", 1))
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
    lines = [f"command = {cfg.command}"]
    pr = cfg.params
    lines += [f"params.{k} = {_fmt(v)}" for k, v in
              (("n", pr.n), ("p", pr.p), ("c", pr.c), ("m", pr.m), ("mu", pr.mu))]
    lines += [f"grid.n_points = {cfg.grid.N}", f"grid.box_radius = {_fmt(cfg.grid.L)}"]
    tl = cfg.tolerances
    lines += [f"tolerances.{f.name} = {_fmt(getattr(tl, f.name))}"
              for f in fields(ToleranceSet)]
    if cfg.sweep is not None:
        lines += [f"sweep.c_min = {_fmt(cfg.sweep.c_min)}",
                  f"sweep.c_max = {_fmt(cfg.sweep.c_max)}",
                  f"sweep.rungs = {cfg.sweep.rungs}"]
    lines += [f"run.{k} = {_fmt(getattr(cfg, k))}"
              for k in ("output_dir", "seed", "probes", "trials", "samples",
                        "workers", "probe", "find_threshold")]
    lines += [f"versions.python = {sys.version.split()[0]}",
              f"versions.numpy = {np.__version__}",
              f"versions.package = {__version__}"]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _append_timing(path: str, seconds: float, note: str = ""):
    with open(path, "a") as fh:
        fh.write(f"timings.total_seconds = {seconds:.3f}\n")
        if note:
            fh.write(f"result = {note}\n")


_SOLVE_HEADER = ("n", "p", "c", "outcome", "iterations", "contraction_estimate",
                 "final_residual", "rc_norm", "w_norm", "gs_residual", "action")


def _solve_row(rep: SolveReport, act: float):
    return (rep.n, rep.p, rep.c, rep.outcome, rep.iterations, rep.contraction_estimate,
            rep.final_residual, rep.rc_norm, rep.w_norm, rep.gs_residual, act)


def _run_one(cfg: RunConfig, rp: ReducedParams, gs, probe: bool):
    """Solve at one speed; returns (u_c, report, action) without raising."""
    try:
        u_c, rep = solve(rp, cfg.grid, gs, probe=probe, tol=cfg.tolerances)
    except SolverError as exc:
        return None, exc.report, math.nan
    act = math.nan
    if u_c is not None:
        act = action(u_c, PhysicalParams(rp.n, rp.p, 0.5, 1.0, rp.c_tilde))
    return u_c, rep, act


def _solve_rung(args):
    cfg, c, gs, probe = args
    rp = ReducedParams(cfg.params.n, cfg.params.p, c)
    _, rep, act = _run_one(cfg, rp, gs, probe)
    return rep, act


def _limit_state(cfg: RunConfig, allow_supercritical: bool):
    return solve_limit_equation(reduce_params(cfg.params), cfg.grid,
                                tol=cfg.tolerances.tol_gs,
                                allow_supercritical=allow_supercritical)


def _cmd_ground_state(cfg: RunConfig, out: str) -> int:
    header = ("n", "p", "n_points", "box_radius", "outcome", "iterations",
              "residual", "h1_norm", "center_value")
    try:
        gs = _limit_state(cfg, allow_supercritical=True)
    except SolverError as exc:
        outcome = "collapsed" if isinstance(exc, CollapseError) else "diverged"
        _write_csv(os.path.join(out, "ground_state.csv"), header,
                   [(cfg.params.n, cfg.params.p, cfg.grid.N, cfg.grid.L, outcome,
                     0, math.nan, math.nan, math.nan)])
        return 2
    center = float(gs.u.values[tuple([cfg.grid.N // 2] * cfg.params.n)])
    _write_csv(os.path.join(out, "ground_state.csv"), header,
               [(cfg.params.n, cfg.params.p, cfg.grid.N, cfg.grid.L, "converged",
                 gs.iterations, gs.residual, norm_h1(gs.u), center)])
    write_field(os.path.join(out, "u_inf.bin"), gs.u, "u_inf", cfg.params.p, math.inf)
    return 0


def _cmd_solve(cfg: RunConfig, out: str) -> int:
    rp = reduce_params(cfg.params)
    gs = _limit_state(cfg, allow_supercritical=False)
    write_field(os.path.join(out, "u_inf.bin"), gs.u, "u_inf", rp.p, math.inf)
    u_c, rep, act = _run_one(cfg, rp, gs, probe=False)
    _write_csv(os.path.join(out, "solve.csv"), _SOLVE_HEADER, [_solve_row(rep, act)])
    if u_c is None:
        return 2
    write_field(os.path.join(out, "u_c.bin"), u_c, "u_c", rp.p, rp.c_tilde)
    scale = math.sqrt(2.0 * cfg.params.m * cfg.params.mu)
    if abs(scale - 1.0) > 1e-15 or abs(cfg.params.mu - 1.0) > 1e-15:
        target = Grid(cfg.grid.n, cfg.grid.N, cfg.grid.L / scale)
        physical = lift_solution(u_c, cfg.params, target)
        write_field(os.path.join(out, "u_c_physical.bin"), physical,
                    "u_c_physical", cfg.params.p, cfg.params.c)
    return 0


def _sweep_rows(cfg: RunConfig, gs, probe: bool):
    ladder = cfg.sweep.ladder()
    jobs = [(cfg, c, gs, probe) for c in ladder]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_solve_rung, jobs))
    else:
        results = [_solve_rung(job) for job in jobs]
    return results


def _cmd_sweep(cfg: RunConfig, out: str) -> int:
    gs = _limit_state(cfg, allow_supercritical=cfg.probe)
    write_field(os.path.join(out, "u_inf.bin"), gs.u, "u_inf", cfg.params.p, math.inf)
    if cfg.find_threshold:
        return _cmd_find_threshold(cfg, gs, out)
    results = _sweep_rows(cfg, gs, cfg.probe)
    _write_csv(os.path.join(out, "sweep.csv"), _SOLVE_HEADER,
               [_solve_row(rep, act) for rep, act in results])
    return 0 if all(rep.converged for rep, _ in results) else 2


def _cmd_find_threshold(cfg: RunConfig, gs, out: str) -> int:
    try:
        th = find_convergence_threshold(gs, cfg.sweep.c_min, cfg.sweep.c_max,
                                        tol=cfg.tolerances)
    except ValueError as exc:
        _write_csv(os.path.join(out, "threshold.csv"),
                   ("c_diverged", "c_converged", "probes", "error"),
                   [(math.nan, math.nan, 0, str(exc))])
        return 2
    _write_csv(os.path.join(out, "threshold.csv"),
               ("c_diverged", "c_converged", "probes", "error"),
               [(th.c_diverged, th.c_converged, len(th.history), "")])
    _write_csv(os.path.join(out, "threshold_history.csv"), ("c", "outcome"),
               list(th.history))
    return 0


def _cmd_rate_sweep(cfg: RunConfig, out: str) -> int:
    gs = _limit_state(cfg, allow_supercritical=False)
    write_field(os.path.join(out, "u_inf.bin"), gs.u, "u_inf", cfg.params.p, math.inf)
    results = _sweep_rows(cfg, gs, probe=False)
    _write_csv(os.path.join(out, "rate.csv"), _SOLVE_HEADER,
               [_solve_row(rep, act) for rep, act in results])
    points = [(rep.c, rep.w_norm) for rep, _ in results if rep.converged]
    code = 0 if len(points) == len(results) else 2
    if len(points) >= 4:
        fit = fit_rate(points)
        _write_csv(os.path.join(out, "rate_fit.csv"),
                   ("slope", "intercept", "r_squared", "points"),
                   [(fit.slope, fit.intercept, fit.r_squared, len(fit.points))])
    else:
        code = 2
    return code


def _cmd_identity_check(cfg: RunConfig, out: str) -> int:
    rp = reduce_params(cfg.params)
    gs = _limit_state(cfg, allow_supercritical=False)
    u_c, rep, act = _run_one(cfg, rp, gs, probe=False)
    _write_csv(os.path.join(out, "solve.csv"), _SOLVE_HEADER, [_solve_row(rep, act)])
    if u_c is None:
        return 2
    report = check_identities(u_c, rp)
    _write_csv(os.path.join(out, "identities.csv"),
               ("c", "identity", "lhs", "rhs", "rel_mismatch"),
               [(rp.c_tilde, row.label, row.lhs, row.rhs, row.rel_mismatch)
                for row in report.rows()])
    _write_csv(os.path.join(out, "trace_ratio.csv"), ("c", "ratio"),
               [(rp.c_tilde, trace_inequality_check(u_c, rp.c_tilde))])
    write_field(os.path.join(out, "u_c.bin"), u_c, "u_c", rp.p, rp.c_tilde)
    return 0


def _cmd_certify(cfg: RunConfig, out: str) -> int:
    rp = reduce_params(cfg.params)
    if nonexistence_regime(rp) is None:
        raise ConfigError(f"(n={rp.n}, p={rp.p}, c={rp.c_tilde}) is outside both "
                          "non-existence regimes; certify does not apply")
    gs = _limit_state(cfg, allow_supercritical=True)
    cert = nonexistence_certificate(gs.u, rp)
    _write_csv(os.path.join(out, "certificate.csv"),
               ("regime", "combined_lhs", "combined_rhs", "conclusion"),
               [(cert.regime, cert.combined_lhs, cert.combined_rhs, cert.conclusion)])

    scale = _PROBE_START_SCALE * intersection_norm(gs.u, rp.q_default)
    rows = []
    genuine = 0
    for k in range(cfg.probes):
        rng = np.random.default_rng([cfg.seed, k])
        w0 = random_start(cfg.grid, rng, scale, rp.q_default)
        u_c, rep = solve(rp, cfg.grid, gs, w0=w0, probe=True, tol=cfg.tolerances)
        mismatch = math.nan
        if u_c is not None:
            mismatch = check_identities(u_c, rp).max_mismatch
            if mismatch < _GENUINE_MISMATCH:
                genuine += 1
        rows.append((k, rep.outcome, rep.iterations, rep.w_norm, mismatch))
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
            rows.append((rep.c, rep.label, rep.samples, rep.violations,
                         rep.worst_ratio, rep.argmax_xi))
    _write_csv(os.path.join(out, "symbols.csv"),
               ("c", "check", "samples", "violations", "worst_ratio", "argmax_xi"), rows)

    deriv_rows = []
    for c in _DERIVATIVE_C_LADDER:
        report = check_derivative_bounds(c, max_order=2, samples=min(cfg.samples, 2000),
                                         seed=cfg.seed)
        for row in report.rows:
            deriv_rows.append((c, row.family, row.order, row.sup_scaled, row.argmax_xi))
    _write_csv(os.path.join(out, "derivatives.csv"),
               ("c", "family", "order", "sup_scaled", "argmax_xi"), deriv_rows)
    return 0 if violations == 0 else 2


def _cmd_norm_probe(cfg: RunConfig, out: str) -> int:
    rows = []
    parseval_ok = True
    for c in cfg.sweep.ladder():
        for q in (2.0, 2.0 * cfg.params.n):
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
    "sweep": _cmd_sweep,
    "rate-sweep": _cmd_rate_sweep,
    "identity-check": _cmd_identity_check,
    "certify": _cmd_certify,
    "symbol-check": _cmd_symbol_check,
    "norm-probe": _cmd_norm_probe,
}


def run(cfg: RunConfig) -> int:
    """Execute a parsed configuration; returns the process exit code."""
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    manifest = os.path.join(out, "manifest.txt")
    _write_manifest(cfg, manifest)
    start = time.perf_counter()
    try:
        code = _RUNNERS[cfg.command](cfg, out)
    except SolverError as exc:
        _append_timing(manifest, time.perf_counter() - start, f"solver failure: {exc}")
        return 2
    _append_timing(manifest, time.perf_counter() - start,
                   "ok" if code == 0 else f"exit {code}")
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
            cmd.add_argument("--find-threshold", action="store_true")

    try:
        args = parser.parse_args(argv)
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        cfg = parse_config(text, args.command)
        updates = {}
        if args.output_dir:
            updates["output_dir"] = args.output_dir
        if getattr(args, "workers", None) is not None:
            updates["workers"] = _run_floor("workers", args.workers)
        if getattr(args, "probe", False):
            updates["probe"] = True
        if getattr(args, "find_threshold", False):
            updates["find_threshold"] = True
        if updates:
            cfg = replace(cfg, **updates)
        return run(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

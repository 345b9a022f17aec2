import concurrent.futures
import csv
import gc
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prnls import cli, fixed_point
from prnls.cli import _SCHEMA, COMMANDS, RunConfig, _write_manifest, main, parse_config
from prnls.errors import ConfigError, ConvergenceError
from prnls.spectral import read_field

MINIMAL_2D = """
[params]
n = 2
p = 3.0
"""

SOLVE_2D = """
[params]
n = 2
p = 3.0
c = 16.0

[grid]
n_points = 64
box_radius = 20.0
"""


def _cfg(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ------------------------------------------------------------- parse_config

def test_parse_config_defaults(monkeypatch):
    monkeypatch.delenv("PRNLS_OUTPUT_DIR", raising=False)
    cfg = parse_config(MINIMAL_2D, "ground-state")
    assert cfg.command == "ground-state"
    assert cfg.params.m == 0.5 and cfg.params.mu == 1.0
    assert math.isinf(cfg.params.c)
    assert (cfg.grid.N, cfg.grid.L) == (256, 20.0)
    assert cfg.tolerances.tol_gs == 1e-12
    assert cfg.tolerances.tol_residual == 1e-8
    assert (cfg.seed, cfg.probes, cfg.trials) == (0, 50, 20)
    assert cfg.samples == 100000 and cfg.workers == 1
    assert cfg.output_dir == "prnls-out"


EVERY_SECTION = """
[params]
n = 3
p = 1.8
c = 32.0
m = 1.0
mu = 2.0

[grid]
n_points = 64
box_radius = 15.0

[tolerances]
tol_gs = 1e-11
tol_lin = 1e-9
tol_step = 1e-9
tol_residual = 1e-7

[sweep]
c_min = 4.0
c_max = 64.0
rungs = 5

[run]
command = sweep
output_dir = out-here
seed = 7
probes = 3
trials = 4
samples = 500
workers = 2
"""


def test_parse_config_reads_every_section():
    cfg = parse_config(EVERY_SECTION)
    assert cfg.command == "sweep"
    assert cfg.params.c == 32.0 and cfg.params.m == 1.0
    assert cfg.grid.N == 64 and cfg.grid.L == 15.0
    assert cfg.tolerances.tol_lin == 1e-9
    assert cfg.sweep.ladder() == pytest.approx([4.0, 8.0, 16.0, 32.0, 64.0])
    assert cfg.output_dir == "out-here"
    assert cfg.seed == 7 and cfg.workers == 2


_VALUES = st.one_of(
    st.sampled_from(["1", "2", "3", "-1", "0", "3.0", "16", "64", "20.0", "1e-10", "1e308",
                     "1e999", "inf", "-inf", "nan", "true", "", "x", "9" * 5000,
                     "ground-state", "rate-sweep"]),
    st.text(max_size=12))


@st.composite
def _config_texts(draw):
    """INI-shaped text: schema sections and keys (and some that are not) with
    awkward values, or, one time in four, arbitrary text."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(max_size=200))
    lines = []
    if draw(st.booleans()):  # a valid [params] start, so later sections are reached
        lines += ["[params]", f"n = {draw(st.integers(1, 3))}", "p = 3.0",
                  f"c = {draw(st.sampled_from(['4.0', '0.5', 'inf']))}"]
    for section in draw(st.lists(st.sampled_from(sorted(_SCHEMA) + ["extra"]), max_size=4,
                                 unique=True)):
        lines.append(f"[{section}]")
        keys = sorted(_SCHEMA.get(section, {})) + ["bogus"]
        for key in draw(st.lists(st.sampled_from(keys), max_size=5, unique=True)):
            lines.append(f"{key} = {draw(_VALUES)}")
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_config_texts(), st.sampled_from((None,) + COMMANDS))
def test_parse_config_returns_a_config_or_raises_config_error(text, command):
    try:
        cfg = parse_config(text, command)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


# speeds and scales where float64 runs out: c^2 underflows (1e-170) or is
# subnormal (2.3e-162), c^4 overflows (1e77), c^2 nears or passes the top of
# the range (1e150, 1e154, 1e200), c * 1000 overflows (1e306)
_EDGE_FLOATS = (1e-170, 2.3e-162, 1e77, 1e150, 1e154, 1e200, 1e306, math.inf)
_RUN_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(0.5, 64.0),
                        st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
                                  st.floats(1.0, 10.0), st.integers(-300, 300)))


@st.composite
def _whole_runs(draw):
    """(command, config text, flags) for a run on a grid of at most 24 points per axis."""
    command = draw(st.sampled_from(COMMANDS))
    n = draw(st.integers(1, 3))
    p = draw(st.one_of(st.floats(1.0, 6.0), _RUN_FLOATS))
    params = {"n": n, "p": p}
    for key in ("c", "m", "mu"):
        if draw(st.booleans()):
            params[key] = draw(_RUN_FLOATS)
    sections = {"params": params,
                "grid": {"n_points": 16 if n == 3 else draw(st.sampled_from((16, 24))),
                         "box_radius": draw(_RUN_FLOATS)},
                "run": {"seed": draw(st.integers(0, 3)), "probes": draw(st.integers(1, 3)),
                        "trials": draw(st.integers(1, 3)),
                        "samples": draw(st.integers(100, 300))}}
    if command in ("sweep", "rate-sweep", "norm-probe") or draw(st.booleans()):
        c_min = draw(_RUN_FLOATS)
        c_max = c_min
        for _ in range(draw(st.integers(1, 4))):  # a few ulps above c_min
            c_max = math.nextafter(c_max, math.inf)
        sections["sweep"] = {"c_min": c_min, "c_max": draw(st.one_of(st.just(c_max),
                                                                     _RUN_FLOATS)),
                             "rungs": draw(st.integers(2, 5))}
    flags = {}
    if command == "sweep":
        flags = draw(st.sampled_from(({}, {"probe": True})))
    text = "".join(f"[{name}]\n" + "".join(f"{key} = {value!r}\n" for key, value in keys.items())
                   for name, keys in sections.items())
    return command, text, flags


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_whole_runs())
def test_a_whole_run_ends_in_a_config_error_or_a_reported_exit(case):
    # a run refuses its config before any output, or exits 0 or 2 with one
    # "result =" line in its manifest; no float64 escape leaves it as a
    # traceback or a warning
    command, text, flags = case
    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as out:
        warnings.simplefilter("error")
        try:
            code = cli.run(replace(parse_config(text, command), output_dir=out, **flags))
        except ConfigError:
            assert os.listdir(out) == []
            return
        with open(os.path.join(out, "manifest.txt")) as fh:
            results = [line for line in fh if line.startswith("result = ")]
    assert code in (0, 2) and len(results) == 1, (code, results)


def test_manifest_echoes_every_config_key(tmp_path):
    path = tmp_path / "manifest.txt"
    _write_manifest(parse_config(EVERY_SECTION), str(path))
    lines = dict(line.split(" = ", 1) for line in path.read_text().splitlines())
    expected = {f"{section}.{key}" for section, keys in _SCHEMA.items() for key in keys}
    expected = expected - {"run.command"} | {"run.probe"}
    assert expected <= lines.keys(), expected - lines.keys()
    assert lines["command"] == "sweep"
    assert {k: float(lines[f"tolerances.{k}"]) for k in _SCHEMA["tolerances"]} == {
        "tol_gs": 1e-11, "tol_lin": 1e-9, "tol_step": 1e-9, "tol_residual": 1e-7}


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match=r"unknown key 'foo' in section \[params\]"):
        parse_config(MINIMAL_2D + "foo = 1\n", "ground-state")


def test_parse_config_rejects_unknown_section():
    with pytest.raises(ConfigError, match=r"unknown section \[extra\]"):
        parse_config(MINIMAL_2D + "\n[extra]\nx = 1\n", "ground-state")


def test_parse_config_rejects_bad_exponent():
    with pytest.raises(ConfigError, match="p > 1"):
        parse_config("[params]\nn = 2\np = 0.5\n", "ground-state")


def test_parse_config_rejects_unparseable_value():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("[params]\nn = two\np = 3.0\n", "ground-state")


def test_parse_config_solve_needs_finite_c():
    with pytest.raises(ConfigError, match="finite c"):
        parse_config(MINIMAL_2D, "solve")


def test_parse_config_sweep_needs_sweep_section():
    with pytest.raises(ConfigError, match=r"requires a \[sweep\] section"):
        parse_config(MINIMAL_2D, "sweep")


def test_parse_config_sweep_bounds():
    bad = MINIMAL_2D + "\n[sweep]\nc_min = 8.0\nc_max = 4.0\nrungs = 3\n"
    with pytest.raises(ConfigError, match="c_min < c_max"):
        parse_config(bad, "sweep")
    # an infinite c_max would give the ladder [c_min, inf, inf]
    unbounded = MINIMAL_2D + "\n[sweep]\nc_min = 4.0\nc_max = inf\nrungs = 3\n"
    with pytest.raises(ConfigError, match="c_max < inf"):
        parse_config(unbounded, "sweep")


def test_parse_config_rate_sweep_needs_four_rungs():
    text = MINIMAL_2D + "\n[sweep]\nc_min = 4.0\nc_max = 64.0\nrungs = 3\n"
    with pytest.raises(ConfigError, match="rungs >= 4"):
        parse_config(text, "rate-sweep")


def test_parse_config_command_mismatch():
    text = MINIMAL_2D + "\n[run]\ncommand = sweep\n"
    with pytest.raises(ConfigError, match="sweep but ground-state was invoked"):
        parse_config(text, "ground-state")


def test_parse_config_unknown_run_command():
    with pytest.raises(ConfigError, match="unknown command"):
        parse_config(MINIMAL_2D + "\n[run]\ncommand = frobnicate\n")


def test_parse_config_run_value_floors():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        parse_config(MINIMAL_2D + "\n[run]\nseed = -1\n", "ground-state")
    with pytest.raises(ConfigError, match="samples must be >= 100"):
        parse_config(MINIMAL_2D + "\n[run]\nsamples = 10\n", "symbol-check")


def test_parse_config_rejects_nonpositive_tolerance():
    text = MINIMAL_2D + "\n[tolerances]\ntol_gs = 0\n"
    with pytest.raises(ConfigError, match="must be positive"):
        parse_config(text, "ground-state")
    # an infinite tol_lin would let invert() return 0 for any right-hand side
    for key, value in (("tol_lin", "inf"), ("tol_residual", "nan")):
        text = MINIMAL_2D + f"\n[tolerances]\n{key} = {value}\n"
        with pytest.raises(ConfigError, match=f"{key} must be positive and finite"):
            parse_config(text, "ground-state")


def test_parse_config_rejects_malformed_text():
    with pytest.raises(ConfigError, match="malformed config"):
        parse_config("this is not an ini file\n", "ground-state")


def test_symbol_check_gets_default_ladder():
    cfg = parse_config(MINIMAL_2D, "symbol-check")
    assert cfg.sweep is not None
    assert cfg.sweep.c_min == 2.0 and cfg.sweep.c_max == 1024.0


# ------------------------------------------------------------- main() errors

def test_main_missing_config_file(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "absent.ini")]) == 1
    assert "cannot read config file" in capsys.readouterr().err


def test_main_unknown_subcommand(tmp_path, capsys):
    assert main(["frobnicate", _cfg(tmp_path, MINIMAL_2D)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_flag_has_the_config_floor(tmp_path, capsys, workers):
    cfg = _cfg(tmp_path, SOLVE_2D + "\n[sweep]\nc_min = 8.0\nc_max = 16.0\nrungs = 2\n")
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--workers", workers, "--output-dir", str(out)]) == 1
    assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()


def test_main_config_error_is_exit_1(tmp_path, capsys):
    assert main(["solve", _cfg(tmp_path, MINIMAL_2D)]) == 1
    assert "finite c" in capsys.readouterr().err


_SUPERCRITICAL_3D = "[params]\nn = 3\np = 5.0\n\n[grid]\nn_points = 16\nbox_radius = 10.0\n"
_SMALL_SPEED_2D = "[params]\nn = 2\np = 3.0\n\n[grid]\nn_points = 64\nbox_radius = 20.0\n"
_TINY_2D = "[params]\nn = 2\np = 3.0\n{}\n[grid]\nn_points = 32\nbox_radius = 10.0\n"


@pytest.mark.parametrize("command,text,flags,reason", [
    ("solve", _SUPERCRITICAL_3D.replace("p = 5.0", "p = 5.0\nc = 4.0"), [], "subcritical"),
    ("solve", _SMALL_SPEED_2D.replace("p = 3.0", "p = 3.0\nc = 1.0"), [], "floor"),
    ("identity-check", _SMALL_SPEED_2D.replace("p = 3.0", "p = 3.0\nc = 1.0"), [], "floor"),
    ("sweep", _SMALL_SPEED_2D + "\n[sweep]\nc_min = 1.0\nc_max = 16.0\nrungs = 3\n",
     [], "floor"),
    ("rate-sweep", _SMALL_SPEED_2D + "\n[sweep]\nc_min = 1.0\nc_max = 16.0\nrungs = 4\n",
     [], "floor"),
    ("sweep", _SUPERCRITICAL_3D + "\n[sweep]\nc_min = 2.0\nc_max = 8.0\nrungs = 2\n",
     [], "subcritical"),
    ("solve", _TINY_2D.format("m = inf\nc = 16"), [], "finite"),
    ("solve", _TINY_2D.format("m = 1e-300\nc = 1e-300"), [], "c_tilde"),
    ("solve", _TINY_2D.format("mu = inf\nc = 16"), [], "finite"),
    ("identity-check", _TINY_2D.format("mu = 1e300\nm = 1e-300\nc = 16"), [], "c_tilde"),
    ("ground-state", _TINY_2D.format("").replace("box_radius = 10.0", "box_radius = 1e160"),
     [], "box half-width"),
    ("solve", _TINY_2D.format("m = 1e-300\nmu = 1e-20\nc = 4"), [], "physical lift grid"),
    ("solve", _TINY_2D.format("m = 1e-300\nmu = 1e-30\nc = 4"), [], "physical lift grid"),
    ("solve", _TINY_2D.replace("p = 3.0", "p = 1.5").format("m = 1e-50\nmu = 1e200\nc = 4"),
     [], "lift amplitude"),
    ("solve", _TINY_2D.replace("p = 3.0", "p = 1.5").format("m = 0.5\nmu = 1e-300\nc = 4e150"),
     [], "lift amplitude"),
], ids=["solve-supercritical", "solve-floor", "identity-check-floor", "sweep-floor",
        "rate-sweep-floor", "sweep-supercritical", "solve-infinite-m",
        "solve-underflowing-c-tilde", "solve-infinite-mu", "identity-check-overflowing-c-tilde",
        "ground-state-overflowing-box", "solve-overflowing-lift-grid",
        "solve-underflowing-lift-scale", "solve-overflowing-lift-amplitude",
        "solve-underflowing-lift-amplitude"])
def test_construction_precondition_is_a_config_error(tmp_path, capsys, command, text,
                                                     flags, reason):
    # a run whose solves would break solve()'s preconditions, or whose mass,
    # frequency, reduced speed, box, lift grid or lift amplitude leaves the
    # float range, exits 1 before it writes anything, instead of raising out
    # of main() or running on inf: after output, the box and lift-grid cases
    # would raise in Grid, and solve at mu = 1e200, p = 1.5 at mu^(1/(p-1));
    # solve at mu = 1e-300, p = 1.5 would write an all-zero lift
    out = tmp_path / "out"
    assert main([command, _cfg(tmp_path, text), "--output-dir", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and reason in err
    assert not out.exists()


_SPEEDS_2D = _TINY_2D.format("") + "\n[sweep]\nc_min = {}\nc_max = {}\nrungs = {}\n"
_SWEEP_1D = "[params]\nn = 1\np = 2.0\n\n[grid]\nn_points = 24\nbox_radius = 0.1\n\n" \
    "[sweep]\nc_min = 1e10\nc_max = 1e154\nrungs = 3\n"


@pytest.mark.parametrize("command,text,flags,module", [
    ("identity-check", _TINY_2D.format("c = 1e100"), [], "diagnostics"),
    ("certify", _TINY_2D.format("c = 1e-170"), [], "diagnostics"),
    ("certify", _TINY_2D.format("c = 2.3e-162"), [], "diagnostics"),
    ("sweep", _SPEEDS_2D.format(2.3e-162, 1.0, 2), ["--probe"], "symbols"),
    ("sweep", _SPEEDS_2D.format(1e-170, 1e-169, 2), ["--probe"], "symbols"),
    ("norm-probe", _SPEEDS_2D.format(1e-170, 1.0, 2), [], "symbols"),
    ("symbol-check", _SPEEDS_2D.format(1e-170, 1e-169, 2), [], "symbols"),
    ("symbol-check", _SPEEDS_2D.format(1.0, 1e150, 2), [], "symbols"),
    ("norm-probe", _SPEEDS_2D.format(1.0, 1e200, 2), [], "linsolve"),
    ("norm-probe", _SPEEDS_2D.format(1.0, 1e306, 2), [], "linsolve"),
    ("sweep", _SWEEP_1D, [], "symbols"),
], ids=["identity-check-overflowing-c-fourth-power", "certify-underflowing-c-square",
        "certify-overflowing-symbol-quotient", "sweep-probe-overflowing-symbol-quotient",
        "sweep-probe-underflowing-c-square", "norm-probe-underflowing-c-square",
        "symbol-check-underflowing-c-square", "symbol-check-underflowing-difference-bound",
        "norm-probe-overflowing-c-square", "norm-probe-overflowing-seed",
        "sweep-overflowing-symbol-difference"])
def test_a_value_leaving_float64_is_exit_2(tmp_path, command, text, flags, module):
    # a value that overflows, divides by zero or is invalid (0/0) in float64
    # ends the run where it is formed: exit 2, with the reason and the
    # module's line in the manifest. Before, the first six rows exited 1 on a
    # predicted power of c; symbol-check counted a nan bound as a violation
    # (at c^2 = 0, and at 1e150, where |xi|^4 / c^2 underflows), norm-probe
    # wrote a nan lattice_sup at 1e200 and raised OverflowError at
    # int(round(c * 1000)) at 1e306, and sweep overflowed P_inf - P_c at 1e154
    # and exited 0
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, _cfg(tmp_path, text), "--output-dir", str(out), *flags])
    assert code == 2
    [result] = [line for line in (out / "manifest.txt").read_text().splitlines()
                if line.startswith("result = ")]
    assert re.fullmatch(rf"result = float64 range: .+ at {module}\.py:\d+", result), result


def test_ground_state_writes_its_row_when_it_leaves_float64(tmp_path):
    # at p = 1e77 the Petviashvili loop's u^p overflows: ground-state writes
    # its diverged row, as for a solver failure, and the manifest the reason
    out = tmp_path / "out"
    text = "[params]\nn = 1\np = 1e77\n\n[grid]\nn_points = 16\nbox_radius = 1.0\n"
    assert main(["ground-state", _cfg(tmp_path, text), "--output-dir", str(out)]) == 2
    assert _read_rows(out / "ground_state.csv")[0]["outcome"] == "diverged"
    assert "result = float64 range: overflow" in (out / "manifest.txt").read_text()


def test_a_float_range_failure_is_the_same_with_and_without_a_pool(tmp_path):
    # a worker raises where its value leaves float64, as the serial run does,
    # and the parent writes the worker's reason and line; before, the overflow
    # in a worker stayed a warning there, and both runs exited 0
    path = _cfg(tmp_path, _SWEEP_1D)
    runs = {}
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}"
        code = main(["sweep", path, "--workers", workers, "--output-dir", str(out)])
        results = [line for line in (out / "manifest.txt").read_text().splitlines()
                   if line.startswith("result = ")]
        runs[workers] = (code, results, sorted(os.listdir(out)))
    assert runs["1"] == runs["2"]
    assert runs["1"][0] == 2 and runs["1"][1][0].startswith("result = float64 range: ")


def test_a_pool_worker_takes_the_run_float_policy(monkeypatch):
    # a spawn or forkserver worker starts from numpy's default error state, so
    # the pool's initializer sets the run's; checked here without a process
    monkeypatch.setattr(cli, "_worker_state", None)
    saved = np.geterr()
    try:
        np.seterr(all="warn")
        cli._start_worker(None, None)
        assert np.geterr() == {**cli._FLOAT_POLICY, "under": "warn"}
    finally:
        np.seterr(**saved)


def test_speed_checks_keep_the_runs_that_complete(tmp_path):
    # certify completes at c = 1e-100, where c^4 underflows, and
    # identity-check at c = 1e77, where c^2 and 4 |xi|^2 / c^2 stay finite
    for command, text in (("certify", _TINY_2D.format("c = 1e-100")),
                          ("identity-check", _TINY_2D.format("c = 1e77"))):
        out = tmp_path / command
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, _cfg(tmp_path, text), "--output-dir", str(out)]) == 0
        assert "result = ok" in (out / "manifest.txt").read_text()


def test_certify_says_when_its_bulk_terms_underflow(tmp_path):
    # at c = 1e-100 the bulk mass term 0.25 c^4 sum underflows to 0, so the
    # combined left side is exactly 0 and the gap is the boundary side alone
    out = tmp_path / "out"
    text = _TINY_2D.format("c = 1e-100")
    assert main(["certify", _cfg(tmp_path, text), "--output-dir", str(out)]) == 0
    [row] = _read_rows(out / "certificate.csv")
    assert row["regime"] == "A" and float(row["combined_lhs"]) == 0.0
    assert float(row["combined_rhs"]) < 0.0
    assert row["conclusion"].startswith("inconclusive: c^4/4 underflow to 0")


# ----------------------------------------------------------- subcommand runs

def test_ground_state_command(tmp_path):
    text = """
[params]
n = 1
p = 3.0

[grid]
n_points = 256
box_radius = 20.0
"""
    out = tmp_path / "out"
    assert main(["ground-state", _cfg(tmp_path, text), "--output-dir", str(out)]) == 0
    rows = _read_rows(out / "ground_state.csv")
    assert len(rows) == 1 and rows[0]["outcome"] == "converged"
    assert float(rows[0]["residual"]) < 1e-11
    assert float(rows[0]["center_value"]) == pytest.approx(math.sqrt(2.0), abs=1e-5)
    u, meta = read_field(str(out / "u_inf.bin"))
    assert meta["label"] == "u_inf" and math.isinf(meta["c"])
    manifest = (out / "manifest.txt").read_text()
    assert "versions.numpy" in manifest and "command = ground-state" in manifest
    assert "timings.total_seconds" in manifest
    assert "timings.ground_state_seconds" in manifest


@pytest.mark.parametrize("command", COMMANDS)
def test_every_ground_state_solve_writes_its_time_to_the_manifest(command, tmp_path,
                                                                  monkeypatch):
    # the ground-state phase's wall time goes to manifest.txt, the one output
    # that is not byte-stable, also when the solve raises; here it always
    # raises, so a command that solves stops right after it
    def failing(*args, **kwargs):
        raise ConvergenceError("stub")

    monkeypatch.setattr(cli, "solve_limit_equation", failing)
    text = SOLVE_2D.replace("c = 16.0", "c = 1.0" if command == "certify" else "c = 16.0")
    text += "\n[sweep]\nc_min = 4.0\nc_max = 16.0\nrungs = 4\n\n[run]\nsamples = 100\n"
    out = tmp_path / "out"
    code = main([command, _cfg(tmp_path, text), "--output-dir", str(out)])
    manifest = (out / "manifest.txt").read_text().splitlines()
    times = [line for line in manifest if line.startswith("timings.ground_state_seconds = ")]
    solves = command not in ("symbol-check", "norm-probe")
    assert len(times) == solves and code == (2 if solves else 0)
    # a failed ground state writes no report but ground-state's own row; the
    # manifest says why
    if command == "ground-state":
        assert sorted(os.listdir(out)) == ["ground_state.csv", "manifest.txt"]
        assert _read_rows(out / "ground_state.csv")[0]["outcome"] == "diverged"
    elif solves:
        assert os.listdir(out) == ["manifest.txt"]
    if solves:
        assert any(line.startswith("result = solver failure: stub") for line in manifest)


@pytest.mark.parametrize("p", ["1.0001", "1.001"])
def test_ground_state_seed_above_the_blowup_ceiling_is_a_solver_failure(tmp_path, p):
    # near p = 1 the unit-width seed's amplitude (quad / source)^(1/(p-1))
    # overflows float64 (p = 1.0001) or is about 1e178 (p = 1.001); the seed
    # takes the loop's blow-up test, so the run ends with exit 2 and the
    # reason, not with a traceback or numpy's overflow warnings
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["ground-state", _cfg(tmp_path, f"[params]\nn = 1\np = {p}\n"),
                     "--output-dir", str(out)])
    assert code == 2
    assert _read_rows(out / "ground_state.csv")[0]["outcome"] == "diverged"
    manifest = (out / "manifest.txt").read_text()
    assert "result = solver failure: petviashvili seed amplitude" in manifest


@pytest.mark.parametrize("command", ["solve", "identity-check"])
def test_a_failed_solve_says_why_in_the_manifest(tmp_path, command):
    # this solve leaves the contraction ball at its second step; the manifest
    # said only "result = exit 2", and the report's reason was lost
    text = ("[params]\nn = 2\np = 3.0\nc = 2.0\nm = 1.0\nmu = 2.0\n\n"
            "[grid]\nn_points = 64\nbox_radius = 20.0\n")
    out = tmp_path / "out"
    assert main([command, _cfg(tmp_path, text), "--output-dir", str(out)]) == 2
    row = _read_rows(out / "solve.csv")[0]
    assert (row["outcome"], row["iterations"]) == ("diverged", "2")
    written = ["manifest.txt", "solve.csv"] + (["u_inf.bin"] if command == "solve" else [])
    assert sorted(os.listdir(out)) == written
    results = [line for line in (out / "manifest.txt").read_text().splitlines()
               if line.startswith("result = ")]
    assert results == ["result = solver failure: diverged: ||w||=5.609e+00 left the "
                       "contraction ball (ceiling 4.824e+00)"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_sweep_says_why_each_failed_rung_failed(tmp_path, workers):
    # the golden rate-sweep config: its c = 4 rung diverges at its first step,
    # and the manifest said only "result = exit 2"
    text = ("[params]\nn = 2\np = 3.0\n\n[grid]\nn_points = 64\nbox_radius = 20.0\n\n"
            "[sweep]\nc_min = 4.0\nc_max = 64.0\nrungs = 5\n")
    out = tmp_path / "out"
    assert main(["rate-sweep", _cfg(tmp_path, text), "--workers", workers,
                 "--output-dir", str(out)]) == 2
    lines = (out / "manifest.txt").read_text().splitlines()
    assert [line for line in lines if line.startswith("rung = ")] == [
        "rung = c 4: diverged: ||w||=3.688e+01 left the contraction ball (ceiling 4.824e+00)"]
    assert lines[-1] == "result = exit 2"


_RATE_1D = "[params]\nn = 1\np = {}\n\n[grid]\nn_points = {}\nbox_radius = {}\n\n" \
    "[sweep]\nc_min = {}\nc_max = {}\nrungs = {}\n"


@pytest.mark.parametrize("text", [_RATE_1D.format(25.09, 24, 1.0, 1e82, 2e82, 4),
                                  _RATE_1D.format(3.0, 64, 20.0, 1e8, 1e12, 5)],
                         ids=["w-exactly-zero", "w-at-rounding"])
def test_rate_sweep_fits_no_rung_at_the_rounding_floor(tmp_path, text):
    # every rung converges to a w at or below solve()'s rounding floor
    # (exactly 0, or ~1e-16): fitting them raised on log(0), or reported a
    # slope of rounding with exit 0; with fewer than 4 rate points the sweep
    # writes no fit, says why in the manifest, and exits 2, with or without workers
    cfg = _cfg(tmp_path, text)
    skipped = []
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}"
        assert main(["rate-sweep", cfg, "--workers", workers, "--output-dir", str(out)]) == 2
        rows = _read_rows(out / "rate.csv")
        assert all(r["outcome"] == "converged" for r in rows)
        assert not (out / "rate_fit.csv").exists()
        lines = (out / "manifest.txt").read_text().splitlines()
        assert lines[-1] == "result = exit 2"
        skipped += [line for line in lines if line.startswith("rate_fit = ")]
    assert len(skipped) == 2 and skipped[0] == skipped[1]
    assert skipped[0].startswith(f"rate_fit = skipped: 0 of {len(rows)} rungs converged above "
                                 "the rounding floor ")
    assert skipped[0].endswith("; the fit needs 4")


def test_a_ladder_that_repeats_a_speed_is_a_config_error(tmp_path, capsys):
    # c_max two ulps above c_min: np.geomspace repeats 4.000000000000001 over
    # 4 rungs, and rate-sweep's fit raised ValueError("rate fit needs distinct
    # c values") out of main(), leaving no result line
    text = _RATE_1D.format(3.0, 64, 20.0, 4.0, 4.000000000000002, 4)
    out = tmp_path / "out"
    assert main(["rate-sweep", _cfg(tmp_path, text), "--output-dir", str(out)]) == 1
    assert "repeat a speed" in capsys.readouterr().err
    assert not out.exists()


_PHASES = {"solve": ("ground_state", "rc", "picard", "total"),
           "identity-check": ("ground_state", "rc", "picard", "identities", "total"),
           "certify": ("ground_state", "rc", "picard", "total")}


@pytest.mark.parametrize("command", sorted(_PHASES))
def test_each_phase_time_goes_to_the_manifest_once(command, tmp_path):
    # certify's Picard time is summed over its probes
    text = SOLVE_2D
    if command == "certify":
        text = text.replace("c = 16.0", "c = 1.0") + "\n[run]\nprobes = 2\n"
    out = tmp_path / "out"
    assert main([command, _cfg(tmp_path, text), "--output-dir", str(out)]) == 0
    timings = [line.split(" = ") for line in (out / "manifest.txt").read_text().splitlines()
               if line.startswith("timings.")]
    assert sorted(key for key, _ in timings) == sorted(f"timings.{phase}_seconds"
                                                       for phase in _PHASES[command])
    assert all(float(seconds) >= 0.0 for _, seconds in timings)


def test_solve_command(tmp_path):
    out = tmp_path / "out"
    assert main(["solve", _cfg(tmp_path, SOLVE_2D), "--output-dir", str(out)]) == 0
    rows = _read_rows(out / "solve.csv")
    assert rows[0]["outcome"] == "converged"
    assert float(rows[0]["final_residual"]) < 1e-8
    assert float(rows[0]["contraction_estimate"]) < 1.0
    assert float(rows[0]["action"]) > 0.0
    u_c, meta = read_field(str(out / "u_c.bin"))
    assert meta["c"] == 16.0 and meta["p"] == 3.0
    assert (out / "u_inf.bin").exists()
    # m = 1/2, mu = 1 is already the reduced frame: no separate physical dump
    assert not (out / "u_c_physical.bin").exists()


def test_solve_command_writes_physical_lift(tmp_path):
    text = """
[params]
n = 2
p = 3.0
c = 16.0
m = 1.0
mu = 2.0

[grid]
n_points = 64
box_radius = 20.0
"""
    out = tmp_path / "out"
    assert main(["solve", _cfg(tmp_path, text), "--output-dir", str(out)]) == 0
    physical, meta = read_field(str(out / "u_c_physical.bin"))
    assert meta["label"] == "u_c_physical" and meta["c"] == 16.0
    assert physical.grid.L == pytest.approx(10.0)  # box shrinks by sqrt(2 m mu)


def test_symbol_check_command(tmp_path):
    text = MINIMAL_2D + "\n[run]\nsamples = 2000\n"
    out = tmp_path / "out"
    assert main(["symbol-check", _cfg(tmp_path, text), "--output-dir", str(out)]) == 0
    rows = _read_rows(out / "symbols.csv")
    assert rows and all(int(r["violations"]) == 0 for r in rows)
    assert {r["check"] for r in rows} == {"low-regime", "high-regime",
                                          "domination", "difference"}
    deriv = _read_rows(out / "derivatives.csv")
    assert {r["family"] for r in deriv} == {"inverse-difference", "symbol-ratio"}
    assert {int(r["order"]) for r in deriv} == {0, 1, 2}


def test_norm_probe_command(tmp_path):
    text = """
[params]
n = 2
p = 3.0

[grid]
n_points = 64
box_radius = 20.0

[sweep]
c_min = 4.0
c_max = 16.0
rungs = 2

[run]
trials = 3
"""
    out = tmp_path / "out"
    assert main(["norm-probe", _cfg(tmp_path, text), "--output-dir", str(out)]) == 0
    rows = _read_rows(out / "norm_probe.csv")
    assert len(rows) == 4  # 2 rungs x (q = 2, q = 2n)
    assert all(r["parseval_ok"] == "true" for r in rows if float(r["q"]) == 2.0)


def test_norm_probe_in_1d_writes_one_row_per_speed_and_exponent(tmp_path):
    # at n = 1, q = 2n is q = 2: each probe ran and was written twice
    text = ("[params]\nn = 1\np = 3.0\n\n[grid]\nn_points = 64\nbox_radius = 20.0\n\n"
            "[sweep]\nc_min = 2.0\nc_max = 8.0\nrungs = 2\n\n[run]\ntrials = 2\n")
    out = tmp_path / "out"
    assert main(["norm-probe", _cfg(tmp_path, text), "--output-dir", str(out)]) == 0
    rows = _read_rows(out / "norm_probe.csv")
    assert [(float(r["c"]), float(r["q"])) for r in rows] == [(2.0, 2.0), (8.0, 2.0)]


def test_identity_check_command(tmp_path):
    # N = 64 leaves ~3e-4 of Pohozaev discretization error; N = 128 is the
    # coarsest grid where the identities resolve below 1e-6
    text = SOLVE_2D.replace("n_points = 64", "n_points = 128")
    out = tmp_path / "out"
    assert main(["identity-check", _cfg(tmp_path, text), "--output-dir", str(out)]) == 0
    rows = _read_rows(out / "identities.csv")
    assert {r["identity"] for r in rows} == {"Nehari", "Poho1", "Poho2"}
    assert all(float(r["rel_mismatch"]) < 1e-6 for r in rows)
    trace = _read_rows(out / "trace_ratio.csv")
    assert float(trace[0]["ratio"]) <= 1.0 + 1e-12


def test_certify_command_small_speed(tmp_path):
    text = """
[params]
n = 2
p = 3.0
c = 1.0

[grid]
n_points = 64
box_radius = 20.0

[run]
probes = 3
"""
    out = tmp_path / "out"
    assert main(["certify", _cfg(tmp_path, text), "--output-dir", str(out)]) == 0
    cert = _read_rows(out / "certificate.csv")
    assert cert[0]["regime"] == "A"
    probes = _read_rows(out / "probes.csv")
    assert len(probes) == 3
    assert all(r["outcome"] in ("collapsed", "diverged") for r in probes)


def test_certify_solves_rc_once(tmp_path, monkeypatch):
    # every probe of a certify run shares one speed, so one R_c serves them all
    text = """
[params]
n = 2
p = 3.0
c = 1.0

[grid]
n_points = 64
box_radius = 20.0

[run]
probes = 4
"""
    remainder_rc = fixed_point.remainder_rc
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return remainder_rc(*args, **kwargs)

    monkeypatch.setattr(fixed_point, "remainder_rc", counted)
    out = tmp_path / "out"
    assert main(["certify", _cfg(tmp_path, text), "--output-dir", str(out)]) == 0
    assert len(_read_rows(out / "probes.csv")) == 4
    assert len(calls) == 1


def test_certify_rejects_existence_range(tmp_path, capsys):
    text = SOLVE_2D + "\n[run]\nprobes = 2\n"
    out = tmp_path / "out"
    assert main(["certify", _cfg(tmp_path, text), "--output-dir", str(out)]) == 1
    assert "non-existence regimes" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_probe_reports_failures_with_exit_2(tmp_path):
    text = """
[params]
n = 2
p = 3.0

[grid]
n_points = 64
box_radius = 20.0

[sweep]
c_min = 0.5
c_max = 1.4
rungs = 2
"""
    out = tmp_path / "out"
    assert main(["sweep", _cfg(tmp_path, text), "--probe", "--output-dir", str(out)]) == 2
    rows = _read_rows(out / "sweep.csv")
    assert len(rows) == 2
    assert all(r["outcome"] in ("collapsed", "diverged", "stalled") for r in rows)
    assert all(r["outcome"] != "converged" for r in rows)


@pytest.mark.parametrize("error", [ConvergenceError])
def test_sweep_keeps_every_rung_when_rc_solve_fails(tmp_path, monkeypatch, error):
    # a linear solve that fails inside R_c on the c = 8 rung only: the sweep
    # still writes all three rungs, labels that one diverged and exits 2
    text = """
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
"""
    invert = fixed_point.invert

    def failing_at_c8(op, f, **kwargs):
        if op.c == pytest.approx(8.0):
            raise error("injected linear-solve failure")
        return invert(op, f, **kwargs)

    monkeypatch.setattr(fixed_point, "invert", failing_at_c8)
    out = tmp_path / "out"
    assert main(["sweep", _cfg(tmp_path, text), "--output-dir", str(out)]) == 2
    rows = _read_rows(out / "sweep.csv")
    assert len(rows) == 3
    assert [r["outcome"] for r in rows] == ["diverged", "converged", "converged"]


def test_sweep_initargs_pickle_to_the_same_size_after_the_dump(tmp_path, monkeypatch):
    # writing u_inf.bin must leave no full-grid copy on the ground state, which
    # a spawn or forkserver worker of a --workers sweep receives once as the
    # pool's initargs (cfg, gs), and the grid's cached matrices stay out of the
    # pickle: the initargs are the ground state's values and little more
    text = SOLVE_2D + "\n[sweep]\nc_min = 8.0\nc_max = 16.0\nrungs = 2\n"
    sizes = []
    limit_state, sweep_rows = cli._limit_state, cli._sweep_rows

    def initargs_size(cfg, gs):
        initargs = pickle.dumps((cfg, gs))
        _, copy = pickle.loads(initargs)
        assert copy.u_even.grid is copy.grid.even and copy.grid == gs.grid
        assert len(initargs) < gs.u_even.values.nbytes + 2048
        return len(initargs)

    def recording_limit_state(cfg):
        gs = limit_state(cfg)
        sizes.append(initargs_size(cfg, gs))
        return gs

    def recording_sweep_rows(cfg, gs):
        sizes.append(initargs_size(cfg, gs))
        return sweep_rows(cfg, gs)

    monkeypatch.setattr(cli, "_limit_state", recording_limit_state)
    monkeypatch.setattr(cli, "_sweep_rows", recording_sweep_rows)
    out = tmp_path / "out"
    assert main(["sweep", _cfg(tmp_path, text), "--output-dir", str(out)]) == 0
    assert (out / "u_inf.bin").exists()
    assert len(sizes) == 2 and sizes[0] == sizes[1]


def _serial_pool(monkeypatch):
    """Stand in for the process pool: run the initializer once, as its one
    worker would, and map in this process, starting none. Returns the record
    of max_workers requested and jobs mapped."""
    seen = {"requested": [], "jobs": []}
    monkeypatch.setattr(cli, "_worker_state", None)

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            seen["requested"].append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            jobs = list(jobs)
            seen["jobs"].extend(jobs)
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return seen


def test_worker_pool_is_capped_at_the_rung_count(tmp_path, monkeypatch):
    # a forking pool starts all max_workers processes at its first submit, so
    # --workers 500 on a 2-rung ladder must ask for 2
    seen = _serial_pool(monkeypatch)
    text = SOLVE_2D + "\n[sweep]\nc_min = 8.0\nc_max = 16.0\nrungs = 2\n"
    out = tmp_path / "out"
    assert main(["sweep", _cfg(tmp_path, text), "--workers", "500",
                 "--output-dir", str(out)]) == 0
    assert seen["requested"] == [2]
    assert len(_read_rows(out / "sweep.csv")) == 2


def test_sweep_pool_gets_the_state_once_and_each_job_is_a_speed(tmp_path, monkeypatch):
    # the pool's initializer hands a worker the sweep's very cfg and ground
    # state, once; map then sends only the ladder's speeds, as plain floats
    seen = _serial_pool(monkeypatch)
    sweeps, inits = [], []
    sweep_rows, start_worker = cli._sweep_rows, cli._start_worker

    def recording_sweep_rows(cfg, gs):
        sweeps.append((cfg, gs))
        return sweep_rows(cfg, gs)

    def recording_start_worker(cfg, gs):
        inits.append((cfg, gs))
        start_worker(cfg, gs)

    monkeypatch.setattr(cli, "_sweep_rows", recording_sweep_rows)
    monkeypatch.setattr(cli, "_start_worker", recording_start_worker)
    text = SOLVE_2D + "\n[sweep]\nc_min = 8.0\nc_max = 16.0\nrungs = 2\n"
    out = tmp_path / "out"
    assert main(["sweep", _cfg(tmp_path, text), "--workers", "2",
                 "--output-dir", str(out)]) == 0
    [(cfg, gs)] = sweeps
    assert len(inits) == 1 and inits[0][0] is cfg and inits[0][1] is gs
    assert seen["jobs"] == cfg.sweep.ladder()
    assert all(type(c) is float and len(pickle.dumps(c)) < 64 for c in seen["jobs"])
    assert len(_read_rows(out / "sweep.csv")) == 2


def test_a_sweep_leaves_no_worker_state_in_the_parent(tmp_path, monkeypatch):
    # a serial sweep passes (cfg, gs) to each rung, and a pooled one sets them
    # only in its workers: after either, the parent's ground state is freed
    refs = []
    limit_state = cli._limit_state

    def recording_limit_state(cfg):
        gs = limit_state(cfg)
        refs.append(weakref.ref(gs))
        return gs

    monkeypatch.setattr(cli, "_limit_state", recording_limit_state)
    text = SOLVE_2D + "\n[sweep]\nc_min = 8.0\nc_max = 16.0\nrungs = 2\n"
    path = _cfg(tmp_path, text)
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}"
        assert main(["sweep", path, "--workers", workers, "--output-dir", str(out)]) == 0
        gc.collect()
        assert cli._worker_state is None
        assert refs[-1]() is None
        assert len(_read_rows(out / "sweep.csv")) == 2


def test_sweep_with_workers_runs_on_the_process_pool(tmp_path, monkeypatch):
    # the real pool, subclassed only to record that _sweep_rows built it
    requested = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            requested.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    text = SOLVE_2D + "\n[sweep]\nc_min = 8.0\nc_max = 16.0\nrungs = 2\n"
    out = tmp_path / "out"
    assert main(["sweep", _cfg(tmp_path, text), "--workers", "2",
                 "--output-dir", str(out)]) == 0
    assert requested == [2]
    assert len(_read_rows(out / "sweep.csv")) == 2


def test_importing_the_cli_loads_no_process_pool():
    # only a sweep that forks pays for multiprocessing; a fresh interpreter
    # shows what the import alone loads
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = ("import sys, prnls.cli; print(sorted(m for m in sys.modules if m in "
             "('multiprocessing', 'concurrent.futures.process')))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


# ------------------------------------------------------------ output routing

def test_output_dir_env_and_flag(tmp_path, monkeypatch):
    text = MINIMAL_2D + "\n[run]\nsamples = 100\n"
    env_dir = tmp_path / "env-out"
    monkeypatch.setenv("PRNLS_OUTPUT_DIR", str(env_dir))
    assert main(["symbol-check", _cfg(tmp_path, text)]) == 0
    assert (env_dir / "symbols.csv").exists()

    flag_dir = tmp_path / "flag-out"
    assert main(["symbol-check", _cfg(tmp_path, text), "--output-dir", str(flag_dir)]) == 0
    assert (flag_dir / "symbols.csv").exists()


# -------------------------------------------------------------- determinism

def test_solve_outputs_are_deterministic(tmp_path):
    cfg = _cfg(tmp_path, SOLVE_2D)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", cfg, "--output-dir", str(out_a)]) == 0
    assert main(["solve", cfg, "--output-dir", str(out_b)]) == 0
    for name in ("solve.csv", "u_inf.bin", "u_c.bin"):
        a = (out_a / name).read_bytes()
        b = (out_b / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    csv_bytes = (out_a / "solve.csv").read_bytes()
    assert b"\r" not in csv_bytes  # unix newlines regardless of platform


def test_sweep_workers_do_not_change_output(tmp_path):
    text = """
[params]
n = 2
p = 3.0

[grid]
n_points = 64
box_radius = 20.0

[sweep]
c_min = 8.0
c_max = 16.0
rungs = 2
"""
    cfg = _cfg(tmp_path, text)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(["sweep", cfg, "--output-dir", str(serial)]) == 0
    assert main(["sweep", cfg, "--workers", "2", "--output-dir", str(parallel)]) == 0
    assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()


def test_rate_sweep_and_sweep_write_the_same_rows(tmp_path):
    # one ladder runner: on a 4-rung ladder whose c = 4 rung leaves the
    # contraction ball, rate.csv and sweep.csv hold the same bytes, and the
    # manifests the same rung lines, serial and on a pool
    text = ("[params]\nn = 2\np = 3.0\n\n[grid]\nn_points = 64\nbox_radius = 20.0\n\n"
            "[sweep]\nc_min = 4.0\nc_max = 32.0\nrungs = 4\n")
    cfg = _cfg(tmp_path, text)
    for workers in ("1", "2"):
        runs = {}
        for command, name in (("sweep", "sweep.csv"), ("rate-sweep", "rate.csv")):
            out = tmp_path / f"{command}{workers}"
            code = main([command, cfg, "--workers", workers, "--output-dir", str(out)])
            rungs = [line for line in (out / "manifest.txt").read_text().splitlines()
                     if line.startswith("rung = ")]
            runs[command] = (code, (out / name).read_bytes(), rungs)
        assert runs["sweep"] == runs["rate-sweep"]
        code, rows, rungs = runs["sweep"]
        assert code == 2 and rows.count(b"\n") == 5 and len(rungs) == 1

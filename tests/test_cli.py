import csv
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prnls import fixed_point
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


def test_manifest_echoes_every_config_key(tmp_path):
    path = tmp_path / "manifest.txt"
    _write_manifest(parse_config(EVERY_SECTION), str(path))
    lines = dict(line.split(" = ", 1) for line in path.read_text().splitlines())
    expected = {f"{section}.{key}" for section, keys in _SCHEMA.items() for key in keys}
    expected = expected - {"run.command"} | {"run.probe", "run.find_threshold"}
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


@pytest.mark.parametrize("command,text,flags,reason", [
    ("solve", _SUPERCRITICAL_3D.replace("p = 5.0", "p = 5.0\nc = 4.0"), [], "subcritical"),
    ("solve", _SMALL_SPEED_2D.replace("p = 3.0", "p = 3.0\nc = 1.0"), [], "floor"),
    ("identity-check", _SMALL_SPEED_2D.replace("p = 3.0", "p = 3.0\nc = 1.0"), [], "floor"),
    ("sweep", _SMALL_SPEED_2D + "\n[sweep]\nc_min = 1.0\nc_max = 16.0\nrungs = 3\n",
     [], "floor"),
    ("rate-sweep", _SMALL_SPEED_2D + "\n[sweep]\nc_min = 1.0\nc_max = 16.0\nrungs = 4\n",
     [], "floor"),
    ("sweep", _SUPERCRITICAL_3D + "\n[sweep]\nc_min = 2.0\nc_max = 8.0\nrungs = 2\n",
     ["--find-threshold"], "subcritical"),
], ids=["solve-supercritical", "solve-floor", "identity-check-floor", "sweep-floor",
        "rate-sweep-floor", "find-threshold-supercritical"])
def test_construction_precondition_is_a_config_error(tmp_path, capsys, command, text,
                                                     flags, reason):
    # a run whose solves would break solve()'s preconditions exits 1 before it
    # writes anything, instead of raising out of main()
    out = tmp_path / "out"
    assert main([command, _cfg(tmp_path, text), "--output-dir", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and reason in err
    assert not out.exists()


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


def test_sweep_find_threshold(tmp_path):
    text = """
[params]
n = 2
p = 3.0

[grid]
n_points = 64
box_radius = 20.0

[sweep]
c_min = 2.0
c_max = 8.0
rungs = 2
"""
    out = tmp_path / "out"
    code = main(["sweep", _cfg(tmp_path, text), "--find-threshold",
                 "--output-dir", str(out)])
    assert code == 0
    row = _read_rows(out / "threshold.csv")[0]
    lo, hi = float(row["c_diverged"]), float(row["c_converged"])
    assert 2.0 <= lo < hi <= 8.0
    history = _read_rows(out / "threshold_history.csv")
    assert len(history) == int(row["probes"]) >= 4


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

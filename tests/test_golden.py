"""Golden outputs: three seed-0 CLI runs against the CSVs committed in tests/data/golden.

Rewrite tests/data/golden from the current tree, from the repository root, with

    PYTHONPATH=src python tests/test_golden.py

A change that reruns it must say why in CHANGES.md: the files are the
reference every later change is compared with, not a snapshot to refresh.

Every cell is compared by its column's class. Labels, outcomes, counts, the
parameter echo and the exit code must match exactly (nan matches nan).
Solution cells, computed values of the solution or of the fit, must agree to
SOLUTION_RTOL relative. Residual-like cells sit at rounding level, where a
relative comparison means nothing, so they are held to their bounds instead:
final_residual <= tol_residual and contraction_estimate < 1 on converged
rows, gs_residual < 10 tol_gs, and a relative identity mismatch within
MISMATCH_ATOL of the golden one.
"""

import csv
import math
import pathlib

import pytest

from prnls.cli import main
from prnls.params import ToleranceSet

DATA = pathlib.Path(__file__).parent / "data" / "golden"
EXIT_CODES = "exit_codes.csv"
SOLUTION_RTOL = 1e-13
MISMATCH_ATOL = 1e-12

CONFIGS = {
    # 18 Picard steps; at L = 15 the 32^3 Petviashvili step settles on a non-solution
    "identity-check": """
[params]
n = 3
p = 1.8
c = 4.0

[grid]
n_points = 32
box_radius = 10.0

[run]
seed = 0
""",
    "certify": """
[params]
n = 2
p = 3.0
c = 1.0

[grid]
n_points = 64
box_radius = 20.0

[run]
seed = 0
probes = 10
""",
    # exit 2: the c = 4 rung diverges and the rate fit takes the other four
    "rate-sweep": """
[params]
n = 2
p = 3.0

[grid]
n_points = 64
box_radius = 20.0

[sweep]
c_min = 4.0
c_max = 64.0
rungs = 5

[run]
seed = 0
""",
}

EXACT = {"n", "p", "c", "outcome", "iterations", "regime", "conclusion", "identity",
         "seed", "points"}
SOLUTION = {"w_norm", "rc_norm", "action", "lhs", "rhs", "combined_lhs", "combined_rhs",
            "ratio", "slope", "intercept", "r_squared"}
MISMATCH = {"rel_mismatch", "identity_max_mismatch"}
# residual-like cells checked on converged rows only, by the bound they must meet
CONVERGED_BOUNDS = {"final_residual": lambda v: v <= ToleranceSet.tol_residual,
                    "contraction_estimate": lambda v: v < 1.0}


def run_config(command: str, out: pathlib.Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "config.ini"
    cfg.write_text(CONFIGS[command])
    code = main([command, str(cfg), "--output-dir", str(out)])
    cfg.unlink()
    return code


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _cell_problem(column: str, got: str, want: str, converged: bool) -> str:
    """Why the cell `got` does not pass against the golden `want`; empty when it passes."""
    if column in EXACT:
        return "" if got == want else "differs"
    g, w = float(got), float(want)
    if math.isnan(g) or math.isnan(w):
        return "" if math.isnan(g) and math.isnan(w) else "nan against a number"
    if column in SOLUTION:
        ok = g == w or abs(g - w) <= SOLUTION_RTOL * max(abs(g), abs(w))
        return "" if ok else f"relative gap {abs(g - w) / max(abs(g), abs(w)):.2e}"
    if column in MISMATCH:
        return "" if abs(g - w) <= MISMATCH_ATOL else f"absolute gap {abs(g - w):.2e}"
    if column == "gs_residual":
        return "" if g < 10.0 * ToleranceSet.tol_gs else "above 10 tol_gs"
    if column in CONVERGED_BOUNDS:
        return "" if not converged or CONVERGED_BOUNDS[column](g) else "breaks its bound"
    raise KeyError(f"column {column!r} has no comparison class")


def compare_csv(got_path, want_path) -> list:
    """Every failing cell of got_path against want_path, as readable strings."""
    got, want = _rows(got_path), _rows(want_path)
    if got[0] != want[0]:
        return [f"header {got[0]} != {want[0]}"]
    if len(got) != len(want):
        return [f"{len(got) - 1} rows, golden has {len(want) - 1}"]
    header = want[0]
    problems = []
    for k, (grow, wrow) in enumerate(zip(got[1:], want[1:]), start=1):
        converged = dict(zip(header, wrow)).get("outcome", "converged") == "converged"
        for column, g, w in zip(header, grow, wrow):
            why = _cell_problem(column, g, w, converged)
            if why:
                problems.append(f"row {k} {column}: {g} vs golden {w} ({why})")
    return problems


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_outputs_match_golden(command, tmp_path):
    code = run_config(command, tmp_path)
    codes = dict(_rows(DATA / EXIT_CODES)[1:])
    assert str(code) == codes[command]
    golden = DATA / command
    written = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert written == sorted(p.name for p in golden.glob("*.csv"))
    problems = [f"{name} {why}" for name in written
                for why in compare_csv(tmp_path / name, golden / name)]
    assert problems == []


def regenerate():
    """Rewrite DATA from the current tree: each config's CSVs and the exit codes."""
    codes = []
    for command in sorted(CONFIGS):
        out = DATA / command
        for old in out.glob("*"):
            old.unlink()
        codes.append((command, run_config(command, out)))
        for extra in out.iterdir():
            if extra.suffix != ".csv":
                extra.unlink()
    with open(DATA / EXIT_CODES, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("config", "exit_code"))
        writer.writerows(codes)


if __name__ == "__main__":
    regenerate()

"""Golden outputs: one seed-0 run of every CLI command against tests/data/golden.

Write the golden set of one or more cases from the current tree, from the
repository root, with

    PYTHONPATH=src python tests/test_golden.py CASE [CASE ...]

(no CASE rewrites every case). A change that reruns it must say why in
CHANGES.md: the files are the reference every later change is compared
with, not a snapshot to refresh.

Every cell is compared by its column's class. Labels, outcomes, counts, the
parameter echo and the exit code must match exactly (nan matches nan).
Solution cells, computed values of the solution or of the fit, must agree to
SOLUTION_RTOL relative. Residual-like cells sit at rounding level, where a
relative comparison means nothing, so they are held to their bounds instead:
final_residual <= tol_residual and contraction_estimate < 1 on converged
rows, gs_residual and the ground state's residual < 10 tol_gs, and a relative
identity mismatch within MISMATCH_ATOL of the golden one. A field dump's
header must match exactly and its payload to SOLUTION_RTOL of the golden
field's max.
"""

import csv
import math
import pathlib
import sys

import numpy as np
import pytest

from prnls.cli import main
from prnls.params import ToleranceSet

DATA = pathlib.Path(__file__).parent / "data" / "golden"
EXIT_CODES = "exit_codes.csv"
SOLUTION_RTOL = 1e-13
MISMATCH_ATOL = 1e-12

# one small 2-D config for the commands that have no case of their own
SMALL = """
[params]
n = 2
p = 3.0
c = 16.0
m = 1.0
mu = 2.0

[grid]
n_points = 64
box_radius = 20.0

[sweep]
c_min = 2.0
c_max = 32.0
rungs = 3

[run]
seed = 0
trials = 5
samples = 1000
"""

# case -> (command line before the config path, config text)
CONFIGS = {
    # 18 Picard steps; at L = 15 the 32^3 Petviashvili step settles on a non-solution
    "identity-check": (("identity-check",), """
[params]
n = 3
p = 1.8
c = 4.0

[grid]
n_points = 32
box_radius = 10.0

[run]
seed = 0
"""),
    "certify": (("certify",), """
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
"""),
    # exit 2: the c = 4 rung diverges and the rate fit takes the other four
    "rate-sweep": (("rate-sweep",), """
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
"""),
    "ground-state": (("ground-state",), SMALL),
    # m = 1, mu = 2 rescale the box, so solve also dumps u_c_physical.bin
    "solve": (("solve",), SMALL),
    # exit 2: the c = 2 rung diverges
    "sweep-probe": (("sweep", "--probe"), SMALL),
    "sweep-find-threshold": (("sweep", "--find-threshold"), SMALL),
    "symbol-check": (("symbol-check",), SMALL),
    "norm-probe": (("norm-probe",), SMALL),
}
# cases whose field dumps are committed and compared, besides their CSVs
DUMPED = {"ground-state", "solve"}

EXACT = {"n", "p", "c", "outcome", "iterations", "regime", "conclusion", "identity",
         "seed", "points", "n_points", "box_radius", "check", "samples", "violations",
         "family", "order", "q", "trials", "parseval_ok", "c_diverged", "c_converged",
         "probes", "error"}
SOLUTION = {"w_norm", "rc_norm", "action", "lhs", "rhs", "combined_lhs", "combined_rhs",
            "ratio", "slope", "intercept", "r_squared", "h1_norm", "center_value",
            "worst_ratio", "argmax_xi", "sup_scaled", "lower_ratio", "upper_ratio",
            "inv_diff_ratio", "lattice_sup"}
GS_RESIDUALS = {"gs_residual", "residual"}
MISMATCH = {"rel_mismatch", "identity_max_mismatch"}
# residual-like cells checked on converged rows only, by the bound they must meet
CONVERGED_BOUNDS = {"final_residual": lambda v: v <= ToleranceSet.tol_residual,
                    "contraction_estimate": lambda v: v < 1.0}


def run_config(case: str, out: pathlib.Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    command, text = CONFIGS[case]
    cfg = out / "config.ini"
    cfg.write_text(text)
    code = main([*command, str(cfg), "--output-dir", str(out)])
    cfg.unlink()
    return code


def kept(case: str, out: pathlib.Path) -> list:
    """The names of the files in out that the golden set of case holds."""
    suffixes = {".csv", ".bin"} if case in DUMPED else {".csv"}
    return sorted(p.name for p in out.iterdir() if p.suffix in suffixes)


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
    if column in GS_RESIDUALS:
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


def compare_dump(got_path, want_path) -> list:
    """Why the field dump got_path fails against want_path: header, size or payload."""
    got, want = got_path.read_bytes(), want_path.read_bytes()
    got_head, _, got_raw = got.partition(b"\n")
    want_head, _, want_raw = want.partition(b"\n")
    if got_head != want_head:
        return [f"header {got_head!r} != {want_head!r}"]
    if len(got_raw) != len(want_raw):
        return [f"payload of {len(got_raw)} bytes, golden has {len(want_raw)}"]
    g, w = np.frombuffer(got_raw, dtype="<f8"), np.frombuffer(want_raw, dtype="<f8")
    gap, top = float(np.max(np.abs(g - w))), float(np.max(np.abs(w)))
    return [] if gap <= SOLUTION_RTOL * top else [f"payload gap {gap / top:.2e} of its max"]


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_outputs_match_golden(case, tmp_path):
    code = run_config(case, tmp_path)
    codes = dict(_rows(DATA / EXIT_CODES)[1:])
    assert str(code) == codes[case]
    golden = DATA / case
    written = kept(case, tmp_path)
    assert written == kept(case, golden)
    problems = [f"{name} {why}" for name in written
                for why in (compare_csv if name.endswith(".csv") else compare_dump)(
                    tmp_path / name, golden / name)]
    assert problems == []


def regenerate(cases):
    """Rewrite the golden set of each case from the current tree, and its exit code."""
    codes = dict(_rows(DATA / EXIT_CODES)[1:])
    for case in cases:
        out = DATA / case
        if out.exists():
            for old in out.iterdir():
                old.unlink()
        codes[case] = run_config(case, out)
        keep = kept(case, out)
        for extra in out.iterdir():
            if extra.name not in keep:
                extra.unlink()
    with open(DATA / EXIT_CODES, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("config", "exit_code"))
        writer.writerows(sorted(codes.items()))


if __name__ == "__main__":
    regenerate(sys.argv[1:] or sorted(CONFIGS))

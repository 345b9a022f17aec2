"""Golden outputs: one seed-0 run of every CLI command against tests/data/golden.

Write the golden set of one or more cases from the current tree, from the
repository root, with

    PYTHONPATH=src python tests/test_golden.py CASE [CASE ...]

(no CASE rewrites every case). It prints what each rewrite changes: every
changed SOLUTION or EXACT cell, each SOLUTION cell with its relative change,
and each field dump's payload gap. A change that reruns it must say why,
with that printout, in CHANGES.md: the files are the reference every later
change is compared with, not a snapshot to refresh.

The committed files pass at SOLUTION_RTOL but need not match a given host's
output byte for byte, so a change that means to keep every output byte is
checked against its parent on one host instead. With

    PYTHONPATH=src python tests/test_golden.py --dump DIR [CASE ...]

each case writes every file of its run except manifest.txt (the one file
with wall times), and its exit code as exit_code.txt, to DIR/<case>/, which
must not exist yet; tests/data/golden is not touched. Dump the parent's tree
and the change's to two directories, then `diff -r PARENT_DIR CHANGE_DIR`
lists every file whose bytes differ and prints nothing when none does.
To measure what moved, run

    PYTHONPATH=src python tests/test_golden.py --compare PARENT_DIR CHANGE_DIR

It prints, for every file whose bytes differ, the largest relative change
of each CSV column that changed, and each field dump's payload gap
relative to the parent field's max ("no file differs" when none does).

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

import argparse
import csv
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

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
    "symbol-check": (("symbol-check",), SMALL),
    "norm-probe": (("norm-probe",), SMALL),
}
# cases whose field dumps are committed and compared, besides their CSVs
DUMPED = {"ground-state", "solve"}

EXACT = {"n", "p", "c", "outcome", "iterations", "regime", "conclusion", "identity",
         "seed", "points", "n_points", "box_radius", "check", "samples", "violations",
         "family", "order", "q", "trials", "parseval_ok"}
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


def _relative_gap(g: float, w: float) -> float:
    return abs(g - w) / max(abs(g), abs(w))


def _payload_gap(got_raw: bytes, want_raw: bytes) -> float:
    """The largest gap between two dump payloads, relative to the max of want_raw's field."""
    g, w = np.frombuffer(got_raw, dtype="<f8"), np.frombuffer(want_raw, dtype="<f8")
    return float(np.max(np.abs(g - w))) / float(np.max(np.abs(w)))


def _cell_problem(column: str, got: str, want: str, converged: bool) -> str:
    """Why the cell `got` does not pass against the golden `want`; empty when it passes."""
    if column in EXACT:
        return "" if got == want else "differs"
    g, w = float(got), float(want)
    if math.isnan(g) or math.isnan(w):
        return "" if math.isnan(g) and math.isnan(w) else "nan against a number"
    if column in SOLUTION:
        ok = g == w or _relative_gap(g, w) <= SOLUTION_RTOL
        return "" if ok else f"relative gap {_relative_gap(g, w):.2e}"
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
    gap = _payload_gap(got_raw, want_raw)
    return [] if gap <= SOLUTION_RTOL else [f"payload gap {gap:.2e} of its max"]


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


def test_dump_writes_a_case_and_leaves_the_golden_set_alone(tmp_path):
    before = {path: path.read_bytes() for path in DATA.rglob("*") if path.is_file()}
    src = pathlib.Path(__file__).parents[1] / "src"
    subprocess.run([sys.executable, __file__, "--dump", str(tmp_path / "dump"), "ground-state"],
                   env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, timeout=120,
                   check=True)
    out = tmp_path / "dump" / "ground-state"
    assert sorted(p.name for p in out.iterdir()) == ["exit_code.txt", "ground_state.csv",
                                                      "u_inf.bin"]
    codes = dict(_rows(DATA / EXIT_CODES)[1:])
    assert (out / "exit_code.txt").read_text() == f"{codes['ground-state']}\n"
    golden = DATA / "ground-state"
    assert compare_csv(out / "ground_state.csv", golden / "ground_state.csv") == []
    assert compare_dump(out / "u_inf.bin", golden / "u_inf.bin") == []
    assert {path: path.read_bytes() for path in DATA.rglob("*") if path.is_file()} == before


def test_compare_measures_what_moved_between_two_dumps(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"

    def write(root, w, outcome, rungs, payload, code):
        case = root / "case"
        case.mkdir(parents=True)
        (case / "run.csv").write_text(
            f"n,w_norm,outcome,residual\n2,1.5,converged,1e-12\n3,{w},{outcome},1e-12\n")
        (case / "same.csv").write_text("n\n2\n")
        (case / "shape.csv").write_text("n\n" + "".join(f"{k}\n" for k in range(rungs)))
        (case / "u.bin").write_bytes(b"header\n" + np.array(payload, "<f8").tobytes())
        (case / "exit_code.txt").write_text(f"{code}\n")

    write(parent, "2.0", "converged", 2, [1.0, -4.0], 0)
    write(change, "2.000002", "diverged", 3, [1.0, -4.000004], 2)
    (change / "case" / "extra.csv").write_text("n\n1\n")
    src = pathlib.Path(__file__).parents[1] / "src"
    out = subprocess.run([sys.executable, __file__, "--compare", str(parent), str(change)],
                         env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.splitlines() == [
        f"case/extra.csv: only in {change}",
        "case/exit_code.txt: differs",
        "case/run.csv w_norm: largest relative change 1.00e-06 (row 2)",
        "case/run.csv outcome: largest relative change inf (row 2)",
        "case/shape.csv: header or row count changed",
        "case/u.bin: payload gap 1.00e-06 of its max",
    ]
    assert compare_dumps(parent, parent) == []


def changes(new_dir, old_dir, names) -> list:
    """What rewriting old_dir's files `names` from new_dir changes, as readable strings.

    Each SOLUTION cell that changes, with its relative change; each EXACT
    cell that changes; and each field dump's payload gap, changed or not.
    """
    lines = []
    for name in names:
        new, old = new_dir / name, old_dir / name
        if not old.exists():
            lines.append(f"{name}: new file")
        elif name.endswith(".bin"):
            lines.append(f"{name}: {_dump_change(new, old)}")
        else:
            cells = _changed_cells(new, old)
            if cells is None:
                lines.append(f"{name}: header or row count changed")
                continue
            for k, column, g, w in cells:
                if column not in SOLUTION | EXACT:
                    continue
                why = (f"relative change {_relative_gap(float(g), float(w)):.2e}"
                       if column in SOLUTION else "EXACT cell")
                lines.append(f"{name} row {k} {column}: {w} -> {g} ({why})")
    return lines


def _changed_cells(new, old):
    """(row, column, new cell, old cell) of every cell that differs; None if the shape differs."""
    got, want = _rows(new), _rows(old)
    if got[0] != want[0] or len(got) != len(want):
        return None
    return [(k, column, g, w) for k, (grow, wrow) in enumerate(zip(got[1:], want[1:]), start=1)
            for column, g, w in zip(want[0], grow, wrow) if g != w]


def _dump_change(new, old) -> str:
    """The payload gap of the field dump new against old, relative to old's max."""
    got_raw, want_raw = (path.read_bytes().partition(b"\n")[2] for path in (new, old))
    if len(got_raw) != len(want_raw):
        return "payload size changed"
    return f"payload gap {_payload_gap(got_raw, want_raw):.2e} of its max"


def _cell_change(g: str, w: str) -> float:
    """The relative change from w to g: inf unless both are finite numbers."""
    try:
        g, w = float(g), float(w)
    except ValueError:
        return math.inf
    return _relative_gap(g, w) if math.isfinite(g) and math.isfinite(w) else math.inf


def compare_dumps(parent: pathlib.Path, change: pathlib.Path) -> list:
    """What differs between two --dump directories, one readable string per finding.

    A file in one directory only is named. For every file whose bytes differ,
    a CSV gets one line per column that changed, with its largest relative
    change and the row where it is (inf when a cell is not a finite number
    in both), or that its header or row count changed; a field dump gets
    its payload gap relative to the parent field's max; any other file that
    it differs.
    """
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    lines = [f"{rel}: only in {root}" for root, others in ((parent, change), (change, parent))
             for rel in sorted(files(root) - files(others))]
    for rel in sorted(files(parent) & files(change)):
        old, new = parent / rel, change / rel
        if old.read_bytes() == new.read_bytes():
            continue
        if rel.suffix == ".bin":
            lines.append(f"{rel}: {_dump_change(new, old)}")
        elif rel.suffix != ".csv":
            lines.append(f"{rel}: differs")
        elif (cells := _changed_cells(new, old)) is None:
            lines.append(f"{rel}: header or row count changed")
        else:
            largest = {}
            for k, column, g, w in cells:
                largest[column] = max(largest.get(column, (-1.0, 0)), (_cell_change(g, w), k))
            lines += [f"{rel} {column}: largest relative change {gap:.2e} (row {k})"
                      for column, (gap, k) in largest.items()]
    return lines


def regenerate(cases):
    """Rewrite the golden set of each case from the current tree, and its exit code.

    Prints, per case, its exit code and what the rewrite changes (see changes).
    """
    codes = dict(_rows(DATA / EXIT_CODES)[1:])
    for case in cases:
        out = DATA / case
        with tempfile.TemporaryDirectory() as tmp:
            new = pathlib.Path(tmp)
            code = str(run_config(case, new))
            keep = kept(case, new)
            old_code = codes.get(case, "none")
            print(f"{case}: exit code {old_code} -> {code}" if code != old_code
                  else f"{case}: exit code {code}")
            for line in changes(new, out, keep):
                print(f"  {line}")
            out.mkdir(parents=True, exist_ok=True)
            for old in out.iterdir():
                old.unlink()
            for name in keep:
                shutil.copyfile(new / name, out / name)
        codes[case] = code
    with open(DATA / EXIT_CODES, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("config", "exit_code"))
        writer.writerows(sorted(codes.items()))


def dump(root: pathlib.Path, cases):
    """Write each case's output files but manifest.txt, and its exit code, to root/<case>/."""
    for case in cases:
        out = root / case
        out.mkdir(parents=True)  # an existing directory could hold another run's files
        code = run_config(case, out)
        (out / "manifest.txt").unlink()
        (out / "exit_code.txt").write_text(f"{code}\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite the golden set, or dump the outputs.")
    parser.add_argument("cases", nargs="*", metavar="CASE", help="default: every case")
    parser.add_argument("--dump", metavar="DIR", type=pathlib.Path,
                        help="write the outputs to DIR/<case>/ instead of the golden set")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"),
                        type=pathlib.Path, help="print what differs between two dumps")
    args = parser.parse_args()
    cases = args.cases or sorted(CONFIGS)
    if args.compare:
        print("\n".join(compare_dumps(*args.compare)) or "no file differs")
    elif args.dump:
        dump(args.dump, cases)
    else:
        regenerate(cases)

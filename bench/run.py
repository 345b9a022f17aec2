"""prnls benchmark: end-to-end CLI workloads and a traced per-layer run.

    python3 bench/run.py --workload {solve3d,certify2d,sweep2d} --seed 0 \
        --seconds 40 --trace {0,1}

Run from the repository root. Every repeat is a fresh process
(``workload.py``) that imports prnls from ``./src``, so nothing needs to be
installed or built. BLAS/OpenMP thread pools are pinned to one thread in each
workload process.

``--trace 0`` repeats the workload until ``--seconds`` is used up (at least
once) and reports the median ``wall_s``, ``setup_s`` and ``peak_rss_mb``.
``setup_s`` is the median over SETUP_SAMPLES set-up-only launches and the
repeats.

``--trace 1`` alternates an untraced and a traced repeat, both with one
worker process so that every span stays in the traced process, and reports
the per-layer metrics of BENCHMARK.json: exact counts from the first traced
repeat (they must repeat exactly), times as medians over traced repeats, and
``trace.overhead_s`` = median traced ``wall_s`` minus median untraced
``wall_s``.

Every repeat checks the CLI outputs (workload.CHECKS) and hashes the CSVs;
all repeats of one seed must give the same digest. The last stdout line is
the JSON result; the line before it is a detail record (environment, sample
counts, tail percentiles, digests), also written to ``.bench_run/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".bench_run"
WORKLOADS = ("solve3d", "certify2d", "sweep2d")
DEFAULT_SEED = 0
SETUP_SAMPLES = 8
RUN_LIMIT_S = 170.0
WORKERS = 2
TRACE_WORKERS = 1
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
ROADMAP_64CUBE_MS = {"spectral.fft_pair.ms_per_call": 8.3,
                     "spectral.symmetrize.ms_per_call": 5.4}
SPEC = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")


def tail_percentile(samples, levels=(99.9, 99.0, 90.0, 50.0)):
    """Highest level with at least ten samples beyond it, as (level, value).

    Uses the nearest-rank percentile; None when fewer than 20 samples exist,
    since then not even the median has ten samples above it.
    """
    n = len(samples)
    ordered = sorted(samples)
    for level in levels:
        if n * (100.0 - level) >= 1000.0 - 1e-9:
            rank = max(1, math.ceil(level * n / 100.0 - 1e-9))
            return level, ordered[rank - 1]
    return None


def _summary(samples, keep_values=True) -> dict:
    out = {"n": len(samples), "median": statistics.median(samples)}
    if keep_values:
        out["values"] = samples
    tail = tail_percentile(samples)
    if tail is not None:
        out[f"p{tail[0]:g}"] = tail[1]
    return out


class Runner:
    """Launches workload processes and keeps the run inside its time budget."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.launches = 0
        self.env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **PINNED_THREADS)
        src = os.path.abspath("src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH", "")) if p)

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def launch(self, workers: int = WORKERS, trace: bool = False,
               setup_only: bool = False) -> dict:
        out = os.path.join(WORK_DIR, f"{self.workload}-{os.getpid()}-{self.launches}")
        self.launches += 1
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        cmd = [sys.executable, os.path.join(BENCH_DIR, "workload.py"),
               "--workload", self.workload, "--seed", str(self.seed), "--out", out,
               "--workers", str(workers), "--launched-at", repr(time.monotonic())]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env,
                                start_new_session=True, text=True)
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{self.workload} repeat exceeded the {RUN_LIMIT_S:g} s limit")
        finally:
            # the workload's session also holds any pool workers it started
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            shutil.rmtree(out, ignore_errors=True)
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload process exited {proc.returncode}")
        return json.loads(lines[-1])

    def fits(self, repeat_s: float) -> bool:
        return self.elapsed() + repeat_s <= self.seconds


def run_untraced(runner: Runner):
    setups = [runner.launch(setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES)]
    repeats = []
    while True:
        t = time.monotonic()
        repeats.append(runner.launch())
        if not runner.fits(time.monotonic() - t):
            break
    setups += [r["setup_s"] for r in repeats]
    samples = {name: [r[name] for r in repeats] for name in ("wall_s", "peak_rss_mb")}
    samples["setup_s"] = setups
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    return repeats, metrics, {name: _summary(v) for name, v in samples.items()}


def run_traced(runner: Runner, units: dict):
    plain, traced = [], []
    problems = []
    while True:
        t = time.monotonic()
        plain.append(runner.launch(TRACE_WORKERS))
        traced.append(runner.launch(TRACE_WORKERS, trace=True))
        if not runner.fits(time.monotonic() - t):
            break
    layers = [r["layers"] for r in traced]
    metrics = {}
    for name, first in layers[0].items():
        if units[name] in ("s", "ms"):
            metrics[name] = statistics.median(m[name] for m in layers)
        else:
            metrics[name] = first
            if any(m[name] != first for m in layers[1:]):
                problems.append(f"{name} differs between traced repeats")
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    per_call = {}
    for r in traced:
        for name, durations in r["call_durations"].items():
            per_call.setdefault(name, []).extend(durations)
    detail = {
        "traced_serially": True,
        "untraced_wall_s": _summary([r["wall_s"] for r in plain]),
        "traced_wall_s": _summary([r["wall_s"] for r in traced]),
        "per_call_ms": {name: _summary([1000.0 * x for x in d], keep_values=False)
                        for name, d in sorted(per_call.items())},
    }
    if runner.workload == "solve3d":
        detail["roadmap_64cube_ms_per_call"] = {
            name: {"roadmap": ref, "measured": metrics[name]}
            for name, ref in ROADMAP_64CUBE_MS.items()}
    return plain + traced, metrics, detail, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "prnls", "__init__.py")):
        print("error: run from the repository root; ./src/prnls is missing", file=sys.stderr)
        return 2

    with open(SPEC) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    # [run] seed must be a non-negative integer; any benchmark seed maps onto one.
    seed = args.seed % 2 ** 32
    os.makedirs(WORK_DIR, exist_ok=True)
    runner = Runner(args.workload, seed, args.seconds)
    try:
        if args.trace:
            repeats, metrics, detail, problems = run_traced(runner, units)
        else:
            repeats, metrics, detail = run_untraced(runner)
            problems = []
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    for r in repeats:
        problems += r["problems"]
    digests = sorted({r["digest"] for r in repeats})
    if len(digests) > 1:
        problems.append(f"CSV digests differ between repeats: {digests}")
        failed = attempted
    correct = failed == 0 and not problems

    record = {
        "workload": args.workload, "seed": args.seed, "seed_default": DEFAULT_SEED,
        "config_seed": seed, "trace": args.trace, "seconds": args.seconds,
        "workers": TRACE_WORKERS if args.trace else WORKERS,
        "repeats": len(repeats), "csv_digest": digests[0] if len(digests) == 1 else digests,
        "failed_frac": failed / attempted, "problems": problems,
        "env": repeats[0]["env"], **detail,
    }
    with open(os.path.join(WORK_DIR, f"{args.workload}-trace{args.trace}-seed{args.seed}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    for msg in problems:
        print(f"{args.workload} problem: {msg}")
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark repeat in a fresh process: write INIs, run the prnls CLI, check.

Started by ``run.py``; prints one JSON object as its last stdout line. The
parent passes its monotonic launch time, so ``setup_s`` covers interpreter
start, ``import prnls``, writing the INI files and building the argument
lists, up to the first call into prnls. ``wall_s`` runs from that call until
the last CLI invocation has written its last file.

    python3 bench/workload.py --workload solve3d --seed 0 --out .bench_run/x \
        --launched-at <time.monotonic() of the parent> --workers 2 [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import tracing  # noqa: E402  (a sibling file, not a package)

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SOLVE3D_MISMATCH = 1e-6
SOLVE3D_RESIDUAL = 1e-8
TRACE_RATIO_SLACK = 1e-12
CERTIFY_PROBES = 50
CERTIFY_SPEEDS = (0.5, 1.0, 1.4)
SWEEP_RUNGS = 5
SWEEP_SLOPE = (-2.3, -1.7)
SWEEP_R2 = 0.99


def _ini(sections: dict) -> str:
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in items.items()]
        lines.append("")
    return "\n".join(lines)


def invocations(workload: str, seed: int, workers: int):
    """(command, INI text, extra CLI flags) for each CLI call of a workload.

    ``workers`` sets the pool size of every call; traced runs pass 1 so that
    every span stays in the traced process.
    """
    if workload == "solve3d":
        return [("identity-check",
                 _ini({"params": {"n": 3, "p": 1.8, "c": 4.0},
                       "grid": {"n_points": 64, "box_radius": 15.0},
                       "run": {"seed": seed}}), [])]
    if workload == "certify2d":
        return [("certify",
                 _ini({"params": {"n": 2, "p": 3.0, "c": c},
                       "grid": {"n_points": 128, "box_radius": 20.0},
                       "run": {"seed": seed, "probes": CERTIFY_PROBES, "workers": workers}}),
                 []) for c in CERTIFY_SPEEDS]
    if workload == "sweep2d":
        return [("rate-sweep",
                 _ini({"params": {"n": 2, "p": 3.0},
                       "grid": {"n_points": 256, "box_radius": 20.0},
                       "sweep": {"c_min": 4.0, "c_max": 64.0, "rungs": SWEEP_RUNGS},
                       "run": {"seed": seed}}),
                 ["--workers", str(workers)])]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks: each returns (failed operations, problems) for one CLI call
# ---------------------------------------------------------------------------

def _rows(out: str, name: str):
    with open(os.path.join(out, name), newline="") as fh:
        return list(csv.DictReader(fh))


def check_solve3d(out: str):
    problems = []
    solve = _rows(out, "solve.csv")
    if len(solve) != 1 or solve[0]["outcome"] != "converged":
        problems.append(f"solve outcome {[r['outcome'] for r in solve]}")
    elif not float(solve[0]["final_residual"]) <= SOLVE3D_RESIDUAL:
        problems.append(f"final_residual {solve[0]['final_residual']}")
    identities = _rows(out, "identities.csv")
    if len(identities) != 3:
        problems.append(f"{len(identities)} identity rows")
    for row in identities:
        if not float(row["rel_mismatch"]) < SOLVE3D_MISMATCH:
            problems.append(f"{row['identity']} rel_mismatch {row['rel_mismatch']}")
    for row in _rows(out, "trace_ratio.csv"):
        if not float(row["ratio"]) <= 1.0 + TRACE_RATIO_SLACK:
            problems.append(f"trace ratio {row['ratio']}")
    return (1 if problems else 0), problems


def check_certify2d(out: str):
    """A wrong certificate or probe count fails every probe of the call."""
    problems = []
    cert = _rows(out, "certificate.csv")
    if len(cert) != 1 or cert[0]["regime"] != "A":
        problems.append(f"certificate regimes {[r['regime'] for r in cert]}")
    elif not float(cert[0]["combined_lhs"]) > 0.0 >= float(cert[0]["combined_rhs"]):
        problems.append(f"certificate signs {cert[0]['combined_lhs']}, "
                        f"{cert[0]['combined_rhs']}")
    probes = _rows(out, "probes.csv")
    if len(probes) != CERTIFY_PROBES:
        problems.append(f"{len(probes)} probes written")
    failed = CERTIFY_PROBES if problems else 0
    bad = [r["outcome"] for r in probes if r["outcome"] not in ("collapsed", "diverged")]
    if bad:
        problems.append(f"{len(bad)} probes {sorted(set(bad))}")
    return max(failed, len(bad)), problems


def check_sweep2d(out: str):
    """A missing rung or a bad rate fit fails every rung of the call."""
    problems = []
    rungs = _rows(out, "rate.csv")
    if len(rungs) != SWEEP_RUNGS:
        problems.append(f"{len(rungs)} rungs written")
    fit = _rows(out, "rate_fit.csv")
    if len(fit) != 1:
        problems.append("no rate fit")
    else:
        slope, r2 = float(fit[0]["slope"]), float(fit[0]["r_squared"])
        if not SWEEP_SLOPE[0] <= slope <= SWEEP_SLOPE[1]:
            problems.append(f"fit slope {slope}")
        if not r2 > SWEEP_R2:
            problems.append(f"fit r_squared {r2}")
    failed = SWEEP_RUNGS if problems else 0
    bad = sum(1 for r in rungs if r["outcome"] != "converged")
    if bad:
        problems.append(f"{bad} rungs not converged")
    return max(failed, bad), problems


# workload -> (operations per CLI call, output check)
CHECKS = {"solve3d": (1, check_solve3d),
          "certify2d": (CERTIFY_PROBES, check_certify2d),
          "sweep2d": (SWEEP_RUNGS, check_sweep2d)}


def outputs_digest(out_dirs) -> str:
    """sha256 over every CSV (name and bytes) of each invocation, in order."""
    h = hashlib.sha256()
    for out in out_dirs:
        for name in sorted(os.listdir(out)):
            if name.endswith(".csv"):
                h.update(name.encode() + b"\0")
                with open(os.path.join(out, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def bytes_written(out_dirs) -> int:
    """Bytes of every output file except the manifest."""
    return sum(os.path.getsize(os.path.join(out, name))
               for out in out_dirs for name in os.listdir(out) if name != "manifest.txt")


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest waited-for child's (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_calls(argvs, tracer=None):
    """Run prnls.cli.main on each argv in turn; returns the exit codes.

    With a tracer, the layer wrappers are installed for the duration of the
    calls and each call is one "cli" span; without one, nothing is patched.
    An unexpected exception ends the run and takes the place of its code.
    """
    import prnls.cli

    restore = tracing.install(tracer) if tracer is not None else None
    codes = []
    try:
        for argv_cli in argvs:
            if tracer is not None:
                codes.append(tracer.call(tracing.CLI_SPAN, prnls.cli.main, argv_cli))
            else:
                codes.append(prnls.cli.main(argv_cli))
    except Exception as exc:  # reported as failed operations, not a crash
        codes.append(f"{type(exc).__name__}: {exc}")
    finally:
        if restore is not None:
            restore()
    return codes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(CHECKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--launched-at", type=float, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import prnls.cli

    src = os.path.join(os.getcwd(), "src")
    if os.path.commonpath([os.path.abspath(prnls.cli.__file__), src]) != src:
        print(f"error: imported prnls from {prnls.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    calls = []
    for k, (command, text, flags) in enumerate(
            invocations(args.workload, args.seed, args.workers)):
        out = os.path.join(args.out, f"call{k}")
        os.makedirs(out, exist_ok=True)
        ini = os.path.join(args.out, f"call{k}.ini")
        with open(ini, "w") as fh:
            fh.write(text)
        calls.append((out, [command, ini, "--output-dir", out] + flags))

    tracer = tracing.Tracer() if args.trace else None
    t0 = time.monotonic()
    result = {"setup_s": t0 - args.launched_at}
    if args.setup_only:
        print(json.dumps(result))
        return 0
    codes = run_calls([argv_cli for _, argv_cli in calls], tracer)
    wall = time.monotonic() - t0

    ops, check = CHECKS[args.workload]
    attempted = failed = 0
    problems = []
    for k, (out, _) in enumerate(calls):
        code = codes[k] if k < len(codes) else "not run"
        try:
            f, p = check(out)
        except (OSError, KeyError, ValueError) as exc:
            f, p = ops, [f"unreadable output: {type(exc).__name__}: {exc}"]
        if code != 0:
            f, p = ops, p + [f"exit {code}"]
        attempted += ops
        failed += f
        problems += [f"call{k}: {msg}" for msg in p]

    out_dirs = [out for out, _ in calls]
    result.update({
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": outputs_digest(out_dirs),
        "bytes_written": bytes_written(out_dirs),
        "env": environment(),
    })
    if tracer is not None:
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["cli.bytes_written"] = result["bytes_written"]
        result["layers"] = metrics
        result["call_durations"] = tracing.call_durations(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

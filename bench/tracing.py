"""Out-of-program tracing of prnls layer boundaries for the benchmark.

The traced workload process installs wrappers on the names each prnls module
imports from the layer below (for example ``prnls.linsolve.half_spectrum_apply``
or ``prnls.fixed_point.invert``). Every wrapped call records one span: name,
start, end and the span that was open when it started. Spans stay in memory
until the run ends; ``layer_metrics`` then turns them into the per-layer
metrics named in ``BENCHMARK.json``.

Only a traced run calls ``install``; an untraced run never touches a prnls
attribute.
"""

from __future__ import annotations

import functools
import importlib
import math
import time


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "error", "info")

    def __init__(self, sid, name, parent, start):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = math.nan
        self.error = None
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder; spans nest by call order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []

    def call(self, name: str, fn, *args, annotate=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span; annotate(span, args, result, exc)."""
        span = Span(len(self.spans), name, self._open[-1].sid if self._open else None,
                    self.clock())
        self.spans.append(span)
        self._open.append(span)
        result = error = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            span.error = type(exc).__name__
            raise
        finally:
            span.end = self.clock()
            self._open.pop()
            if annotate is not None:
                annotate(span, args, result, error)


# ---------------------------------------------------------------------------
# annotations: exact counts read from arguments and results
# ---------------------------------------------------------------------------

def _fft_bytes(span, args, result, exc):
    """Computed bytes of one half_spectrum_apply(grid, values, mult_half).

    Real input read and real output written (8 B per point each), the complex
    half spectrum written by rfftn and read by irfftn (16 B per entry each),
    and the real multiplier read once. Derived from array shapes, not measured.
    """
    values, mult = args[1], args[2]
    span.info = 2 * values.size * 8 + 2 * mult.size * 16 + mult.size * 8


def _gs_steps(span, args, result, exc):
    span.info = result.iterations if result is not None else 0


def _solve_outcome(span, args, result, exc):
    report = result[1] if result is not None else getattr(exc, "report", None)
    span.info = (report.outcome, report.iterations) if report is not None else None


def _rc_key(span, args, result, exc):
    op = args[0]
    span.info = (op.grid.n, op.grid.N, op.grid.L, op.rp.p, op.rp.c_tilde)


# (module, attribute, span name, annotation). Each attribute is a name the
# module imported from the layer below, so only calls that cross the layer
# boundary are wrapped; calls inside a layer keep their own self time.
PATCHES = (
    ("prnls.linsolve", "half_spectrum_apply", "spectral.fft_pair", _fft_bytes),
    ("prnls.fixed_point", "half_spectrum_apply", "spectral.fft_pair", _fft_bytes),
    ("prnls.ground_state", "half_spectrum_apply", "spectral.fft_pair", _fft_bytes),
    ("prnls.linsolve", "symmetrize_radial", "spectral.symmetrize", None),
    ("prnls.fixed_point", "symmetrize_radial", "spectral.symmetrize", None),
    ("prnls.ground_state", "symmetrize_radial", "spectral.symmetrize", None),
    ("prnls.fixed_point", "intersection_norm", "spectral.norms", None),
    ("prnls.fixed_point", "norm_h1", "spectral.norms", None),
    ("prnls.cli", "solve_limit_equation", "ground_state", _gs_steps),
    ("prnls.fixed_point", "solve_limit_equation", "ground_state", _gs_steps),
    ("prnls.fixed_point", "invert", "linsolve.invert", None),
    ("prnls.fixed_point", "remainder_rc", "fixed_point.rc", _rc_key),
    ("prnls.cli", "solve", "fixed_point.solve", _solve_outcome),
    ("prnls.cli", "random_start", "fixed_point.random_start", None),
    ("prnls.cli", "check_identities", "diagnostics.identities", None),
    ("prnls.cli", "trace_inequality_check", "diagnostics.trace", None),
    ("prnls.cli", "nonexistence_certificate", "diagnostics.certificate", None),
    ("prnls.cli", "action", "diagnostics.action", None),
    ("prnls.cli", "fit_rate", "diagnostics.fit_rate", None),
)

CLI_SPAN = "cli"


def _wrapper(tracer: Tracer, name: str, fn, annotate):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, annotate=annotate, **kwargs)
    return traced


def install(tracer: Tracer):
    """Patch every PATCHES attribute; returns a callable that restores them."""
    originals = []
    for module_name, attr, name, annotate in PATCHES:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        originals.append((module, attr, original))
        setattr(module, attr, _wrapper(tracer, name, original, annotate))

    def restore():
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)
    return restore


# ---------------------------------------------------------------------------
# derived metrics
# ---------------------------------------------------------------------------

def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its child spans."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = s.duration - covered
    return out


def matvec_count(spans) -> int:
    """Krylov matvecs, derived from the FFT-pair calls made inside invert().

    Each matvec applies linsolve.half_spectrum_apply once; a completed
    invert() adds two more calls (the final P_c^{-1} and the residual check).
    A failed invert raised out of the Krylov loop, so all its calls count.
    """
    fft_children = {}
    for s in spans:
        if s.name == "spectral.fft_pair" and s.parent is not None:
            fft_children[s.parent] = fft_children.get(s.parent, 0) + 1
    total = 0
    for s in spans:
        if s.name == "linsolve.invert":
            total += fft_children.get(s.sid, 0) - (2 if s.error is None else 0)
    return total


def layer_metrics(spans) -> dict:
    """Per-layer metrics (name -> value) from one traced workload execution."""
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum((own[s.sid] for s in by_name.get(name, ())), 0.0)

    def per_call_ms(name):
        n = calls(name)
        return 1000.0 * self_s(name) / n if n else 0.0

    solves = [s.info for s in by_name.get("fixed_point.solve", ()) if s.info is not None]
    rc_keys = [s.info for s in by_name.get("fixed_point.rc", ())]
    inverts = calls("linsolve.invert")
    matvecs = matvec_count(spans)

    m = {
        "spectral.fft_pair.calls": calls("spectral.fft_pair"),
        "spectral.fft_pair.self_s": self_s("spectral.fft_pair"),
        "spectral.fft_pair.ms_per_call": per_call_ms("spectral.fft_pair"),
        "spectral.fft_pair.bytes_computed":
            sum(s.info or 0 for s in by_name.get("spectral.fft_pair", ())),
        "spectral.symmetrize.calls": calls("spectral.symmetrize"),
        "spectral.symmetrize.self_s": self_s("spectral.symmetrize"),
        "spectral.symmetrize.ms_per_call": per_call_ms("spectral.symmetrize"),
        "spectral.norms.calls": calls("spectral.norms"),
        "spectral.norms.self_s": self_s("spectral.norms"),
        "ground_state.calls": calls("ground_state"),
        "ground_state.self_s": self_s("ground_state"),
        "ground_state.petviashvili_steps":
            sum(s.info or 0 for s in by_name.get("ground_state", ())),
        "linsolve.invert.calls": inverts,
        "linsolve.invert.self_s": self_s("linsolve.invert"),
        "linsolve.invert.failed":
            sum(1 for s in by_name.get("linsolve.invert", ()) if s.error is not None),
        "linsolve.matvecs": matvecs,
        "linsolve.matvecs_per_invert": matvecs / inverts if inverts else 0.0,
        "fixed_point.solve.calls": calls("fixed_point.solve"),
        "fixed_point.solve.self_s": self_s("fixed_point.solve"),
        "fixed_point.picard_steps": sum(iterations for _, iterations in solves),
        "fixed_point.rc.calls": len(rc_keys),
        "fixed_point.rc.calls_per_distinct":
            len(rc_keys) / len(set(rc_keys)) if rc_keys else 0.0,
        "fixed_point.random_start.self_s": self_s("fixed_point.random_start"),
        "diagnostics.identities.self_s": self_s("diagnostics.identities"),
        "diagnostics.trace.self_s": self_s("diagnostics.trace"),
        "diagnostics.certificate.self_s": self_s("diagnostics.certificate"),
        "diagnostics.action.self_s": self_s("diagnostics.action"),
        "diagnostics.fit_rate.self_s": self_s("diagnostics.fit_rate"),
        "cli.self_s": self_s(CLI_SPAN),
    }
    for outcome in ("converged", "collapsed", "diverged", "stalled"):
        m[f"fixed_point.outcome.{outcome}"] = sum(1 for o, _ in solves if o == outcome)
    return m


def call_durations(spans) -> dict:
    """Per-call durations in seconds (children included), keyed "name <- caller"."""
    names = {s.sid: s.name for s in spans}
    out = {}
    for s in spans:
        key = s.name if s.parent is None else f"{s.name} <- {names[s.parent]}"
        out.setdefault(key, []).append(s.duration)
    return out

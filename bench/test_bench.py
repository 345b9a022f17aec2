"""Tests of the benchmark's own machinery (tracing, statistics, patching).

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402


class FakeClock:
    """Returns the queued times in order, so span bounds are exact."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def _nested(tracer, name, children=()):
    def body():
        for child in children:
            child()
    return lambda: tracer.call(name, body)


def test_self_time_subtracts_children():
    # outer [0, 10] > mid [1, 6] > leaf [2, 3]; sibling [7, 9]
    tracer = tracing.Tracer(FakeClock([0, 1, 2, 3, 6, 7, 9, 10]))
    leaf = _nested(tracer, "leaf")
    mid = _nested(tracer, "mid", [leaf])
    sibling = _nested(tracer, "sibling")
    _nested(tracer, "outer", [mid, sibling])()
    own = tracing.self_times(tracer.spans)
    assert {s.name: own[s.sid] for s in tracer.spans} == {
        "outer": 10 - 5 - 2, "mid": 5 - 1, "leaf": 1, "sibling": 2}
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [tracing.Span(0, "p", None, 0.0), tracing.Span(1, "a", 0, 1.0),
             tracing.Span(2, "b", 0, 2.0), tracing.Span(3, "c", 0, 9.0)]
    for span, end in zip(spans, (10.0, 4.0, 5.0, 12.0)):
        span.end = end
    # children cover [1, 5] and [9, 10] inside the parent
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    samples = list(range(n, 0, -1))
    tail = run.tail_percentile(samples)
    if expected is None:
        assert tail is None
        return
    level, value = tail
    assert level == expected
    assert sum(1 for s in samples if s > value) >= 10
    assert sum(1 for s in samples if s <= value) >= level * n / 100.0 - 1e-9


def test_matvec_count_from_fft_calls():
    def invert_span(sid, ffts, error=None):
        span = tracing.Span(sid, "linsolve.invert", None, 0.0)
        span.end, span.error = 1.0, error
        kids = [tracing.Span(sid + 1 + k, "spectral.fft_pair", sid, 0.1) for k in range(ffts)]
        return [span] + kids

    spans = invert_span(0, 14) + invert_span(20, 5, error="StagnationError")
    assert tracing.matvec_count(spans) == (14 - 2) + 5


def test_matvec_count_matches_krylov_operator_applications(monkeypatch):
    """Each apply_b call handed to _gmres is one matvec; nothing else is."""
    from prnls import Grid, ReducedParams, fixed_point, linsolve, solve_limit_equation

    applied = []
    gmres = linsolve._gmres

    def counting_gmres(apply_b, *args, **kwargs):
        def counted(v):
            applied.append(1)
            return apply_b(v)
        return gmres(counted, *args, **kwargs)

    monkeypatch.setattr(linsolve, "_gmres", counting_gmres)
    grid = Grid(2, 64, 20.0)
    rp = ReducedParams(2, 3.0, 16.0)
    gs = solve_limit_equation(rp, grid)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        tracer.call("fixed_point.solve", fixed_point.solve, rp, grid, gs=gs)
    finally:
        restore()
    inverts = [s for s in tracer.spans if s.name == "linsolve.invert"]
    assert len(inverts) >= 2
    assert tracing.matvec_count(tracer.spans) == len(applied)


def _prnls_attributes():
    return {(name, attr): id(value)
            for name, module in sorted(sys.modules.items())
            if name == "prnls" or name.startswith("prnls.")
            for attr, value in vars(module).items()
            if not isinstance(value, types.ModuleType)}


def _ground_state_call(tmp_path):
    ini = tmp_path / "gs.ini"
    ini.write_text("[params]\nn = 2\np = 3.0\n[grid]\nn_points = 64\nbox_radius = 20.0\n")
    return ["ground-state", str(ini), "--output-dir", str(tmp_path / "out")]


def _attributes_during_run(monkeypatch, tracer):
    """prnls attributes before, during and after run_calls (cli.main stubbed)."""
    import prnls.cli

    before = _prnls_attributes()
    seen = []
    monkeypatch.setattr(prnls.cli, "main", lambda argv: seen.append(_prnls_attributes()) or 0)
    assert workload.run_calls([["solve", "unused.ini"]], tracer) == [0]
    monkeypatch.undo()
    changed = {key for key, value in seen[0].items() if before.get(key) != value}
    return changed - {("prnls.cli", "main")}, before, _prnls_attributes()


def test_untraced_run_patches_nothing(monkeypatch):
    changed, before, after = _attributes_during_run(monkeypatch, None)
    assert changed == set()
    assert after == before


def test_traced_run_patches_only_layer_boundaries_and_restores(monkeypatch):
    changed, before, after = _attributes_during_run(monkeypatch, tracing.Tracer())
    assert changed == {(module, attr) for module, attr, _, _ in tracing.PATCHES}
    assert after == before


def test_traced_cli_run_records_layer_spans(tmp_path):
    tracer = tracing.Tracer()
    assert workload.run_calls([_ground_state_call(tmp_path)], tracer) == [0]
    names = {s.name for s in tracer.spans}
    assert {"cli", "ground_state", "spectral.fft_pair", "spectral.symmetrize"} <= names
    assert tracing.layer_metrics(tracer.spans)["ground_state.petviashvili_steps"] > 0


def test_emitted_metric_names_match_benchmark_json():
    import json

    with open(run.SPEC) as fh:
        spec = json.load(fh)
    emitted = set(tracing.layer_metrics([])) | {"cli.bytes_written", "trace.overhead_s"}
    assert emitted == {m["name"] for m in spec["per_layer"]}
    assert {"wall_s", "setup_s", "peak_rss_mb"} == {m["name"] for m in spec["end_to_end"]}
    assert set(run.WORKLOADS) == {w["name"] for w in spec["workloads"]}

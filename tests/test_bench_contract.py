"""The library names the benchmark harness reads still exist, and its
workloads still reproduce their recorded outputs.

``perfbench/setup_probe.py`` builds the fields and lazy tables of each
workload, and ``perfbench/run.py`` wraps public library functions by name
for its traced run and checks each workload's first ops against a recorded
digest.  Both are loaded here by path, so a library change that drops or
renames a name they use, or changes an output they digest, fails here
instead of in the benchmark.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from jacobicode import bounds, curves, explore, mumford, poly

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(monkeypatch, name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def perfbench(monkeypatch):
    """setup_probe and run as run.py imports them, undone after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends src
    probe = load(monkeypatch, "setup_probe", PERFBENCH / "setup_probe.py")
    load(monkeypatch, "spans", PERFBENCH / "spans.py")
    run = load(monkeypatch, "perfbench_run", PERFBENCH / "run.py")
    return probe, run


def test_setup_probe_builds_the_workload_fields(perfbench):
    probe, run = perfbench
    probe.build_fields(sorted({q for work in run.WORKLOADS.values() for q in work.qs}))


def test_setup_builds_no_counting_rows(perfbench):
    # the x-classes and their rows are built by the first count, and the
    # enumeration's quadratic tables by the first enumeration, not in setup_s;
    # their caches are process-wide, so the probe runs in a fresh interpreter
    _, run = perfbench
    qs = sorted({q for work in run.WORKLOADS.values() for q in work.qs})
    code = f"""
import importlib.util, json, sys
sys.path.insert(0, {str(PERFBENCH.parent / "src")!r})
spec = importlib.util.spec_from_file_location("setup_probe", {str(PERFBENCH / "setup_probe.py")!r})
probe = importlib.util.module_from_spec(spec)
spec.loader.exec_module(probe)
probe.build_fields({qs!r})
from jacobicode import curves, fields, mumford
print(json.dumps([len(fields._FIELDS), curves._x_classes.cache_info().currsize,
                  mumford._quadratic_tables.cache_info().currsize]))
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    n_fields, built, tables = json.loads(done.stdout)
    assert n_fields >= len(qs) and built == 0 and tables == 0


def test_tracing_wraps_and_restores_the_library(perfbench):
    _, run = perfbench
    modules = (bounds, curves, explore, mumford, poly)
    before = [dict(vars(m)) for m in modules]
    tracer = run.Tracer()
    try:
        run.install_tracing(tracer)
        assert curves.validate_curve is not before[1]["validate_curve"]
        curves.validate_curve(run.fields.make_field(2), (1,), (0, 0, 0, 0, 0, 1))
        assert tracer.calls["curves.validate"] == 1
        # the memo caches' wrappers still open one span per call
        curve = curves.validate_curve(run.fields.make_field(2, 4), (1,), (0, 0, 0, 0, 0, 1))
        explore.analyze_curve(curve, (3,))
        for name in ("curves.count_k1", "curves.count_k2", "weil.classify",
                     "bounds.code_params"):
            assert tracer.calls[name] >= 1, name
    finally:
        tracer.restore()
    assert [dict(vars(m)) for m in modules] == before


def test_workloads_reproduce_the_recorded_digests(perfbench):
    # the first digest_ops ops of every workload at the default seed: an
    # output change (enumeration order, trimming) fails here, not in the benchmark
    _, run = perfbench
    for name, workload in run.WORKLOADS.items():
        work = workload()
        work.prepare(run.DEFAULT_SEED)
        m = run.measure(work, n_ops=work.digest_ops)
        assert m.failed == 0, (name, m.failures)
        assert work.digest_of(m.outputs) == work.digest, name

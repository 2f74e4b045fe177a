"""Self-tests of the disq benchmark (run: python3 -m pytest perfbench/tests -q)."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

disq = run.load_disq()


def _run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture
def out_path(tmp_path):
    return str(tmp_path / "order.jsonl")


@pytest.mark.parametrize("name", list(wl.SHOT_WORKLOADS))
def test_shot_workload_smoke(name, out_path):
    res = wl.run_order_call(disq, wl.SHOT_WORKLOADS[name], 2, wl.call_seed(3, 0, 0), out_path)
    assert res.errors == [] and res.failed == 0
    assert res.units == 2 and res.wall_s > 0 and len(res.digest) == 64


def test_exact_sweep_smoke():
    dyadic, other = wl.sweep_cases(disq)
    assert len(dyadic) + len(other) == sum(
        1 for N in wl.SWEEP_N for a in range(1, N) if math.gcd(a, N) == 1
    )
    passes = wl.sweep_passes(disq, 5, 0)
    assert next(passes) == next(wl.sweep_passes(disq, 5, 0))  # seeded
    for N, a in next(passes):
        res = wl.run_case(disq, N, a)
        assert res.errors == [] and res.failed == 0
        assert res.margins[0] >= 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric(trace):
    proc = _run_bench("--workload", "n15-distributed", "--seed", "2", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    shots = wl.SHOT_WORKLOADS["n15-distributed"].shots_per_call
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2 * shots
    e2e, layers = run.metric_units()
    expected = layers if trace == "1" else e2e
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    detail = json.loads(proc.stdout.splitlines()[-2])
    assert detail["host"]["nproc"] >= 1 and detail["host"]["numpy"]
    if trace == "0":
        assert len(detail["processes"]) == wl.PROCESSES["n15-distributed"]
        ops = [op for p in detail["processes"] for op in p["ops"]]
    else:
        ops = detail["ops"]
    assert all(op["digest"] for op in ops)
    if trace == "1":
        assert result["metrics"]["trace.accounted_frac"]["value"] == pytest.approx(1.0, abs=1e-9)
        assert os.path.isfile(os.path.join(ROOT, detail["spans_file"]))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "n15-distributed", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracing_leaves_output_unchanged(out_path):
    cfg = wl.SHOT_WORKLOADS["n15-distributed"]
    plain = wl.run_order_call(disq, cfg, 20, 11, out_path)
    originals = (disq.protocol.run_shots, disq.statevec.apply_hadamard_register, disq.cli.main)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, disq)
    try:
        root = tracer.open("bench.op")
        traced = wl.run_order_call(disq, cfg, 20, 11, out_path)
        tracer.close(root)
    finally:
        restore()
    assert traced.digest == plain.digest
    assert (disq.protocol.run_shots, disq.statevec.apply_hadamard_register, disq.cli.main) == originals
    m = tracing.layer_metrics(tracer, 20)
    assert m["trace.accounted_frac"] == pytest.approx(1.0, abs=1e-9)
    assert m["statevec.hadamard.calls"] == 2 and m["teleport.classical_bits"] == 2 * 4
    assert m["protocol.node_b_runs"] == 20 and m["statevec.peak_qubits"] == 15
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.parent is not None:
            p = by_id[s.parent]
            assert p.start <= s.start <= s.end <= p.end


def test_worker_count_leaves_output_unchanged(out_path):
    cfg = wl.SHOT_WORKLOADS["n33-monolithic-w2"]
    two = wl.run_order_call(disq, cfg, 2, 21, out_path)
    one = wl.run_order_call(disq, dataclasses.replace(cfg, workers=1), 2, 21, out_path)
    assert one.digest == two.digest


def test_pool_threads_nest_under_run_shots(out_path):
    cfg = dataclasses.replace(wl.SHOT_WORKLOADS["n15-distributed"], workers=2)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, disq)
    try:
        root = tracer.open("bench.op")
        wl.run_order_call(disq, cfg, 30, 4, out_path)
        tracer.close(root)
    finally:
        restore()
    fanout = {s.id for s in tracer.spans if s.name == "protocol.run_shots"}
    shots = [s for s in tracer.spans if s.name == "protocol.shot"]
    assert len(shots) == 30 and all(s.parent in fanout for s in shots)
    assert tracing.layer_metrics(tracer, 30)["trace.accounted_frac"] == pytest.approx(1.0, abs=1e-9)


def test_self_times_with_overlapping_children():
    S = tracing.Span
    spans = [
        S(1, None, "bench.op", 1, 0.0, 10.0),
        S(2, 1, "protocol.run_shots", 1, 1.0, 9.0),
        S(3, 2, "protocol.shot", 2, 2.0, 6.0),
        S(4, 2, "protocol.shot", 3, 4.0, 8.0),
        S(5, 3, "statevec.hadamard", 2, 3.0, 4.0),
    ]
    selfs, overlap = tracing.self_times(spans)
    assert selfs == {1: 2.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 1.0}
    assert overlap == 2.0
    assert sum(selfs.values()) == 10.0 + overlap


def test_success_mass_matches_classify_outcome():
    N, a = 11, 2
    params = disq.ProtocolParams.derive(N, a, wl.EPSILON)
    r = disq.multiplicative_order(a, N)
    values = {v: 1.0 for v in range(1 << params.m_width)}
    expected = 0.0
    for v in values:
        est = Fraction(v, 1 << params.m_width)
        if min(abs(est - Fraction(s, r)) for s in range(r)) <= params.error_bound:
            expected += 1.0
    assert expected > 0
    assert wl.stitched_success_mass(values, params, r) == expected

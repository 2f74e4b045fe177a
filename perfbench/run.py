"""disq benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload n33-distributed --seed 1 --seconds 20 --trace 0

Run from the root of a disq checkout; disq is imported from its ``src/``.

``--trace 0`` reports the end-to-end metrics.  The run is split over
several fresh measuring processes, one after another, because one process
can run the same code up to a quarter slower than the next (memory layout
differs from process to process).  Each process sets up (that time is a
``setup_s`` sample) and then runs operations of the workload for its share
of ``--seconds``, checking each one's output.

``--trace 1`` reports the per-layer metrics from one process.  It
alternates untraced and traced operations on the same inputs; the traced
ones run with disq's layer functions wrapped (see tracing.py), and each must
reproduce the output digest of the untraced one before it.  Spans are
written to ``.perfbench/spans-<workload>-<seed>.jsonl``.

The last line of standard output is the result object; the line before it
holds the details (host, per-process set-up, memory and operation times,
output digests, errors).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")
CHILD_TIMEOUT_S = 170


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def load_disq():
    """Import disq from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, SRC)
    import disq
    import disq.cli

    if not os.path.abspath(disq.__file__).startswith(os.path.join(SRC, "")):
        raise SystemExit(f"error: imported disq from {disq.__file__}, not {SRC}")
    return disq


def host_info() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def guarded(units: int, fn, *args) -> wl.OpResult:
    """Run one operation; an exception from disq fails it instead of the run."""
    start = perf_counter()
    try:
        return fn(*args)
    except Exception:
        return wl.OpResult(units, perf_counter() - start, failed=units, errors=[traceback.format_exc()])


class Runner:
    """One measuring process: set-up, then operations of one workload."""

    def __init__(self, workload: str, seed: int, process: int, out_path: str):
        self.workload, self.seed, self.process, self.out_path = workload, seed, process, out_path
        start = perf_counter()
        self.disq = disq = load_disq()
        if workload == wl.EXACT_SWEEP:
            self.passes = wl.sweep_passes(disq, seed, process)
            N, a = next(self.passes)[0]
            disq.ProtocolParams.derive(N, a, wl.EPSILON)
            disq.multiplicative_order(a, N)
            warm = guarded(1, wl.run_case, disq, N, a)
        else:
            self.cfg = cfg = wl.SHOT_WORKLOADS[workload]
            disq.ProtocolParams.derive(cfg.N, cfg.a, wl.EPSILON)
            disq.multiplicative_order(cfg.a, cfg.N)
            warm = guarded(1, self._call, wl.WARMUP_CALL, 1)
        self.setup_s = perf_counter() - start
        self.warmup_errors = [f"warm-up: {e}" for e in warm.errors]

    def _call(self, index: int, shots: int) -> wl.OpResult:
        seed = wl.call_seed(self.seed, self.process, index)
        return wl.run_order_call(self.disq, self.cfg, shots, seed, self.out_path)

    def next_input(self, index: int):
        return next(self.passes) if self.workload == wl.EXACT_SWEEP else index

    def op(self, op_input) -> wl.OpResult:
        """One ``disq order`` call (input: call index) or one sweep pass (input: cases)."""
        units = len(op_input) if self.workload == wl.EXACT_SWEEP else self.cfg.shots_per_call
        return guarded(units, self._op, op_input)

    def _op(self, op_input) -> wl.OpResult:
        if self.workload != wl.EXACT_SWEEP:
            return self._call(op_input, self.cfg.shots_per_call)
        results = [wl.run_case(self.disq, N, a) for N, a in op_input]
        return wl.OpResult(
            units=len(results),
            wall_s=sum(r.wall_s for r in results),
            failed=sum(r.failed for r in results),
            digest=hashlib.sha256("".join(r.digest for r in results).encode()).hexdigest(),
            margins=[m for r in results for m in r.margins],
            errors=[e for r in results for e in r.errors],
        )

    def measure(self, seconds: float) -> list[wl.OpResult]:
        ops: list[wl.OpResult] = []
        start = perf_counter()
        while not ops or perf_counter() - start < seconds:
            ops.append(self.op(self.next_input(len(ops))))
        return ops

    def measure_traced(self, seconds: float, tracer: tracing.Tracer):
        """Alternate untraced and traced operations on the same inputs."""
        untraced: list[wl.OpResult] = []
        traced: list[wl.OpResult] = []
        start = perf_counter()
        while len(traced) < 1 or perf_counter() - start < seconds:
            op_input = self.next_input(len(untraced))
            untraced.append(self.op(op_input))
            restore = tracing.install(tracer, self.disq)
            root = tracer.open("bench.op")
            try:
                res = self.op(op_input)
            finally:
                tracer.close(root)
                restore()
            res.traced = True
            if res.digest != untraced[-1].digest:
                res.failed = res.units
                res.errors.append(f"traced output digest differs at op {len(traced)}")
            traced.append(res)
        return untraced, traced


def child_main(args) -> int:
    """Measure in this process for ``--window`` seconds; print the raw results."""
    with scratch_dir() as out_path:
        runner = Runner(args.workload, args.seed, args.child, out_path)
        ops = runner.measure(args.window)
    print(
        json.dumps(
            {
                "setup_s": runner.setup_s,
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "host": host_info(),
                "warmup_errors": runner.warmup_errors,
                "ops": [dataclasses.asdict(r) for r in ops],
            }
        )
    )
    return 0


class scratch_dir:
    """A per-process directory under .perfbench/ for ``disq order`` output."""

    def __enter__(self) -> str:
        self.path = os.path.join(WORK_DIR, f"tmp-{os.getpid()}")
        os.makedirs(self.path, exist_ok=True)
        return os.path.join(self.path, "order.jsonl")

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def run_processes(args) -> list[dict]:
    """Run the workload's measuring processes one after another.

    Each process gets an equal share of the time still left, so a slow
    set-up or a long last operation shortens the next window instead of
    the run growing.
    """
    count = wl.PROCESSES[args.workload]
    end = perf_counter() + args.seconds
    children = []
    for k in range(count):
        window = max(end - perf_counter(), 0.0) / (count - k)
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
            "--child", str(k), "--window", repr(window),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: measuring process {k} failed:\n{proc.stderr[-2000:]}")
        children.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return children


def checks(workload: str, ops: list[wl.OpResult], warmup_errors: list[str]) -> tuple[bool, dict]:
    """Run-level verdict and the figures the detail line reports."""
    attempted = sum(r.units for r in ops)
    failed = sum(r.failed for r in ops)
    errors = warmup_errors + [e for r in ops for e in r.errors]
    correct = failed == 0 and not warmup_errors
    info = {"failed_frac": failed / attempted}
    if workload == wl.EXACT_SWEEP:
        # With every case failed there is no margin; report success as 0.
        info["theorem2_margin"] = min((m for r in ops for m in r.margins), default=-float(1 - wl.EPSILON))
        info["success_rate"] = info["theorem2_margin"] + float(1 - wl.EPSILON)
    else:
        successes = sum(r.successes for r in ops)
        passed, floor = wl.success_gate(successes, attempted)
        info["success_rate"] = successes / attempted
        info["theorem2_margin"] = info["success_rate"] - float(1 - wl.EPSILON)
        info["success_floor"] = floor
        if not passed:
            correct = False
            errors.append(f"success rate {info['success_rate']:.4f} below {floor:.4f}")
    info["errors"] = errors[:20]
    return correct, info


def op_rate(ops: list[wl.OpResult]) -> float:
    return statistics.median(r.units / r.wall_s for r in ops)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--window", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not os.path.isfile(os.path.join(SRC, "disq", "__init__.py")):
        print(f"error: no disq sources under {SRC}", file=sys.stderr)
        return 2
    if args.child is not None:
        if args.window is None:
            parser.error("--child needs --window")
        return child_main(args)

    e2e_units, layer_units = metric_units()
    detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        tracer = tracing.Tracer()
        with scratch_dir() as out_path:
            runner = Runner(args.workload, args.seed, 0, out_path)
            untraced, traced = runner.measure_traced(args.seconds, tracer)
        ops = untraced + traced
        correct, info = checks(args.workload, ops, runner.warmup_errors)
        values = tracing.layer_metrics(tracer, sum(r.units for r in traced))
        per_unit = statistics.median(r.wall_s / r.units for r in untraced)
        per_unit_traced = statistics.median(r.wall_s / r.units for r in traced)
        values["trace.overhead_frac"] = per_unit_traced / per_unit - 1
        values["theorem2_margin"] = info["theorem2_margin"]
        values["failed_frac"] = info["failed_frac"]
        units = layer_units
        spans_path = os.path.join(WORK_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(spans_path)
        detail.update(
            host=host_info(),
            setup_s=runner.setup_s,
            ops=[{"units": r.units, "wall_s": r.wall_s, "traced": r.traced, "digest": r.digest} for r in ops],
            self_shares=tracing.self_shares(tracer),
            spans_file=os.path.relpath(spans_path, ROOT),
        )
    else:
        children = run_processes(args)
        per_child = [[wl.OpResult(**r) for r in c["ops"]] for c in children]
        ops = [r for child_ops in per_child for r in child_ops]
        correct, info = checks(args.workload, ops, [e for c in children for e in c["warmup_errors"]])
        # Mean over processes of each one's median: the median resists slow
        # moments within a process, the mean weighs fast and slow processes.
        values = {
            "ops_per_s": statistics.fmean(op_rate(c) for c in per_child),
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "peak_rss_mib": statistics.median(c["peak_rss_mib"] for c in children),
            "success_rate": info["success_rate"],
        }
        units = e2e_units
        detail.update(
            host=children[0]["host"],
            processes=[
                {
                    "setup_s": c["setup_s"],
                    "peak_rss_mib": c["peak_rss_mib"],
                    "ops_per_s": op_rate(child_ops),
                    "ops": [{"units": r.units, "wall_s": r.wall_s, "digest": r.digest} for r in child_ops],
                }
                for c, child_ops in zip(children, per_child)
            ],
        )
    detail.update(info)
    attempted = sum(r.units for r in ops)
    failed = sum(r.failed for r in ops)
    print(json.dumps(detail, separators=(",", ":")))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

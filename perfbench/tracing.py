"""Outside-in tracing of disq's layers.

The benchmark times each layer by replacing the layer's public functions
with timing wrappers for the duration of a traced operation; nothing under
``src/`` changes.  A wrapper records one span (id, parent, name, thread,
start, end) per call and, where the call boundary shows it, a count such as
the bytes an array operation computes over.  Spans stay in memory and are
written out when the run ends.

Each thread keeps its own span stack, so shots that ``run_shots`` hands to
its thread pool nest under the open ``protocol.run_shots`` span instead of
under whatever the pool thread ran before.

``protocol`` imports ``teleport_register``, ``recover_order`` and
``multiplicative_order`` by name, so those are wrapped in ``disq.protocol``'s
own namespace; the ``statevec`` functions are wrapped on the module, which
``protocol`` and ``teleport`` both call through.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

AMP_BYTES = 16  # complex128

# statevec function -> (span name, passes over the amplitudes per call as
# reads + writes, or None when no byte count is reported).
_STATEVEC = {
    "apply_hadamard_register": ("statevec.hadamard", "width"),
    "apply_controlled_modmul": ("statevec.modmul", 2),
    "apply_inverse_qft": ("statevec.inverse_qft", 2),
    "measure_register": ("statevec.measure", None),
    "project_register": ("statevec.project", None),
    "register_probabilities": ("statevec.probabilities", None),
    "marginal_probabilities": ("statevec.probabilities", None),
    "append_register": ("statevec.append", None),
    "remove_register": ("statevec.remove", None),
}

_CTRL_A = "ctrl_a"  # protocol's register name for node A's control register


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    """Span recorder plus the counters the wrappers fill in."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    peak_qubits: int = 0
    m1_seen: set = field(default_factory=set)
    _ids: itertools.count = field(default_factory=lambda: itertools.count(1))
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    fanout: list[int] = field(default_factory=list)  # open run_shots span ids
    params_key: tuple | None = None  # (N, a, epsilon) of the call in progress

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            # A pool thread's first span belongs to the run_shots call that
            # handed it work.
            parent = self.fanout[-1] if self.fanout else None
        span = Span(next(self._ids), parent, name, threading.get_ident(), perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        popped = self._stack().pop()
        assert popped is span, "spans must close in LIFO order"
        with self._lock:
            self.spans.append(span)

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def see_qubits(self, n: int) -> None:
        if n > self.peak_qubits:
            with self._lock:
                self.peak_qubits = max(self.peak_qubits, n)

    def see_m1(self, value: int) -> None:
        with self._lock:
            self.m1_seen.add((self.params_key, value))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(s.__dict__, separators=(",", ":")) + "\n")


def _wrap(
    tracer: Tracer,
    fn: Callable,
    name: str | Callable[[tuple, dict], str] | None,
    before: Callable | None = None,
    after: Callable | None = None,
) -> Callable:
    """Time ``fn`` as a span; ``before``/``after`` see the call boundary.

    ``name=None`` makes a count-only wrapper that opens no span.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        pre = before(args, kwargs) if before else None
        span = None
        if name is not None:
            span = tracer.open(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            if span is not None:
                tracer.close(span)
        if after:
            after(pre, args, kwargs, result)
        return result

    return wrapper


def _statevec_hooks(tracer: Tracer, fname: str, span_name: str, passes):
    def after(_pre, args, kwargs, result):
        state = args[0]
        n = state.n
        if fname == "append_register":
            width = args[2] if len(args) > 2 else kwargs["width"]
            n += width
        tracer.see_qubits(n)
        if passes is not None:
            k = state.layout.width(args[1]) * 2 if passes == "width" else passes
            tracer.add(span_name + ".bytes", AMP_BYTES * (1 << state.n) * k)
        reg = args[1] if len(args) > 1 else None
        if reg == _CTRL_A and fname == "measure_register":
            tracer.see_m1(result[0].value)
        elif reg == _CTRL_A and fname == "project_register" and result[1] is not None:
            tracer.see_m1(args[2])

    return after


def install(tracer: Tracer, disq) -> Callable[[], None]:
    """Wrap disq's layer functions; returns the function that restores them."""
    protocol, statevec, cli = disq.protocol, disq.statevec, disq.cli
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, name, before=None, after=None):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, original, name, before, after))

    for fname, (span_name, passes) in _STATEVEC.items():
        patch(statevec, fname, span_name, after=_statevec_hooks(tracer, fname, span_name, passes))

    def teleport_before(args, kwargs):
        return args[2].bit_count, args[3].consumed

    def teleport_after(pre, args, kwargs, _result):
        tracer.add("teleport.qubits", args[0].layout.width(args[1]))
        tracer.add("teleport.classical_bits", args[2].bit_count - pre[0])
        tracer.add("teleport.epr_pairs", args[3].consumed - pre[1])

    patch(protocol, "teleport_register", "teleport", teleport_before, teleport_after)

    def recover_after(_pre, _args, _kwargs, result):
        if result is None:
            tracer.add("numeric.recover_order.none")

    patch(protocol, "recover_order", "numeric.recover_order", after=recover_after)
    patch(protocol, "multiplicative_order", "numeric.multiplicative_order")

    def set_params(args, _kwargs):
        tracer.params_key = (args[0].N, args[0].a, args[0].epsilon)

    patch(cli, "main", "cli.main")
    run_shots = protocol.run_shots

    @functools.wraps(run_shots)
    def traced_run_shots(*args, **kwargs):
        set_params(args, kwargs)
        span = tracer.open("protocol.run_shots")
        tracer.fanout.append(span.id)
        try:
            return run_shots(*args, **kwargs)
        finally:
            tracer.fanout.pop()
            tracer.close(span)

    saved.append((protocol, "run_shots", run_shots))
    protocol.run_shots = traced_run_shots

    patch(protocol, "_run_one_shot", "protocol.shot")
    patch(protocol, "classify_outcome", "protocol.classify_outcome")
    patch(protocol, "correct_results", "protocol.correct_results")
    patch(protocol, "_b_stage", None, after=lambda *_: tracer.add("protocol.node_b_runs"))

    def finish_after(_pre, _args, _kwargs, record):
        if record.m1 is not None and record.correction_bit is None:
            tracer.add("protocol.correction_failures")

    patch(protocol, "_finish_distributed", None, after=finish_after)

    def oracle_name(args, kwargs):
        mode = args[1] if len(args) > 1 else kwargs.get("mode", protocol.MODE_JOINT)
        return "protocol.sequential_oracle" if mode == protocol.MODE_SEQUENTIAL else "protocol.joint_oracle"

    patch(protocol, "distributed_joint_distribution", oracle_name, before=set_params)
    patch(protocol, "monolithic_exact_distribution", "protocol.monolithic_exact", before=set_params)
    patch(protocol, "stitched_value_distribution", "protocol.stitched_distribution")

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> tuple[dict[int, float], float]:
    """Self time of every span, and the overlap that parallel children add.

    A span's self time is its duration minus the part of it that its
    children cover.  Children from several pool threads can overlap; the
    second return value is that overlap (the sum of the children's durations
    minus the length of their union), so that the self times of all spans
    add up to the root spans' wall time plus that overlap.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    selfs: dict[int, float] = {}
    overlap = 0.0
    for s in spans:
        kids = [(max(k.start, s.start), min(k.end, s.end)) for k in children.get(s.id, [])]
        covered = _union_length(kids)
        selfs[s.id] = (s.end - s.start) - covered
        overlap += sum(e - b for b, e in kids) - covered
    return selfs, overlap


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = (len(v) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer figures from the spans of ``ops`` traced operations.

    Times, call counts, bytes and teleport counts are per operation (a shot
    or an exact case); ``protocol.distinct_m1``, ``node_b_runs`` and
    ``correction_failures`` are totals over the traced operations.
    """
    ops = max(ops, 1)
    spans = tracer.spans
    selfs, overlap = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    for s in spans:
        total[s.name] += s.end - s.start
        calls[s.name] += 1
        layer_self[s.name.split(".")[0]] += selfs[s.id]
    wall = sum(s.end - s.start for s in spans if s.parent is None)

    def ms(name: str) -> float:
        return 1e3 * total[name] / ops

    c = tracer.counts
    m: dict[str, float] = {}
    for name in ("hadamard", "modmul", "inverse_qft"):
        key = "statevec." + name
        m[key + ".ms"] = ms(key)
        m[key + ".calls"] = calls[key] / ops
        m[key + ".gb_computed"] = c[key + ".bytes"] / 1e9 / ops
    had_s = total["statevec.hadamard"]
    m["statevec.hadamard.gbps_computed"] = c["statevec.hadamard.bytes"] / 1e9 / had_s if had_s else 0.0
    for name in ("measure", "project", "probabilities", "append", "remove"):
        key = "statevec." + name
        m[key + ".ms"] = ms(key)
        m[key + ".calls"] = calls[key] / ops
    m["statevec.peak_qubits"] = tracer.peak_qubits

    teleport_self = sum(selfs[s.id] for s in spans if s.name == "teleport")
    m["teleport.ms"] = 1e3 * teleport_self / ops
    for key in ("teleport.qubits", "teleport.classical_bits", "teleport.epr_pairs"):
        m[key] = c[key] / ops

    m["numeric.recover_order.ms"] = ms("numeric.recover_order")
    m["numeric.recover_order.calls"] = calls["numeric.recover_order"] / ops
    m["numeric.recover_order.none"] = c["numeric.recover_order.none"] / ops
    m["numeric.multiplicative_order.ms"] = ms("numeric.multiplicative_order")

    shot_ms = [1e3 * (s.end - s.start) for s in spans if s.name == "protocol.shot"]
    m["protocol.shot_ms_p50"] = _percentile(shot_ms, 0.5)
    m["protocol.shot_ms_p90"] = _percentile(shot_ms, 0.9)
    fanout_s = total["protocol.run_shots"]
    m["protocol.shot_concurrency"] = total["protocol.shot"] / fanout_s if fanout_s else 0.0
    m["protocol.distinct_m1"] = len(tracer.m1_seen)
    m["protocol.node_b_runs"] = c["protocol.node_b_runs"]
    m["protocol.correction_failures"] = c["protocol.correction_failures"]
    m["protocol.correct_results.ms"] = ms("protocol.correct_results")
    m["protocol.classify_outcome.ms"] = ms("protocol.classify_outcome")
    m["protocol.self_ms"] = 1e3 * layer_self["protocol"] / ops
    m["protocol.sequential_oracle.ms"] = ms("protocol.sequential_oracle")
    m["protocol.joint_oracle.ms"] = ms("protocol.joint_oracle")
    m["protocol.monolithic_exact.ms"] = ms("protocol.monolithic_exact")
    m["protocol.stitched_distribution.ms"] = ms("protocol.stitched_distribution")
    m["cli.self_ms"] = 1e3 * layer_self["cli"] / ops
    m["bench.self_ms"] = 1e3 * layer_self["bench"] / ops
    accounted = wall + overlap
    m["trace.accounted_frac"] = sum(selfs.values()) / accounted if accounted else 0.0
    return m


def self_shares(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Share of traced thread time spent as self time, by layer and by span."""
    selfs, overlap = self_times(tracer.spans)
    wall = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    denom = wall + overlap
    by_layer: dict[str, float] = defaultdict(float)
    by_span: dict[str, float] = defaultdict(float)
    for s in tracer.spans:
        by_layer[s.name.split(".")[0]] += selfs[s.id] / denom
        by_span[s.name] += selfs[s.id] / denom
    return {
        "layer": dict(sorted(by_layer.items())),
        "span": dict(sorted(by_span.items(), key=lambda kv: -kv[1])),
    }

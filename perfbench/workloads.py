"""The benchmark's workloads: their inputs, one operation each, and the
checks every operation's output must pass.

Shot workloads run ``disq order`` in-process through ``disq.cli.main`` with
``--output <file>``, the path a user takes; one operation is one such call,
and its shots are the unit of work.  ``exact-sweep`` runs the exact oracles
on (N, a) cases; one operation is one case.

Nothing here imports disq at module level: the benchmark times that import
as part of set-up, so ``disq`` is passed in.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

EPSILON = Fraction(1, 4)
MASS_TOL = 1e-9  # distribution mass and joint-vs-sequential total variation


@dataclass(frozen=True)
class ShotConfig:
    N: int
    a: int
    engine: str
    workers: int
    shots_per_call: int  # enough work per call that its wall time is steady

    def argv(self, shots: int, seed: int, output: str) -> list[str]:
        return [
            "order", "--N", str(self.N), "--a", str(self.a),
            "--epsilon", str(EPSILON), "--engine", self.engine,
            "--mode", "sequential-teleport", "--workers", str(self.workers),
            "--shots", str(shots), "--seed", str(seed), "--output", output,
        ]


SHOT_WORKLOADS = {
    "n33-distributed": ShotConfig(33, 2, "distributed", 1, 4),
    "n15-distributed": ShotConfig(15, 7, "distributed", 1, 25),
    "n33-monolithic-w2": ShotConfig(33, 2, "monolithic", 2, 4),
}
EXACT_SWEEP = "exact-sweep"
WORKLOADS = (*SHOT_WORKLOADS, EXACT_SWEEP)

# Measuring processes per end-to-end run.  The same n15 calls ran at about
# 72 shots/s in one process and about 93 in the next, so that workload gets
# the most processes; a sweep pass takes seconds, so exact-sweep gets the
# fewest.  n15-distributed and n33-monolithic-w2 stay runnable but are not
# in BENCHMARK.json.  On a 2-core Xeon VM n15's throughput drifted by 30%
# within minutes; n33-monolithic-w2 runs two pool threads on the two cores,
# so its figures spread with the host's other load (19-29% of the median
# between quartiles over ten runs).
PROCESSES = {
    "n33-distributed": 6,
    "n15-distributed": 8,
    "n33-monolithic-w2": 4,
    EXACT_SWEEP: 3,
}

# exact-sweep draws N from 5..16: every such N has L=4 and hence the same
# register widths, so a case's cost depends on its order r and not on which
# N the seed picked.  N <= 4 (L=2) costs a few ms and would make the case mix
# set the throughput.
SWEEP_N = range(5, 17)


@dataclass
class OpResult:
    """One operation: its units of work, wall time and what its checks found."""

    units: int
    wall_s: float
    failed: int = 0
    successes: int = 0  # shots within the accuracy target
    digest: str | None = None  # sha256 of a call's JSON output or a case's distributions
    traced: bool = False
    margins: list[float] = field(default_factory=list)  # exact Theorem-2 margins
    errors: list[str] = field(default_factory=list)


WARMUP_CALL = 999  # call index of a process's untimed warm-up call


def call_seed(seed: int, process: int, index: int) -> int:
    """The ``--seed`` of a measuring process's index-th ``disq order`` call."""
    return (seed * 100 + process) * 1000 + index


def run_order_call(disq, cfg: ShotConfig, shots: int, seed: int, output: str) -> OpResult:
    """One ``disq order`` call, checked record by record."""
    r_true = disq.multiplicative_order(cfg.a, cfg.N)
    params = disq.ProtocolParams.derive(cfg.N, cfg.a, EPSILON)
    argv = cfg.argv(shots, seed, output)
    start = perf_counter()
    rc = disq.cli.main(argv)
    wall = perf_counter() - start
    res = OpResult(units=shots, wall_s=wall)
    if rc != 0:
        res.failed, res.errors = shots, [f"exit code {rc}"]
        return res
    with open(output, "rb") as fh:
        data = fh.read()
    os.remove(output)
    res.digest = hashlib.sha256(data).hexdigest()
    lines = [json.loads(line) for line in data.decode().splitlines()]
    records, summary = lines[:-1], lines[-1]
    if len(records) != shots or summary.get("type") != "summary" or summary["shots"] != shots:
        res.failed, res.errors = shots, ["wrong record count or missing summary"]
        return res
    for rec in records:
        problem = _record_problem(rec, params, r_true)
        if problem:
            res.failed += 1
            res.errors.append(problem)
        res.successes += bool(rec["estimate_within_bound"])
    return res


def _record_problem(rec: dict, params, r_true: int) -> str | None:
    if rec["engine"] == "distributed":
        bits = rec["channel"]
        if len(bits) != 2 * params.L or any(b not in (0, 1) for b in bits):
            return f"channel transcript {bits} is not {2 * params.L} bits"
        if rec["classical_bits_used"] != 2 * params.L:
            return f"classical_bits_used {rec['classical_bits_used']} != 2L"
    if rec["order_recovered"] and rec["recovered_r"] != r_true:
        return f"recovered_r {rec['recovered_r']} flagged as order {r_true}"
    return None


def success_gate(successes: int, shots: int) -> tuple[bool, float]:
    """Theorem 2 with sampling slack: rate >= (1 - epsilon) - 3 sigma."""
    bound = float(1 - EPSILON)
    floor = bound - 3 * math.sqrt(bound * (1 - bound) / shots)
    return successes / shots >= floor, floor


def sweep_cases(disq) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Coprime (N, a) for N in SWEEP_N, split by whether the order is a power of 2.

    A power-of-two order makes every phase s/r dyadic, so the joint
    distribution is sparse and stitching it is nearly free; any other order
    spreads mass over every (m1, m2) pair.  The two kinds differ about
    threefold in cost, so each pass of the sweep takes one of each.
    """
    dyadic, other = [], []
    for N in SWEEP_N:
        for a in range(1, N):
            if math.gcd(a, N) == 1:
                r = disq.multiplicative_order(a, N)
                (dyadic if r & (r - 1) == 0 else other).append((N, a))
    return dyadic, other


def sweep_passes(disq, seed: int, process: int):
    """Endless seeded stream of passes, each one dyadic and one other case."""
    dyadic, other = sweep_cases(disq)
    rng = random.Random(seed * 100 + process)
    while True:
        yield [rng.choice(dyadic), rng.choice(other)]


def run_case(disq, N: int, a: int) -> OpResult:
    """One exact case: both joint oracles, the monolithic oracle, stitching."""
    protocol = disq.protocol
    start = perf_counter()
    params = disq.ProtocolParams.derive(N, a, EPSILON)
    r = disq.multiplicative_order(a, N)
    seq = protocol.distributed_joint_distribution(params, mode=protocol.MODE_SEQUENTIAL)
    joint = protocol.distributed_joint_distribution(params, mode=protocol.MODE_JOINT)
    mono = protocol.monolithic_exact_distribution(params)
    values, failed_mass = protocol.stitched_value_distribution(seq, params)
    errors = []
    tv = 0.5 * float(abs(seq - joint).sum())
    if not tv <= MASS_TOL:
        errors.append(f"joint vs sequential total variation {tv:.3e}")
    masses = {
        "sequential": float(seq.sum()),
        "joint": float(joint.sum()),
        "monolithic": float(mono.sum()),
        "stitched": sum(values.values()) + failed_mass,
    }
    for name, mass in masses.items():
        if not abs(mass - 1.0) <= MASS_TOL:
            errors.append(f"{name} mass {mass!r}")
    success = stitched_success_mass(values, params, r)
    margin = success - float(1 - EPSILON)
    if not margin >= 0:
        errors.append(f"stitched success mass {success!r} below 1 - epsilon")
    wall = perf_counter() - start
    digest = hashlib.sha256()
    for arr in (seq, joint, mono):
        digest.update(arr.tobytes())
    digest.update(repr(sorted(values.items())).encode())
    return OpResult(
        units=1, wall_s=wall, failed=int(bool(errors)), digest=digest.hexdigest(),
        margins=[margin], errors=[f"N={N} a={a}: {e}" for e in errors],
    )


def stitched_success_mass(values: dict[int, float], params, r: int) -> float:
    """Mass of stitched estimates within 2^-(2L+1) of some s/r, 0 <= s < r.

    Integer form of ``protocol.classify_outcome``'s test: for an estimate
    v/2^w, the nearest s/r with s in [0, r) has s = min(round(v r / 2^w), r-1),
    and |v/2^w - s/r| <= 2^-(2L+1) iff |v r - s 2^w| 2^(2L+1) <= r 2^w.
    """
    w = params.m_width
    scale = 1 << (2 * params.L + 1)
    mass = 0.0
    for v, p in values.items():
        s = min((2 * v * r + (1 << w)) >> (w + 1), r - 1)
        if abs(v * r - (s << w)) * scale <= r << w:
            mass += p
    return mass

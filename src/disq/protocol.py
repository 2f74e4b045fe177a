"""Order finding end to end: the single-node path, the two-node path with
teleportation and classical result stitching, and the factoring driver.

Both engines estimate a phase s/r for a uniformly weighted unknown s and
then recover r classically.  The single-node engine measures one wide
control register.  The two-node engine lets node A estimate the leading
bits and node B the remaining bits (B's first two overlap A's last two);
the work register travels from A to B by teleportation so both estimates
refer to the same s, and ``correct_results`` stitches the two measurements
into one full-width estimate, using B's overlap bits to fix A's possible
off-by-one.

Every run is driven by a caller-supplied numpy Generator and is a
deterministic function of it.  Shots are independent: each owns its state,
channel, pool, and generator, so they can execute on any number of workers
without changing results.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import statevec
from .bitstrings import BitString
from .numeric import ceil_log2, multiplicative_order, recover_order
from .statevec import RegisterLayout, StateVector
from .teleport import ClassicalChannel, EprPool, teleport_register

ENGINE_MONOLITHIC = "monolithic"
ENGINE_DISTRIBUTED = "distributed"
MODE_SEQUENTIAL = "sequential-teleport"
MODE_JOINT = "joint-oracle"

# Register names: "ctrl*" are phase-estimation control registers, "work" is
# the modular-arithmetic register the controlled multiplications act on.
_CTRL_A = "ctrl_a"
_CTRL_B = "ctrl_b"
_WORK = "work"
_CTRL = "ctrl"


def paddings(epsilon: Fraction) -> tuple[int, int]:
    """(p, p_mono): the accuracy paddings for a failure budget epsilon in (0, 1).

    Each of the two nodes may miss, so each gets half the budget; the single
    node gets all of it.
    """
    eps_node = epsilon / 2
    return ceil_log2(2 + Fraction(1, 2 * eps_node)), ceil_log2(2 + Fraction(1, 2 * epsilon))


def control_widths(L: int, p: int, p_mono: int) -> tuple[int, int, int, int]:
    """(t1, t2, m_width, t_mono) for an even modulus bit length L at paddings p, p_mono."""
    return L // 2 + 1 + p, 3 * L // 2 + 2 + p, 2 * L + 1 + p, 2 * L + 1 + p_mono


@dataclass(frozen=True)
class ProtocolParams:
    """The inputs of one order-finding run and the sizes derived from them.

    p is the accuracy padding of each node's estimate and p_mono that of
    the single-node estimate, both derived from the target failure budget
    epsilon.  L is the modulus bit length rounded up to even so the
    half-split formulas apply verbatim; t1/t2 are the two control-register
    widths, m_width the width of the stitched estimate and t_mono the
    single node's control width.
    """

    N: int
    a: int
    epsilon: Fraction | None
    p: int
    p_mono: int

    def __post_init__(self) -> None:
        _validate_modulus_and_base(self.N, self.a)
        if self.p < 1:
            raise ValueError(f"padding p must be >= 1, got {self.p}")
        # Stitching identity: the kept prefix (L/2 + 1 bits) plus B's bits
        # 3..t2 must exactly tile the stitched estimate.
        assert (self.L // 2 + 1) + (self.t2 - 2) == self.m_width

    @classmethod
    def derive(cls, N: int, a: int, epsilon: Fraction = Fraction(1, 4)) -> "ProtocolParams":
        epsilon = Fraction(epsilon)
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        return cls(N, a, epsilon, *paddings(epsilon))

    @classmethod
    def with_padding(cls, N: int, a: int, p: int) -> "ProtocolParams":
        """Params with an explicit padding p instead of an epsilon budget.

        Meant for size-controlled equivalence oracles (p below 2 is not
        reachable from any epsilon); such params carry no failure budget.
        """
        return cls(N, a, None, p, p)

    @property
    def l_was_rounded(self) -> bool:
        return bool((self.N - 1).bit_length() % 2)

    @property
    def L(self) -> int:
        return (self.N - 1).bit_length() + self.l_was_rounded

    @property
    def t1(self) -> int:
        return control_widths(self.L, self.p, self.p_mono)[0]

    @property
    def t2(self) -> int:
        return control_widths(self.L, self.p, self.p_mono)[1]

    @property
    def m_width(self) -> int:
        return control_widths(self.L, self.p, self.p_mono)[2]

    @property
    def t_mono(self) -> int:
        return control_widths(self.L, self.p, self.p_mono)[3]

    def peak_qubits(self, engine: str, mode: str = MODE_SEQUENTIAL) -> int:
        """Qubits in the widest state a run of this engine and mode holds.

        The sequential two-node run holds one node's control register and
        the work register at a time; the joint oracle holds both control
        registers at once.
        """
        if engine == ENGINE_MONOLITHIC:
            return self.t_mono + self.L
        if mode == MODE_JOINT:
            return self.t1 + self.t2 + self.L
        return max(self.t1, self.t2) + self.L

    @property
    def error_bound(self) -> Fraction:
        """Accuracy target for the stitched estimate: 2^-(2L+1)."""
        return Fraction(1, 1 << (2 * self.L + 1))

    @property
    def b_stage_multiplier(self) -> int:
        """Node B's multiplier a^(2^(L/2-1)) mod N, computed classically."""
        return pow(self.a, 1 << (self.L // 2 - 1), self.N)


def _validate_modulus_and_base(N: int, a: int) -> None:
    if N < 2:
        raise ValueError(f"modulus must be >= 2, got {N}")
    if not 1 <= a < N:
        raise ValueError(f"need 1 <= a < N, got a={a}")
    if math.gcd(a, N) != 1:
        raise ValueError(f"a={a} shares a factor with N={N}")


@dataclass
class OutcomeRecord:
    """Everything observed and derived in one order-finding shot."""

    engine: str
    mode: str | None = None
    m1: BitString | None = None
    m2: BitString | None = None
    correction_bit: int | None = None
    m: BitString | None = None
    recovered_r: int | None = None
    nearest_s: int | None = None
    estimation_error: Fraction | None = None
    classical_bits_used: int = 0
    channel_transcript: list[int] = field(default_factory=list)
    estimate_within_bound: bool = False
    order_recovered: bool = False

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "type": "shot",
            "engine": self.engine,
            "mode": self.mode,
            "m1": None if self.m1 is None else self.m1.text,
            "m2": None if self.m2 is None else self.m2.text,
            "correction_bit": self.correction_bit,
            "m": None if self.m is None else self.m.text,
            "recovered_r": self.recovered_r,
            "nearest_s": self.nearest_s,
            "estimation_error": None
            if self.estimation_error is None
            else str(self.estimation_error),
            "classical_bits_used": self.classical_bits_used,
            "channel": list(self.channel_transcript),
            "estimate_within_bound": self.estimate_within_bound,
            "order_recovered": self.order_recovered,
        }


def correct_results(
    m1: BitString, m2: BitString, params: ProtocolParams
) -> tuple[int, BitString] | None:
    """Stitch the two nodes' measurements into one full-width estimate.

    B's first two bits re-measure A's bits L/2 and L/2+1.  When some
    b in {-1, 0, +1} aligns them mod 4, that same b aligns A's whole
    prefix (the overlap test on two bits is equivalent to the full-width
    test whenever the two estimates are circularly within 1), so the
    corrected prefix is concatenated with B's bits 3..t2.  Returns
    (correction bit, stitched estimate), or None when the overlap values
    differ by 2 mod 4 -- the shot fell outside the guaranteed event and
    counts as a failure.
    """
    half = params.L // 2
    if m1.width != params.t1 or m2.width != params.t2:
        raise ValueError(
            f"expected widths ({params.t1}, {params.t2}), got ({m1.width}, {m2.width})"
        )
    overlap_a = m1.slice(half, half + 1).value
    overlap_b = m2.slice(1, 2).value
    for b in (-1, 0, 1):
        if (overlap_a + b) % 4 == overlap_b:
            prefix_width = half + 1
            prefix_val = (m1.slice(1, prefix_width).value + b) % (1 << prefix_width)
            stitched = BitString(prefix_width, prefix_val).concat(m2.slice(3, params.t2))
            return b, stitched
    return None


def check_capacity(params: ProtocolParams, engine: str, mode: str = MODE_SEQUENTIAL) -> None:
    """Raise CapacityError when the run would hold more than MAX_QUBITS qubits."""
    qubits = params.peak_qubits(engine, mode)
    if qubits > statevec.MAX_QUBITS:
        raise statevec.CapacityError(
            f"run needs {qubits} simultaneous qubits, guard is {statevec.MAX_QUBITS}"
        )


def monolithic_exact_distribution(params: ProtocolParams) -> np.ndarray:
    """Exact outcome distribution of the single-node control register."""
    check_capacity(params, ENGINE_MONOLITHIC)
    st = _first_estimate(params, _CTRL, params.t_mono)
    return statevec.register_probabilities(st, _CTRL)


def _estimate(st: StateVector, ctrl: str, width: int, multiplier: int, N: int) -> StateVector:
    """One node's phase estimation of ``multiplier`` on the work register of ``st``.

    The control register ``ctrl`` is prepared alone, in uniform superposition
    (2^width amplitudes), and joined to ``st`` as its last register by
    ``statevec.apply_phase_estimation``, which also applies the inverse QFT
    to it; the stage holds one state-sized block.
    """
    control = statevec.init_basis(RegisterLayout.of((ctrl, width)))
    control = statevec.apply_hadamard_register(control, ctrl)
    return statevec.apply_phase_estimation(st, control, _WORK, multiplier, N)


def _first_estimate(params: ProtocolParams, ctrl: str, width: int) -> StateVector:
    """Phase estimation of a on a fresh state: work = 1, control ``ctrl`` estimated.

    The work register leads, so the state stores one row (work = 1) until
    the modular multiplication maps it onto the powers of a.
    """
    st = statevec.init_basis(RegisterLayout.of((_WORK, params.L)), {_WORK: 1})
    return _estimate(st, ctrl, width, params.a, params.N)


def _a_stage(params: ProtocolParams) -> StateVector:
    return _first_estimate(params, _CTRL_A, params.t1)


def _b_stage(st: StateVector, params: ProtocolParams) -> StateVector:
    """Node B's estimate: joins ctrl_b to ``st`` and estimates a^(2^(L/2-1))."""
    return _estimate(st, _CTRL_B, params.t2, params.b_stage_multiplier, params.N)


def _node_b(
    after_a: StateVector,
    m1: int,
    params: ProtocolParams,
    channel: ClassicalChannel,
    rng: np.random.Generator,
) -> tuple[float, np.ndarray | None]:
    """Node B's run after node A measured m1: (P(m1), P(m2 | m1)).

    Projects node A's state onto m1 and drops ctrl_a, teleports the work
    register (its bits go on ``channel``, its branches are drawn from
    ``rng``), then runs B's estimate.  Returns (P(m1), None) when m1 has no
    mass.
    """
    p1, st = statevec.project_register(after_a, _CTRL_A, m1)
    if st is None or p1 < 1e-300:
        return p1, None
    st = statevec.remove_register(st, _CTRL_A)
    st = _b_stage(teleport_register(st, _WORK, channel, EprPool(params.L), rng), params)
    return p1, statevec.register_probabilities(st, _CTRL_B)


def _finish_distributed(
    record: OutcomeRecord, m1: int, m2: int, params: ProtocolParams
) -> OutcomeRecord:
    record.m1, record.m2 = BitString(params.t1, m1), BitString(params.t2, m2)
    stitched = correct_results(record.m1, record.m2, params)
    if stitched is not None:
        record.correction_bit, record.m = stitched
        record.recovered_r = recover_order(record.m, params.N, params.a)
    return record


def _shot_law(params: ProtocolParams, engine: str, mode: str) -> tuple[np.ndarray, ...]:
    """The exact laws every shot of a run draws from, computed once per run.

    Monolithic: (P(m),).  Joint oracle: (P(m1), P(m1, m2)).  Sequential: (),
    as each shot runs both nodes itself.
    """
    if engine == ENGINE_MONOLITHIC:
        return (monolithic_exact_distribution(params),)
    if engine != ENGINE_DISTRIBUTED:
        raise ValueError(f"unknown engine {engine!r}")
    if mode == MODE_JOINT:
        joint = distributed_joint_distribution(params, MODE_JOINT)
        return joint.sum(axis=1), joint
    if mode != MODE_SEQUENTIAL:
        raise ValueError(f"unknown mode {mode!r}")
    check_capacity(params, ENGINE_DISTRIBUTED)
    return ()


def distributed_joint_distribution(
    params: ProtocolParams, mode: str = MODE_JOINT
) -> np.ndarray:
    """Exact joint distribution over (m1, m2) as a (2^t1, 2^t2) array.

    The joint-oracle path marginalizes the final three-register state; the
    sequential path runs ``_node_b`` once for each m1 outcome and weights
    B's distribution by the outcome probability.  Any teleport branch gives
    the same conditional state, so one branch per m1 suffices.
    """
    if mode == MODE_JOINT:
        # Node B's stage runs on node A's unmeasured state: A's operations
        # never touch ctrl_b, so joining ctrl_b after them gives the same state.
        check_capacity(params, ENGINE_DISTRIBUTED, MODE_JOINT)
        joint = _b_stage(_a_stage(params), params)
        return statevec.marginal_probabilities(joint, [_CTRL_A, _CTRL_B])

    if mode != MODE_SEQUENTIAL:
        raise ValueError(f"unknown mode {mode!r}")
    check_capacity(params, ENGINE_DISTRIBUTED)
    after_a = _a_stage(params)
    joint = np.zeros((1 << params.t1, 1 << params.t2))
    branch_rng = np.random.default_rng(0)  # teleport branch choice is immaterial
    for m1 in range(1 << params.t1):
        p1, cond = _node_b(after_a, m1, params, ClassicalChannel(), branch_rng)
        if cond is not None:
            joint[m1, :] = p1 * cond
    return joint


def _stitch_arrays(
    m1: np.ndarray, m2: np.ndarray, params: ProtocolParams
) -> tuple[np.ndarray, np.ndarray]:
    """``correct_results`` over arrays of measured values.

    Returns (stitched value, ok) element-wise; where ok is False the overlap
    values differ by 2 mod 4 and the stitched value is meaningless.
    """
    prefix_width = params.L // 2 + 1
    tail = params.t2 - 2
    prefix = m1 >> (params.t1 - prefix_width)  # ends in A's two overlap bits
    diff = ((m2 >> tail) - prefix) & 3  # 0, 1 or 3 (= -1) is the correction bit
    ok = diff != 2
    bit = np.where(diff == 3, -1, diff)
    prefix = (prefix + bit) & ((1 << prefix_width) - 1)
    stitched = (prefix << tail) | (m2 & ((1 << tail) - 1))
    return stitched, ok


def stitched_value_distribution(
    joint: np.ndarray, params: ProtocolParams
) -> tuple[dict[int, float], float]:
    """Push a joint (m1, m2) distribution through the stitching step.

    Returns (mass per stitched integer value, mass with no correction bit).
    Masses are added in row-major (m1, m2) order, one outcome at a time.
    """
    m1, m2 = np.nonzero(joint > 0)
    p = joint[m1, m2]
    stitched, ok = _stitch_arrays(m1, m2, params)
    # bincount adds each weight to its slot in input order, as the loop over
    # correct_results did; the slot past every stitched value collects the
    # outcomes with no correction bit.
    no_bit = 1 << params.m_width
    sums = np.bincount(np.where(ok, stitched, no_bit), weights=p, minlength=no_bit + 1)
    keys = np.flatnonzero(sums[:no_bit])  # a used slot sums positive masses
    return dict(zip(keys.tolist(), sums[keys].tolist())), float(sums[no_bit])


def classify_outcome(
    record: OutcomeRecord, params: ProtocolParams, r_true: int
) -> OutcomeRecord:
    """Fill in nearest-s, exact estimation error, and success flags.

    The scan over s in {0, ..., r-1} is exhaustive and exact (Fraction
    arithmetic); the accuracy flag checks the 2^-(2L+1) target.
    """
    record.order_recovered = record.recovered_r == r_true
    if record.m is None:
        return record
    estimate = Fraction(record.m.value, 1 << record.m.width)
    errors = [abs(estimate - Fraction(s, r_true)) for s in range(r_true)]
    best = min(range(r_true), key=lambda s: errors[s])
    record.nearest_s = best
    record.estimation_error = errors[best]
    record.estimate_within_bound = errors[best] <= params.error_bound
    return record


def _run_one_shot(
    params: ProtocolParams,
    rng: np.random.Generator,
    engine: str,
    mode: str,
    law: tuple[np.ndarray, ...],
) -> OutcomeRecord:
    """One shot of the engine and mode, drawn with ``rng`` from the run's ``_shot_law``."""
    if engine == ENGINE_MONOLITHIC:
        m = BitString(params.t_mono, statevec.draw(law[0], rng))
        return OutcomeRecord(engine, m=m, recovered_r=recover_order(m, params.N, params.a))
    record = OutcomeRecord(engine, mode)
    if mode == MODE_JOINT:
        m1_law, joint = law
        m1 = statevec.draw(m1_law, rng)
        m2 = statevec.draw(joint[m1] / joint[m1].sum(), rng)
        return _finish_distributed(record, m1, m2, params)
    after_a = _a_stage(params)
    m1 = statevec.draw(statevec.register_probabilities(after_a, _CTRL_A), rng)
    channel = ClassicalChannel()
    _, cond = _node_b(after_a, m1, params, channel, rng)
    assert cond is not None  # a drawn outcome has mass
    m2 = statevec.draw(cond, rng)
    record.classical_bits_used = channel.bit_count
    record.channel_transcript = channel.transcript
    return _finish_distributed(record, m1, m2, params)


def shot_rng(seed: int | None, shot_index: int) -> np.random.Generator:
    """Generator for one shot, derived from the root seed and the shot index.

    Derivation (not stream-sharing) keeps results identical no matter how
    shots are scheduled across workers.
    """
    if seed is None:
        return np.random.default_rng()
    return np.random.default_rng([seed, shot_index])


def run_shots(
    params: ProtocolParams,
    shots: int,
    *,
    seed: int | None = None,
    engine: str = ENGINE_DISTRIBUTED,
    mode: str = MODE_SEQUENTIAL,
    workers: int = 1,
) -> list[OutcomeRecord]:
    """Run independent classified shots; records come back in shot order.

    Monolithic shots draw from ``monolithic_exact_distribution``; distributed
    shots run in one of two modes.

    sequential-teleport: node A prepares, estimates, and measures first
    (measuring early is harmless because later operations never touch its
    register, and it halves the peak qubit count); the work register is
    then teleported into node B's space, which runs its own estimate.

    joint-oracle: m1 and then m2 given m1 are drawn from
    ``distributed_joint_distribution(params, MODE_JOINT)``, the law of the
    three registers held in one state with measurements deferred and no
    communication.  This is the reference execution the sequential path is
    checked against; its records carry no channel accounting.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    r_true = multiplicative_order(params.a, params.N)
    law = _shot_law(params, engine, mode)

    def one(i: int) -> OutcomeRecord:
        record = _run_one_shot(params, shot_rng(seed, i), engine, mode, law)
        return classify_outcome(record, params, r_true)

    # pool.map submits every shot up front; bound the threads that it starts
    workers = min(workers, shots, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, range(shots)))
    return [one(i) for i in range(shots)]


def summarize(params: ProtocolParams, records: list[OutcomeRecord]) -> dict:
    """Aggregate shot records into the summary object the CLI emits."""
    if not records:
        raise ValueError("summarize needs at least one shot record")
    shots = len(records)
    with_estimate = [r for r in records if r.m is not None]
    histogram: dict[str, int] = {}
    for r in with_estimate:
        key = str(r.nearest_s)
        histogram[key] = histogram.get(key, 0) + 1
    mean_error = (
        sum(float(r.estimation_error) for r in with_estimate) / len(with_estimate)
        if with_estimate
        else None
    )
    return {
        "schema": 1,
        "type": "summary",
        "N": params.N,
        "a": params.a,
        "epsilon": None if params.epsilon is None else str(params.epsilon),
        "L": params.L,
        "l_was_rounded": params.l_was_rounded,
        "p": params.p,
        "t1": params.t1,
        "t2": params.t2,
        "m_width": params.m_width,
        "t_mono": params.t_mono,
        "engine": records[0].engine,
        "mode": records[0].mode,
        "shots": shots,
        "success_rate": sum(r.estimate_within_bound for r in records) / shots,
        "theorem2_bound": None if params.epsilon is None else float(1 - params.epsilon),
        "mean_error": mean_error,
        "order_recovery_rate": sum(r.order_recovered for r in records) / shots,
        "correction_failures": sum(
            1 for r in records if r.m1 is not None and r.correction_bit is None
        ),
        "per_s_histogram": dict(sorted(histogram.items(), key=lambda kv: int(kv[0]))),
    }


@dataclass
class FactoringAttempt:
    """One pass of the reduction loop: the base tried and what came of it."""

    a: int
    gcd_shortcut: int | None = None
    record: OutcomeRecord | None = None
    factor: int | None = None


@dataclass
class FactoringResult:
    factor: int | None
    attempts: list[FactoringAttempt]

    @property
    def attempt_count(self) -> int:
        return len(self.attempts)


def run_shor_factoring(
    N: int,
    epsilon: Fraction,
    rng: np.random.Generator,
    max_attempts: int = 10,
    engine: str = ENGINE_DISTRIBUTED,
    mode: str = MODE_SEQUENTIAL,
) -> FactoringResult:
    """Find a nontrivial factor of an odd composite non-prime-power N.

    Each attempt draws a base a; a shared factor is returned immediately,
    otherwise order finding runs and the standard even-order reduction is
    applied.  A failed recovery or an unusable order just costs the attempt.
    The caller is responsible for the N preconditions (the CLI checks them).
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    attempts: list[FactoringAttempt] = []
    for _ in range(max_attempts):
        a = int(rng.integers(2, N))
        attempt = FactoringAttempt(a=a)
        attempts.append(attempt)
        g = math.gcd(a, N)
        if g > 1:
            attempt.gcd_shortcut = g
            attempt.factor = g
            return FactoringResult(g, attempts)
        params = ProtocolParams.derive(N, a, epsilon)
        law = _shot_law(params, engine, mode)
        record = _run_one_shot(params, rng, engine, mode, law)
        attempt.record = classify_outcome(record, params, multiplicative_order(a, N))
        r = record.recovered_r
        if r is None or r % 2:
            continue
        half_power = pow(a, r // 2, N)
        if half_power == N - 1:
            continue
        for f in (math.gcd(half_power - 1, N), math.gcd(half_power + 1, N)):
            if 1 < f < N:
                attempt.factor = f
                return FactoringResult(f, attempts)
    return FactoringResult(None, attempts)

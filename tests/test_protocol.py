import concurrent.futures
import functools
import hashlib
import math
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from disq import protocol
from disq.bitstrings import BitString, circular_distance, fraction_bits
from disq.numeric import multiplicative_order
from disq.protocol import (
    ENGINE_DISTRIBUTED,
    ENGINE_MONOLITHIC,
    MODE_JOINT,
    MODE_SEQUENTIAL,
    OutcomeRecord,
    ProtocolParams,
    classify_outcome,
    correct_results,
    distributed_joint_distribution,
    monolithic_exact_distribution,
    run_shor_factoring,
    run_shots,
    stitched_value_distribution,
    summarize,
)
from disq.teleport import ClassicalChannel, EprPool, teleport_register
from conditionals import conditionals
from law_checks import FOLD_TOL, assert_near_the_stage
from stitching_reference import slice_stitch


class TestParams:
    def test_n15_sizes(self):
        p = ProtocolParams.derive(15, 7, Fraction(1, 4))
        assert (p.L, p.p, p.t1, p.t2, p.m_width) == (4, 3, 6, 11, 12)
        assert (p.p_mono, p.t_mono) == (2, 11)
        assert not p.l_was_rounded

    def test_n33_sizes(self):
        p = ProtocolParams.derive(33, 2, Fraction(1, 4))
        assert (p.L, p.p, p.t1, p.t2, p.m_width) == (6, 3, 7, 14, 16)
        assert (p.p_mono, p.t_mono) == (2, 15)

    def test_odd_bit_length_rounds_up(self):
        p = ProtocolParams.derive(21, 2, Fraction(1, 4))
        assert p.L == 6
        assert p.l_was_rounded

    def test_prefix_tiling_identity(self):
        for N, a in [(15, 7), (33, 2), (21, 2), (55, 3)]:
            for eps in (Fraction(1, 4), Fraction(1, 8), Fraction(1, 3)):
                p = ProtocolParams.derive(N, a, eps)
                assert (p.L // 2 + 1) + (p.t2 - 2) == p.m_width
                assert p.t1 >= 3 and p.p >= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolParams.derive(15, 6, Fraction(1, 4))  # shared factor
        with pytest.raises(ValueError):
            ProtocolParams.derive(15, 0, Fraction(1, 4))
        with pytest.raises(ValueError):
            ProtocolParams.derive(1, 1, Fraction(1, 4))
        with pytest.raises(ValueError):
            ProtocolParams.derive(15, 7, Fraction(3, 2))

    @pytest.mark.parametrize("N, a", [(15, 7), (33, 2), (2, 1)])
    @pytest.mark.parametrize("p", [1, 3])
    def test_with_padding_matches_derived_widths(self, N, a, p):
        got = ProtocolParams.with_padding(N, a, p)
        L = got.L
        assert (got.t1, got.t2, got.m_width) == (L // 2 + 1 + p, 3 * L // 2 + 2 + p, 2 * L + 1 + p)
        assert (got.p_mono, got.t_mono, got.epsilon) == (p, 2 * got.L + 1 + p, None)
        derived = ProtocolParams.derive(N, a, Fraction(1, 4))
        assert (got.L, got.l_was_rounded) == (derived.L, derived.l_was_rounded)

    def test_peak_qubits(self):
        # Law-drawn runs count their law's outcome bits, shots their state.
        p = ProtocolParams.derive(33, 2, Fraction(1, 4))  # L=6, t1=7, t2=14, t_mono=15
        assert p.peak_qubits(ENGINE_MONOLITHIC) == 15
        assert p.peak_qubits(ENGINE_MONOLITHIC, MODE_JOINT) == 15
        assert p.peak_qubits(ENGINE_DISTRIBUTED) == 20
        assert p.peak_qubits(ENGINE_DISTRIBUTED, MODE_SEQUENTIAL) == 20
        assert p.peak_qubits(ENGINE_DISTRIBUTED, MODE_JOINT) == 21
        protocol.check_capacity(p, ENGINE_DISTRIBUTED, MODE_JOINT)
        protocol.check_capacity(p, ENGINE_DISTRIBUTED)

    def test_sequential_law_is_guarded_by_its_size(self, monkeypatch):
        # N=133 a=11 at epsilon=1/10: L=8, t1=9, t2=18.  Shots hold
        # max(t1, t2) + L = 26 qubits, within the guard, but the sequential
        # law is 2^(t1 + t2) = 2^27 floats (1 GiB): refused before any
        # estimate law is built.
        p = ProtocolParams.derive(133, 11, Fraction(1, 10))
        assert (p.L, p.t1, p.t2) == (8, 9, 18)
        protocol.check_capacity(p, ENGINE_DISTRIBUTED)

        def no_laws(*_):
            raise AssertionError("_estimate_laws called")

        monkeypatch.setattr(protocol, "_estimate_laws", no_laws)
        for mode in (MODE_SEQUENTIAL, MODE_JOINT):
            with pytest.raises(protocol.statevec.CapacityError, match="27 simultaneous qubits"):
                distributed_joint_distribution(p, mode)

    def test_sizes_are_computed_once_and_fields_decide_equality(self, monkeypatch):
        used = ProtocolParams.derive(33, 2, Fraction(1, 4))
        sizes = (used.L, used.t1, used.t2, used.m_width, used.t_mono)
        calls = []
        widths = protocol.control_widths
        monkeypatch.setattr(protocol, "control_widths", lambda *a: calls.append(a) or widths(*a))
        for _ in range(3):
            assert (used.L, used.t1, used.t2, used.m_width, used.t_mono) == sizes
        assert calls == []
        fresh = ProtocolParams.derive(33, 2, Fraction(1, 4))
        assert fresh == used and hash(fresh) == hash(used) and repr(fresh) == repr(used)
        assert "t2" not in repr(used) and fresh != ProtocolParams.derive(33, 5, Fraction(1, 4))
        with pytest.raises(AttributeError):
            used.t2 = 3

    def test_b_stage_multiplier(self):
        assert ProtocolParams.derive(15, 7).b_stage_multiplier == 4  # 7^2 mod 15
        assert ProtocolParams.derive(33, 2).b_stage_multiplier == 16  # 2^4 mod 33


PEAK_SLACK = 64 << 10  # index tables and other small arrays, far below one control vector
LAW_CHUNK_BYTES = 3 * 8 * protocol._LAW_CHUNK  # an exact oracle's working set beside its law


def node_b_input(params: ProtocolParams):
    """Node A's state projected onto its likeliest m1, ctrl_a dropped: what node B joins."""
    after_a = protocol._a_stage(params)
    m1 = int(np.argmax(protocol.statevec.register_probabilities(after_a, "ctrl_a")))
    _, st = protocol.statevec.project_register(after_a, "ctrl_a", m1)
    return protocol.statevec.remove_register(st, "ctrl_a")


@pytest.mark.blas
@pytest.mark.fresh_process
class TestNodeBMemory:
    def test_sequential_shot_never_holds_a_dense_node_b_state(self):
        # Node B's dense state for N=33 a=2 is 2^20 amplitudes (16 MiB); it
        # stores only the 10 work values that hold amplitude.
        params = ProtocolParams.derive(33, 2, Fraction(1, 4))
        tracemalloc.start()
        try:
            [record] = run_shots(params, 1, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record.m2 is not None
        assert peak < 16 << 20

    def test_node_b_stage_holds_one_block(self):
        # Node B's joined state for N=33 a=2 stores 10 work rows of 2^14
        # amplitudes (2.5 MiB) once its block is read.  Its stage holds the
        # 2^t2 control vector (0.25 MiB) and the fold's factors: the gathered
        # sources (10 x 2P floats) and the uniform fill's class transforms
        # as rows (G_q, i * G_q) (2P = 10 rows of 2^t2, 2.5 MiB), which a
        # process's first stage builds and later stages find kept; a warm
        # stage holds no temporary beside the control.  The Born marginal
        # over ctrl_b streams the factors' products a chunk of control
        # values at a time, so it holds the running sums of squares
        # (2 * 2^t2 floats) and one chunk's products.
        params = ProtocolParams.derive(33, 2, Fraction(1, 4))
        block = 16 * 10 << params.t2
        kept = 2 * 16 * 5 << params.t2  # 16 has order 5 mod 33
        for case in ("first", "warm"):
            st = node_b_input(params)
            if case == "first":
                protocol.statevec._uniform_transforms.cache_clear()
            tracemalloc.start()
            try:
                st = protocol._b_stage(st, params)
                stage_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                protocol.statevec.register_probabilities(st, "ctrl_b")
                marginal_peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert st.block.size * 16 == block
            if case == "first":
                assert stage_peak < block + kept + (16 << params.t2) + PEAK_SLACK
            else:
                assert stage_peak < block + block // 4
                assert stage_peak < block + (16 << params.t2) + PEAK_SLACK
            assert marginal_peak < 2 * (16 << params.t2) + PEAK_SLACK, case

    def test_node_b_never_builds_its_block(self):
        # A warm node-B run at N=33 a=2 projects and teleports node A's small
        # state, then streams its ctrl_b marginal from the fold's factors:
        # it peaks below the one block (10 work rows of 2^t2) it never builds.
        params = ProtocolParams.derive(33, 2, Fraction(1, 4))
        after_a = protocol._a_stage(params)
        m1 = int(np.argmax(protocol.statevec.register_probabilities(after_a, "ctrl_a")))
        protocol._node_b(after_a, m1, params, ClassicalChannel(), np.random.default_rng(1))
        tracemalloc.start()
        try:
            _, law = protocol._node_b(
                after_a, m1, params, ClassicalChannel(), np.random.default_rng(2)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert law is not None
        assert peak < 16 * 10 << params.t2


class TestWorkRegisterLeads:
    def test_first_estimate_stores_the_powers_of_the_base(self):
        params = ProtocolParams.derive(33, 2, Fraction(1, 4))
        st = protocol._a_stage(params)
        assert st.layout.names == ("work", "ctrl_a")
        assert st.rows.tolist() == sorted(pow(2, j, 33) for j in range(10))
        assert st.block.size == 10 << params.t1

    def test_monolithic_shot_never_holds_a_dense_state(self):
        # The dense single-node state for N=33 a=2 is 2^21 amplitudes (32 MiB).
        params = ProtocolParams.derive(33, 2, Fraction(1, 4))
        tracemalloc.start()
        try:
            [record] = run_shots(params, 1, seed=3, engine=ENGINE_MONOLITHIC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record.m is not None
        assert peak < 16 << 20

    def test_monolithic_oracle_holds_the_law_and_one_chunk(self):
        # The law is 2^15 floats (0.25 MiB).  It is built a chunk of outcomes
        # at a time: each chunk's r x w estimate laws, with w = _LAW_CHUNK // r,
        # come from as many int64 offsets and a mask of their zeros, under
        # three chunks of floats.
        params = ProtocolParams.derive(33, 2, Fraction(1, 4))
        tracemalloc.start()
        try:
            monolithic_exact_distribution(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (8 << params.t_mono) + LAW_CHUNK_BYTES + PEAK_SLACK

    def test_joint_oracle_never_holds_a_dense_state(self):
        # The dense joint state for N=16 a=3 is 2^21 amplitudes (32 MiB); the
        # oracle holds its law, 2^6 x 2^11 floats (1 MiB), node A's r x 2^t1
        # estimate laws and one chunk of node B's.
        params = ProtocolParams.derive(16, 3, Fraction(1, 4))
        tracemalloc.start()
        try:
            joint = distributed_joint_distribution(params, MODE_JOINT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert joint.shape == (1 << params.t1, 1 << params.t2)
        assert peak < joint.nbytes + LAW_CHUNK_BYTES + PEAK_SLACK

    def test_joint_oracle_stores_no_joined_state(self):
        # The N=13 a=2 joint state would store 12 work rows of 2^6 x 2^11
        # amplitudes (24 MiB); its law is 2^6 x 2^11 floats (1 MiB).  Each
        # chunk of m2 is one product of node A's estimate laws (12 x 2^6
        # floats) by the chunk's of node B, written into the law.
        params = ProtocolParams.derive(13, 2, Fraction(1, 4))
        law = 8 << (params.t1 + params.t2)
        tracemalloc.start()
        try:
            distributed_joint_distribution(params, MODE_JOINT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert law < peak < law + LAW_CHUNK_BYTES + PEAK_SLACK

    def test_joint_oracle_shot_never_holds_a_dense_state(self):
        # The shot draws from the joint oracle's law, so it peaks at the
        # oracle's working set, plus what a process's first shot imports
        # (about 0.7 MiB): far below the 32 MiB dense joint state.
        params = ProtocolParams.derive(16, 3, Fraction(1, 4))
        tracemalloc.start()
        try:
            [record] = run_shots(params, 1, seed=3, mode=MODE_JOINT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record.m2 is not None
        assert peak < (8 << (params.t1 + params.t2)) + (2 << 20)


@pytest.fixture
def draws(monkeypatch):
    """Every distribution ``statevec.draw`` samples from, in draw order."""
    seen = []
    draw = protocol.statevec.draw

    def recording(probs, rng):
        seen.append(np.array(probs))
        return draw(probs, rng)

    monkeypatch.setattr(protocol.statevec, "draw", recording)
    return seen


class TestShotsSampleTheirOracle:
    """Each shot draws from the exact law its oracle computes."""

    def test_monolithic_shot(self, draws):
        params = ProtocolParams.derive(13, 2, Fraction(1, 4))
        run_shots(params, 1, seed=1, engine=ENGINE_MONOLITHIC)
        assert len(draws) == 1
        assert np.array_equal(draws[0], monolithic_exact_distribution(params))

    @pytest.mark.parametrize("seed", range(3))
    def test_joint_oracle_shot(self, draws, seed):
        params = ProtocolParams.derive(13, 2, Fraction(1, 4))
        [record] = run_shots(params, 1, seed=seed, mode=MODE_JOINT)
        joint = distributed_joint_distribution(params, MODE_JOINT)
        m1 = record.m1.value
        assert len(draws) == 2
        assert np.array_equal(draws[0], joint.sum(axis=1))
        assert np.array_equal(draws[1], joint[m1] / joint[m1].sum())

    @pytest.mark.parametrize("seed", range(3))
    def test_sequential_shot_draws_m2_from_node_b(self, draws, monkeypatch, seed):
        # Uniform order: A's measurement, the 2L teleport bits, B's
        # measurement; the measurements are draws, the Bell bits are not.
        uniforms = []

        class Counting:
            def __init__(self, rng):
                self.rng = rng

            def random(self):
                uniforms.append(self.rng.random())
                return uniforms[-1]

        shot_rng = protocol.shot_rng
        monkeypatch.setattr(protocol, "shot_rng", lambda *args: Counting(shot_rng(*args)))
        params = ProtocolParams.derive(13, 2, Fraction(1, 4))
        [record] = run_shots(params, 1, seed=seed)
        after_a = protocol._a_stage(params)
        m1 = record.m1.value
        assert len(draws) == 2
        assert len(uniforms) == 2 + 2 * params.L
        assert np.array_equal(draws[0], protocol.statevec.register_probabilities(after_a, "ctrl_a"))
        p_m1, shot_cond = draws[0][m1], draws[-1]
        p1, cond = protocol._node_b(
            after_a, m1, params, protocol.ClassicalChannel(), np.random.default_rng(seed)
        )
        assert np.allclose(cond, shot_cond, rtol=0, atol=1e-15)
        joint = distributed_joint_distribution(params, MODE_SEQUENTIAL)
        assert np.allclose(joint[m1], p1 * shot_cond, rtol=0, atol=1e-15)
        assert p1 == pytest.approx(p_m1, rel=1e-12)

    def test_node_b_without_mass(self):
        params = ProtocolParams.derive(15, 7, Fraction(1, 4))
        after_a = protocol._a_stage(params)
        probs = protocol.statevec.register_probabilities(after_a, "ctrl_a")
        m1 = int(np.flatnonzero(probs == 0)[0])
        channel = protocol.ClassicalChannel()
        p1, cond = protocol._node_b(after_a, m1, params, channel, np.random.default_rng(0))
        assert (p1, cond) == (0.0, None)
        assert channel.bit_count == 0

    @pytest.mark.parametrize(
        "engine, mode",
        [(ENGINE_MONOLITHIC, MODE_SEQUENTIAL), (ENGINE_DISTRIBUTED, MODE_SEQUENTIAL),
         (ENGINE_DISTRIBUTED, MODE_JOINT)],
    )
    def test_no_shot_collapses_a_state(self, monkeypatch, engine, mode):
        def refuse(*_args):
            raise AssertionError("measure_register called")

        monkeypatch.setattr(protocol.statevec, "measure_register", refuse)
        params = ProtocolParams.derive(15, 7, Fraction(1, 4))
        records = run_shots(params, 3, seed=4, engine=engine, mode=mode)
        assert all(r.m is not None for r in records)


class TestLawOncePerRun:
    """Monolithic and joint-oracle runs compute their law once and draw every
    shot from it, as a shot that computes the law itself would."""

    CASES = [(ENGINE_MONOLITHIC, MODE_SEQUENTIAL), (ENGINE_DISTRIBUTED, MODE_JOINT)]

    @pytest.mark.parametrize(
        "engine, mode, oracle",
        [(*CASES[0], "monolithic_exact_distribution"), (*CASES[1], "distributed_joint_distribution")],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_law_is_built_once(self, monkeypatch, engine, mode, oracle, workers):
        calls = []
        original = getattr(protocol, oracle)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(protocol, oracle, counting)
        records = run_shots(
            ProtocolParams.derive(15, 7), 12, seed=5, engine=engine, mode=mode, workers=workers
        )
        assert len(records) == 12 and len(calls) == 1

    @pytest.mark.parametrize("engine, mode", CASES)
    def test_shots_match_single_shot_runs(self, engine, mode):
        params = ProtocolParams.derive(13, 2)
        r = multiplicative_order(2, 13)

        def single(i):
            law = protocol._shot_law(params, engine, mode)  # a fresh law for every shot
            return protocol._run_one_shot(params, protocol.shot_rng(4, i), engine, mode, law)

        expected = [classify_outcome(single(i), params, r).to_json_dict() for i in range(6)]
        got = run_shots(params, 6, seed=4, engine=engine, mode=mode)
        assert [rec.to_json_dict() for rec in got] == expected

    @pytest.mark.parametrize(
        "engine, mode, N",
        [pytest.param(*case, 15, id="-".join(case)) for case in CASES]
        # two shot threads build or read node B's kept class transforms at once
        + [pytest.param(ENGINE_DISTRIBUTED, MODE_SEQUENTIAL, 33, id="distributed-sequential-33")],
    )
    def test_workers_leave_records_unchanged(self, engine, mode, N):
        # Each run starts with no class transforms kept, so at N=33 the two
        # shot threads may both build them.
        params = ProtocolParams.derive(N, 2)
        protocol.statevec._uniform_transforms.cache_clear()
        serial = run_shots(params, 16, seed=9, engine=engine, mode=mode, workers=1)
        protocol.statevec._uniform_transforms.cache_clear()
        parallel = run_shots(params, 16, seed=9, engine=engine, mode=mode, workers=2)
        assert [r.to_json_dict() for r in serial] == [r.to_json_dict() for r in parallel]

    def test_factoring_builds_one_law_per_base(self, monkeypatch):
        calls = []
        original = protocol.monolithic_exact_distribution

        def counting(params):
            calls.append(params.a)
            return original(params)

        monkeypatch.setattr(protocol, "monolithic_exact_distribution", counting)
        result = run_shor_factoring(
            15, Fraction(1, 4), np.random.default_rng(3), engine=ENGINE_MONOLITHIC
        )
        assert calls == [a.a for a in result.attempts if a.gcd_shortcut is None]


class TestCorrectResults:
    def test_worked_example(self):
        params = ProtocolParams.derive(15, 7, Fraction(1, 4))  # L=4, p=3
        got = correct_results(
            BitString.from_text("100111"), BitString.from_text("01011011011"), params
        )
        assert got is not None
        b, m = got
        assert b == 1
        assert m == BitString.from_text("101011011011")

    def test_zero_correction_when_overlaps_agree(self):
        params = ProtocolParams.derive(15, 7, Fraction(1, 4))
        m1 = BitString.from_text("101101")
        m2 = BitString.from_text("01011011011")
        assert m1.slice(2, 3) == m2.slice(1, 2)
        b, m = correct_results(m1, m2, params)
        assert b == 0
        assert m == m1.slice(1, 3) + m2.slice(3, 11)

    def test_failure_when_overlaps_differ_by_two(self):
        params = ProtocolParams.derive(15, 7, Fraction(1, 4))
        got = correct_results(
            BitString.from_text("100111"), BitString.from_text("10011011011"), params
        )
        assert got is None

    def test_width_validation(self):
        params = ProtocolParams.derive(15, 7, Fraction(1, 4))
        with pytest.raises(ValueError):
            correct_results(BitString(5, 0), BitString(11, 0), params)

    def test_two_bit_congruence_equals_full_width_test(self):
        # for every width-8 pair within circular distance 1 there is exactly
        # one aligning b in {-1,0,+1}, and the two-bit test finds the same b
        t = 8
        for x in range(1 << t):
            for delta in (-1, 0, 1):
                y = (x + delta) % (1 << t)
                xb, yb = BitString(t, x), BitString(t, y)
                full = [b for b in (-1, 0, 1) if (x + b) % (1 << t) == y]
                two = [
                    b
                    for b in (-1, 0, 1)
                    if (xb.slice(t - 1, t).value + b) % 4 == yb.slice(t - 1, t).value
                ]
                assert len(full) == 1
                assert two == full


class TestMonolithic:
    def test_dyadic_exact_distribution_n15_a7(self):
        params = ProtocolParams.derive(15, 7, Fraction(1, 4))
        dist = monolithic_exact_distribution(params)
        dim = 1 << params.t_mono
        support = {dim * s // 4: 0.25 for s in range(4)}
        for m, p in enumerate(dist):
            assert p == pytest.approx(support.get(m, 0.0), abs=1e-10)

    def test_dyadic_shots_n15_a7(self):
        params = ProtocolParams.derive(15, 7, Fraction(1, 4))
        records = run_shots(params, 300, seed=2, engine=ENGINE_MONOLITHIC)
        dim = 1 << params.t_mono
        allowed = {dim * s // 4 for s in range(4)}
        counts: dict[int, int] = {}
        for r in records:
            assert r.m is not None and r.m.value in allowed
            assert r.estimate_within_bound
            counts[r.m.value] = counts.get(r.m.value, 0) + 1
        sigma = math.sqrt(0.25 * 0.75 / 300)
        for v in allowed:
            assert abs(counts.get(v, 0) / 300 - 0.25) <= 3 * sigma

    def test_order_two_support(self):
        params = ProtocolParams.derive(15, 11, Fraction(1, 4))
        dist = monolithic_exact_distribution(params)
        dim = 1 << params.t_mono
        for m in np.nonzero(dist > 1e-12)[0]:
            assert m in (0, dim // 2)

    def test_identity_base(self):
        params = ProtocolParams.derive(15, 1, Fraction(1, 4))
        [rec] = run_shots(params, 1, seed=0, engine=ENGINE_MONOLITHIC)
        assert rec.m.value == 0
        assert rec.recovered_r == 1


class TestDistributedDyadic:
    def test_joint_oracle_mass_sits_on_exact_estimates(self):
        # r = 4 divides 2^(L/2+1), so both nodes measure exact bits and the
        # stitched estimate equals some s/4 with probability 1, each s
        # carrying at least 1/r
        params = ProtocolParams.derive(15, 7, Fraction(1, 4))
        joint = distributed_joint_distribution(params, mode=MODE_JOINT)
        values, failed = stitched_value_distribution(joint, params)
        expected = {fraction_bits(Fraction(s, 4), 1, params.m_width).value for s in range(4)}
        assert failed == pytest.approx(0.0, abs=1e-12)
        assert set(values) == expected
        assert sum(values.values()) == pytest.approx(1.0, abs=1e-9)
        for v in values.values():
            assert v >= 0.25 - 1e-9

    def test_sequential_shots_all_exact(self):
        params = ProtocolParams.derive(15, 7, Fraction(1, 4))
        records = run_shots(params, 200, seed=5)
        expected = {fraction_bits(Fraction(s, 4), 1, params.m_width).value for s in range(4)}
        freq: dict[int, int] = {}
        for r in records:
            assert r.m is not None and r.m.value in expected
            assert r.estimation_error == 0
            assert r.classical_bits_used == 2 * params.L
            assert len(r.channel_transcript) == 2 * params.L
            freq[r.m.value] = freq.get(r.m.value, 0) + 1
        sigma = math.sqrt(0.25 * 0.75 / 200)
        for v in expected:
            assert freq.get(v, 0) / 200 >= 0.25 - 3 * sigma


class TestVectorizedStitching:
    @pytest.mark.parametrize("N,a,p", [(3, 2, 1), (15, 7, 1), (33, 2, 1)])
    def test_agrees_with_correct_results_on_every_pair(self, N, a, p):
        params = ProtocolParams.with_padding(N, a, p)
        m1, m2 = np.meshgrid(
            np.arange(1 << params.t1), np.arange(1 << params.t2), indexing="ij"
        )
        stitched, ok, bit = protocol._stitch_arrays(m1.ravel(), m2.ravel(), params)
        for i, (v1, v2) in enumerate(zip(m1.ravel().tolist(), m2.ravel().tolist())):
            pair = BitString(params.t1, v1), BitString(params.t2, v2)
            ref = slice_stitch(*pair, params)
            assert correct_results(*pair, params) == ref
            if ref is None:
                assert not ok[i]
            else:
                assert ok[i] and (int(bit[i]), int(stitched[i])) == (ref[0], ref[1].value)

    def test_distribution_equals_scalar_loop(self):
        params = ProtocolParams.with_padding(33, 2, 1)
        joint = distributed_joint_distribution(params, mode=MODE_JOINT)
        values: dict[int, float] = {}
        failed = 0.0
        for m1_val, row in enumerate(joint):
            for m2_val in np.nonzero(row > 0)[0]:
                ref = correct_results(
                    BitString(params.t1, m1_val), BitString(params.t2, int(m2_val)), params
                )
                if ref is None:
                    failed += float(row[m2_val])
                else:
                    values[ref[1].value] = values.get(ref[1].value, 0.0) + float(row[m2_val])
        assert failed > 0
        assert stitched_value_distribution(joint, params) == (values, failed)


def bincount_stitching(joint: np.ndarray, params: ProtocolParams) -> tuple[dict[int, float], float]:
    """Reference stitching: one bincount over the positive entries in row-major order.

    bincount adds each weight to its slot in input order; the slot past
    every stitched value collects the outcomes with no correction bit.
    """
    m1, m2 = np.nonzero(joint > 0)
    stitched, ok, _ = protocol._stitch_arrays(m1, m2, params)
    no_bit = 1 << params.m_width
    sums = np.bincount(np.where(ok, stitched, no_bit), weights=joint[m1, m2], minlength=no_bit + 1)
    keys = np.flatnonzero(sums[:no_bit])
    return dict(zip(keys.tolist(), sums[keys].tolist())), float(sums[no_bit])


def with_odd_entries(joint: np.ndarray, seed: int) -> np.ndarray:
    """A copy of ``joint`` with a few hundred entries set to 0, -0.0, a negative or NaN."""
    out = joint.copy()
    rng = np.random.default_rng(seed)
    spots = rng.choice(out.size, size=min(300, out.size // 2), replace=False)
    out.reshape(-1)[spots] = rng.choice([0.0, -0.0, -0.25, -1e-300, math.nan], size=spots.size)
    return out


class TestRunStitching:
    """``stitched_value_distribution`` adds whole runs of m2; it gives the bits
    of the bincount over every positive entry in row-major order."""

    @pytest.mark.parametrize(
        "N, a, inverse_epsilon",
        [(5, 1, 4), (7, 2, 10), (9, 2, 4), (11, 3, 4), (13, 2, 4), (15, 7, 10), (16, 3, 4)],
    )
    def test_matches_the_bincount(self, N, a, inverse_epsilon):
        params = ProtocolParams.derive(N, a, Fraction(1, inverse_epsilon))
        for mode in (MODE_SEQUENTIAL, MODE_JOINT):
            law = distributed_joint_distribution(params, mode)
            want = bincount_stitching(law, params)
            assert repr(stitched_value_distribution(law, params)) == repr(want)
            odd = with_odd_entries(law, seed=N * a)
            with np.errstate(invalid="ignore"):
                want = bincount_stitching(odd, params)
            assert repr(stitched_value_distribution(odd, params)) == repr(want)

    @pytest.mark.parametrize("N, a, p", [(3, 2, 1), (15, 7, 1), (33, 2, 1), (21, 2, 2)])
    def test_random_laws_match_the_bincount(self, N, a, p):
        # Every entry positive, NaN, negative or a zero of either sign.
        params = ProtocolParams.with_padding(N, a, p)
        rng = np.random.default_rng(N + p)
        law = rng.random((1 << params.t1, 1 << params.t2))
        law[rng.random(law.shape) < 0.3] = 0.0
        odd = with_odd_entries(law, seed=p)
        for joint in (law, odd, -law, np.zeros_like(law)):
            with np.errstate(invalid="ignore"):
                want = bincount_stitching(joint, params)
            assert repr(stitched_value_distribution(joint, params)) == repr(want)

    def test_holds_no_law_sized_temporary(self):
        # N=33 a=2: the law is 2^7 x 2^14 floats (16 MiB).  Beside the dict
        # it returns, stitching holds the rows of the law that correct to
        # one prefix (3/64 of it) and one float per stitched value; building
        # the dict holds about as much as the dict.
        params = ProtocolParams.derive(33, 2, Fraction(1, 4))
        law = distributed_joint_distribution(params, MODE_SEQUENTIAL)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            values, _ = stitched_value_distribution(law, params)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(values) > 1000
        assert peak - held < law.nbytes // 4 + (held - base)


class TestModeEquivalence:
    def test_exact_joint_distributions_match_at_small_padding(self):
        params = ProtocolParams.with_padding(15, 7, 1)
        j_oracle = distributed_joint_distribution(params, mode=MODE_JOINT)
        j_seq = distributed_joint_distribution(params, mode=MODE_SEQUENTIAL)
        tv = 0.5 * float(np.abs(j_oracle - j_seq).sum())
        assert tv <= 1e-9

    def test_exact_joint_distributions_match_nondyadic(self):
        # r = 10 makes most s/r non-dyadic, so this exercises genuine spread
        params = ProtocolParams.with_padding(33, 2, 1)
        j_oracle = distributed_joint_distribution(params, mode=MODE_JOINT)
        j_seq = distributed_joint_distribution(params, mode=MODE_SEQUENTIAL)
        tv = 0.5 * float(np.abs(j_oracle - j_seq).sum())
        assert tv <= 1e-9


@pytest.fixture(scope="module")
def n33_records():
    params = ProtocolParams.derive(33, 2, Fraction(1, 4))
    return params, run_shots(params, 60, seed=11)


class TestNondyadicShots(object):
    def test_success_rate_meets_budget(self, n33_records):
        params, records = n33_records
        rate = sum(r.estimate_within_bound for r in records) / len(records)
        sigma = math.sqrt(0.75 * 0.25 / len(records))
        assert rate >= 0.75 - 3 * sigma

    def test_overlap_bits_correct_whenever_node_b_is_close(self, n33_records):
        # whenever m2 is within 2^p of the true bits L/2..2L+1+p of a
        # non-dyadic s/r, its first two bits equal the true overlap bits
        params, records = n33_records
        r_true = 10
        hits = 0
        for rec in records:
            for s in range(r_true):
                omega = Fraction(s, r_true)
                if (omega * (1 << (params.L // 2 + 1))).denominator == 1:
                    continue
                target2 = fraction_bits(omega, params.L // 2, params.m_width)
                if circular_distance(rec.m2, target2) < (1 << params.p):
                    assert rec.m2.slice(1, 2) == fraction_bits(
                        omega, params.L // 2, params.L // 2 + 1
                    )
                    hits += 1
        assert hits > 10

    def test_stitched_estimate_accurate_when_both_nodes_close(self, n33_records):
        # both premises (node A close on bits 1..t1, node B close on bits
        # L/2..2L+1+p, same non-dyadic s) force the stitched estimate within
        # 2^-(2L+1) of s/r
        params, records = n33_records
        r_true = 10
        hits = 0
        for rec in records:
            for s in range(r_true):
                omega = Fraction(s, r_true)
                if (omega * (1 << (params.L // 2 + 1))).denominator == 1:
                    continue
                close_a = circular_distance(
                    rec.m1, fraction_bits(omega, 1, params.t1)
                ) < (1 << params.p)
                close_b = circular_distance(
                    rec.m2, fraction_bits(omega, params.L // 2, params.m_width)
                ) < (1 << params.p)
                if close_a and close_b:
                    assert rec.m is not None
                    err = abs(Fraction(rec.m.value, 1 << params.m_width) - omega)
                    assert err <= params.error_bound
                    hits += 1
        assert hits > 10

    def test_recovered_orders_match_oracle(self, n33_records):
        _, records = n33_records
        for rec in records:
            if rec.recovered_r is not None:
                assert rec.recovered_r == 10


class TestClassify:
    def test_exact_estimate(self):
        params = ProtocolParams.derive(15, 7, Fraction(1, 4))
        rec = OutcomeRecord(engine=ENGINE_MONOLITHIC, m=BitString(12, 1 << 10))  # 1/4
        classify_outcome(rec, params, 4)
        assert rec.nearest_s == 1
        assert rec.estimation_error == 0
        assert rec.estimate_within_bound

    def test_nondyadic_estimate_error(self):
        params = ProtocolParams.derive(33, 2, Fraction(1, 4))  # L=6, m_width=16
        m = fraction_bits(Fraction(3, 10), 1, 16)
        rec = OutcomeRecord(engine=ENGINE_DISTRIBUTED, m=m)
        classify_outcome(rec, params, 10)
        assert rec.nearest_s == 3
        assert rec.estimation_error == abs(Fraction(m.value, 1 << 16) - Fraction(3, 10))
        assert rec.estimation_error <= Fraction(1, 1 << 13)
        assert rec.estimate_within_bound

    def test_far_estimate_fails(self):
        params = ProtocolParams.derive(33, 2, Fraction(1, 4))
        # midpoint between 0/10 and 1/10 is as far from the grid as possible
        rec = OutcomeRecord(engine=ENGINE_DISTRIBUTED, m=BitString(16, (1 << 16) // 20))
        classify_outcome(rec, params, 10)
        assert not rec.estimate_within_bound

    def test_missing_estimate(self):
        params = ProtocolParams.derive(15, 7, Fraction(1, 4))
        rec = classify_outcome(OutcomeRecord(engine=ENGINE_DISTRIBUTED), params, 4)
        assert rec.estimation_error is None
        assert not rec.estimate_within_bound


class TestDeterminism:
    def test_same_seed_same_records(self):
        params = ProtocolParams.derive(15, 7, Fraction(1, 4))
        a = run_shots(params, 20, seed=3)
        b = run_shots(params, 20, seed=3)
        assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]

    def test_workers_do_not_change_results(self):
        params = ProtocolParams.derive(15, 7, Fraction(1, 4))
        serial = run_shots(params, 16, seed=9, workers=1)
        parallel = run_shots(params, 16, seed=9, workers=4)
        assert [r.to_json_dict() for r in serial] == [r.to_json_dict() for r in parallel]

    @pytest.mark.parametrize(
        "workers, shots, cpus, pool",
        [
            (100_000, 100_000, 4, 4),  # bounded by the CPUs
            (100_000, 3, 4, 3),  # by the shots
            (3, 100_000, 4, 3),  # by the workers asked for
            (100_000, 2, None, None),  # unknown CPU count: one thread, no pool
            (4, 1, 4, None),  # one shot: no pool
        ],
    )
    def test_pool_is_bounded_by_shots_and_cpus(self, monkeypatch, workers, shots, cpus, pool):
        # A recording stand-in for the executor that starts no thread: its
        # map reports how many shots were submitted and runs none of them.
        made = []

        class RecordingPool:
            def __init__(self, max_workers):
                made.append([max_workers, 0])

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                made[-1][1] = len(items)
                return []

        # run_shots imports the executor only when it starts a pool
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(protocol.os, "cpu_count", lambda: cpus)
        params = ProtocolParams.derive(15, 7, Fraction(1, 4))
        records = run_shots(params, shots, seed=1, workers=workers)
        if pool is None:
            assert made == [] and len(records) == shots
        else:
            assert made == [[pool, shots]] and records == []

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        params = ProtocolParams.derive(15, 7, Fraction(1, 4))
        with pytest.raises(ValueError, match="workers"):
            run_shots(params, 2, seed=1, workers=workers)

    def test_monolithic_and_joint_modes_run(self):
        params = ProtocolParams.derive(15, 7, Fraction(1, 4))
        [rec] = run_shots(params, 1, seed=1, mode=MODE_JOINT)
        assert rec.m1 is not None and rec.m2 is not None
        assert rec.classical_bits_used == 0  # reference execution, no channel


class TestSummary:
    def test_summary_fields(self):
        params = ProtocolParams.derive(15, 7, Fraction(1, 4))
        records = run_shots(params, 50, seed=13)
        summary = summarize(params, records)
        assert summary["schema"] == 1
        assert summary["shots"] == 50
        assert summary["success_rate"] == 1.0
        assert summary["theorem2_bound"] == 0.75
        assert summary["engine"] == ENGINE_DISTRIBUTED
        assert summary["mode"] == MODE_SEQUENTIAL
        assert sum(summary["per_s_histogram"].values()) == 50

    def test_no_records_rejected(self):
        params = ProtocolParams.derive(15, 7, Fraction(1, 4))
        with pytest.raises(ValueError, match="at least one"):
            summarize(params, [])


class FixedBase:
    """An rng whose every base draw is ``a``."""

    def __init__(self, a: int):
        self.a = a

    def integers(self, low, high):
        return self.a


class TestFactoring:
    def test_n15_finds_factor(self):
        for seed in range(1, 6):
            result = run_shor_factoring(
                15, Fraction(1, 4), np.random.default_rng(seed), max_attempts=10
            )
            assert result.factor in (3, 5)

    def test_n33_finds_factor(self):
        for seed in range(1, 4):
            result = run_shor_factoring(
                33, Fraction(1, 4), np.random.default_rng(seed), max_attempts=10
            )
            assert result.factor in (3, 11)

    def test_odd_bit_length_modulus(self):
        result = run_shor_factoring(
            21, Fraction(1, 4), np.random.default_rng(2), max_attempts=10
        )
        assert result.factor in (3, 7)

    def test_gcd_shortcut_skips_order_finding(self):
        result = run_shor_factoring(15, Fraction(1, 4), FixedBase(5), max_attempts=1)
        assert result.factor == 5
        assert result.attempts[0].gcd_shortcut == 5
        assert result.attempts[0].record is None

    # Base 5 shares a factor with 15, so no order finding would check these.
    @pytest.mark.parametrize(
        "engine, mode, match",
        [("bogus", MODE_SEQUENTIAL, "unknown engine"), (ENGINE_DISTRIBUTED, "bogus", "unknown mode"),
         (ENGINE_MONOLITHIC, MODE_JOINT, "joint-oracle")],
        ids=["engine", "mode", "monolithic-joint-oracle"],
    )
    def test_bad_engine_or_mode_refused_before_a_base(self, engine, mode, match):
        with pytest.raises(ValueError, match=match):
            run_shor_factoring(
                15, Fraction(1, 4), FixedBase(5), max_attempts=1, engine=engine, mode=mode
            )

    def test_recovered_orders_match_oracle(self):
        for seed in range(1, 8):
            result = run_shor_factoring(
                15, Fraction(1, 4), np.random.default_rng(seed), max_attempts=10,
                engine=ENGINE_MONOLITHIC,
            )
            for attempt in result.attempts:
                if attempt.record is not None and attempt.record.recovered_r is not None:
                    assert attempt.record.recovered_r == multiplicative_order(attempt.a, 15)


class TestMonolithicHasNoJointOracle:
    """The single node has no second estimate to defer: every entry point
    refuses the monolithic engine with the joint-oracle mode."""

    def test_run_shots_refuses(self):
        params = ProtocolParams.derive(15, 7, Fraction(1, 4))
        with pytest.raises(ValueError, match="joint-oracle"):
            run_shots(params, 1, seed=1, engine=ENGINE_MONOLITHIC, mode=MODE_JOINT)

    def test_run_shor_factoring_refuses(self):
        with pytest.raises(ValueError, match="joint-oracle"):
            run_shor_factoring(
                15, Fraction(1, 4), FixedBase(7), max_attempts=1,  # coprime: order finding runs
                engine=ENGINE_MONOLITHIC, mode=MODE_JOINT,
            )


def within_bound(v: int, params: ProtocolParams, r: int) -> bool:
    """Whether the stitched estimate v/2^w lies within 2^-(2L+1) of some s/r, s < r.

    Exact integers: the nearest such s is min(round(v r / 2^w), r - 1), and
    |v/2^w - s/r| <= 2^-(2L+1) iff |v r - s 2^w| 2^(2L+1) <= r 2^w.
    """
    w = params.m_width
    s = min((2 * v * r + (1 << w)) >> (w + 1), r - 1)
    return abs(v * r - (s << w)) << (2 * params.L + 1) <= r << w


SMALL_CASES = [(N, a) for N in range(3, 17) for a in range(1, N) if math.gcd(a, N) == 1]


_LAW_SUMMARIES: dict[tuple[int, int, int], tuple[bytes, float, np.ndarray]] = {}


def keep_law_summary(law: np.ndarray, N: int, a: int, inverse_epsilon: int) -> None:
    """Keep the summary of the exact sequential law of (N, a, 1/inverse_epsilon)."""
    params = ProtocolParams.derive(N, a, Fraction(1, inverse_epsilon))
    values, _ = stitched_value_distribution(law, params)
    r = multiplicative_order(a, N)
    success = sum(p for v, p in values.items() if within_bound(v, params, r))
    summary = hashlib.sha256(law.tobytes()).digest(), success, np.fromiter(values, np.int64)
    _LAW_SUMMARIES[N, a, inverse_epsilon] = summary


def sequential_law_summary(
    N: int, a: int, inverse_epsilon: int
) -> tuple[bytes, float, np.ndarray]:
    """(sha256 of the exact sequential law's bytes, its stitched success mass,
    the stitched values with mass).

    Built once per session for the tests that share it, or kept by
    ``TestFoldedEstimates`` from the law it builds; the laws themselves (up
    to 4 MiB each) are not kept.
    """
    if (N, a, inverse_epsilon) not in _LAW_SUMMARIES:
        params = ProtocolParams.derive(N, a, Fraction(1, inverse_epsilon))
        law = distributed_joint_distribution(params, MODE_SEQUENTIAL)
        keep_law_summary(law, N, a, inverse_epsilon)
    return _LAW_SUMMARIES[N, a, inverse_epsilon]


def plain_estimate(state, control, target, multiplier, modulus):
    """The two kernels that ``statevec.apply_phase_estimation`` stands for, in turn."""
    statevec = protocol.statevec
    joined = statevec.apply_controlled_modmul(state, control, target, multiplier, modulus)
    return statevec.apply_inverse_qft(joined, control.layout.names[0])


def plain_law(state, control, target, multiplier, modulus):
    """``plain_estimate``'s state, marginalized over every register but the target."""
    joined = plain_estimate(state, control, target, multiplier, modulus)
    return protocol.statevec.marginal_probabilities(joined, joined.layout.names[1:])


def assert_same_zeros_near(law: np.ndarray, ref: np.ndarray) -> None:
    assert law.shape == ref.shape
    assert np.max(np.abs(law - ref)) <= FOLD_TOL
    assert np.array_equal(law == 0, ref == 0)


@pytest.mark.blas
class TestFoldedEstimates:
    """Every exact oracle, taken from the eigenbasis factorisation, against
    the state-vector execution it stands for, and node A's folded stage
    against its controlled multiplication, then inverse QFT.  The sequential
    law is kept for ``sequential_law_summary``."""

    @pytest.mark.parametrize("inverse_epsilon", [4, 10])
    @pytest.mark.parametrize("N, a", [(2, 1), *SMALL_CASES])
    def test_laws_match_the_two_kernels(self, N, a, inverse_epsilon, monkeypatch):
        params = ProtocolParams.derive(N, a, Fraction(1, inverse_epsilon))
        statevec = protocol.statevec
        seq = distributed_joint_distribution(params, MODE_SEQUENTIAL)
        keep_law_summary(seq, N, a, inverse_epsilon)
        # The teleport is exact: both modes are one law.
        assert seq.tobytes() == distributed_joint_distribution(params, MODE_JOINT).tobytes()
        after_a = protocol._a_stage(params)
        node_a = statevec.register_probabilities(after_a, "ctrl_a")
        joined = protocol._b_stage(after_a, params)
        assert_same_zeros_near(seq, statevec.marginal_probabilities(joined, ["ctrl_a", "ctrl_b"]))
        work, control = protocol._work_one(params), protocol._uniform_control("ctrl", params.t_mono)
        want = plain_law(work, control, "work", params.a, params.N)
        assert_same_zeros_near(monolithic_exact_distribution(params), want)
        # Every first estimate starts from one row, so it takes the plain path.
        monkeypatch.setattr(statevec, "apply_phase_estimation", plain_estimate)
        want = statevec.register_probabilities(protocol._a_stage(params), "ctrl_a")
        assert np.array_equal(node_a, want)

    def test_node_b_at_33_matches_the_two_kernels(self, monkeypatch):
        params = ProtocolParams.derive(33, 2, Fraction(1, 4))
        after_a = protocol._a_stage(params)
        m1_law = protocol.statevec.register_probabilities(after_a, "ctrl_a")
        for m1 in np.flatnonzero(m1_law > 1e-3)[:4]:
            got = protocol._node_b(after_a, int(m1), params, protocol.ClassicalChannel(),
                                   np.random.default_rng(1))
            with monkeypatch.context() as patch:
                patch.setattr(protocol.statevec, "apply_phase_estimation", plain_estimate)
                want = protocol._node_b(after_a, int(m1), params, protocol.ClassicalChannel(),
                                        np.random.default_rng(1))
            assert got[0] == want[0]
            assert np.max(np.abs(got[1] - want[1])) <= FOLD_TOL
            assert np.array_equal(got[1] == 0, want[1] == 0)


def refuse_kernel(*_args):
    raise AssertionError("an exact oracle ran a simulator kernel")


class TestOraclesRunNoSimulator:
    """The exact oracles share no code with the state-vector path they are
    checked against: with its kernels and the teleport refused, the three
    laws, and the monolithic and joint-oracle shots drawn from them, are
    what they were."""

    @pytest.mark.parametrize("N, a, inverse_epsilon", [(2, 1, 4), (15, 7, 4), (13, 2, 10)])
    def test_laws_and_their_shots(self, N, a, inverse_epsilon, monkeypatch):
        params = ProtocolParams.derive(N, a, Fraction(1, inverse_epsilon))

        def run():
            laws = (monolithic_exact_distribution(params),
                    distributed_joint_distribution(params, MODE_JOINT),
                    distributed_joint_distribution(params, MODE_SEQUENTIAL))
            shots = (run_shots(params, 4, seed=1, engine=ENGINE_MONOLITHIC),
                     run_shots(params, 4, seed=1, mode=MODE_JOINT))
            return [law.tobytes() for law in laws], [
                [r.to_json_dict() for r in records] for records in shots
            ]

        want = run()
        for name in ("apply_phase_estimation", "apply_controlled_modmul", "apply_inverse_qft",
                     "_gather_table"):
            monkeypatch.setattr(protocol.statevec, name, refuse_kernel)
        monkeypatch.setattr(protocol, "teleport_register", refuse_kernel)
        assert run() == want


@pytest.mark.blas
class TestTheorem2Exact:
    """The stitched success mass of the exact sequential law is at least
    1 - epsilon on every small case, not only within sampling slack."""

    @pytest.mark.parametrize("inverse_epsilon", [4, 10])
    @pytest.mark.parametrize("N, a", SMALL_CASES)
    def test_success_mass_meets_bound(self, N, a, inverse_epsilon):
        _, success, _ = sequential_law_summary(N, a, inverse_epsilon)
        assert success >= 1 - Fraction(1, inverse_epsilon)

    @pytest.mark.parametrize("inverse_epsilon", [4, 10])
    @pytest.mark.parametrize("N, a", SMALL_CASES)
    def test_classify_outcome_matches_the_scan(self, N, a, inverse_epsilon):
        # Every stitched value v with mass against the exhaustive scan over
        # s < r in exact integers, |v/2^w - s/r| = |v r - s 2^w| / (r 2^w);
        # argmin keeps the first minimum, the smaller s on a tie.
        params = ProtocolParams.derive(N, a, Fraction(1, inverse_epsilon))
        _, _, values = sequential_law_summary(N, a, inverse_epsilon)
        r, w = multiplicative_order(a, N), params.m_width
        dist = np.abs(values[:, None] * r - (np.arange(r, dtype=np.int64) << w))
        scan = zip(values.tolist(), dist.argmin(axis=1).tolist(), dist.min(axis=1).tolist())
        for v, s, d in scan:
            record = OutcomeRecord(engine=ENGINE_DISTRIBUTED, m=BitString(w, v))
            classify_outcome(record, params, r)
            assert (record.nearest_s, record.estimation_error) == (s, Fraction(d, r << w)), v

    @pytest.mark.parametrize("N, a", [(11, 4), (15, 7)])
    def test_integer_rule_matches_classify_outcome(self, N, a):
        params = ProtocolParams.derive(N, a, Fraction(1, 4))
        r = multiplicative_order(a, N)
        joint = distributed_joint_distribution(params, MODE_SEQUENTIAL)
        values, _ = stitched_value_distribution(joint, params)
        for v in values:
            record = OutcomeRecord(engine=ENGINE_DISTRIBUTED, m=BitString(params.m_width, v))
            expected = classify_outcome(record, params, r).estimate_within_bound
            assert within_bound(v, params, r) == expected


def per_m1_law(params: ProtocolParams) -> np.ndarray:
    """The sequential law with one node-B run per m1 that has mass, as shots run it:
    ``_node_b`` projects, teleports and estimates each m1 alone."""
    after_a = protocol._a_stage(params)
    joint = np.zeros((1 << params.t1, 1 << params.t2))
    branch_rng = np.random.default_rng(0)
    for m1 in range(1 << params.t1):
        p1, cond = protocol._node_b(after_a, m1, params, protocol.ClassicalChannel(), branch_rng)
        if cond is not None:
            joint[m1, :] = p1 * cond
    return joint


@pytest.mark.blas
class TestStackedOracle:
    """The sequential oracle is the factorised law, which defers node A's
    measurement; shots measure m1 first and run node B's stage on each m1's
    teleported conditional.  By deferred measurement the two agree up to
    rounding."""

    # Conditioning on m1 (project, then remove ctrl_a), as shots do, keeps
    # the m1 whose rows of the law have mass, with the law's row sums as
    # their probabilities: the law is node A's law of m1 times node B's.
    @pytest.mark.parametrize("inverse_epsilon", [4, 10])
    @pytest.mark.parametrize("N, a", SMALL_CASES)
    def test_conditioning_is_project_then_remove(self, N, a, inverse_epsilon):
        params = ProtocolParams.derive(N, a, Fraction(1, inverse_epsilon))
        after_a = protocol._a_stage(params)
        law = distributed_joint_distribution(params, MODE_SEQUENTIAL)
        p1, live, conds = conditionals(after_a, "ctrl_a", protocol._MIN_MASS)
        assert len(conds) == live.size and (np.diff(live) > 0).all()
        assert np.array_equal(np.flatnonzero(law.any(axis=1)), live)
        assert np.max(np.abs(law.sum(axis=1) - p1)) <= FOLD_TOL

    # Every law is within the closed form's, the fold's and the teleport's
    # rounding of shots' per-m1 law, with its zeros.  N=17 a=3 (r = 16) has
    # exact zeros where the stage leaves 2.7e-35.
    @pytest.mark.parametrize(
        "N, a, inverse_epsilon",
        [(N, a, e) for N, a in [(2, 1), *SMALL_CASES] for e in (4, 10)] + [(17, 3, 4), (33, 2, 4)],
    )
    def test_law_matches_the_per_m1_stages(self, N, a, inverse_epsilon):
        params = ProtocolParams.derive(N, a, Fraction(1, inverse_epsilon))
        want = per_m1_law(params)
        assert (want >= 0).all()
        assert_near_the_stage(distributed_joint_distribution(params, MODE_SEQUENTIAL), want)

    def test_a_law_past_the_qubit_guard_folds(self):
        # N=31 a=3 at epsilon=1/4: L=6, t1=7, t2=14, and node B's multiplier
        # 19 has order P = 15 > t2, so node B's stage on one m1 never folds.
        # Node B's joined state over node A's unmeasured state would hold 27
        # qubits, past MAX_QUBITS.  The factorised law stores no state: it is
        # near shots' per-m1 stages, and holds the 16 MiB law and one chunk.
        params = ProtocolParams.derive(31, 3, Fraction(1, 4))
        assert (params.L, params.t1, params.t2) == (6, 7, 14)
        assert multiplicative_order(params.b_stage_multiplier, params.N) == 15
        assert params.L + params.t1 + params.t2 > protocol.statevec.MAX_QUBITS
        assert_near_the_stage(distributed_joint_distribution(params, MODE_SEQUENTIAL),
                              per_m1_law(params))
        law = 8 << (params.t1 + params.t2)
        tracemalloc.start()
        try:
            distributed_joint_distribution(params, MODE_SEQUENTIAL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert law < peak < law + LAW_CHUNK_BYTES + PEAK_SLACK

    def test_a_law_at_the_qubit_guard_builds(self):
        # L=8, t2=17 and r=3: node B's joined state for one m1 would hold 25
        # qubits, and over node A's unmeasured state past MAX_QUBITS, which
        # the factorised law, storing no state, never builds.
        params = ProtocolParams.derive(133, 11, Fraction(1, 4))
        assert params.L + params.t2 == protocol.statevec.MAX_QUBITS - 1
        law = distributed_joint_distribution(params, MODE_SEQUENTIAL)
        assert (law >= 0).all() and abs(law.sum() - 1) < 1e-12

    def test_holds_little_beside_the_law(self):
        # N=33 a=2: the law is 2^7 x 2^14 floats (16 MiB), its 128 m1 all
        # live; N=17 a=3: the same size, its 16 live m1 8 apart.  Beside the
        # law the oracle holds node A's r x 2^t1 estimate laws and one chunk
        # of node B's.
        for N, a in [(33, 2), (17, 3)]:
            params = ProtocolParams.derive(N, a, Fraction(1, 4))
            law = 8 << (params.t1 + params.t2)
            tracemalloc.start()
            try:
                distributed_joint_distribution(params, MODE_SEQUENTIAL)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert law < peak < law + LAW_CHUNK_BYTES + PEAK_SLACK, (N, a)


class TestBatchedTeleport:
    """Teleporting node A's work register commutes with conditioning on m1,
    the step that makes the factorised law, which defers node A's
    measurement, the law of shots, which measure m1 before the teleport:
    after one ``teleport_register`` call on node A's state the same m1 keep
    mass, and each conditional is bitwise ``teleport_register`` on that m1's
    own conditional."""

    @pytest.mark.parametrize("inverse_epsilon", [4, 10])
    @pytest.mark.parametrize("N, a", SMALL_CASES)
    def test_is_teleport_qubits_on_each_conditional(self, N, a, inverse_epsilon):
        params = ProtocolParams.derive(N, a, Fraction(1, inverse_epsilon))
        _, live, conds = conditionals(protocol._a_stage(params), "ctrl_a", protocol._MIN_MASS)
        channel, pool = ClassicalChannel(), EprPool(params.L)
        moved = teleport_register(protocol._a_stage(params), "work", channel, pool,
                                  np.random.default_rng(0))
        _, moved_live, moved_conds = conditionals(moved, "ctrl_a", protocol._MIN_MASS)
        assert np.array_equal(moved_live, live)
        rng = np.random.default_rng(1)
        for cond, got in zip(conds, moved_conds):
            want = teleport_register(cond, "work", ClassicalChannel(), EprPool(params.L), rng)
            assert got.layout == want.layout and np.array_equal(got.rows, want.rows)
            assert np.array_equal(got.block, want.block)


class TestOneNodeBLawPerM1:
    """Each Bell outcome has mass 1/4 and its fix-up restores the amplitudes
    (Bennett et al., PRL 70, 1895 (1993)), so the work register reaches node
    B bit for bit on every branch: for each m1, node A's conditional work
    state comes back from ``teleport_register`` unchanged, and ``_node_b``
    gives one P(m2 | m1) whatever Bell bits it draws.  A run can therefore
    keep one law per m1."""

    @pytest.mark.parametrize("N, a", [(21, 2), (33, 2)])
    def test_every_branch_gives_the_same_law(self, N, a):
        params = ProtocolParams.derive(N, a, Fraction(1, 4))
        after_a = protocol._a_stage(params)
        _, live, conds = conditionals(after_a, "ctrl_a", protocol._MIN_MASS)
        assert live.size == 128
        for m1, cond in zip(live, conds):
            transcripts, laws = set(), []
            for seed in range(4):
                moved = teleport_register(cond, "work", ClassicalChannel(), EprPool(params.L),
                                          np.random.default_rng(seed))
                assert np.array_equal(moved.block, cond.block)
                assert np.array_equal(moved.rows, cond.rows)
                channel = ClassicalChannel()
                _, law = protocol._node_b(after_a, m1, params, channel,
                                          np.random.default_rng(seed))
                transcripts.add(tuple(channel.transcript))
                laws.append(law)
            assert len(transcripts) > 1
            for law in laws[1:]:
                assert np.array_equal(law, laws[0])


def refuse_build(*_args):
    raise AssertionError("built the class transforms of a run that cannot fold")


@pytest.mark.blas
@pytest.mark.fresh_process
class TestKeptTransforms:
    """``statevec`` keeps node B's class transforms for one (t2, P); a stage
    that builds them gives the bits of one that finds them kept."""

    def test_node_b_stage_is_bitwise_the_same_cold_and_warm(self):
        params = ProtocolParams.derive(33, 2, Fraction(1, 4))
        st = node_b_input(params)
        transforms = protocol.statevec._uniform_transforms
        transforms.cache_clear()
        cold = protocol._b_stage(st, params)  # the stage reads its input without writing it
        warm = protocol._b_stage(st, params)
        info = transforms.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        transforms(params.t2, 5)  # 16 has order 5 mod 33: the kept key
        assert transforms.cache_info().hits == 2
        assert np.array_equal(warm.rows, cold.rows) and np.array_equal(warm.block, cold.block)

    # A shot's node-B stage runs on node A's state projected onto its m1:
    # every stage after a process's first finds the transforms kept.  One
    # single-m1 stage, cold then warm.
    @pytest.mark.parametrize("inverse_epsilon", [4, 10])
    @pytest.mark.parametrize("N, a", SMALL_CASES)
    def test_sequential_law_is_bitwise_the_same_cold(self, N, a, inverse_epsilon):
        params = ProtocolParams.derive(N, a, Fraction(1, inverse_epsilon))
        st = node_b_input(params)
        protocol.statevec._uniform_transforms.cache_clear()
        cold = protocol._b_stage(st, params)  # the stage reads its input without writing it
        warm = protocol._b_stage(st, params)
        assert np.array_equal(warm.rows, cold.rows) and np.array_equal(warm.block, cold.block)

    # Node B's stage on node A's unmeasured state, which the joint law is
    # checked against.  Its product spans every joined row: 768 at N=13 a=2
    # and epsilon=1/4, the 12 work rows beside each of 2^t1 = 64 ctrl_a values.
    @pytest.mark.parametrize("inverse_epsilon", [4, 10])
    @pytest.mark.parametrize("N, a", SMALL_CASES)
    def test_joint_node_b_stage_is_bitwise_the_same_cold(self, N, a, inverse_epsilon):
        params = ProtocolParams.derive(N, a, Fraction(1, inverse_epsilon))
        after_a = protocol._a_stage(params)
        protocol.statevec._uniform_transforms.cache_clear()
        cold = protocol._b_stage(after_a, params)  # the stage reads its input without writing it
        warm = protocol._b_stage(after_a, params)
        assert np.array_equal(warm.rows, cold.rows) and np.array_equal(warm.block, cold.block)

    def test_a_run_builds_the_transforms_once(self, monkeypatch):
        # 20 shots at N=21 a=2 run node B's stage 20 times, which builds R
        # once.  The sequential oracle, over all 2^t1 = 128 values of m1,
        # which have mass, runs no stage and never reads R.
        params = ProtocolParams.derive(21, 2, Fraction(1, 4))
        transforms = protocol.statevec._uniform_transforms
        stages = []
        stage = protocol._b_stage
        monkeypatch.setattr(protocol, "_b_stage", lambda *args: stages.append(1) or stage(*args))
        transforms.cache_clear()
        run_shots(params, 20, seed=5)
        assert (transforms.cache_info().misses, len(stages)) == (1, 20)
        transforms.cache_clear()
        law = distributed_joint_distribution(params, MODE_SEQUENTIAL)
        assert transforms.cache_info().misses == 0
        assert np.count_nonzero(law.sum(axis=1)) == 128
        assert len(stages) == 20

    @pytest.mark.parametrize("N, a", [(15, 1), (7, 2)])
    def test_a_run_that_cannot_fold_keeps_none(self, N, a, monkeypatch):
        # Node B's multiplier has the order r of a (1, and 3 for 4 = 2^2 mod
        # 7), so it maps its r rows onto F = P = r rows: the estimate runs
        # the two kernels and never builds or looks up class transforms.
        monkeypatch.setattr(protocol.statevec, "_uniform_transforms", refuse_build)
        [record] = run_shots(ProtocolParams.derive(N, a, Fraction(1, 4)), 1, seed=1)
        assert record.m2 is not None

    def test_monolithic_run_leaves_the_kept_transforms(self):
        transforms = protocol.statevec._uniform_transforms
        transforms.cache_clear()
        kept = transforms(14, 5)  # node B's at N=33 a=2
        run_shots(ProtocolParams.derive(15, 7, Fraction(1, 4)), 1, seed=1, engine=ENGINE_MONOLITHIC)
        assert transforms(14, 5) is kept

    def test_threads_build_the_first_stage_together(self):
        # Two threads start node B's N=33 stage on an empty cache, so both may
        # build the transforms; each output is the serial stage's.
        params = ProtocolParams.derive(33, 2, Fraction(1, 4))
        st = node_b_input(params)
        serial = protocol._b_stage(st, params)
        protocol.statevec._uniform_transforms.cache_clear()
        start = threading.Barrier(2)
        outs = [None, None]

        def stage(i):
            start.wait()
            outs[i] = protocol._b_stage(st, params)

        threads = [threading.Thread(target=stage, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        for out in outs:
            assert np.array_equal(out.rows, serial.rows) and np.array_equal(out.block, serial.block)


@pytest.mark.blas
class TestStreamedMarginal:
    """A folding node-B stage keeps its fold's factors; its ctrl_b marginal,
    streamed from them, has the bits of the marginal of its block, cold and
    warm, and so has the marginal of a stage whose block was read first."""

    @staticmethod
    def assert_streams_the_block_bits(params: ProtocolParams) -> bool:
        st = node_b_input(params)
        folds = []
        for case in ("cold", "warm"):
            if case == "cold":
                protocol.statevec._uniform_transforms.cache_clear()
            stage = protocol._b_stage(st, params)  # the stage reads its input without writing it
            folds.append(isinstance(stage._block, tuple))
            got = protocol.statevec.register_probabilities(stage, "ctrl_b")
            eager = protocol.statevec.StateVector(stage.layout, stage.block.copy(), stage.rows)
            want = protocol.statevec.register_probabilities(eager, "ctrl_b")
            assert got.tobytes() == want.tobytes(), case
            read_first = protocol._b_stage(st, params)
            read_first.block
            got = protocol.statevec.register_probabilities(read_first, "ctrl_b")
            assert got.tobytes() == want.tobytes(), case
        assert folds[0] == folds[1]
        return folds[0]

    @pytest.mark.parametrize("inverse_epsilon", [4, 10])
    @pytest.mark.parametrize("N, a", SMALL_CASES)
    def test_small_cases(self, N, a, inverse_epsilon):
        self.assert_streams_the_block_bits(ProtocolParams.derive(N, a, Fraction(1, inverse_epsilon)))

    @pytest.mark.parametrize("N, a", [(33, 2), (35, 3), (65, 2)])
    def test_shot_sizes(self, N, a):
        assert self.assert_streams_the_block_bits(ProtocolParams.derive(N, a, Fraction(1, 4)))

import math
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
        p = ProtocolParams.derive(33, 2, Fraction(1, 4))  # L=6, t1=7, t2=14, t_mono=15
        assert p.peak_qubits(ENGINE_MONOLITHIC) == 21
        assert p.peak_qubits(ENGINE_MONOLITHIC, MODE_JOINT) == 21
        assert p.peak_qubits(ENGINE_DISTRIBUTED) == 20
        assert p.peak_qubits(ENGINE_DISTRIBUTED, MODE_SEQUENTIAL) == 20
        assert p.peak_qubits(ENGINE_DISTRIBUTED, MODE_JOINT) == 27
        with pytest.raises(protocol.statevec.CapacityError):
            protocol.check_capacity(p, ENGINE_DISTRIBUTED, MODE_JOINT)
        protocol.check_capacity(p, ENGINE_DISTRIBUTED)

    def test_b_stage_multiplier(self):
        assert ProtocolParams.derive(15, 7).b_stage_multiplier == 4  # 7^2 mod 15
        assert ProtocolParams.derive(33, 2).b_stage_multiplier == 16  # 2^4 mod 33


PEAK_SLACK = 64 << 10  # index tables and other small arrays, far below one control vector


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
        # amplitudes (2.5 MiB).  Its stage holds that state and the 2^t2
        # control vector (0.25 MiB): the inverse QFT writes over the state.
        # The Born marginal squares its magnitudes in place.
        params = ProtocolParams.derive(33, 2, Fraction(1, 4))
        after_a = protocol._a_stage(params)
        m1 = int(np.argmax(protocol.statevec.register_probabilities(after_a, "ctrl_a")))
        _, st = protocol.statevec.project_register(after_a, "ctrl_a", m1)
        st = protocol.statevec.remove_register(st, "ctrl_a")
        block = 16 * 10 << params.t2
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
        assert stage_peak < block + block // 4
        # One float per stored amplitude, squared in place, and the marginal.
        assert marginal_peak < block // 2 + (8 << params.t2) + PEAK_SLACK


class TestWorkRegisterLeads:
    def test_first_estimate_stores_the_powers_of_the_base(self):
        params = ProtocolParams.derive(33, 2, Fraction(1, 4))
        st = protocol._first_estimate(params, "ctrl", params.t_mono)
        assert st.layout.names == ("work", "ctrl")
        assert st.rows.tolist() == sorted(pow(2, j, 33) for j in range(10))
        assert st.block.size == 10 << params.t_mono

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

    def test_monolithic_oracle_holds_one_block(self):
        # The joined state (10 work rows of 2^15 amplitudes, 5 MiB), which the
        # inverse QFT writes over, plus at most its Born magnitudes (one float
        # per amplitude) and the 2^15 control vector.
        params = ProtocolParams.derive(33, 2, Fraction(1, 4))
        block = 16 * 10 << params.t_mono
        tracemalloc.start()
        try:
            monolithic_exact_distribution(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block + block // 2 + (16 << params.t_mono) + PEAK_SLACK

    def test_joint_oracle_never_holds_a_dense_state(self):
        # The dense joint state for N=16 a=3 is 2^21 amplitudes (32 MiB); it
        # stores the 4 work values that hold amplitude (8 MiB), and the
        # marginal sums those rows alone.
        params = ProtocolParams.derive(16, 3, Fraction(1, 4))
        tracemalloc.start()
        try:
            joint = distributed_joint_distribution(params, MODE_JOINT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert joint.shape == (1 << params.t1, 1 << params.t2)
        assert peak < 32 << 20

    def test_joint_oracle_frees_the_appended_zero_state(self):
        # The N=13 a=2 joint state stores 12 work rows (24 MiB).  No
        # zero-filled widened state is built, and the inverse QFT writes over
        # the joined state, so node B's stage holds one such state.
        params = ProtocolParams.derive(13, 2, Fraction(1, 4))
        tracemalloc.start()
        try:
            distributed_joint_distribution(params, MODE_JOINT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 << 20

    def test_joint_oracle_shot_never_holds_a_dense_state(self):
        # The shot draws from the joint oracle's marginal, so it peaks no
        # higher than the oracle: below the 32 MiB dense joint state.
        params = ProtocolParams.derive(16, 3, Fraction(1, 4))
        tracemalloc.start()
        try:
            [record] = run_shots(params, 1, seed=3, mode=MODE_JOINT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record.m2 is not None
        assert peak < 32 << 20


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
    def test_sequential_shot_draws_m2_from_node_b(self, draws, seed):
        # Draw order: A's measurement, the 2L teleport bits, B's measurement.
        params = ProtocolParams.derive(13, 2, Fraction(1, 4))
        [record] = run_shots(params, 1, seed=seed)
        after_a = protocol._a_stage(params)
        m1 = record.m1.value
        assert len(draws) == 2 + 2 * params.L
        assert np.array_equal(draws[0], protocol.statevec.register_probabilities(after_a, "ctrl_a"))
        assert all(d.shape == (2,) for d in draws[1:-1])
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

    @pytest.mark.parametrize("engine, mode", CASES)
    def test_workers_leave_records_unchanged(self, engine, mode):
        params = ProtocolParams.derive(15, 2)
        serial = run_shots(params, 16, seed=9, engine=engine, mode=mode, workers=1)
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
        stitched, ok = protocol._stitch_arrays(m1.ravel(), m2.ravel(), params)
        for i, (v1, v2) in enumerate(zip(m1.ravel().tolist(), m2.ravel().tolist())):
            ref = correct_results(BitString(params.t1, v1), BitString(params.t2, v2), params)
            if ref is None:
                assert not ok[i]
            else:
                assert ok[i] and int(stitched[i]) == ref[1].value

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

        monkeypatch.setattr(protocol, "ThreadPoolExecutor", RecordingPool)
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
        class FixedBase:
            def integers(self, low, high):
                return 5  # gcd(5, 15) = 5

        result = run_shor_factoring(15, Fraction(1, 4), FixedBase(), max_attempts=1)
        assert result.factor == 5
        assert result.attempts[0].gcd_shortcut == 5
        assert result.attempts[0].record is None

    def test_recovered_orders_match_oracle(self):
        for seed in range(1, 8):
            result = run_shor_factoring(
                15, Fraction(1, 4), np.random.default_rng(seed), max_attempts=10,
                engine=ENGINE_MONOLITHIC,
            )
            for attempt in result.attempts:
                if attempt.record is not None and attempt.record.recovered_r is not None:
                    assert attempt.record.recovered_r == multiplicative_order(attempt.a, 15)


def within_bound(v: int, params: ProtocolParams, r: int) -> bool:
    """Whether the stitched estimate v/2^w lies within 2^-(2L+1) of some s/r, s < r.

    Exact integers: the nearest such s is min(round(v r / 2^w), r - 1), and
    |v/2^w - s/r| <= 2^-(2L+1) iff |v r - s 2^w| 2^(2L+1) <= r 2^w.
    """
    w = params.m_width
    s = min((2 * v * r + (1 << w)) >> (w + 1), r - 1)
    return abs(v * r - (s << w)) << (2 * params.L + 1) <= r << w


SMALL_CASES = [(N, a) for N in range(3, 17) for a in range(1, N) if math.gcd(a, N) == 1]


class TestTheorem2Exact:
    """The stitched success mass of the exact sequential law is at least
    1 - epsilon on every small case, not only within sampling slack."""

    @pytest.mark.parametrize("inverse_epsilon", [4, 10])
    @pytest.mark.parametrize("N, a", SMALL_CASES)
    def test_success_mass_meets_bound(self, N, a, inverse_epsilon):
        params = ProtocolParams.derive(N, a, Fraction(1, inverse_epsilon))
        r = multiplicative_order(a, N)
        joint = distributed_joint_distribution(params, MODE_SEQUENTIAL)
        values, _ = stitched_value_distribution(joint, params)
        success = sum(p for v, p in values.items() if within_bound(v, params, r))
        assert success >= 1 - params.epsilon

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


def plain_estimate(state, control, target, multiplier, modulus):
    """The two kernels that ``statevec.apply_phase_estimation`` stands for, in turn."""
    statevec = protocol.statevec
    joined = statevec.apply_controlled_modmul(state, control, target, multiplier, modulus)
    return statevec.apply_inverse_qft(joined, control.layout.names[0])


FOLD_TOL = 1e-15  # the fold and the per-row FFT round differently


class TestFoldedEstimates:
    """Every law from ``apply_phase_estimation`` against the same law with
    each estimate run as a controlled multiplication, then an inverse QFT."""

    @pytest.mark.parametrize("inverse_epsilon", [4, 10])
    @pytest.mark.parametrize("N, a", [(2, 1), *SMALL_CASES])
    def test_laws_match_the_two_kernels(self, N, a, inverse_epsilon, monkeypatch):
        params = ProtocolParams.derive(N, a, Fraction(1, inverse_epsilon))

        def laws():
            after_a = protocol._a_stage(params)
            return (
                protocol.statevec.register_probabilities(after_a, "ctrl_a"),
                monolithic_exact_distribution(params),
                distributed_joint_distribution(params, MODE_JOINT),
                distributed_joint_distribution(params, MODE_SEQUENTIAL),
            )

        node_a, mono, joint, seq = laws()
        monkeypatch.setattr(protocol.statevec, "apply_phase_estimation", plain_estimate)
        want = laws()
        # Every first estimate starts from one row, so it takes the plain path.
        assert np.array_equal(node_a, want[0]) and np.array_equal(mono, want[1])
        for got, ref in ((joint, want[2]), (seq, want[3])):
            assert np.max(np.abs(got - ref)) <= FOLD_TOL
            assert np.array_equal(got == 0, ref == 0)

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

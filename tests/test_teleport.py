import itertools
import math

import numpy as np
import pytest

from disq import statevec
from disq.statevec import RegisterLayout, StateVector, init_basis, marginal_probabilities
from disq.teleport import ClassicalChannel, EprPool, EprPoolError, teleport_register
from conditionals import conditionals

FIDELITY_TOL = 1e-12
DIST_TOL = 1e-10


class _ForcedRng:
    """Stub generator whose random() walks a fixed list of uniforms.

    With inverse-CDF sampling over equally likely bits, a uniform below
    0.5 forces outcome 0 and one above forces outcome 1.
    """

    def __init__(self, uniforms):
        self._uniforms = list(uniforms)

    def random(self):
        return self._uniforms.pop(0)


def random_state(layout: RegisterLayout, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << layout.n) + 1j * rng.normal(size=1 << layout.n)
    return StateVector.from_amplitudes(layout, amps / np.linalg.norm(amps))


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return abs(np.vdot(a, b)) ** 2


class TestAccounting:
    def test_channel_tracks_bit_count(self):
        ch = ClassicalChannel()
        ch.send(1)
        ch.send(0)
        assert ch.bit_count == 2 and ch.transcript == [1, 0]
        with pytest.raises(ValueError):
            ch.send(2)

    def test_pool_depletion(self):
        pool = EprPool(allocated=2)
        pool.consume(2)
        assert pool.available == 0
        with pytest.raises(EprPoolError):
            pool.consume(1)

    @pytest.mark.parametrize("k", [0, -1])
    def test_pool_rejects_counts_below_one(self, k):
        pool = EprPool(allocated=2)
        with pytest.raises(ValueError):
            pool.consume(k)
        assert pool.available == 2

    def test_register_costs_width_pairs_and_twice_width_bits(self):
        st = random_state(RegisterLayout.of(("c", 4)), 3)
        ch, pool = ClassicalChannel(), EprPool(allocated=4)
        teleport_register(st, "c", ch, pool, np.random.default_rng(5))
        assert ch.bit_count == 8
        assert pool.consumed == 4

    def test_insufficient_pool_raises_before_touching_state(self):
        st = random_state(RegisterLayout.of(("c", 3)), 4)
        with pytest.raises(EprPoolError):
            teleport_register(st, "c", ClassicalChannel(), EprPool(allocated=2),
                              np.random.default_rng(0))


class TestFidelity:
    def test_basis_zero(self):
        st = init_basis(RegisterLayout.of(("c", 1)))
        out = teleport_register(st, "c", ClassicalChannel(), EprPool(1),
                                np.random.default_rng(0))
        assert fidelity(out.amps, st.amps) >= 1 - FIDELITY_TOL

    @pytest.mark.parametrize("z,x", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_every_correction_branch_restores_the_state(self, z, x):
        rng = np.random.default_rng(97)
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        st = StateVector.from_amplitudes(RegisterLayout.of(("c", 1)), amps)
        ch = ClassicalChannel()
        forced = _ForcedRng([0.25 + 0.5 * z, 0.25 + 0.5 * x])
        out = teleport_register(st, "c", ch, EprPool(1), forced)
        assert ch.transcript == [z, x]
        assert np.array_equal(out.amps, st.amps)

    def test_random_multiqubit_register(self):
        st = random_state(RegisterLayout.of(("c", 4)), 11)
        out = teleport_register(st, "c", ClassicalChannel(), EprPool(4),
                                np.random.default_rng(13))
        assert fidelity(out.amps, st.amps) >= 1 - FIDELITY_TOL


class TestEntanglementPreservation:
    def test_joint_distribution_with_untouched_register_is_preserved(self):
        # register c entangled with a; teleporting c must leave the exact
        # joint outcome distribution over (a, c) unchanged
        layout = RegisterLayout.of(("a", 3), ("c", 2))
        st = random_state(layout, 17)
        before = marginal_probabilities(st, ["a", "c"])
        out = teleport_register(st, "c", ClassicalChannel(), EprPool(2),
                                np.random.default_rng(19))
        after = marginal_probabilities(out, ["a", "c"])
        assert np.max(np.abs(before - after)) < DIST_TOL

    def test_amplitudes_identical_on_every_branch(self):
        # stronger than distribution equality: the state itself comes back
        layout = RegisterLayout.of(("a", 2), ("c", 1))
        st = random_state(layout, 23)
        for z in (0, 1):
            for x in (0, 1):
                out = teleport_register(
                    st, "c", ClassicalChannel(), EprPool(1),
                    _ForcedRng([0.25 + 0.5 * z, 0.25 + 0.5 * x]),
                )
                assert np.array_equal(out.amps, st.amps)


class TestBellOutcomeLaw:
    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("seed", [31, 37, 41])
    def test_every_branch_has_mass_one_quarter(self, width, seed):
        # A Bell bit is 0 when its uniform is below 1/2, on every state: a
        # uniform just below 0.5 picks 0 and one just above picks 1, so
        # P(z = 0) and P(x = 0 | z) are 1/2 and every (z, x) has mass 1/4.
        st = random_state(RegisterLayout.of(("c", width)), seed)
        for bits in itertools.product((0, 1), repeat=2 * width):
            ch = ClassicalChannel()
            forced = _ForcedRng([0.5 + (2 * b - 1) * 1e-9 for b in bits])
            teleport_register(st, "c", ch, EprPool(width), forced)
            assert ch.transcript == list(bits)

    @pytest.mark.parametrize("seed", [3, 15, 34])
    def test_a_bit_is_zero_exactly_below_one_half(self, seed):
        # The threshold is 1/2 itself, not a branch mass summed from the
        # state: for these states such sums differ from 1/4 in the last bit.
        below = np.nextafter(0.5, 0.0)
        st = random_state(RegisterLayout.of(("c", 2)), seed)
        ch = ClassicalChannel()
        teleport_register(st, "c", ch, EprPool(2), _ForcedRng([below, 0.5] * 2))
        assert ch.transcript == [0, 1] * 2


def four_branch_teleport(state: StateVector, reg: str, rng: np.random.Generator):
    """Reference Bell-measurement kernel: builds all four (z, x) branches of
    each qubit, draws one from their computed masses, and undoes its fix-up
    on the kept branch, rescaled by its mass."""
    rows, a = statevec._reg_axis(state, reg)
    before = a.shape[0]
    sign = np.array([1, -1])[:, None]  # (-1)^q along the qubit axis
    bits = []
    for k in range(state.layout.width(reg)):
        a = a.reshape(before << k, 2, -1)
        phased = 0.5 * np.stack([a, a * sign])  # [z]: the x = 0 branch
        branches = np.stack([phased, phased[:, :, ::-1]], axis=1)  # [z, x]
        p = np.sum(np.abs(branches) ** 2, axis=(2, 3, 4))
        z = statevec.draw(p.sum(axis=1), rng)
        x = statevec.draw(p[z] / p[z].sum(), rng)
        out = branches[z, x]
        if x:
            out = out[:, ::-1]
        if z:
            out = out * sign
        a = out / math.sqrt(p[z, x])
        bits.append((z, x))
    if rows is None and state.rows is not None:
        rows = state.rows
        a = a.reshape(1 << state.layout.registers[0][1], -1)[rows]
    return StateVector(state.layout, a.reshape(-1), rows), bits


TELEPORT_TOL = 1e-15  # rounding of the four-branch reference's rescale and of conditioning


class TestFairBitsPassThrough:
    """``teleport_qubits`` draws each Bell bit over (1/2, 1/2) and hands the
    register over bit for bit: it gives the bits and generator state of the
    four-branch reference, which draws from the branches' computed masses,
    the input's amplitudes and rows bitwise, and the reference's amplitudes
    within its rescaling's rounding."""

    @pytest.mark.parametrize(
        "regs, compact",
        [
            ([("c", 1)], False),
            ([("c", 2)], False),
            ([("c", 3)], False),
            ([("a", 2), ("c", 4), ("b", 3)], False),
            ([("a", 3), ("c", 6)], False),
            ([("c", 3)], True),
            ([("c", 4), ("a", 5)], True),
        ],
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_four_branch_reference(self, regs, compact, seed):
        st = random_state(RegisterLayout.of(*regs), seed)
        if compact:  # c leads and stores rows 1, 3, 4 and 7
            rows = np.array([1, 3, 4, 7])
            lead = st.amps.reshape(1 << regs[0][1], -1)[rows]
            st = StateVector(st.layout, (lead / np.linalg.norm(lead)).reshape(-1), rows)
        rngs = np.random.default_rng(seed + 50), np.random.default_rng(seed + 50)
        got, bits = statevec.teleport_qubits(st, "c", rngs[0])
        want, want_bits = four_branch_teleport(st, "c", rngs[1])
        assert bits == want_bits
        assert rngs[0].random() == rngs[1].random()
        assert np.array_equal(got.block, st.block) and np.array_equal(got.rows, st.rows)
        assert np.array_equal(want.rows, st.rows)
        assert np.max(np.abs(want.block - st.block)) <= TELEPORT_TOL

    @pytest.mark.parametrize("reg", ["a", "c"])
    def test_result_owns_its_amplitudes(self, reg):
        # The Fourier transforms write over the block they are given, so a
        # teleport that handed back the input's block would let one change both.
        st = random_state(RegisterLayout.of(("a", 2), ("c", 3)), 5)
        kept = st.block.copy()
        out, _ = statevec.teleport_qubits(st, "c", np.random.default_rng(0))
        statevec.apply_qft(out, reg)
        assert not np.array_equal(out.block, kept)
        assert np.array_equal(st.block, kept)


def shared_states(regs, compact: bool, count: int, seed: int) -> list[StateVector]:
    """``count`` random states on one layout; with ``compact``, c leads and
    each stores rows 1, 3, 4 and 7."""
    states = [random_state(RegisterLayout.of(*regs), seed + i) for i in range(count)]
    if not compact:
        return states
    rows = np.array([1, 3, 4, 7])
    out = []
    for st in states:
        lead = st.amps.reshape(1 << regs[0][1], -1)[rows]
        out.append(StateVector(st.layout, (lead / np.linalg.norm(lead)).reshape(-1), rows))
    return out


def superposed(states: list[StateVector], name: str) -> StateVector:
    """The states, equally weighted, as the values of a new last register ``name``."""
    width = max(1, (len(states) - 1).bit_length())
    block = np.zeros((states[0].block.size, 1 << width), complex)
    block[:, : len(states)] = np.stack([st.block for st in states], axis=1) / math.sqrt(len(states))
    return StateVector(states[0].layout.appended(name, width), block.reshape(-1), states[0].rows)


class TestTeleportCommutesWithMeasuring:
    """Teleporting states at once: ``teleport_qubits`` on their superposition
    over a register "m", then conditioning on each value of m (project, then
    remove m), gives each state as ``teleport_qubits`` gives it alone, up to
    the rounding of conditioning.  A teleport gives back the input's
    amplitudes on every branch, so it commutes with measuring m; on that
    ground shots, which measure m1 before the teleport, sample the exact
    law, which defers that measurement."""

    @pytest.mark.parametrize(
        "regs, compact",
        [
            ([("c", 1)], False),
            ([("c", 3)], False),
            ([("a", 2), ("c", 4), ("b", 3)], False),
            ([("a", 3), ("c", 6)], False),
            ([("c", 3)], True),
            ([("c", 4), ("a", 5)], True),
        ],
    )
    @pytest.mark.parametrize("count", [1, 5])
    def test_is_teleport_qubits_on_each_state(self, regs, compact, count):
        states = shared_states(regs, compact, count, seed=7 * count)
        moved, _ = statevec.teleport_qubits(superposed(states, "m"), "c", np.random.default_rng(0))
        _, values, conds = conditionals(moved, "m", 1e-300)
        assert values.tolist() == list(range(count))
        rng = np.random.default_rng(count)
        for st, got in zip(states, conds):
            want, _ = statevec.teleport_qubits(st, "c", rng)
            assert got.layout == want.layout
            assert (got.rows is None) == (want.rows is None)
            assert want.rows is None or np.array_equal(got.rows, want.rows)
            assert np.max(np.abs(got.block - want.block)) <= TELEPORT_TOL

    def test_norm_drift_raises(self):
        # Amplitudes whose squared norm is 4 are not a state.
        st = shared_states([("c", 2), ("m", 2)], False, 1, seed=1)[0]
        doubled = StateVector(st.layout, 2 * st.block)
        with pytest.raises(RuntimeError, match="drifted"):
            statevec.teleport_qubits(doubled, "c", np.random.default_rng(0))

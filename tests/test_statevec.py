import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from disq import statevec
from disq.bitstrings import BitString, circular_distance, fraction_bits
from disq.teleport import ClassicalChannel, EprPool, teleport_register
from disq.numeric import ceil_log2, multiplicative_order
from disq.statevec import (
    CapacityError,
    RegisterLayout,
    StateVector,
    apply_controlled_modmul,
    apply_hadamard_register,
    apply_inverse_qft,
    apply_phase_estimation,
    apply_qft,
    init_basis,
    marginal_probabilities,
    measure_register,
    phase_superposition,
    project_register,
    register_probabilities,
    remove_register,
)
from law_checks import FOLD_TOL

ALGEBRA_TOL = 1e-10
DIST_TOL = 1e-9


def random_state(layout: RegisterLayout, rng: np.random.Generator) -> StateVector:
    amps = rng.normal(size=1 << layout.n) + 1j * rng.normal(size=1 << layout.n)
    return StateVector.from_amplitudes(layout, amps / np.linalg.norm(amps))


def fourier_matrix(t: int) -> np.ndarray:
    """Independent dense oracle: W[k, j] = e^{2 pi i jk / 2^t} / 2^(t/2)."""
    dim = 1 << t
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="xy")
    return np.exp(2j * np.pi * j * k / dim) / math.sqrt(dim)


def hadamard_reference(state: StateVector, reg: str) -> np.ndarray:
    """Independent dense oracle: H^(x)w built by kron, applied along the register axis."""
    w = state.layout.width(reg)
    h = np.ones((1, 1))
    for _ in range(w):
        h = np.kron(h, np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    a = state.amps.reshape(1 << state.layout.offset(reg), 1 << w, -1)
    return np.einsum("kj,bjc->bkc", h, a).reshape(-1)


def fresh_lead(layout: RegisterLayout, rest: np.ndarray) -> StateVector:
    """The leading register in |0..0>, the others holding ``rest``: row 0 stored alone."""
    return StateVector(layout, np.array(rest, dtype=complex), np.array([0]))


def test_public_names_resolve():
    import disq

    for name in disq.__all__:
        assert getattr(disq, name) is not None
    for gone in ("outcome_distribution", "apply_h_qubit", "sample_register"):
        assert not hasattr(disq, gone) and not hasattr(statevec, gone)
    for gone in ("run_monolithic_order_finding", "run_distributed_order_finding"):
        assert not hasattr(disq, gone) and not hasattr(disq.protocol, gone)
    assert not hasattr(BitString, "bit")


def born_reference(state: StateVector, regs: list[str]) -> np.ndarray:
    """Independent oracle for the Born marginal's fixed order, from the dense vector.

    re^2 and im^2 are kept apart; a dropped leading register's rows are
    added one after another in a Python loop, then the other dropped
    registers are summed, then re^2 + im^2 is formed.
    """
    names = list(state.layout.names)
    a = state.amps.reshape([1 << w for _, w in state.layout.registers])
    squares = np.stack([a.real**2, a.imag**2], axis=-1)
    drop = [i for i, name in enumerate(names) if name not in regs]
    if drop and drop[0] == 0:
        total = squares[0].copy()
        for row in squares[1:]:
            total = total + row
        squares, drop = total, [i - 1 for i in drop[1:]]
    if drop:
        squares = squares.sum(axis=tuple(drop))
    probs = squares[..., 0] + squares[..., 1]
    order = [name for name in names if name in regs]
    return probs.transpose([order.index(name) for name in regs])


def op_as_matrix(op, t: int) -> np.ndarray:
    layout = RegisterLayout.of(("r", t))
    dim = 1 << t
    cols = np.empty((dim, dim), dtype=complex)
    for v in range(dim):
        cols[:, v] = op(init_basis(layout, {"r": v}), "r").amps
    return cols


class TestLayout:
    def test_offsets_msb_first(self):
        layout = RegisterLayout.of(("a", 2), ("b", 3), ("c", 1))
        assert layout.n == 6
        assert layout.offset("a") == 0
        assert layout.offset("b") == 2
        assert layout.offset("c") == 5

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            RegisterLayout.of(("a", 2), ("a", 3))

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            RegisterLayout.of(("big", statevec.MAX_QUBITS + 1))

    def test_unknown_register(self):
        layout = RegisterLayout.of(("a", 2))
        with pytest.raises(ValueError):
            layout.offset("zzz")


class TestInitBasis:
    def test_places_amplitude_at_packed_index(self):
        st = init_basis(RegisterLayout.of(("a", 2), ("c", 2)), {"a": 0, "c": 1})
        assert st.amps[0b0001] == 1.0
        assert np.count_nonzero(st.amps) == 1

    def test_single_register_value(self):
        st = init_basis(RegisterLayout.of(("c", 4)), {"c": 1})
        assert st.amps[1] == 1.0
        st = init_basis(RegisterLayout.of(("a", 1)), {"a": 1})
        assert st.amps[1] == 1.0

    def test_missing_registers_default_to_zero(self):
        st = init_basis(RegisterLayout.of(("a", 2), ("b", 2)), {"b": 3})
        assert st.amps[0b0011] == 1.0

    def test_value_out_of_range(self):
        with pytest.raises(ValueError):
            init_basis(RegisterLayout.of(("a", 2)), {"a": 4})

    @pytest.mark.parametrize(
        "regs, values",
        [([("a", 2), ("c", 3)], {"a": 2, "c": 5}), ([("c", 4)], {"c": 9}), ([("a", 1)], {})],
    )
    def test_stores_the_one_row_it_sets(self, regs, values):
        layout = RegisterLayout.of(*regs)
        st = init_basis(layout, values)
        lead, width = regs[0]
        assert st.rows.tolist() == [values.get(lead, 0)]
        assert st.block.size == 1 << (layout.n - width)
        index = 0
        for name, w in regs:
            index = (index << w) | values.get(name, 0)
        dense = np.zeros(1 << layout.n, dtype=complex)
        dense[index] = 1.0
        assert np.array_equal(st.amps, dense)

    def test_empty_layout_is_one_dense_amplitude(self):
        st = init_basis(RegisterLayout.of())
        assert st.rows is None and st.amps.tolist() == [1.0]


class TestHadamard:
    """The Hadamard layer takes a fresh leading register, as ``init_basis``
    builds it, to the uniform superposition and refuses every other state;
    the layer on any other state is ``hadamard_reference``."""

    def test_uniform_superposition(self):
        st = apply_hadamard_register(init_basis(RegisterLayout.of(("r", 2))), "r")
        assert st.rows is None and st.amps.tolist() == [0.5] * 4

    def test_single_qubit_column(self):
        s = 1 / math.sqrt(2)
        st = apply_hadamard_register(init_basis(RegisterLayout.of(("r", 1))), "r")
        assert st.amps.tolist() == [s, s]
        one = init_basis(RegisterLayout.of(("r", 1)), {"r": 1})
        assert np.allclose(hadamard_reference(one, "r"), [s, -s], atol=ALGEBRA_TOL)
        with pytest.raises(ValueError, match="only row 0"):
            apply_hadamard_register(one, "r")

    def test_involution(self):
        # The kron-built layer undoes the fill, whatever the other registers hold.
        rng = np.random.default_rng(2)
        rest = random_state(RegisterLayout.of(("b", 2)), rng).amps
        layout = RegisterLayout.of(("a", 3), ("b", 2))
        filled = apply_hadamard_register(fresh_lead(layout, rest), "a")
        back = hadamard_reference(filled, "a")
        assert np.allclose(back, fresh_lead(layout, rest).amps, atol=1e-12)

    @pytest.mark.parametrize("t", [1, 5, 14])
    def test_fresh_control_never_reads_the_dense_vector(self, t, monkeypatch):
        def no_dense(_self):
            raise AssertionError("the Hadamard layer read StateVector.amps")

        monkeypatch.setattr(StateVector, "amps", property(no_dense))
        st = apply_hadamard_register(init_basis(RegisterLayout.of(("ctrl", t))), "ctrl")
        assert st.rows is None and st.block.shape == (1 << t,)
        # 2^(-t/2) as the fill rounds it: for odd t, pow(2, -t/2) is one ulp off
        assert (st.block == 1 / math.sqrt(1 << t)).all()

    @pytest.mark.parametrize("case", ["not-leading", "dense", "other-rows"])
    def test_refuses_before_allocating(self, case, monkeypatch):
        layout = RegisterLayout.of(("a", 2), ("r", 3))
        state, reg = {
            "not-leading": (init_basis(layout), "r"),
            "dense": (StateVector(layout, init_basis(layout).amps.copy()), "a"),
            "other-rows": (StateVector(layout, np.ones(8, complex) / 8**0.5, np.array([1])), "a"),
        }[case]
        monkeypatch.setattr(statevec, "np", None)  # a numpy call raises AttributeError
        with pytest.raises(ValueError, match="must lead|only row 0"):
            apply_hadamard_register(state, reg)

    def test_acts_only_on_named_register(self):
        st = init_basis(RegisterLayout.of(("a", 1), ("b", 1)), {"b": 1})
        st = apply_hadamard_register(st, "a")
        probs = register_probabilities(st, "b")
        assert probs[1] == pytest.approx(1.0, abs=ALGEBRA_TOL)

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("width", [3, 4])
    def test_direct_fill_matches_per_qubit_path(self, position, width):
        # The other registers hold a random entangled state; r holds |0..0>.
        # r is filled where it leads, as a register prepared alone is, and
        # moved into place; the per-qubit reference works in place.
        others = [("a", 2), ("b", 3)]
        regs = others[:position] + [("r", width)] + others[position:]
        rng = np.random.default_rng(width + 10 * position)
        rest = random_state(RegisterLayout.of(*others), rng)
        fresh = fresh_lead(RegisterLayout.of(("r", width), *others), rest.amps)
        filled = apply_hadamard_register(fresh, "r")
        split = 1 << sum(w for _, w in others[:position])
        moved = filled.amps.reshape(1 << width, split, -1).transpose(1, 0, 2).reshape(-1)
        zero = np.zeros((split, 1 << width, rest.amps.size // split), complex)
        zero[:, 0, :] = rest.amps.reshape(split, -1)
        per_qubit = hadamard_reference(StateVector(RegisterLayout.of(*regs), zero.reshape(-1)), "r")
        assert np.max(np.abs(moved - per_qubit)) <= 1e-15

    @pytest.mark.parametrize("values", [None, {"r": 2}])
    def test_register_off_zero_is_refused(self, values):
        # Off the lead, off |0..0> or dense: the layer on these is the reference's.
        layout = RegisterLayout.of(("a", 2), ("r", 3), ("b", 1))
        if values is None:
            st = random_state(layout, np.random.default_rng(4))
        else:
            st = init_basis(layout, values)
        with pytest.raises(ValueError, match="must lead"):
            apply_hadamard_register(st, "r")
        lead = RegisterLayout.of(("r", 3), ("a", 2), ("b", 1))
        moved = st.amps.reshape(4, 8, 2).transpose(1, 0, 2).reshape(-1)
        with pytest.raises(ValueError, match="only row 0"):
            apply_hadamard_register(StateVector(lead, moved.copy()), "r")

    def test_input_state_is_not_modified(self):
        st = init_basis(RegisterLayout.of(("r", 3), ("w", 2)), {"w": 1})
        before = st.amps.copy()
        apply_hadamard_register(st, "r")
        assert np.array_equal(st.amps, before)


def join_reference(state: StateVector, control: StateVector, multiplier: int, modulus: int):
    """Dense reference for the join: kron(state, control), then the basis permutation.

    Leading value x under control value j goes to multiplier^j * x mod modulus;
    values >= modulus stay.  Returns the full amplitude vector.
    """
    n_tgt, n_ctrl = 1 << state.layout.registers[0][1], 1 << control.n
    src = np.kron(state.amps, control.amps).reshape(n_tgt, -1, n_ctrl)
    expected = np.zeros_like(src)
    for x in range(n_tgt):
        for j in range(n_ctrl):
            y = pow(multiplier, j, modulus) * x % modulus if x < modulus else x
            expected[y, :, j] = src[x, :, j]
    return expected.reshape(-1)


def random_control(t: int, seed: int) -> StateVector:
    return random_state(RegisterLayout.of(("ctrl", t)), np.random.default_rng(seed))


def uniform_control(t: int) -> StateVector:
    return apply_hadamard_register(init_basis(RegisterLayout.of(("ctrl", t))), "ctrl")


def basis_control(t: int, j: int, name: str = "ctrl") -> StateVector:
    return init_basis(RegisterLayout.of((name, t)), {name: j})


class TestControlledModMul:
    """The controlled multiplication joins a one-register control state as the
    last register; every expectation is built here from kron and the basis
    permutation."""

    def test_power_of_control_value(self):
        # control 2, multiplier 7 mod 15: target 1 -> 7^2 = 49 = 4 (mod 15)
        st = init_basis(RegisterLayout.of(("work", 4)), {"work": 1})
        st = apply_controlled_modmul(st, basis_control(3, 2), "work", 7, 15)
        assert st.layout.names == ("work", "ctrl")
        assert register_probabilities(st, "work")[4] == pytest.approx(1.0)
        assert register_probabilities(st, "ctrl")[2] == pytest.approx(1.0)

    def test_zero_control_is_identity(self):
        st = init_basis(RegisterLayout.of(("work", 4)), {"work": 6})
        st = apply_controlled_modmul(st, basis_control(3, 0), "work", 7, 15)
        assert register_probabilities(st, "work")[6] == pytest.approx(1.0)

    def test_node_b_style_multiplier(self):
        # multiplier 4 on target 1 mod 33
        st = init_basis(RegisterLayout.of(("work", 6)), {"work": 1})
        st = apply_controlled_modmul(st, basis_control(2, 1), "work", 4, 33)
        assert register_probabilities(st, "work")[4] == pytest.approx(1.0)

    def test_values_at_or_above_modulus_are_fixed(self):
        for x in (15,):
            st = init_basis(RegisterLayout.of(("work", 4)), {"work": x})
            control = random_control(2, seed=x)
            got = apply_controlled_modmul(st, control, "work", 7, 15)
            assert got.rows.tolist() == [x]
            assert register_probabilities(got, "work")[x] == pytest.approx(1.0)
            assert np.array_equal(got.amps, np.kron(st.amps, control.amps))

    def test_inverse_multiplier_undoes(self):
        # Each control value j multiplies by 7^j and a second join, holding
        # the same j, by 7^-j mod 18: the work register is back where it was.
        st = random_state(RegisterLayout.of(("work", 5), ("x", 1)), np.random.default_rng(8))
        inverse = pow(7, -1, 18)
        for j in (0, 1, 5, 11):
            fwd = apply_controlled_modmul(st, basis_control(4, j), "work", 7, 18)
            back = apply_controlled_modmul(fwd, basis_control(4, j, "c2"), "work", inverse, 18)
            expected = np.kron(np.kron(st.amps, basis_control(4, j).amps), basis_control(4, j).amps)
            assert np.array_equal(back.amps, expected)
        control = random_control(4, seed=3)
        got = apply_controlled_modmul(st, control, "work", inverse, 18)
        assert np.array_equal(got.amps, join_reference(st, control, inverse, 18))

    def test_joins_the_control_after_every_register(self):
        st = init_basis(RegisterLayout.of(("work", 4), ("x", 2)), {"work": 1, "x": 3})
        got = apply_controlled_modmul(st, basis_control(3, 2), "work", 7, 15)
        assert got.layout.registers == (("work", 4), ("x", 2), ("ctrl", 3))
        assert register_probabilities(got, "work")[4] == pytest.approx(1.0)
        assert register_probabilities(got, "x")[3] == pytest.approx(1.0)

    def test_is_a_permutation(self):
        # column-by-column image of the basis is a permutation of the basis
        seen = set()
        for v in range(1 << 5):
            ctrl, work = divmod(v, 8)
            st = init_basis(RegisterLayout.of(("work", 3)), {"work": work})
            st = apply_controlled_modmul(st, basis_control(2, ctrl), "work", 3, 7)
            image = int(np.argmax(np.abs(st.amps)))
            assert abs(st.amps[image]) == pytest.approx(1.0)
            seen.add(image)
        assert len(seen) == 1 << 5

    @pytest.mark.parametrize(
        "regs",
        [
            [("work", 4)],  # node B and the first estimate: the work register alone
            [("work", 4), ("x", 2)],  # the joint layout: a register between work and control
            [("work", 4), ("x", 1), ("y", 2)],
        ],
    )
    @pytest.mark.parametrize("control", ["uniform", "random"])
    @pytest.mark.parametrize("stored", ["dense", "compact"])
    def test_matches_reference(self, regs, control, stored):
        st = row_sparse_state(regs, [0, 1, 2, 7, 12, 14], seed=len(regs))
        if stored == "compact":
            st = compact_twin(st)
        ctrl = uniform_control(3) if control == "uniform" else random_control(3, seed=5)
        got = apply_controlled_modmul(st, ctrl, "work", 7, 13)
        assert got.layout.names == (*st.layout.names, "ctrl")
        assert np.array_equal(got.amps, join_reference(st, ctrl, 7, 13))

    @pytest.mark.parametrize("multiplier", [1, 14, 3, 7, 12])  # orders 1, 1, 3, 12, 2 mod 13
    @pytest.mark.parametrize("t", [1, 2, 3, 5])
    def test_any_period(self, multiplier, t):
        # A period that does not divide 2^t is cut short at the last control
        # value; period 1 copies the state into every control value.
        st = compact_twin(row_sparse_state([("work", 4), ("x", 1)], [1, 5, 8], seed=t))
        control = random_control(t, seed=multiplier)
        got = apply_controlled_modmul(st, control, "work", multiplier, 13)
        assert np.array_equal(got.amps, join_reference(st, control, multiplier, 13))

    @pytest.mark.parametrize("live_rows", [[1, 2], [1, 3, 9], [14, 5], [2, 15]])
    @pytest.mark.parametrize("regs", [[("work", 4)], [("work", 4), ("x", 1), ("y", 1)]])
    def test_image_of_rows_not_closed_under_multiplier(self, live_rows, regs):
        # Only live_rows are stored.  3 has order 3 mod 13, so {1, 2} maps
        # onto {1, 3, 9, 2, 6, 5}: an image larger than the stored rows, whose
        # new rows read the zero row; 15 >= 13 is a fixed point.
        dense = row_sparse_state(regs, live_rows, seed=len(live_rows))
        st = compact_twin(dense)
        assert st.rows.tolist() == sorted(live_rows)
        control = random_control(3, seed=1)
        image = {pow(3, j, 13) * v % 13 if v < 13 else v for v in live_rows for j in range(8)}
        got = apply_controlled_modmul(st, control, "work", 3, 13)
        assert got.rows.tolist() == sorted(image)
        assert np.array_equal(got.amps, join_reference(dense, control, 3, 13))
        assert np.array_equal(got.amps, apply_controlled_modmul(dense, control, "work", 3, 13).amps)

    def test_image_of_every_row_is_stored_dense(self):
        st = random_state(RegisterLayout.of(("work", 3)), np.random.default_rng(6))
        got = apply_controlled_modmul(st, uniform_control(2), "work", 3, 7)
        assert got.rows is None and got.block.size == 8 * 4

    def test_preimage_cycle_holds_inverse_powers(self):
        table = statevec._preimage_cycle(16, 7, 15)
        assert table[1].tolist() == [1, 13, 4, 7]  # 7^-1 = 13 mod 15
        assert table[15].tolist() == [15, 15, 15, 15]  # values >= modulus are fixed

    def test_input_states_are_not_modified(self):
        st = compact_twin(row_sparse_state([("work", 4), ("x", 1)], [1, 5], seed=2))
        control = random_control(3, seed=2)
        before = (st.block.copy(), control.amps.copy())
        apply_controlled_modmul(st, control, "work", 7, 13)
        assert np.array_equal(st.block, before[0]) and np.array_equal(control.amps, before[1])

    def test_non_coprime_multiplier_rejected(self):
        st = init_basis(RegisterLayout.of(("work", 4)), {"work": 1})
        with pytest.raises(ValueError, match="not invertible"):
            apply_controlled_modmul(st, uniform_control(2), "work", 6, 15)

    def test_narrow_target_rejected(self):
        st = init_basis(RegisterLayout.of(("work", 3)), {"work": 1})
        with pytest.raises(ValueError, match="too narrow"):
            apply_controlled_modmul(st, uniform_control(2), "work", 7, 15)

    def test_non_leading_target_rejected(self):
        st = init_basis(RegisterLayout.of(("x", 1), ("work", 4)), {"work": 1})
        with pytest.raises(ValueError, match="must lead"):
            apply_controlled_modmul(st, uniform_control(2), "work", 7, 15)

    def test_control_of_several_registers_rejected(self):
        st = init_basis(RegisterLayout.of(("work", 4)), {"work": 1})
        control = init_basis(RegisterLayout.of(("ctrl", 2), ("c2", 1)))
        with pytest.raises(ValueError, match="one-register"):
            apply_controlled_modmul(st, control, "work", 7, 15)

    def test_too_wide_join_raises_before_allocating(self, monkeypatch):
        # Both inputs store one amplitude; the joined layout is past the guard.
        st = StateVector(
            RegisterLayout.of(("work", statevec.MAX_QUBITS - 1)), np.ones(1, complex), np.array([1])
        )
        control = StateVector(RegisterLayout.of(("ctrl", 2)), np.ones(1, complex), np.array([0]))

        def no_table(*_args):
            raise AssertionError("built the preimage table of a refused join")

        monkeypatch.setattr(statevec, "_preimage_cycle", no_table)
        statevec._gather_table.cache_clear()
        with pytest.raises(CapacityError):
            apply_controlled_modmul(st, control, "work", 3, 7)
        with pytest.raises(CapacityError):
            apply_phase_estimation(st, control, "work", 3, 7)
        info = statevec._gather_table.cache_info()
        assert info.misses == info.hits == info.currsize == 0  # no table looked up or kept


@pytest.mark.blas
@pytest.mark.fresh_process
class TestGatherTables:
    """``_join_table`` keeps its gather table per (row set, sizes,
    multiplier mod N); a call that finds it gives the output of one that
    builds it, and no caller can write to it."""

    @pytest.mark.parametrize(
        "stored, live_rows, multiplier",
        [
            ("dense", [0, 1, 2, 7, 12, 14], 7),
            ("compact", [0, 1, 2, 7, 12, 14], 7),
            ("compact", [1, 2], 3),  # {1, 2} is not closed under 3 mod 13: new rows read zeros
            ("compact", [2, 15], 3),  # 15 >= 13 is a fixed point
            ("compact", [1, 3, 9], 29),  # 29 = 3 mod 13
        ],
        ids=["dense", "compact", "not-closed", "fixed-point", "multiplier-past-modulus"],
    )
    def test_second_call_gives_the_first_calls_output(self, stored, live_rows, multiplier):
        st = row_sparse_state([("work", 4), ("x", 1)], live_rows, seed=len(live_rows))
        if stored == "compact":
            st = compact_twin(st)
        control = random_control(3, seed=multiplier)
        statevec._gather_table.cache_clear()
        cold = statevec._join_table(st, control, "work", multiplier, 13)
        warm = statevec._join_table(st, control, "work", multiplier, 13)
        info = statevec._gather_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert warm[2] == cold[2]
        assert (warm[0] is None) == (cold[0] is None) == (stored == "dense")
        assert cold[0] is None or np.array_equal(warm[0], cold[0])
        assert np.array_equal(warm[1], cold[1])
        sources = [statevec._period_sources(st, src, pad) for _, src, pad in (cold, warm)]
        assert np.array_equal(*sources)
        got = apply_controlled_modmul(st, control, "work", multiplier, 13)
        assert np.array_equal(got.amps, join_reference(st, control, multiplier, 13))

    def test_multiplier_is_keyed_mod_the_modulus(self):
        st = compact_twin(row_sparse_state([("work", 4)], [1, 3, 9], seed=2))
        statevec._gather_table.cache_clear()
        low = apply_controlled_modmul(st, random_control(3, seed=1), "work", 3, 13)
        high = apply_controlled_modmul(st, random_control(3, seed=1), "work", 3 + 2 * 13, 13)
        assert statevec._gather_table.cache_info().hits == 1
        assert np.array_equal(low.rows, high.rows) and np.array_equal(low.block, high.block)

    def test_int32_and_int64_rows_share_an_entry(self):
        st = compact_twin(row_sparse_state([("work", 4), ("x", 1)], [1, 5, 8], seed=3))
        narrow = StateVector(st.layout, st.block, st.rows.astype(np.int32))
        control = random_control(2, seed=3)
        statevec._gather_table.cache_clear()
        wide = apply_controlled_modmul(st, control, "work", 7, 13)
        from32 = apply_controlled_modmul(narrow, control, "work", 7, 13)
        info = statevec._gather_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert np.array_equal(wide.rows, from32.rows) and np.array_equal(wide.block, from32.block)

    def test_tables_and_joined_rows_are_read_only(self):
        st = compact_twin(row_sparse_state([("work", 4)], [1, 2], seed=4))
        statevec._gather_table.cache_clear()
        got = apply_controlled_modmul(st, uniform_control(3), "work", 3, 13)
        image, src, pad = statevec._gather_table(st.rows.tobytes(), 16, 3, 13, 8)
        assert statevec._gather_table.cache_info().hits == 1
        assert pad and got.rows is image
        for table in (image, src):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    def test_threads_share_the_tables(self):
        # Six keys for four entries: threads evict the tables that others
        # look up, and every call still gives the output of a cold call.
        keys = [([1, 2], 3), ([1, 3, 9], 3), ([2, 15], 7), ([0, 5], 7), ([4, 7, 11], 12), ([6], 5)]
        control = random_control(3, seed=0)
        cases = []
        for i, (live, multiplier) in enumerate(keys):
            st = compact_twin(row_sparse_state([("work", 4), ("x", 1)], live, seed=i))
            statevec._gather_table.cache_clear()
            cases.append((st, multiplier, apply_controlled_modmul(st, control, "work", multiplier, 13)))
        wrong = []

        def join_all():
            for _ in range(20):
                for st, multiplier, want in cases:
                    got = apply_controlled_modmul(st, control, "work", multiplier, 13)
                    if not (np.array_equal(got.rows, want.rows) and np.array_equal(got.block, want.block)):
                        wrong.append(multiplier)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=join_all) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


def plain_estimate(state, control, target, multiplier, modulus):
    """The two kernels that ``apply_phase_estimation`` stands for, in turn."""
    joined = apply_controlled_modmul(state, control, target, multiplier, modulus)
    return apply_inverse_qft(joined, control.layout.names[0])


@pytest.fixture
def modmul_calls(monkeypatch):
    """Counts the ``apply_controlled_modmul`` calls: one per plain-path estimate."""
    calls = []

    def counting(*args):
        calls.append(args)
        return apply_controlled_modmul(*args)

    monkeypatch.setattr(statevec, "apply_controlled_modmul", counting)
    return calls


@pytest.fixture
def fft_rows(monkeypatch):
    """Rows each ``np.fft.fft`` call transforms, in call order."""
    rows = []
    fft = np.fft.fft

    def counting(a, *args, **kwargs):
        rows.append(a.size // a.shape[kwargs.get("axis", -1)])
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting)
    return rows


def node_b_at_33() -> StateVector:
    """A random state on the 10 powers of 2 mod 33, the rows node B of N=33 a=2 joins."""
    rows = np.array(sorted(pow(2, j, 33) for j in range(10)))
    amps = np.random.default_rng(4).normal(size=10) + 0j
    return StateVector(RegisterLayout.of(("work", 6)), amps / np.linalg.norm(amps), rows)


@pytest.mark.blas
class TestPhaseEstimation:
    """``apply_phase_estimation`` against the controlled multiplication and
    inverse QFT it replaces: the fold when P * F <= (F - P) * t, for period P,
    F joined rows and a t-qubit control, else those two kernels as they are."""

    @pytest.mark.parametrize("multiplier", [3, 5, 12, 4, 7])  # orders 3, 4, 2, 6, 12 mod 13
    @pytest.mark.parametrize("t", [3, 5, 6])
    @pytest.mark.parametrize("control", ["uniform", "random"])
    @pytest.mark.parametrize("live_rows", [list(range(13)), [1, 5, 8], [2, 15]])
    def test_matches_the_two_kernels(self, multiplier, t, control, live_rows, modmul_calls):
        # [2, 15] maps onto rows not stored (which read the zero row) and onto
        # a fixed point; periods 3, 6 and 12 leave a partial last period.
        dense = row_sparse_state([("work", 4), ("x", 2)], live_rows, seed=t)
        ctrl = uniform_control(t) if control == "uniform" else random_control(t, seed=multiplier)
        period = min(multiplicative_order(multiplier, 13), 1 << t)
        for st in (dense, compact_twin(dense)):
            want = plain_estimate(st, ctrl, "work", multiplier, 13)
            del modmul_calls[:]
            got = apply_phase_estimation(st, ctrl, "work", multiplier, 13)
            assert got.layout == want.layout and np.array_equal(got.rows, want.rows)
            joined = want.block.size >> t  # rows times the values of x
            plain = period * joined > (joined - period) * t or control != "uniform"
            assert len(modmul_calls) == plain
            if plain:
                assert np.array_equal(got.block, want.block)
            else:
                assert np.max(np.abs(got.block - want.block)) <= FOLD_TOL

    def test_node_b_at_33_transforms_one_row_per_residue_class(self, fft_rows, modmul_calls):
        # Node B of N=33 a=2 holds the 10 powers of 2; its multiplier 16 has
        # order 5, so the fold transforms 5 rows of 2^14, not 10.
        statevec._uniform_transforms.cache_clear()
        st = node_b_at_33()
        got = apply_phase_estimation(st, uniform_control(14), "work", 16, 33)
        assert fft_rows == [5] and modmul_calls == []
        want = plain_estimate(st, uniform_control(14), "work", 16, 33)
        assert np.array_equal(got.rows, want.rows)
        assert np.max(np.abs(got.block - want.block)) <= FOLD_TOL

    @pytest.mark.parametrize("multiplier, modulus", [(7, 15), (2, 33), (1, 13)])
    @pytest.mark.parametrize("t", [3, 9])
    def test_first_estimate_is_bitwise_the_two_kernels(self, multiplier, modulus, t, modmul_calls):
        # One stored row maps onto as many rows as the period: F = P.
        st = init_basis(RegisterLayout.of(("work", 6)), {"work": 1})
        got = apply_phase_estimation(st, uniform_control(t), "work", multiplier, modulus)
        assert len(modmul_calls) == 1
        want = plain_estimate(st, uniform_control(t), "work", multiplier, modulus)
        assert np.array_equal(got.rows, want.rows) and np.array_equal(got.block, want.block)

    # The fold is decided from the gather table alone, so each estimate
    # gathers its sources once: the fold here, else apply_controlled_modmul.
    @pytest.mark.parametrize("folds", [False, True])
    def test_gathers_once_per_estimate(self, folds, modmul_calls, monkeypatch):
        gathers = []
        gather = statevec._period_sources
        monkeypatch.setattr(
            statevec, "_period_sources", lambda *args: gathers.append(1) or gather(*args)
        )
        if folds:
            st, multiplier, t = node_b_at_33(), 16, 14
        else:  # a first estimate: one stored row maps onto F = P rows
            st, multiplier, t = init_basis(RegisterLayout.of(("work", 6)), {"work": 1}), 2, 9
        apply_phase_estimation(st, uniform_control(t), "work", multiplier, 33)
        assert (len(gathers), len(modmul_calls)) == (1, not folds)

    def test_large_period_takes_the_plain_path(self, modmul_calls):
        # Period 100 (3 mod 101) maps the 40 stored rows onto F = 101 rows:
        # 100 * 101 multiply-adds per control value against (101 - 100) * 7.
        amps = np.where(np.arange(128) < 40, 1 / math.sqrt(40), 0) + 0j
        st = compact_twin(StateVector.from_amplitudes(RegisterLayout.of(("work", 7)), amps))
        got = apply_phase_estimation(st, uniform_control(7), "work", 3, 101)  # order 100
        assert len(modmul_calls) == 1
        want = plain_estimate(st, uniform_control(7), "work", 3, 101)
        assert np.array_equal(got.block, want.block)

    def test_input_states_are_not_modified(self):
        st = row_sparse_state([("work", 4), ("x", 2)], list(range(13)), seed=2)
        control = random_control(5, seed=2)
        before = (st.block.copy(), control.amps.copy())
        apply_phase_estimation(st, control, "work", 5, 13)
        assert np.array_equal(st.block, before[0]) and np.array_equal(control.amps, before[1])

    def test_rejects_what_the_multiplication_rejects(self):
        st = init_basis(RegisterLayout.of(("work", 4)), {"work": 1})
        with pytest.raises(ValueError, match="not invertible"):
            apply_phase_estimation(st, uniform_control(2), "work", 6, 15)
        with pytest.raises(ValueError, match="must lead"):
            apply_phase_estimation(
                init_basis(RegisterLayout.of(("x", 1), ("work", 4))), uniform_control(2), "work", 7, 15
            )


def nearly_uniform_control(t: int, index: int, value: complex) -> StateVector:
    """The uniform fill with amplitude ``index`` set to ``value``."""
    control = uniform_control(t)
    control.block[index] = value
    return control


FILL_14 = 1 / math.sqrt(1 << 14)


def uniform_reference(t: int, period: int) -> np.ndarray:
    """The uniform fill's residue classes mod ``period``, zero-filled and transformed."""
    fill = uniform_control(t).amps
    g = np.zeros((period, 1 << t), complex)
    for q in range(period):
        g[q, q::period] = fill[q::period]
    return np.fft.fft(g, axis=1, norm="ortho")


@pytest.mark.blas
@pytest.mark.fresh_process
class TestKeptTransforms:
    """``_uniform_transforms`` keeps the class transforms of the uniform fill
    for one (t, P); the fold reads them only for a control that is bitwise
    that fill, and a stage gives the same bits whether it builds them or
    finds them kept."""

    # Only the uniform control folds, and a warm fold runs no FFT; a -0.0
    # imaginary part or a real part one ulp off is not the fill, so those
    # take the plain path and transform all 10 rows.
    @pytest.mark.parametrize(
        "control, transformed",
        [(uniform_control(14), []), (phase_superposition(14, Fraction(3, 7), "ctrl"), [10]),
         (random_control(14, seed=3), [10]),
         (nearly_uniform_control(14, 7, complex(FILL_14, -0.0)), [10]),
         (nearly_uniform_control(14, 9, complex(np.nextafter(FILL_14, 1), 0.0)), [10])],
        ids=["uniform", "phase", "random", "negative-zero", "one-ulp"],
    )
    def test_kept_transforms_give_the_cold_bits(self, control, transformed, fft_rows):
        st = node_b_at_33()
        statevec._uniform_transforms.cache_clear()
        cold = apply_phase_estimation(st, control, "work", 16, 33)
        del fft_rows[:]
        warm = apply_phase_estimation(st, control, "work", 16, 33)
        assert fft_rows == transformed
        assert np.array_equal(warm.rows, cold.rows) and np.array_equal(warm.block, cold.block)

    @pytest.mark.parametrize(
        "control",
        [phase_superposition(14, Fraction(3, 7), "ctrl"), random_control(14, seed=3),
         nearly_uniform_control(14, 7, complex(FILL_14, -0.0)),
         nearly_uniform_control(14, 9, complex(np.nextafter(FILL_14, 1), 0.0))],
        ids=["phase", "random", "negative-zero", "one-ulp"],
    )
    def test_other_controls_take_the_plain_path(self, control, modmul_calls, monkeypatch):
        def refuse(*_args):
            raise AssertionError("looked up the uniform transforms for another control")

        st = node_b_at_33()
        want = plain_estimate(st, control, "work", 16, 33)
        del modmul_calls[:]
        monkeypatch.setattr(statevec, "_uniform_transforms", refuse)
        got = apply_phase_estimation(st, control, "work", 16, 33)
        assert len(modmul_calls) == 1
        assert np.array_equal(got.rows, want.rows) and np.array_equal(got.block, want.block)

    def test_other_key_builds_its_own(self, fft_rows):
        statevec._uniform_transforms.cache_clear()
        statevec._uniform_transforms(13, 5)  # t = 13, not the stage's 14
        del fft_rows[:]
        apply_phase_estimation(node_b_at_33(), uniform_control(14), "work", 16, 33)
        assert fft_rows == [5]
        assert statevec._uniform_transforms.cache_info().currsize == 1

    def test_kept_array_is_the_built_transforms(self):
        # R is the float64 view of rows (G_q, i * G_q): row 2q holds G_q's
        # real and imaginary parts interleaved, row 2q + 1 holds -Im G_q and
        # Re G_q, bit for bit.
        for t, period in [(6, 3), (3, 8), (14, 5), (11, 6), (4, 1)]:
            statevec._uniform_transforms.cache_clear()
            r = statevec._uniform_transforms(t, period)
            assert r.dtype == np.float64 and r.shape == (2 * period, 2 << t)
            assert r.flags.c_contiguous
            g = uniform_reference(t, period)
            pairs = r.reshape(period, 2, 1 << t, 2)  # [q, G or i*G, value, re or im]
            assert pairs[:, 0].tobytes() == g.tobytes()
            assert pairs[:, 1, :, 0].tobytes() == (-g.imag).tobytes()
            assert pairs[:, 1, :, 1].tobytes() == g.real.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                r[0, 0] = 0
            with pytest.raises(ValueError, match="read-only"):
                r.view(complex)[1, 0] = 0

    def test_keeps_one_entry_and_none_without_a_fold(self):
        transforms = statevec._uniform_transforms
        transforms.cache_clear()
        first = transforms(6, 3)
        assert transforms(6, 3) is first  # same key: not built again
        transforms(7, 2)  # another key evicts the first
        info = transforms.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 1, 1)
        # A first estimate (F = P) does not fold: it looks nothing up.
        st = init_basis(RegisterLayout.of(("work", 4)), {"work": 1})
        apply_phase_estimation(st, uniform_control(7), "work", 7, 15)
        assert transforms.cache_info() == info
        assert transforms(6, 3) is not first


class TestFourier:
    def test_inverse_qft_maps_phase_state_to_basis(self):
        # omega = j/2^t must come back as exactly |j>, here j=5, t=4
        st = phase_superposition(4, Fraction(5, 16), name="r")
        st = apply_inverse_qft(st, "r")
        assert abs(st.amps[5]) == pytest.approx(1.0, abs=ALGEBRA_TOL)

    # 3^32 * 2^14 passes int64, and so does the second numerator itself.
    @pytest.mark.parametrize(
        "omega", [Fraction(3**32 // 2 + 1, 3**32), Fraction((1 << 64) + 7, 243)],
        ids=["wide-denominator", "numerator-past-int64"],
    )
    def test_phase_superposition_reduces_exactly(self, omega):
        t = 14
        num, den = omega.numerator, omega.denominator
        turns = [float(Fraction(j * num % den, den)) for j in range(1 << t)]
        want = np.exp(2j * np.pi * np.array(turns)) / math.sqrt(1 << t)
        got = phase_superposition(t, omega).amps
        # a few ulps of a phase below 2 pi, where int64 wrapping was off by 0.24
        assert np.max(np.abs(got - want)) <= 4e-15 / math.sqrt(1 << t)

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(4)
        st = random_state(RegisterLayout.of(("a", 3), ("r", 4)), rng)
        before = st.amps.copy()  # the transforms write over st
        back = apply_inverse_qft(apply_qft(st, "r"), "r")
        assert np.allclose(back.amps, before, atol=ALGEBRA_TOL)

    @pytest.mark.parametrize("op", [apply_qft, apply_inverse_qft])
    @pytest.mark.parametrize("reg", ["a", "r"])
    def test_transform_leaves_from_amplitudes_input_alone(self, op, reg):
        # from_amplitudes copies, so the transform overwrites the state's
        # block and not the caller's array.
        rng = np.random.default_rng(6)
        arr = rng.normal(size=128) + 1j * rng.normal(size=128)
        arr /= np.linalg.norm(arr)
        before = arr.tobytes()
        st = StateVector.from_amplitudes(RegisterLayout.of(("a", 3), ("r", 4)), arr)
        op(st, reg)
        assert arr.tobytes() == before

    def test_single_qubit_case_is_hadamard(self):
        # Each operation gets its own state: the transform consumes its input.
        layout = RegisterLayout.of(("r", 1))
        for v in (0, 1):
            viaq = apply_inverse_qft(init_basis(layout, {"r": v}), "r")
            viah = hadamard_reference(init_basis(layout, {"r": v}), "r")
            assert np.allclose(viaq.amps, viah, atol=1e-12)
        viah = apply_hadamard_register(init_basis(layout), "r")
        assert np.allclose(apply_inverse_qft(init_basis(layout), "r").amps, viah.amps, atol=1e-12)

    @pytest.mark.parametrize("t", range(1, 9))
    def test_dense_matrix_against_explicit_oracle(self, t):
        w = fourier_matrix(t)
        assert np.max(np.abs(op_as_matrix(apply_qft, t) - w)) < ALGEBRA_TOL
        assert np.max(np.abs(op_as_matrix(apply_inverse_qft, t) - w.conj().T)) < ALGEBRA_TOL

    @pytest.mark.parametrize("t", range(1, 9))
    def test_product_is_identity(self, t):
        prod = op_as_matrix(apply_qft, t) @ op_as_matrix(apply_inverse_qft, t)
        assert np.max(np.abs(prod - np.eye(1 << t))) < ALGEBRA_TOL


class TestMeasurement:
    def test_basis_state_is_certain(self):
        st = init_basis(RegisterLayout.of(("r", 2)), {"r": 2})
        m, post = measure_register(st, "r", np.random.default_rng(0))
        assert m == BitString(2, 2)
        assert post.amps[2] == pytest.approx(1.0)

    def test_uniform_frequencies_within_3_sigma(self):
        st = apply_hadamard_register(init_basis(RegisterLayout.of(("r", 2))), "r")
        rng = np.random.default_rng(42)
        shots = 10_000
        counts = [0, 0, 0, 0]
        for _ in range(shots):
            m, _ = measure_register(st, "r", rng)
            counts[m.value] += 1
        sigma = math.sqrt(0.25 * 0.75 / shots)
        for c in counts:
            assert abs(c / shots - 0.25) <= 3 * sigma

    def test_collapse_keeps_matching_branch(self):
        # (|0>|phi0> + |1>|phi1>)/sqrt(2): measuring the flag collapses the
        # second register onto the matching phi
        rng = np.random.default_rng(7)
        phi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        phi0 /= np.linalg.norm(phi0)
        phi1 = rng.normal(size=4) + 1j * rng.normal(size=4)
        phi1 /= np.linalg.norm(phi1)
        amps = np.concatenate([phi0, phi1]) / math.sqrt(2)
        st = StateVector.from_amplitudes(RegisterLayout.of(("flag", 1), ("rest", 2)), amps)
        for seed in range(6):
            bit, post = measure_register(st, "flag", np.random.default_rng(seed))
            block = post.amps[4 * bit.value : 4 * bit.value + 4]
            expected = phi0 if bit.value == 0 else phi1
            assert np.allclose(block, expected, atol=1e-12)

    def test_inverse_cdf_sampling_is_deterministic(self):
        st = apply_hadamard_register(init_basis(RegisterLayout.of(("r", 3))), "r")
        a = [measure_register(st, "r", np.random.default_rng(123))[0] for _ in range(5)]
        b = [measure_register(st, "r", np.random.default_rng(123))[0] for _ in range(5)]
        assert a == b

    def test_norm_drift_guard(self):
        st = init_basis(RegisterLayout.of(("r", 2)))
        st = StateVector(st.layout, st.amps * 2.0)  # deliberately corrupt
        with pytest.raises(RuntimeError):
            measure_register(st, "r", np.random.default_rng(0))


class TestDistributions:
    def test_dyadic_phase_is_a_point_mass(self):
        st = apply_inverse_qft(phase_superposition(5, Fraction(12, 32), name="r"), "r")
        assert register_probabilities(st, "r")[12] == pytest.approx(1.0, abs=ALGEBRA_TOL)

    def test_uniform_register(self):
        st = apply_hadamard_register(init_basis(RegisterLayout.of(("r", 3))), "r")
        for p in register_probabilities(st, "r"):
            assert p == pytest.approx(1 / 8, abs=ALGEBRA_TOL)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            st = random_state(RegisterLayout.of(("a", 3), ("b", 2)), rng)
            assert register_probabilities(st, "a").sum() == pytest.approx(1.0, abs=ALGEBRA_TOL)

    def test_marginal_ordering(self):
        st = init_basis(RegisterLayout.of(("a", 1), ("b", 2)), {"a": 1, "b": 2})
        joint = marginal_probabilities(st, ["b", "a"])
        assert joint.shape == (4, 2)
        assert joint[2, 1] == pytest.approx(1.0)

    def test_phase_estimation_matches_analytic_law(self):
        # independent oracle: P(m) = |2^-t sum_j e^{2 pi i j (omega - m/2^t)}|^2
        rng = np.random.default_rng(23)
        for _ in range(6):
            t = int(rng.integers(3, 9))
            den = int(rng.integers(2, 60))
            omega = Fraction(int(rng.integers(0, den)), den)
            st = apply_inverse_qft(phase_superposition(t, omega, name="r"), "r")
            got = register_probabilities(st, "r")
            dim = 1 << t
            j = np.arange(dim)
            expect = np.empty(dim)
            for m in range(dim):
                amp = np.exp(2j * np.pi * j * (float(omega) - m / dim)).sum() / dim
                expect[m] = abs(amp) ** 2
            assert np.max(np.abs(got - expect)) < DIST_TOL

    def test_window_mass_meets_failure_budget(self):
        # with t = n + ceil(log2(2 + 1/(2 eps))) the mass within circular
        # distance 2^(t-n) of the true leading bits is at least 1 - eps
        cases = [
            (Fraction(3, 10), 4, Fraction(1, 8)),
            (Fraction(1, 7), 3, Fraction(1, 4)),
            (Fraction(5, 11), 5, Fraction(1, 16)),
            (Fraction(13, 29), 4, Fraction(1, 4)),
        ]
        for omega, n, eps in cases:
            t = n + ceil_log2(2 + Fraction(1, 2 * eps))
            st = apply_inverse_qft(phase_superposition(t, omega, name="r"), "r")
            probs = register_probabilities(st, "r")
            target = fraction_bits(omega, 1, t)
            mass = sum(
                float(p)
                for m, p in enumerate(probs)
                if circular_distance(BitString(t, m), target) < (1 << (t - n))
            )
            assert mass >= 1 - float(eps) - 1e-12


class TestNormPreservation:
    def test_all_operations_preserve_norm(self):
        assert uniform_control(4).norm_error() < ALGEBRA_TOL
        rng = np.random.default_rng(29)
        st = random_state(RegisterLayout.of(("work", 4)), rng)
        steps = [
            lambda s: apply_controlled_modmul(s, random_control(4, seed=29), "work", 7, 15),
            lambda s: apply_qft(s, "ctrl"),
            lambda s: apply_inverse_qft(s, "ctrl"),
            lambda s: measure_register(s, "ctrl", np.random.default_rng(1))[1],
            lambda s: statevec.append_register(s, "extra", 2),
            lambda s: remove_register(s, "extra"),
        ]
        for step in steps:
            st = step(st)
            assert st.norm_error() < ALGEBRA_TOL


class TestStructuralOps:
    def test_project_register(self):
        st = apply_hadamard_register(init_basis(RegisterLayout.of(("r", 2))), "r")
        p, post = project_register(st, "r", 3)
        assert p == pytest.approx(0.25, abs=ALGEBRA_TOL)
        assert post.amps[3] == pytest.approx(1.0)
        zero = init_basis(RegisterLayout.of(("r", 2)))
        p, post = project_register(zero, "r", 2)
        assert p == 0.0 and post is None

    def test_remove_register_requires_basis_state(self):
        st = apply_hadamard_register(init_basis(RegisterLayout.of(("a", 1), ("b", 1))), "a")
        with pytest.raises(ValueError):
            remove_register(st, "a")
        ok = remove_register(st, "b")
        assert ok.layout.names == ("a",)

    def test_append_respects_capacity(self):
        st = init_basis(RegisterLayout.of(("a", statevec.MAX_QUBITS - 1)))
        with pytest.raises(CapacityError):
            statevec.append_register(st, "b", 2)


class TestNormGuards:
    """A non-finite state fails every norm check instead of being sampled."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_from_amplitudes_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            StateVector.from_amplitudes(RegisterLayout.of(("r", 2)), [bad] * 4)
        with pytest.raises(ValueError):
            StateVector.from_amplitudes(RegisterLayout.of(("r", 2)), [bad, 0, 0, 0])

    def nan_state(self) -> StateVector:
        return StateVector(RegisterLayout.of(("a", 1), ("r", 2)), np.full(8, np.nan, complex))

    def test_measure_register_raises(self):
        with pytest.raises(RuntimeError):
            measure_register(self.nan_state(), "r", np.random.default_rng(0))

    def test_teleport_register_raises(self):
        with pytest.raises(RuntimeError):
            teleport_register(
                self.nan_state(), "r", ClassicalChannel(), EprPool(2), np.random.default_rng(0)
            )

    def test_remove_register_raises(self):
        with pytest.raises(ValueError):
            remove_register(self.nan_state(), "r")


class FixedUniform:
    """Stands in for a Generator whose ``random()`` returns the given values."""

    def __init__(self, *values: float):
        self.values = list(values)

    def random(self) -> float:
        return self.values.pop(0)


class TestDraw:
    def test_boundary_belongs_to_the_next_outcome(self):
        probs = np.array([0.25, 0.75])
        assert statevec.draw(probs, FixedUniform(0.25)) == 1
        assert statevec.draw(probs, FixedUniform(np.nextafter(0.25, 0))) == 0
        assert statevec.draw(probs, FixedUniform(0.0)) == 0

    def test_boundary_scales_with_the_total(self):
        # u * total == p0 exactly: u = 0.5, total = 1 - 2^-30, p0 = total / 2
        total = 1 - 2.0**-30
        probs = np.array([total / 2, total / 2])
        assert float(probs.sum()) == total
        assert statevec.draw(probs, FixedUniform(0.5)) == 1
        assert statevec.draw(probs, FixedUniform(np.nextafter(0.5, 0))) == 0

    def test_zero_mass_is_never_drawn(self):
        probs = np.array([0.0, 0.5, 0.0, 0.0, 0.5, 0.0])
        uniforms = [0.0, np.nextafter(0.5, 0), 0.5, np.nextafter(1.0, 0)]
        got = [statevec.draw(probs, FixedUniform(u)) for u in uniforms]
        assert got == [1, 1, 4, 4]

    def test_last_index_is_clamped(self):
        # u * total at or past the last cumulative sum still names an outcome
        probs = np.array([0.5, 0.5])
        assert statevec.draw(probs, FixedUniform(1.0)) == 1
        assert statevec.draw(np.array([1.0]), FixedUniform(np.nextafter(1.0, 0))) == 0

    def test_clamp_skips_trailing_outcomes_without_mass(self):
        # Ten 0.1s cumulate to 1 - 2^-53 but sum pairwise to 1.0, so the
        # largest u lands past the last cumulative sum.
        probs = np.array([0.1] * 10 + [0.0, 0.0])
        assert np.cumsum(probs)[-1] < float(probs.sum()) == 1.0
        assert statevec.draw(probs, FixedUniform(np.nextafter(1.0, 0))) == 9

    @pytest.mark.parametrize(
        "probs",
        [[0.5, math.nan], [0.5, 0.5 + 2e-8], [0.25, 0.25], [math.inf, 0.0], [math.nan, 0.5],
         [0.25, 0.25, 0.25, 0.25 + 2e-8]],
    )
    def test_bad_masses_raise(self, probs):
        with pytest.raises(RuntimeError, match="drifted"):
            statevec.draw(np.array(probs), FixedUniform())  # no uniform: reading one raises

    def test_one_uniform_per_draw(self):
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        statevec.draw(np.full(8, 0.125), rng)
        ref.random()
        assert rng.bit_generator.state == ref.bit_generator.state


def cdf_draw(probs: np.ndarray, u: float) -> int:
    """Independent reference for ``draw``: search the cumulative sum, then clamp."""
    k = int(np.searchsorted(np.cumsum(probs), u * probs.sum(), side="right"))
    return k if k < probs.size else int(np.flatnonzero(probs > 0)[-1])


def random_mass_pairs(seed: int) -> list[list[float]]:
    """Six pairs summing to 1 as rounded, and six whose total drifts by up to 5e-9."""
    rng = np.random.default_rng(seed)
    p, drift = rng.random(12), rng.uniform(-5e-9, 5e-9, 6)
    return [[x, 1 - x] for x in p[:6]] + [[x, (1 - x) * (1 + d)] for x, d in zip(p[6:], drift)]


TWO_MASSES = [
    [0.0, 1.0],
    [1.0, 0.0],
    [0.5, 0.5],
    [0.25, 0.75],
    [1 / 3, 2 / 3],
    [(1 - 2.0**-30) / 2, (1 - 2.0**-30) / 2],  # total 1 - 2^-30: the edge scales with it
    *random_mass_pairs(23),
]


class TestTwoOutcomeDraw:
    """``draw`` compares scalars for two masses; every outcome matches the
    cumulative-sum reference, including at the edge between the outcomes."""

    @pytest.mark.parametrize("probs", TWO_MASSES, ids=range(len(TWO_MASSES)))
    def test_matches_cdf_reference(self, probs):
        probs = np.array(probs)
        edge = float(probs[0] / probs.sum())
        uniforms = [0.0, 0.5, np.nextafter(1.0, 0)]
        uniforms += [np.nextafter(edge, 0), edge, np.nextafter(edge, 1)]
        # A generator's uniform is below 1, and for a total within NORM_GUARD
        # of 1 no such u makes u * total reach the total; u = 1.0 does, and
        # takes the clamp to the last outcome with mass.
        uniforms.append(1.0)
        uniforms += np.random.default_rng(7).random(200).tolist()
        for u in uniforms:
            if 0.0 <= u <= 1.0:
                assert statevec.draw(probs, FixedUniform(u)) == cdf_draw(probs, u), u

    def test_takes_no_cumulative_sum(self, monkeypatch):
        probs = np.array([0.25, 0.75])
        want = [cdf_draw(probs, u) for u in (0.1, 0.9)]

        def refuse(*_args, **_kwargs):
            raise AssertionError("built a cumulative sum for two masses")

        monkeypatch.setattr(np, "cumsum", refuse)
        assert [statevec.draw(probs, FixedUniform(u)) for u in (0.1, 0.9)] == want

    @pytest.mark.parametrize("probs", [[0.3, 0.7], [1.0, 0.0], [0.0, 1.0]])
    def test_one_uniform_per_draw(self, probs):
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(3):
            statevec.draw(np.array(probs), rng)
            ref.random()
        assert rng.bit_generator.state == ref.bit_generator.state


def sparse_state(
    regs: list[tuple[str, int]], reg: str, live: int, seed: int
) -> StateVector:
    """Random state in which only ``live`` fibers of ``reg`` hold amplitude.

    The dead fibers hold a mix of +0.0 and -0.0, and so do some live entries.
    """
    layout = RegisterLayout.of(*regs)
    rng = np.random.default_rng(seed)
    a = random_state(layout, rng).amps.reshape(
        1 << layout.offset(reg), 1 << layout.width(reg), -1
    )
    fibers = [(b, c) for b in range(a.shape[0]) for c in range(a.shape[2])]
    keep = set(rng.permutation(len(fibers))[:live].tolist())
    for i, (b, c) in enumerate(fibers):
        if i not in keep:
            a[b, :, c] = np.where(rng.random(a.shape[1]) < 0.5, -0.0, 0.0)
    a = a / np.linalg.norm(a)
    a.real[np.abs(a.real) < 0.05] = -0.0
    return StateVector.from_amplitudes(layout, a / np.linalg.norm(a))


def compact_twin(state: StateVector) -> StateVector:
    """The same state, storing only the leading-register rows that hold amplitude."""
    lead = state.amps.reshape(1 << state.layout.registers[0][1], -1)
    rows = np.flatnonzero(lead.any(axis=1))
    return StateVector(state.layout, lead[rows].reshape(-1), rows)


LIVE_LAYOUTS = [
    [("r", 5), ("a", 3), ("b", 2)],  # register first
    [("a", 3), ("r", 5), ("b", 2)],  # register in the middle
    [("a", 3), ("b", 2), ("r", 5)],  # register last
]


class TestLiveFibers:
    """Kernels on a register whose slices are mostly exact zeros give bitwise
    the dense computation."""

    @pytest.mark.parametrize("regs", LIVE_LAYOUTS)
    @pytest.mark.parametrize("live", [1, 5, 20])
    @pytest.mark.parametrize(
        "op, fft", [(apply_qft, np.fft.ifft), (apply_inverse_qft, np.fft.fft)]
    )
    @pytest.mark.parametrize("stored", ["dense", "compact"])
    def test_transforms_match_dense_fft(self, regs, live, op, fft, stored):
        st = sparse_state(regs, "r", live, seed=live)
        copy = StateVector(st.layout, st.amps.copy())
        dense = fft(statevec._reg_axis(copy, "r")[1], axis=1, norm="ortho").reshape(-1)
        if stored == "compact":
            st = compact_twin(st)
        got = op(st, "r")
        assert np.array_equal(got.amps, dense)
        # The transform writes over the block it reads; only the leading
        # register of a compact state is read into a fresh dense vector.
        in_place = regs[0][0] != "r" or stored == "dense"
        assert np.shares_memory(got.block, st.block) == in_place

    @pytest.mark.parametrize("regs", LIVE_LAYOUTS)
    @pytest.mark.parametrize("live", [1, 5, 20])
    def test_probabilities_match_dense_sum(self, regs, live):
        st = sparse_state(regs, "r", live, seed=100 + live)
        assert np.array_equal(register_probabilities(st, "r"), born_reference(st, ["r"]))

    def test_negative_zero_entries(self):
        # Every fiber but one holds only -0.0, and so does every third entry
        # of the live one; the compact twin leaves the -0.0 rows out.
        layout = RegisterLayout.of(("a", 3), ("r", 4))
        a = np.full((8, 16), -0.0, dtype=complex)
        a[5] = random_state(RegisterLayout.of(("r", 4)), np.random.default_rng(3)).amps
        a[5, ::3] = complex(-0.0, -0.0)
        st = StateVector.from_amplitudes(layout, a / np.linalg.norm(a))
        view = statevec._reg_axis(st, "r")[1].copy()  # the transform writes over st
        twin = compact_twin(st)
        assert twin.rows.tolist() == [5]
        want = born_reference(st, ["r"])
        for s in (st, twin):
            assert register_probabilities(s, "r").tobytes() == want.tobytes()
            assert np.array_equal(
                apply_inverse_qft(s, "r").amps,
                np.fft.fft(view, axis=1, norm="ortho").reshape(-1),
            )

    @pytest.mark.parametrize("regs", LIVE_LAYOUTS)
    def test_mostly_live_matches_the_dense_computation(self, regs):
        st = sparse_state(regs, "r", 25, seed=9)  # 25 of 32 fibers
        view = statevec._reg_axis(st, "r")[1].copy()  # the transform writes over st
        assert np.array_equal(register_probabilities(st, "r"), born_reference(st, ["r"]))
        assert np.array_equal(
            apply_qft(st, "r").amps, np.fft.ifft(view, axis=1, norm="ortho").reshape(-1)
        )

    @pytest.mark.parametrize("regs", LIVE_LAYOUTS)
    def test_hadamard_fill_matches_dense_fill(self, regs):
        # The other registers hold mostly exact zeros; r is filled where it
        # leads, as a fresh register is, and moved into place.
        st = sparse_state(regs, "r", 4, seed=12)
        a = statevec._reg_axis(st, "r")[1]
        others = [reg for reg in regs if reg[0] != "r"]
        fresh = fresh_lead(RegisterLayout.of(("r", 5), *others), a[:, 0, :].reshape(-1))
        filled = apply_hadamard_register(fresh, "r").amps
        moved = filled.reshape(32, a.shape[0], -1).transpose(1, 0, 2)
        dense = np.broadcast_to(a[:, :1, :] * (1 / math.sqrt(32)), a.shape)
        assert np.array_equal(moved, dense)

    @pytest.mark.parametrize("seed", range(5))
    def test_sample_register_matches_measure_register(self, seed):
        # Sampling a register, as the protocol does, draws from its Born
        # marginal; measuring it draws the same outcome with the same randomness.
        st = random_state(RegisterLayout.of(("a", 3), ("r", 4)), np.random.default_rng(seed))
        rng_sample, rng_measure = np.random.default_rng(seed), np.random.default_rng(seed)
        m = statevec.draw(register_probabilities(st, "r"), rng_sample)
        assert m == measure_register(st, "r", rng_measure)[0].value
        assert rng_sample.bit_generator.state == rng_measure.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 5, 7])
    def test_append_basis_register_matches_kron(self, seed):
        st = sparse_state([("a", 2), ("b", 3)], "b", 2, seed=seed)
        basis = np.zeros(8, dtype=complex)
        basis[0] = 1.0
        got = statevec.append_register(st, "c", 3)
        assert got.layout.names == ("a", "b", "c")
        assert np.array_equal(got.amps, np.kron(st.amps, basis))


COMPACT_LAYOUTS = [
    [("w", 4), ("r", 5), ("b", 2)],  # register in the middle
    [("w", 4), ("b", 2), ("r", 5)],  # register last
]


def row_sparse_state(regs, live_rows, seed: int, live_fibers: int | None = None) -> StateVector:
    """Dense random state whose 4-qubit leading register holds only ``live_rows``.

    With ``live_fibers``, only that many fibers of register "r" within those
    rows hold amplitude.
    """
    layout = RegisterLayout.of(*regs)
    rng = np.random.default_rng(seed)
    a = random_state(layout, rng).amps.reshape(16, -1)
    a[[v for v in range(16) if v not in live_rows]] = 0
    if live_fibers is not None:
        view = statevec._reg_axis(StateVector(layout, a.reshape(-1)), "r")[1]
        per_row = view.shape[0] // 16
        fibers = [
            (b, c)
            for b in range(view.shape[0])
            if b // per_row in live_rows
            for c in range(view.shape[2])
        ]
        keep = set(rng.permutation(len(fibers))[:live_fibers].tolist())
        for i, (b, c) in enumerate(fibers):
            if i not in keep:
                view[b, :, c] = 0
    return StateVector.from_amplitudes(layout, a.reshape(-1) / np.linalg.norm(a))


class TestCompactRows:
    """A state that stores only some leading-register rows gives bitwise the
    dense results, and off the leading register it keeps its row set."""

    @pytest.mark.parametrize("regs", COMPACT_LAYOUTS)
    @pytest.mark.parametrize("live_rows", [[3], [0, 5, 6, 15], list(range(1, 15))])
    @pytest.mark.parametrize("live_fibers", [None, 3, 20])
    @pytest.mark.parametrize("op", [apply_qft, apply_inverse_qft])
    def test_transforms(self, regs, live_rows, live_fibers, op):
        dense = row_sparse_state(regs, live_rows, seed=len(live_rows), live_fibers=live_fibers)
        st = compact_twin(dense)  # a copy: transforming st leaves dense alone
        fft = np.fft.ifft if op is apply_qft else np.fft.fft
        expected = fft(statevec._reg_axis(dense, "r")[1], axis=1, norm="ortho").reshape(-1)
        got = op(st, "r")
        assert np.array_equal(got.rows, st.rows)
        assert np.shares_memory(got.block, st.block)  # written over the stored rows
        assert np.array_equal(got.amps, expected)
        assert np.array_equal(got.amps, op(dense, "r").amps)

    @pytest.mark.parametrize("regs", COMPACT_LAYOUTS)
    @pytest.mark.parametrize("live_rows", [[3], [0, 5, 6, 15], list(range(1, 15))])
    @pytest.mark.parametrize("live_fibers", [None, 3])
    def test_probabilities_and_sample(self, regs, live_rows, live_fibers):
        dense = row_sparse_state(regs, live_rows, seed=7, live_fibers=live_fibers)
        st = compact_twin(dense)
        assert np.array_equal(register_probabilities(st, "r"), register_probabilities(dense, "r"))
        for seed in range(5):
            rng_c, rng_d = np.random.default_rng(seed), np.random.default_rng(seed)
            assert measure_register(st, "r", rng_c)[0] == measure_register(dense, "r", rng_d)[0]
            assert rng_c.bit_generator.state == rng_d.bit_generator.state

    @pytest.mark.parametrize("regs", COMPACT_LAYOUTS)
    @pytest.mark.parametrize("live_rows", [[3], [0, 5, 6, 15], list(range(1, 15))])
    @pytest.mark.parametrize(
        "kept",
        [["r", "b"], ["b", "r"], ["r"], ["w"], ["r", "w"], ["w", "b", "r"]],
        ids=["drop-w", "drop-w-swapped", "drop-w-and-b", "keep-w", "keep-w-last", "keep-all"],
    )
    def test_marginal_probabilities(self, regs, live_rows, kept):
        dense = row_sparse_state(regs, live_rows, seed=13, live_fibers=5)
        expected = born_reference(dense, kept)
        assert np.array_equal(marginal_probabilities(compact_twin(dense), kept), expected)
        assert np.array_equal(marginal_probabilities(dense, kept), expected)

    @pytest.mark.parametrize("regs", COMPACT_LAYOUTS)
    @pytest.mark.parametrize("live_rows", [[3], [0, 5, 6, 15], list(range(1, 15))])
    def test_marginals_of_compact_and_dense_are_the_same_bits(self, regs, live_rows):
        # The dense twin's dead rows hold +0.0 and -0.0, as do some live
        # entries; their squares add +0.0 to the row-order sum.
        dense = row_sparse_state(regs, live_rows, seed=17)
        a = dense.amps.reshape(16, -1).copy()
        rng = np.random.default_rng(17)
        dead = [v for v in range(16) if v not in live_rows]
        a[dead] = np.where(rng.random(a[dead].shape) < 0.5, complex(-0.0, -0.0), 0j)
        a.real[np.abs(a.real) < 0.02] = -0.0
        dense = StateVector(dense.layout, a.reshape(-1))
        twin = compact_twin(dense)
        assert twin.rows.tolist() == live_rows
        names = [name for name, _ in regs]
        for kept in [[name] for name in names] + [names[::-1], names[1:], ["r", "w"]]:
            got = marginal_probabilities(twin, kept)
            assert got.tobytes() == marginal_probabilities(dense, kept).tobytes(), kept
            assert got.tobytes() == born_reference(dense, kept).tobytes(), kept

    @pytest.mark.parametrize("group", [1, 512, 768, 1280, 3328, 1 << 15])
    @pytest.mark.parametrize("kept", [["r"], ["b"], ["r", "b"]])
    def test_row_order_sum_does_not_depend_on_the_group(self, group, kept, monkeypatch):
        # 14 stored rows of 2 * 2^7 floats: one row at a time, then groups
        # of 2, 3, 5 and 13 rows (short or one-row last groups), then all 14.
        dense = row_sparse_state([("w", 4), ("r", 5), ("b", 2)], list(range(1, 15)), seed=19)
        want = born_reference(dense, kept)
        monkeypatch.setattr(statevec, "_SQUARE_GROUP", group)
        for st in (dense, compact_twin(dense)):
            assert marginal_probabilities(st, kept).tobytes() == want.tobytes()

    def test_small_marginal_squares_its_rows_in_one_call(self, monkeypatch):
        # remove_register on node A's N=33 state: 10 rows of 2^6 control values.
        rows = np.array(sorted(pow(2, j, 33) for j in range(10)))
        amps = np.zeros((10, 64), complex)
        amps[:, 5] = 1 / math.sqrt(10)
        st = StateVector(RegisterLayout.of(("work", 6), ("ctrl", 6)), amps.reshape(-1), rows)
        calls = []
        square = np.square

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return square(*args, **kwargs)

        monkeypatch.setattr(np, "square", counting)
        removed = remove_register(st, "ctrl")
        assert calls == [(10, 128)]
        assert removed.rows.tolist() == rows.tolist()

    @pytest.mark.parametrize("regs", COMPACT_LAYOUTS)
    @pytest.mark.parametrize("live_rows", [[3], [0, 5, 6, 15]])
    def test_hadamard_fill(self, regs, live_rows):
        # Only a state that stores row 0 alone holds a fresh leading register:
        # the compact state and its dense twin are refused on either register.
        dense = row_sparse_state(regs, live_rows, seed=11, live_fibers=6)
        st = compact_twin(dense)
        for state, reg in ((st, "w"), (st, "r"), (dense, "w")):
            with pytest.raises(ValueError):
                apply_hadamard_register(state, reg)
        row = st.block.reshape(len(live_rows), -1)[0]
        got = apply_hadamard_register(fresh_lead(st.layout, row), "w")
        assert got.rows is None
        assert np.array_equal(got.amps, np.tile(row * (1 / math.sqrt(16)), 16))

    def test_append_keeps_input_rows(self):
        dense = row_sparse_state([("w", 4), ("b", 2)], [2, 9], seed=3)
        assert statevec.append_register(dense, "c", 3).rows is None
        got = statevec.append_register(compact_twin(dense), "c", 3)
        assert got.rows.tolist() == [2, 9] and got.block.size == 2 * 4 * 8
        basis = np.zeros(8, dtype=complex)
        basis[0] = 1.0
        assert np.array_equal(got.amps, np.kron(dense.amps, basis))
        again = statevec.append_register(got, "d", 1)
        assert again.rows.tolist() == [2, 9]
        assert np.array_equal(again.amps, np.kron(got.amps, [1, 0]))

    def test_leading_register_ops_use_dense_vector(self):
        regs = [("w", 4), ("b", 2), ("r", 3)]
        dense = row_sparse_state(regs, [1, 4, 7, 13], seed=5)
        st = compact_twin(dense)
        assert st.rows.tolist() == [1, 4, 7, 13]
        assert np.array_equal(st.amps, dense.amps)
        assert st.norm_error() < 1e-12
        assert np.array_equal(register_probabilities(st, "w"), register_probabilities(dense, "w"))
        m_c, post_c = measure_register(st, "w", np.random.default_rng(2))
        m_d, post_d = measure_register(dense, "w", np.random.default_rng(2))
        assert m_c == m_d and np.array_equal(post_c.amps, post_d.amps)
        p_c, proj_c = project_register(st, "w", 7)
        p_d, proj_d = project_register(dense, "w", 7)
        assert p_c == p_d and np.array_equal(proj_c.amps, proj_d.amps)
        removed = remove_register(compact_twin(proj_d), "w")
        assert removed.rows is None
        assert np.array_equal(removed.amps, remove_register(proj_d, "w").amps)

    @pytest.mark.parametrize("regs", COMPACT_LAYOUTS)
    @pytest.mark.parametrize("live_rows", [[3], [0, 5, 6, 15]])
    def test_project_off_leading_register_keeps_rows(self, regs, live_rows):
        dense = row_sparse_state(regs, live_rows, seed=12)
        st = compact_twin(dense)
        for value in (0, 2):
            p_c, proj_c = project_register(st, "b", value)
            p_d, proj_d = project_register(dense, "b", value)
            assert proj_c.rows.tolist() == live_rows
            assert p_c == pytest.approx(p_d, rel=1e-14, abs=0)
            assert np.allclose(proj_c.amps, proj_d.amps, rtol=0, atol=1e-15)
        zero = compact_twin(dense)  # any compact state; b = 3 gets no mass below
        a = statevec._reg_axis(zero, "b")[1].copy()
        a[:, 3, :] = 0
        zero = StateVector(zero.layout, a.reshape(-1) / np.linalg.norm(a), zero.rows)
        assert project_register(zero, "b", 3) == (0.0, None)

    def test_teleport_leading_register(self):
        dense = row_sparse_state([("w", 4), ("b", 2)], [0, 6, 11], seed=8)
        outs = []
        for state in (compact_twin(dense), dense):
            channel = ClassicalChannel()
            out = teleport_register(state, "w", channel, EprPool(4), np.random.default_rng(4))
            outs.append((out, channel.transcript))
        (compact, compact_bits), (full, full_bits) = outs
        assert compact.rows.tolist() == [0, 6, 11] and full.rows is None
        assert np.array_equal(compact.amps, full.amps) and compact_bits == full_bits
        assert np.array_equal(compact.amps, dense.amps)

    @pytest.mark.parametrize("regs", COMPACT_LAYOUTS)
    @pytest.mark.parametrize("live_rows", [[3], [0, 5, 6, 15]])
    def test_probabilities_never_read_the_dense_vector(self, regs, live_rows, monkeypatch):
        dense = row_sparse_state(regs, live_rows, seed=21, live_fibers=4)
        names = [name for name, _ in regs]
        subsets = [[name] for name in names] + [names[::-1], names[1:], ["r", "w"]]
        expected = [register_probabilities(dense, name) for name in names]
        expected += [marginal_probabilities(dense, kept) for kept in subsets]
        st = compact_twin(dense)

        def no_dense(_self):
            raise AssertionError("a Born marginal read StateVector.amps")

        monkeypatch.setattr(StateVector, "amps", property(no_dense))
        got = [register_probabilities(st, name) for name in names]
        got += [marginal_probabilities(st, kept) for kept in subsets]
        for g, e in zip(got, expected, strict=True):
            assert np.array_equal(g, e)

    def test_off_leading_remove_keeps_rows(self):
        regs = [("w", 4), ("c", 2), ("x", 3)]
        dense = row_sparse_state(regs, [2, 5], seed=9)
        a = dense.amps.reshape(16, 4, 8).copy()
        a[:, [0, 2, 3], :] = 0  # register c holds 1 on every branch
        dense = StateVector.from_amplitudes(dense.layout, a.reshape(-1) / np.linalg.norm(a))
        removed = remove_register(compact_twin(dense), "c")
        assert removed.rows.tolist() == [2, 5]
        assert np.array_equal(removed.amps, remove_register(dense, "c").amps)

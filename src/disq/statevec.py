"""State-vector simulation over named qubit registers.

Registers occupy contiguous global qubit positions in layout order, most
significant first, so a measured register reads as the same integer the
protocol notation assigns to it: with layout [("a", 2), ("c", 2)], global
basis index 0b0111 means register a holds 1 and register c holds 3.

A state is stored by the rows of its *leading* (first) register: the values
of that register that can hold amplitude, in increasing order, and for each
such row the 2^(n - w0) amplitudes of the other registers; a dense state
stores every row.  Only this module reads or builds that format, and each
state's rows are set where it is built: ``init_basis`` stores the one row it
sets, ``append_register`` keeps the rows it is given, kernels on any other
register keep them, and the controlled modular multiplication, which targets
the leading register, maps them onto their image.  Order finding leads every
state with its work register, which holds only the r powers of the base (10
of 64 values for N=33 a=2).  The Born marginals sum the stored rows alone,
as squares of the real and imaginary parts added in a fixed order (see
``_born_marginal``), the Hadamard layer reads the one row of a fresh
register, and a teleport (``teleport.teleport_register``) copies the stored
rows as they are; every other operation on the leading register reads the
dense vector.
``StateVector.amps`` is always the full 2^n vector, built on each read for a
state that stores fewer rows.  A folding phase estimation stores its fold's
factors in place of its block: the gathered sources and the kept class
transforms R.  The first read of ``StateVector.block`` builds the block from
them with the fold's own products, so its bits are the same; until then the
Born marginal of a two-register state over its last register, node B's one
read, streams those products a chunk at a time and never holds the block.

Phase estimation prepares its control register as a state of its own
(``apply_hadamard_register``), joins it to the work state as the last
register in the controlled modular multiplication and runs the inverse QFT
on it; ``apply_phase_estimation`` runs one estimate, and its docstring
states when it folds those two kernels into one product.  The joins check
the joined layout against ``MAX_QUBITS``.  Gate-level decompositions are
out of scope here -- circuit-cost questions are answered analytically by
the resources module.

Measuring is sampling plus projection: ``measure_register`` draws an outcome
from the register's Born marginal and collapses the state onto it.  A
teleport gives back the input's amplitudes on every branch, so it commutes
with measuring another register.

Determinism: every random choice is one ``random()`` of the caller's
``numpy.random.Generator``, so a fixed generator state fixes all outcomes.
In this module that choice is a ``draw``, an inverse-CDF sample; a teleport
compares each Bell bit's uniform with 1/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .bitstrings import BitString

MAX_QUBITS = 26  # memory guard: at most 2^26 amplitudes (1 GiB complex128)

NORM_GUARD = 1e-8  # measurement-time probability drift that trips an error


class CapacityError(RuntimeError):
    """A layout (or an operation's extension of one) would exceed MAX_QUBITS."""


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered, named, fixed-width qubit registers packed most-significant-first."""

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.registers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate register names in {names}")
        for name, width in self.registers:
            if width < 1:
                raise ValueError(f"register {name!r} must have width >= 1, got {width}")
        if self.n > MAX_QUBITS:
            raise CapacityError(f"layout needs {self.n} qubits, guard is {MAX_QUBITS}")

    @classmethod
    def of(cls, *registers: tuple[str, int]) -> "RegisterLayout":
        return cls(tuple(registers))

    @property
    def n(self) -> int:
        return sum(width for _, width in self.registers)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.registers)

    def width(self, name: str) -> int:
        for reg, width in self.registers:
            if reg == name:
                return width
        raise ValueError(f"unknown register {name!r} (have {self.names})")

    def offset(self, name: str) -> int:
        """Number of qubits before this register, counted from the global MSB."""
        off = 0
        for reg, width in self.registers:
            if reg == name:
                return off
            off += width
        raise ValueError(f"unknown register {name!r} (have {self.names})")

    def appended(self, name: str, width: int) -> "RegisterLayout":
        return RegisterLayout(self.registers + ((name, width),))

    def removed(self, name: str) -> "RegisterLayout":
        self.width(name)  # raises on unknown name
        return RegisterLayout(tuple(r for r in self.registers if r[0] != name))


@dataclass
class StateVector:
    """A register layout plus its complex amplitudes (unit norm).

    ``block`` holds, row after row, the 2^(n - w0) amplitudes of each stored
    value of the leading register; ``rows`` lists those values in increasing
    order, or is None when every row is stored (then ``block`` is the dense
    2^n vector).  Leading-register values outside ``rows`` have amplitude 0.
    The state owns ``block``: the Fourier transforms write over it, so a
    caller that keeps the array passes a copy (``from_amplitudes`` copies).
    A fold (``apply_phase_estimation``) passes its factors (one, R) in place
    of the block: the first read of ``block`` builds the block from them and
    drops them, and until then the Born marginal of a two-register state over
    its last register reads them alone (``_fold_marginal``).
    """

    layout: RegisterLayout
    _block: np.ndarray | tuple[np.ndarray, np.ndarray]
    rows: np.ndarray | None = None

    @property
    def block(self) -> np.ndarray:
        """The stored rows' amplitudes, built from a fold's factors on first read."""
        if isinstance(self._block, tuple):
            self._block = _fold_block(*self._block)
        return self._block

    @property
    def amps(self) -> np.ndarray:
        """The full 2^n amplitude vector (a fresh array when rows are left out)."""
        if self.rows is None:
            return self.block
        w0 = self.layout.registers[0][1]
        out = np.zeros((1 << w0, 1 << (self.n - w0)), self.block.dtype)
        out[self.rows] = self.block.reshape(self.rows.size, -1)
        return out.reshape(-1)

    @classmethod
    def from_amplitudes(cls, layout: RegisterLayout, amps: np.ndarray) -> "StateVector":
        """A dense state over a copy of ``amps``, which must have unit norm."""
        amps = np.array(amps, dtype=complex).reshape(-1)
        if amps.shape != (1 << layout.n,):
            raise ValueError(f"expected {1 << layout.n} amplitudes, got {amps.shape}")
        nrm = np.linalg.norm(amps)
        if not abs(nrm - 1.0) <= NORM_GUARD:  # NaN fails too
            raise ValueError(f"amplitudes are not normalized (norm {nrm})")
        return cls(layout, amps)

    @property
    def n(self) -> int:
        return self.layout.n

    def norm_error(self) -> float:
        """|sum of probabilities - 1|; should stay below 1e-10 at all times."""
        return abs(float(np.vdot(self.block, self.block).real) - 1.0)


def _reg_axis(state: StateVector, reg: str) -> tuple[np.ndarray | None, np.ndarray]:
    """The amplitudes a kernel on ``reg`` works on, as (before, register, after).

    Returns (rows, view).  Off the leading register the view covers the
    stored rows only and ``rows`` is the state's row set, which the result
    keeps.  On the leading register the view is of the dense vector and
    ``rows`` is None.
    """
    off = state.layout.offset(reg)
    w = state.layout.width(reg)
    post = state.n - off - w
    if off == 0:
        return None, state.amps.reshape(1, 1 << w, 1 << post)
    return state.rows, state.block.reshape(-1, 1 << w, 1 << post)


def _transform(state: StateVector, reg: str, fft) -> StateVector:
    """Orthonormal ``fft`` along the register axis, written over the amplitudes it reads.

    Off the leading register, and on the leading register of a dense state,
    the result's block is the input's block, overwritten; on the leading
    register of a state that stores fewer rows, ``_reg_axis`` reads a fresh
    dense vector, which becomes the result's block.
    """
    rows, a = _reg_axis(state, reg)
    return StateVector(state.layout, fft(a, axis=1, norm="ortho", out=a).reshape(-1), rows)


def init_basis(layout: RegisterLayout, values: Mapping[str, int] | None = None) -> StateVector:
    """Computational basis state with each register set to its given value.

    Registers missing from ``values`` start at 0.  The state stores the one
    row of the leading register that it sets.
    """
    values = dict(values or {})
    for name in values:
        layout.width(name)  # raises on unknown name
    index = 0
    for name, width in layout.registers:
        v = values.get(name, 0)
        if not 0 <= v < (1 << width):
            raise ValueError(f"value {v} out of range for register {name!r} ({width} wide)")
        index = (index << width) | v
    if not layout.registers:
        return StateVector(layout, np.ones(1, dtype=complex))
    post = layout.n - layout.registers[0][1]
    block = np.zeros(1 << post, dtype=complex)
    block[index & (block.size - 1)] = 1.0
    return StateVector(layout, block, np.array([index >> post]))


def apply_hadamard_register(state: StateVector, reg: str) -> StateVector:
    """Hadamard on every qubit of a fresh register: |0..0> -> uniform superposition.

    ``reg`` must lead ``state``, and ``state`` must store only its row 0, as
    ``init_basis`` builds it; anything else raises ValueError before an
    amplitude is read.  The result is dense: the stored row times 2^(-w/2)
    in all 2^w rows.
    """
    if state.layout.offset(reg) != 0:
        raise ValueError(f"register {reg!r} must lead the state {state.layout.names}")
    if state.rows is None or list(state.rows) != [0]:
        raise ValueError(f"register {reg!r} must hold |0..0>: the state must store only row 0")
    w = state.layout.width(reg)
    out = np.empty((1 << w, state.block.size), state.block.dtype)
    out[...] = state.block * (1 / math.sqrt(1 << w))
    return StateVector(state.layout, out.reshape(-1))


def apply_qft(state: StateVector, reg: str) -> StateVector:
    """Fourier transform on the register: |j> -> 2^(-t/2) sum_k e^{2 pi i jk/2^t} |k>.

    Consumes ``state``: its amplitudes are overwritten, so use only the result.
    """
    return _transform(state, reg, np.fft.ifft)


def apply_inverse_qft(state: StateVector, reg: str) -> StateVector:
    """Adjoint of apply_qft; maps 2^(-t/2) sum_k e^{2 pi i jk/2^t} |k> back to |j>.

    Consumes ``state`` as ``apply_qft`` does.
    """
    return _transform(state, reg, np.fft.fft)


def _preimage_cycle(n_tgt: int, multiplier: int, modulus: int) -> np.ndarray:
    """cyc[y, j] = the target value that multiplier^j maps onto y, for y < n_tgt.

    One column per power below the multiplier's order, built from the powers
    of its inverse; control value j reads column j mod cyc.shape[1].  Values
    >= modulus are fixed points of the permutation.
    """
    minv = pow(multiplier, -1, modulus)
    powers = [1]
    while (nxt := powers[-1] * minv % modulus) != 1:
        powers.append(nxt)
    powers = np.array(powers, dtype=np.int64)
    ys = np.arange(n_tgt, dtype=np.int64)
    return np.where((ys < modulus)[:, None], np.multiply.outer(ys, powers) % modulus, ys[:, None])


# Four tables kept: in the protocol only sequential two-node shots join, and
# a run's estimates take two keys, node A's (work = 1) and node B's (the
# powers of a), so every shot after the first finds both, even when another
# run's two are kept beside them.
@functools.lru_cache(maxsize=4)
def _gather_table(
    rows: bytes | None, n_tgt: int, multiplier: int, modulus: int, n_ctrl: int
) -> tuple[np.ndarray, np.ndarray, bool]:
    """(image, src, pad) of a join, kept per key; both arrays are read-only.

    ``rows`` is the stored target values' int64 bytes, or None when every
    value is stored, and ``multiplier`` is reduced mod ``modulus``.  image
    lists the output rows; src[y, c] is the slot, among the k stored
    values, of the value that multiplier^c maps onto image[y], for c below
    the period (or ``n_ctrl``), with k for a value that is not stored;
    ``pad`` says whether any slot is k.  An entry holds 8 * F * (1 + P)
    bytes for F output rows and P columns, no more than the gathered
    sources of the call that built it; for a joined layout within
    ``MAX_QUBITS``, at most 768 MiB (a 25-qubit target, one control qubit).
    """
    stored = np.arange(n_tgt) if rows is None else np.frombuffer(rows, np.int64)
    k = stored.size
    slot = np.full(n_tgt, k, dtype=np.int64)  # position among the stored values; k: not stored
    slot[stored] = np.arange(k)
    src = slot[_preimage_cycle(n_tgt, multiplier, modulus)[:, :n_ctrl]]
    image = np.flatnonzero((src < k).any(axis=1))
    src = src[image]
    image.flags.writeable = src.flags.writeable = False
    return image, src, bool((src == k).any())


def _join_table(
    state: StateVector, control: StateVector, target: str, multiplier: int, modulus: int
) -> tuple[np.ndarray | None, np.ndarray, bool]:
    """Check a controlled multiplication and look up its gather table.

    Returns (rows, src, pad): the row set of the joined state (None when
    every target value holds amplitude; a read-only array shared with later
    calls otherwise), and ``_gather_table``'s src and pad for the state's
    row set.  It builds no joined layout, so it checks no qubit count.
    Every check runs on each call; a call whose row set and sizes were seen
    before finds its table kept.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if math.gcd(multiplier % modulus, modulus) != 1:
        raise ValueError(f"multiplier {multiplier} is not invertible mod {modulus}")
    if state.layout.offset(target) != 0:
        raise ValueError(f"target register {target!r} must lead the state {state.layout.names}")
    _control_register(control)
    n_tgt = 1 << state.layout.width(target)
    if n_tgt < modulus:
        raise ValueError(f"target register {target!r} too narrow for modulus {modulus}")
    rows = None if state.rows is None else np.asarray(state.rows, np.int64).tobytes()
    image, src, pad = _gather_table(rows, n_tgt, multiplier % modulus, modulus, 1 << control.n)
    return None if image.size == n_tgt else image, src, pad


def _control_register(control: StateVector) -> tuple[str, int]:
    """The (name, width) of a control, which must be a one-register state."""
    if len(control.layout.registers) != 1:
        raise ValueError(f"control must be a one-register state, got {control.layout.names}")
    return control.layout.registers[0]


def _period_sources(state: StateVector, src: np.ndarray, pad: bool) -> np.ndarray:
    """one[y, m, c]: the amplitude, at index m of the other registers, of the
    stored row that multiplier^c maps onto the y-th output row, for c below
    the multiplier's order (or below 2^t when that is smaller).

    ``src`` and ``pad`` are ``_join_table``'s for ``state``, whose target
    leads; a slot that is not stored reads one zero row.
    """
    block = state.block.reshape(-1, 1 << (state.n - state.layout.registers[0][1]))
    if pad:  # slot k (not stored) reads one zero row
        block = np.concatenate([block, np.zeros_like(block[:1])])
    return block[src].transpose(0, 2, 1)


def apply_controlled_modmul(
    state: StateVector, control: StateVector, target: str, multiplier: int, modulus: int
) -> StateVector:
    """Join ``control`` as the last register, then |x>|j> -> |multiplier^j * x mod modulus>|j>.

    ``control`` is a one-register state and ``target`` must lead ``state``.
    Target values >= modulus are left unchanged, completing the map to a
    permutation of the basis (hence a unitary).  Requires
    gcd(multiplier, modulus) = 1, otherwise the map would not be a bijection.

    The joined state is written in one pass: output row y, control value j
    holds the stored row that multiplier^(j mod period) maps onto y, times
    control[j].  The rows for one period of control values are gathered
    once and multiplied by the control a period at a time.  The result
    stores the image of the state's rows (a row set not closed under the
    multiplier grows), and a source value that is not stored reads one zero
    row.
    """
    layout = state.layout.appended(*_control_register(control))  # may raise CapacityError
    rows, src, pad = _join_table(state, control, target, multiplier, modulus)
    sources = _period_sources(state, src, pad)
    n_out, middle, period = sources.shape
    n_ctrl = 1 << control.n
    whole = n_ctrl - n_ctrl % period  # control values in whole periods
    one = sources[:, :, None, :]  # [y, m, 0, c]: sources of c mod period
    ctrl = control.amps
    out = np.empty((n_out, middle, n_ctrl), sources.dtype)
    # Splitting the last axis of a slice never copies: the product lands in out.
    periods = out[:, :, :whole].reshape(n_out, -1, whole // period, period)
    np.multiply(one, ctrl[:whole].reshape(-1, period), out=periods)
    np.multiply(one[:, :, 0, : n_ctrl - whole], ctrl[whole:], out=out[:, :, whole:])
    return StateVector(layout, out.reshape(-1), rows)


_FOLD_CHUNK = 1024  # control values per product of the fold


def _is_uniform(ctrl: np.ndarray, t: int) -> bool:
    """Whether ``ctrl`` is bitwise the fill ``apply_hadamard_register`` writes on |0..0>.

    Compares the real and imaginary parts' int64 words by their min and max,
    so -0.0 differs from +0.0 and nothing state-sized is allocated.
    """
    if ctrl.dtype != np.complex128:
        return False
    words = ctrl.view(np.int64)
    real, imag = words[0::2], words[1::2]
    fill = np.float64(1 / math.sqrt(1 << t)).view(np.int64)
    return bool(real.min() == real.max() == fill and imag.min() == imag.max() == 0)


# One entry: node B's (t, P) is the same for every stage of a run, and
# another folding (t, P) replaces it.
@functools.lru_cache(maxsize=1)
def _uniform_transforms(t: int, period: int) -> np.ndarray:
    """R, read-only: the float64 view of rows (G_q, i * G_q) for each class q mod P.

    G_q is the inverse QFT of the uniform t-qubit fill's residue class q mod
    P, from one FFT over the P rows, so R has shape 2P x 2^(t+1): row 2q
    holds G_q's real and imaginary parts interleaved, row 2q + 1 those of
    i * G_q, which are -Im G_q and Re G_q exactly.  A joined row's P complex
    sources, viewed as 2P floats, times R is then its transform, in one real
    product.  The 2 * P * 2^t amplitudes are built in place, once per key,
    and read in place by every fold, so shot threads share them without
    copying them.
    """
    r = np.empty((period, 2, 1 << t), complex)
    g = r[:, 0]
    g[...] = 0
    for q in range(period):
        g[q, q::period] = 1 / math.sqrt(1 << t)
    np.fft.fft(g, axis=1, norm="ortho", out=g)
    np.negative(g.imag, out=r[:, 1].real)
    np.copyto(r[:, 1].imag, g.real)
    r = r.reshape(2 * period, 1 << t).view(np.float64)
    r.flags.writeable = False
    return r


def apply_phase_estimation(
    state: StateVector, control: StateVector, target: str, multiplier: int, modulus: int
) -> StateVector:
    """``apply_controlled_modmul``, then ``apply_inverse_qft`` on the joined control.

    Takes the same arguments, and gives the same state up to rounding, as
    those two kernels in turn.  Each joined row repeats, along the control
    axis, one period of P sources times the control, where P is the
    multiplier's order; so its transform is sum_q one[q] * G_q, where G_q
    is the transform of the control amplitudes of residue class q (mod P).
    Over F = rows * (other-register values) joined rows and a t-qubit
    control, the fold runs P FFTs of 2^t and a product of P * F
    multiply-adds per control value, in place of F FFTs of about t
    multiply-adds per value each.  The fold rule: it is taken when it costs
    no more, P * F <= (F - P) * t, and the control is bitwise the uniform
    fill ``apply_hadamard_register`` writes, as every estimate's is;
    otherwise (always for an estimate that starts from one row, where
    F = P) the two kernels run as they are.  The gather table alone gives
    P (its columns) and F (its rows times the other registers' values), so
    the joined layout is checked and the table looked up before anything
    state-sized is gathered, and only a folding estimate gathers its
    sources here.

    The G_q of the uniform fill depend only on (t, P): ``_uniform_transforms``
    builds them on the first fold of a (t, P) and keeps them for one (t, P)
    at a time, as R, the float64 view of rows (G_q, i * G_q).  With the
    sources' float view [Re one_q, Im one_q], the real product one @ R is
    sum_q one_q * G_q, real and imaginary parts interleaved.  The result
    stores the sources and the read-only R as its factors: a fold that finds
    R kept writes nothing state-sized, each product writes the block's float
    view straight from R when the block is first read (``_fold_block``), and
    a control marginal reads the products without it (``_fold_marginal``).
    Each product covers the stored target rows of one value of the other
    registers and ``_FOLD_CHUNK`` control values (n_out x 2P by 2P x 2 *
    ``_FOLD_CHUNK`` floats), so a row's bits do not depend on the other
    registers or on how OpenBLAS tiles a taller product, and it stays on the
    calling thread: OpenBLAS runs a product of a few hundred thousand
    multiply-adds or fewer there, instead of waking its thread pool.
    """
    layout = state.layout.appended(*_control_register(control))  # may raise CapacityError
    rows, src, pad = _join_table(state, control, target, multiplier, modulus)
    n_out, period = src.shape
    joined = n_out << (state.n - state.layout.registers[0][1])
    t = control.n
    if not (period * joined <= (joined - period) * t and _is_uniform(control.amps, t)):
        st = apply_controlled_modmul(state, control, target, multiplier, modulus)
        return apply_inverse_qft(st, control.layout.names[0])
    # one[m]: the n_out x 2P float view of the sources at other-register value m
    one = np.ascontiguousarray(_period_sources(state, src, pad).transpose(1, 0, 2), complex)
    return StateVector(layout, (one.view(np.float64), _uniform_transforms(t, period)), rows)


def _fold_block(one: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The block of a fold's factors: one @ R, a product per other-register
    value m and ``_FOLD_CHUNK`` control values, written into the complex
    output's floats."""
    out = np.empty((one.shape[1], one.shape[0], r.shape[1]))
    width = min(r.shape[1], 2 * _FOLD_CHUNK)
    for m in range(one.shape[0]):
        for c in range(0, r.shape[1], width):
            np.matmul(one[m], r[:, c : c + width], out=out[:, m, c : c + width])
    return out.view(complex).reshape(-1)


def _fold_marginal(one: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The control marginal of a two-register fold's factors, with no block.

    Each of ``_fold_block``'s products lands in one buffer, is squared in
    place and summed over its rows by one ``np.add.reduce``, in row order:
    the bits ``_row_order_squares`` gives on the block.
    """
    width = min(r.shape[1], 2 * _FOLD_CHUNK)
    buf = np.empty((one.shape[1], width))
    squares = np.empty(r.shape[1])
    for c in range(0, r.shape[1], width):
        np.square(np.matmul(one[0], r[:, c : c + width], out=buf), out=buf)
        np.add.reduce(buf, axis=0, out=squares[c : c + width])
    return squares[0::2] + squares[1::2]


_SQUARE_GROUP = 1 << 15  # floats squared at a time while summing the leading rows


def _row_order_squares(rows: np.ndarray) -> np.ndarray:
    """The squares of ``rows`` summed over its first axis, one row after another.

    A row of ``_SQUARE_GROUP`` floats or more is squared into one buffer and
    added to the sum; narrower rows are squared a group of about
    ``_SQUARE_GROUP`` floats at a time and the group added in order, so a
    small array takes two calls.  The temporaries are the sum and one group,
    and the sum's bits do not depend on the group size.
    """
    n, width = rows.shape
    per = _SQUARE_GROUP // width
    if per <= 1:
        squares = np.square(rows[0])
        buf = np.empty(width)
        for row in rows[1:]:
            squares += np.square(row, out=buf)
        return squares
    squares = np.add.reduce(np.square(rows[:per]), axis=0)
    for i in range(per, n, per):
        part = np.square(rows[i : i + per])
        part[0] += squares  # the sum so far, then these rows in order
        np.add.reduce(part, axis=0, out=squares)
    return squares


def _born_marginal(state: StateVector, regs: Sequence[str]) -> np.ndarray:
    """Exact Born-rule marginal over the registers, axes in the given order.

    Works on the block's float64 view, squaring real and imaginary parts
    apart, in a fixed order: a dropped leading register's stored rows are
    accumulated first, in row order; then the other dropped registers are
    summed; then re^2 + im^2 is formed.  Rows of exact zeros add +0.0 to the
    row-order sum, so a compact state gives its dense twin's bits; a kept
    leading register is summed row by row and its stored rows are scattered
    into zeros.  Summing the dropped leading rows holds one row's squares
    and one group of rows (``_row_order_squares``), not a float per stored
    amplitude.  A two-register state that still holds a fold's factors
    gives its last register's marginal from them (``_fold_marginal``).
    """
    if len(set(regs)) != len(regs):
        raise ValueError(f"duplicate registers in {regs}")
    for r in regs:
        state.layout.width(r)  # raises on unknown name
    shape = [1 << w for _, w in state.layout.registers]
    if state.rows is not None:
        shape[0] = state.rows.size
    keep = [state.layout.names.index(r) for r in regs]
    if isinstance(state._block, tuple) and len(shape) == 2 and keep == [1]:
        return _fold_marginal(*state._block)
    floats = np.ascontiguousarray(state.block, complex).view(np.float64)
    if 0 in keep:
        squares = np.square(floats).reshape(*shape, 2)
        drop = tuple(i for i in range(len(shape)) if i not in keep)
    else:
        squares = _row_order_squares(floats.reshape(shape[0], -1))
        squares = squares.reshape(*shape[1:], 2)
        drop = tuple(i - 1 for i in range(1, len(shape)) if i not in keep)
    if drop:
        squares = squares.sum(axis=drop)
    probs = squares[..., 0] + squares[..., 1]
    if state.rows is not None and 0 in keep:
        full = np.zeros((1 << state.layout.registers[0][1], *probs.shape[1:]))
        full[state.rows] = probs
        probs = full
    return probs.transpose([sorted(keep).index(i) for i in keep])


def register_probabilities(state: StateVector, reg: str) -> np.ndarray:
    """Exact Born-rule marginal over the register, as a length-2^w float array."""
    return _born_marginal(state, [reg])


def marginal_probabilities(state: StateVector, regs: Sequence[str]) -> np.ndarray:
    """Joint Born-rule marginal over several registers, axes in the given order."""
    return _born_marginal(state, regs)


def project_register(
    state: StateVector, reg: str, value: int
) -> tuple[float, StateVector | None]:
    """Probability of the outcome and the renormalized post-projection state.

    Returns (0.0, None) when the outcome has no support.  Off the leading
    register only the stored rows are read and the result keeps the row set.
    """
    w = state.layout.width(reg)
    if not 0 <= value < (1 << w):
        raise ValueError(f"value {value} out of range for register {reg!r}")
    rows, a = _reg_axis(state, reg)
    p = float(np.sum(np.abs(a[:, value, :]) ** 2))
    if p == 0.0:
        return 0.0, None
    out = np.zeros(a.shape, a.dtype)
    out[:, value, :] = a[:, value, :] / math.sqrt(p)
    return p, StateVector(state.layout, out.reshape(-1), rows)


def draw(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Outcome index drawn by inverse CDF over ``probs`` from one ``rng.random()``.

    Outcome k is drawn for a uniform u with cdf[k-1] <= u * total < cdf[k],
    so an outcome of zero mass is never drawn; the last outcome with mass
    takes what rounding leaves above the cumulative sum.
    """
    total = float(probs.sum())
    if not abs(total - 1.0) <= NORM_GUARD:  # NaN fails too
        raise RuntimeError(f"state norm drifted: probabilities sum to {total}")
    u = rng.random() * total
    k = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    if k < probs.size:
        return k
    return int(np.flatnonzero(probs > 0)[-1])


def measure_register(
    state: StateVector, reg: str, rng: np.random.Generator
) -> tuple[BitString, StateVector]:
    """Draw a register outcome (Born rule) with ``draw`` and collapse the state."""
    m = draw(register_probabilities(state, reg), rng)
    _, collapsed = project_register(state, reg, m)
    assert collapsed is not None
    return BitString(state.layout.width(reg), m), collapsed


def append_register(state: StateVector, name: str, width: int) -> StateVector:
    """Adjoin a fresh register (least significant block) in |0..0>.

    The result stores the rows the input stores.
    """
    layout = state.layout.appended(name, width)  # raises CapacityError when too big
    out = np.zeros((state.block.size, 1 << width), dtype=complex)
    out[:, 0] = state.block
    return StateVector(layout, out.reshape(-1), state.rows)


def remove_register(state: StateVector, reg: str) -> StateVector:
    """Drop a register that is in (very nearly) a definite basis state.

    Used to discard measured registers and spent work qubits; raises if the
    register is still entangled with or in superposition over the rest.
    """
    probs = register_probabilities(state, reg)
    v = int(np.argmax(probs))
    if not probs[v] >= 1.0 - 1e-9:  # NaN fails too
        raise ValueError(
            f"register {reg!r} is not in a basis state (max outcome mass {probs[v]:.6f})"
        )
    rows, a = _reg_axis(state, reg)
    kept = a[:, v, :] / math.sqrt(float(probs[v]))
    return StateVector(state.layout.removed(reg), kept.reshape(-1), rows)


def phase_superposition(t: int, omega: Fraction, name: str = "phase") -> StateVector:
    """The t-qubit state 2^(-t/2) sum_j e^{2 pi i j omega} |j> for rational omega.

    Phases are reduced mod 1 in exact integer arithmetic before exponentiation,
    so large j values lose no precision: in int64 while den * 2^t fits in
    it, in Python integers past that.
    """
    omega = Fraction(omega)
    num, den = omega.numerator % omega.denominator, omega.denominator
    layout = RegisterLayout.of((name, t))
    if den << t < 1 << 63:  # j * num < den * 2^t
        turns = 2j * np.pi * (np.arange(1 << t, dtype=np.int64) * num % den) / den
    else:
        turns = 2j * np.pi * np.array([j * num % den / den for j in range(1 << t)])
    amps = np.exp(turns) / math.sqrt(1 << t)
    return StateVector(layout, amps)

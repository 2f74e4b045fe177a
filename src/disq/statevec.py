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
and the Hadamard layer reads the one row of a fresh register; every other
operation on the leading register reads the dense vector, and of those only
``teleport_qubits`` gives back the stored rows.
``StateVector.amps`` is always the full 2^n vector, built on each read for a
state that stores fewer rows.

Phase estimation prepares its control register as a state of its own: the
Hadamard layer takes a fresh register in |0..0> to the uniform
superposition, a vector of 2^t amplitudes.  The controlled
modular multiplication joins that state to the work state as the last
register and applies the basis permutation it semantically is (values >= the
modulus are fixed points, which keeps the map a bijection and hence
unitary), writing each joined amplitude once from the work state's stored
rows through a table of the multiplier's inverse powers built by each call.
The Fourier transforms are applied as orthonormal FFTs along the register
axis, written over the state they are given.  ``apply_phase_estimation`` is
that multiplication followed by the inverse QFT on the joined control.  Each
joined row repeats one period of P source amplitudes along the control axis
(P the multiplier's order), so when the product costs no more than the FFTs
it saves -- P * F <= (F - P) * t for F joined rows and a t-qubit control --
it transforms the control's P residue classes mod P once and writes every
row as a sum of P of them; otherwise, and always for an estimate that starts
from one row (F = P), it runs the two kernels.  Gate-level decompositions are
out of scope here -- circuit-cost questions are answered analytically by the
resources module.

Measuring is sampling plus projection: ``measure_register`` draws an outcome
from the register's Born marginal and collapses the state onto it.

Determinism: every random choice is one ``draw``, an inverse-CDF sample from
one ``random()`` of the caller's ``numpy.random.Generator``, so a fixed
generator state fixes all outcomes.
"""

from __future__ import annotations

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
    """A register layout plus its complex amplitudes (always unit norm).

    ``block`` holds, row after row, the 2^(n - w0) amplitudes of each stored
    value of the leading register; ``rows`` lists those values in increasing
    order, or is None when every row is stored (then ``block`` is the dense
    2^n vector).  Leading-register values outside ``rows`` have amplitude 0.
    The state owns ``block``: the Fourier transforms write over it, so a
    caller that keeps the array passes a copy (``from_amplitudes`` copies).
    """

    layout: RegisterLayout
    block: np.ndarray
    rows: np.ndarray | None = None

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


def _period_sources(
    state: StateVector, control: StateVector, target: str, multiplier: int, modulus: int
) -> tuple[RegisterLayout, np.ndarray | None, np.ndarray]:
    """Check a controlled multiplication and gather one period of its sources.

    Returns (layout, rows, one): the layout with ``control`` joined last,
    the row set of the joined state (None when every target value holds
    amplitude), and one[y, m, c]: the amplitude, at index m of the other
    registers, of the stored row that multiplier^c maps onto the y-th
    output row, for c below the multiplier's order (or below 2^t when that
    is smaller).
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if math.gcd(multiplier % modulus, modulus) != 1:
        raise ValueError(f"multiplier {multiplier} is not invertible mod {modulus}")
    if state.layout.offset(target) != 0:
        raise ValueError(f"target register {target!r} must lead the state {state.layout.names}")
    if len(control.layout.registers) != 1:
        raise ValueError(f"control must be a one-register state, got {control.layout.names}")
    layout = state.layout.appended(*control.layout.registers[0])  # may raise CapacityError
    n_tgt = 1 << state.layout.width(target)
    if n_tgt < modulus:
        raise ValueError(f"target register {target!r} too narrow for modulus {modulus}")
    stored = np.arange(n_tgt) if state.rows is None else state.rows
    k = stored.size
    slot = np.full(n_tgt, k, dtype=np.int64)  # position among the stored values; k: not stored
    slot[stored] = np.arange(k)
    # src[y, c]: slot of the value that the multiplier's power c maps onto y
    src = slot[_preimage_cycle(n_tgt, multiplier, modulus)[:, : 1 << control.n]]
    image = np.flatnonzero((src < k).any(axis=1))
    src = src[image]
    block = state.block.reshape(k, -1)
    if (src == k).any():  # slot k (not stored) reads one zero row
        block = np.concatenate([block, np.zeros_like(block[:1])])
    return layout, None if image.size == n_tgt else image, block[src].transpose(0, 2, 1)


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
    layout, rows, sources = _period_sources(state, control, target, multiplier, modulus)
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
    multiply-adds per value each.  It is taken when it costs no more, i.e.
    when P * F <= (F - P) * t; otherwise (always for an estimate that starts
    from one row, where F = P) the two kernels run as they are.

    The G_q are built and transformed in the output's last P rows.  The
    output is then written ``_FOLD_CHUNK`` control values at a time: the
    rows before the last P straight into place, then the last P through a
    P-row temporary, so the stage holds the output block and no second one.
    The bounded products also keep node B's small ones on the calling
    thread: OpenBLAS runs a product of a few hundred thousand multiply-adds
    or fewer there, instead of waking its thread pool, whose threads then
    spin between calls.
    """
    layout, rows, sources = _period_sources(state, control, target, multiplier, modulus)
    n_out, middle, period = sources.shape
    joined = n_out * middle
    t = control.n
    if period * joined > (joined - period) * t:  # the public kernels, which gather again
        st = apply_controlled_modmul(state, control, target, multiplier, modulus)
        return apply_inverse_qft(st, control.layout.names[0])
    one = sources.reshape(joined, period)
    out = np.empty((joined, 1 << t), sources.dtype)
    rest, g = out[: joined - period], out[joined - period :]
    ctrl = control.amps
    g.fill(0)
    for q in range(period):
        g[q, q::period] = ctrl[q::period]
    np.fft.fft(g, axis=1, norm="ortho", out=g)
    for c in range(0, 1 << t, _FOLD_CHUNK):
        cols = slice(c, c + _FOLD_CHUNK)
        np.matmul(one[: joined - period], g[:, cols], out=rest[:, cols])
        g[:, cols] = one[joined - period :] @ g[:, cols]
    return StateVector(layout, out.reshape(-1), rows)


def _born_marginal(state: StateVector, regs: Sequence[str]) -> np.ndarray:
    """Exact Born-rule marginal over the registers, axes in the given order.

    Only the stored rows are summed: a dropped leading register is the
    outermost axis, which numpy sums in order, so leaving out rows of exact
    zeros changes no bit; a kept one is summed row by row and its stored
    rows are scattered into zeros.
    """
    if len(set(regs)) != len(regs):
        raise ValueError(f"duplicate registers in {regs}")
    for r in regs:
        state.layout.width(r)  # raises on unknown name
    shape = [1 << w for _, w in state.layout.registers]
    if state.rows is not None:
        shape[0] = state.rows.size
    probs = np.abs(state.block.reshape(shape))
    np.square(probs, out=probs)
    keep = [state.layout.names.index(r) for r in regs]
    drop = tuple(i for i in range(len(shape)) if i not in keep)
    probs = probs.sum(axis=drop)
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
    k = int(np.searchsorted(np.cumsum(probs), rng.random() * total, side="right"))
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


def teleport_qubits(
    state: StateVector, reg: str, rng: np.random.Generator
) -> tuple[StateVector, list[tuple[int, int]]]:
    """Teleport each qubit of the register, MSB first, onto a pair half in its place.

    The Bell measurement of qubit q and the near pair half leaves the far
    half in one of four branches: branch (z, x) holds
    1/2 sum_q (-1)^(qz) a_q at q xor x.  z is drawn first, then x given z,
    and the fix-up X^x then Z^z on the far half restores a_q, so the kept
    branch is written once, as 0.5 * a / sqrt(p[z, x]).  z only flips signs,
    so p[1, x] equals p[0, x] bit for bit and only the two masses of z = 0
    are summed, each in its branch's order.  The register is read once, and
    the result stores the input's rows.

    Returns (state, bits): the (z, x) pair sent to the far node per qubit.
    """
    rows, a = _reg_axis(state, reg)
    before = a.shape[0]
    bits = []
    for k in range(state.layout.width(reg)):
        half = 0.5 * a.reshape(before << k, 2, -1)
        # p[x]: the mass of branch (z, x) for either z
        p = np.array([np.sum(np.abs(b) ** 2) for b in (half, half[:, ::-1].copy())])
        z = draw(np.full(2, p.sum()), rng)
        x = draw(p / p.sum(), rng)
        a = half / math.sqrt(p[x])
        bits.append((z, x))
    if rows is None and state.rows is not None:  # the leading register, read dense
        rows = state.rows
        a = a.reshape(1 << state.layout.registers[0][1], -1)[rows]
    return StateVector(state.layout, a.reshape(-1), rows), bits


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
    so large j values lose no precision.
    """
    omega = Fraction(omega)
    layout = RegisterLayout.of((name, t))
    j = np.arange(1 << t, dtype=np.int64)
    reduced = (j * omega.numerator) % omega.denominator if omega.denominator > 1 else j * 0
    amps = np.exp(2j * np.pi * reduced / omega.denominator) / math.sqrt(1 << t)
    return StateVector(layout, amps)

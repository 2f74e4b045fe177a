"""Qubit-by-qubit teleportation of a register, with explicit resource accounting.

Each teleported qubit consumes one entangled pair from the pool and puts two
classical bits on the channel, so moving an L-qubit register costs exactly
L pairs and 2L bits (Bennett et al., PRL 70, 1895 (1993)).  Each qubit
really goes through the protocol: a Bell measurement of the qubit and its
half of the pair, whose two bits are drawn from the four branches' masses,
and the conditioned X/Z fix-up on the other half, which returns the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import statevec
from .statevec import StateVector


class EprPoolError(RuntimeError):
    """Not enough unconsumed entangled pairs for the requested transfer."""


@dataclass
class ClassicalChannel:
    """Ordered transcript of classical bits sent between the two nodes."""

    transcript: list[int] = field(default_factory=list)

    def send(self, bit: int) -> None:
        if bit not in (0, 1):
            raise ValueError(f"channel carries single bits, got {bit!r}")
        self.transcript.append(bit)

    @property
    def bit_count(self) -> int:
        return len(self.transcript)


@dataclass
class EprPool:
    """Pre-shared entangled pairs; consumption never exceeds the allocation."""

    allocated: int
    consumed: int = 0

    @property
    def available(self) -> int:
        return self.allocated - self.consumed

    def consume(self, k: int = 1) -> None:
        if self.consumed + k > self.allocated:
            raise EprPoolError(
                f"requested {k} pair(s) with only {self.available} of {self.allocated} left"
            )
        self.consumed += k


def _teleport_qubit(state: StateVector, reg: str, k: int, rng: np.random.Generator):
    """Teleport qubit k of the register onto a pair half, in place of itself.

    The Bell measurement of qubit q and the near pair half leaves the far
    half in one of four branches: branch (z, x) holds
    1/2 sum_q (-1)^(qz) a_q at q xor x.  z is drawn first, then x given z,
    and the fix-up X^x then Z^z on the far half restores a_q.

    Returns (state, z, x): the two classical bits sent to the far node.
    """
    a = state.amps.reshape(1 << (state.layout.offset(reg) + k - 1), 2, -1)
    sign = np.array([1, -1])[:, None]  # (-1)^q along the qubit axis
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
    return StateVector(state.layout, (out / math.sqrt(p[z, x])).reshape(-1)), z, x


def teleport_register(
    state: StateVector,
    reg: str,
    channel: ClassicalChannel,
    pool: EprPool,
    rng: np.random.Generator,
) -> StateVector:
    """Move a register from one node's ownership to the other's.

    The returned state has the same layout and, on every branch, the same
    amplitudes (teleportation is exact); what changes is the accounting:
    width(reg) pairs consumed and 2*width(reg) bits on the channel, in
    (z, x) order per qubit.
    """
    width = state.layout.width(reg)
    if pool.available < width:
        raise EprPoolError(
            f"register {reg!r} needs {width} pair(s), pool has {pool.available}"
        )
    for k in range(1, width + 1):
        state, z, x = _teleport_qubit(state, reg, k, rng)
        channel.send(z)
        channel.send(x)
        pool.consume(1)
    return state

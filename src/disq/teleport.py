"""Qubit-by-qubit teleportation of a register, with explicit resource accounting.

Each teleported qubit consumes one entangled pair from the pool and puts two
classical bits on the channel, so moving an L-qubit register costs exactly
L pairs and 2L bits (Bennett et al., PRL 70, 1895 (1993)).
``statevec.teleport_qubits`` runs the Bell measurement of each qubit: each
of the four outcomes has mass exactly 1/4 whatever the state, so its two
bits are fair draws, and the X/Z fix-up restores the amplitudes, so the
register crosses bit for bit.  This module spends the register's pairs from
the pool before the kernel runs and puts each qubit's two bits on the
channel.
"""

from __future__ import annotations

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
        if k < 1:
            raise ValueError(f"pairs are consumed one or more at a time, got {k}")
        if self.consumed + k > self.allocated:
            raise EprPoolError(
                f"requested {k} pair(s) with only {self.available} of {self.allocated} left"
            )
        self.consumed += k


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
    width(reg) pairs consumed, all at once before the state is touched, and
    2*width(reg) bits on the channel, in (z, x) order per qubit.
    """
    pool.consume(state.layout.width(reg))
    state, bits = statevec.teleport_qubits(state, reg, rng)
    for z, x in bits:
        channel.send(z)
        channel.send(x)
    return state

"""Qubit-by-qubit teleportation of a register, with explicit resource accounting.

Each teleported qubit consumes one entangled pair from the pool and puts two
classical bits on the channel, so moving an L-qubit register costs exactly
L pairs and 2L bits (Bennett et al., PRL 70, 1895 (1993)).  The bits are
fair and the register crosses bit for bit (see ``teleport_register``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .statevec import NORM_GUARD, StateVector


class EprPoolError(RuntimeError):
    """Not enough unconsumed entangled pairs for the requested transfer."""


@dataclass
class ClassicalChannel:
    """Ordered transcript of classical bits sent between the two nodes."""

    transcript: list[int] = field(default_factory=list)

    def send(self, bit: int) -> None:
        # True, 1.0 and numpy integers compare equal to 1 as well; a record
        # would then print ``true`` or ``1.0``, or fail to serialise.
        if type(bit) is not int or bit not in (0, 1):
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

    Consumes width(reg) pairs, all at once before the state is touched; a
    state whose norm has drifted then raises before any bit is sent.  The
    Bell measurement of each qubit, most significant first, leaves the far
    pair half in branch (z, x), 1/2 sum_q (-1)^(qz) a_q at q xor x, of mass
    1/4 for every state, and the fix-up X^x then Z^z restores a_q.  So each
    bit, z then x, is 1 exactly when one ``rng.random()`` is at least 1/2,
    and goes on the channel; the result holds a copy of the input's block
    over its rows, the same amplitudes on every branch.
    """
    pool.consume(state.layout.width(reg))
    err = state.norm_error()
    if not err <= NORM_GUARD:  # NaN fails too
        raise RuntimeError(f"state norm drifted: |sum of probabilities - 1| = {err}")
    for _ in range(2 * state.layout.width(reg)):
        channel.send(int(rng.random() >= 0.5))
    return StateVector(state.layout, state.block.copy(), state.rows)

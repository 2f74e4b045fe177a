"""Teleportation pays two classical bits per qubit and moves states exactly.

Each Bell-measurement outcome has mass 1/4 whatever the state, so each of
the two bits per qubit is a fair draw, and the X/Z fix-up restores the
amplitudes, so the register crosses bit for bit.  Three little experiments:
a random qubit crosses with fidelity 1 on whichever branch the measurement
picks; a register entangled with a bystander register keeps the exact joint
distribution, for two bits and one pair per qubit; and forcing each of the
four measurement branches in turn gives the same amplitudes back every time.
"""

import numpy as np

from disq import RegisterLayout, StateVector, marginal_probabilities, teleport_register
from disq.teleport import ClassicalChannel, EprPool


def random_state(layout, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << layout.n) + 1j * rng.normal(size=1 << layout.n)
    return StateVector.from_amplitudes(layout, amps / np.linalg.norm(amps))


class ForcedUniforms:
    """Stands in for a generator: random() returns the given uniforms in order.

    Each measured bit is 0 when its uniform is below that outcome's mass of
    1/2, so 0.25 forces a 0 and 0.75 a 1.
    """

    def __init__(self, uniforms):
        self._uniforms = iter(uniforms)

    def random(self):
        return next(self._uniforms)


print("1. a random single qubit, four different runs (different branches):")
st = random_state(RegisterLayout.of(("c", 1)), 7)
for seed in range(4):
    ch = ClassicalChannel()
    out = teleport_register(st, "c", ch, EprPool(1), np.random.default_rng(seed))
    fid = abs(np.vdot(out.amps, st.amps)) ** 2
    print(f"   branch bits {ch.transcript}: fidelity = {fid:.15f}")

print("\n2. a 3-qubit register entangled with a 2-qubit bystander:")
st = random_state(RegisterLayout.of(("bystander", 2), ("c", 3)), 11)
before = marginal_probabilities(st, ["bystander", "c"])
ch, pool = ClassicalChannel(), EprPool(3)
out = teleport_register(st, "c", ch, pool, np.random.default_rng(5))
after = marginal_probabilities(out, ["bystander", "c"])
print(f"   max |joint distribution change| = {np.max(np.abs(before - after)):.2e}")
print(f"   classical bits sent = {ch.bit_count}, pairs consumed = {pool.consumed}")

print("\n3. each of the four Bell-measurement branches, forced in turn:")
for z in (0, 1):
    for x in (0, 1):
        ch = ClassicalChannel()
        forced = ForcedUniforms([0.25 + 0.5 * z, 0.25 + 0.5 * x] * 3)
        branch = teleport_register(st, "c", ch, EprPool(3), forced)
        err = np.max(np.abs(branch.amps - st.amps))
        print(f"   (z, x) = ({z}, {x}) on every qubit: max |amplitude change| = {err:.2e}")

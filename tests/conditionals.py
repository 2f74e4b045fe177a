"""Each live outcome's conditional, as ``statevec.project_register`` and then
``statevec.remove_register`` leave it."""

import numpy as np

from disq import statevec
from disq.statevec import StateVector


def conditionals(state: StateVector, reg: str, min_mass: float):
    """(p, values, states): p[v] is ``project_register``'s probability of
    outcome v, ``values`` lists in increasing order the outcomes with mass
    whose p is not below ``min_mass``, and states[j] is the state projected
    onto outcome values[j] with ``reg`` removed."""
    p = np.zeros(1 << state.layout.width(reg))
    values, states = [], []
    for v in range(p.size):
        p[v], projected = statevec.project_register(state, reg, v)
        if projected is not None and not p[v] < min_mass:
            values.append(v)
            states.append(statevec.remove_register(projected, reg))
    return p, np.array(values, dtype=np.int64), states

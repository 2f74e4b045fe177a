"""Each live outcome's conditional, read out of the one batch that
``statevec.condition_register`` gives."""

import numpy as np

from disq import statevec
from disq.statevec import StateVector


def conditionals(state: StateVector, reg: str, min_mass: float):
    """(p, values, states): ``condition_register``'s p and values, and its
    batch's value j, copied out as a state of its own, for outcome values[j]."""
    p, values, batch = statevec.condition_register(state, reg, min_mass)
    if reg not in batch.layout.names:  # one live outcome: the batch is its state
        return p, values, [batch][: values.size]
    view = statevec._reg_axis(batch, reg)[1]
    layout = batch.layout.removed(reg)
    states = [StateVector(layout, np.array(view[:, j, :]).reshape(-1), batch.rows)
              for j in range(values.size)]
    return p, values, states

"""The check an exact law passes against the Born marginal of a state-vector
execution of the estimates it stands for."""

import numpy as np

FOLD_TOL = 1e-15  # the fold, the closed-form law and the per-row FFT round differently
ZERO_TOL = 1e-30  # a stage entry this small may be an exact zero of the law


def assert_near_the_stage(law: np.ndarray, stage: np.ndarray) -> None:
    """Every entry within FOLD_TOL of the stage's, every zero of the stage a
    zero of the law, the stage below ZERO_TOL where only the law is zero,
    and no entry negative."""
    assert law.shape == stage.shape
    assert np.max(np.abs(law - stage)) <= FOLD_TOL
    assert (law[stage == 0] == 0).all()
    assert (stage[law == 0] < ZERO_TOL).all()
    assert (law >= 0).all()

"""disq: two-node order finding on a seeded state-vector simulator.

The package splits phase estimation for order finding across two simulated
nodes linked by qubit teleportation and a classical channel, stitches the
two partial measurements into one full-width estimate, and recovers the
multiplicative order by continued fractions.  A single-node engine and an
exact-distribution oracle run alongside for verification, and an analytic
module accounts for the qubit/depth/communication trade-offs.

Importing disq loads numpy with OpenBLAS on one thread.  Every product the
simulator runs is sized for the calling thread, and OpenBLAS's worker pool,
which starts while numpy loads, costs each process about 60 ms of CPU and
buys no speed here.  ``OPENBLAS_NUM_THREADS=1`` is set only for that import
and then removed, so ``os.environ`` is left exactly as it was and programs
that the process starts inherit their own environment.  This is skipped when
numpy is already imported, which keeps numpy's own setting, or when any of
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set,
which stays the way to choose OpenBLAS's thread count.  So a program that
imports numpy before disq runs disq on numpy's pool.
"""

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _import_numpy_on_one_thread() -> None:
    """Import numpy with OpenBLAS on one thread, leaving os.environ as it was."""
    import os
    import sys

    if "numpy" in sys.modules or any(name in os.environ for name in _BLAS_THREAD_VARS):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401  OpenBLAS reads its thread count once, as numpy loads it
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


# Before the submodules, which import numpy.
_import_numpy_on_one_thread()

from .bitstrings import BitString, circular_distance, fraction_bits
from .numeric import ceil_log2, convergents, multiplicative_order, recover_order
from .protocol import (
    ENGINE_DISTRIBUTED,
    ENGINE_MONOLITHIC,
    MODE_JOINT,
    MODE_SEQUENTIAL,
    FactoringResult,
    OutcomeRecord,
    ProtocolParams,
    classify_outcome,
    correct_results,
    distributed_joint_distribution,
    monolithic_exact_distribution,
    run_shor_factoring,
    run_shots,
    stitched_value_distribution,
    summarize,
)
from .resources import ResourceReport, account
from .statevec import (
    MAX_QUBITS,
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
from .teleport import ClassicalChannel, EprPool, EprPoolError, teleport_register

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "CapacityError",
    "ClassicalChannel",
    "ENGINE_DISTRIBUTED",
    "ENGINE_MONOLITHIC",
    "EprPool",
    "EprPoolError",
    "FactoringResult",
    "MAX_QUBITS",
    "MODE_JOINT",
    "MODE_SEQUENTIAL",
    "OutcomeRecord",
    "ProtocolParams",
    "RegisterLayout",
    "ResourceReport",
    "StateVector",
    "account",
    "apply_controlled_modmul",
    "apply_hadamard_register",
    "apply_inverse_qft",
    "apply_phase_estimation",
    "apply_qft",
    "ceil_log2",
    "circular_distance",
    "classify_outcome",
    "convergents",
    "correct_results",
    "distributed_joint_distribution",
    "fraction_bits",
    "init_basis",
    "marginal_probabilities",
    "measure_register",
    "monolithic_exact_distribution",
    "multiplicative_order",
    "phase_superposition",
    "project_register",
    "recover_order",
    "register_probabilities",
    "remove_register",
    "run_shor_factoring",
    "run_shots",
    "stitched_value_distribution",
    "summarize",
    "teleport_register",
]

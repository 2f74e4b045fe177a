"""disq: two-node order finding on a seeded state-vector simulator.

The package splits phase estimation for order finding across two simulated
nodes linked by qubit teleportation and a classical channel, stitches the
two partial measurements into one full-width estimate, and recovers the
multiplicative order by continued fractions.  A single-node engine and an
exact-distribution oracle run alongside for verification, and an analytic
module accounts for the qubit/depth/communication trade-offs.
"""

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

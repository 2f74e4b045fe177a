"""Analytic resource accounting: qubits, gate order, depth proxies, and
communication for single-node versus two-node order finding.

Nothing here is measured from the simulator.  The closed forms count, per
side, the control register, the L-qubit work register, the L entangled-pair
halves each node holds during the handoff, and b auxiliary qubits of the
underlying multiplier circuit (an O(L) term that is identical on both sides
and therefore cancels in every difference; it defaults to 0).  Depth is
reported as the control-register length -- the number of controlled
multiplier stages -- with each stage carrying an O(L^2) factor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .protocol import control_widths, paddings

GATE_COUNT_ORDER = "O(L^3)"
DEPTH_STAGE_ORDER = "O(L^2) per controlled-multiplier stage"
AUX_QUBITS_ORDER = "O(L)"
REFERENCE_COMM_ORDER = "O(L^2)"


@dataclass(frozen=True)
class ResourceReport:
    """Closed-form resource figures for one (L, epsilon, b) configuration."""

    L: int
    epsilon: Fraction
    b_aux: int
    qubits_monolithic: int
    qubits_node_a: int
    qubits_node_b: int
    ctrl_len_monolithic: int
    ctrl_len_node_a: int
    ctrl_len_node_b: int
    classical_bits_distributed: int

    def __post_init__(self) -> None:
        assert min(self.qubits_monolithic, self.qubits_node_a, self.qubits_node_b) > 0

    @property
    def qubit_savings(self) -> int:
        return self.qubits_monolithic - max(self.qubits_node_a, self.qubits_node_b)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "type": "resources",
            "L": self.L,
            "epsilon": str(self.epsilon),
            "b_aux": self.b_aux,
            "aux_qubits_order": AUX_QUBITS_ORDER,
            "qubits_monolithic": self.qubits_monolithic,
            "qubits_node_a": self.qubits_node_a,
            "qubits_node_b": self.qubits_node_b,
            "qubit_savings": self.qubit_savings,
            "ctrl_len_monolithic": self.ctrl_len_monolithic,
            "ctrl_len_node_a": self.ctrl_len_node_a,
            "ctrl_len_node_b": self.ctrl_len_node_b,
            "depth_stage_order": DEPTH_STAGE_ORDER,
            "gate_count_order": GATE_COUNT_ORDER,
            "classical_bits_distributed": self.classical_bits_distributed,
            "classical_bits_reference": REFERENCE_COMM_ORDER,
        }

    def table(self) -> str:
        rows = [
            ("modulus bit length L", self.L, ""),
            ("failure budget epsilon", str(self.epsilon), ""),
            ("auxiliary qubits b", self.b_aux, f"({AUX_QUBITS_ORDER} class)"),
            ("qubits, single node", self.qubits_monolithic, ""),
            ("qubits, node A", self.qubits_node_a, ""),
            ("qubits, node B", self.qubits_node_b, ""),
            ("qubit savings", self.qubit_savings, "vs widest node"),
            ("ctrl stages, single node", self.ctrl_len_monolithic, DEPTH_STAGE_ORDER),
            ("ctrl stages, node A", self.ctrl_len_node_a, DEPTH_STAGE_ORDER),
            ("ctrl stages, node B", self.ctrl_len_node_b, DEPTH_STAGE_ORDER),
            ("gate count", GATE_COUNT_ORDER, "both engines"),
            ("classical bits, two-node", self.classical_bits_distributed, ""),
            ("classical bits, reference scheme", REFERENCE_COMM_ORDER, ""),
        ]
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{name:<{width}}  {value}  {note}".rstrip() for name, value, note in rows)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def account(L: int, epsilon: Fraction, b_constant: int = 0) -> ResourceReport:
    """Evaluate the closed forms for an even modulus bit length L.

    The two-node padding comes from splitting the failure budget in half
    per node, which is why the two-node forms carry ceil(log2(2 + 1/eps))
    where the single-node form carries ceil(log2(2 + 1/(2 eps))).
    """
    if L < 2 or L % 2:
        raise ValueError(f"L must be a positive even integer, got {L}")
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if b_constant < 0:
        raise ValueError(f"b_constant must be >= 0, got {b_constant}")
    t1, t2, _, t_mono = control_widths(L, *paddings(epsilon))
    qubits_mono = t_mono + L + b_constant  # control and work register
    qubits_a = t1 + 2 * L + b_constant  # control, work register and L pair halves
    qubits_b = t2 + L + b_constant  # control and the L pair halves that become the work register
    return ResourceReport(
        L=L,
        epsilon=epsilon,
        b_aux=b_constant,
        qubits_monolithic=qubits_mono,
        qubits_node_a=qubits_a,
        qubits_node_b=qubits_b,
        ctrl_len_monolithic=t_mono,
        ctrl_len_node_a=t1,
        ctrl_len_node_b=t2,
        classical_bits_distributed=2 * L,
    )

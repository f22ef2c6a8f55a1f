"""Gate teleportation over parallel and series Bell-pair networks under LOCC."""

from .errors import (
    ImpossibleBranchError,
    InvolutionRequired,
    LocalityViolation,
    MissingMessage,
    TelegateError,
    TopologyMismatch,
)
from .gates import (
    Gate,
    controlled,
    hadamard,
    identity,
    parse_gate_spec,
    pauli_x,
    pauli_z,
    random_involution,
    random_unitary,
    validate,
)
from .statevector import (
    MeasurementBasis,
    StateVector,
    apply_gate,
    basis_state,
    fidelity_up_to_phase,
    random_state,
)
from .network import CostLedger, Network
from .protocols import (
    ProtocolFamily,
    ProtocolSpec,
    measurement_schedule,
    oracle_effect,
    run_protocol,
)
from .verify import (
    brute_force_oracle,
    check_costs,
    enumerate_branches,
    expected_costs,
    verify_inputs,
    verify_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "ImpossibleBranchError",
    "InvolutionRequired",
    "LocalityViolation",
    "MissingMessage",
    "TelegateError",
    "TopologyMismatch",
    "Gate",
    "controlled",
    "hadamard",
    "identity",
    "parse_gate_spec",
    "pauli_x",
    "pauli_z",
    "random_involution",
    "random_unitary",
    "validate",
    "MeasurementBasis",
    "StateVector",
    "apply_gate",
    "basis_state",
    "fidelity_up_to_phase",
    "random_state",
    "CostLedger",
    "Network",
    "ProtocolFamily",
    "ProtocolSpec",
    "measurement_schedule",
    "oracle_effect",
    "run_protocol",
    "brute_force_oracle",
    "check_costs",
    "enumerate_branches",
    "expected_costs",
    "verify_inputs",
    "verify_protocol",
]

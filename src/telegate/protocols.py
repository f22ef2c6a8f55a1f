"""The three teleportation protocol families and their ideal-effect oracle.

Each ``run_*`` function executes one measurement branch of a protocol under
strict LOCC discipline: every gate and measurement goes through the network's
ownership checks, every conditional correction reads only bits previously
delivered to that party, and the final state is returned on the data register
(party order).  Branch outcomes are supplied up front so that the module
above can enumerate all of them exhaustively; with no branch given, every
outcome is left :class:`~telegate.network.Unforced` and one run on a batched
network covers all branches.

Families
--------
* ``parallel-cu`` -- every control party shares a Bell pair with the target;
  the implemented gate is U raised to the number of set control bits.
* ``series-ch`` -- Bell pairs form a path ending at the target; the relay
  qubits carry the XOR of upstream control bits, so the implemented gate is
  U^(XOR of controls).  That equals the simultaneous gate U^(sum of controls)
  exactly when U is an involution, which is why this family demands one.
* ``series-ncu`` -- same path network, but the relays carry the AND of the
  controls: the payload fires only when every control is 1 (generalized
  Toffoli for payload X).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import InvolutionRequired, TopologyMismatch
from .gates import Gate, controlled, pauli_x, pauli_z
from .gates import validate as validate_gate
from .network import Network, TopologyKind, Unforced, check_register_size
from .statevector import MeasurementBasis, StateVector, apply_gate

_X = pauli_x()
_Z = pauli_z()
_CX = controlled(pauli_x(), 1)
_CCX = controlled(pauli_x(), 2)
_CZ = controlled(pauli_z(), 1)

_COMP = MeasurementBasis.COMPUTATIONAL
_HAD = MeasurementBasis.HADAMARD


class ProtocolFamily(Enum):
    PARALLEL_SIMULTANEOUS_CU = "parallel-cu"
    SERIES_SIMULTANEOUS_CH = "series-ch"
    SERIES_N_CONTROLLED_U = "series-ncu"


def topology_for(family: ProtocolFamily) -> TopologyKind:
    if family is ProtocolFamily.PARALLEL_SIMULTANEOUS_CU:
        return TopologyKind.PARALLEL
    return TopologyKind.SERIES


@dataclass(frozen=True, slots=True)
class ProtocolSpec:
    """A protocol family instantiated with a party count and payload gate.

    n = 2 is the degenerate case: all three families reduce to standard
    single-pair controlled-U gate teleportation (1 ebit, 2 cbits).
    """

    family: ProtocolFamily
    n: int
    payload: Gate

    def validate(self, *, enforce_involution: bool = True) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 parties, got n={self.n}")
        check_register_size(self.n)
        if self.payload.arity != 1:
            raise ValueError("payload must be a single-qubit gate")
        flags = validate_gate(self.payload)
        if not flags.unitary:
            raise ValueError(f"payload {self.payload.label!r} is not unitary")
        if (
            enforce_involution
            and self.family is ProtocolFamily.SERIES_SIMULTANEOUS_CH
            and not flags.involution
        ):
            raise InvolutionRequired(
                f"payload {self.payload.label!r} is not an involution; the series "
                "simultaneous protocol is deterministic only for Hermitian unitaries"
            )

    @property
    def num_measurements(self) -> int:
        return 2 * (self.n - 1)


def _schedule_parallel(n: int) -> list[tuple[int, str, MeasurementBasis]]:
    forward = [(i, f"e{i}", _COMP) for i in range(1, n)]
    backward = [(n, f"t{i}", _HAD) for i in range(1, n)]
    return forward + backward


def _schedule_series_ch(n: int) -> list[tuple[int, str, MeasurementBasis]]:
    forward = [(i, f"f{i}", _COMP) for i in range(1, n)]
    backward = [(j, f"r{j}", _HAD) for j in range(2, n + 1)]
    return forward + backward


def _schedule_series_ncu(n: int) -> list[tuple[int, str, MeasurementBasis]]:
    forward = [(i, f"f{i}", _COMP) for i in range(1, n)]
    backward = [(j, f"r{j}", _HAD) for j in range(n, 1, -1)]
    return forward + backward


def measurement_schedule(spec: ProtocolSpec) -> list[tuple[int, str, MeasurementBasis]]:
    """The fixed, branch-independent (party, qubit label, basis) sequence."""
    if spec.family is ProtocolFamily.PARALLEL_SIMULTANEOUS_CU:
        return _schedule_parallel(spec.n)
    if spec.family is ProtocolFamily.SERIES_SIMULTANEOUS_CH:
        return _schedule_series_ch(spec.n)
    return _schedule_series_ncu(spec.n)


def _require_topology(net: Network, kind: TopologyKind) -> None:
    if net.topology.kind is not kind:
        raise TopologyMismatch(
            f"protocol needs a {kind.value} network, got {net.topology.kind.value}"
        )


def _check_payload(payload: Gate) -> None:
    if payload.arity != 1:
        raise ValueError("payload must be a single-qubit gate")
    if not validate_gate(payload).unitary:
        raise ValueError(f"payload {payload.label!r} is not unitary")


def _branch_bits(
    branch: Sequence[int] | None, schedule: list[tuple[int, str, MeasurementBasis]]
) -> dict[str, int | Unforced]:
    if branch is None:
        return {label: Unforced(k) for k, (_, label, _) in enumerate(schedule)}
    branch = list(branch)
    if len(branch) != len(schedule):
        raise ValueError(f"branch needs {len(schedule)} outcome bits, got {len(branch)}")
    if any(b not in (0, 1) for b in branch):
        raise ValueError(f"branch bits must be 0 or 1: {branch!r}")
    return {label: bit for (_, label, _), bit in zip(schedule, branch)}


def run_parallel_simultaneous_cu(
    net: Network, payload: Gate, branch: Sequence[int] | None
) -> StateVector | None:
    """Simultaneous controlled-U from n-1 control parties to the target.

    Each control party CNOTs its data qubit onto its Bell half, measures the
    half and sends the bit to the target.  The target flips its matching
    halves accordingly, applies controlled-payload from each half onto its
    data qubit, measures the halves in the Hadamard basis and sends each
    outcome back; a control party applies a phase fix iff its returned bit
    is 1.  Costs n-1 ebits and 2(n-1) cbits.
    """
    _require_topology(net, TopologyKind.PARALLEL)
    _check_payload(payload)
    n = net.n
    outcomes = _branch_bits(branch, _schedule_parallel(n))
    cu = controlled(payload, 1)

    for i in range(1, n):
        net.local_apply(i, _CX, [net.qubit_index(f"d{i}"), net.qubit_index(f"e{i}")])
    for i in range(1, n):
        bit = outcomes[f"e{i}"]
        net.local_measure(i, net.qubit_index(f"e{i}"), _COMP, bit)
        net.send_cbit(i, n, bit, f"e{i}")
    for i in range(1, n):
        net.apply_if(n, _X, [net.qubit_index(f"t{i}")], [f"e{i}"])
    for i in range(1, n):
        net.local_apply(n, cu, [net.qubit_index(f"t{i}"), net.qubit_index(f"d{n}")])
    for i in range(1, n):
        bit = outcomes[f"t{i}"]
        net.local_measure(n, net.qubit_index(f"t{i}"), _HAD, bit)
        net.send_cbit(n, i, bit, f"t{i}")
    for i in range(1, n):
        net.apply_if(i, _Z, [net.qubit_index(f"d{i}")], [f"t{i}"])
    return net.state


def run_series_simultaneous_ch(
    net: Network,
    payload: Gate,
    branch: Sequence[int] | None,
    *,
    enforce_involution: bool = True,
) -> StateVector | None:
    """Simultaneous controlled-involution along a path of Bell pairs.

    Forward pass: party 1 CNOTs its data qubit onto its forward half,
    measures it and sends the bit down the line; each intermediate party
    fixes its received half, CNOTs both the received half and its own data
    qubit onto its forward half, measures and forwards.  The target's
    received half then carries the XOR of all control bits and drives one
    controlled-payload onto the target data qubit.

    Backward pass: every party measures its received half in the Hadamard
    basis and broadcasts the outcome to all upstream parties; party i applies
    a phase fix iff the XOR of all downstream outcomes is 1.  Costs n-1 ebits
    and (n^2 + n - 2)/2 cbits.

    ``enforce_involution=False`` skips the payload certificate; it exists so
    the verification layer can demonstrate that non-involutory payloads break
    determinism against the simultaneous-gate oracle.
    """
    _require_topology(net, TopologyKind.SERIES)
    _check_payload(payload)
    if enforce_involution and not validate_gate(payload).involution:
        raise InvolutionRequired(
            f"payload {payload.label!r} is not an involution"
        )
    n = net.n
    outcomes = _branch_bits(branch, _schedule_series_ch(n))
    cu = controlled(payload, 1)

    net.local_apply(1, _CX, [net.qubit_index("d1"), net.qubit_index("f1")])
    bit = outcomes["f1"]
    net.local_measure(1, net.qubit_index("f1"), _COMP, bit)
    net.send_cbit(1, 2, bit, "f1")
    for i in range(2, n):
        net.apply_if(i, _X, [net.qubit_index(f"r{i}")], [f"f{i - 1}"])
        net.local_apply(i, _CX, [net.qubit_index(f"r{i}"), net.qubit_index(f"f{i}")])
        net.local_apply(i, _CX, [net.qubit_index(f"d{i}"), net.qubit_index(f"f{i}")])
        bit = outcomes[f"f{i}"]
        net.local_measure(i, net.qubit_index(f"f{i}"), _COMP, bit)
        net.send_cbit(i, i + 1, bit, f"f{i}")
    net.apply_if(n, _X, [net.qubit_index(f"r{n}")], [f"f{n - 1}"])
    net.local_apply(n, cu, [net.qubit_index(f"r{n}"), net.qubit_index(f"d{n}")])

    for j in range(2, n + 1):
        bit = outcomes[f"r{j}"]
        net.local_measure(j, net.qubit_index(f"r{j}"), _HAD, bit)
        for upstream in range(1, j):
            net.send_cbit(j, upstream, bit, f"r{j}")
    for i in range(1, n):
        downstream = [f"r{j}" for j in range(i + 1, n + 1)]
        net.apply_if(i, _Z, [net.qubit_index(f"d{i}")], downstream)
    return net.state


def run_series_ncu(
    net: Network, payload: Gate, branch: Sequence[int] | None
) -> StateVector | None:
    """n-qubit controlled-U (generalized Toffoli) along a path of Bell pairs.

    Forward pass as in the involution protocol, except each intermediate
    party applies a doubly-controlled NOT (controls: received half and its
    own data qubit), so the relays carry the running AND of the control bits.

    Backward pass is single-hop: the target measures its received half in the
    Hadamard basis and sends the bit one step upstream; on a 1 each
    intermediate party applies a controlled phase between its received half
    and its data qubit (undoing the kicked phase locally), then measures its
    own half and forwards.  Party 1 finishes with a plain phase fix.  Costs
    n-1 ebits and 2(n-1) cbits.
    """
    _require_topology(net, TopologyKind.SERIES)
    _check_payload(payload)
    n = net.n
    outcomes = _branch_bits(branch, _schedule_series_ncu(n))
    cu = controlled(payload, 1)

    net.local_apply(1, _CX, [net.qubit_index("d1"), net.qubit_index("f1")])
    bit = outcomes["f1"]
    net.local_measure(1, net.qubit_index("f1"), _COMP, bit)
    net.send_cbit(1, 2, bit, "f1")
    for i in range(2, n):
        net.apply_if(i, _X, [net.qubit_index(f"r{i}")], [f"f{i - 1}"])
        net.local_apply(
            i,
            _CCX,
            [net.qubit_index(f"r{i}"), net.qubit_index(f"d{i}"), net.qubit_index(f"f{i}")],
        )
        bit = outcomes[f"f{i}"]
        net.local_measure(i, net.qubit_index(f"f{i}"), _COMP, bit)
        net.send_cbit(i, i + 1, bit, f"f{i}")
    net.apply_if(n, _X, [net.qubit_index(f"r{n}")], [f"f{n - 1}"])
    net.local_apply(n, cu, [net.qubit_index(f"r{n}"), net.qubit_index(f"d{n}")])

    bit = outcomes[f"r{n}"]
    net.local_measure(n, net.qubit_index(f"r{n}"), _HAD, bit)
    net.send_cbit(n, n - 1, bit, f"r{n}")
    for i in range(n - 1, 1, -1):
        net.apply_if(
            i, _CZ, [net.qubit_index(f"r{i}"), net.qubit_index(f"d{i}")], [f"r{i + 1}"]
        )
        bit = outcomes[f"r{i}"]
        net.local_measure(i, net.qubit_index(f"r{i}"), _HAD, bit)
        net.send_cbit(i, i - 1, bit, f"r{i}")
    net.apply_if(1, _Z, [net.qubit_index("d1")], ["r2"])
    return net.state


def run_protocol(
    spec: ProtocolSpec,
    net: Network,
    branch: Sequence[int] | None,
    *,
    enforce_involution: bool = True,
) -> StateVector | None:
    """Dispatch one execution for the given protocol spec.

    With a branch, the network runs that forced branch and its final state is
    returned.  With ``branch=None`` every outcome is left unforced: the network
    must be a batch (see :func:`~telegate.network.build_batch`), which then
    holds every branch of every input, and ``None`` is returned.
    """
    if spec.family is ProtocolFamily.PARALLEL_SIMULTANEOUS_CU:
        return run_parallel_simultaneous_cu(net, spec.payload, branch)
    if spec.family is ProtocolFamily.SERIES_SIMULTANEOUS_CH:
        return run_series_simultaneous_ch(
            net, spec.payload, branch, enforce_involution=enforce_involution
        )
    return run_series_ncu(net, spec.payload, branch)


def oracle_effect(spec: ProtocolSpec, input_state: StateVector) -> StateVector:
    """Apply the ideal nonlocal gate directly to the data register.

    The simultaneous families apply the payload once per set control bit
    (a product of two-qubit controlled-payload embeddings); the n-controlled
    family applies one (n-1)-controlled payload.  For involutory payloads the
    simultaneous effect collapses to payload^(XOR of controls).
    """
    if input_state.num_qubits != spec.n:
        raise ValueError(
            f"input has {input_state.num_qubits} qubits, spec expects {spec.n}"
        )
    n = spec.n
    if spec.family is ProtocolFamily.SERIES_N_CONTROLLED_U:
        return apply_gate(input_state, controlled(spec.payload, n - 1), list(range(n)))
    cu = controlled(spec.payload, 1)
    state = input_state
    for control in range(n - 1):
        state = apply_gate(state, cu, [control, n - 1])
    return state

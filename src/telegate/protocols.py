"""The three teleportation protocol families and their ideal-effect oracle.

Each protocol is one fixed list of operations, the same on every branch,
built by one function per family: :class:`LocalGate` (a party's gate, applied
iff the XOR of the named inbox bits is 1 when it names any) and
:class:`Measure` (a party's measurement, whose outcome is then sent to each
recipient).  :func:`run_protocol` is the one interpreter.  It walks the list
under strict LOCC discipline: every gate and measurement goes through the
network's ownership checks, every correction reads only bits previously
delivered to that party, and the final state is returned on the data
register (party order).  Branch outcomes are supplied up front so that the
module above can enumerate all of them exhaustively; with no branch given,
every outcome is left :class:`~telegate.network.Unforced` and one run on a
batch covers all branches.  :func:`measurement_schedule` reads the same
list, so the schedule cannot drift from the run.

A forced branch runs the list in written order, which is the order its trace
records.  An unforced run takes a topological order of the same list: an op
follows every earlier op that shares one of its qubits and every measurement
whose outcome it reads, and among the ready ops the one touching the
lowest-numbered Bell pair runs first.  Each pair's ops then run together, so
a batch that tensors pairs in at first use keeps its register small until
the last pair.  The rows' outcome bits are then put back in written order.

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

import functools
import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import InvolutionRequired, TopologyMismatch
from .gates import Gate, controlled, pauli_x, pauli_z
from .gates import validate as validate_gate
from .network import Network, TopologyKind, Unforced, _bell_edges, _is_bit, check_register_size
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


@dataclass(frozen=True, slots=True)
class LocalGate:
    """``party`` applies ``gate`` to the qubits labelled ``qubits``; with
    ``tags``, only when the XOR of its inbox bits under those tags is 1."""

    party: int
    gate: Gate
    qubits: tuple[str, ...]
    tags: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class Measure:
    """``party`` measures ``qubit`` in ``basis``, then sends the outcome under
    the qubit's label to each of ``recipients`` in order."""

    party: int
    qubit: str
    basis: MeasurementBasis
    recipients: tuple[int, ...]


Op = LocalGate | Measure


def _parallel_ops(n: int, cu: Gate) -> list[Op]:
    controls = range(1, n)
    return [
        *(LocalGate(i, _CX, (f"d{i}", f"e{i}")) for i in controls),
        *(Measure(i, f"e{i}", _COMP, (n,)) for i in controls),
        *(LocalGate(n, _X, (f"t{i}",), (f"e{i}",)) for i in controls),
        *(LocalGate(n, cu, (f"t{i}", f"d{n}")) for i in controls),
        *(Measure(n, f"t{i}", _HAD, (i,)) for i in controls),
        *(LocalGate(i, _Z, (f"d{i}",), (f"t{i}",)) for i in controls),
    ]


def _series_forward(n: int, cu: Gate, relay: Sequence[tuple[Gate, str]]) -> list[Op]:
    """The forward pass shared by both series families.  Each ``relay`` entry
    is a gate and the label prefixes of its qubits at intermediate party i."""
    ops: list[Op] = [LocalGate(1, _CX, ("d1", "f1")), Measure(1, "f1", _COMP, (2,))]
    for i in range(2, n):
        ops.append(LocalGate(i, _X, (f"r{i}",), (f"f{i - 1}",)))
        ops += [LocalGate(i, g, tuple(f"{p}{i}" for p in prefixes)) for g, prefixes in relay]
        ops.append(Measure(i, f"f{i}", _COMP, (i + 1,)))
    ops.append(LocalGate(n, _X, (f"r{n}",), (f"f{n - 1}",)))
    ops.append(LocalGate(n, cu, (f"r{n}", f"d{n}")))
    return ops


def _series_ch_ops(n: int, cu: Gate) -> list[Op]:
    ops = _series_forward(n, cu, [(_CX, "rf"), (_CX, "df")])
    ops += [Measure(j, f"r{j}", _HAD, tuple(range(1, j))) for j in range(2, n + 1)]
    ops += [
        LocalGate(i, _Z, (f"d{i}",), tuple(f"r{j}" for j in range(i + 1, n + 1)))
        for i in range(1, n)
    ]
    return ops


def _series_ncu_ops(n: int, cu: Gate) -> list[Op]:
    ops = _series_forward(n, cu, [(_CCX, "rdf")])
    ops.append(Measure(n, f"r{n}", _HAD, (n - 1,)))
    for i in range(n - 1, 1, -1):
        ops.append(LocalGate(i, _CZ, (f"r{i}", f"d{i}"), (f"r{i + 1}",)))
        ops.append(Measure(i, f"r{i}", _HAD, (i - 1,)))
    ops.append(LocalGate(1, _Z, ("d1",), ("r2",)))
    return ops


_OPS_BY_FAMILY = {
    ProtocolFamily.PARALLEL_SIMULTANEOUS_CU: _parallel_ops,
    ProtocolFamily.SERIES_SIMULTANEOUS_CH: _series_ch_ops,
    ProtocolFamily.SERIES_N_CONTROLLED_U: _series_ncu_ops,
}


@functools.lru_cache(maxsize=8)
def _checked_ops(spec: ProtocolSpec, enforce_involution: bool) -> tuple[Op, ...]:
    """Validate ``spec`` and build its fixed, branch-independent operation
    list, once per spec among the eight most recently used."""
    spec.validate(enforce_involution=enforce_involution)
    return tuple(_OPS_BY_FAMILY[spec.family](spec.n, controlled(spec.payload, 1)))


def _touched(op: Op) -> tuple[str, ...]:
    return (op.qubit,) if isinstance(op, Measure) else op.qubits


@functools.lru_cache(maxsize=None)
def _batch_order(family: ProtocolFamily, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The order a batch runs ``family``'s ops in, and how to undo it.

    Returns the op indices in run order, and ``axes``: outcome bit ``w`` in
    written order is bit ``axes[w]`` in run order.  The payload does not
    change the list's shape, so this is worked out once per (family, n).
    """
    ops = _OPS_BY_FAMILY[family](n, _CX)
    pair = {}
    for i, edge in enumerate(_bell_edges(topology_for(family), n)):
        pair[edge.label_a] = pair[edge.label_b] = i
    successors: list[list[int]] = [[] for _ in ops]
    waiting = [0] * len(ops)
    last: dict[str, int] = {}
    measured_at: dict[str, int] = {}
    for j, op in enumerate(ops):
        before = {last[q] for q in _touched(op) if q in last}
        if isinstance(op, LocalGate):
            before |= {measured_at[tag] for tag in op.tags}
        else:
            measured_at[op.qubit] = j
        for i in before:
            successors[i].append(j)
        waiting[j] = len(before)
        last.update((q, j) for q in _touched(op))

    def key(j: int) -> tuple[int, int]:
        op = ops[j]
        labels = _touched(op) + (op.tags if isinstance(op, LocalGate) else ())
        return min((pair[q] for q in labels if q in pair), default=-1), j

    ready = [key(j) for j in range(len(ops)) if not waiting[j]]
    heapq.heapify(ready)
    order = []
    while ready:
        _, j = heapq.heappop(ready)
        order.append(j)
        for k in successors[j]:
            waiting[k] -= 1
            if not waiting[k]:
                heapq.heappush(ready, key(k))
    run = [j for j in order if isinstance(ops[j], Measure)]
    written = [j for j, op in enumerate(ops) if isinstance(op, Measure)]
    return tuple(order), tuple(run.index(j) for j in written)


def measurement_schedule(spec: ProtocolSpec) -> list[tuple[int, str, MeasurementBasis]]:
    """The fixed, branch-independent (party, qubit label, basis) sequence."""
    ops = _OPS_BY_FAMILY[spec.family](spec.n, controlled(spec.payload, 1))
    return [(op.party, op.qubit, op.basis) for op in ops if isinstance(op, Measure)]


def _interpret(ops: Sequence[Op], net: Network, branch: Sequence[int | Unforced]) -> None:
    """Run ``ops`` on ``net``, taking the outcomes of its measurements in turn
    from ``branch``."""
    outcomes = iter(branch)
    for op in ops:
        if isinstance(op, Measure):
            bit = next(outcomes)
            net.local_measure(op.party, net.qubit_index(op.qubit), op.basis, bit)
            for recipient in op.recipients:
                net.send_cbit(op.party, recipient, bit, op.qubit)
            continue
        targets = [net.qubit_index(q) for q in op.qubits]
        if op.tags:
            net.apply_if(op.party, op.gate, targets, list(op.tags))
        else:
            net.local_apply(op.party, op.gate, targets)


def run_protocol(
    spec: ProtocolSpec,
    net: Network,
    branch: Sequence[int] | None,
    *,
    enforce_involution: bool = True,
) -> StateVector | None:
    """Interpret the operation list of ``spec`` on ``net``.

    With a branch, the ops run in written order with those outcomes forced,
    and the network's :attr:`~telegate.network.Network.state` is returned
    (``None`` when it has several rows).  With ``branch=None`` every outcome
    is left unforced: the network must be a batch (see
    :func:`~telegate.network.build_batch`), which then holds every branch of
    every input, rows in ``itertools.product`` order, and ``None`` is
    returned.

    ``enforce_involution=False`` skips the series-ch payload certificate; it
    exists so the verification layer can demonstrate that non-involutory
    payloads break determinism against the simultaneous-gate oracle.
    """
    kind = topology_for(spec.family)
    if net.topology.kind is not kind or net.n != spec.n:
        raise TopologyMismatch(
            f"{spec.family.value} n={spec.n} needs a {kind.value} network of {spec.n} "
            f"parties, got a {net.topology.kind.value} network of {net.n}"
        )
    ops = _checked_ops(spec, enforce_involution)
    count = spec.num_measurements
    if branch is None:
        order, axes = _batch_order(spec.family, spec.n)
        _interpret([ops[j] for j in order], net, [Unforced(k) for k in range(count)])
        net._reorder_outcomes(axes)
    else:
        branch = list(branch)
        if len(branch) != count or not all(map(_is_bit, branch)):
            raise ValueError(f"branch needs {count} integer outcome bits 0 or 1, got {branch!r}")
        _interpret(ops, net, branch)
    return net.state


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
    spec = ProtocolSpec(ProtocolFamily.PARALLEL_SIMULTANEOUS_CU, net.n, payload)
    return run_protocol(spec, net, branch)


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
    and (n^2 + n - 2)/2 cbits.  ``enforce_involution`` is as in
    :func:`run_protocol`.
    """
    spec = ProtocolSpec(ProtocolFamily.SERIES_SIMULTANEOUS_CH, net.n, payload)
    return run_protocol(spec, net, branch, enforce_involution=enforce_involution)


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
    spec = ProtocolSpec(ProtocolFamily.SERIES_N_CONTROLLED_U, net.n, payload)
    return run_protocol(spec, net, branch)


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

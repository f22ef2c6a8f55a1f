"""The three teleportation protocol families and their ideal-effect oracle.

What a family means is one record in ``_PROTOCOLS`` (see :class:`_Protocol`).
A :class:`ProtocolSpec` takes its Bell pairs and its op list from that
record and owns them, and the oracle and the cost check read the record.

Each protocol is one fixed list of operations, the same on every branch:
:class:`LocalGate` (a party's gate, applied iff the XOR of the named inbox
bits is 1 when it names any) and :class:`Measure` (a party's measurement,
whose outcome is then sent to each recipient).  :func:`run_protocol` is the
one interpreter.  It walks the list under strict LOCC discipline: every gate
and measurement goes through the network's ownership checks, every
correction reads only bits previously delivered to that party, and the
final state is returned on the data register (party order).  Branch
outcomes are supplied up front so that the module above can enumerate all
of them exhaustively; with no branch given, every outcome is left
:class:`~telegate.network.Unforced` and one run on a batch covers all
branches.  A :class:`ProtocolSpec` is checked when it is built and keeps its
list once built; :func:`measurement_schedule` and the batch order read that
same list, so neither can drift from what a run runs.

A forced branch runs the list in written order, which is the order of the
events its trace renders from the list.  An unforced run takes a topological
order of the same list: an op follows every earlier op that shares one of
its qubits and every measurement whose outcome it reads, and among the ready
ops the one touching the lowest-numbered Bell pair runs first.  Each pair's
ops then run together, so a batch that tensors pairs in at first use keeps
its register small until the last pair.  Each measurement's
:class:`~telegate.network.Unforced` outcome names its written index, which
places its bit in the row index, so the rows come out in written order.

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

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import InvolutionRequired, TopologyMismatch
from .gates import Gate, controlled, pauli_x, pauli_z
from .gates import validate as validate_gate
from .network import BellEdge, Network, Unforced, _check_party_count, _is_bit, check_register_size
from .statevector import MeasurementBasis, StateVector, _apply_matrix

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


@dataclass(frozen=True, slots=True)
class ProtocolSpec:
    """A protocol family instantiated with a party count and payload gate.

    Construction refuses, in this order, a family that is not a
    :class:`ProtocolFamily`, an n that is not an integer (a bool is not one;
    a numpy integer is), n < 2, a register over the limit (before anything
    is allocated), a payload on more than one qubit and a non-unitary
    payload, each with ``ValueError``.  A non-involutory ``series-ch``
    payload is a valid spec: running or verifying it is what raises
    :class:`~telegate.errors.InvolutionRequired`.

    n = 2 is the degenerate case: all three families reduce to standard
    single-pair controlled-U gate teleportation (1 ebit, 2 cbits).
    """

    family: ProtocolFamily
    n: int
    payload: Gate
    _involution: bool = field(default=False, init=False, repr=False, compare=False)
    _pairs: tuple[BellEdge, ...] = field(default=(), init=False, repr=False, compare=False)
    _ops: tuple[Op, ...] | None = field(default=None, init=False, repr=False, compare=False)
    _order: _Order | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.family, ProtocolFamily):
            raise ValueError(f"family must be a ProtocolFamily, got {self.family!r}")
        _check_party_count(self.n)
        check_register_size(self.n)
        if self.payload.arity != 1:
            raise ValueError("payload must be a single-qubit gate")
        flags = validate_gate(self.payload)
        if not flags.unitary:
            raise ValueError(f"payload {self.payload.label!r} is not unitary")
        object.__setattr__(self, "_involution", flags.involution)
        object.__setattr__(self, "_pairs", _PROTOCOLS[self.family].edges(self.n))

    @property
    def num_measurements(self) -> int:
        return 2 * (self.n - 1)

    @property
    def ops(self) -> tuple[Op, ...]:
        """The fixed, branch-independent operation list, built on first use
        and kept."""
        if self._ops is None:
            ops = _PROTOCOLS[self.family].build(self.n, controlled(self.payload, 1))
            object.__setattr__(self, "_ops", tuple(ops))
        return self._ops

    @property
    def _batch(self) -> _Order:
        """:func:`_batch_order` of :attr:`ops`, worked out on the first batch run and kept."""
        if self._order is None:
            object.__setattr__(self, "_order", _batch_order(self.ops, self._pairs))
        return self._order

    def network(self, inputs: Sequence[StateVector]) -> Network:
        """A fresh network on this spec's Bell pairs holding ``inputs``, one
        register row each."""
        return Network(self.n, self._pairs, inputs)


def _require_involution(spec: ProtocolSpec) -> None:
    """Refuse a spec whose family needs an involution (``series-ch``) and
    whose payload is not one: its relays implement U^(XOR of controls), the
    simultaneous gate only when U^2 = I."""
    if _PROTOCOLS[spec.family].needs_involution and not spec._involution:
        raise InvolutionRequired(
            f"payload {spec.payload.label!r} is not an involution; the series "
            "simultaneous protocol is deterministic only for Hermitian unitaries"
        )


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
_Order = tuple[tuple[int, ...], tuple[int, ...]]


def _star(n: int) -> tuple[BellEdge, ...]:
    """The parallel distribution: each control party i shares a Bell pair
    with the target, holding half ``e{i}`` while the target holds ``t{i}``."""
    return tuple(BellEdge(i, f"e{i}", n, f"t{i}") for i in range(1, n))


def _path(n: int) -> tuple[BellEdge, ...]:
    """The series distribution: a path of Bell pairs ending at the target,
    party i holding half ``f{i}`` and party i+1 half ``r{i+1}``."""
    return tuple(BellEdge(i, f"f{i}", i + 1, f"r{i + 1}") for i in range(1, n))


def _parallel_ops(n: int, cu: Gate) -> list[Op]:
    """Simultaneous controlled-U from n-1 control parties to the target.

    Each control party CNOTs its data qubit onto its Bell half, measures the
    half and sends the bit to the target.  The target flips its matching
    halves accordingly, applies controlled-payload from each half onto its
    data qubit, measures the halves in the Hadamard basis and sends each
    outcome back; a control party applies a phase fix iff its returned bit
    is 1.  Costs n-1 ebits and 2(n-1) cbits.
    """
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
    """
    ops = _series_forward(n, cu, [(_CX, "rf"), (_CX, "df")])
    ops += [Measure(j, f"r{j}", _HAD, tuple(range(1, j))) for j in range(2, n + 1)]
    ops += [
        LocalGate(i, _Z, (f"d{i}",), tuple(f"r{j}" for j in range(i + 1, n + 1)))
        for i in range(1, n)
    ]
    return ops


def _series_ncu_ops(n: int, cu: Gate) -> list[Op]:
    """n-qubit controlled-U (generalized Toffoli) along a path of Bell pairs.

    Forward pass as in :func:`_series_ch_ops`, except each intermediate
    party applies a doubly-controlled NOT (controls: received half and its
    own data qubit), so the relays carry the running AND of the control bits.

    Backward pass is single-hop: the target measures its received half in the
    Hadamard basis and sends the bit one step upstream; on a 1 each
    intermediate party applies a controlled phase between its received half
    and its data qubit (undoing the kicked phase locally), then measures its
    own half and forwards.  Party 1 finishes with a plain phase fix.  Costs
    n-1 ebits and 2(n-1) cbits.
    """
    ops = _series_forward(n, cu, [(_CCX, "rdf")])
    ops.append(Measure(n, f"r{n}", _HAD, (n - 1,)))
    for i in range(n - 1, 1, -1):
        ops.append(LocalGate(i, _CZ, (f"r{i}", f"d{i}"), (f"r{i + 1}",)))
        ops.append(Measure(i, f"r{i}", _HAD, (i - 1,)))
    ops.append(LocalGate(1, _Z, ("d1",), ("r2",)))
    return ops


@dataclass(frozen=True, slots=True)
class _Protocol:
    """What a family means: its Bell pairs for n parties, its op-list builder
    (from n and the controlled payload), whether the payload fires on the AND
    of the controls (else once per set control bit), its closed-form cbit
    cost for n parties (every family spends n-1 ebits) and whether it needs
    an involutory payload."""

    edges: Callable[[int], tuple[BellEdge, ...]]
    build: Callable[[int, Gate], list[Op]]
    fires_on_and: bool
    cbits: Callable[[int], int]
    needs_involution: bool


_PROTOCOLS: dict[ProtocolFamily, _Protocol] = {
    ProtocolFamily.PARALLEL_SIMULTANEOUS_CU: _Protocol(
        _star, _parallel_ops, False, lambda n: 2 * (n - 1), False
    ),
    ProtocolFamily.SERIES_SIMULTANEOUS_CH: _Protocol(
        _path, _series_ch_ops, False, lambda n: (n * n + n - 2) // 2, True
    ),
    ProtocolFamily.SERIES_N_CONTROLLED_U: _Protocol(
        _path, _series_ncu_ops, True, lambda n: 2 * (n - 1), False
    ),
}


def _touched(op: Op) -> tuple[str, ...]:
    return (op.qubit,) if isinstance(op, Measure) else op.qubits


def _batch_order(ops: Sequence[Op], edges: Sequence[BellEdge]) -> _Order:
    """The order a batch runs ``ops`` in on a network of the pairs ``edges``.

    Returns the op indices in run order, and the written index of each
    measurement in run order.  A tag that no earlier measurement wrote adds
    no dependency: the network refuses the op that reads it with
    :class:`~telegate.errors.MissingMessage`, as a forced run does.
    """
    pair = {label: i for i, edge in enumerate(edges) for label in (edge.label_a, edge.label_b)}
    successors: list[list[int]] = [[] for _ in ops]
    waiting = [0] * len(ops)
    last: dict[str, int] = {}
    measured_at: dict[str, int] = {}
    written: dict[int, int] = {}
    for j, op in enumerate(ops):
        before = {last[q] for q in _touched(op) if q in last}
        if isinstance(op, LocalGate):
            before |= {measured_at[tag] for tag in op.tags if tag in measured_at}
        else:
            measured_at[op.qubit] = j
            written[j] = len(written)
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
    return tuple(order), tuple(written[j] for j in order if j in written)


def measurement_schedule(spec: ProtocolSpec) -> list[tuple[int, str, MeasurementBasis]]:
    """The fixed, branch-independent (party, qubit label, basis) sequence;
    refuses a spec as :func:`run_protocol` does."""
    _require_involution(spec)
    return [(op.party, op.qubit, op.basis) for op in spec.ops if isinstance(op, Measure)]


def _interpret(ops: Sequence[Op], net: Network, branch: Sequence[int | Unforced]) -> list:
    """Run ``ops`` on ``net``, taking the outcomes of its measurements in turn
    from ``branch``; returns what each measurement returned, in order."""
    outcomes = iter(branch)
    probabilities = []
    for op in ops:
        if isinstance(op, Measure):
            bit = next(outcomes)
            probabilities.append(net.local_measure(op.party, op.qubit, op.basis, bit))
            for recipient in op.recipients:
                net.send_cbit(op.party, recipient, bit, op.qubit)
            continue
        if op.tags:
            net.apply_if(op.party, op.gate, op.qubits, op.tags)
        else:
            net.local_apply(op.party, op.gate, op.qubits)
    return probabilities


def run_protocol(
    spec: ProtocolSpec,
    net: Network,
    branch: Sequence[int] | None,
    *,
    enforce_involution: bool = True,
) -> StateVector | None:
    """Interpret the operation list of ``spec`` on ``net``.

    With a branch, the ops run in written order with those outcomes forced.
    With ``branch=None`` every outcome is left unforced, and the network
    then holds every branch of every input, rows in ``itertools.product``
    order.  Returns the network's :attr:`~telegate.network.Network.state`:
    ``None`` when it has several rows.

    ``enforce_involution=False`` skips the series-ch involution requirement; it
    exists so the verification layer can demonstrate that non-involutory
    payloads break determinism against the simultaneous-gate oracle.
    """
    _checked_run(spec, net, branch, enforce_involution)
    return net.state


def _checked_run(
    spec: ProtocolSpec, net: Network, branch: Sequence[int] | None, enforce_involution: bool = True
) -> list[float | None]:
    """:func:`run_protocol` up to its result: check the network, the
    involution requirement and the branch, then run.  Returns what each
    measurement returned in written order: its conditional probability on
    one row given a branch."""
    if net.n != spec.n or net.bell_pairs != spec._pairs:
        raise TopologyMismatch(
            f"{spec.family.value} n={spec.n} needs a network of {spec.n} parties on its "
            f"{len(spec._pairs)} Bell pairs, got {net.n} parties on {len(net.bell_pairs)} pairs"
        )
    if enforce_involution:
        _require_involution(spec)
    ops = spec.ops
    count = spec.num_measurements
    if branch is None:
        order, written = spec._batch
        _interpret([ops[j] for j in order], net, [Unforced(w) for w in written])
        return [None] * count
    branch = list(branch)
    if len(branch) != count or not all(map(_is_bit, branch)):
        raise ValueError(f"branch needs {count} integer outcome bits 0 or 1, got {branch!r}")
    return _interpret(ops, net, branch)


def _oracle_rows(spec: ProtocolSpec, rows: np.ndarray) -> np.ndarray:
    """The ideal nonlocal gate applied to every row of ``rows``, an
    ``(inputs, 2^n)`` array of data-register amplitudes.

    The simultaneous families apply the payload once per set control bit
    (a product of two-qubit controlled-payload embeddings); the n-controlled
    family applies one (n-1)-controlled payload.  For involutory payloads the
    simultaneous effect collapses to payload^(XOR of controls).  Each
    application is one dense kernel call over all rows, and no intermediate
    state is normalized or checked.
    """
    n = spec.n
    if _PROTOCOLS[spec.family].fires_on_and:
        return _apply_matrix(rows, n, controlled(spec.payload, n - 1).matrix, range(n))
    cu = controlled(spec.payload, 1).matrix
    for control in range(n - 1):
        rows = _apply_matrix(rows, n, cu, [control, n - 1])
    return rows


def oracle_effect(spec: ProtocolSpec, input_state: StateVector) -> StateVector:
    """Apply the ideal nonlocal gate directly to the data register: a one-row
    :func:`_oracle_rows`."""
    if input_state.num_qubits != spec.n:
        raise ValueError(
            f"input has {input_state.num_qubits} qubits, spec expects {spec.n}"
        )
    return StateVector(spec.n, _oracle_rows(spec, input_state.amplitudes[None])[0])

"""LOCC world model: parties, Bell-pair distribution, and a classical bus.

A :class:`Network` owns the joint statevector, a qubit-ownership map, the
entanglement topology, and a message bus that counts classical bits per
(sender, recipient) delivery.  Local operations are gated by ownership: a
party touching a qubit it does not hold raises :class:`LocalityViolation`,
which is the core safety property of the model.  A network either runs one
forced measurement branch or, built with :func:`build_batch`, holds every
branch of many inputs as rows of one array.

Register layout
---------------
Qubits carry stable string labels; global indices shift as measured qubits
are discarded, so code should resolve labels via :meth:`Network.qubit_index`
right before use.  With n parties (party n is the target):

* parallel: ``d1 e1 d2 e2 ... d{n-1} e{n-1} t1 ... t{n-1} dn`` where ``di``
  is party i's data qubit, ``ei`` is control party i's Bell half and ``ti``
  the matching target-held half.
* series: ``d1 f1 | r2 d2 f2 | ... | rn dn`` where ``fi`` is party i's
  forward Bell half and ``r{i+1}`` the matching half held by party i+1.

At n = 3 these orderings coincide with the seven-qubit registers used
throughout the protocol transcriptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ImpossibleBranchError, LocalityViolation, MissingMessage
from .gates import Gate
from .statevector import (
    IMPOSSIBLE_CUTOFF,
    MeasurementBasis,
    StateVector,
    _apply_matrix,
    _check_targets,
)

# Largest register (3n - 2 qubits) any network may allocate: 2^22 amplitudes,
# 64 MiB per input, so n <= 8.
MAX_REGISTER_QUBITS = 22

_SQRT_HALF = 1 / math.sqrt(2)


class Role(Enum):
    CONTROL = "control"
    TARGET = "target"


class TopologyKind(Enum):
    PARALLEL = "parallel"
    SERIES = "series"


@dataclass(frozen=True, slots=True)
class BellEdge:
    """One distributed Bell pair, with build-time global qubit indices."""

    party_a: int
    qubit_a: int
    party_b: int
    qubit_b: int


@dataclass(frozen=True, slots=True)
class Topology:
    kind: TopologyKind
    n: int
    bell_pairs: tuple[BellEdge, ...]


@dataclass(slots=True)
class CostLedger:
    """Entanglement and classical-communication accounting for one run.

    ``ebits`` is fixed at build time (protocols consume entanglement, never
    create it); ``cbits`` counts each (sender, recipient, bit) delivery, so a
    broadcast to k recipients costs k.
    """

    ebits: int = 0
    cbits: int = 0

    def copy(self) -> "CostLedger":
        return CostLedger(self.ebits, self.cbits)


@dataclass(frozen=True, slots=True)
class ClassicalMessage:
    sender: int
    recipient: int
    bit: int | Unforced
    tag: str


@dataclass(slots=True)
class Party:
    id: int
    role: Role
    held_qubits: set[int] = field(default_factory=set)
    inbox: list[ClassicalMessage] = field(default_factory=list)


def bell_state() -> StateVector:
    """The resource state (|00> + |11>)/sqrt(2)."""
    return StateVector(2, np.array([1, 0, 0, 1]) / math.sqrt(2))


def register_qubits(n: int) -> int:
    """Register size of an n-party network: n data qubits plus n-1 Bell pairs."""
    return 3 * n - 2


def check_register_size(n: int) -> None:
    """Refuse, before anything is allocated, a register over the stated limit."""
    qubits = register_qubits(n)
    if qubits > MAX_REGISTER_QUBITS:
        raise ValueError(
            f"n={n} needs a {qubits}-qubit register (2^{qubits + 4} bytes per input); "
            f"the limit is {MAX_REGISTER_QUBITS} qubits, n <= {(MAX_REGISTER_QUBITS + 2) // 3}"
        )


@dataclass(frozen=True, slots=True)
class Unforced:
    """A measurement outcome left open: a batched register keeps both values.

    ``index`` counts the unforced measurements before this one.  It names the
    outcome's bit in the branch part of a row index, most significant first.
    """

    index: int

    def __bool__(self) -> bool:
        raise TypeError("an unforced outcome has no single value; use Network.apply_if")


def _row_norms2(amps: np.ndarray) -> np.ndarray:
    flat = amps.view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


def _measured(amps: np.ndarray, q: int, basis: MeasurementBasis) -> np.ndarray:
    """The register as (rows, outcome, ...) in the basis qubit ``q`` is measured in."""
    rows = amps.shape[0]
    cube = amps.reshape(rows, 1 << q, 2, -1)
    if basis is MeasurementBasis.COMPUTATIONAL:
        return cube.transpose(0, 2, 1, 3)
    zero, one = cube[:, :, 0], cube[:, :, 1]
    out = np.empty((rows, 2) + zero.shape[1:], dtype=np.complex128)
    np.add(zero, one, out=out[:, 0])
    np.subtract(zero, one, out=out[:, 1])
    out *= _SQRT_HALF
    return out


class Network:
    """Mutable protocol-execution context.

    The register is one ``(rows, 2^qubits)`` array.  A network from
    :func:`build_network` has one normalized row and runs one forced branch:
    operations record a trace and return the state.  A network from
    :func:`build_batch` starts with one row per input and takes only
    :class:`Unforced` outcomes: each measurement splits every row in two, so
    after k measurements row ``input * 2^k + b`` holds branch ``b`` of that
    input (outcome bits in measurement order, first most significant),
    unnormalized, its squared norm being the branch probability.  A batch
    records no trace and its operations return ``None``.  Ownership and inbox
    checks run once per operation whatever the number of rows.

    Distinct forced branches must run on independent copies (see :meth:`copy`).
    """

    def __init__(
        self,
        kind: TopologyKind,
        n: int,
        register: np.ndarray,
        labels: list[str],
        owner: dict[str, int],
        parties: dict[int, Party],
        topology: Topology,
        ledger: CostLedger,
        *,
        batched: bool = False,
        trace: list[dict] | None = None,
    ):
        self.kind = kind
        self.n = n
        self._amps = register
        self._labels = labels
        self._owner = owner
        self.parties = parties
        self.topology = topology
        self.ledger = ledger
        self.batched = batched
        self.trace = [] if trace is None else trace
        self._splits = 0
        self._impossible = np.zeros(register.shape[0], dtype=bool)
        self._refresh()

    # -- register ------------------------------------------------------------

    @property
    def state(self) -> StateVector | None:
        """The register of a forced branch; ``None`` for a batch."""
        if self.batched:
            return None
        return StateVector(len(self._labels), self._amps[0])

    @property
    def register(self) -> np.ndarray:
        """The ``(rows, 2^qubits)`` amplitude array, read-only."""
        view = self._amps.view()
        view.setflags(write=False)
        return view

    @property
    def probabilities(self) -> np.ndarray:
        """Squared norm of each row: a batch's branch probabilities."""
        return _row_norms2(self._amps)

    @property
    def impossible(self) -> np.ndarray:
        """Rows where some measurement had conditional probability below 1e-12."""
        return self._impossible.copy()

    # -- label/index bookkeeping ---------------------------------------

    def qubit_index(self, label: str) -> int:
        """Current global index of the qubit with the given stable label."""
        try:
            return self._labels.index(label)
        except ValueError:
            raise KeyError(f"no live qubit labelled {label!r}") from None

    def label_at(self, index: int) -> str:
        return self._labels[index]

    def _refresh(self) -> None:
        for party in self.parties.values():
            party.held_qubits = {
                i for i, lbl in enumerate(self._labels) if self._owner[lbl] == party.id
            }

    def _check_gate(self, party_id: int, gate: Gate, targets: list[int]) -> None:
        party = self.parties[party_id]
        foreign = [t for t in targets if t not in party.held_qubits]
        if foreign:
            names = [self._labels[t] for t in foreign if 0 <= t < len(self._labels)]
            raise LocalityViolation(
                f"party {party_id} does not hold qubit(s) {foreign} {names}"
            )
        _check_targets(gate, targets, len(self._labels))

    # -- local operations ------------------------------------------------

    def local_apply(self, party_id: int, gate: Gate, targets: list[int]) -> StateVector | None:
        """Apply a gate to qubits all held by ``party_id``."""
        targets = list(targets)
        self._check_gate(party_id, gate, targets)
        self._amps = _apply_matrix(self._amps, len(self._labels), gate.matrix, targets)
        if self.batched:
            return None
        labels = [self._labels[t] for t in targets]
        self.trace.append(
            {"type": "gate", "party": party_id, "gate": gate.label, "qubits": labels}
        )
        return self.state

    def apply_if(self, party_id: int, gate: Gate, targets: list[int], tags: list[str]) -> None:
        """Apply a gate iff the XOR of the bits ``party_id`` holds under ``tags`` is 1.

        On a forced branch this is :meth:`local_apply`, called only when the
        parity is 1.  In a batch the gate acts on the rows whose parity is 1,
        and ownership is checked whatever the rows.
        """
        bits = [self.read_cbit(party_id, tag) for tag in tags]
        if not self.batched:
            if sum(bits) % 2:
                self.local_apply(party_id, gate, targets)
            return
        targets = list(targets)
        self._check_gate(party_id, gate, targets)
        rows = np.arange(self._amps.shape[0])
        parity = np.zeros(rows.size, dtype=np.int64)
        for bit in bits:
            if isinstance(bit, Unforced):
                parity ^= (rows >> (self._splits - 1 - bit.index)) & 1
            else:
                parity ^= bit
        fire = parity.astype(bool)
        self._amps[fire] = _apply_matrix(
            self._amps[fire], len(self._labels), gate.matrix, targets
        )

    def local_measure(
        self, party_id: int, qubit: int, basis: MeasurementBasis, outcome: int | Unforced
    ) -> tuple[float, StateVector] | None:
        """Measure ``qubit`` and discard it from the register.

        A forced branch projects onto ``outcome`` and renormalizes, returning
        the outcome probability and the new state.  A batch takes the
        :class:`Unforced` outcome next in order and splits every row in two.
        """
        party = self.parties[party_id]
        if qubit not in party.held_qubits:
            raise LocalityViolation(f"party {party_id} does not hold qubit {qubit}")
        label = self._labels[qubit]
        if self.batched:
            if not isinstance(outcome, Unforced) or outcome.index != self._splits:
                raise ValueError(
                    f"a batch needs the unforced outcome {self._splits} here, got {outcome!r}"
                )
            amps = _measured(self._amps, qubit, basis).reshape(2 * self._amps.shape[0], -1)
            norms = _row_norms2(amps)
            parent = np.repeat(norms[0::2] + norms[1::2], 2)
            self._impossible = np.repeat(self._impossible, 2) | (
                norms < IMPOSSIBLE_CUTOFF * parent
            )
            self._splits += 1
        else:
            if outcome not in (0, 1):
                raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
            amps = _measured(self._amps, qubit, basis)[:, outcome].reshape(1, -1)
            probability = float(_row_norms2(amps)[0])
            self.trace.append(
                {
                    "type": "measure",
                    "party": party_id,
                    "qubit": label,
                    "basis": basis.value,
                    "outcome": outcome,
                    "probability": probability,
                }
            )
            if probability < IMPOSSIBLE_CUTOFF:
                raise ImpossibleBranchError(
                    f"outcome {outcome} on qubit {label} has probability {probability:.3e}"
                )
            amps = amps / math.sqrt(probability)
        self._amps = amps
        del self._labels[qubit]
        del self._owner[label]
        self._refresh()
        return None if self.batched else (probability, self.state)

    # -- classical bus ----------------------------------------------------

    def send_cbit(self, sender: int, recipient: int, bit: int | Unforced, tag: str) -> None:
        """Deliver one classical bit; each delivery costs one cbit."""
        if sender == recipient:
            raise ValueError(f"party {sender} cannot send a cbit to itself")
        if sender not in self.parties or recipient not in self.parties:
            raise ValueError(f"unknown party in send {sender} -> {recipient}")
        if isinstance(bit, Unforced):
            if bit.index >= self._splits:
                raise ValueError(f"unforced outcome {bit.index} has not been measured")
        else:
            bit = int(bit)
            if bit not in (0, 1):
                raise ValueError(f"cbit must be 0 or 1, got {bit!r}")
        self.parties[recipient].inbox.append(ClassicalMessage(sender, recipient, bit, tag))
        self.ledger.cbits += 1
        if not self.batched:
            self.trace.append(
                {"type": "message", "sender": sender, "recipient": recipient, "bit": bit, "tag": tag}
            )

    def read_cbit(self, party_id: int, tag: str) -> int | Unforced:
        """Read (without consuming) the bit delivered to ``party_id`` under ``tag``."""
        for msg in self.parties[party_id].inbox:
            if msg.tag == tag:
                return msg.bit
        raise MissingMessage(f"party {party_id} has no message tagged {tag!r}")

    # -- misc --------------------------------------------------------------

    def copy(self) -> "Network":
        parties = {
            pid: Party(p.id, p.role, set(p.held_qubits), list(p.inbox))
            for pid, p in self.parties.items()
        }
        other = Network(
            self.kind,
            self.n,
            self._amps.copy(),
            list(self._labels),
            dict(self._owner),
            parties,
            self.topology,
            self.ledger.copy(),
            batched=self.batched,
            trace=list(self.trace),
        )
        other._splits = self._splits
        other._impossible = self._impossible.copy()
        return other


def _parallel_layout(n: int) -> list[str]:
    order: list[str] = []
    for i in range(1, n):
        order += [f"d{i}", f"e{i}"]
    order += [f"t{i}" for i in range(1, n)]
    order.append(f"d{n}")
    return order


def _series_layout(n: int) -> list[str]:
    order = ["d1", "f1"]
    for i in range(2, n):
        order += [f"r{i}", f"d{i}", f"f{i}"]
    order += [f"r{n}", f"d{n}"]
    return order


def build_network(
    kind: TopologyKind, n: int, input_state: StateVector
) -> tuple[Network, StateVector]:
    """Distribute n-1 Bell pairs around the n-qubit input state.

    ``input_state`` holds the data qubits in party order (qubit i-1 belongs
    to party i).  The returned network runs one forced branch; its register
    follows the layout documented in the module docstring, and its ledger
    already accounts for the n-1 distributed ebits.
    """
    net = _build(kind, n, [input_state], batched=False)
    return net, net.state


def build_batch(kind: TopologyKind, n: int, inputs: Sequence[StateVector]) -> Network:
    """Like :func:`build_network`, with one register row per input.

    Every measurement on the result must leave its outcome :class:`Unforced`,
    so one run of a protocol covers every branch of every input.
    """
    return _build(kind, n, inputs, batched=True)


def _build(kind: TopologyKind, n: int, inputs: Sequence[StateVector], batched: bool) -> Network:
    if n < 2:
        raise ValueError(f"need at least 2 parties, got {n}")
    check_register_size(n)
    for state in inputs:
        if state.num_qubits != n:
            raise ValueError(f"input state has {state.num_qubits} qubits, expected {n}")
    if not inputs:
        raise ValueError("need at least one input state")

    if kind is TopologyKind.PARALLEL:
        layout = _parallel_layout(n)
        pair_labels = [(f"e{i}", f"t{i}") for i in range(1, n)]
    else:
        layout = _series_layout(n)
        pair_labels = [(f"f{i}", f"r{i + 1}") for i in range(1, n)]

    rows = len(inputs)
    combined = np.stack([state.amplitudes for state in inputs])
    bell = bell_state().amplitudes
    for _ in range(n - 1):
        combined = (combined[:, :, None] * bell).reshape(rows, -1)
    tensor_order = [f"d{i}" for i in range(1, n + 1)]
    for a, b in pair_labels:
        tensor_order += [a, b]
    source = {lbl: axis for axis, lbl in enumerate(tensor_order, start=1)}
    cube = combined.reshape((rows,) + (2,) * len(layout))
    register = cube.transpose([0] + [source[lbl] for lbl in layout]).reshape(rows, -1)
    position = {lbl: pos for pos, lbl in enumerate(layout)}

    owner: dict[str, int] = {}
    for i in range(1, n + 1):
        owner[f"d{i}"] = i
    if kind is TopologyKind.PARALLEL:
        for i in range(1, n):
            owner[f"e{i}"] = i
            owner[f"t{i}"] = n
        edges = tuple(
            BellEdge(i, position[f"e{i}"], n, position[f"t{i}"]) for i in range(1, n)
        )
    else:
        for i in range(1, n):
            owner[f"f{i}"] = i
            owner[f"r{i + 1}"] = i + 1
        edges = tuple(
            BellEdge(i, position[f"f{i}"], i + 1, position[f"r{i + 1}"])
            for i in range(1, n)
        )

    parties = {
        pid: Party(pid, Role.TARGET if pid == n else Role.CONTROL)
        for pid in range(1, n + 1)
    }
    return Network(
        kind,
        n,
        register,
        list(layout),
        owner,
        parties,
        Topology(kind, n, edges),
        CostLedger(ebits=n - 1, cbits=0),
        batched=batched,
    )

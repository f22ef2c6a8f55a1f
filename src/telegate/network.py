"""LOCC world model: parties, Bell-pair distribution, and a classical bus.

A :class:`Network` owns the joint statevector, a qubit-ownership map, the
entanglement topology, and a message bus that counts classical bits per
(sender, recipient) delivery.  Local operations are gated by ownership: a
party touching a qubit it does not hold raises :class:`LocalityViolation`,
which is the core safety property of the model.  The register holds one row
per input and branch: a measurement given a forced outcome keeps that half of
every row, and one left :class:`Unforced` keeps both, so one run can hold
every branch of many inputs.  Only a network from :func:`build_network`
keeps a trace.

Every gate the protocols use has the form I ⊕ b: a one-qubit block b on its
last qubit under all-ones controls (X, Z, CX, CZ, CCX, controlled-payload).
Such a gate acts in place on two basic-index views of the register, the
target at 0 and at 1 with every control at 1: b = X swaps them, a diagonal b
scales them and any other b mixes them.  A correction acts on the same
views restricted to the rows whose outcome parity is 1.  Any other gate
goes through the dense kernel :func:`~telegate.statevector._apply_matrix`.

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
throughout the protocol transcriptions.  :func:`build_network` and
:func:`build_batch` keep this layout.  The verifier's batch
(:func:`_data_batch`) starts from the data qubits ``d1 ... dn`` alone and
appends each Bell pair's two halves at the end of the register when one of
its labels is first resolved, so early operations act on smaller arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

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
    """One distributed Bell pair: ``party_a`` holds the half labelled
    ``label_a`` and ``party_b`` the half labelled ``label_b``."""

    party_a: int
    label_a: str
    party_b: int
    label_b: str


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
    inbox: list[ClassicalMessage] = field(default_factory=list)


# The resource state (|00> + |11>)/sqrt(2).
_BELL = (np.array([1, 0, 0, 1]) / math.sqrt(2)).astype(np.complex128)


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
    """A measurement outcome left open: every row splits in two, one per value.

    ``index`` counts the unforced measurements before this one.  It names the
    outcome's bit in the branch part of a row index, most significant first.
    """

    index: int

    def __bool__(self) -> bool:
        raise TypeError("an unforced outcome has no single value; use Network.apply_if")


def _is_bit(value) -> bool:
    """True for an integer 0 or 1; a bool, a float or an :class:`Unforced` is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value in (0, 1)


def _row_norms2(amps: np.ndarray) -> np.ndarray:
    flat = np.ascontiguousarray(amps).view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


def _measured(
    amps: np.ndarray, q: int, basis: MeasurementBasis, outcomes: Sequence[int] = (0, 1)
) -> np.ndarray:
    """A new ``(rows, len(outcomes), ...)`` array: each row projected onto each
    of ``outcomes`` of qubit ``q`` in ``basis``, unnormalized, ``q`` removed."""
    rows = amps.shape[0]
    cube = amps.reshape(rows, 1 << q, 2, -1)
    zero, one = cube[:, :, 0], cube[:, :, 1]
    out = np.empty((rows, len(outcomes)) + zero.shape[1:], dtype=np.complex128)
    for k, outcome in enumerate(outcomes):
        if basis is MeasurementBasis.COMPUTATIONAL:
            out[:, k] = cube[:, :, outcome]
        elif outcome == 0:
            np.add(zero, one, out=out[:, k])
        else:
            np.subtract(zero, one, out=out[:, k])
    if basis is MeasurementBasis.HADAMARD:
        out *= _SQRT_HALF
    return out


class _Block(NamedTuple):
    """The one-qubit block b of a gate I ⊕ b, and how it acts."""

    b: np.ndarray
    swap: bool  # b is X
    diagonal: bool


_X_BLOCK = np.array([[0, 1], [1, 0]])
_EYE2 = np.eye(2)


@functools.lru_cache(maxsize=32)
def _block(gate: Gate) -> _Block | None:
    """The block of ``gate`` if it is I ⊕ b (controls leading), else ``None``.

    Gates compare by identity and their matrices are read-only, so each
    gate is classified once.
    """
    m = gate.matrix
    rest = m.shape[0] - 2
    if not (
        np.array_equal(m[:rest, :rest], np.eye(rest))
        and not m[:rest, rest:].any()
        and not m[rest:, :rest].any()
    ):
        return None
    b = m[rest:, rest:]
    return _Block(b, bool(np.array_equal(b, _X_BLOCK)), not (b[0, 1] or b[1, 0]))


def _act(v0: np.ndarray, v1: np.ndarray, block: _Block, parity: np.ndarray | None) -> None:
    """(v0, v1) <- b (v0, v1) in place; with ``parity``, only where it is true."""
    b = block.b
    if parity is None and block.swap:
        held = v0.copy()
        v0[...] = v1
        v1[...] = held
        return
    if parity is not None:
        b = np.where(parity[..., None, None], b, _EYE2)
    b00, b01, b10, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 0], b[..., 1, 1]
    if block.diagonal:
        if block.b[0, 0] != 1:
            v0 *= b00
        if block.b[1, 1] != 1:
            v1 *= b11
        return
    held = v0.copy()
    v0 *= b00
    v0 += b01 * v1
    v1 *= b11
    v1 += b10 * held


def _parity(splits: int, unforced: list[int], flip: int) -> np.ndarray:
    """The outcome parity of each row, over axes ``(inputs, bit 0, ..., bit splits-1)``
    of length 1 except at the ``unforced`` bits, XOR ``flip``."""
    parity = np.full((1,) * (1 + splits), bool(flip))
    for j in unforced:
        shape = [1] * (1 + splits)
        shape[1 + j] = 2
        parity = parity ^ np.array([False, True]).reshape(shape)
    return parity


def _apply(
    amps: np.ndarray,
    num_qubits: int,
    gate: Gate,
    targets: Sequence[int],
    splits: int = 0,
    bits: Sequence[int | Unforced] | None = None,
) -> np.ndarray:
    """Apply ``gate`` on ``targets`` to the ``(rows, 2^num_qubits)`` register.

    With ``bits``, only the rows whose XOR of those outcome bits is 1: a
    forced bit counts for every row, and :class:`Unforced` bit ``j`` is bit
    ``splits - 1 - j`` of the row's branch index.  A gate I ⊕ b acts in
    place on views; any other gate is applied densely.  Returns the register.
    """
    unforced: list[int] = []
    flip = 0
    for bit in bits or ():
        if isinstance(bit, Unforced):
            unforced.append(bit.index)
        else:
            flip ^= bit
    if bits is not None and not unforced and not flip:
        return amps
    block = _block(gate)
    if block is None:
        out = _apply_matrix(amps, num_qubits, gate.matrix, targets)
        if not unforced:
            return out
        shape = (amps.shape[0] >> splits,) + (2,) * splits
        fire = np.broadcast_to(_parity(splits, unforced, flip), shape).reshape(-1)
        np.copyto(amps, out, where=fire[:, None])
        return amps
    amps = np.ascontiguousarray(amps)  # so that the reshape below is a view
    lead = (amps.shape[0] >> splits,) + (2,) * splits if unforced else (amps.shape[0],)
    cube = amps.reshape(lead + (2,) * num_qubits)
    index: list = [slice(None)] * cube.ndim
    for control in targets[:-1]:
        index[len(lead) + control] = 1
    parity = None
    if len(unforced) == 1:
        index[1 + unforced[0]] = 1 ^ flip
    elif unforced:
        parity = _parity(splits, unforced, flip)
        parity = parity.reshape(parity.shape + (1,) * (num_qubits - len(targets)))
    target = len(lead) + targets[-1]
    index[target] = 0
    v0 = cube[tuple(index)]
    index[target] = 1
    v1 = cube[tuple(index)]
    _act(v0, v1, block, parity)
    return amps


class Network:
    """Mutable protocol-execution context.

    The register is one ``(rows, 2^qubits)`` array, one row per input at
    first.  A forced outcome keeps that half of every row and an
    :class:`Unforced` one keeps both, so after k unforced measurements row
    ``input * 2^k + b`` holds branch ``b`` of that input (outcome bits in
    measurement order, first most significant).  Rows are never
    renormalized: a row's squared norm is its branch probability.  Only a
    network from :func:`build_network` (one row) keeps a ``trace``; a trace
    names every outcome, so such a network takes only forced ones.
    Ownership and inbox checks run once per operation whatever the rows and
    bits; ownership is read from the label map, so it follows the register
    as measured qubits leave it.
    """

    def __init__(
        self,
        n: int,
        register: np.ndarray,
        labels: list[str],
        owner: dict[str, int],
        parties: dict[int, Party],
        topology: Topology,
        ledger: CostLedger,
    ):
        self.n = n
        self._amps = register
        self._labels = labels
        self._owner = owner
        self.parties = parties
        self.topology = topology
        self.ledger = ledger
        self.trace: list[dict] | None = None
        self._splits = 0
        # Each row's squared norm as of its last measurement; inputs are normalized.
        self._norms2 = np.ones(register.shape[0])
        self._impossible = np.zeros(register.shape[0], dtype=bool)
        # Bell pairs not yet in the register, by the label of either half.
        self._pending: dict[str, BellEdge] = {}

    # -- register ------------------------------------------------------------

    @property
    def state(self) -> StateVector | None:
        """The register's one row, normalized; ``None`` when it has several."""
        if self._amps.shape[0] != 1:
            return None
        return StateVector(len(self._labels), self._amps[0] / math.sqrt(self.probabilities[0]))

    @property
    def register(self) -> np.ndarray:
        """The ``(rows, 2^qubits)`` amplitude array, as a read-only view;
        gates act on the register in place, so later ones show through it."""
        view = self._amps.view()
        view.setflags(write=False)
        return view

    @property
    def probabilities(self) -> np.ndarray:
        """Squared norm of each row: its branch probability."""
        return _row_norms2(self._amps)

    @property
    def impossible(self) -> np.ndarray:
        """Rows where some measurement had conditional probability below 1e-12."""
        return self._impossible.copy()

    # -- label/index bookkeeping ---------------------------------------

    def qubit_index(self, label: str) -> int:
        """Current global index of the qubit with the given stable label.

        In the verifier's batch a Bell pair joins the register when either
        of its labels is first resolved: its two halves are tensored in at
        the end, ``label_a`` then ``label_b``.
        """
        if label in self._pending:
            self._tensor_in(self._pending[label])
        try:
            return self._labels.index(label)
        except ValueError:
            raise KeyError(f"no live qubit labelled {label!r}") from None

    def _tensor_in(self, edge: BellEdge) -> None:
        rows = self._amps.shape[0]
        self._amps = (self._amps[:, :, None] * _BELL).reshape(rows, -1)
        self._labels += [edge.label_a, edge.label_b]
        del self._pending[edge.label_a], self._pending[edge.label_b]

    def _reorder_outcomes(self, axes: Sequence[int]) -> None:
        """Permute the unforced outcome bits of every row index: bit ``w`` of
        the new order (most significant first) is bit ``axes[w]`` of the old one."""
        if list(axes) == sorted(axes):
            return
        rows = self._amps.shape[0]
        cube = (rows >> len(axes),) + (2,) * len(axes)
        perm = (0, *(1 + a for a in axes))
        amps = self._amps.reshape(cube + (-1,)).transpose(perm + (len(cube),))
        self._amps = amps.reshape(rows, -1)
        self._norms2 = self._norms2.reshape(cube).transpose(perm).reshape(rows)
        self._impossible = self._impossible.reshape(cube).transpose(perm).reshape(rows)

    def label_at(self, index: int) -> str:
        return self._labels[index]

    def held_qubits(self, party_id: int) -> set[int]:
        """Current global indices of the qubits ``party_id`` holds."""
        return {i for i, lbl in enumerate(self._labels) if self._owner[lbl] == party_id}

    def _holds(self, party_id: int, index: int) -> bool:
        return 0 <= index < len(self._labels) and self._owner[self._labels[index]] == party_id

    def _check_gate(self, party_id: int, gate: Gate, targets: list[int]) -> None:
        foreign = [t for t in targets if not self._holds(party_id, t)]
        if foreign:
            names = [self._labels[t] for t in foreign if 0 <= t < len(self._labels)]
            raise LocalityViolation(
                f"party {party_id} does not hold qubit(s) {foreign} {names}"
            )
        _check_targets(gate, targets, len(self._labels))

    # -- local operations ------------------------------------------------

    def local_apply(self, party_id: int, gate: Gate, targets: list[int]) -> None:
        """Apply a gate to qubits all held by ``party_id``."""
        self._gate(party_id, gate, targets, None)

    def apply_if(self, party_id: int, gate: Gate, targets: list[int], tags: list[str]) -> None:
        """Apply a gate to the rows where the XOR of the bits ``party_id`` holds
        under ``tags`` is 1 (a trace records it only then); ownership and
        targets are checked whatever the bits."""
        self._gate(party_id, gate, targets, tags)

    def _gate(self, party_id: int, gate: Gate, targets: list[int], tags: list[str] | None) -> None:
        targets = list(targets)
        self._check_gate(party_id, gate, targets)
        bits = None if tags is None else [self.read_cbit(party_id, tag) for tag in tags]
        self._amps = _apply(self._amps, len(self._labels), gate, targets, self._splits, bits)
        if self.trace is not None and (bits is None or sum(bits) % 2):
            labels = [self._labels[t] for t in targets]
            self.trace.append(
                {"type": "gate", "party": party_id, "gate": gate.label, "qubits": labels}
            )

    def local_measure(
        self, party_id: int, qubit: int, basis: MeasurementBasis, outcome: int | Unforced
    ) -> float | None:
        """Measure ``qubit``, keep the half of every row that ``outcome`` names
        (both halves for the next :class:`Unforced` one) and discard ``qubit``.

        A kept row of conditional probability below 1e-12 is flagged
        impossible; a forced outcome no row can take raises
        :class:`ImpossibleBranchError` and leaves the register as it was.
        Returns the conditional probability a traced network records, else ``None``.
        """
        if not isinstance(basis, MeasurementBasis):
            raise ValueError(f"basis must be a MeasurementBasis, got {basis!r}")
        if isinstance(outcome, Unforced):
            if self.trace is not None or outcome.index != self._splits:
                expected = "a forced outcome" if self.trace is not None else Unforced(self._splits)
                raise ValueError(f"this network needs {expected} here, got {outcome!r}")
        elif not _is_bit(outcome):
            raise ValueError(f"outcome must be an integer 0 or 1, got {outcome!r}")
        if not self._holds(party_id, qubit):
            raise LocalityViolation(f"party {party_id} does not hold qubit {qubit}")
        label = self._labels[qubit]
        outcomes = (0, 1) if isinstance(outcome, Unforced) else (outcome,)
        amps = _measured(self._amps, qubit, basis, outcomes).reshape(-1, self._amps.shape[1] >> 1)
        norms2 = _row_norms2(amps)
        parent = np.repeat(self._norms2, len(outcomes))
        impossible = np.repeat(self._impossible, len(outcomes)) | (
            norms2 < IMPOSSIBLE_CUTOFF * parent
        )
        probability = None
        if self.trace is not None:
            probability = float(norms2[0] / parent[0])
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
        if len(outcomes) == 1 and impossible.all():
            raise ImpossibleBranchError(
                f"outcome {outcome} on qubit {label} is impossible in every row"
            )
        self._amps = amps
        self._norms2 = norms2
        self._impossible = impossible
        self._splits += len(outcomes) - 1
        del self._labels[qubit]
        del self._owner[label]
        return probability

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
        if self.trace is not None:
            self.trace.append(
                {"type": "message", "sender": sender, "recipient": recipient, "bit": bit, "tag": tag}
            )

    def read_cbit(self, party_id: int, tag: str) -> int | Unforced:
        """Read (without consuming) the bit delivered to ``party_id`` under ``tag``."""
        if party_id not in self.parties:
            raise ValueError(f"unknown party {party_id}")
        for msg in self.parties[party_id].inbox:
            if msg.tag == tag:
                return msg.bit
        raise MissingMessage(f"party {party_id} has no message tagged {tag!r}")


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
    to party i).  The returned network keeps a trace, so it takes forced
    outcomes only; its register follows the module docstring's layout, and
    its ledger already accounts for the n-1 distributed ebits.
    """
    net = _build(kind, n, [input_state])
    net.trace = []
    return net, net.state


def build_batch(kind: TopologyKind, n: int, inputs: Sequence[StateVector]) -> Network:
    """Like :func:`build_network`, with one register row per input and no
    trace.  A run of a protocol that leaves every outcome :class:`Unforced`
    covers every branch of every input.
    """
    return _build(kind, n, inputs)


def _data_batch(kind: TopologyKind, n: int, inputs: Sequence[StateVector]) -> Network:
    """Like :func:`build_batch`, but the register starts as the data qubits
    ``d1 ... dn`` alone; each Bell pair is tensored in at the end of the
    register when one of its labels is first resolved
    (:meth:`Network.qubit_index`).  The ledger counts all n-1 pairs."""
    return _build(kind, n, inputs, lazy=True)


def _bell_edges(kind: TopologyKind, n: int) -> tuple[BellEdge, ...]:
    """The n-1 Bell pairs of a topology, in order of the control party."""
    if kind is TopologyKind.PARALLEL:
        return tuple(BellEdge(i, f"e{i}", n, f"t{i}") for i in range(1, n))
    return tuple(BellEdge(i, f"f{i}", i + 1, f"r{i + 1}") for i in range(1, n))


def _build(
    kind: TopologyKind,
    n: int,
    inputs: Sequence[StateVector],
    lazy: bool = False,
) -> Network:
    if n < 2:
        raise ValueError(f"need at least 2 parties, got {n}")
    check_register_size(n)
    for state in inputs:
        if state.num_qubits != n:
            raise ValueError(f"input state has {state.num_qubits} qubits, expected {n}")
    if not inputs:
        raise ValueError("need at least one input state")

    edges = _bell_edges(kind, n)
    owner = {f"d{i}": i for i in range(1, n + 1)}
    for edge in edges:
        owner[edge.label_a] = edge.party_a
        owner[edge.label_b] = edge.party_b

    rows = len(inputs)
    register = np.stack([state.amplitudes for state in inputs])
    labels = [f"d{i}" for i in range(1, n + 1)]
    if not lazy:
        tensor_order = labels + [lbl for e in edges for lbl in (e.label_a, e.label_b)]
        for _ in edges:
            register = (register[:, :, None] * _BELL).reshape(rows, -1)
        source = {lbl: axis for axis, lbl in enumerate(tensor_order, start=1)}
        labels = _parallel_layout(n) if kind is TopologyKind.PARALLEL else _series_layout(n)
        cube = register.reshape((rows,) + (2,) * len(labels))
        register = cube.transpose([0] + [source[lbl] for lbl in labels]).reshape(rows, -1)

    parties = {
        pid: Party(pid, Role.TARGET if pid == n else Role.CONTROL)
        for pid in range(1, n + 1)
    }
    net = Network(
        n,
        register,
        labels,
        owner,
        parties,
        Topology(kind, n, edges),
        CostLedger(ebits=n - 1, cbits=0),
    )
    if lazy:
        net._pending = {label: e for e in edges for label in (e.label_a, e.label_b)}
    return net

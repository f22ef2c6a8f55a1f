"""LOCC world model: parties, Bell-pair distribution, and a classical bus.

A :class:`Network` owns the joint statevector, a qubit-ownership map, the
Bell pairs it is built on, and a message bus: one map from (recipient, tag)
to bit, each (sender, recipient) delivery counted as one classical bit.  Local
operations are gated by ownership: a party touching a qubit it does not hold
raises :class:`LocalityViolation`, which is the core safety property of the
model.  The register holds one row per input and branch: a measurement
given a forced outcome keeps that half of every row, and one left
:class:`Unforced` keeps both, so one run can hold every branch of many
inputs.  An unforced outcome names its measurement's place in the
protocol's written order.  Inside the network its bit becomes the least
significant bit of the row index when it is taken; the register, the
probabilities and the impossibility flags are shown with the bits in
written order, whatever order the measurements ran in, reordered by one
transpose only when the two orders differ.  A network keeps no record of
the operations run on it: :mod:`telegate.cli` renders a forced branch's
events from the protocol's op list.

A network applies only gates of the form I ⊕ b: a one-qubit block b on the
last qubit under all-ones controls, as is every gate the protocols use (X,
Z, CX, CZ, CCX, controlled-payload).  Such a gate acts in place on two
basic-index views of the register, the target at 0 and at 1 with every
control at 1: b = X swaps them, a diagonal b scales them and any other b
mixes them.  Any other gate is refused with ``ValueError``.  A correction,
applied iff the XOR of some outcome bits is 1, takes one path whatever its
gate and bits: it acts once per assignment of its open bits that fires it,
on the rows with those branch bits fixed, so the rows it does not fire on
are never touched.

Register layout
---------------
Qubits carry stable string labels, and every operation names its qubits by
label: :meth:`Network.local_apply`, :meth:`Network.apply_if` and
:meth:`Network.local_measure` check that the party holds each label, then
resolve it to its current index, which shifts as measured qubits are
discarded.  A label no party holds (a measured one, or a name that never
was a label) is refused with :class:`LocalityViolation`, and a refused
operation leaves the network unchanged.  With n parties (party n is the
target), the register starts as the data qubits ``d1 ... dn`` in party
order, and each Bell pair joins it at the front when an operation first
names either of its labels: ``label_a`` becomes qubit 0 and ``label_b``
qubit 1, and every live qubit moves up by two.  The pairs are those the
network is built on, which a protocol declares (see
:mod:`telegate.protocols`).  Until then a pair
is counted in the ledger but holds no amplitudes, so early operations act
on smaller arrays.  A protocol measures a pair's first half soon after the
pair joins, while it is still qubit 0, and an unforced measurement of qubit
0 splits every row into its two halves in place, with no copy of the
register.  Data qubits keep their party order throughout, so once every
half is measured the register is ``d1 ... dn`` again.
:meth:`Network.qubit_index` and :meth:`Network.label_at`
are layout queries (the first also joins a pending pair it names);
:attr:`Network.state`, :attr:`Network.register`, :meth:`Network.label_at`
and :meth:`Network.held_qubits` show live qubits only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ImpossibleBranchError, LocalityViolation, MissingMessage
from .gates import Gate, _Block, _block
from .statevector import IMPOSSIBLE_CUTOFF, MeasurementBasis, StateVector, _check_targets

# Largest register (n data qubits and two per Bell pair) any network may
# allocate: 2^22 amplitudes, 64 MiB per input; n <= 8 for a protocol's n-1 pairs.
MAX_REGISTER_QUBITS = 22

_SQRT_HALF = 1 / math.sqrt(2)


@dataclass(frozen=True, slots=True)
class BellEdge:
    """One distributed Bell pair: ``party_a`` holds the half labelled
    ``label_a`` and ``party_b`` the half labelled ``label_b``."""

    party_a: int
    label_a: str
    party_b: int
    label_b: str


@dataclass(slots=True)
class CostLedger:
    """Entanglement and classical-communication accounting for one run.

    ``ebits`` is fixed at build time, one per distributed Bell pair
    (protocols consume entanglement, never create it); ``cbits`` counts each
    (sender, recipient, bit) delivery, so a broadcast to k recipients costs k.
    """

    ebits: int = 0
    cbits: int = 0

    def copy(self) -> "CostLedger":
        return CostLedger(self.ebits, self.cbits)


def _check_party_count(n) -> None:
    """Refuse an n that is not an integer (a bool is not one), then n < 2."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"need at least 2 parties, got n={n}")


def check_register_size(n: int) -> None:
    """Refuse, before any allocation, n data qubits and n-1 Bell pairs over the limit."""
    qubits = 3 * n - 2
    if qubits > MAX_REGISTER_QUBITS:
        raise ValueError(
            f"n={n} needs a {qubits}-qubit register (2^{qubits + 4} bytes per input); "
            f"the limit is {MAX_REGISTER_QUBITS} qubits, n <= {(MAX_REGISTER_QUBITS + 2) // 3}"
        )


@dataclass(frozen=True, slots=True)
class Unforced:
    """A measurement outcome left open: every row splits in two, one per value.

    ``index`` is the measurement's place in the protocol's written order.
    Inside a network the outcome's bit is the least significant branch bit
    of a row index when it is taken, and :attr:`Network.register` shows the
    rows with the branch bits sorted by ``index``, most significant first.
    """

    index: int

    def __bool__(self) -> bool:
        raise TypeError("an unforced outcome has no single value; use Network.apply_if")


def _is_bit(value) -> bool:
    """True for an integer 0 or 1; a bool, a float or an :class:`Unforced` is not one."""
    if type(value) is int:  # the common case, decided first
        return value in (0, 1)
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value in (0, 1)


def _row_norms2(amps: np.ndarray) -> np.ndarray:
    flat = amps.view(np.float64)  # a register is C-contiguous
    return np.einsum("ij,ij->i", flat, flat)


def _measured(
    amps: np.ndarray, q: int, basis: MeasurementBasis, outcomes: Sequence[int]
) -> np.ndarray:
    """A new C-contiguous ``(rows * len(outcomes), cols // 2)`` register:
    each row projected onto each of ``outcomes`` of qubit ``q`` in
    ``basis``, unnormalized, ``q`` removed.  Row ``r``'s projection onto
    ``outcomes[k]`` is row ``r * len(outcomes) + k``."""
    rows, cols = amps.shape
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
    return out.reshape(-1, cols >> 1)


def _split_front(amps: np.ndarray, basis: MeasurementBasis) -> np.ndarray:
    """:func:`_measured` of qubit 0 onto both outcomes, worked in place:
    qubit 0 is the leading bit of a row, so each row's two halves are its two
    projections already (after a butterfly in the Hadamard basis), and the
    result is a view of ``amps``."""
    rows = amps.shape[0]
    halves = amps.reshape(rows, 2, -1)
    if basis is MeasurementBasis.HADAMARD:
        zero, one = halves[:, 0], halves[:, 1]
        difference = zero - one
        zero += one
        one[...] = difference
        amps *= _SQRT_HALF
    return halves.reshape(rows << 1, -1)


def _act(cube: np.ndarray, index: list, axis: int, block: _Block) -> None:
    """Apply b in place to ``cube[index]`` along ``axis``, the target qubit's
    axis, whose entry of ``index`` this sets."""
    index[axis] = 0
    v0 = cube[tuple(index)]
    index[axis] = 1
    v1 = cube[tuple(index)]
    if block.swap:
        held = v0.copy()
        v0[...] = v1
        v1[...] = held
        return
    (b00, b01), (b10, b11) = block.b
    if block.diagonal:
        if b00 != 1:
            v0 *= b00
        if b11 != 1:
            v1 *= b11
        return
    # Each cross term is taken before the view it reads is overwritten.  The
    # arithmetic on strided views is slower than on contiguous copies, but
    # copies need twice the scratch, and at n = 6 that extra peak alone makes
    # the allocator return and refault about 2 MiB per verify.
    cross = np.empty((2,) + v0.shape, dtype=np.complex128)
    np.multiply(b01, v1, out=cross[0])
    np.multiply(b10, v0, out=cross[1])
    v0 *= b00
    v0 += cross[0]
    v1 *= b11
    v1 += cross[1]


def _apply(
    amps: np.ndarray,
    num_qubits: int,
    gate: Gate,
    targets: Sequence[int],
    split: Sequence[int] = (),
    bits: Sequence[int | Unforced] | None = None,
) -> np.ndarray:
    """Apply ``gate``, a gate I ⊕ b, on ``targets`` to the
    ``(rows, 2^num_qubits)`` register.

    ``split`` lists the written indices of the unforced outcomes taken so
    far, in the order taken: the branch bits of a row index, most
    significant first.
    With ``bits``, only the rows whose XOR of those outcome bits is 1: a
    forced bit counts for every row, and :class:`Unforced` bit ``w`` is the
    branch bit at the place of ``w`` in ``split``.  The gate acts once per
    assignment of the open bits that fires it, on the rows with those
    branch bits fixed; without ``bits``, once on every row.  It acts in
    place on views of ``amps``, which is C-contiguous, as every register is,
    so that the reshape below is a view.  Returns the register.
    """
    flip = int(bits is None)
    unforced: set[int] = set()
    for bit in bits or ():
        if isinstance(bit, Unforced):
            unforced ^= {split.index(bit.index)}  # a bit named twice cancels
        else:
            flip ^= bit
    if unforced:
        fired = [v for v in itertools.product((0, 1), repeat=len(unforced)) if (flip + sum(v)) % 2]
    else:
        fired = [()] if flip else []
    if not fired:
        return amps
    block = _block(gate)
    cube = amps.reshape((amps.shape[0] >> len(split),) + (2,) * (len(split) + num_qubits))
    qubit0 = 1 + len(split)  # the axis of qubit 0
    index: list = [slice(None)] * cube.ndim
    for control in targets[:-1]:
        index[qubit0 + control] = 1
    for values in fired:
        for j, value in zip(unforced, values):
            index[1 + j] = value
        _act(cube, index, qubit0 + targets[-1], block)
    return amps


class Network:
    """Mutable protocol-execution context for n parties sharing the Bell
    pairs ``edges``, one register row per state of ``inputs``.

    The register is one ``(rows, 2^qubits)`` array over the live qubits (see
    the module docstring for their order), one row per input at first.  A
    forced outcome keeps that half of every row and an :class:`Unforced` one
    keeps both, so after k unforced measurements row ``input * 2^k + b``
    holds branch ``b`` of that input.  Inside the network the bits of ``b``
    are the outcomes in the order they were taken, first most significant;
    :attr:`register`, :attr:`probabilities` and :attr:`impossible` show them
    in the written order of their :class:`Unforced` indices.  Rows are never
    renormalized: a row's squared norm is its branch probability.  The
    inputs' amplitudes are stacked once into a fresh C-contiguous array,
    which is the register, so gates reshape it into views and no input is
    written to.  Ownership and inbox checks run once per operation whatever
    the rows and bits; ownership is read from the label map, so it follows
    the register as measured qubits leave it.  A gate that is not I ⊕ b is
    refused with ``ValueError`` once its targets are checked.  The ledger
    starts with one ebit per pair of ``edges``, :attr:`bell_pairs`.

    Construction refuses with ``ValueError``, in this order and before
    anything is allocated: an n that is not an integer (a bool is not one),
    n < 2, an edge that does not join two different parties of 1..n, a pair
    label that repeats or is a data label ``d1 ... dn``, a register of
    n + 2·len(edges) qubits over :data:`MAX_REGISTER_QUBITS`, no inputs and
    an input that is not of n qubits.
    """

    def __init__(self, n: int, edges: Sequence[BellEdge], inputs: Sequence[StateVector]):
        _check_party_count(n)
        edges = tuple(edges)
        parties = range(1, n + 1)
        self._owner = {f"d{i}": i for i in parties}
        # Bell pairs not yet in the register, by the label of either half.
        self._pending: dict[str, BellEdge] = {}
        for edge in edges:
            a, b = edge.party_a, edge.party_b
            if a == b or a not in parties or b not in parties:
                raise ValueError(f"{edge} does not join two different parties of 1..{n}")
            for party, label in ((a, edge.label_a), (b, edge.label_b)):
                if label in self._owner:
                    raise ValueError(f"Bell pair label {label!r} repeats or is a data label")
                self._owner[label] = party
                self._pending[label] = edge
        qubits = n + 2 * len(edges)
        if qubits > MAX_REGISTER_QUBITS:
            raise ValueError(
                f"{n} parties and {len(edges)} Bell pairs need a {qubits}-qubit register "
                f"(2^{qubits + 4} bytes per input); the limit is {MAX_REGISTER_QUBITS} qubits"
            )
        if not inputs:
            raise ValueError("need at least one input state")
        for state in inputs:
            if state.num_qubits != n:
                raise ValueError(f"input state has {state.num_qubits} qubits, expected {n}")
        amps = np.stack([state.amplitudes for state in inputs])
        self.n = n
        self.bell_pairs = edges
        self.ledger = CostLedger(ebits=len(edges))
        self._amps = amps
        self._labels = [f"d{i}" for i in parties]
        # The bit delivered to each recipient under each tag; the first one kept.
        self._inbox: dict[tuple[int, str], int | Unforced] = {}
        # Written indices of the unforced outcomes taken, in the order taken:
        # the branch bits of a row index, most significant first.
        self._split: list[int] = []
        # Each row's squared norm as of its last measurement; inputs are normalized.
        self._norms2 = np.ones(amps.shape[0])
        self._impossible = np.zeros(amps.shape[0], dtype=bool)

    # -- register ------------------------------------------------------------

    @property
    def state(self) -> StateVector | None:
        """The register's one row over its live qubits, normalized; ``None``
        when it has several."""
        if self._amps.shape[0] != 1:
            return None
        return StateVector(len(self._labels), self._amps[0] / math.sqrt(self.probabilities[0]))

    @property
    def register(self) -> np.ndarray:
        """The ``(rows, 2^qubits)`` amplitude array, read-only, rows in written
        order.  When the outcomes were taken in written order it is a view:
        gates act on the register in place, and an unforced measurement of
        qubit 0 splits it in place, so a view taken before an operation may
        share memory with the register after it and show what the operation
        wrote.  Otherwise it is a copy with its rows reordered."""
        view = self._in_written_order(self._amps).view()
        view.setflags(write=False)
        return view

    @property
    def probabilities(self) -> np.ndarray:
        """Squared norm of each row, in written order: its branch probability."""
        return self._in_written_order(_row_norms2(self._amps))

    @property
    def impossible(self) -> np.ndarray:
        """Rows, in written order, where some measurement had conditional
        probability below 1e-12."""
        return self._in_written_order(self._impossible).copy()

    def _overlaps(self, targets: np.ndarray) -> np.ndarray:
        """|<targets[m]|row>|^2 for every row of input m, in written order.

        The rows are read where they lie and only these products are put in
        written order, so no reordered copy of the register is made."""
        rows = self._amps.reshape(len(targets), -1, self._amps.shape[1])
        inner = np.einsum("mi,mbi->mb", targets.conj(), rows)
        return self._in_written_order((np.abs(inner) ** 2).ravel())

    def _in_written_order(self, values: np.ndarray) -> np.ndarray:
        """``values``, one entry or row per register row, with the branch bits
        of each row index moved from the order taken to written order:
        ``values`` itself when the two agree, else one copy."""
        split = self._split
        if split == sorted(split):
            return values
        k = len(split)
        axes = sorted(range(1, k + 1), key=lambda axis: split[axis - 1])
        cube = values.reshape((-1,) + (2,) * k + values.shape[1:])
        rest = range(k + 1, cube.ndim)
        return cube.transpose((0, *axes, *rest)).reshape(values.shape)

    # -- label/index bookkeeping ---------------------------------------

    def qubit_index(self, label: str) -> int:
        """Current global index of the qubit with the given stable label.

        A Bell pair joins the register when either of its labels is first
        resolved: its two halves are tensored in at the front, ``label_a``
        as qubit 0 and ``label_b`` as qubit 1.
        """
        if label in self._pending:
            self._commit(*self._joined([label]))
        try:
            return self._labels.index(label)
        except ValueError:
            raise KeyError(f"no live qubit labelled {label!r}") from None

    def label_at(self, index: int) -> str:
        return self._labels[index]

    def held_qubits(self, party_id: int) -> set[str]:
        """Labels of the live qubits ``party_id`` holds."""
        return {label for label in self._labels if self._owner[label] == party_id}

    def _resolve(
        self, party_id: int, labels: Sequence[str]
    ) -> tuple[np.ndarray, list[str], list[int]]:
        """The register and live labels with every pending pair that
        ``labels`` names joined, and each label's index in them.

        Refuses a label ``party_id`` does not hold, measured and unknown
        ones included, before anything is resolved.  Nothing changes here:
        an operation commits with :meth:`_commit` once its checks pass, so a
        refused one leaves the network as it was.
        """
        foreign = [label for label in labels if self._owner.get(label) != party_id]
        if foreign:
            raise LocalityViolation(f"party {party_id} does not hold qubit(s) {foreign}")
        amps, live = self._joined(labels)
        return amps, live, [live.index(label) for label in labels]

    def _joined(self, labels: Sequence[str]) -> tuple[np.ndarray, list[str]]:
        """The register and live labels with each pending pair ``labels``
        names tensored in at the front, in the order first named, so the
        last one joined leads.  A pair's |00> and |11> quarters of each row
        are the old row times sqrt(1/2), and its |01> and |10> quarters are 0."""
        amps, live, pending = self._amps, self._labels, self._pending
        for label in labels:
            if label in pending and label not in live:
                edge = pending[label]
                rows, cols = amps.shape
                quarters = np.empty((rows, 4, cols), dtype=np.complex128)
                np.multiply(amps[:, None], _SQRT_HALF, out=quarters[:, ::3])
                quarters[:, 1:3] = 0
                amps = quarters.reshape(rows, -1)
                live = [edge.label_a, edge.label_b] + live
        return amps, live

    def _commit(self, amps: np.ndarray, live: list[str]) -> None:
        for label in live[: len(live) - len(self._labels)]:
            del self._pending[label]
        self._amps, self._labels = amps, live

    # -- local operations ------------------------------------------------

    def local_apply(self, party_id: int, gate: Gate, labels: Sequence[str]) -> None:
        """Apply a gate I ⊕ b to the qubits labelled ``labels``, all held by
        ``party_id``."""
        self._gate(party_id, gate, labels, None)

    def apply_if(
        self, party_id: int, gate: Gate, labels: Sequence[str], tags: Sequence[str]
    ) -> None:
        """Apply a gate to the rows where the XOR of the bits ``party_id`` holds
        under ``tags`` is 1; ownership and targets are checked whatever the bits."""
        self._gate(party_id, gate, labels, tags)

    def _gate(
        self, party_id: int, gate: Gate, labels: Sequence[str], tags: Sequence[str] | None
    ) -> None:
        amps, live, targets = self._resolve(party_id, labels)
        _check_targets(gate, targets, len(live))
        if _block(gate) is None:
            raise ValueError(f"gate {gate.label!r} is not a controlled one-qubit gate I ⊕ b")
        bits = None if tags is None else [self.read_cbit(party_id, tag) for tag in tags]
        self._commit(_apply(amps, len(live), gate, targets, self._split, bits), live)

    def local_measure(
        self, party_id: int, label: str, basis: MeasurementBasis, outcome: int | Unforced
    ) -> float | None:
        """Measure the qubit labelled ``label``, keep the half of every row
        that ``outcome`` names (both halves for an :class:`Unforced` one) and
        discard the qubit.

        An unforced outcome becomes the least significant branch bit: row
        ``r`` splits into rows ``2r`` and ``2r + 1``.  Measuring qubit 0 that
        way splits the register in place; any other qubit is copied once,
        into the new register.  A forced outcome always makes a new register.
        A kept row of conditional probability below 1e-12 is flagged
        impossible; a forced outcome no row can take raises
        :class:`ImpossibleBranchError` and leaves the register as it was.
        Returns the kept row's conditional probability when one row is left,
        else ``None``.
        """
        if not isinstance(basis, MeasurementBasis):
            raise ValueError(f"basis must be a MeasurementBasis, got {basis!r}")
        unforced = isinstance(outcome, Unforced)
        if unforced:
            if outcome.index < 0 or outcome.index in self._split:
                raise ValueError(f"{outcome!r} is not a fresh written measurement index")
        elif not _is_bit(outcome):
            raise ValueError(f"outcome must be an integer 0 or 1, got {outcome!r}")
        amps, live, (qubit,) = self._resolve(party_id, [label])
        parent, impossible = self._norms2, self._impossible
        if not unforced:
            amps = _measured(amps, qubit, basis, (outcome,))
        else:
            if qubit == 0:
                amps = _split_front(amps, basis)
            else:
                amps = _measured(amps, qubit, basis, (0, 1))
            parent, impossible = np.repeat(parent, 2), np.repeat(impossible, 2)
        norms2 = _row_norms2(amps)
        impossible = impossible | (norms2 < IMPOSSIBLE_CUTOFF * parent)
        if not unforced and impossible.all():
            raise ImpossibleBranchError(
                f"outcome {outcome} on qubit {label} is impossible in every row"
            )
        self._commit(amps, live)
        self._norms2 = norms2
        self._impossible = impossible
        if unforced:
            self._split.append(outcome.index)
        del self._labels[qubit]
        del self._owner[label]
        return float(norms2[0] / parent[0]) if len(norms2) == 1 else None

    # -- classical bus ----------------------------------------------------

    def send_cbit(self, sender: int, recipient: int, bit: int | Unforced, tag: str) -> None:
        """Deliver one classical bit; each delivery costs one cbit, and the
        first bit delivered to a recipient under a tag is the one it reads."""
        if sender == recipient:
            raise ValueError(f"party {sender} cannot send a cbit to itself")
        parties = range(1, self.n + 1)
        if sender not in parties or recipient not in parties:
            raise ValueError(f"unknown party in send {sender} -> {recipient}")
        if isinstance(bit, Unforced):
            if bit.index not in self._split:
                raise ValueError(f"unforced outcome {bit.index} has not been measured")
        elif not _is_bit(bit):
            raise ValueError(f"cbit must be an integer 0 or 1, got {bit!r}")
        self._inbox.setdefault((recipient, tag), bit)
        self.ledger.cbits += 1

    def read_cbit(self, party_id: int, tag: str) -> int | Unforced:
        """Read (without consuming) the bit delivered to ``party_id`` under ``tag``."""
        if party_id not in range(1, self.n + 1):
            raise ValueError(f"unknown party {party_id}")
        try:
            return self._inbox[party_id, tag]
        except KeyError:
            raise MissingMessage(f"party {party_id} has no message tagged {tag!r}") from None


"""Exhaustive branch enumeration and cost-formula checking.

Every protocol claim is decided, not sampled: all 2^(2(n-1)) measurement
branches of every input are forced, each final state is compared against the
ideal-effect oracle, branch probabilities are accumulated, and the ledger is
matched against the closed-form ebit/cbit costs with integer exactness.

The schedule, gates and messages of every protocol are the same on every
branch, so branches are not replayed one by one: inputs are stacked as rows
of one network and each unforced measurement keeps both halves of every row
(see :class:`~telegate.network.Network`).  One run of the protocol then
leaves one row per (input, branch), whose squared norm is its probability;
every cbit is sent on every branch, so the run's ledger is every branch's.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .network import CostLedger, _data_batch, register_qubits
from .protocols import (
    ProtocolFamily,
    ProtocolSpec,
    _checked_ops,
    oracle_effect,
    run_protocol,
    topology_for,
)
from .statevector import StateVector, basis_state, random_state

FIDELITY_ATOL = 1e-10
PROBABILITY_ATOL = 1e-9

# Amplitudes one pass of verify_inputs works on: inputs are stacked until
# their registers fill it (4 MiB), and an input larger than that runs alone.
AMPLITUDE_BUDGET = 1 << 18


@dataclass(frozen=True, slots=True)
class BranchResult:
    """One forced measurement-outcome assignment and what it produced."""

    outcomes: tuple[int, ...]
    probability: float
    fidelity: float
    ledger: CostLedger
    impossible: bool = False


def _stored(values: np.ndarray) -> np.ndarray:
    """``values``, or, when every entry is equal, that one entry broadcast
    over the same shape as a read-only view."""
    if values.size and (values == values.flat[0]).all():
        return np.broadcast_to(values.flat[0], values.shape)
    return values


@dataclass(frozen=True, eq=False)
class BranchTable(Sequence):
    """Every branch of one input, kept as arrays in outcome order.

    Indexing builds the :class:`BranchResult`; outcomes run in
    ``itertools.product((0, 1), repeat=k)`` order.  A deterministic protocol
    gives every branch the same probability and fidelity, bit for bit; such
    a column is kept as one value broadcast over the branches, so a report
    holds O(1) memory, not O(branches).
    """

    probabilities: np.ndarray
    fidelities: np.ndarray
    impossible: np.ndarray
    ledger: CostLedger

    def __post_init__(self) -> None:
        for name in ("probabilities", "fidelities", "impossible"):
            object.__setattr__(self, name, _stored(getattr(self, name)))

    def __len__(self) -> int:
        return len(self.probabilities)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        k = len(self).bit_length() - 1
        return BranchResult(
            tuple((i >> (k - 1 - j)) & 1 for j in range(k)),
            float(self.probabilities[i]),
            float(self.fidelities[i]),
            self.ledger.copy(),
            bool(self.impossible[i]),
        )


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """Aggregate verdict over many inputs; ``branches`` are the worst input's."""

    spec: ProtocolSpec
    trials: int
    min_fidelity: float
    max_probability_deviation: float
    cost_ok: bool
    probability_sums_ok: bool
    branches: Sequence[BranchResult]

    @property
    def passed(self) -> bool:
        return (
            self.min_fidelity >= 1.0 - FIDELITY_ATOL
            and self.cost_ok
            and self.probability_sums_ok
        )


def expected_costs(family: ProtocolFamily, n: int) -> tuple[int, int]:
    """Closed-form (ebits, cbits) for a complete n-party run."""
    if family is ProtocolFamily.SERIES_SIMULTANEOUS_CH:
        return n - 1, (n * n + n - 2) // 2
    return n - 1, 2 * (n - 1)


def check_costs(spec: ProtocolSpec, ledger: CostLedger) -> bool:
    """True iff the ledger matches the family's closed form exactly."""
    return (ledger.ebits, ledger.cbits) == expected_costs(spec.family, spec.n)


def _force_all(
    spec: ProtocolSpec, inputs: Sequence[StateVector], enforce_involution: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, CostLedger]:
    """Every branch of every input in one run: (inputs, branches) arrays of
    probability, fidelity and impossibility, and the run's ledger.

    The batch starts from the data qubits and takes each Bell pair in at its
    first use, so ops before the last pair act on smaller registers."""
    net = _data_batch(topology_for(spec.family), spec.n, inputs)
    run_protocol(spec, net, None, enforce_involution=enforce_involution)
    shape = (len(inputs), 1 << spec.num_measurements)
    probabilities = net.probabilities.reshape(shape)
    impossible = net.impossible.reshape(shape)
    final = net.register.reshape(shape + (-1,))
    targets = np.stack([oracle_effect(spec, state).amplitudes for state in inputs])
    overlaps = np.abs(np.einsum("mi,mbi->mb", targets.conj(), final)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        fidelities = np.minimum(overlaps / probabilities, 1.0)
    fidelities[impossible] = 0.0
    return probabilities, fidelities, impossible, net.ledger


def enumerate_branches(
    spec: ProtocolSpec,
    input_state: StateVector,
    *,
    enforce_involution: bool = True,
) -> BranchTable:
    """Force every outcome assignment through the protocol.

    Impossible branches (a measurement with probability below 1e-12) are
    retained with their flag set and fidelity 0 rather than raising.
    """
    _checked_ops(spec, enforce_involution)
    probabilities, fidelities, impossible, ledger = _force_all(
        spec, [input_state], enforce_involution
    )
    return BranchTable(probabilities[0], fidelities[0], impossible[0], ledger)


def _all_basis_states(n: int) -> list[StateVector]:
    return [basis_state(n, format(i, f"0{n}b")) for i in range(1 << n)]


def verify_inputs(
    spec: ProtocolSpec,
    inputs: list[StateVector],
    *,
    max_workers: int = 1,
) -> VerificationReport:
    """Enumerate every branch for every input and aggregate the verdict.

    ``max_workers`` is accepted for callers of the former thread pool and
    ignored: one pass covers every branch, so there is no per-branch work
    to spread over threads.
    """
    _checked_ops(spec, True)
    inputs = list(inputs)
    uniform = 2.0 ** -spec.num_measurements
    per_pass = max(1, AMPLITUDE_BUDGET >> register_qubits(spec.n))
    min_fidelity = float("inf")
    max_deviation = 0.0
    cost_ok = True
    sums_ok = True
    worst: Sequence[BranchResult] = ()
    for start in range(0, len(inputs), per_pass):
        probabilities, fidelities, impossible, ledger = _force_all(
            spec, inputs[start : start + per_pass], True
        )
        lows = fidelities.min(axis=1)
        i = int(np.argmin(lows))
        if lows[i] < min_fidelity:
            min_fidelity = float(lows[i])
            worst = BranchTable(
                probabilities[i].copy(), fidelities[i].copy(), impossible[i].copy(), ledger
            )
        max_deviation = max(max_deviation, float(np.abs(probabilities - uniform).max()))
        cost_ok = cost_ok and check_costs(spec, ledger)
        sums = np.abs(probabilities.sum(axis=1) - 1.0)
        sums_ok = sums_ok and bool((sums <= PROBABILITY_ATOL).all())
    return VerificationReport(
        spec=spec,
        trials=len(inputs),
        min_fidelity=min_fidelity,
        max_probability_deviation=max_deviation,
        cost_ok=cost_ok,
        probability_sums_ok=sums_ok,
        branches=worst,
    )


def verify_protocol(
    spec: ProtocolSpec,
    num_random_inputs: int = 20,
    seed: int | None = 0,
) -> VerificationReport:
    """Run the full sweep: every computational basis input plus random states."""
    _checked_ops(spec, True)
    rng = np.random.default_rng(seed)
    inputs = _all_basis_states(spec.n)
    inputs += [random_state(spec.n, rng) for _ in range(num_random_inputs)]
    return verify_inputs(spec, inputs)


def brute_force_oracle(spec: ProtocolSpec, input_state: StateVector) -> StateVector:
    """Ground-truth effect built as an explicit 2^n x 2^n matrix.

    Deliberately independent of the gate-embedding machinery: the matrix is
    assembled column by column with plain index arithmetic, then multiplied
    against the input amplitudes.
    """
    n = spec.n
    if n > 7:
        raise ValueError(f"brute-force oracle capped at 7 parties, got {n}")
    if input_state.num_qubits != n:
        raise ValueError(
            f"input has {input_state.num_qubits} qubits, spec expects {n}"
        )
    u = spec.payload.matrix
    dim = 1 << n
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        controls = [(col >> (n - 1 - q)) & 1 for q in range(n - 1)]
        target_bit = col & 1
        if spec.family is ProtocolFamily.SERIES_N_CONTROLLED_U:
            power = 1 if all(controls) else 0
        else:
            power = sum(controls)
        uk = np.linalg.matrix_power(u, power)
        base = col - target_bit
        matrix[base, col] = uk[0, target_bit]
        matrix[base + 1, col] = uk[1, target_bit]
    return StateVector(n, matrix @ input_state.amplitudes)

"""The validated state type that crosses the API boundary.

A :class:`StateVector` is an immutable, normalized amplitude vector: inputs
enter the package as one, and a forced run's final register leaves it as
one.  Qubit 0 is the leftmost symbol in ket notation: the basis index of
|b0 b1 ... b_{n-1}> has b0 as its most significant bit.

The register itself -- gates, measurements, the branch axis -- runs on raw
arrays in :mod:`telegate.network`, using this module's gate kernel
:func:`_apply_matrix`, as does the ideal-effect oracle on its stacked input
rows.  :func:`apply_gate` is that kernel's pure, validated form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .gates import Gate

NORM_ATOL = 1e-10
IMPOSSIBLE_CUTOFF = 1e-12


class MeasurementBasis(Enum):
    COMPUTATIONAL = "computational"
    HADAMARD = "hadamard"


@dataclass(frozen=True, eq=False, slots=True)
class StateVector:
    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1:
            amps = amps.reshape(-1)
        if amps.size != 1 << self.num_qubits:
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubits, got {amps.size}"
            )
        total = float(np.vdot(amps, amps).real)
        if not abs(total - 1.0) <= NORM_ATOL:  # also refuses NaN
            raise ValueError(f"amplitudes are not normalized: sum |a|^2 = {total!r}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self.num_qubits})"


def basis_state(num_qubits: int, bits: str) -> StateVector:
    """Computational basis state |bits>, e.g. basis_state(2, "10")."""
    if len(bits) != num_qubits:
        raise ValueError(f"bitstring {bits!r} does not match {num_qubits} qubits")
    if any(c not in "01" for c in bits):
        raise ValueError(f"bitstring {bits!r} contains characters other than 0/1")
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[int(bits, 2)] = 1.0
    return StateVector(num_qubits, amps)


def _apply_matrix(
    amps: np.ndarray, num_qubits: int, matrix: np.ndarray, targets: Sequence[int]
) -> np.ndarray:
    """Embed ``matrix`` on ``targets`` (identity elsewhere) and apply it.

    ``amps`` is one amplitude vector, or a ``(rows, 2^num_qubits)`` array
    whose every row is acted on alike.
    """
    k = len(targets)
    lead = amps.ndim - 1
    axes = [lead + t for t in targets]
    cube = amps.reshape(amps.shape[:lead] + (2,) * num_qubits)
    front = np.moveaxis(cube, axes, range(k))
    out = matrix @ front.reshape(1 << k, -1)
    return np.moveaxis(out.reshape(front.shape), range(k), axes).reshape(amps.shape)


def _check_targets(g: Gate, targets: Sequence[int], num_qubits: int) -> None:
    if g.arity != len(targets):
        raise ValueError(f"gate {g.label!r} has arity {g.arity}, got {len(targets)} targets")
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target in {list(targets)!r}")
    if min(targets) < 0 or max(targets) >= num_qubits:  # arity >= 1, so targets is not empty
        raise ValueError(f"target out of range in {list(targets)!r}")


def apply_gate(s: StateVector, g: Gate, targets: Sequence[int]) -> StateVector:
    """Apply ``g`` to the ordered ``targets`` (control qubits listed first)."""
    targets = list(targets)
    _check_targets(g, targets, s.num_qubits)
    return StateVector(s.num_qubits, _apply_matrix(s.amplitudes, s.num_qubits, g.matrix, targets))


def fidelity_up_to_phase(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 -- insensitive to global phase."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(f"dimension mismatch: {a.num_qubits} vs {b.num_qubits} qubits")
    return float(min(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2, 1.0))


def random_state(num_qubits: int, seed: int | np.random.Generator | None = None) -> StateVector:
    """Haar-random pure state; deterministic for an integer seed."""
    rng = np.random.default_rng(seed)
    dim = 1 << num_qubits
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amps /= np.linalg.norm(amps)
    return StateVector(num_qubits, amps)

"""Dense statevector engine for small qubit registers.

Qubit 0 is the leftmost symbol in ket notation: the basis index of
|b0 b1 ... b_{n-1}> has b0 as its most significant bit.  Every operation is
pure -- it takes states in and returns new states -- and ``StateVector``
values are immutable once constructed, so they are safe to share across
threads or branch evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import EntanglementError
from .gates import Gate

NORM_ATOL = 1e-10
IMPOSSIBLE_CUTOFF = 1e-12

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)


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
        if abs(total - 1.0) > NORM_ATOL:
            raise ValueError(f"amplitudes are not normalized: sum |a|^2 = {total!r}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

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


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product with a's qubits leftmost."""
    return StateVector(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes))


def permute_qubits(s: StateVector, perm: Sequence[int]) -> StateVector:
    """Relabel qubits: the qubit at position i moves to position perm[i]."""
    n = s.num_qubits
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm!r} is not a bijection on 0..{n - 1}")
    inverse = np.argsort(perm)
    reshaped = s.amplitudes.reshape((2,) * n).transpose(inverse)
    return StateVector(n, reshaped.reshape(-1))


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
    if any(t < 0 or t >= num_qubits for t in targets):
        raise ValueError(f"target out of range in {list(targets)!r}")


def apply_gate(s: StateVector, g: Gate, targets: Sequence[int]) -> StateVector:
    """Apply ``g`` to the ordered ``targets`` (control qubits listed first)."""
    targets = list(targets)
    _check_targets(g, targets, s.num_qubits)
    return StateVector(s.num_qubits, _apply_matrix(s.amplitudes, s.num_qubits, g.matrix, targets))


@lru_cache(maxsize=None)
def _outcome_mask(num_qubits: int, q: int, outcome: int) -> np.ndarray:
    indices = np.arange(1 << num_qubits)
    mask = ((indices >> (num_qubits - 1 - q)) & 1) == outcome
    mask.setflags(write=False)
    return mask


def project_measure(
    s: StateVector, q: int, basis: MeasurementBasis, outcome: int
) -> tuple[float, StateVector | None]:
    """Project qubit ``q`` onto the chosen basis vector and renormalize.

    Returns the outcome probability together with the post-measurement state
    (same number of qubits).  If the probability falls below 1e-12 the branch
    is impossible: the probability is returned and the state is ``None``.
    """
    if q < 0 or q >= s.num_qubits:
        raise ValueError(f"qubit {q} out of range")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
    n = s.num_qubits
    work = s.amplitudes
    if basis is MeasurementBasis.HADAMARD:
        work = _apply_matrix(work, n, _HADAMARD, (q,))
    projected = np.where(_outcome_mask(n, q, outcome), work, 0.0)
    probability = float(np.vdot(projected, projected).real)
    if probability < IMPOSSIBLE_CUTOFF:
        return probability, None
    projected = projected / math.sqrt(probability)
    if basis is MeasurementBasis.HADAMARD:
        projected = _apply_matrix(projected, n, _HADAMARD, (q,))
    return probability, StateVector(n, projected)


def discard_qubit(s: StateVector, q: int) -> StateVector:
    """Drop qubit ``q``, which must be in a product state with the rest.

    This is always safe immediately after ``project_measure`` on ``q``.  Any
    residual entanglement above 1e-10 is a contract violation and raises.
    Indices above ``q`` shift down by one.
    """
    n = s.num_qubits
    if q < 0 or q >= n:
        raise ValueError(f"qubit {q} out of range")
    if n == 1:
        raise ValueError("cannot discard the only qubit")
    rows = np.moveaxis(s.amplitudes.reshape((2,) * n), q, 0).reshape(2, -1)
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows.conj()).real)
    lead = 0 if norms[0] >= norms[1] else 1
    remainder = rows[lead] / norms[lead]
    coeffs = rows @ remainder.conj()
    residual = float(np.abs(rows - np.outer(coeffs, remainder)).max())
    if residual > NORM_ATOL:
        raise EntanglementError(
            f"qubit {q} is still entangled with the rest (residual {residual:.3e})"
        )
    return StateVector(n - 1, remainder)


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

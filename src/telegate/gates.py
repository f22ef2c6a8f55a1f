"""Gate constructors and validators.

Provides the fixed single-qubit set (X, Z, H), controlled embeddings with an
arbitrary number of control qubits, and seeded generators for Haar-random
unitaries and for involutions (Hermitian unitaries).  Matrices use the
convention that control qubits are the leading tensor factors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

TOLERANCE = 1e-10

SeedLike = int | np.random.Generator | None


@dataclass(frozen=True, eq=False, slots=True)
class Gate:
    """A square complex matrix acting on ``arity`` qubits.

    The constructor checks only the shape; unitarity is reported by
    :func:`validate` so that deliberately broken matrices can be inspected.
    """

    arity: int
    matrix: np.ndarray
    label: str

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("gate arity must be >= 1")
        mat = np.asarray(self.matrix, dtype=np.complex128)
        dim = 1 << self.arity
        if mat.shape != (dim, dim):
            raise ValueError(
                f"gate of arity {self.arity} needs a {dim}x{dim} matrix, got {mat.shape}"
            )
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def __repr__(self) -> str:
        return f"Gate({self.label!r}, arity={self.arity})"


class GateFlags(NamedTuple):
    unitary: bool
    involution: bool


@dataclass(frozen=True, slots=True)
class InvolutionCertificate:
    """Witness that a gate squares to the identity."""

    gate: Gate
    residual: float

    @property
    def certified(self) -> bool:
        return self.residual < TOLERANCE


def identity() -> Gate:
    return Gate(1, np.eye(2), "I")


def pauli_x() -> Gate:
    return Gate(1, np.array([[0, 1], [1, 0]]), "X")


def pauli_z() -> Gate:
    return Gate(1, np.array([[1, 0], [0, -1]]), "Z")


def hadamard() -> Gate:
    return Gate(1, np.array([[1, 1], [1, -1]]) / math.sqrt(2), "H")


def controlled(u: Gate, num_controls: int = 1) -> Gate:
    """Embed a single-qubit gate under ``num_controls`` control qubits.

    The result is block diagonal: identity everywhere except the final 2x2
    block, so the payload fires only when every control is |1>.
    """
    if u.arity != 1:
        raise ValueError("controlled() takes a single-qubit payload")
    if num_controls < 1:
        raise ValueError("need at least one control qubit")
    dim = 1 << (num_controls + 1)
    mat = np.eye(dim, dtype=np.complex128)
    mat[dim - 2 :, dim - 2 :] = u.matrix
    return Gate(num_controls + 1, mat, "C" * num_controls + u.label)


def unitarity_residual(matrix: np.ndarray) -> float:
    dim = matrix.shape[0]
    return float(np.abs(matrix.conj().T @ matrix - np.eye(dim)).max())


def involution_residual(matrix: np.ndarray) -> float:
    dim = matrix.shape[0]
    return float(np.abs(matrix @ matrix - np.eye(dim)).max())


@np.errstate(over="ignore", invalid="ignore")  # an inf or nan residual passes no tolerance
def validate(g: Gate) -> GateFlags:
    """Residual-based unitarity and involution flags at the 1e-10 tolerance."""
    return GateFlags(
        unitary=unitarity_residual(g.matrix) < TOLERANCE,
        involution=involution_residual(g.matrix) < TOLERANCE,
    )


def involution_certificate(g: Gate) -> InvolutionCertificate:
    return InvolutionCertificate(g, involution_residual(g.matrix))


def _haar_unitary(rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_unitary(seed: SeedLike = None) -> Gate:
    """Haar-random 2x2 unitary, deterministic for an integer seed."""
    rng = np.random.default_rng(seed)
    label = f"randU:{seed}" if isinstance(seed, int) else "randU"
    return Gate(1, _haar_unitary(rng), label)


def random_involution(seed: SeedLike = None) -> Gate:
    """Random Hermitian unitary: a +-1 sign pattern conjugated by a random basis.

    The sign pattern is always nontrivial (never +-identity), so the resulting
    controlled gate is never a no-op.
    """
    rng = np.random.default_rng(seed)
    v = _haar_unitary(rng)
    signs = np.array([1.0, -1.0]) if rng.integers(2) == 0 else np.array([-1.0, 1.0])
    mat = (v * signs) @ v.conj().T
    mat = (mat + mat.conj().T) / 2  # remove float drift from v v^dagger
    label = f"randH:{seed}" if isinstance(seed, int) else "randH"
    return Gate(1, mat, label)


def _entry_to_complex(entry) -> complex:
    """A JSON amplitude or matrix entry: a real number or an [re, im] pair of them."""
    parts = entry if isinstance(entry, (list, tuple)) and len(entry) == 2 else (entry, 0)
    if not all(isinstance(part, (int, float)) for part in parts):
        raise ValueError(f"entry {entry!r} is not a number or an [re, im] pair of numbers")
    return complex(parts[0], parts[1])


def parse_gate_spec(text: str) -> Gate:
    """Build a payload gate from its CLI string form.

    Accepted forms: ``X``, ``Z``, ``H``, ``randU:<seed>``, ``randH:<seed>``,
    and ``matrix:[[..],[..]]`` with entries given as numbers or [re, im] pairs.
    """
    text = text.strip()
    fixed = {"X": pauli_x, "Z": pauli_z, "H": hadamard, "I": identity}
    if text in fixed:
        return fixed[text]()
    if text.startswith("randU:") or text.startswith("randH:"):
        kind, _, raw = text.partition(":")
        try:
            seed = int(raw)
        except ValueError:
            raise ValueError(f"bad seed in gate spec {text!r}") from None
        return random_unitary(seed) if kind == "randU" else random_involution(seed)
    if text.startswith("matrix:"):
        try:
            rows = json.loads(text[len("matrix:") :])
        except json.JSONDecodeError as exc:
            raise ValueError(f"unparseable matrix literal: {exc}") from None
        if not (
            isinstance(rows, list)
            and len(rows) == 2
            and all(isinstance(r, list) and len(r) == 2 for r in rows)
        ):
            raise ValueError("matrix literal must be a 2x2 nested list")
        mat = np.array([[_entry_to_complex(e) for e in row] for row in rows])
        return Gate(1, mat, "matrix")
    raise ValueError(f"unrecognized gate spec {text!r}")

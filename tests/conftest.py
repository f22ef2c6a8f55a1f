"""Shared test helpers: independent oracles kept deliberately naive.

Everything here recomputes quantities from first principles (explicit loops,
Kronecker products, permutation matrices) so the production code paths are
cross-checked against a second, structurally different implementation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from telegate import MeasurementBasis, StateVector


def permutation_matrix(perm: list[int], n: int) -> np.ndarray:
    """Matrix sending |b0..b_{n-1}> to the ket with bit i at position perm[i]."""
    dim = 1 << n
    mat = np.zeros((dim, dim))
    for idx in range(dim):
        bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
        new_bits = [0] * n
        for i, b in enumerate(bits):
            new_bits[perm[i]] = b
        new_idx = sum(bit << (n - 1 - i) for i, bit in enumerate(new_bits))
        mat[new_idx, idx] = 1.0
    return mat


def naive_embedded_matrix(gate_matrix: np.ndarray, targets: list[int], n: int) -> np.ndarray:
    """Full 2^n x 2^n operator built from plain Kronecker products.

    Reorders the register so the targets lead, applies gate (x) identity,
    and reorders back -- no shared code with the production embedding.
    """
    k = len(targets)
    rest = [q for q in range(n) if q not in targets]
    new_position = {t: i for i, t in enumerate(targets)}
    new_position.update({r: k + j for j, r in enumerate(rest)})
    perm = [new_position[q] for q in range(n)]
    mover = permutation_matrix(perm, n)
    big = np.kron(gate_matrix, np.eye(1 << (n - k)))
    return mover.T @ big @ mover


def computational_projector_probability(state: StateVector, q: int, outcome: int) -> float:
    """Brute-force Born probability via an explicit loop over basis indices."""
    n = state.num_qubits
    total = 0.0
    for idx, amp in enumerate(state.amplitudes):
        if (idx >> (n - 1 - q)) & 1 == outcome:
            total += abs(amp) ** 2
    return total


def _insert_bit(rest_idx: int, n: int, q: int, bit: int) -> int:
    bits = [(rest_idx >> (n - 2 - i)) & 1 for i in range(n - 1)]
    bits.insert(q, bit)
    return sum(b << (n - 1 - i) for i, b in enumerate(bits))


def hadamard_projector_probability(state: StateVector, q: int, outcome: int) -> float:
    """Brute-force probability of |+> (outcome 0) or |-> (outcome 1) on qubit q."""
    n = state.num_qubits
    sign = 1.0 if outcome == 0 else -1.0
    total = 0.0
    for rest_idx in range(1 << (n - 1)):
        acc = 0.0 + 0.0j
        for bit in (0, 1):
            coef = 1.0 if bit == 0 else sign
            acc += coef * state.amplitudes[_insert_bit(rest_idx, n, q, bit)]
        total += abs(acc / math.sqrt(2)) ** 2
    return total


def projected_remainder(
    state: StateVector, q: int, basis: MeasurementBasis, outcome: int
) -> np.ndarray:
    """Brute-force post-measurement state with qubit q projected and dropped.

    Each amplitude of the remaining n-1 qubits is <outcome|_q applied to the
    two amplitudes that differ only in qubit q, then the result is
    renormalized by the square root of the outcome probability.
    """
    n = state.num_qubits
    if basis is MeasurementBasis.COMPUTATIONAL:
        bra = (1.0, 0.0) if outcome == 0 else (0.0, 1.0)
    else:
        bra = (1 / math.sqrt(2), 1 / math.sqrt(2) if outcome == 0 else -1 / math.sqrt(2))
    out = np.zeros(1 << (n - 1), dtype=complex)
    for rest_idx in range(1 << (n - 1)):
        for bit in (0, 1):
            out[rest_idx] += bra[bit] * state.amplitudes[_insert_bit(rest_idx, n, q, bit)]
    return out / np.linalg.norm(out)


def single_qubit_purity(state: StateVector, q: int) -> float:
    """tr(rho^2) of the reduced density matrix of qubit q."""
    n = state.num_qubits
    rows = np.moveaxis(state.amplitudes.reshape((2,) * n), q, 0).reshape(2, -1)
    rho = rows @ rows.conj().T
    return float(np.real(np.trace(rho @ rho)))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240917)

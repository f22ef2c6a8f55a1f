"""StateVector boundary type and oracle kernel tests, cross-checked against naive oracles."""

import math

import numpy as np
import pytest

from telegate import (
    StateVector,
    apply_gate,
    basis_state,
    controlled,
    fidelity_up_to_phase,
    identity,
    pauli_x,
    random_state,
)
from conftest import naive_embedded_matrix, single_qubit_purity


class TestBasisState:
    def test_single_qubit(self):
        np.testing.assert_array_equal(basis_state(1, "0").amplitudes, [1, 0])

    def test_two_qubits_all_ones(self):
        np.testing.assert_array_equal(basis_state(2, "11").amplitudes, [0, 0, 0, 1])

    def test_leftmost_symbol_is_most_significant(self):
        state = basis_state(3, "010")
        assert state.amplitudes[2] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            basis_state(2, "010")

    def test_non_binary_characters(self):
        with pytest.raises(ValueError):
            basis_state(2, "0x")


class TestStateVectorInvariants:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            StateVector(2, np.array([1.0, 0.0]))

    def test_amplitudes_are_read_only(self):
        state = basis_state(1, "0")
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.5


class TestApplyGate:
    def test_pauli_x_flips(self):
        out = apply_gate(basis_state(1, "0"), pauli_x(), [0])
        np.testing.assert_array_equal(out.amplitudes, basis_state(1, "1").amplitudes)

    def test_cnot_control_first(self):
        out = apply_gate(basis_state(2, "10"), controlled(pauli_x()), [0, 1])
        np.testing.assert_array_equal(out.amplitudes, basis_state(2, "11").amplitudes)

    def test_cnot_copies_onto_bell_half(self, rng):
        # (a|0> + b|1>) (x) (|00> + |11>)/sqrt(2), CNOT from the data qubit
        # onto the first pair qubit: a|0>(|00>+|11>) + b|1>(|10>+|01>), /sqrt(2)
        alpha, beta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        alpha, beta = alpha / norm, beta / norm
        bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
        joint = StateVector(3, np.kron(np.array([alpha, beta]), bell))
        state = apply_gate(joint, controlled(pauli_x()), [0, 1])
        expected = np.zeros(8, dtype=complex)
        expected[0b000] = alpha / math.sqrt(2)
        expected[0b011] = alpha / math.sqrt(2)
        expected[0b110] = beta / math.sqrt(2)
        expected[0b101] = beta / math.sqrt(2)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            apply_gate(basis_state(2, "00"), pauli_x(), [0, 1])

    def test_duplicate_target(self):
        with pytest.raises(ValueError):
            apply_gate(basis_state(2, "00"), controlled(pauli_x()), [1, 1])

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            apply_gate(basis_state(2, "00"), pauli_x(), [2])

    def test_identity_is_noop(self, rng):
        state = random_state(3, rng)
        out = apply_gate(state, identity(), [1])
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    @pytest.mark.parametrize("num_qubits", [2, 3])
    def test_agrees_with_naive_kronecker_embedding(self, num_qubits, rng):
        from telegate import random_unitary

        for _ in range(20):
            state = random_state(num_qubits, rng)
            if rng.integers(2) == 0:
                gate = random_unitary(rng)
                targets = [int(rng.integers(num_qubits))]
            else:
                gate = controlled(random_unitary(rng))
                targets = list(rng.permutation(num_qubits)[:2])
            full = naive_embedded_matrix(gate.matrix, targets, num_qubits)
            expected = full @ state.amplitudes
            out = apply_gate(state, gate, targets)
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_norm_preserved_under_long_circuits(self, rng):
        from telegate import random_unitary

        state = random_state(4, rng)
        for _ in range(60):
            gate = controlled(random_unitary(rng))
            targets = list(rng.permutation(4)[:2])
            state = apply_gate(state, gate, targets)
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-10


class TestFidelity:
    def test_self_fidelity(self, rng):
        state = random_state(3, rng)
        assert fidelity_up_to_phase(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_invariance(self, rng):
        state = random_state(2, rng)
        for theta in (0.3, 1.2, -2.5):
            shifted = StateVector(2, np.exp(1j * theta) * state.amplitudes)
            assert fidelity_up_to_phase(state, shifted) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        assert fidelity_up_to_phase(basis_state(1, "0"), basis_state(1, "1")) == 0.0

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            fidelity_up_to_phase(random_state(1, rng), random_state(2, rng))


class TestRandomState:
    def test_normalized(self):
        for seed in range(5):
            state = random_state(3, seed)
            assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-12

    def test_deterministic_per_seed(self):
        a = random_state(4, 123)
        b = random_state(4, 123)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_generically_entangled(self):
        for seed in range(20):
            state = random_state(2, seed)
            assert single_qubit_purity(state, 0) < 1.0 - 1e-3

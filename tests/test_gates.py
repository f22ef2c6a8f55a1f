"""Gate constructors, validators, and the CLI gate-spec grammar."""

import math

import numpy as np
import pytest

from telegate import (
    Gate,
    apply_gate,
    basis_state,
    controlled,
    hadamard,
    identity,
    parse_gate_spec,
    pauli_x,
    pauli_z,
    random_involution,
    random_unitary,
    validate,
)
from telegate.gates import involution_residual, unitarity_residual
from telegate.statevector import StateVector


class TestFixedGates:
    def test_pauli_x_flips(self):
        out = apply_gate(basis_state(1, "0"), pauli_x(), [0])
        np.testing.assert_array_equal(out.amplitudes, [0, 1])

    def test_pauli_z_on_plus(self):
        plus = StateVector(1, np.array([1, 1]) / math.sqrt(2))
        minus = StateVector(1, np.array([1, -1]) / math.sqrt(2))
        out = apply_gate(plus, pauli_z(), [0])
        np.testing.assert_allclose(out.amplitudes, minus.amplitudes, atol=1e-15)

    def test_hadamard_squares_to_identity(self):
        h = hadamard().matrix
        np.testing.assert_allclose(h @ h, np.eye(2), atol=1e-15)

    def test_labels(self):
        assert pauli_x().label == "X"
        assert pauli_z().label == "Z"
        assert hadamard().label == "H"
        assert identity().label == "I"

    def test_matrix_is_read_only(self):
        g = pauli_x()
        with pytest.raises(ValueError):
            g.matrix[0, 0] = 5.0


class TestControlled:
    def test_single_control_is_cnot(self):
        cnot = controlled(pauli_x(), 1)
        out = apply_gate(basis_state(2, "10"), cnot, [0, 1])
        np.testing.assert_array_equal(out.amplitudes, basis_state(2, "11").amplitudes)

    def test_two_controls_fire_only_on_all_ones(self):
        u = random_unitary(9)
        ccu = controlled(u, 2)
        out = apply_gate(basis_state(3, "110"), ccu, [0, 1, 2])
        expected = np.zeros(8, dtype=complex)
        expected[0b110] = u.matrix[0, 0]
        expected[0b111] = u.matrix[1, 0]
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_inactive_control_leaves_state_alone(self):
        u = random_unitary(5)
        cu = controlled(u, 1)
        for bits in ("00", "01"):
            out = apply_gate(basis_state(2, bits), cu, [0, 1])
            np.testing.assert_array_equal(out.amplitudes, basis_state(2, bits).amplitudes)

    def test_any_zero_control_basis_state_unchanged(self):
        u = random_unitary(2)
        ccu = controlled(u, 2)
        for idx in range(8):
            bits = format(idx, "03b")
            if bits[:2] == "11":
                continue
            out = apply_gate(basis_state(3, bits), ccu, [0, 1, 2])
            np.testing.assert_array_equal(out.amplitudes, basis_state(3, bits).amplitudes)

    def test_all_ones_block_equals_payload(self):
        u = random_unitary(4)
        mat = controlled(u, 3).matrix
        np.testing.assert_array_equal(mat[-2:, -2:], u.matrix)
        np.testing.assert_array_equal(mat[:-2, :-2], np.eye(14))

    def test_controlled_involution_is_involution(self):
        for seed in range(5):
            gate = controlled(random_involution(seed), 2)
            assert involution_residual(gate.matrix) < 1e-10

    def test_rejects_multi_qubit_payload(self):
        with pytest.raises(ValueError):
            controlled(controlled(pauli_x(), 1), 1)

    def test_label_stacks_controls(self):
        assert controlled(pauli_x(), 1).label == "CX"
        assert controlled(pauli_x(), 2).label == "CCX"
        assert controlled(pauli_z(), 1).label == "CZ"


class TestRandomUnitary:
    def test_unitarity_residual(self):
        for seed in range(10):
            assert unitarity_residual(random_unitary(seed).matrix) < 1e-12

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(random_unitary(7).matrix, random_unitary(7).matrix)

    def test_generically_not_an_involution(self):
        exceeding = sum(
            1 for seed in range(100) if involution_residual(random_unitary(seed).matrix) > 0.1
        )
        assert exceeding >= 99


class TestRandomInvolution:
    def test_squares_to_identity(self):
        for seed in range(20):
            assert involution_residual(random_involution(seed).matrix) < 1e-10

    def test_hermitian(self):
        for seed in range(20):
            m = random_involution(seed).matrix
            assert np.abs(m - m.conj().T).max() < 1e-10

    def test_sign_pattern_is_nontrivial(self):
        for seed in range(20):
            m = random_involution(seed).matrix
            assert np.abs(m - np.eye(2)).max() > 0.5
            assert np.abs(m + np.eye(2)).max() > 0.5

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(
            random_involution(11).matrix, random_involution(11).matrix
        )


class TestValidate:
    def test_hadamard_flags(self):
        assert validate(hadamard()) == (True, True)

    def test_random_unitary_flags(self):
        assert validate(random_unitary(7)) == (True, False)
        assert validate(random_unitary(3)) == (True, False)

    def test_random_involution_flags(self):
        assert validate(random_involution(3)) == (True, True)

    def test_non_unitary_matrix(self):
        ones = Gate(1, np.ones((2, 2)), "ones")
        assert validate(ones) == (False, False)

    @pytest.mark.parametrize(
        "gate, involution",
        [(hadamard(), True), (random_involution(3), True), (random_unitary(3), False)],
        ids=["H", "randH:3", "randU:3"],
    )
    def test_involution_flag_is_the_residual_under_the_tolerance(self, gate, involution):
        residual = involution_residual(gate.matrix)
        assert (residual < 1e-10) == involution == validate(gate).involution


class TestGateConstruction:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            Gate(1, np.eye(4), "bad")

    def test_rejects_zero_arity(self):
        with pytest.raises(ValueError):
            Gate(0, np.eye(1), "bad")


class TestParseGateSpec:
    def test_fixed_names(self):
        np.testing.assert_array_equal(parse_gate_spec("X").matrix, pauli_x().matrix)
        np.testing.assert_array_equal(parse_gate_spec("Z").matrix, pauli_z().matrix)
        np.testing.assert_array_equal(parse_gate_spec("H").matrix, hadamard().matrix)

    def test_seeded_forms_match_constructors(self):
        np.testing.assert_array_equal(
            parse_gate_spec("randU:42").matrix, random_unitary(42).matrix
        )
        np.testing.assert_array_equal(
            parse_gate_spec("randH:42").matrix, random_involution(42).matrix
        )

    def test_matrix_literal_with_pairs(self):
        gate = parse_gate_spec("matrix:[[[0,0],[1,0]],[[1,0],[0,0]]]")
        np.testing.assert_array_equal(gate.matrix, pauli_x().matrix)

    def test_matrix_literal_with_reals(self):
        gate = parse_gate_spec("matrix:[[1,0],[0,-1]]")
        np.testing.assert_array_equal(gate.matrix, pauli_z().matrix)

    @pytest.mark.parametrize(
        "bad",
        ["Y", "randU:x", "matrix:[[1,0]]", "matrix:[1,0,0,1]", "matrix:nope", ""],
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            parse_gate_spec(bad)

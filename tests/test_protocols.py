"""Protocol transcriptions checked stage by stage against hand expansions."""

import itertools

import numpy as np
import pytest

from telegate import (
    InvolutionRequired,
    LocalityViolation,
    MeasurementBasis,
    Network,
    ProtocolFamily,
    ProtocolSpec,
    StateVector,
    TopologyMismatch,
    basis_state,
    controlled,
    fidelity_up_to_phase,
    hadamard,
    identity,
    measurement_schedule,
    oracle_effect,
    pauli_x,
    pauli_z,
    random_involution,
    random_state,
    random_unitary,
    run_protocol,
    verify_inputs,
)
from telegate.cli import record_trace
from telegate.network import BellEdge
from telegate.protocols import LocalGate, Measure, _interpret
from telegate.gates import Gate
from conftest import single_qubit_purity
from reference_states import (
    in_paper_order,
    parallel_after_target_ops,
    parallel_final,
    random_coefficients,
    series_ch_after_target,
    series_ch_final,
    series_ch_relay_state,
    series_ncu_after_first_backstep,
    series_ncu_after_target,
    series_ncu_final,
    series_ncu_relay_state,
    star,
    path,
)

COMP = MeasurementBasis.COMPUTATIONAL
HAD = MeasurementBasis.HADAMARD
CX = controlled(pauli_x())
X = pauli_x()
Z = pauli_z()

PARALLEL = ProtocolFamily.PARALLEL_SIMULTANEOUS_CU
SERIES_CH = ProtocolFamily.SERIES_SIMULTANEOUS_CH
SERIES_NCU = ProtocolFamily.SERIES_N_CONTROLLED_U

ALL_FAMILIES = [PARALLEL, SERIES_CH, SERIES_NCU]


def _payload_for(family, seed=7):
    return random_involution(seed) if family is SERIES_CH else random_unitary(seed)


def _branches(n):
    return list(itertools.product((0, 1), repeat=2 * (n - 1)))


class TestMeasurementSchedule:
    def test_parallel_three_parties(self):
        spec = ProtocolSpec(PARALLEL, 3, random_unitary(0))
        assert measurement_schedule(spec) == [
            (1, "e1", COMP), (2, "e2", COMP), (3, "t1", HAD), (3, "t2", HAD),
        ]

    def test_series_ch_three_parties(self):
        spec = ProtocolSpec(SERIES_CH, 3, hadamard())
        assert measurement_schedule(spec) == [
            (1, "f1", COMP), (2, "f2", COMP), (2, "r2", HAD), (3, "r3", HAD),
        ]

    def test_series_ncu_backward_runs_target_first(self):
        spec = ProtocolSpec(SERIES_NCU, 3, random_unitary(0))
        assert measurement_schedule(spec) == [
            (1, "f1", COMP), (2, "f2", COMP), (3, "r3", HAD), (2, "r2", HAD),
        ]

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_length_is_twice_the_edge_count(self, family, n):
        spec = ProtocolSpec(family, n, _payload_for(family))
        assert len(measurement_schedule(spec)) == 2 * (n - 1)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_refuses_a_spec_over_the_register_limit(self, family):
        # n = 9 needs a 25-qubit register; the spec itself is refused
        with pytest.raises(ValueError, match="limit"):
            measurement_schedule(ProtocolSpec(family, 9, hadamard()))

    def test_refuses_a_non_involutory_series_ch_payload(self):
        # as a run does, and as the trace of one branch does
        spec = ProtocolSpec(SERIES_CH, 3, random_unitary(5))
        with pytest.raises(InvolutionRequired):
            measurement_schedule(spec)
        with pytest.raises(InvolutionRequired):
            record_trace(spec, random_state(3, 5), [0] * 4)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_trace_follows_the_schedule(self, family):
        spec = ProtocolSpec(family, 4, _payload_for(family))
        events = record_trace(spec, random_state(4, 3), [0] * 6)["events"]
        measured = [
            (ev["party"], ev["qubit"], ev["basis"])
            for ev in events
            if ev["type"] == "measure"
        ]
        assert measured == [(p, q, b.value) for p, q, b in measurement_schedule(spec)]


class TestSpecValidation:
    """A spec is refused when it is built, with the errors ``run_protocol``
    raised for it when validation ran per call."""

    def test_rejects_single_party(self):
        with pytest.raises(ValueError, match="need at least 2 parties"):
            ProtocolSpec(PARALLEL, 1, random_unitary(0))

    def test_rejects_multi_qubit_payload(self):
        with pytest.raises(ValueError, match="single-qubit gate"):
            ProtocolSpec(PARALLEL, 3, CX)

    def test_rejects_non_unitary_payload(self):
        with pytest.raises(ValueError, match="'ones' is not unitary"):
            ProtocolSpec(PARALLEL, 3, Gate(1, np.ones((2, 2)), "ones"))

    @pytest.mark.parametrize("n", [3.0, 2.5, True, "3", None])
    def test_rejects_a_party_count_that_is_not_an_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            ProtocolSpec(PARALLEL, n, hadamard())

    def test_rejects_a_family_that_is_not_a_protocol_family(self):
        with pytest.raises(ValueError, match="family must be a ProtocolFamily"):
            ProtocolSpec("parallel-cu", 3, hadamard())

    def test_a_numpy_integer_party_count_is_valid(self):
        spec = ProtocolSpec(PARALLEL, np.int64(3), hadamard())
        assert verify_inputs(spec, [random_state(3, 6)]).passed

    def test_checks_run_in_order(self):
        # the family and the type of n come first, then the party count and
        # the register limit, then the payload
        with pytest.raises(ValueError, match="family must be"):
            ProtocolSpec("parallel-cu", 2.5, CX)
        with pytest.raises(ValueError, match="n must be an integer"):
            ProtocolSpec(PARALLEL, 2.5, CX)
        with pytest.raises(ValueError, match="need at least 2 parties"):
            ProtocolSpec(PARALLEL, 1, CX)
        with pytest.raises(ValueError, match="limit is 22 qubits"):
            ProtocolSpec(PARALLEL, 9, Gate(1, np.ones((2, 2)), "ones"))

    def test_series_ch_requires_involution(self):
        # a valid spec, refused when it is run
        spec = ProtocolSpec(SERIES_CH, 3, random_unitary(5))
        net = Network(3, path(3), [random_state(3, 5)])
        with pytest.raises(InvolutionRequired, match="'randU:5' is not an involution"):
            run_protocol(spec, net, None)

    def test_involution_check_can_be_bypassed(self):
        spec = ProtocolSpec(SERIES_CH, 3, random_unitary(5))
        net = Network(3, path(3), [random_state(3, 5)])
        run_protocol(spec, net, None, enforce_involution=False)
        assert net.probabilities.shape == (16,)

    def test_involutory_payloads_accepted(self):
        for payload in (hadamard(), random_involution(5)):
            assert len(measurement_schedule(ProtocolSpec(SERIES_CH, 3, payload))) == 4

    def test_register_limit(self):
        # 3n - 2 <= 22 register qubits: n = 8 is the largest network
        ProtocolSpec(PARALLEL, 8, random_unitary(0))
        with pytest.raises(ValueError, match="limit is 22 qubits"):
            ProtocolSpec(PARALLEL, 9, random_unitary(0))

    def test_register_limit_message_for_a_huge_n(self):
        # the refusal must not try to print 16 << 3n-2 as a decimal
        with pytest.raises(ValueError, match="limit is 22 qubits"):
            ProtocolSpec(PARALLEL, 10**6, random_unitary(0))

    def test_op_list_is_kept_and_not_compared(self):
        payload = random_unitary(0)
        spec, twin = ProtocolSpec(PARALLEL, 3, payload), ProtocolSpec(PARALLEL, 3, payload)
        assert spec.ops is spec.ops
        assert spec == twin and hash(spec) == hash(twin)
        assert twin.ops is not spec.ops
        assert "ops" not in repr(spec)


def _stage_state(net):
    """The network's one row, normalized, in the paper's layout of the hand
    expansions."""
    return in_paper_order(net)[0] / np.sqrt(net.probabilities[0])


def _drive_parallel_to_target_ops(d, payload, m_a, m_b):
    net = Network(3, star(3), [StateVector(3, d)])
    cu = controlled(payload)
    net.local_apply(1, CX, ["d1", "e1"])
    net.local_apply(2, CX, ["d2", "e2"])
    net.local_measure(1, "e1", COMP, m_a)
    net.send_cbit(1, 3, m_a, "e1")
    net.local_measure(2, "e2", COMP, m_b)
    net.send_cbit(2, 3, m_b, "e2")
    if net.read_cbit(3, "e1"):
        net.local_apply(3, X, ["t1"])
    if net.read_cbit(3, "e2"):
        net.local_apply(3, X, ["t2"])
    net.local_apply(3, cu, ["t1", "d3"])
    net.local_apply(3, cu, ["t2", "d3"])
    return net


class TestParallelProtocol:
    def test_mid_state_after_target_ops_same_for_all_outcomes(self):
        d = random_coefficients(12)
        payload = random_unitary(12)
        expected = parallel_after_target_ops(d, payload.matrix)
        for m_a, m_b in itertools.product((0, 1), repeat=2):
            net = _drive_parallel_to_target_ops(d, payload, m_a, m_b)
            np.testing.assert_allclose(
                _stage_state(net), expected.amplitudes, atol=1e-10
            )

    def test_every_branch_reproduces_the_hand_expansion(self):
        d = random_coefficients(13)
        payload = random_unitary(13)
        expected = parallel_final(d, payload.matrix)
        for branch in _branches(3):
            net = Network(3, star(3), [StateVector(3, d)])
            out = run_protocol(ProtocolSpec(PARALLEL, net.n, payload), net, branch)
            np.testing.assert_allclose(out.amplitudes, expected.amplitudes, atol=1e-10)
            assert (net.ledger.ebits, net.ledger.cbits) == (2, 4)

    def test_both_controls_set_applies_payload_twice(self):
        payload = random_unitary(14)
        net = Network(3, star(3), [basis_state(3, "110")])
        out = run_protocol(ProtocolSpec(PARALLEL, net.n, payload), net, (0, 1, 1, 0))
        expected = np.zeros(8, dtype=complex)
        squared = payload.matrix @ payload.matrix
        expected[0b110] = squared[0, 0]
        expected[0b111] = squared[1, 0]
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-10)

    def test_single_control_applies_hadamard_once(self):
        net = Network(3, star(3), [basis_state(3, "010")])
        out = run_protocol(ProtocolSpec(PARALLEL, net.n, hadamard()), net, (1, 1, 0, 1))
        expected = np.zeros(8, dtype=complex)
        expected[0b010] = 1 / np.sqrt(2)
        expected[0b011] = 1 / np.sqrt(2)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-10)

    def test_identity_payload_is_a_noop(self):
        d = random_coefficients(15)
        for branch in _branches(3):
            net = Network(3, star(3), [StateVector(3, d)])
            out = run_protocol(ProtocolSpec(PARALLEL, net.n, identity()), net, branch)
            np.testing.assert_allclose(out.amplitudes, d, atol=1e-10)

    def test_correction_pattern_matches_returned_outcomes(self):
        # the target's minus outcome on half i drives a phase fix at party i
        d = random_coefficients(16)
        spec = ProtocolSpec(PARALLEL, 3, random_unitary(16))
        for h1, h2 in itertools.product((0, 1), repeat=2):
            events = record_trace(spec, StateVector(3, d), [0, 0, h1, h2])["events"]
            fixes = [
                (ev["party"], ev["qubits"])
                for ev in events
                if ev["type"] == "gate" and ev["gate"] == "Z"
            ]
            expected = []
            if h1:
                expected.append((1, ["d1"]))
            if h2:
                expected.append((2, ["d2"]))
            assert fixes == expected


def _drive_series_forward(d, m2):
    net = Network(3, path(3), [StateVector(3, d)])
    net.local_apply(1, CX, ["d1", "f1"])
    net.local_measure(1, "f1", COMP, m2)
    net.send_cbit(1, 2, m2, "f1")
    if net.read_cbit(2, "f1"):
        net.local_apply(2, X, ["r2"])
    return net


class TestSeriesSimultaneousCH:
    def test_relay_state_after_both_first_outcomes(self):
        d = random_coefficients(21)
        expected = series_ch_relay_state(d)
        for m2 in (0, 1):
            net = _drive_series_forward(d, m2)
            net.local_apply(2, CX, ["r2", "f2"])
            net.local_apply(2, CX, ["d2", "f2"])
            np.testing.assert_allclose(
                _stage_state(net), expected.amplitudes, atol=1e-10
            )

    def test_state_after_target_controlled_payload(self):
        d = random_coefficients(22)
        payload = random_involution(22)
        expected = series_ch_after_target(d, payload.matrix)
        for m2, m5 in itertools.product((0, 1), repeat=2):
            net = _drive_series_forward(d, m2)
            net.local_apply(2, CX, ["r2", "f2"])
            net.local_apply(2, CX, ["d2", "f2"])
            net.local_measure(2, "f2", COMP, m5)
            net.send_cbit(2, 3, m5, "f2")
            if net.read_cbit(3, "f2"):
                net.local_apply(3, X, ["r3"])
            net.local_apply(
                3, controlled(payload), ["r3", "d3"]
            )
            np.testing.assert_allclose(
                _stage_state(net), expected.amplitudes, atol=1e-10
            )

    def test_every_branch_reproduces_the_hand_expansion(self):
        d = random_coefficients(23)
        payload = random_involution(23)
        expected = series_ch_final(d, payload.matrix)
        for branch in _branches(3):
            net = Network(3, path(3), [StateVector(3, d)])
            out = run_protocol(ProtocolSpec(SERIES_CH, net.n, payload), net, branch)
            np.testing.assert_allclose(out.amplitudes, expected.amplitudes, atol=1e-10)
            assert (net.ledger.ebits, net.ledger.cbits) == (2, 5)

    def test_backward_correction_pattern(self):
        # minus on the relay's half fixes party 1 only; minus on the target's
        # half fixes both upstream parties; both minuses cancel at party 1
        d = random_coefficients(24)
        payload = random_involution(24)
        cases = {
            (0, 0): [],
            (1, 0): [(1, ["d1"])],
            (0, 1): [(1, ["d1"]), (2, ["d2"])],
            (1, 1): [(2, ["d2"])],
        }
        spec = ProtocolSpec(SERIES_CH, 3, payload)
        for (h3, h6), expected in cases.items():
            events = record_trace(spec, StateVector(3, d), [0, 0, h3, h6])["events"]
            fixes = [
                (ev["party"], ev["qubits"])
                for ev in events
                if ev["type"] == "gate" and ev["gate"] == "Z"
            ]
            assert fixes == expected

    def test_hadamard_basis_rows(self):
        # both controls set: the involution fires twice and cancels;
        # exactly one control set: it fires once
        for branch in [(0, 0, 0, 0), (1, 0, 1, 1)]:
            net = Network(3, path(3), [basis_state(3, "110")])
            out = run_protocol(ProtocolSpec(SERIES_CH, net.n, hadamard()), net, branch)
            np.testing.assert_allclose(
                out.amplitudes, basis_state(3, "110").amplitudes, atol=1e-10
            )
            net = Network(3, path(3), [basis_state(3, "010")])
            out = run_protocol(ProtocolSpec(SERIES_CH, net.n, hadamard()), net, branch)
            expected = np.zeros(8, dtype=complex)
            expected[0b010] = 1 / np.sqrt(2)
            expected[0b011] = 1 / np.sqrt(2)
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-10)

    def test_four_party_costs(self):
        payload = random_involution(25)
        net = Network(4, path(4), [random_state(4, 25)])
        run_protocol(ProtocolSpec(SERIES_CH, net.n, payload), net, (0,) * 6)
        assert (net.ledger.ebits, net.ledger.cbits) == (3, 9)

    def test_non_involutory_payload_rejected(self):
        net = Network(3, path(3), [random_state(3, 26)])
        with pytest.raises(InvolutionRequired):
            run_protocol(ProtocolSpec(SERIES_CH, net.n, random_unitary(26)), net, (0, 0, 0, 0))

    def test_bypass_flag_allows_the_run(self):
        net = Network(3, path(3), [random_state(3, 26)])
        spec = ProtocolSpec(SERIES_CH, net.n, random_unitary(26))
        out = run_protocol(spec, net, (0, 0, 0, 0), enforce_involution=False)
        assert out.num_qubits == 3


class TestSeriesNControlledU:
    def test_relay_state_after_both_first_outcomes(self):
        d = random_coefficients(31)
        expected = series_ncu_relay_state(d)
        for m2 in (0, 1):
            net = _drive_series_forward(d, m2)
            net.local_apply(
                2,
                controlled(pauli_x(), 2),
                ["r2", "d2", "f2"],
            )
            np.testing.assert_allclose(
                _stage_state(net), expected.amplitudes, atol=1e-10
            )

    def test_state_after_target_controlled_payload(self):
        d = random_coefficients(32)
        payload = random_unitary(32)
        expected = series_ncu_after_target(d, payload.matrix)
        for m2, m5 in itertools.product((0, 1), repeat=2):
            net = _drive_series_forward(d, m2)
            net.local_apply(
                2,
                controlled(pauli_x(), 2),
                ["r2", "d2", "f2"],
            )
            net.local_measure(2, "f2", COMP, m5)
            net.send_cbit(2, 3, m5, "f2")
            if net.read_cbit(3, "f2"):
                net.local_apply(3, X, ["r3"])
            net.local_apply(
                3, controlled(payload), ["r3", "d3"]
            )
            np.testing.assert_allclose(
                _stage_state(net), expected.amplitudes, atol=1e-10
            )

    def test_state_after_first_backward_hop(self):
        # the target's minus outcome is undone by the relay's controlled phase
        d = random_coefficients(33)
        payload = random_unitary(33)
        expected = series_ncu_after_first_backstep(d, payload.matrix)
        for m2, m5, h6 in itertools.product((0, 1), repeat=3):
            net = _drive_series_forward(d, m2)
            net.local_apply(
                2,
                controlled(pauli_x(), 2),
                ["r2", "d2", "f2"],
            )
            net.local_measure(2, "f2", COMP, m5)
            net.send_cbit(2, 3, m5, "f2")
            if net.read_cbit(3, "f2"):
                net.local_apply(3, X, ["r3"])
            net.local_apply(
                3, controlled(payload), ["r3", "d3"]
            )
            net.local_measure(3, "r3", HAD, h6)
            net.send_cbit(3, 2, h6, "r3")
            if net.read_cbit(2, "r3"):
                net.local_apply(
                    2, controlled(pauli_z()), ["r2", "d2"]
                )
            np.testing.assert_allclose(
                _stage_state(net), expected.amplitudes, atol=1e-10
            )

    def test_every_branch_reproduces_the_hand_expansion(self):
        d = random_coefficients(34)
        payload = random_unitary(34)
        expected = series_ncu_final(d, payload.matrix)
        for branch in _branches(3):
            net = Network(3, path(3), [StateVector(3, d)])
            out = run_protocol(ProtocolSpec(SERIES_NCU, net.n, payload), net, branch)
            np.testing.assert_allclose(out.amplitudes, expected.amplitudes, atol=1e-10)
            assert (net.ledger.ebits, net.ledger.cbits) == (2, 4)

    def test_pauli_x_payload_is_the_toffoli_gate(self):
        toffoli = np.eye(8)
        toffoli[6:, 6:] = np.array([[0, 1], [1, 0]])
        for idx in range(8):
            bits = format(idx, "03b")
            net = Network(3, path(3), [basis_state(3, bits)])
            out = run_protocol(ProtocolSpec(SERIES_NCU, net.n, pauli_x()), net, (0, 1, 1, 0))
            np.testing.assert_allclose(out.amplitudes, toffoli[:, idx], atol=1e-10)

    def test_conditional_phase_event_on_target_minus(self):
        d = random_coefficients(35)
        spec = ProtocolSpec(SERIES_NCU, 3, random_unitary(35))
        events = record_trace(spec, StateVector(3, d), [0, 0, 1, 0])["events"]
        cz_events = [ev for ev in events if ev["type"] == "gate" and ev["gate"] == "CZ"]
        assert cz_events == [
            {"type": "gate", "party": 2, "gate": "CZ", "qubits": ["r2", "d2"]}
        ]

    def test_final_phase_fix_on_relay_minus(self):
        d = random_coefficients(36)
        spec = ProtocolSpec(SERIES_NCU, 3, random_unitary(36))
        events = record_trace(spec, StateVector(3, d), [0, 0, 0, 1])["events"]
        z_events = [ev for ev in events if ev["type"] == "gate" and ev["gate"] == "Z"]
        assert z_events == [{"type": "gate", "party": 1, "gate": "Z", "qubits": ["d1"]}]


class TestDegenerateTwoParty:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_reduces_to_controlled_payload_teleportation(self, family):
        payload = _payload_for(family, seed=41)
        spec = ProtocolSpec(family, 2, payload)
        psi = random_state(2, 41)
        expected = oracle_effect(spec, psi)
        for branch in _branches(2):
            net = spec.network([psi])
            out = run_protocol(spec, net, branch)
            assert fidelity_up_to_phase(out, expected) >= 1 - 1e-10
            assert (net.ledger.ebits, net.ledger.cbits) == (1, 2)


class TestOracleEffect:
    def test_parallel_applies_payload_per_set_control(self):
        payload = random_unitary(51)
        spec = ProtocolSpec(PARALLEL, 3, payload)
        phi = random_state(1, 51)
        state = StateVector(3, np.kron(basis_state(2, "11").amplitudes, phi.amplitudes))
        out = oracle_effect(spec, state)
        expected = np.kron(
            basis_state(2, "11").amplitudes,
            payload.matrix @ payload.matrix @ phi.amplitudes,
        )
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_series_ch_cancels_on_even_control_count(self):
        spec = ProtocolSpec(SERIES_CH, 3, hadamard())
        phi = random_state(1, 52)
        state = StateVector(3, np.kron(basis_state(2, "11").amplitudes, phi.amplitudes))
        out = oracle_effect(spec, state)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_ncu_ignores_inputs_with_a_zero_control(self):
        payload = random_unitary(53)
        spec = ProtocolSpec(SERIES_NCU, 4, payload)
        for bits in ("0000", "1010", "0111", "1101"):
            out = oracle_effect(spec, basis_state(4, bits))
            np.testing.assert_array_equal(
                out.amplitudes, basis_state(4, bits).amplitudes
            )

    def test_input_size_must_match(self):
        with pytest.raises(ValueError):
            oracle_effect(ProtocolSpec(PARALLEL, 3, random_unitary(0)), random_state(2, 0))


class TestLinearity:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_superposition_output_matches_weighted_basis_outputs(self, family):
        payload = _payload_for(family, seed=61)
        spec = ProtocolSpec(family, 3, payload)
        branch = (1, 0, 0, 1)
        basis_outputs = []
        for idx in range(8):
            net = spec.network([basis_state(3, format(idx, "03b"))])
            basis_outputs.append(run_protocol(spec, net, branch).amplitudes)
        coeffs = random_coefficients(61)
        net = spec.network([StateVector(3, coeffs)])
        combined = run_protocol(spec, net, branch)
        weighted = sum(c * out for c, out in zip(coeffs, basis_outputs))
        assert (
            fidelity_up_to_phase(combined, StateVector(3, weighted)) >= 1 - 1e-10
        )


class TestEntanglementPreservation:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_reduced_purities_match_the_oracle(self, family):
        payload = _payload_for(family, seed=62)
        spec = ProtocolSpec(family, 3, payload)
        psi = random_state(3, 62)  # generically entangled
        ideal = oracle_effect(spec, psi)
        net = spec.network([psi])
        out = run_protocol(spec, net, (1, 1, 0, 1))
        for q in range(3):
            assert abs(single_qubit_purity(out, q) - single_qubit_purity(ideal, q)) < 1e-10


class TestSpecNetwork:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_each_call_builds_a_fresh_network_of_the_family_topology(self, family):
        spec = ProtocolSpec(family, 3, _payload_for(family))
        inputs = [random_state(3, 73), random_state(3, 74)]
        rows = np.array([state.amplitudes for state in inputs])
        first, second = spec.network(inputs), spec.network(inputs)
        for net in (first, second):
            assert net.n == 3
            np.testing.assert_array_equal(net.register, rows)
            # the n - 1 Bell pairs are booked up front; no bit is sent yet
            assert (net.ledger.ebits, net.ledger.cbits) == (2, 0)
        assert not np.shares_memory(first.register, second.register)
        run_protocol(spec, first, None)
        np.testing.assert_array_equal(second.register, rows)
        np.testing.assert_array_equal([state.amplitudes for state in inputs], rows)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_each_family_runs_on_the_papers_distribution(self, family):
        # parallel-cu shares its Bell pairs from the target; both series
        # families relay them along the path
        distribution = star if family is PARALLEL else path
        for n in range(2, 9):
            spec = ProtocolSpec(family, n, _payload_for(family))
            assert spec.network([random_state(n, n)]).bell_pairs == distribution(n)


class TestRunErrors:
    def test_parallel_runner_rejects_series_network(self):
        net = Network(3, path(3), [random_state(3, 71)])
        with pytest.raises(TopologyMismatch):
            run_protocol(ProtocolSpec(PARALLEL, net.n, random_unitary(71)), net, (0, 0, 0, 0))

    def test_series_runners_reject_parallel_network(self):
        net = Network(3, star(3), [random_state(3, 71)])
        with pytest.raises(TopologyMismatch):
            run_protocol(ProtocolSpec(SERIES_NCU, net.n, random_unitary(71)), net, (0, 0, 0, 0))
        with pytest.raises(TopologyMismatch):
            run_protocol(ProtocolSpec(SERIES_CH, net.n, hadamard()), net, (0, 0, 0, 0))

    def test_a_network_with_a_pair_the_family_does_not_declare_is_refused(self):
        spare = BellEdge(1, "s1", 2, "s2")
        net = Network(3, star(3) + (spare,), [random_state(3, 71)])
        with pytest.raises(TopologyMismatch):
            run_protocol(ProtocolSpec(PARALLEL, 3, random_unitary(71)), net, (0,) * 4)

    def test_spec_and_network_must_agree_on_n(self):
        net = Network(4, star(4), [random_state(4, 71)])
        with pytest.raises(TopologyMismatch):
            run_protocol(ProtocolSpec(PARALLEL, 3, random_unitary(71)), net, (0,) * 4)

    def test_branch_length_checked(self):
        net = Network(3, star(3), [random_state(3, 72)])
        with pytest.raises(ValueError):
            run_protocol(ProtocolSpec(PARALLEL, net.n, random_unitary(72)), net, (0, 0))

    def test_branch_bits_checked(self):
        net = Network(3, star(3), [random_state(3, 72)])
        with pytest.raises(ValueError):
            run_protocol(ProtocolSpec(PARALLEL, net.n, random_unitary(72)), net, (0, 0, 2, 0))

    @pytest.mark.parametrize("bit", [True, 1.0, np.float64(1), "1", None])
    def test_branch_bits_must_be_integers(self, bit):
        net = Network(3, star(3), [random_state(3, 72)])
        before = net.register.copy()
        with pytest.raises(ValueError, match="integer outcome bits"):
            run_protocol(ProtocolSpec(PARALLEL, 3, random_unitary(72)), net, [bit, 0, 0, 0])
        np.testing.assert_array_equal(net.register, before)
        assert net.ledger.cbits == 0

    @pytest.mark.parametrize(
        "late", [Measure(1, "e1", COMP, (3,)), LocalGate(1, pauli_x(), ("e1",))]
    )
    def test_an_op_on_a_measured_label_is_a_locality_violation(self, late):
        # a transcription bug that names e1 after party 1 has measured it
        spec = ProtocolSpec(PARALLEL, 3, hadamard())
        net = Network(3, star(3), [random_state(3, 74)])
        with pytest.raises(LocalityViolation, match="'e1'"):
            _interpret([*spec.ops, late], net, [0] * 5)

    def test_non_unitary_payload_rejected(self):
        net = Network(3, star(3), [random_state(3, 73)])
        with pytest.raises(ValueError):
            spec = ProtocolSpec(PARALLEL, net.n, Gate(1, np.ones((2, 2)), "ones"))
            run_protocol(spec, net, (0,) * 4)

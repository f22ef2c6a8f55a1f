"""LOCC network model: ownership, Bell distribution, and the message bus."""

import itertools

import numpy as np
import pytest

from telegate import (
    Gate,
    ImpossibleBranchError,
    LocalityViolation,
    MeasurementBasis,
    MissingMessage,
    Role,
    StateVector,
    TopologyKind,
    basis_state,
    build_network,
    controlled,
    hadamard,
    pauli_x,
    pauli_z,
    random_state,
    random_unitary,
)
from telegate.network import Unforced, _apply, build_batch
from telegate.statevector import _apply_matrix
from conftest import (
    computational_projector_probability,
    hadamard_projector_probability,
    projected_remainder,
)
from reference_states import (
    parallel_register_state,
    random_coefficients,
    series_register_state,
)

COMP = MeasurementBasis.COMPUTATIONAL
HAD = MeasurementBasis.HADAMARD
CX = controlled(pauli_x())
KINDS = [TopologyKind.PARALLEL, TopologyKind.SERIES]

ZERO = np.array([1, 0], dtype=complex)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)
BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def _owner(net, q):
    (party,) = [p for p in net.parties if q in net.held_qubits(p)]
    return party


def _held_labels(net, party_id):
    return {net.label_at(i) for i in net.held_qubits(party_id)}


class TestBuildNetwork:
    def test_parallel_three_party_register(self):
        d = random_coefficients(1)
        net, state = build_network(TopologyKind.PARALLEL, 3, StateVector(3, d))
        np.testing.assert_allclose(
            state.amplitudes, parallel_register_state(d).amplitudes, atol=1e-12
        )
        assert net.ledger.ebits == 2

    def test_series_three_party_register(self):
        d = random_coefficients(2)
        net, state = build_network(TopologyKind.SERIES, 3, StateVector(3, d))
        np.testing.assert_allclose(
            state.amplitudes, series_register_state(d).amplitudes, atol=1e-12
        )
        assert net.ledger.ebits == 2

    @pytest.mark.parametrize("kind", [TopologyKind.PARALLEL, TopologyKind.SERIES])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ebits_equal_edge_count(self, kind, n):
        net, _ = build_network(kind, n, random_state(n, 0))
        assert net.ledger.ebits == n - 1
        assert len(net.topology.bell_pairs) == n - 1

    def test_parallel_edges_all_touch_target_never_each_other(self):
        net, _ = build_network(TopologyKind.PARALLEL, 5, random_state(5, 1))
        for edge in net.topology.bell_pairs:
            assert edge.party_b == 5
            assert edge.party_a != 5
        assert len({e.party_a for e in net.topology.bell_pairs}) == 4

    def test_series_edges_form_the_path(self):
        net, _ = build_network(TopologyKind.SERIES, 5, random_state(5, 1))
        assert [(e.party_a, e.party_b) for e in net.topology.bell_pairs] == [
            (1, 2), (2, 3), (3, 4), (4, 5),
        ]

    def test_roles(self):
        net, _ = build_network(TopologyKind.SERIES, 4, random_state(4, 2))
        assert net.parties[4].role is Role.TARGET
        assert all(net.parties[i].role is Role.CONTROL for i in (1, 2, 3))

    def test_series_ownership_blocks(self):
        net, _ = build_network(TopologyKind.SERIES, 3, random_state(3, 3))
        assert _held_labels(net, 1) == {"d1", "f1"}
        assert _held_labels(net, 2) == {"r2", "d2", "f2"}
        assert _held_labels(net, 3) == {"r3", "d3"}
        assert [net.label_at(i) for i in range(7)] == ["d1", "f1", "r2", "d2", "f2", "r3", "d3"]

    def test_parallel_ownership_blocks(self):
        net, _ = build_network(TopologyKind.PARALLEL, 3, random_state(3, 3))
        assert _held_labels(net, 1) == {"d1", "e1"}
        assert _held_labels(net, 2) == {"d2", "e2"}
        assert _held_labels(net, 3) == {"t1", "t2", "d3"}

    def test_ownership_is_a_partition(self):
        net, _ = build_network(TopologyKind.PARALLEL, 4, random_state(4, 4))
        held = [net.held_qubits(p) for p in net.parties]
        union = set().union(*held)
        assert union == set(range(10))
        assert sum(len(h) for h in held) == len(union)

    def test_rejects_single_party(self):
        with pytest.raises(ValueError):
            build_network(TopologyKind.PARALLEL, 1, random_state(1, 0))

    def test_rejects_input_size_mismatch(self):
        with pytest.raises(ValueError):
            build_network(TopologyKind.SERIES, 3, random_state(2, 0))


class TestLocalOperations:
    def test_party_may_touch_its_own_qubits(self):
        net, _ = build_network(TopologyKind.PARALLEL, 3, random_state(3, 5))
        net.local_apply(1, CX, [net.qubit_index("d1"), net.qubit_index("e1")])
        assert net.trace[-1] == {
            "type": "gate", "party": 1, "gate": "CX", "qubits": ["d1", "e1"],
        }

    def test_relay_party_controls_both_halves(self):
        net, _ = build_network(TopologyKind.SERIES, 3, random_state(3, 5))
        net.local_apply(2, CX, [net.qubit_index("r2"), net.qubit_index("f2")])
        net.local_apply(2, CX, [net.qubit_index("d2"), net.qubit_index("f2")])

    def test_gate_on_foreign_qubit_aborts(self):
        net, _ = build_network(TopologyKind.PARALLEL, 3, random_state(3, 5))
        with pytest.raises(LocalityViolation):
            net.local_apply(1, CX, [net.qubit_index("d1"), net.qubit_index("d3")])

    def test_measuring_foreign_qubit_aborts(self):
        net, _ = build_network(TopologyKind.SERIES, 3, random_state(3, 5))
        with pytest.raises(LocalityViolation):
            net.local_measure(2, net.qubit_index("d3"), COMP, 0)

    def test_measurement_discards_and_reindexes(self):
        net, _ = build_network(TopologyKind.SERIES, 3, random_state(3, 6))
        net.local_apply(1, CX, [net.qubit_index("d1"), net.qubit_index("f1")])
        net.local_measure(1, net.qubit_index("f1"), COMP, 0)
        assert net.state.num_qubits == 6
        assert _held_labels(net, 1) == {"d1"}
        assert net.qubit_index("r2") == 1
        held = [net.held_qubits(p) for p in net.parties]
        assert set().union(*held) == set(range(6))

    def test_forced_bell_half_outcomes_are_fair_coins(self):
        d = random_coefficients(7)
        net, state = build_network(TopologyKind.SERIES, 3, StateVector(3, d))
        q = net.qubit_index("f1")
        for outcome in (0, 1):
            assert abs(computational_projector_probability(state, q, outcome) - 0.5) < 1e-10
        q6 = net.qubit_index("r3")
        for outcome in (0, 1):
            assert abs(hadamard_projector_probability(state, q6, outcome) - 0.5) < 1e-10
        fresh, _ = build_network(TopologyKind.SERIES, 3, StateVector(3, d))
        assert abs(fresh.local_measure(1, q, COMP, 0) - 0.5) < 1e-10
        fresh, _ = build_network(TopologyKind.SERIES, 3, StateVector(3, d))
        assert abs(fresh.local_measure(3, q6, HAD, 1) - 0.5) < 1e-10


class TestCorrections:
    """A conditional gate is checked for locality whatever its bits."""

    @pytest.mark.parametrize("bit", [0, 1])
    def test_foreign_or_missing_qubit_raises_whatever_the_bit(self, bit):
        net, _ = build_network(TopologyKind.PARALLEL, 3, random_state(3, 5))
        net.send_cbit(1, 3, bit, "e1")
        before, events = net.register.copy(), len(net.trace)
        for index in (net.qubit_index("d1"), 99, -1):
            with pytest.raises(LocalityViolation):
                net.apply_if(3, pauli_x(), [index], ["e1"])
        np.testing.assert_array_equal(net.register, before)
        assert len(net.trace) == events

    def test_unknown_party_is_refused(self):
        net, _ = build_network(TopologyKind.PARALLEL, 3, random_state(3, 5))
        net.send_cbit(1, 3, 0, "e1")
        with pytest.raises(LocalityViolation):
            net.apply_if(99, pauli_x(), [net.qubit_index("t1")], ["e1"])
        with pytest.raises(ValueError, match="unknown party 99"):
            net.read_cbit(99, "e1")

    @pytest.mark.parametrize("bit, fires", [(0, False), (1, True)])
    def test_a_forced_correction_is_traced_only_when_it_fires(self, bit, fires):
        net, _ = build_network(TopologyKind.PARALLEL, 3, random_state(3, 5))
        net.send_cbit(1, 3, bit, "e1")
        before = net.register.copy()
        net.apply_if(3, pauli_x(), [net.qubit_index("t1")], ["e1"])
        assert (net.trace[-1]["type"] == "gate") is fires
        assert (not np.array_equal(net.register, before)) is fires


class TestMeasurementBoundary:
    """Bad arguments to ``local_measure`` fail before the register is touched."""

    @staticmethod
    def _networks():
        yield build_network(TopologyKind.SERIES, 3, random_state(3, 8))[0]
        yield build_batch(TopologyKind.SERIES, 3, [random_state(3, 8), random_state(3, 9)])

    @pytest.mark.parametrize("basis", ["computational", "hadamard", 0, None])
    def test_basis_must_be_a_measurement_basis(self, basis):
        for net in self._networks():
            before = net.register.copy()
            for outcome in (0, Unforced(0)) if net.trace is None else (0,):
                with pytest.raises(ValueError, match="MeasurementBasis"):
                    net.local_measure(1, net.qubit_index("f1"), basis, outcome)
            np.testing.assert_array_equal(net.register, before)
            assert net.label_at(1) == "f1"

    @pytest.mark.parametrize("outcome", [1.0, True, False, 2, -1, "1", None, np.float64(0)])
    def test_forced_outcome_must_be_an_integer_bit(self, outcome):
        for net in self._networks():
            before = net.register.copy()
            with pytest.raises(ValueError, match="integer 0 or 1") as raised:
                net.local_measure(1, net.qubit_index("f1"), COMP, outcome)
            assert repr(outcome) in str(raised.value)
            np.testing.assert_array_equal(net.register, before)
            assert net.label_at(1) == "f1"

    def test_numpy_integer_outcomes_are_bits(self):
        net, _ = build_network(TopologyKind.SERIES, 3, random_state(3, 8))
        assert abs(net.local_measure(1, net.qubit_index("f1"), COMP, np.int64(1)) - 0.5) < 1e-10


class TestBornRule:
    """Measurement through the live register code against brute-force projectors."""

    @pytest.mark.parametrize("kind", [TopologyKind.PARALLEL, TopologyKind.SERIES])
    @pytest.mark.parametrize("n", [2, 3])
    def test_every_qubit_both_bases_both_outcomes(self, kind, n, rng):
        for _ in range(3):
            psi = random_state(n, rng)
            _, register = build_network(kind, n, psi)
            for q in range(register.num_qubits):
                for basis, born in (
                    (COMP, computational_projector_probability),
                    (HAD, hadamard_projector_probability),
                ):
                    probabilities = []
                    for outcome in (0, 1):
                        net, _ = build_network(kind, n, psi)
                        (party,) = [p for p in net.parties if q in net.held_qubits(p)]
                        prob = net.local_measure(party, q, basis, outcome)
                        assert abs(prob - born(register, q, outcome)) < 1e-12
                        np.testing.assert_allclose(
                            net.state.amplitudes,
                            projected_remainder(register, q, basis, outcome),
                            rtol=0,
                            atol=1e-12,
                        )
                        probabilities.append(prob)
                    assert abs(sum(probabilities) - 1.0) < 1e-12


class TestForcedMeasurement:
    """Worked single-branch measurements on small registers."""

    def test_bell_half_computational_zero(self):
        # series n=2 on |00>: d1 f1 r2 d2 = |0> (|00> + |11>)/sqrt(2) |0>
        net, _ = build_network(TopologyKind.SERIES, 2, basis_state(2, "00"))
        prob = net.local_measure(1, net.qubit_index("f1"), COMP, 0)
        assert abs(prob - 0.5) < 1e-12
        np.testing.assert_allclose(
            net.state.amplitudes, basis_state(3, "000").amplitudes, atol=1e-12
        )

    def test_bell_half_hadamard_minus_leaves_partner_in_minus(self):
        net, _ = build_network(TopologyKind.SERIES, 2, basis_state(2, "00"))
        prob = net.local_measure(1, net.qubit_index("f1"), HAD, 1)
        assert abs(prob - 0.5) < 1e-12
        np.testing.assert_allclose(
            net.state.amplitudes, np.kron(np.kron(ZERO, MINUS), ZERO), atol=1e-12
        )

    def test_plus_in_hadamard_basis_is_certain(self):
        plus_zero = StateVector(2, np.array([1, 0, 1, 0]) / np.sqrt(2))
        net, _ = build_network(TopologyKind.SERIES, 2, plus_zero)
        prob = net.local_measure(1, net.qubit_index("d1"), HAD, 0)
        assert abs(prob - 1.0) < 1e-12
        np.testing.assert_allclose(net.state.amplitudes, np.kron(BELL, ZERO), atol=1e-12)

    def test_impossible_outcome_raises_and_is_traced(self):
        net, _ = build_network(TopologyKind.SERIES, 2, basis_state(2, "00"))
        with pytest.raises(ImpossibleBranchError):
            net.local_measure(1, net.qubit_index("d1"), COMP, 1)
        assert net.trace[-1]["type"] == "measure"
        assert net.trace[-1]["probability"] < 1e-12

    def test_copied_bell_half_measures_unbiased_for_any_input(self, rng):
        # once a data qubit has been CNOT-copied onto a Bell half, measuring
        # that half is a coin flip whatever the input state
        for _ in range(10):
            psi = random_state(2, rng)
            for outcome in (0, 1):
                net, _ = build_network(TopologyKind.SERIES, 2, psi)
                net.local_apply(1, CX, [net.qubit_index("d1"), net.qubit_index("f1")])
                prob = net.local_measure(1, net.qubit_index("f1"), COMP, outcome)
                assert abs(prob - 0.5) < 1e-10


class TestBatchedMeasurement:
    """A batch's split rows against forced measurements of every qubit."""

    @pytest.mark.parametrize("basis", [COMP, HAD])
    def test_split_rows_sum_to_their_parent_row(self, basis, rng):
        inputs = [random_state(3, rng) for _ in range(3)]
        for kind in KINDS:
            for q in range(7):
                net = build_batch(kind, 3, inputs)
                net.local_measure(_owner(net, q), q, basis, Unforced(0))
                probabilities = net.probabilities
                assert probabilities.shape == (6,)
                assert net.register.shape == (6, 1 << 6)
                np.testing.assert_allclose(
                    probabilities[0::2] + probabilities[1::2], 1.0, rtol=0, atol=1e-12
                )
                assert not net.impossible.any()

    @pytest.mark.parametrize("kind", KINDS)
    def test_split_rows_are_the_forced_outcomes(self, kind, rng):
        inputs = [random_state(3, rng) for _ in range(2)]
        for q in range(7):
            for basis in (COMP, HAD):
                batch = build_batch(kind, 3, inputs)
                batch.local_measure(_owner(batch, q), q, basis, Unforced(0))
                for i, psi in enumerate(inputs):
                    for outcome in (0, 1):
                        net, _ = build_network(kind, 3, psi)
                        prob = net.local_measure(_owner(net, q), q, basis, outcome)
                        row = 2 * i + outcome
                        assert abs(batch.probabilities[row] - prob) < 1e-12
                        np.testing.assert_allclose(
                            batch.register[row] / np.sqrt(prob),
                            net.state.amplitudes,
                            rtol=0,
                            atol=1e-12,
                        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_rows_are_the_single_registers(self, kind, rng):
        inputs = [random_state(4, rng) for _ in range(3)]
        batch = build_batch(kind, 4, inputs)
        assert batch.state is None
        for row, psi in zip(batch.register, inputs):
            _, register = build_network(kind, 4, psi)
            np.testing.assert_allclose(row, register.amplitudes, rtol=0, atol=1e-12)


class TestForcedRows:
    """A forced outcome keeps that half of every row, unnormalized."""

    def test_forced_rows_keep_their_branch_probability(self, rng):
        inputs = [random_state(3, rng) for _ in range(3)]
        for kind in KINDS:
            batch = build_batch(kind, 3, inputs)
            split = build_batch(kind, 3, inputs)
            for k, (q, basis) in enumerate(((1, HAD), (4, COMP))):
                label = batch.label_at(q)
                assert batch.local_measure(_owner(batch, q), q, basis, 1) is None
                q = split.qubit_index(label)
                split.local_measure(_owner(split, q), q, basis, Unforced(k))
            kept = split.register.reshape(3, 2, 2, -1)[:, 1, 1]
            np.testing.assert_allclose(batch.register, kept, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                batch.probabilities, (abs(kept) ** 2).sum(axis=1), rtol=0, atol=1e-12
            )
            assert batch.state is None and not batch.impossible.any()

    def test_an_outcome_some_rows_cannot_take_is_flagged(self):
        batch = build_batch(TopologyKind.SERIES, 2, [basis_state(2, "00"), basis_state(2, "10")])
        batch.local_measure(1, batch.qubit_index("d1"), COMP, 1)
        assert batch.impossible.tolist() == [True, False]
        np.testing.assert_allclose(batch.probabilities, [0.0, 1.0], atol=1e-12)
        batch.local_measure(1, batch.qubit_index("f1"), COMP, Unforced(0))
        assert batch.impossible.tolist() == [True, True, False, False]

    def test_an_outcome_no_row_can_take_raises_and_leaves_the_register(self):
        batch = build_batch(TopologyKind.SERIES, 2, [basis_state(2, "00"), basis_state(2, "01")])
        before = batch.register.copy()
        with pytest.raises(ImpossibleBranchError):
            batch.local_measure(1, batch.qubit_index("d1"), COMP, 1)
        np.testing.assert_array_equal(batch.register, before)
        assert batch.label_at(0) == "d1" and not batch.impossible.any()

    def test_the_state_is_the_normalized_row(self):
        net, _ = build_network(TopologyKind.SERIES, 2, basis_state(2, "00"))
        net.local_measure(1, net.qubit_index("f1"), HAD, 1)
        assert abs(net.probabilities[0] - 0.5) < 1e-12
        np.testing.assert_allclose(
            net.state.amplitudes, np.kron(np.kron(ZERO, MINUS), ZERO), atol=1e-12
        )


class TestDiscard:
    """A measured qubit leaves the register and later indices shift down."""

    def test_certain_outcome_leaves_the_rest_unchanged(self):
        # series n=2 on |01>: measuring d2 gives 1 with certainty
        net, _ = build_network(TopologyKind.SERIES, 2, basis_state(2, "01"))
        prob = net.local_measure(2, net.qubit_index("d2"), COMP, 1)
        assert abs(prob - 1.0) < 1e-12
        np.testing.assert_allclose(net.state.amplitudes, np.kron(ZERO, BELL), atol=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_later_indices_shift_down_by_one(self, kind):
        psi = random_state(4, 12)
        for q in range(10):
            net, _ = build_network(kind, 4, psi)
            before = [net.label_at(i) for i in range(10)]
            net.local_measure(_owner(net, q), q, COMP, 0)
            after = [net.label_at(i) for i in range(9)]
            assert after == before[:q] + before[q + 1:]
            for i, label in enumerate(after):
                assert net.qubit_index(label) == i
            with pytest.raises(KeyError):
                net.qubit_index(before[q])

    def test_measuring_down_to_one_qubit_stays_normalized(self, rng):
        for _ in range(10):
            kind = KINDS[int(rng.integers(2))]
            n = int(rng.integers(2, 5))
            net, _ = build_network(kind, n, random_state(n, rng))
            for size in range(3 * n - 2, 1, -1):
                q = int(rng.integers(size))
                basis, born = (
                    (COMP, computational_projector_probability)
                    if rng.integers(2) == 0
                    else (HAD, hadamard_projector_probability)
                )
                # the likelier outcome: a Bell partner's outcome can be certain
                outcome = 0 if born(net.state, q, 0) >= 0.5 else 1
                net.local_measure(_owner(net, q), q, basis, outcome)
                state = net.state
                assert state.num_qubits == size - 1
                assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1.0) < 1e-12
                held = [net.held_qubits(p) for p in net.parties]
                assert set().union(*held) == set(range(size - 1))
                assert sum(len(h) for h in held) == size - 1

    def test_measurements_by_different_parties_commute(self, rng):
        for _ in range(10):
            kind = KINDS[int(rng.integers(2))]
            psi = random_state(3, rng)
            net, _ = build_network(kind, 3, psi)
            a, b = rng.choice(7, size=2, replace=False)
            if _owner(net, a) == _owner(net, b):
                continue
            label_a, label_b = net.label_at(a), net.label_at(b)
            basis_a = COMP if rng.integers(2) == 0 else HAD
            basis_b = COMP if rng.integers(2) == 0 else HAD
            results = []
            for order in ((label_a, basis_a), (label_b, basis_b)), (
                (label_b, basis_b),
                (label_a, basis_a),
            ):
                net, _ = build_network(kind, 3, psi)
                joint = 1.0
                for label, basis in order:
                    q = net.qubit_index(label)
                    joint *= net.local_measure(_owner(net, q), q, basis, 0)
                results.append((joint, net.state.amplitudes))
            (p_ab, state_ab), (p_ba, state_ba) = results
            assert abs(p_ab - p_ba) < 1e-12
            np.testing.assert_allclose(state_ab, state_ba, rtol=0, atol=1e-12)


class TestClassicalBus:
    def test_single_send_costs_one_cbit(self):
        net, _ = build_network(TopologyKind.PARALLEL, 3, random_state(3, 9))
        net.send_cbit(1, 2, 1, "m")
        assert net.ledger.cbits == 1

    def test_broadcast_costs_per_recipient(self):
        net, _ = build_network(TopologyKind.SERIES, 3, random_state(3, 9))
        net.send_cbit(3, 1, 0, "h")
        net.send_cbit(3, 2, 0, "h")
        assert net.ledger.cbits == 2

    def test_recipient_reads_nonrecipient_cannot(self):
        net, _ = build_network(TopologyKind.PARALLEL, 3, random_state(3, 9))
        net.send_cbit(1, 3, 1, "m")
        assert net.read_cbit(3, "m") == 1
        with pytest.raises(MissingMessage):
            net.read_cbit(2, "m")

    def test_read_before_send_is_a_protocol_bug(self):
        net, _ = build_network(TopologyKind.PARALLEL, 3, random_state(3, 9))
        with pytest.raises(MissingMessage):
            net.read_cbit(2, "never-sent")

    def test_read_does_not_consume(self):
        net, _ = build_network(TopologyKind.PARALLEL, 3, random_state(3, 9))
        net.send_cbit(1, 3, 1, "m")
        assert net.read_cbit(3, "m") == 1
        assert net.read_cbit(3, "m") == 1

    def test_self_send_rejected(self):
        net, _ = build_network(TopologyKind.PARALLEL, 3, random_state(3, 9))
        with pytest.raises(ValueError):
            net.send_cbit(2, 2, 0, "m")

    def test_non_binary_bit_rejected(self):
        net, _ = build_network(TopologyKind.PARALLEL, 3, random_state(3, 9))
        with pytest.raises(ValueError):
            net.send_cbit(1, 2, 2, "m")

    def test_cbits_monotone_and_ebits_frozen(self):
        net, _ = build_network(TopologyKind.SERIES, 4, random_state(4, 10))
        seen = [net.ledger.cbits]
        for step, (src, dst) in enumerate([(1, 2), (2, 3), (3, 4), (4, 1)]):
            net.send_cbit(src, dst, step % 2, f"t{step}")
            seen.append(net.ledger.cbits)
            assert net.ledger.ebits == 3
        assert seen == sorted(seen)


class TestIndependentNetworks:
    def test_networks_from_one_input_share_no_state(self):
        psi = random_state(3, 11)
        before = psi.amplitudes.copy()
        net, _ = build_network(TopologyKind.SERIES, 3, psi)
        other, _ = build_network(TopologyKind.SERIES, 3, psi)
        other.local_apply(1, CX, [other.qubit_index("d1"), other.qubit_index("f1")])
        other.local_measure(1, other.qubit_index("f1"), COMP, 0)
        other.send_cbit(1, 2, 0, "f1")
        assert net.state.num_qubits == 7
        assert net.ledger.cbits == 0
        assert net.trace == []
        assert net.parties[2].inbox == []
        assert _held_labels(net, 1) == {"d1", "f1"}
        np.testing.assert_array_equal(psi.amplitudes, before)

    def test_register_view_is_read_only(self):
        net, state = build_network(TopologyKind.PARALLEL, 3, random_state(3, 11))
        with pytest.raises(ValueError):
            net.register[0, 0] = 1.0
        with pytest.raises(ValueError):
            net.state.amplitudes[0] = 1.0
        np.testing.assert_array_equal(net.state.amplitudes, state.amplitudes)


# Every gate kind the protocols use, a Haar controlled-payload, and a
# two-qubit gate that is not of the form I + b, which takes the dense path.
_SWAP = Gate(2, np.eye(4)[[0, 2, 1, 3]], "SWAP")
KERNEL_GATES = {
    "X": pauli_x(),
    "Z": pauli_z(),
    "CX": controlled(pauli_x(), 1),
    "CZ": controlled(pauli_z(), 1),
    "CCX": controlled(pauli_x(), 2),
    "CH": controlled(hadamard(), 1),
    "CU": controlled(random_unitary(17), 1),
    "SWAP": _SWAP,
}


def _random_rows(rng, rows, num_qubits):
    shape = (rows, 1 << num_qubits)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestKernels:
    """The in-place view kernel against the dense reference ``_apply_matrix``."""

    @pytest.mark.parametrize("rows", [1, 12])
    @pytest.mark.parametrize("num_qubits", [5, 6, 7])
    @pytest.mark.parametrize("name", list(KERNEL_GATES))
    def test_every_placement_matches_the_dense_kernel(self, name, num_qubits, rows, rng):
        gate = KERNEL_GATES[name]
        amps = _random_rows(rng, rows, num_qubits)
        placements = list(itertools.permutations(range(num_qubits), gate.arity))
        # the last qubit as target and as control, and a control above the target
        assert any(p[-1] == num_qubits - 1 for p in placements)
        assert gate.arity == 1 or any(p[0] > p[-1] for p in placements)
        for targets in placements:
            expected = _apply_matrix(amps, num_qubits, gate.matrix, list(targets))
            got = _apply(amps.copy(), num_qubits, gate, list(targets))
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", list(KERNEL_GATES))
    def test_masked_corrections_match_a_boolean_gather(self, name, rng):
        gate = KERNEL_GATES[name]
        splits, num_qubits, inputs = 3, 5, 2
        rows = inputs << splits
        index = np.arange(rows)
        cases = [
            [Unforced(1)],
            [Unforced(2)],
            [Unforced(0), Unforced(2)],
            [Unforced(0), Unforced(1), Unforced(2)],
            [Unforced(1), 0],
            [Unforced(1), 1],
            [1, Unforced(0), Unforced(2)],
            [1],
            [0],
        ]
        for bits in cases:
            parity = np.zeros(rows, dtype=np.int64)
            for bit in bits:
                if isinstance(bit, Unforced):
                    parity ^= (index >> (splits - 1 - bit.index)) & 1
                else:
                    parity ^= bit
            fire = parity.astype(bool)
            for targets in ([4, 0, 2], [1, 3, 4], [3, 2, 0]):
                targets = targets[-gate.arity :]
                amps = _random_rows(rng, rows, num_qubits)
                expected = amps.copy()
                expected[fire] = _apply_matrix(amps[fire], num_qubits, gate.matrix, targets)
                got = _apply(amps.copy(), num_qubits, gate, targets, splits, bits)
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_controlled_gates_act_in_place(self, rng):
        amps = _random_rows(rng, 4, 5)
        for gate in KERNEL_GATES.values():
            if gate is not _SWAP:
                assert _apply(amps, 5, gate, list(range(gate.arity))) is amps

"""LOCC network model: ownership, Bell distribution, and the message bus."""

import numpy as np
import pytest

from telegate import (
    LocalityViolation,
    MeasurementBasis,
    MissingMessage,
    Role,
    StateVector,
    TopologyKind,
    build_network,
    controlled,
    pauli_x,
    random_state,
)
from conftest import (
    computational_projector_probability,
    hadamard_projector_probability,
)
from reference_states import (
    parallel_register_state,
    random_coefficients,
    series_register_state,
)

COMP = MeasurementBasis.COMPUTATIONAL
HAD = MeasurementBasis.HADAMARD
CX = controlled(pauli_x())


def _held_labels(net, party_id):
    return {net.label_at(i) for i in net.parties[party_id].held_qubits}


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
        held = [net.parties[p].held_qubits for p in net.parties]
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
        prob, state = net.local_measure(1, net.qubit_index("f1"), COMP, 0)
        assert state.num_qubits == 6
        assert _held_labels(net, 1) == {"d1"}
        assert net.qubit_index("r2") == 1
        held = [net.parties[p].held_qubits for p in net.parties]
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
        prob, _ = net.copy().local_measure(1, q, COMP, 0)
        assert abs(prob - 0.5) < 1e-10
        prob, _ = net.copy().local_measure(3, q6, HAD, 1)
        assert abs(prob - 0.5) < 1e-10


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


class TestCopy:
    def test_copies_do_not_share_mutable_state(self):
        net, _ = build_network(TopologyKind.SERIES, 3, random_state(3, 11))
        other = net.copy()
        other.local_apply(1, CX, [other.qubit_index("d1"), other.qubit_index("f1")])
        other.local_measure(1, other.qubit_index("f1"), COMP, 0)
        other.send_cbit(1, 2, 0, "f1")
        assert net.state.num_qubits == 7
        assert net.ledger.cbits == 0
        assert net.trace == []
        assert net.parties[2].inbox == []

    def test_copy_preserves_roles_and_topology(self):
        net, _ = build_network(TopologyKind.PARALLEL, 3, random_state(3, 11))
        other = net.copy()
        assert other.topology is net.topology
        assert other.parties[3].role is Role.TARGET

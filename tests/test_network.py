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
    Network,
    StateVector,
    basis_state,
    controlled,
    hadamard,
    pauli_x,
    pauli_z,
    random_state,
    random_unitary,
)
from telegate.network import BellEdge, Unforced, _apply
from telegate.statevector import _apply_matrix
from conftest import (
    computational_projector_probability,
    hadamard_projector_probability,
    projected_remainder,
)
from reference_states import (
    in_paper_order,
    parallel_register_state,
    path,
    random_coefficients,
    series_register_state,
    star,
    with_all_pairs,
)

COMP = MeasurementBasis.COMPUTATIONAL
HAD = MeasurementBasis.HADAMARD
X = pauli_x()
CX = controlled(pauli_x())
DISTRIBUTIONS = [star, path]

ZERO = np.array([1, 0], dtype=complex)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)
BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def _parties(net):
    return range(1, net.n + 1)


def _owner(net, label):
    (party,) = [p for p in _parties(net) if label in net.held_qubits(p)]
    return party


def _live(net):
    return [net.label_at(i) for i in range(net.register.shape[1].bit_length() - 1)]


class TestBuildNetwork:
    def test_parallel_three_party_register(self):
        d = random_coefficients(1)
        net = with_all_pairs(Network(3, star(3), [StateVector(3, d)]))
        np.testing.assert_allclose(
            in_paper_order(net)[0], parallel_register_state(d).amplitudes, atol=1e-12
        )
        assert net.ledger.ebits == 2

    def test_series_three_party_register(self):
        d = random_coefficients(2)
        net = with_all_pairs(Network(3, path(3), [StateVector(3, d)]))
        np.testing.assert_allclose(
            in_paper_order(net)[0], series_register_state(d).amplitudes, atol=1e-12
        )
        assert net.ledger.ebits == 2

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ebits_equal_edge_count(self, distribution, n):
        net = Network(n, distribution(n), [random_state(n, 0)])
        assert net.ledger.ebits == n - 1
        assert len(net.bell_pairs) == n - 1

    def test_parallel_edges_all_touch_target_never_each_other(self):
        net = Network(5, star(5), [random_state(5, 1)])
        for edge in net.bell_pairs:
            assert edge.party_b == 5
            assert edge.party_a != 5
        assert len({e.party_a for e in net.bell_pairs}) == 4

    def test_series_edges_form_the_path(self):
        net = Network(5, path(5), [random_state(5, 1)])
        assert [(e.party_a, e.party_b) for e in net.bell_pairs] == [
            (1, 2), (2, 3), (3, 4), (4, 5),
        ]

    def test_series_ownership_blocks(self):
        net = with_all_pairs(Network(3, path(3), [random_state(3, 3)]))
        assert net.held_qubits(1) == {"d1", "f1"}
        assert net.held_qubits(2) == {"r2", "d2", "f2"}
        assert net.held_qubits(3) == {"r3", "d3"}
        # each pair joins at the front, so the last one joined leads
        assert [net.label_at(i) for i in range(7)] == ["f2", "r3", "f1", "r2", "d1", "d2", "d3"]

    def test_parallel_ownership_blocks(self):
        net = with_all_pairs(Network(3, star(3), [random_state(3, 3)]))
        assert net.held_qubits(1) == {"d1", "e1"}
        assert net.held_qubits(2) == {"d2", "e2"}
        assert net.held_qubits(3) == {"t1", "t2", "d3"}

    def test_ownership_is_a_partition(self):
        net = with_all_pairs(Network(4, star(4), [random_state(4, 4)]))
        held = [net.held_qubits(p) for p in _parties(net)]
        union = set().union(*held)
        assert union == set(_live(net)) and len(union) == 10
        assert sum(len(h) for h in held) == len(union)

    def test_rejects_single_party(self):
        with pytest.raises(ValueError):
            Network(1, star(1), [random_state(1, 0)])

    def test_rejects_input_size_mismatch(self):
        with pytest.raises(ValueError):
            Network(3, path(3), [random_state(2, 0)])


class _UnreadInputs:
    """Inputs that fail the test when read: a construction refused before it
    reads its inputs has stacked no register."""

    def _read(self, *args):
        raise AssertionError("the inputs were read")

    __bool__ = __len__ = __iter__ = __getitem__ = _read


class TestConstruction:
    """``Network`` refuses bad arguments, in order, before it allocates a register."""

    @pytest.mark.parametrize("n", [1, 0, -2, 3.0, True, "3", None, 9])
    def test_a_bad_party_count_is_refused(self, n):
        # at n = 9 the paper's n - 1 pairs need a 25-qubit register
        edges = path(9) if n == 9 else ()
        with pytest.raises(ValueError):
            Network(n, edges, _UnreadInputs())

    @pytest.mark.parametrize(
        "edge, match",
        [
            (BellEdge(2, "x2", 2, "y2"), "two different parties"),
            (BellEdge(0, "x0", 3, "y3"), "two different parties"),
            (BellEdge(1, "x1", 4, "y4"), "two different parties"),
            (BellEdge(1, "d1", 3, "y3"), "'d1' repeats or is a data label"),
            (BellEdge(1, "x1", 2, "t1"), "'t1' repeats or is a data label"),
        ],
        ids=["within-one-party", "party-0", "party-n+1", "data-label", "repeated-label"],
    )
    def test_pairs_that_are_not_a_distribution_are_refused(self, edge, match):
        with pytest.raises(ValueError, match=match):
            Network(3, star(3) + (edge,), _UnreadInputs())

    def test_pairs_past_the_register_limit_are_refused(self):
        spare = BellEdge(1, "x1", 2, "x2")
        with pytest.raises(ValueError, match="24-qubit register"):
            Network(8, path(8) + (spare,), _UnreadInputs())
        assert Network(8, path(8), [random_state(8, 0)]).ledger.ebits == 7

    def test_no_inputs_are_refused(self):
        with pytest.raises(ValueError, match="at least one input"):
            Network(3, star(3), [])

    def test_the_inputs_are_stacked_once_into_the_register(self):
        inputs = [random_state(3, 0), random_state(3, 1)]
        net = Network(np.int64(3), star(3), inputs)
        assert net.n == 3 and net.register.dtype == np.complex128
        np.testing.assert_array_equal(net.register, np.stack([s.amplitudes for s in inputs]))
        assert not any(np.shares_memory(net.register, s.amplitudes) for s in inputs)
        net.local_apply(1, CX, ["d1", "e1"])
        assert net.register.shape == (2, 1 << 5)


class TestLocalOperations:
    def test_party_may_touch_its_own_qubits(self):
        net = with_all_pairs(Network(3, star(3), [random_state(3, 5)]))
        before = net.register.copy()
        targets = [net.qubit_index("d1"), net.qubit_index("e1")]
        net.local_apply(1, CX, ["d1", "e1"])
        expected = _apply_matrix(before, 7, CX.matrix, targets)
        np.testing.assert_allclose(net.register, expected, rtol=0, atol=1e-12)

    def test_relay_party_controls_both_halves(self):
        net = Network(3, path(3), [random_state(3, 5)])
        net.local_apply(2, CX, ["r2", "f2"])
        net.local_apply(2, CX, ["d2", "f2"])

    def test_gate_on_foreign_qubit_aborts(self):
        net = Network(3, star(3), [random_state(3, 5)])
        with pytest.raises(LocalityViolation):
            net.local_apply(1, CX, ["d1", "d3"])

    def test_measuring_foreign_qubit_aborts(self):
        net = Network(3, path(3), [random_state(3, 5)])
        with pytest.raises(LocalityViolation):
            net.local_measure(2, "d3", COMP, 0)

    def test_measurement_discards_and_reindexes(self):
        net = with_all_pairs(Network(3, path(3), [random_state(3, 6)]))
        assert net.qubit_index("r2") == 3  # f2 r3 f1 r2 d1 d2 d3
        net.local_apply(1, CX, ["d1", "f1"])
        net.local_measure(1, "f1", COMP, 0)
        assert net.state.num_qubits == 6
        assert net.held_qubits(1) == {"d1"}
        assert net.qubit_index("r2") == 2
        held = [net.held_qubits(p) for p in _parties(net)]
        assert set().union(*held) == set(_live(net)) and len(_live(net)) == 6

    def test_forced_bell_half_outcomes_are_fair_coins(self):
        d = random_coefficients(7)
        net = with_all_pairs(Network(3, path(3), [StateVector(3, d)]))
        state = net.state
        q = net.qubit_index("f1")
        for outcome in (0, 1):
            assert abs(computational_projector_probability(state, q, outcome) - 0.5) < 1e-10
        q6 = net.qubit_index("r3")
        for outcome in (0, 1):
            assert abs(hadamard_projector_probability(state, q6, outcome) - 0.5) < 1e-10
        fresh = with_all_pairs(Network(3, path(3), [StateVector(3, d)]))
        assert abs(fresh.local_measure(1, "f1", COMP, 0) - 0.5) < 1e-10
        fresh = with_all_pairs(Network(3, path(3), [StateVector(3, d)]))
        assert abs(fresh.local_measure(3, "r3", HAD, 1) - 0.5) < 1e-10


class TestCorrections:
    """A conditional gate is checked for locality whatever its bits."""

    @pytest.mark.parametrize("bit", [0, 1])
    def test_foreign_or_missing_qubit_raises_whatever_the_bit(self, bit):
        net = Network(3, star(3), [random_state(3, 5)])
        net.send_cbit(1, 3, bit, "e1")
        before = net.register.copy()
        # d1 is party 1's; q9 was never a label; an index is not a label
        for label in ("d1", "q9", 0):
            with pytest.raises(LocalityViolation):
                net.apply_if(3, pauli_x(), [label], ["e1"])
        np.testing.assert_array_equal(net.register, before)

    def test_unknown_party_is_refused(self):
        net = Network(3, star(3), [random_state(3, 5)])
        net.send_cbit(1, 3, 0, "e1")
        with pytest.raises(LocalityViolation):
            net.apply_if(99, pauli_x(), ["t1"], ["e1"])
        with pytest.raises(ValueError, match="unknown party 99"):
            net.read_cbit(99, "e1")

    @pytest.mark.parametrize("bit, fires", [(0, False), (1, True)])
    def test_a_forced_correction_acts_only_when_it_fires(self, bit, fires):
        net = with_all_pairs(Network(3, star(3), [random_state(3, 5)]))
        net.send_cbit(1, 3, bit, "e1")
        before = net.register.copy()
        t1 = net.qubit_index("t1")
        net.apply_if(3, pauli_x(), ["t1"], ["e1"])
        flipped = _apply_matrix(before, 7, pauli_x().matrix, [t1])
        np.testing.assert_array_equal(net.register, flipped if fires else before)


class TestMeasurementBoundary:
    """Bad arguments to ``local_measure`` fail before the register is touched."""

    @staticmethod
    def _networks():
        yield with_all_pairs(Network(3, path(3), [random_state(3, 8)]))
        inputs = [random_state(3, 8), random_state(3, 9)]
        yield with_all_pairs(Network(3, path(3), inputs))

    @pytest.mark.parametrize("basis", ["computational", "hadamard", 0, None])
    def test_basis_must_be_a_measurement_basis(self, basis):
        for net in self._networks():
            before = net.register.copy()
            live = _live(net)
            for outcome in (0, Unforced(0)):
                with pytest.raises(ValueError, match="MeasurementBasis"):
                    net.local_measure(1, "f1", basis, outcome)
            np.testing.assert_array_equal(net.register, before)
            assert _live(net) == live and "f1" in live

    @pytest.mark.parametrize("outcome", [1.0, True, False, 2, -1, "1", None, np.float64(0)])
    def test_forced_outcome_must_be_an_integer_bit(self, outcome):
        for net in self._networks():
            before, live = net.register.copy(), _live(net)
            with pytest.raises(ValueError, match="integer 0 or 1") as raised:
                net.local_measure(1, "f1", COMP, outcome)
            assert repr(outcome) in str(raised.value)
            np.testing.assert_array_equal(net.register, before)
            assert _live(net) == live and "f1" in live

    def test_numpy_integer_outcomes_are_bits(self):
        net = Network(3, path(3), [random_state(3, 8)])
        assert abs(net.local_measure(1, "f1", COMP, np.int64(1)) - 0.5) < 1e-10


class TestBornRule:
    """Measurement through the live register code against brute-force projectors."""

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_every_qubit_both_bases_both_outcomes(self, distribution, n, rng):
        for _ in range(3):
            psi = random_state(n, rng)
            register = with_all_pairs(Network(n, distribution(n), [psi])).state
            for q in range(register.num_qubits):
                for basis, born in (
                    (COMP, computational_projector_probability),
                    (HAD, hadamard_projector_probability),
                ):
                    probabilities = []
                    for outcome in (0, 1):
                        net = with_all_pairs(Network(n, distribution(n), [psi]))
                        label = net.label_at(q)
                        prob = net.local_measure(_owner(net, label), label, basis, outcome)
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
        # series n=2 on |00>: f1 r2 d1 d2 = (|00> + |11>)/sqrt(2) |0> |0>
        net = Network(2, path(2), [basis_state(2, "00")])
        prob = net.local_measure(1, "f1", COMP, 0)
        assert abs(prob - 0.5) < 1e-12
        np.testing.assert_allclose(
            net.state.amplitudes, basis_state(3, "000").amplitudes, atol=1e-12
        )

    def test_bell_half_hadamard_minus_leaves_partner_in_minus(self):
        net = Network(2, path(2), [basis_state(2, "00")])
        prob = net.local_measure(1, "f1", HAD, 1)
        assert abs(prob - 0.5) < 1e-12
        # r2 d1 d2
        np.testing.assert_allclose(
            net.state.amplitudes, np.kron(MINUS, np.kron(ZERO, ZERO)), atol=1e-12
        )

    def test_plus_in_hadamard_basis_is_certain(self):
        plus_zero = StateVector(2, np.array([1, 0, 1, 0]) / np.sqrt(2))
        net = with_all_pairs(Network(2, path(2), [plus_zero]))
        prob = net.local_measure(1, "d1", HAD, 0)
        assert abs(prob - 1.0) < 1e-12
        # f1 r2 d2
        np.testing.assert_allclose(net.state.amplitudes, np.kron(BELL, ZERO), atol=1e-12)

    def test_impossible_outcome_raises_and_leaves_the_register(self):
        net = Network(2, path(2), [basis_state(2, "00")])
        before = net.register.copy()
        with pytest.raises(ImpossibleBranchError):
            net.local_measure(1, "d1", COMP, 1)
        np.testing.assert_array_equal(net.register, before)
        assert net.label_at(0) == "d1" and not net.impossible.any()

    def test_copied_bell_half_measures_unbiased_for_any_input(self, rng):
        # once a data qubit has been CNOT-copied onto a Bell half, measuring
        # that half is a coin flip whatever the input state
        for _ in range(10):
            psi = random_state(2, rng)
            for outcome in (0, 1):
                net = Network(2, path(2), [psi])
                net.local_apply(1, CX, ["d1", "f1"])
                prob = net.local_measure(1, "f1", COMP, outcome)
                assert abs(prob - 0.5) < 1e-10


class TestBatchedMeasurement:
    """A batch's split rows against forced measurements of every qubit."""

    @pytest.mark.parametrize("basis", [COMP, HAD])
    def test_split_rows_sum_to_their_parent_row(self, basis, rng):
        inputs = [random_state(3, rng) for _ in range(3)]
        for distribution in DISTRIBUTIONS:
            for q in range(7):
                net = with_all_pairs(Network(3, distribution(3), inputs))
                label = net.label_at(q)
                net.local_measure(_owner(net, label), label, basis, Unforced(0))
                probabilities = net.probabilities
                assert probabilities.shape == (6,)
                assert net.register.shape == (6, 1 << 6)
                np.testing.assert_allclose(
                    probabilities[0::2] + probabilities[1::2], 1.0, rtol=0, atol=1e-12
                )
                assert not net.impossible.any()

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    def test_split_rows_are_the_forced_outcomes(self, distribution, rng):
        inputs = [random_state(3, rng) for _ in range(2)]
        for q in range(7):
            for basis in (COMP, HAD):
                batch = with_all_pairs(Network(3, distribution(3), inputs))
                label = batch.label_at(q)
                batch.local_measure(_owner(batch, label), label, basis, Unforced(0))
                for i, psi in enumerate(inputs):
                    for outcome in (0, 1):
                        net = with_all_pairs(Network(3, distribution(3), [psi]))
                        prob = net.local_measure(_owner(net, label), label, basis, outcome)
                        row = 2 * i + outcome
                        assert abs(batch.probabilities[row] - prob) < 1e-12
                        np.testing.assert_allclose(
                            batch.register[row] / np.sqrt(prob),
                            net.state.amplitudes,
                            rtol=0,
                            atol=1e-12,
                        )

    @pytest.mark.parametrize("basis", [COMP, HAD])
    def test_an_unforced_split_of_qubit_0_copies_nothing(self, basis, rng):
        net = Network(3, path(3), [random_state(3, rng) for _ in range(2)])
        net.local_apply(1, CX, ["d1", "f1"])
        assert net.label_at(0) == "f1"
        before = net.register
        net.local_measure(1, "f1", basis, Unforced(0))
        assert net.register.shape == (4, 1 << 4)
        assert np.shares_memory(before, net.register)

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    def test_batch_rows_are_the_single_registers(self, distribution, rng):
        inputs = [random_state(4, rng) for _ in range(3)]
        batch = with_all_pairs(Network(4, distribution(4), inputs))
        assert batch.state is None
        for row, psi in zip(batch.register, inputs):
            register = with_all_pairs(Network(4, distribution(4), [psi])).state
            np.testing.assert_allclose(row, register.amplitudes, rtol=0, atol=1e-12)


class TestForcedRows:
    """A forced outcome keeps that half of every row, unnormalized."""

    def test_forced_rows_keep_their_branch_probability(self, rng):
        inputs = [random_state(3, rng) for _ in range(3)]
        for distribution in DISTRIBUTIONS:
            batch = with_all_pairs(Network(3, distribution(3), inputs))
            split = with_all_pairs(Network(3, distribution(3), inputs))
            for k, (q, basis) in enumerate(((1, HAD), (4, COMP))):
                label = batch.label_at(q)
                assert batch.local_measure(_owner(batch, label), label, basis, 1) is None
                split.local_measure(_owner(split, label), label, basis, Unforced(k))
            kept = split.register.reshape(3, 2, 2, -1)[:, 1, 1]
            np.testing.assert_allclose(batch.register, kept, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                batch.probabilities, (abs(kept) ** 2).sum(axis=1), rtol=0, atol=1e-12
            )
            assert batch.state is None and not batch.impossible.any()

    def test_an_outcome_some_rows_cannot_take_is_flagged(self):
        batch = Network(2, path(2), [basis_state(2, "00"), basis_state(2, "10")])
        batch.local_measure(1, "d1", COMP, 1)
        assert batch.impossible.tolist() == [True, False]
        np.testing.assert_allclose(batch.probabilities, [0.0, 1.0], atol=1e-12)
        batch.local_measure(1, "f1", COMP, Unforced(0))
        assert batch.impossible.tolist() == [True, True, False, False]

    def test_an_outcome_no_row_can_take_raises_and_leaves_the_register(self):
        batch = Network(2, path(2), [basis_state(2, "00"), basis_state(2, "01")])
        before = batch.register.copy()
        with pytest.raises(ImpossibleBranchError):
            batch.local_measure(1, "d1", COMP, 1)
        np.testing.assert_array_equal(batch.register, before)
        assert batch.label_at(0) == "d1" and not batch.impossible.any()

    @pytest.mark.parametrize("outcome", [0, Unforced(0)], ids=["forced", "unforced"])
    def test_a_batch_measures_as_its_inputs_do_alone(self, outcome, rng):
        inputs = [random_state(2, rng) for _ in range(3)]
        batch = Network(2, path(2), inputs)
        alone = [Network(2, path(2), [psi]) for psi in inputs]
        for network in (batch, *alone):
            np.testing.assert_allclose(network.probabilities, 1.0, rtol=0, atol=1e-12)
            network.local_apply(1, CX, ["d1", "f1"])
            network.local_measure(1, "d1", HAD, outcome)
        np.testing.assert_array_equal(batch.register, np.concatenate([a.register for a in alone]))
        np.testing.assert_array_equal(
            batch.probabilities, np.concatenate([a.probabilities for a in alone])
        )

    def test_the_state_is_the_normalized_row(self):
        net = Network(2, path(2), [basis_state(2, "00")])
        net.local_measure(1, "f1", HAD, 1)
        assert abs(net.probabilities[0] - 0.5) < 1e-12
        # r2 d1 d2
        np.testing.assert_allclose(
            net.state.amplitudes, np.kron(MINUS, np.kron(ZERO, ZERO)), atol=1e-12
        )


class TestDiscard:
    """A measured qubit leaves the register and later indices shift down."""

    def test_certain_outcome_leaves_the_rest_unchanged(self):
        # series n=2 on |01>: measuring d2 gives 1 with certainty, leaving f1 r2 d1
        net = with_all_pairs(Network(2, path(2), [basis_state(2, "01")]))
        prob = net.local_measure(2, "d2", COMP, 1)
        assert abs(prob - 1.0) < 1e-12
        np.testing.assert_allclose(net.state.amplitudes, np.kron(BELL, ZERO), atol=1e-12)

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    def test_later_indices_shift_down_by_one(self, distribution):
        psi = random_state(4, 12)
        for q in range(10):
            net = with_all_pairs(Network(4, distribution(4), [psi]))
            before = [net.label_at(i) for i in range(10)]
            net.local_measure(_owner(net, before[q]), before[q], COMP, 0)
            after = [net.label_at(i) for i in range(9)]
            assert after == before[:q] + before[q + 1:]
            for i, label in enumerate(after):
                assert net.qubit_index(label) == i
            with pytest.raises(KeyError):
                net.qubit_index(before[q])

    def test_measuring_down_to_one_qubit_stays_normalized(self, rng):
        for _ in range(10):
            distribution = DISTRIBUTIONS[int(rng.integers(2))]
            n = int(rng.integers(2, 5))
            net = with_all_pairs(Network(n, distribution(n), [random_state(n, rng)]))
            for size in range(3 * n - 2, 1, -1):
                q = int(rng.integers(size))
                basis, born = (
                    (COMP, computational_projector_probability)
                    if rng.integers(2) == 0
                    else (HAD, hadamard_projector_probability)
                )
                # the likelier outcome: a Bell partner's outcome can be certain
                outcome = 0 if born(net.state, q, 0) >= 0.5 else 1
                label = net.label_at(q)
                net.local_measure(_owner(net, label), label, basis, outcome)
                state = net.state
                assert state.num_qubits == size - 1
                assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1.0) < 1e-12
                held = [net.held_qubits(p) for p in _parties(net)]
                assert set().union(*held) == set(_live(net))
                assert sum(len(h) for h in held) == size - 1

    def test_measurements_by_different_parties_commute(self, rng):
        for _ in range(10):
            distribution = DISTRIBUTIONS[int(rng.integers(2))]
            psi = random_state(3, rng)
            net = with_all_pairs(Network(3, distribution(3), [psi]))
            a, b = rng.choice(7, size=2, replace=False)
            label_a, label_b = net.label_at(a), net.label_at(b)
            if _owner(net, label_a) == _owner(net, label_b):
                continue
            basis_a = COMP if rng.integers(2) == 0 else HAD
            basis_b = COMP if rng.integers(2) == 0 else HAD
            results = []
            for order in ((label_a, basis_a), (label_b, basis_b)), (
                (label_b, basis_b),
                (label_a, basis_a),
            ):
                net = with_all_pairs(Network(3, distribution(3), [psi]))
                joint = 1.0
                for label, basis in order:
                    joint *= net.local_measure(_owner(net, label), label, basis, 0)
                results.append((joint, net.state.amplitudes))
            (p_ab, state_ab), (p_ba, state_ba) = results
            assert abs(p_ab - p_ba) < 1e-12
            np.testing.assert_allclose(state_ab, state_ba, rtol=0, atol=1e-12)


class TestClassicalBus:
    def test_single_send_costs_one_cbit(self):
        net = Network(3, star(3), [random_state(3, 9)])
        net.send_cbit(1, 2, 1, "m")
        assert net.ledger.cbits == 1

    def test_broadcast_costs_per_recipient(self):
        net = Network(3, path(3), [random_state(3, 9)])
        net.send_cbit(3, 1, 0, "h")
        net.send_cbit(3, 2, 0, "h")
        assert net.ledger.cbits == 2

    def test_recipient_reads_nonrecipient_cannot(self):
        net = Network(3, star(3), [random_state(3, 9)])
        net.send_cbit(1, 3, 1, "m")
        assert net.read_cbit(3, "m") == 1
        with pytest.raises(MissingMessage):
            net.read_cbit(2, "m")

    def test_read_before_send_is_a_protocol_bug(self):
        net = Network(3, star(3), [random_state(3, 9)])
        with pytest.raises(MissingMessage):
            net.read_cbit(2, "never-sent")

    def test_read_does_not_consume(self):
        net = Network(3, star(3), [random_state(3, 9)])
        net.send_cbit(1, 3, 1, "m")
        assert net.read_cbit(3, "m") == 1
        assert net.read_cbit(3, "m") == 1

    def test_self_send_rejected(self):
        net = Network(3, star(3), [random_state(3, 9)])
        with pytest.raises(ValueError):
            net.send_cbit(2, 2, 0, "m")

    @pytest.mark.parametrize("bit", [2, -1, True, 1.0, 1.5, "1", None, np.float64(1)])
    def test_non_binary_bit_rejected(self, bit):
        net = Network(3, star(3), [random_state(3, 9)])
        with pytest.raises(ValueError, match="integer 0 or 1"):
            net.send_cbit(1, 2, bit, "m")
        assert net.ledger.cbits == 0
        with pytest.raises(MissingMessage):
            net.read_cbit(2, "m")

    def test_numpy_integer_bits_are_bits(self):
        net = Network(3, star(3), [random_state(3, 9)])
        net.send_cbit(1, 2, np.int64(1), "m")
        assert net.read_cbit(2, "m") == 1 and net.ledger.cbits == 1

    def test_a_repeated_tag_reads_the_first_bit_and_costs_both(self):
        net = Network(3, star(3), [random_state(3, 9)])
        net.send_cbit(1, 3, 0, "m")
        net.send_cbit(2, 3, 1, "m")
        assert net.read_cbit(3, "m") == 0
        assert net.ledger.cbits == 2

    @pytest.mark.parametrize(
        "sender, recipient, bit",
        [(1, 3, 2), (1, 9, 0), (9, 3, 0), (3, 3, 0), (1, 3, Unforced(0))],
        ids=["bad-bit", "unknown-recipient", "unknown-sender", "self-send", "unmeasured"],
    )
    def test_a_refused_send_delivers_nothing_and_costs_nothing(self, sender, recipient, bit):
        net = Network(3, star(3), [random_state(3, 9)])
        with pytest.raises(ValueError):
            net.send_cbit(sender, recipient, bit, "m")
        assert net.ledger.cbits == 0
        for party in _parties(net):
            with pytest.raises(MissingMessage):
                net.read_cbit(party, "m")

    def test_cbits_monotone_and_ebits_frozen(self):
        net = Network(4, path(4), [random_state(4, 10)])
        seen = [net.ledger.cbits]
        for step, (src, dst) in enumerate([(1, 2), (2, 3), (3, 4), (4, 1)]):
            net.send_cbit(src, dst, step % 2, f"t{step}")
            seen.append(net.ledger.cbits)
            assert net.ledger.ebits == 3
        assert seen == sorted(seen)


# Operations on a series n=2 network that must be refused, each with the
# error it raises; "f1" (party 1) and "r2" (party 2) are a Bell pair's halves.
REFUSED = [
    pytest.param(lambda net: net.local_apply(1, X, ["r2"]), LocalityViolation, id="foreign-half"),
    pytest.param(
        lambda net: net.local_apply(1, CX, ["d1", "d2"]), LocalityViolation, id="foreign"
    ),
    pytest.param(lambda net: net.local_apply(1, CX, ["f1"]), ValueError, id="arity"),
    pytest.param(lambda net: net.local_apply(1, CX, ["f1", "f1"]), ValueError, id="duplicate"),
    pytest.param(lambda net: net.local_apply(1, X, ["q9"]), LocalityViolation, id="no-label"),
    pytest.param(
        lambda net: net.apply_if(1, X, ["r2"], ["r2"]), LocalityViolation, id="if-foreign"
    ),
    pytest.param(lambda net: net.apply_if(2, X, ["r2"], ["f1"]), MissingMessage, id="if-missing"),
    pytest.param(
        lambda net: net.local_measure(2, "f1", COMP, 0), LocalityViolation, id="m-foreign"
    ),
    pytest.param(
        lambda net: net.local_measure(1, "q9", HAD, 0), LocalityViolation, id="m-no-label"
    ),
    pytest.param(lambda net: net.local_measure(1, "f1", COMP, 2), ValueError, id="m-bad-outcome"),
]


class TestRefusals:
    """A refused operation changes nothing: not the register, not the live
    labels and not the ledger, even when it names a Bell half not yet in use."""

    @pytest.mark.parametrize("op, error", REFUSED)
    def test_a_refused_operation_leaves_the_network(self, op, error):
        for net in (
            Network(2, path(2), [random_state(2, 13)]),
            with_all_pairs(Network(2, path(2), [random_state(2, 13)])),
        ):
            net.send_cbit(2, 1, 1, "r2")
            before = (net.register.copy(), _live(net), net.ledger.copy())
            with pytest.raises(error):
                op(net)
            np.testing.assert_array_equal(net.register, before[0])
            assert _live(net) == before[1]
            assert net.ledger == before[2]

    @pytest.mark.parametrize("conditional", [False, True], ids=["local_apply", "apply_if"])
    def test_a_gate_that_is_not_i_plus_b_is_refused(self, conditional):
        # Party 2 of a series n = 3 batch, after an open outcome: r2 is live
        # and f2 is pending.
        swap = Gate(2, np.eye(4)[[0, 2, 1, 3]], "SWAP")
        net = Network(3, path(3), [random_state(3, 14), random_state(3, 15)])
        net.local_measure(1, "f1", HAD, Unforced(0))
        net.send_cbit(1, 2, Unforced(0), "f1")

        def snapshot():
            return (_live(net), set(net._pending), net.ledger.copy(), list(net._split))

        register, before = net.register.copy(), snapshot()
        for labels in (["r2", "d2"], ["d2", "f2"]):
            with pytest.raises(ValueError, match="I ⊕ b"):
                if conditional:
                    net.apply_if(2, swap, labels, ["f1"])
                else:
                    net.local_apply(2, swap, labels)
            np.testing.assert_array_equal(net.register, register)
            assert snapshot() == before

    def test_a_measured_label_is_held_by_no_party(self):
        net = Network(2, path(2), [random_state(2, 13)])
        net.local_measure(1, "f1", COMP, 0)
        before = net.register.copy()
        for party in _parties(net):
            with pytest.raises(LocalityViolation):
                net.local_apply(party, pauli_x(), ["f1"])
            with pytest.raises(LocalityViolation):
                net.local_measure(party, "f1", COMP, 0)
        np.testing.assert_array_equal(net.register, before)
        assert "f1" not in net.held_qubits(1)


class TestIndependentNetworks:
    def test_networks_from_one_input_share_no_state(self):
        psi = random_state(3, 11)
        before = psi.amplitudes.copy()
        net = with_all_pairs(Network(3, path(3), [psi]))
        register = net.register.copy()
        other = Network(3, path(3), [psi])
        other.local_apply(1, CX, ["d1", "f1"])
        other.local_measure(1, "f1", COMP, 0)
        other.send_cbit(1, 2, 0, "f1")
        assert net.state.num_qubits == 7
        assert net.ledger.cbits == 0
        np.testing.assert_array_equal(net.register, register)
        with pytest.raises(MissingMessage):
            net.read_cbit(2, "f1")
        assert net.held_qubits(1) == {"d1", "f1"}
        np.testing.assert_array_equal(psi.amplitudes, before)

    def test_register_view_is_read_only(self):
        net = Network(3, star(3), [random_state(3, 11)])
        state = net.state
        with pytest.raises(ValueError):
            net.register[0, 0] = 1.0
        with pytest.raises(ValueError):
            net.state.amplitudes[0] = 1.0
        np.testing.assert_array_equal(net.state.amplitudes, state.amplitudes)


# Every gate kind the protocols use and a Haar controlled-payload, each of
# the form I ⊕ b: the only gates a network applies.
KERNEL_GATES = {
    "X": pauli_x(),
    "Z": pauli_z(),
    "CX": controlled(pauli_x(), 1),
    "CZ": controlled(pauli_z(), 1),
    "CCX": controlled(pauli_x(), 2),
    "CH": controlled(hadamard(), 1),
    "CU": controlled(random_unitary(17), 1),
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
        num_qubits, inputs = 5, 2
        u0, u1, u2 = Unforced(0), Unforced(1), Unforced(2)
        three = [0, 1, 2]
        cases = [
            (three, [u1]),
            (three, [u2]),
            (three, [u0, u2]),
            (three, [u0, u1, u2]),
            (three, [u1, 0]),
            (three, [u1, 1]),
            (three, [1, u0, u2]),
            (three, [1]),
            (three, [0]),
            # a bit named twice cancels
            (three, [u1, u1]),
            (three, [u0, u1, u0]),
            (three, [1, u2, u2]),
            ([0, 1, 2, 3, 4], [Unforced(4), u0, Unforced(3), 1, u2, u1]),
            # written indices not yet all measured, or taken out of written
            # order: a bit's axis is its place in the order taken
            ([1, 4, 6], [Unforced(4)]),
            ([1, 4, 6], [Unforced(6), u1, 1]),
            ([2, 5], [Unforced(5), u2, Unforced(5)]),
            ([6, 1, 4], [Unforced(6)]),
            ([4, 0, 2], [u0, u2, 1]),
        ]
        for split, bits in cases:
            rows = inputs << len(split)
            index = np.arange(rows)
            parity = np.zeros(rows, dtype=np.int64)
            for bit in bits:
                if isinstance(bit, Unforced):
                    parity ^= (index >> (len(split) - 1 - split.index(bit.index))) & 1
                else:
                    parity ^= bit
            fire = parity.astype(bool)
            for targets in ([4, 0, 2], [1, 3, 4], [3, 2, 0]):
                targets = targets[-gate.arity :]
                amps = _random_rows(rng, rows, num_qubits)
                expected = amps.copy()
                expected[fire] = _apply_matrix(amps[fire], num_qubits, gate.matrix, targets)
                got = _apply(amps.copy(), num_qubits, gate, targets, split, bits)
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
                np.testing.assert_array_equal(got[~fire], amps[~fire])

    def test_controlled_gates_act_in_place(self, rng):
        amps = _random_rows(rng, 4, 5)
        for gate in KERNEL_GATES.values():
            assert _apply(amps, 5, gate, list(range(gate.arity))) is amps

"""The one-pass batched enumeration against the forced-branch path.

Every branch of a batched run must match ``run_protocol`` forced on that
branch alone on a fresh network: probability and fidelity within 1e-12,
outcomes in ``itertools.product`` order, the same ledger and the same
impossibility flag.
"""

import itertools
import math

import numpy as np
import pytest

from telegate import (
    ImpossibleBranchError,
    LocalityViolation,
    MeasurementBasis,
    MissingMessage,
    ProtocolFamily,
    ProtocolSpec,
    basis_state,
    build_network,
    enumerate_branches,
    fidelity_up_to_phase,
    oracle_effect,
    pauli_x,
    random_involution,
    random_state,
    random_unitary,
    run_protocol,
    topology_for,
    verify_inputs,
)
from telegate import verify
from telegate.network import TopologyKind, Unforced, build_batch
from telegate.protocols import _checked_ops, _interpret

PARALLEL = ProtocolFamily.PARALLEL_SIMULTANEOUS_CU
SERIES_CH = ProtocolFamily.SERIES_SIMULTANEOUS_CH
SERIES_NCU = ProtocolFamily.SERIES_N_CONTROLLED_U
ALL_FAMILIES = [PARALLEL, SERIES_CH, SERIES_NCU]

ATOL = 1e-12


def _forced(spec, state, bits, enforce_involution=True):
    """(probability, fidelity, impossible, (ebits, cbits), final) of one forced branch."""
    net, _ = build_network(topology_for(spec.family), spec.n, state)
    try:
        final = run_protocol(spec, net, bits, enforce_involution=enforce_involution)
    except ImpossibleBranchError:
        final = None
    probability = math.prod(ev["probability"] for ev in net.trace if ev["type"] == "measure")
    fidelity = 0.0 if final is None else fidelity_up_to_phase(final, oracle_effect(spec, state))
    return probability, fidelity, final is None, (net.ledger.ebits, net.ledger.cbits), final


def _inputs(n, seed):
    rng = np.random.default_rng(seed)
    bits = format(int(rng.integers(1 << n)), f"0{n}b")
    return [basis_state(n, bits), random_state(n, rng)]


def _assert_matches_forced(spec, inputs, enforce_involution=True):
    assignments = list(itertools.product((0, 1), repeat=spec.num_measurements))
    batch = build_batch(topology_for(spec.family), spec.n, inputs)
    run_protocol(spec, batch, None, enforce_involution=enforce_involution)
    rows = batch.register.reshape(len(inputs), len(assignments), -1)
    row_probabilities = batch.probabilities.reshape(len(inputs), len(assignments))
    for m, state in enumerate(inputs):
        branches = enumerate_branches(spec, state, enforce_involution=enforce_involution)
        assert [b.outcomes for b in branches] == assignments
        for k, (b, bits) in enumerate(zip(branches, assignments)):
            probability, fidelity, impossible, ledger, final = _forced(
                spec, state, bits, enforce_involution
            )
            assert abs(b.probability - probability) <= ATOL
            assert abs(b.fidelity - fidelity) <= ATOL
            assert b.impossible == impossible
            assert (b.ledger.ebits, b.ledger.cbits) == ledger
            # the same row read straight from a batch holding every input
            assert abs(row_probabilities[m, k] - probability) <= ATOL
            overlap = abs(np.vdot(final.amplitudes, rows[m, k])) ** 2 / probability
            assert overlap >= 1 - ATOL


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_branch_matches_its_forced_run(family, n):
    payload = random_involution(40 + n) if family is SERIES_CH else random_unitary(40 + n)
    _assert_matches_forced(ProtocolSpec(family, n, payload), _inputs(n, 50 + n))


@pytest.mark.parametrize("n", [3, 4])
def test_non_involutory_series_ch_matches_its_forced_run(n):
    spec = ProtocolSpec(SERIES_CH, n, random_unitary(60 + n))
    _assert_matches_forced(spec, _inputs(n, 70 + n), enforce_involution=False)
    branches = enumerate_branches(spec, random_state(n, 80), enforce_involution=False)
    assert min(b.fidelity for b in branches) < 1 - 1e-3


def test_impossible_outcome_is_flagged_like_the_forced_run():
    # d1 of |000> is 0 for certain, so outcome 1 is impossible
    state = basis_state(3, "000")
    net, _ = build_network(TopologyKind.SERIES, 3, state)
    with pytest.raises(ImpossibleBranchError):
        net.local_measure(1, net.qubit_index("d1"), MeasurementBasis.COMPUTATIONAL, 1)
    batch = build_batch(TopologyKind.SERIES, 3, [state])
    batch.local_measure(1, batch.qubit_index("d1"), MeasurementBasis.COMPUTATIONAL, Unforced(0))
    assert batch.impossible.tolist() == [False, True]
    np.testing.assert_allclose(batch.probabilities, [1.0, 0.0], atol=ATOL)


def test_verify_inputs_is_the_same_across_pass_boundaries(monkeypatch):
    spec = ProtocolSpec(SERIES_NCU, 3, random_unitary(90))
    inputs = [random_state(3, 90 + k) for k in range(5)]
    whole = verify_inputs(spec, inputs)
    monkeypatch.setattr(verify, "AMPLITUDE_BUDGET", 2 << 7)  # two 7-qubit inputs per pass
    split = verify_inputs(spec, inputs)
    assert split.min_fidelity == pytest.approx(whole.min_fidelity, abs=ATOL)
    assert split.max_probability_deviation == pytest.approx(
        whole.max_probability_deviation, abs=ATOL
    )
    assert (split.cost_ok, split.probability_sums_ok, split.trials) == (True, True, 5)
    assert [b.outcomes for b in split.branches] == [b.outcomes for b in whole.branches]


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_a_forced_first_outcome_keeps_that_half_of_the_unforced_run(family):
    payload = random_involution(95) if family is SERIES_CH else random_unitary(95)
    spec = ProtocolSpec(family, 3, payload)
    ops = _checked_ops(spec, True)
    inputs = _inputs(3, 96)
    runs = []
    for branch in ([1, Unforced(0), Unforced(1), Unforced(2)], [Unforced(k) for k in range(4)]):
        net = build_batch(topology_for(family), 3, inputs)
        _interpret(ops, net, branch)
        runs.append(net)
    mixed, full = runs

    def first_outcome_one(rows):
        return rows.reshape((len(inputs), 2, 8) + rows.shape[1:])[:, 1].reshape(
            (-1,) + rows.shape[1:]
        )

    np.testing.assert_allclose(mixed.register, first_outcome_one(full.register), rtol=0, atol=ATOL)
    np.testing.assert_allclose(
        mixed.probabilities, first_outcome_one(full.probabilities), rtol=0, atol=ATOL
    )
    assert mixed.impossible.tolist() == first_outcome_one(full.impossible).tolist()
    assert (mixed.ledger.ebits, mixed.ledger.cbits) == (full.ledger.ebits, full.ledger.cbits)


class TestBatchChecks:
    def test_apply_if_on_a_missing_tag_raises(self):
        net = build_batch(TopologyKind.PARALLEL, 3, [random_state(3, 1)])
        with pytest.raises(MissingMessage):
            net.apply_if(3, pauli_x(), [net.qubit_index("t1")], ["e1"])

    def test_apply_if_on_a_foreign_qubit_raises(self):
        net = build_batch(TopologyKind.PARALLEL, 3, [random_state(3, 1)])
        net.local_measure(1, net.qubit_index("e1"), MeasurementBasis.COMPUTATIONAL, Unforced(0))
        net.send_cbit(1, 3, Unforced(0), "e1")
        with pytest.raises(LocalityViolation):
            net.apply_if(3, pauli_x(), [net.qubit_index("d1")], ["e1"])

    def test_unforced_outcomes_come_in_order(self):
        net = build_batch(TopologyKind.PARALLEL, 3, [random_state(3, 2)])
        with pytest.raises(ValueError):
            net.local_measure(1, net.qubit_index("e1"), MeasurementBasis.COMPUTATIONAL, Unforced(1))
        with pytest.raises(ValueError):
            net.send_cbit(1, 3, Unforced(0), "e1")

    def test_an_unforced_bit_has_no_truth_value(self):
        with pytest.raises(TypeError):
            bool(Unforced(0))

    def test_a_forced_network_refuses_unforced_outcomes(self):
        net, _ = build_network(TopologyKind.PARALLEL, 3, random_state(3, 3))
        with pytest.raises(ValueError):
            net.local_measure(1, net.qubit_index("e1"), MeasurementBasis.COMPUTATIONAL, Unforced(0))

"""The verifier's batch: ops in a derived order, Bell pairs tensored in at first use.

``verify._force_all`` runs in an order derived from the op list, on a network
that starts from the data qubits.  Its probabilities, fidelities,
impossibility flags and ledger must equal those of a run in written order
on the spec's own network, and its register must stay small until the pairs it needs
are in.
"""

import itertools

import numpy as np
import pytest

from telegate import (
    MeasurementBasis,
    ProtocolFamily,
    ProtocolSpec,
    basis_state,
    brute_force_oracle,
    controlled,
    oracle_effect,
    pauli_x,
    random_involution,
    random_state,
    random_unitary,
    run_protocol,
)
from telegate import verify
from telegate.network import Network, Unforced
from telegate.protocols import LocalGate, Measure, _batch_order, _interpret
from reference_states import star

PARALLEL = ProtocolFamily.PARALLEL_SIMULTANEOUS_CU
SERIES_CH = ProtocolFamily.SERIES_SIMULTANEOUS_CH
SERIES_NCU = ProtocolFamily.SERIES_N_CONTROLLED_U
ALL_FAMILIES = [PARALLEL, SERIES_CH, SERIES_NCU]
CX = controlled(pauli_x(), 1)

ATOL = 1e-12


def _written_order_run(spec, inputs):
    """``_force_all``'s arrays from a batch run in written order."""
    net = spec.network(inputs)
    _interpret(spec.ops, net, [Unforced(k) for k in range(spec.num_measurements)])
    shape = (len(inputs), 1 << spec.num_measurements)
    probabilities = net.probabilities.reshape(shape)
    final = net.register.reshape(shape + (-1,))
    targets = np.stack([oracle_effect(spec, state).amplitudes for state in inputs])
    overlaps = np.abs(np.einsum("mi,mbi->mb", targets.conj(), final)) ** 2
    fidelities = np.minimum(overlaps / probabilities, 1.0)
    return probabilities, fidelities, net.impossible.reshape(shape), net.ledger


def _assert_same_as_written_order(spec, inputs, enforce_involution=True):
    derived = verify._force_all(spec, inputs, enforce_involution)
    written = _written_order_run(spec, inputs)
    for got, expected in zip(derived[:3], written[:3]):
        assert got.shape == expected.shape
        np.testing.assert_allclose(got, expected, rtol=0, atol=ATOL)
    assert (derived[3].ebits, derived[3].cbits) == (written[3].ebits, written[3].cbits)
    return derived


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_derived_order_matches_the_written_order_run(family, n):
    rng = np.random.default_rng(300 + n)
    payload = random_involution(n) if family is SERIES_CH else random_unitary(n)
    bits = format(int(rng.integers(1 << n)), f"0{n}b")
    inputs = [basis_state(n, bits), random_state(n, rng)]
    _assert_same_as_written_order(ProtocolSpec(family, n, payload), inputs)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_non_involutory_series_ch_matches_the_written_order_run(n):
    spec = ProtocolSpec(SERIES_CH, n, random_unitary(310 + n))
    inputs = [basis_state(n, "1" * n), random_state(n, 320 + n)]
    _, fidelities, _, _ = _assert_same_as_written_order(spec, inputs, enforce_involution=False)
    assert fidelities.min() < 1 - 1e-3


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("n", range(2, 9))
def test_batch_order_is_a_topological_order(family, n):
    ops = ProtocolSpec(family, n, random_unitary(0)).ops
    order, written = _batch_order(family, n)
    assert sorted(order) == list(range(len(ops)))
    position = {j: p for p, j in enumerate(order)}
    measured_at = {op.qubit: j for j, op in enumerate(ops) if isinstance(op, Measure)}
    for j, op in enumerate(ops):
        touched = {op.qubit} if isinstance(op, Measure) else set(op.qubits)
        for i in range(j):
            earlier = ops[i]
            shared = {earlier.qubit} if isinstance(earlier, Measure) else set(earlier.qubits)
            if touched & shared:
                assert position[i] < position[j], (ops[i], op)
        if isinstance(op, LocalGate):
            for tag in op.tags:
                assert position[measured_at[tag]] < position[j], (tag, op)
    # each run-order measurement carries its written index
    measures = [j for j, op in enumerate(ops) if isinstance(op, Measure)]
    run = [j for j in order if isinstance(ops[j], Measure)]
    assert [measures[w] for w in written] == run


def test_parallel_cu_register_stays_small_until_the_second_pair(monkeypatch):
    n, m = 5, 3
    seen = []

    def recording(method):
        def wrapper(self, *args, **kwargs):
            seen.append((self.register.size, bool({"e2", "t2"} & set(self._labels))))
            return method(self, *args, **kwargs)

        return wrapper

    for name in ("local_apply", "apply_if", "local_measure"):
        monkeypatch.setattr(Network, name, recording(getattr(Network, name)))
    spec = ProtocolSpec(PARALLEL, n, random_unitary(330))
    verify._force_all(spec, [random_state(n, 331 + k) for k in range(m)], True)
    first = next(k for k, (_, second_pair_in) in enumerate(seen) if second_pair_in)
    # pair 1's six ops run first, each on at most m * 2^(n+2) amplitudes
    assert first >= 6
    assert max(size for size, _ in seen[:first]) <= m << (n + 2)
    assert max(size for size, _ in seen) == m << (3 * n - 2)


def test_series_runs_in_written_order_hold_at_most_2n_qubits(monkeypatch):
    # Each relay's pair arrives as the previous one is measured, so a forced
    # series run never holds more than the n data qubits and n live halves;
    # parallel-cu's CX ops all come first and reach 3n - 2.
    n = 8
    seen = []

    def recording(method):
        def wrapper(self, *args, **kwargs):
            seen.append(len(self._labels))
            return method(self, *args, **kwargs)

        return wrapper

    for name in ("local_apply", "apply_if", "local_measure"):
        monkeypatch.setattr(Network, name, recording(getattr(Network, name)))
    for family in (SERIES_CH, SERIES_NCU):
        seen.clear()
        payload = random_involution(370) if family is SERIES_CH else random_unitary(370)
        spec = ProtocolSpec(family, n, payload)
        net = spec.network([random_state(n, 371)])
        run_protocol(spec, net, [0] * spec.num_measurements)
        assert seen and max(seen) <= 2 * n, family


def test_outcome_bits_taken_out_of_order_land_in_written_order():
    # Three measurements whose split rows all differ, one of them impossible
    # on the basis input; taken in written order, and in the order 2, 0, 1,
    # each outcome named by its written index.
    comp, had = MeasurementBasis.COMPUTATIONAL, MeasurementBasis.HADAMARD
    written = [(1, "d1", comp), (1, "e1", had), (3, "t2", comp)]
    inputs = [basis_state(3, "101"), random_state(3, 340)]
    nets = []
    for order in ([0, 1, 2], [2, 0, 1]):
        net = Network(3, star(3), inputs)
        net.local_apply(1, CX, ["d1", "e1"])
        for w in order:
            owner, label, basis = written[w]
            net.local_measure(owner, label, basis, Unforced(w))
        nets.append(net)
    in_order, out_of_order = nets
    assert in_order.impossible.any()
    np.testing.assert_array_equal(out_of_order.impossible, in_order.impossible)
    np.testing.assert_allclose(
        out_of_order.probabilities, in_order.probabilities, rtol=0, atol=ATOL
    )
    np.testing.assert_allclose(out_of_order.register, in_order.register, rtol=0, atol=ATOL)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_every_n7_row_is_the_brute_force_oracle_at_uniform_probability(family):
    # a 19-qubit network with 4096 branches per input, past the digests' n <= 6
    n = 7
    payload = random_involution(380) if family is SERIES_CH else random_unitary(380)
    spec = ProtocolSpec(family, n, payload)
    state = random_state(n, 381)
    net = spec.network([state])
    run_protocol(spec, net, None)
    probabilities = net.probabilities
    assert probabilities.shape == (4 ** (n - 1),)
    np.testing.assert_allclose(probabilities, 4.0 ** -(n - 1), rtol=1e-9, atol=0)
    target = brute_force_oracle(spec, state).amplitudes
    fidelities = np.abs(net.register @ target.conj()) ** 2 / probabilities
    assert fidelities.min() >= 1 - 1e-10


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("n", [3, 4])
def test_a_correction_after_an_unforced_run_reads_the_written_order_bit(family, n):
    # The batch's outcome bits are in written order, so a correction on any
    # delivered bit acts on the rows of that measurement, as it does after a
    # run forced on each branch.
    payload = random_involution(350 + n) if family is SERIES_CH else random_unitary(350 + n)
    spec = ProtocolSpec(family, n, payload)
    state = random_state(n, 360 + n)
    batch = spec.network([state])
    run_protocol(spec, batch, None)
    branches = list(itertools.product((0, 1), repeat=spec.num_measurements))
    forced = []
    for branch in branches:
        net = spec.network([state])
        run_protocol(spec, net, list(branch))
        forced.append(net)
    x = pauli_x()
    # every (recipient, tag) the spec delivers; apply_if reads each through
    # read_cbit, so one the run did not deliver raises MissingMessage
    received = [(r, op.qubit) for op in spec.ops if isinstance(op, Measure) for r in op.recipients]
    assert len(received) == verify.expected_costs(family, n)[1]
    for party, tag in received:
        for net in [batch, *forced]:
            net.apply_if(party, x, [f"d{party}"], [tag])
        rows = batch.register.reshape(len(branches), -1)
        for branch, row, net in zip(branches, rows, forced):
            np.testing.assert_allclose(
                row, net.register[0], rtol=0, atol=ATOL, err_msg=f"{tag} {branch}"
            )
        # X undoes itself, so every network is back as the run left it
        for net in [batch, *forced]:
            net.apply_if(party, x, [f"d{party}"], [tag])

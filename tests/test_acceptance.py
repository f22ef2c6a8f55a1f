"""Acceptance suite: every criterion enforced at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and then
asserts, so the suite doubles as a human-readable scorecard.  Tolerances:
fidelity 1e-10, branch-probability uniformity 1e-9, oracle cross-check 1e-12,
cost formulas exact integer equality.
"""

import itertools

import numpy as np

from telegate import (
    LocalityViolation,
    Network,
    ProtocolFamily,
    ProtocolSpec,
    StateVector,
    basis_state,
    brute_force_oracle,
    build_network,
    check_costs,
    enumerate_branches,
    fidelity_up_to_phase,
    hadamard,
    oracle_effect,
    pauli_x,
    pauli_z,
    random_involution,
    random_state,
    random_unitary,
    run_protocol,
    run_series_ncu,
    run_series_simultaneous_ch,
    topology_for,
    verify_inputs,
)
from telegate.network import build_batch
from conftest import single_qubit_purity
from reference_states import (
    random_coefficients,
    series_ch_final,
    series_ncu_final,
)

PARALLEL = ProtocolFamily.PARALLEL_SIMULTANEOUS_CU
SERIES_CH = ProtocolFamily.SERIES_SIMULTANEOUS_CH
SERIES_NCU = ProtocolFamily.SERIES_N_CONTROLLED_U
ALL_FAMILIES = [PARALLEL, SERIES_CH, SERIES_NCU]

FIDELITY_ATOL = 1e-10
UNIFORMITY_ATOL = 1e-9
CROSS_CHECK_ATOL = 1e-12


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _branches(n):
    return list(itertools.product((0, 1), repeat=2 * (n - 1)))


def _entangled_inputs(n, count, seed_base):
    states = [random_state(n, seed_base + k) for k in range(count)]
    for state in states:
        assert single_qubit_purity(state, 0) < 1 - 1e-3
    return states


def test_criterion_1_parallel_exhaustive_payload_input_sweep():
    inputs = _entangled_inputs(3, 20, 1000)
    min_fid = 1.0
    costs_ok = True
    for seed in range(100):
        spec = ProtocolSpec(PARALLEL, 3, random_unitary(seed))
        report = verify_inputs(spec, inputs)
        min_fid = min(min_fid, report.min_fidelity)
        costs_ok = (
            costs_ok
            and report.cost_ok
            and len(report.branches) == 16
            and all((b.ledger.ebits, b.ledger.cbits) == (2, 4) for b in report.branches)
        )
    ok = min_fid >= 1 - FIDELITY_ATOL and costs_ok
    _verdict(
        1,
        ok,
        f"parallel n=3, 100 payloads x 20 inputs x 16 branches: "
        f"min fidelity {min_fid:.15f}, costs 2 ebits / 4 cbits {costs_ok}",
    )


def _check_family_across_sizes(family, sizes, payload_factory):
    worst = 1.0
    costs_ok = True
    counts_ok = True
    for n in sizes:
        payload = payload_factory(n)
        spec = ProtocolSpec(family, n, payload)
        psi = _entangled_inputs(n, 1, 2000 + n)[0]
        branches = enumerate_branches(spec, psi)
        counts_ok = counts_ok and len(branches) == 1 << (2 * (n - 1))
        worst = min(worst, min(b.fidelity for b in branches))
        costs_ok = costs_ok and all(check_costs(spec, b.ledger) for b in branches)
    return worst, costs_ok, counts_ok


def test_criterion_2_parallel_costs_and_determinism_n2_to_5():
    worst, costs_ok, counts_ok = _check_family_across_sizes(
        PARALLEL, range(2, 6), lambda n: random_unitary(n)
    )
    ok = worst >= 1 - FIDELITY_ATOL and costs_ok and counts_ok
    _verdict(
        2,
        ok,
        f"parallel n=2..5: ledger = (n-1, 2(n-1)) {costs_ok}, "
        f"all branches deterministic (min fidelity {worst:.15f})",
    )


def test_criterion_2_parallel_n6():
    worst, costs_ok, counts_ok = _check_family_across_sizes(
        PARALLEL, [6], lambda n: random_unitary(n)
    )
    ok = worst >= 1 - FIDELITY_ATOL and costs_ok and counts_ok
    _verdict(2, ok, f"parallel n=6: 1024 branches, min fidelity {worst:.15f}")


def test_criterion_3_series_ch_basis_rows_for_many_involutions():
    payloads = [hadamard(), pauli_x(), pauli_z()]
    payloads += [random_involution(seed) for seed in range(50)]
    inputs = [basis_state(3, format(idx, "03b")) for idx in range(8)]
    min_fid = 1.0
    costs_ok = True
    rows_ok = True
    for payload in payloads:
        # one batched run gives all 16 branches of the 8 basis inputs as rows
        # (input * 16 + branch), each unnormalized by sqrt of its probability
        net = build_batch(topology_for(SERIES_CH), 3, inputs)
        run_series_simultaneous_ch(net, payload, None)
        finals = net.register.reshape(8, 16, 8) / np.sqrt(net.probabilities).reshape(8, 16, 1)
        for state, rows in zip(inputs, finals):
            expected = series_ch_final(state.amplitudes, payload.matrix).amplitudes
            rows_ok = rows_ok and np.allclose(rows, expected, atol=1e-10)
            min_fid = min(min_fid, float((np.abs(rows @ expected.conj()) ** 2).min()))
        costs_ok = costs_ok and (net.ledger.ebits, net.ledger.cbits) == (2, 5)
    # the two worked rows: both controls set cancels the involution,
    # a single set control applies it once
    net, _ = build_network(topology_for(SERIES_CH), 3, basis_state(3, "110"))
    unchanged = run_series_simultaneous_ch(net, hadamard(), (0, 0, 0, 0))
    rows_ok = rows_ok and np.allclose(
        unchanged.amplitudes, basis_state(3, "110").amplitudes, atol=1e-10
    )
    net, _ = build_network(topology_for(SERIES_CH), 3, basis_state(3, "010"))
    once = run_series_simultaneous_ch(net, hadamard(), (0, 0, 0, 0))
    h_on_zero = np.zeros(8, dtype=complex)
    h_on_zero[0b010] = h_on_zero[0b011] = 1 / np.sqrt(2)
    rows_ok = rows_ok and np.allclose(once.amplitudes, h_on_zero, atol=1e-10)
    ok = rows_ok and costs_ok and min_fid >= 1 - FIDELITY_ATOL
    _verdict(
        3,
        ok,
        f"series involution n=3: basis rows exact for H, X, Z + 50 random "
        f"involutions (min fidelity {min_fid:.15f}), costs 2 ebits / 5 cbits {costs_ok}",
    )


def test_criterion_4_series_ch_cbit_formula_n3_to_5():
    expected_cbits = {3: 5, 4: 9, 5: 14}
    worst = 1.0
    cbits_ok = True
    for n, cbits in expected_cbits.items():
        payload = random_involution(300 + n)
        spec = ProtocolSpec(SERIES_CH, n, payload)
        psi = _entangled_inputs(n, 1, 3000 + n)[0]
        branches = enumerate_branches(spec, psi)
        worst = min(worst, min(b.fidelity for b in branches))
        cbits_ok = cbits_ok and all(
            (b.ledger.ebits, b.ledger.cbits) == (n - 1, cbits) for b in branches
        )
    ok = worst >= 1 - FIDELITY_ATOL and cbits_ok
    _verdict(
        4,
        ok,
        f"series involution n=3..5: cbits = (n^2+n-2)/2 = 5, 9, 14 {cbits_ok}, "
        f"all branches pass the oracle (min fidelity {worst:.15f})",
    )


def test_criterion_5_series_ncu_rows_and_toffoli():
    d = random_coefficients(55)
    payload = random_unitary(55)
    expected = series_ncu_final(d, payload.matrix)
    rows_ok = True
    costs_ok = True
    for branch in _branches(3):
        net, _ = build_network(topology_for(SERIES_NCU), 3, StateVector(3, d))
        out = run_series_ncu(net, payload, branch)
        rows_ok = rows_ok and np.allclose(out.amplitudes, expected.amplitudes, atol=1e-10)
        costs_ok = costs_ok and (net.ledger.ebits, net.ledger.cbits) == (2, 4)
    for idx in range(8):
        bits = format(idx, "03b")
        expected_basis = series_ncu_final(
            basis_state(3, bits).amplitudes, payload.matrix
        )
        net, _ = build_network(topology_for(SERIES_NCU), 3, basis_state(3, bits))
        out = run_series_ncu(net, payload, (1, 0, 1, 1))
        rows_ok = rows_ok and np.allclose(
            out.amplitudes, expected_basis.amplitudes, atol=1e-10
        )
    # payload X realizes the exact doubly-controlled NOT on the data register
    toffoli = np.eye(8)
    toffoli[6:, 6:] = np.array([[0, 1], [1, 0]])
    toffoli_ok = True
    for idx in range(8):
        net, _ = build_network(topology_for(SERIES_NCU), 3, basis_state(3, format(idx, "03b")))
        out = run_series_ncu(net, pauli_x(), (0, 1, 1, 0))
        toffoli_ok = toffoli_ok and np.allclose(out.amplitudes, toffoli[:, idx], atol=1e-10)
    psi = random_state(3, 56)
    net, _ = build_network(topology_for(SERIES_NCU), 3, psi)
    out = run_series_ncu(net, pauli_x(), (1, 1, 0, 0))
    toffoli_ok = toffoli_ok and (
        fidelity_up_to_phase(out, StateVector(3, toffoli @ psi.amplitudes))
        >= 1 - FIDELITY_ATOL
    )
    ok = rows_ok and costs_ok and toffoli_ok
    _verdict(
        5,
        ok,
        f"series n-controlled n=3: stage tables exact {rows_ok}, payload X = Toffoli "
        f"{toffoli_ok}, costs 2 ebits / 4 cbits {costs_ok}",
    )


def test_criterion_6_series_ncu_costs_and_determinism_n2_to_5():
    worst, costs_ok, counts_ok = _check_family_across_sizes(
        SERIES_NCU, range(2, 6), lambda n: random_unitary(600 + n)
    )
    ok = worst >= 1 - FIDELITY_ATOL and costs_ok and counts_ok
    _verdict(
        6,
        ok,
        f"series n-controlled n=2..5: ledger = (n-1, 2(n-1)) {costs_ok}, "
        f"full branch determinism (min fidelity {worst:.15f})",
    )


def test_criterion_7_non_involutory_payloads_break_determinism():
    broken = 0
    for seed in range(100):
        payload = random_unitary(seed)
        spec = ProtocolSpec(SERIES_CH, 3, payload)
        psi = random_state(3, 7000 + seed)
        branches = enumerate_branches(spec, psi, enforce_involution=False)
        if min(b.fidelity for b in branches) < 1 - 1e-3:
            broken += 1
    ok = broken >= 95
    _verdict(
        7,
        ok,
        f"series protocol with involution check bypassed: {broken}/100 random "
        f"unitary payloads show a branch below 1 - 1e-3 against the simultaneous oracle",
    )


def test_criterion_8_branch_probability_uniformity():
    max_dev = 0.0
    for family in ALL_FAMILIES:
        for n in range(2, 6):
            payload = (
                random_involution(800 + n) if family is SERIES_CH else random_unitary(800 + n)
            )
            spec = ProtocolSpec(family, n, payload)
            psi = _entangled_inputs(n, 1, 8000 + n)[0]
            branches = enumerate_branches(spec, psi)
            uniform = 2.0 ** -(2 * (n - 1))
            max_dev = max(max_dev, max(abs(b.probability - uniform) for b in branches))
    ok = max_dev < UNIFORMITY_ATOL
    _verdict(
        8,
        ok,
        f"branch probabilities equal 2^-(2(n-1)) for all families, n=2..5: "
        f"max deviation {max_dev:.3e}",
    )


class _MutatingNetwork(Network):
    """Redirects the k-th gate call, plain or conditional, to a qubit the
    acting party does not hold."""

    def local_apply(self, party_id, gate, targets):
        super().local_apply(party_id, gate, self._redirect(party_id, targets))

    def apply_if(self, party_id, gate, targets, tags):
        super().apply_if(party_id, gate, self._redirect(party_id, targets), tags)

    def _redirect(self, party_id, targets):
        if self._gate_calls == self._mutate_at:
            foreign = min(set(range(len(self._labels))) - self.held_qubits(party_id))
            targets = [foreign] + list(targets[1:])
        self._gate_calls += 1
        return targets


def _armed_mutant(family, n, psi, k):
    net, _ = build_network(topology_for(family), n, psi)
    mutant = _MutatingNetwork.__new__(_MutatingNetwork)
    mutant.__dict__.update(net.__dict__)
    mutant._mutate_at = k
    mutant._gate_calls = 0
    return mutant


def test_criterion_9_every_foreign_qubit_mutation_trips_the_locality_check():
    psi = random_state(3, 90)
    branch_sets = [(0, 0, 0, 0), (1, 1, 1, 1), (1, 1, 1, 0), (0, 0, 0, 1)]
    attempted = 0
    tripped = 0
    for family in ALL_FAMILIES:
        payload = random_involution(91) if family is SERIES_CH else random_unitary(91)
        spec = ProtocolSpec(family, 3, payload)
        for branch in branch_sets:
            # every gate call, including corrections whose bits are 0
            clean = _armed_mutant(family, 3, psi, -1)
            run_protocol(spec, clean, branch)
            for k in range(clean._gate_calls):
                attempted += 1
                mutant = _armed_mutant(family, 3, psi, k)
                try:
                    run_protocol(spec, mutant, branch)
                except LocalityViolation:
                    tripped += 1
    ok = attempted > 0 and tripped == attempted
    _verdict(
        9,
        ok,
        f"locality safety: {tripped}/{attempted} foreign-qubit gate mutations "
        f"aborted with LocalityViolation",
    )


def test_criterion_10_independent_oracles_agree():
    rng = np.random.default_rng(10)
    worst = 0.0
    for trial in range(100):
        family = ALL_FAMILIES[trial % 3]
        n = int(rng.integers(2, 6))
        seed = int(rng.integers(1 << 30))
        payload = random_involution(seed) if family is SERIES_CH else random_unitary(seed)
        spec = ProtocolSpec(family, n, payload)
        psi = random_state(n, rng)
        gap = np.abs(
            brute_force_oracle(spec, psi).amplitudes - oracle_effect(spec, psi).amplitudes
        ).max()
        worst = max(worst, gap)
    ok = worst < CROSS_CHECK_ATOL
    _verdict(
        10,
        ok,
        f"effect oracle vs brute-force matrix oracle on 100 random tuples: "
        f"max amplitude gap {worst:.3e}",
    )

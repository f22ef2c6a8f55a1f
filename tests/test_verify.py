"""Branch enumeration, cost formulas, and the independent effect oracle."""

import dataclasses
import itertools
import sys

import numpy as np
import pytest

from telegate import (
    CostLedger,
    InvolutionRequired,
    ProtocolFamily,
    ProtocolSpec,
    StateVector,
    basis_state,
    brute_force_oracle,
    check_costs,
    enumerate_branches,
    expected_costs,
    fidelity_up_to_phase,
    hadamard,
    identity,
    oracle_effect,
    pauli_x,
    pauli_z,
    random_involution,
    random_state,
    random_unitary,
    verify_inputs,
    verify_protocol,
)
from telegate import protocols
from telegate.gates import parse_gate_spec
from telegate.network import BellEdge
from telegate.protocols import _oracle_rows

PARALLEL = ProtocolFamily.PARALLEL_SIMULTANEOUS_CU
SERIES_CH = ProtocolFamily.SERIES_SIMULTANEOUS_CH
SERIES_NCU = ProtocolFamily.SERIES_N_CONTROLLED_U
ALL_FAMILIES = [PARALLEL, SERIES_CH, SERIES_NCU]


def _payload_for(family, seed=7):
    return random_involution(seed) if family is SERIES_CH else random_unitary(seed)


class TestEnumerateBranches:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_branch_count_law(self, family):
        for n in (2, 3):
            spec = ProtocolSpec(family, n, _payload_for(family))
            branches = enumerate_branches(spec, random_state(n, 1))
            assert len(branches) == 1 << (2 * (n - 1))
            assert len({b.outcomes for b in branches}) == len(branches)

    def test_sixteen_uniform_branches_at_three_parties(self):
        spec = ProtocolSpec(PARALLEL, 3, random_unitary(2))
        branches = enumerate_branches(spec, random_state(3, 2))
        assert len(branches) == 16
        for b in branches:
            assert abs(b.probability - 1 / 16) < 1e-9
            assert not b.impossible
        assert abs(sum(b.probability - 0 for b in branches) - 1.0) < 1e-9

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_all_branches_deterministic(self, family):
        spec = ProtocolSpec(family, 3, _payload_for(family, seed=3))
        branches = enumerate_branches(spec, random_state(3, 3))
        assert min(b.fidelity for b in branches) >= 1 - 1e-10

    def test_ledgers_snapshot_per_branch(self):
        spec = ProtocolSpec(SERIES_CH, 3, hadamard())
        branches = enumerate_branches(spec, random_state(3, 4))
        for b in branches:
            assert (b.ledger.ebits, b.ledger.cbits) == (2, 5)

    def test_involution_precondition_enforced(self):
        spec = ProtocolSpec(SERIES_CH, 3, random_unitary(6))
        with pytest.raises(InvolutionRequired):
            enumerate_branches(spec, random_state(3, 6))

    def test_input_size_checked(self):
        spec = ProtocolSpec(PARALLEL, 3, random_unitary(6))
        with pytest.raises(ValueError):
            enumerate_branches(spec, random_state(2, 6))


class TestCosts:
    def test_closed_forms(self):
        assert expected_costs(PARALLEL, 5) == (4, 8)
        assert expected_costs(SERIES_CH, 5) == (4, 14)
        assert expected_costs(SERIES_NCU, 2) == (1, 2)
        assert expected_costs(SERIES_CH, 3) == (2, 5)
        assert expected_costs(SERIES_CH, 4) == (3, 9)

    # The paper's abstract, written out: n-1 ebits for every family, and
    # 2(n-1) cbits, or (n^2+n-2)/2 for the series controlled-Hermitian gate.
    PAPER_CBITS = {
        "parallel-cu": lambda n: 2 * (n - 1),
        "series-ch": lambda n: (n**2 + n - 2) / 2,
        "series-ncu": lambda n: 2 * (n - 1),
    }

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_the_table_is_the_abstracts_formula_up_to_200_parties(self, family):
        # runs reach n = 8 at most, so only this pins the table beyond it
        for n in range(2, 201):
            ebits, cbits = expected_costs(family, n)
            assert type(ebits) is int and type(cbits) is int
            assert (ebits, cbits) == (n - 1, self.PAPER_CBITS[family.value](n))

    def test_check_costs_exact_integer_match(self):
        spec = ProtocolSpec(SERIES_CH, 4, hadamard())
        assert check_costs(spec, CostLedger(ebits=3, cbits=9))
        assert not check_costs(spec, CostLedger(ebits=3, cbits=8))
        assert not check_costs(spec, CostLedger(ebits=2, cbits=9))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_measured_ledgers_match_formulas(self, family, n):
        spec = ProtocolSpec(family, n, _payload_for(family, seed=8))
        branches = enumerate_branches(spec, random_state(n, 8))
        assert all(check_costs(spec, b.ledger) for b in branches)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_a_redundant_pair_fails_the_ebit_check_alone(self, family, monkeypatch):
        # the ledger books one ebit per declared pair, so a pair no op uses
        # fails the cost check while every branch stays exact
        record = protocols._PROTOCOLS[family]
        spare = BellEdge(1, "s1", 2, "s2")
        redundant = dataclasses.replace(record, edges=lambda n: record.edges(n) + (spare,))
        monkeypatch.setitem(protocols._PROTOCOLS, family, redundant)
        spec = ProtocolSpec(family, 3, _payload_for(family))
        report = verify_inputs(spec, [random_state(3, 9), basis_state(3, "101")])
        assert report.cost_ok is False and report.passed is False
        assert report.min_fidelity >= 1 - 1e-10 and report.probability_sums_ok
        ledger = report.branches.ledger
        assert (ledger.ebits, ledger.cbits) == (3, expected_costs(family, 3)[1])


class TestVerifyProtocol:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_three_party_sweep_passes(self, family):
        spec = ProtocolSpec(family, 3, _payload_for(family, seed=9))
        report = verify_protocol(spec, num_random_inputs=5, seed=9)
        assert report.passed
        assert report.trials == 8 + 5
        assert report.min_fidelity >= 1 - 1e-10
        assert report.max_probability_deviation < 1e-9
        assert report.cost_ok and report.probability_sums_ok
        assert len(report.branches) == 16

    def test_no_inputs_is_refused_before_any_work(self, monkeypatch):
        def must_not_run(*args):
            raise AssertionError("ran with no inputs")

        monkeypatch.setattr("telegate.verify._force_all", must_not_run)
        spec = ProtocolSpec(PARALLEL, 3, random_unitary(7))
        with pytest.raises(ValueError, match="at least one input"):
            verify_inputs(spec, [])

    def test_involution_violation_surfaces(self, monkeypatch):
        spec = ProtocolSpec(SERIES_CH, 3, random_unitary(10))
        psi = random_state(3, 10)
        with pytest.raises(InvolutionRequired):
            verify_inputs(spec, [psi])

        def must_not_run(*args):
            raise AssertionError("an input was generated for a refused spec")

        monkeypatch.setattr("telegate.verify.random_state", must_not_run)
        monkeypatch.setattr("telegate.verify._all_basis_states", must_not_run)
        with pytest.raises(InvolutionRequired):
            verify_protocol(spec, num_random_inputs=1)
        # the check alone is skipped on request: the run goes through and misses
        table = enumerate_branches(spec, psi, enforce_involution=False)
        assert float(table.fidelities.min()) < 1 - 1e-3

    def test_four_party_generalized_toffoli(self):
        spec = ProtocolSpec(SERIES_NCU, 4, pauli_x())
        toffoli4 = np.eye(16)
        toffoli4[14:, 14:] = np.array([[0, 1], [1, 0]])
        psi = random_state(4, 11)
        expected = StateVector(4, toffoli4 @ psi.amplitudes)
        branches = enumerate_branches(spec, psi)
        for b in branches:
            assert b.fidelity >= 1 - 1e-10
        assert fidelity_up_to_phase(oracle_effect(spec, psi), expected) >= 1 - 1e-12


# A payload whose unitarity residual, 8e-11, is within the 1e-10 tolerance:
# the norm it adds per application must not stop a verification.
NEAR_UNITARY = "matrix:[[1.00000000004,0],[0,1.00000000004]]"
# The same residual with the norm shrinking: a fidelity over both squared
# norms gives it the same verdict.
SHRINKING_NEAR_UNITARY = "matrix:[[0.99999999996,0],[0,0.99999999996]]"


class TestStackedOracle:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_rows_equal_brute_force_oracle(self, family, n):
        spec = ProtocolSpec(family, n, _payload_for(family, seed=20 + n))
        inputs = [basis_state(n, format(i, f"0{n}b")) for i in range(1 << n)]
        inputs += [random_state(n, 200 + k) for k in range(3)]
        rows = _oracle_rows(spec, np.stack([state.amplitudes for state in inputs]))
        for row, state in zip(rows, inputs):
            assert np.abs(row - brute_force_oracle(spec, state).amplitudes).max() < 1e-12

    def test_kernel_calls_per_pass_do_not_grow_with_inputs(self, monkeypatch):
        calls = []
        for module in [m for k, m in sys.modules.items() if k.startswith("telegate.")]:
            kernel = getattr(module, "_apply_matrix", None)
            if kernel is not None:
                def counted(*args, _kernel=kernel):
                    calls.append(1)
                    return _kernel(*args)

                monkeypatch.setattr(module, "_apply_matrix", counted)
        spec = ProtocolSpec(PARALLEL, 3, random_unitary(21))
        counts = []
        for count in (1, 20):
            calls.clear()
            verify_inputs(spec, [random_state(3, 300 + k) for k in range(count)])
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", [3, 6])
    def test_near_unitary_payload_verifies(self, family, n):
        spec = ProtocolSpec(family, n, parse_gate_spec(NEAR_UNITARY))
        report = verify_protocol(spec, num_random_inputs=2, seed=22)
        assert report.passed and report.trials == (1 << n) + 2

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", [3, 6])
    def test_shrinking_near_unitary_payload_verifies(self, family, n):
        spec = ProtocolSpec(family, n, parse_gate_spec(SHRINKING_NEAR_UNITARY))
        report = verify_protocol(spec, num_random_inputs=2, seed=22)
        assert report.passed and report.trials == (1 << n) + 2
        assert report.min_fidelity >= 1 - 1e-12


class TestNegativeInvolutionProperty:
    def test_non_involutory_payload_breaks_some_branch(self):
        # bypassing the involution check must expose a branch that disagrees with
        # the simultaneous-payload oracle
        for seed in range(10):
            spec = ProtocolSpec(SERIES_CH, 3, random_unitary(seed))
            branches = enumerate_branches(
                spec, random_state(3, 100 + seed), enforce_involution=False
            )
            assert min(b.fidelity for b in branches) < 1 - 1e-3


class TestBruteForceOracle:
    def test_agrees_with_effect_oracle_on_random_tuples(self):
        rng = np.random.default_rng(12)
        families = list(ALL_FAMILIES)
        for trial in range(100):
            family = families[trial % 3]
            n = int(rng.integers(2, 6))
            payload = (
                random_involution(int(rng.integers(1 << 30)))
                if family is SERIES_CH
                else random_unitary(int(rng.integers(1 << 30)))
            )
            spec = ProtocolSpec(family, n, payload)
            psi = random_state(n, rng)
            a = brute_force_oracle(spec, psi)
            b = oracle_effect(spec, psi)
            assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-12

    def test_identity_payload_returns_input(self):
        spec = ProtocolSpec(PARALLEL, 4, identity())
        psi = random_state(4, 13)
        np.testing.assert_allclose(
            brute_force_oracle(spec, psi).amplitudes, psi.amplitudes, atol=1e-15
        )

    def test_phase_payload_on_all_ones_register(self):
        # |1..1,+> with payload Z: the target picks up Z once per control
        for n in (3, 4):
            spec = ProtocolSpec(PARALLEL, n, pauli_z())
            plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
            state = StateVector(
                n, np.kron(basis_state(n - 1, "1" * (n - 1)).amplitudes, plus.amplitudes)
            )
            out = brute_force_oracle(spec, state)
            z_power = np.linalg.matrix_power(pauli_z().matrix, n - 1)
            expected = np.kron(
                basis_state(n - 1, "1" * (n - 1)).amplitudes, z_power @ plus.amplitudes
            )
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_party_count_cap(self):
        spec = ProtocolSpec(PARALLEL, 8, random_unitary(14))
        with pytest.raises(ValueError):
            brute_force_oracle(spec, random_state(8, 14))


class TestUniformity:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_branch_probabilities_are_uniform(self, family, n):
        spec = ProtocolSpec(family, n, _payload_for(family, seed=15))
        branches = enumerate_branches(spec, random_state(n, 15))
        uniform = 2.0 ** -(2 * (n - 1))
        assert max(abs(b.probability - uniform) for b in branches) < 1e-9


class TestDeterminismAcrossBranches:
    def test_branch_outputs_are_pairwise_identical(self):
        from telegate import run_protocol

        spec = ProtocolSpec(PARALLEL, 3, random_unitary(16))
        psi = random_state(3, 16)
        outputs = []
        for branch in itertools.product((0, 1), repeat=4):
            net = spec.network([psi])
            outputs.append(run_protocol(spec, net, branch))
        for a, b in itertools.combinations(outputs, 2):
            assert fidelity_up_to_phase(a, b) >= 1 - 1e-10

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_cost_formulas_hold_out_to_six_parties(self, family):
        # one complete branch per size is enough: the ledger is outcome-free
        from telegate import run_protocol

        for n in range(2, 7):
            spec = ProtocolSpec(family, n, _payload_for(family, seed=17))
            net = spec.network([basis_state(n, "0" * n)])
            run_protocol(spec, net, [0] * (2 * (n - 1)))
            assert check_costs(spec, net.ledger)
            assert (net.ledger.ebits, net.ledger.cbits) == expected_costs(family, n)

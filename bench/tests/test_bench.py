"""Tests of the benchmark itself: output contract, exact counts, controls.

Run from the root of a checkout:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Tally, prepare  # noqa: E402

sys.path.insert(0, str(run.SRC))

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())

COUNT_SUFFIXES = (".calls", "_per_branch", "bytes_computed", "peak_register_qubits")


@pytest.fixture(scope="module")
def tg():
    return run.import_telegate()


def _result(argv: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_matches_what_the_benchmark_prints():
    assert [w["name"] for w in CONFIG["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONFIG["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_is_the_result_object(trace):
    proc = _result(
        ["--workload", "sweep-n3", "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    )
    assert proc.returncode == 0, proc.stderr
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert set(detail["machine"]) >= {"cpu_model", "cpu_count", "python", "numpy"}
    assert detail["seed"] == 3
    assert detail["controls"]["run"] == detail["controls"]["detected"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = ["--workload", "sweep-n3", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = _result(argv, tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_oracle_agrees_with_the_brute_force_oracle(tg):
    rng = np.random.default_rng(7)
    for family in workloads.FAMILIES:
        for n in (2, 3, 4):
            payload = tg.gates.random_unitary(int(rng.integers(1000)))
            spec = tg.protocols.ProtocolSpec(tg.protocols.ProtocolFamily(family), n, payload)
            state = tg.statevector.StateVector(n, workloads.haar_amplitudes(rng, n))
            ours = workloads.oracle_amplitudes(family, payload.matrix, state.amplitudes, n)
            theirs = tg.verify.brute_force_oracle(spec, state).amplitudes
            np.testing.assert_allclose(ours, theirs, atol=1e-12)


def test_closed_form_costs_match_the_program(tg):
    for family in workloads.FAMILIES:
        for n in range(2, 8):
            enum = tg.protocols.ProtocolFamily(family)
            assert workloads.closed_form_costs(family, n) == tg.verify.expected_costs(enum, n)


def test_an_undetected_control_fails_the_check(tg):
    rng = np.random.default_rng(0)
    involutory = tg.protocols.ProtocolSpec(
        tg.protocols.ProtocolFamily("series-ch"), 3, tg.gates.random_involution(5)
    )
    state = tg.statevector.StateVector(3, workloads.haar_amplitudes(rng, 3))
    # An involutory payload is a valid spec, so this "control" must go undetected.
    assert workloads.InvolutionControl(tg, involutory, state).check()

    tally = Tally()
    tally.record("negative control", ["not detected"], control=True)
    assert tally.controls_detected < tally.controls_run and tally.failed == 1


def test_tampered_trace_is_a_detected_control(tg, tmp_path):
    tally = Tally()
    plan = prepare("cli-n4", tg, 11, tmp_path, tally)
    replays = {id(op): op for ops in plan.rounds for op in ops if op.kind == "replay"}
    assert tally.failed == 0 and len(replays) == 12
    for op in replays.values():
        tally.record("replay", op.check(op.run()), op.control)
    assert tally.failed == 0
    assert tally.controls_run == tally.controls_detected == 3


def _counts(tg, workload: str, seed: int, tmp_path: Path, first_ops: int | None = None) -> dict:
    tally = Tally()
    plan = prepare(workload, tg, seed, tmp_path, tally)
    tracer, untraced_s, traced_s, planned = run.traced_pass(plan.traced[:first_ops], tally)
    assert tally.failed == 0, tally.problems
    metrics = run.layer_metrics(tracer, untraced_s, traced_s)
    counts = {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}
    return {**counts, "kernel_calls": tracer.kernel_calls, "spans": len(tracer.start),
            "planned_branches": planned}


@pytest.mark.parametrize(
    "workload, first_ops",
    # enum-n6 is cut to its first operation (one family at n=6) to keep the test short.
    [("sweep-n3", None), ("cli-n4", None), ("enum-n6", 1)],
)
def test_counts_repeat_exactly_for_one_seed(tg, tmp_path, workload, first_ops):
    first = _counts(tg, workload, 5, tmp_path, first_ops)
    second = _counts(tg, workload, 5, tmp_path, first_ops)
    assert first == second
    assert first["protocols.run_protocol.calls"] == first["planned_branches"]
    peak = {"sweep-n3": 7, "cli-n4": 10, "enum-n6": 16}[workload]  # 3n - 2 qubits
    assert first["statevector.peak_register_qubits"] == peak


def test_a_wrong_trace_fails_the_check(tg):
    rng = np.random.default_rng(2)
    n = 3
    spec = tg.protocols.ProtocolSpec(
        tg.protocols.ProtocolFamily("parallel-cu"), n, tg.gates.random_unitary(9)
    )
    amplitudes = workloads.haar_amplitudes(rng, n)
    branch = [1, 0, 1, 1]
    probe = workloads.Probe(tg, spec, amplitudes, branch)
    assert probe.check() == []
    trace = tg.cli.record_trace(spec, tg.statevector.StateVector(n, amplitudes), branch)

    def problems(**changes):
        args = {"payload": spec.payload.matrix, "amplitudes": amplitudes, "branch": branch}
        args.update(changes)
        return workloads.check_trace(trace, "parallel-cu", n, **args)

    assert problems() == []
    assert problems(branch=[1, 0, 1, 0])
    assert problems(amplitudes=workloads.haar_amplitudes(rng, n))
    assert problems(payload=tg.gates.random_unitary(10).matrix)
    trace["final_state"] = trace["input"]
    assert problems()

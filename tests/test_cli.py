"""End-to-end CLI tests: exit codes, report/trace schemas, replay."""

import argparse
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from telegate import (
    LocalityViolation,
    ProtocolFamily,
    ProtocolSpec,
    enumerate_branches,
    random_state,
    random_unitary,
    verify_protocol,
)
from telegate import cli, gates
from telegate.cli import MAX_RANDOM_INPUTS, main, report_to_dict
from telegate.verify import BranchTable, VerificationReport


def test_run_passes_and_writes_report_and_trace(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    trace_path = tmp_path / "trace.json"
    code = main([
        "run", "--family", "parallel-cu", "--n", "3", "--payload", "randU:42",
        "--inputs", "random:5", "--seed", "7",
        "--report-out", str(report_path), "--trace-out", str(trace_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out

    report = json.loads(report_path.read_text())
    assert report["schema"] == 1
    assert report["family"] == "parallel-cu"
    assert report["min_fidelity"] >= 1 - 1e-10
    assert report["cost_ok"] and report["passed"]
    assert report["expected_costs"] == {"ebits": 2, "cbits": 4}
    assert len(report["branches"]) == 16

    trace = json.loads(trace_path.read_text())
    assert trace["schema"] == 1
    assert trace["branch"] == [0, 0, 0, 0]
    kinds = {ev["type"] for ev in trace["events"]}
    assert kinds == {"gate", "measure", "message"}
    assert len(trace["final_state"]) == 8
    assert all(len(pair) == 2 for pair in trace["final_state"])


def test_run_series_ncu_reports_its_costs(tmp_path):
    report_path = tmp_path / "report.json"
    code = main([
        "run", "--family", "series-ncu", "--n", "3", "--payload", "X",
        "--inputs", "basis-sweep", "--report-out", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["expected_costs"] == {"ebits": 2, "cbits": 4}
    assert all(b["ebits"] == 2 and b["cbits"] == 4 for b in report["branches"])


def test_run_literal_input(tmp_path):
    code = main([
        "run", "--family", "series-ch", "--n", "3", "--payload", "H",
        "--inputs", "[[1,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0]]",
    ])
    assert code == 0


def test_series_ch_rejects_non_involutory_payload(capsys):
    code = main(["run", "--family", "series-ch", "--n", "3", "--payload", "randU:42"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: InvolutionRequired: payload 'randU:42' is not an involution; the series "
        "simultaneous protocol is deterministic only for Hermitian unitaries\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--family", "parallel-cu", "--n", "1"],
        ["run", "--family", "parallel-cu", "--payload", "Y"],
        ["run", "--family", "parallel-cu", "--inputs", "sometimes"],
        ["run", "--family", "parallel-cu", "--inputs", "[[1,0],[0,0]]"],
        # n=9 is over the register limit; no row may be printed before the refusal
        ["costs", "--family", "parallel-cu", "--n-max", "9"],
        ["run", "--family", "parallel-cu", "--report-out", "/nonexistent/x.json"],
        ["run", "--family", "parallel-cu", "--trace-out", "/nonexistent/x.json"],
        # [re, im] pairs with a non-real part, a matrix row that is not a list,
        # and a seed numpy refuses
        ["run", "--family", "parallel-cu", "--inputs", "[[1,null],0,0,0,0,0,0,0]"],
        ["run", "--family", "parallel-cu", "--inputs", "[[1,[0]],0,0,0,0,0,0,0]"],
        ["run", "--family", "parallel-cu", "--payload", "matrix:[[[1,null],0],[0,1]]"],
        ["run", "--family", "parallel-cu", "--payload", "matrix:[[1,0],5]"],
        ["run", "--family", "parallel-cu", "--seed", "-1"],
        # JSON booleans are not numbers, though Python counts a bool as an int
        ["run", "--family", "parallel-cu", "--n", "2", "--inputs", "[true,0,0,0]"],
        ["run", "--family", "parallel-cu", "--payload", "matrix:[[false,true],[true,false]]"],
        # JSON nested deeper than the parser's recursion limit
        ["run", "--family", "parallel-cu", "--inputs", "[" * 50_000],
        ["run", "--family", "parallel-cu", "--payload", "matrix:" + "[" * 50_000],
        # one random input over the limit is refused before any input is built
        [
            "run", "--family", "parallel-cu", "--n", "2",
            "--inputs", f"random:{MAX_RANDOM_INPUTS + 1}",
        ],
    ],
)
def test_config_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error" in captured.err and len(captured.err.strip().splitlines()) == 1
    if argv[0] == "costs":
        assert captured.out == ""


def test_near_unitary_payload_passes_and_replays(tmp_path, capsys):
    # unitarity residual 8e-11, within the 1e-10 tolerance validate applies
    trace_path = tmp_path / "trace.json"
    code = main([
        "run", "--family", "parallel-cu", "--n", "3", "--inputs", "basis-sweep",
        "--payload", "matrix:[[1.00000000004,0],[0,1.00000000004]]",
        "--trace-out", str(trace_path),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip().splitlines()[-1] == "PASS"
    assert "Traceback" not in captured.err
    assert main(["replay", str(trace_path)]) == 0


def test_shrinking_near_unitary_payload_passes_and_replays(tmp_path, capsys):
    # the same residual with the norm shrinking gets the same verdict
    trace_path = tmp_path / "trace.json"
    code = main([
        "run", "--family", "parallel-cu", "--n", "3", "--inputs", "basis-sweep",
        "--payload", "matrix:[[0.99999999996,0],[0,0.99999999996]]",
        "--trace-out", str(trace_path),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip().splitlines()[-1] == "PASS"
    assert main(["replay", str(trace_path)]) == 0


def test_run_output_files_are_single_line_json(tmp_path):
    report_path, trace_path = tmp_path / "report.json", tmp_path / "trace.json"
    assert main([
        "run", "--family", "series-ch", "--n", "3", "--inputs", "random:2",
        "--report-out", str(report_path), "--trace-out", str(trace_path),
    ]) == 0
    for path in (report_path, trace_path):
        text = path.read_text()
        assert "\n" not in text and json.loads(text)["schema"] == 1


def _render_branch_results(report):
    """The report rows rendered one BranchResult at a time: the reference."""
    return [
        {
            "outcomes": list(b.outcomes),
            "probability": b.probability,
            "fidelity": b.fidelity,
            "ebits": b.ledger.ebits,
            "cbits": b.ledger.cbits,
            "impossible": b.impossible,
        }
        for b in report.branches
    ]


def test_report_rows_match_branch_results_on_a_uniform_table():
    spec = ProtocolSpec(ProtocolFamily.PARALLEL_SIMULTANEOUS_CU, 3, random_unitary(30))
    report = verify_protocol(spec, num_random_inputs=3, seed=30)
    rows = report_to_dict(report)["branches"]
    assert len(rows) == 16 and rows == _render_branch_results(report)
    assert json.loads(json.dumps(rows)) == rows


def _report_of(spec, table):
    return VerificationReport(
        spec=spec, trials=1, min_fidelity=float(table.fidelities.min()),
        max_probability_deviation=0.0, cost_ok=True, probability_sums_ok=True,
        branches=table,
    )


def test_report_rows_match_branch_results_on_a_non_uniform_table():
    # Even a non-involutory series-ch payload gives every branch the same
    # fidelity, bit for bit, so per-branch columns are built from its table.
    spec = ProtocolSpec(ProtocolFamily.SERIES_SIMULTANEOUS_CH, 3, random_unitary(31))
    table = enumerate_branches(spec, random_state(3, 31), enforce_involution=False)
    assert float(table.fidelities.max()) < 1 - 1e-3
    rng = np.random.default_rng(31)
    varied = BranchTable(
        rng.dirichlet(np.ones(16)),
        table.fidelities * rng.uniform(0.5, 1.0, 16),
        np.arange(16) % 5 == 0,
        table.ledger,
    )
    for t in (table, varied):
        report = _report_of(spec, t)
        rows = report_to_dict(report)["branches"]
        assert len(rows) == 16 and rows == _render_branch_results(report)


def test_unknown_family_exits_2_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--family", "nonsense"])
    assert exc.value.code == 2


def test_locality_violation_exits_3(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise LocalityViolation("transcription bug")

    monkeypatch.setattr("telegate.cli.verify_protocol", boom)
    code = main(["run", "--family", "parallel-cu", "--n", "3"])
    assert code == 3
    assert capsys.readouterr().err == "internal error: LocalityViolation: transcription bug\n"


def test_failed_verification_exits_1(monkeypatch, capsys):
    def fake_verify(spec, *args, **kwargs):
        return VerificationReport(
            spec=spec, trials=1, min_fidelity=0.5, max_probability_deviation=0.0,
            cost_ok=True, probability_sums_ok=True, branches=(),
        )

    monkeypatch.setattr("telegate.cli.verify_protocol", fake_verify)
    code = main(["run", "--family", "parallel-cu", "--n", "3"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_costs_table(capsys):
    code = main(["costs", "--family", "series-ch", "--n-max", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "series-ch n=3: 2 ebits, 5 cbits, formula (2, 5), OK" in out
    assert "series-ch n=5: 4 ebits, 14 cbits, formula (4, 14), OK" in out


def test_costs_parallel_row(capsys):
    code = main(["costs", "--family", "parallel-cu", "--n-max", "4"])
    assert code == 0
    assert "parallel-cu n=4: 3 ebits, 6 cbits, formula (3, 6), OK" in capsys.readouterr().out


def test_costs_rejects_small_n_max(capsys):
    assert main(["costs", "--family", "parallel-cu", "--n-max", "1"]) == 2


def test_replay_fresh_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    assert main([
        "run", "--family", "series-ncu", "--n", "3", "--payload", "randU:5",
        "--inputs", "basis-sweep", "--trace-out", str(trace_path),
    ]) == 0
    assert main(["replay", str(trace_path)]) == 0
    assert "replay OK" in capsys.readouterr().out


def test_replay_detects_corrupted_outcome(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    assert main([
        "run", "--family", "parallel-cu", "--n", "3", "--payload", "randU:5",
        "--inputs", "basis-sweep", "--trace-out", str(trace_path),
    ]) == 0
    trace = json.loads(trace_path.read_text())
    trace["branch"][1] ^= 1
    trace_path.write_text(json.dumps(trace))
    assert main(["replay", str(trace_path)]) == 1
    assert "divergence" in capsys.readouterr().err


def test_replay_detects_corrupted_final_state(tmp_path):
    trace_path = tmp_path / "trace.json"
    assert main([
        "run", "--family", "series-ch", "--n", "3", "--payload", "H",
        "--inputs", "basis-sweep", "--trace-out", str(trace_path),
    ]) == 0
    trace = json.loads(trace_path.read_text())
    trace["final_state_hash"] = "0" * 64
    trace_path.write_text(json.dumps(trace))
    assert main(["replay", str(trace_path)]) == 1


def test_replay_missing_file_is_config_error(tmp_path):
    assert main(["replay", str(tmp_path / "nope.json")]) == 2


def test_traces_are_deterministic_across_invocations(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main([
            "run", "--family", "series-ch", "--n", "3", "--payload", "randH:3",
            "--inputs", "random:2", "--seed", "11", "--trace-out", str(path),
        ]) == 0
    first, second = (json.loads(p.read_text()) for p in paths)
    assert first == second
    assert first["final_state_hash"] == second["final_state_hash"]



def _recorded_trace(tmp_path):
    trace_path = tmp_path / "trace.json"
    assert main([
        "run", "--family", "parallel-cu", "--n", "3", "--payload", "randU:5",
        "--inputs", "basis-sweep", "--trace-out", str(trace_path),
    ]) == 0
    return trace_path, json.loads(trace_path.read_text())


_NOT_UNITARY = [[[1, 0], [1, 0]], [[1, 0], [-1, 0]]]
_BOOL_IDENTITY = [[[True, 0], [0, 0]], [[0, 0], [True, False]]]


def _without(trace, key):
    return {k: v for k, v in trace.items() if k != key}


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda t: {**t, "branch": t["branch"][:2]}, "outcome bits"),
        (lambda t: {**t, "payload": {**t["payload"], "matrix": _NOT_UNITARY}}, "not unitary"),
        (lambda t: [], "JSON object"),
        (lambda t: _without(t, "events"), "events"),
        (lambda t: _without(t, "final_state_hash"), "final_state_hash"),
        (lambda t: {**t, "events": [1, 2]}, "list of objects"),
        (lambda t: {**t, "branch": [0.5] + t["branch"][1:]}, "outcome bits"),
        (lambda t: {**t, "payload": {**t["payload"], "label": [1]}}, "label"),
        (lambda t: {**t, "input": [[float("nan"), 0]] + t["input"][1:]}, "not normalized"),
        (lambda t: {**t, "input": [True] + t["input"][1:]}, "not a number"),
        (lambda t: {**t, "payload": {**t["payload"], "matrix": _BOOL_IDENTITY}}, "not a number"),
        # the recorded randU:5 payload is not an involution
        (lambda t: {**t, "family": "series-ch"}, "error: InvolutionRequired: payload 'randU:5'"),
    ],
    ids=[
        "truncated-branch",
        "non-unitary-payload",
        "not-an-object",
        "missing-events",
        "missing-final-state-hash",
        "non-object-events",
        "fractional-branch-bit",
        "non-string-label",
        "nan-input",
        "bool-amplitude",
        "bool-matrix-entry",
        "non-involutory-series-ch",
    ],
)
def test_malformed_trace_exits_2(tmp_path, capsys, corrupt, message):
    trace_path, trace = _recorded_trace(tmp_path)
    capsys.readouterr()
    trace_path.write_text(json.dumps(corrupt(trace)))
    assert main(["replay", str(trace_path)]) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1


def test_deeply_nested_trace_exits_2(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    trace_path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["replay", str(trace_path)]) == 2
    assert "recursion depth" in capsys.readouterr().err


def _must_not_run(*args, **kwargs):
    raise AssertionError("an over-limit run reached verification")


def test_register_limit_exits_2_before_allocating(monkeypatch, tmp_path, capsys):
    # n=20 needs a 58-qubit register, 2^58 amplitudes per input
    trace_path, trace = _recorded_trace(tmp_path)
    trace["n"] = 20
    trace_path.write_text(json.dumps(trace))
    capsys.readouterr()
    monkeypatch.setattr("telegate.cli.verify_protocol", _must_not_run)
    monkeypatch.setattr("telegate.cli.verify_inputs", _must_not_run)
    monkeypatch.setattr("telegate.cli.record_trace", _must_not_run)

    assert main(["run", "--family", "series-ch", "--n", "20", "--inputs", "basis-sweep"]) == 2
    assert "limit is 22 qubits" in capsys.readouterr().err
    assert main(["replay", str(trace_path)]) == 2
    assert "limit is 22 qubits" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, target",
    [
        ("--report-out", "missing/report.json"),
        ("--trace-out", "missing/trace.json"),
        ("--report-out", "."),
        ("--trace-out", "."),
    ],
)
def test_unwritable_output_exits_2_before_verifying(monkeypatch, tmp_path, capsys, option, target):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("telegate.cli.verify_protocol", _must_not_run)
    monkeypatch.setattr("telegate.cli.verify_inputs", _must_not_run)
    monkeypatch.setattr("telegate.cli.record_trace", _must_not_run)
    other = "--trace-out" if option == "--report-out" else "--report-out"
    code = main([
        "run", "--family", "parallel-cu", "--n", "5", "--inputs", "random:2",
        other, "written.json", option, target,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot write output" in err and len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


# Schema-1 traces written by an earlier build: one per family at n=3 and n=4,
# each on a Haar-random input and a branch of mixed outcomes.
GOLDEN_TRACES = Path(__file__).parent / "data"


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("family", ["parallel-cu", "series-ch", "series-ncu"])
def test_golden_trace_replays(family, n, capsys):
    path = GOLDEN_TRACES / f"trace-{family}-n{n}.json"
    trace = json.loads(path.read_text())
    assert 0 in trace["branch"] and 1 in trace["branch"]
    assert main(["replay", str(path)]) == 0
    assert "replay OK" in capsys.readouterr().out


@pytest.mark.parametrize("second", ["same.json", "./sub/../same.json"])
def test_one_output_path_named_twice_exits_2_before_verifying(
    monkeypatch, tmp_path, capsys, second
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    monkeypatch.setattr("telegate.cli.verify_protocol", _must_not_run)
    monkeypatch.setattr("telegate.cli.record_trace", _must_not_run)
    code = main([
        "run", "--family", "parallel-cu", "--report-out", "same.json", "--trace-out", second,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot write output" in err and len(err.strip().splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


# -- one parser per process, one validation per invocation ---------------------


def test_a_later_run_takes_the_defaults_and_leaves_an_earlier_report(monkeypatch, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main([
        "run", "--family", "parallel-cu", "--n", "2", "--inputs", "random:1", "--seed", "5",
        "--report-out", str(report_path),
    ]) == 0
    written = report_path.read_bytes(), report_path.stat().st_mtime_ns
    seen = []

    def recording(spec, num_random_inputs, seed):
        seen.append((spec.n, num_random_inputs, seed))
        return verify_protocol(spec, num_random_inputs, seed)

    monkeypatch.setattr("telegate.cli.verify_protocol", recording)
    capsys.readouterr()
    assert main(["run", "--family", "parallel-cu"]) == 0
    assert seen == [(3, 20, 0)]
    assert "n=3 payload=H trials=28" in capsys.readouterr().out
    assert (report_path.read_bytes(), report_path.stat().st_mtime_ns) == written


def test_a_subcommand_rebound_after_the_first_call_is_the_one_that_runs(monkeypatch, tmp_path):
    trace_path = tmp_path / "trace.json"
    assert main([
        "run", "--family", "series-ch", "--n", "2", "--inputs", "basis-sweep",
        "--trace-out", str(trace_path),
    ]) == 0
    calls = []

    def fake(args):
        calls.append(args.trace)
        return 7

    monkeypatch.setattr("telegate.cli.cmd_replay", fake)
    assert main(["replay", str(trace_path)]) == 7
    assert calls == [str(trace_path)]


def test_the_parser_is_built_once_for_many_calls(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    # an empty cache for this test, as in a fresh process
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
    for _ in range(5):
        assert main(["costs", "--family", "parallel-cu", "--n-max", "2"]) == 0
    # one top-level parser and, built with it, its three subcommand parsers
    assert built.count("telegate") == 1 and len(built) == 4


def _count_validations(monkeypatch) -> list:
    """Wrap gates.validate under every name a loaded telegate module binds it to."""
    calls = []
    original = gates.validate

    def counted(gate):
        calls.append(gate.label)
        return original(gate)

    for module in [m for name, m in sys.modules.items() if name.startswith("telegate")]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("payload", ["randU:3", "I"])
def test_run_and_replay_each_validate_the_payload_once(monkeypatch, tmp_path, payload):
    calls = _count_validations(monkeypatch)
    trace_path, report_path = tmp_path / "trace.json", tmp_path / "report.json"
    assert main([
        "run", "--family", "series-ncu", "--n", "3", "--payload", payload, "--inputs", "random:2",
        "--trace-out", str(trace_path), "--report-out", str(report_path),
    ]) == 0
    assert calls == [payload]
    calls.clear()
    assert main(["replay", str(trace_path)]) == 0
    assert calls == [payload]


def test_python_dash_m_runs_the_command_in_a_fresh_process():
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-m", "telegate", "costs", "--family", "series-ch", "--n-max", "4"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = done.stdout.strip().splitlines()
    assert len(rows) == 3 and all(row.endswith(", OK") for row in rows)

"""End-to-end CLI tests: exit codes, report/trace schemas, replay."""

import json
from pathlib import Path

import pytest

from telegate import LocalityViolation
from telegate.cli import MAX_RANDOM_INPUTS, main


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
    assert "InvolutionRequired" in capsys.readouterr().err


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
    assert "LocalityViolation" in capsys.readouterr().err


def test_failed_verification_exits_1(monkeypatch, capsys):
    from telegate.verify import VerificationReport

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

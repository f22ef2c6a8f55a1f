"""Command-line front-end: run verification, tabulate costs, replay traces.

Exit codes are stable: 0 success, 1 verification failure or replay
divergence, 2 configuration error, 3 locality violation (an internal bug in
a protocol transcription, never expected in normal use).  Trace and report
files are JSON with a ``"schema": 1`` version field; state amplitudes are
stored as [re, im] pairs at full double precision, and state hashes are
computed over amplitudes rounded to 1e-12 so they are stable across
platforms.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from .errors import InvolutionRequired, LocalityViolation, TelegateError
from .gates import Gate, _entry_to_complex, parse_gate_spec
from .network import build_network, check_register_size
from .protocols import ProtocolFamily, ProtocolSpec, run_protocol, topology_for
from .statevector import StateVector, basis_state
from .verify import (
    VerificationReport,
    check_costs,
    expected_costs,
    verify_inputs,
    verify_protocol,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_LOCALITY_VIOLATION = 3

# Most random inputs ``run --inputs random:<count>`` accepts: every input is
# built before the first pass, 16 * 2^n bytes each (40 MiB at n = 8).
MAX_RANDOM_INPUTS = 10_000


def _round12(x: float) -> float:
    r = round(float(x), 12)
    return 0.0 if r == 0 else r  # fold -0.0 into 0.0


def state_pairs(state: StateVector) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in state.amplitudes]


def state_hash(state: StateVector) -> str:
    rounded = [[_round12(a.real), _round12(a.imag)] for a in state.amplitudes]
    payload = json.dumps(rounded, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _is_int(value) -> bool:
    """True for a JSON integer; a float such as 0.5 or a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _pairs_to_amplitudes(pairs: list) -> np.ndarray:
    return np.array([_entry_to_complex(entry) for entry in pairs], dtype=np.complex128)


def _matrix_pairs(gate: Gate) -> list[list[list[float]]]:
    return [[[float(e.real), float(e.imag)] for e in row] for row in gate.matrix]


def _gate_from_pairs(label: str, rows: list) -> Gate:
    return Gate(1, np.array([[_entry_to_complex(e) for e in row] for row in rows]), label)


def record_trace(spec: ProtocolSpec, input_state: StateVector, branch: list[int]) -> dict:
    """Execute one branch and capture a self-contained, replayable trace."""
    net = build_network(topology_for(spec.family), spec.n, input_state)[0]
    final = run_protocol(spec, net, branch)
    return {
        "schema": SCHEMA_VERSION,
        "family": spec.family.value,
        "n": spec.n,
        "payload": {"label": spec.payload.label, "matrix": _matrix_pairs(spec.payload)},
        "input": state_pairs(input_state),
        "branch": list(branch),
        "events": net.trace,
        "final_state": state_pairs(final),
        "final_state_hash": state_hash(final),
    }


def _normalized_events(events: list[dict]) -> list[dict]:
    out = []
    for ev in events:
        ev = dict(ev)
        if "probability" in ev:
            ev["probability"] = _round12(ev["probability"])
        out.append(ev)
    return out


def report_to_dict(report: VerificationReport) -> dict:
    spec = report.spec
    ebits, cbits = expected_costs(spec.family, spec.n)
    return {
        "schema": SCHEMA_VERSION,
        "family": spec.family.value,
        "n": spec.n,
        "payload": spec.payload.label,
        "trials": report.trials,
        "min_fidelity": report.min_fidelity,
        "max_probability_deviation": report.max_probability_deviation,
        "cost_ok": report.cost_ok,
        "probability_sums_ok": report.probability_sums_ok,
        "expected_costs": {"ebits": ebits, "cbits": cbits},
        "passed": report.passed,
        "branches": [
            {
                "outcomes": list(b.outcomes),
                "probability": b.probability,
                "fidelity": b.fidelity,
                "ebits": b.ledger.ebits,
                "cbits": b.ledger.cbits,
                "impossible": b.impossible,
            }
            for b in report.branches
        ],
    }


def _parse_inputs(raw: str, n: int) -> tuple[str, int | StateVector]:
    """Returns ("random", count), ("basis", 0) or ("literal", StateVector)."""
    raw = raw.strip()
    if raw == "basis-sweep":
        return "basis", 0
    if raw.startswith("random:"):
        count = int(raw.split(":", 1)[1])
        if count < 0:
            raise ValueError("random input count must be >= 0")
        if count > MAX_RANDOM_INPUTS:
            raise ValueError(
                f"random input count {count} is over the limit of {MAX_RANDOM_INPUTS}"
            )
        return "random", count
    if raw.startswith("["):
        amps = _pairs_to_amplitudes(json.loads(raw))
        return "literal", StateVector(n, amps)
    raise ValueError(
        f"--inputs must be 'basis-sweep', 'random:<count>' or a JSON amplitude list, got {raw!r}"
    )


def cmd_run(args: argparse.Namespace) -> int:
    try:
        payload = parse_gate_spec(args.payload)
        family = ProtocolFamily(args.family)
        spec = ProtocolSpec(family, args.n, payload)
        spec.validate()
        mode, detail = _parse_inputs(args.inputs, args.n)
        if args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
    except InvolutionRequired as exc:
        print(f"error: InvolutionRequired: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        if mode == "literal":
            report = verify_inputs(spec, [detail])
            trace_input = detail
        else:
            count = detail if mode == "random" else 0
            report = verify_protocol(spec, count, args.seed)
            trace_input = basis_state(args.n, "0" * args.n)
        if args.report_out:
            with open(args.report_out, "w") as fh:
                json.dump(report_to_dict(report), fh, indent=2)
        if args.trace_out:
            trace = record_trace(spec, trace_input, [0] * spec.num_measurements)
            with open(args.trace_out, "w") as fh:
                json.dump(trace, fh, indent=2)
    except LocalityViolation as exc:
        print(f"internal error: LocalityViolation: {exc}", file=sys.stderr)
        return EXIT_LOCALITY_VIOLATION
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    ebits, cbits = expected_costs(family, args.n)
    print(f"family={family.value} n={args.n} payload={payload.label} trials={report.trials}")
    print(
        f"min_fidelity={report.min_fidelity:.15f} "
        f"max_probability_deviation={report.max_probability_deviation:.3e}"
    )
    print(
        f"costs: expected ebits={ebits} cbits={cbits} "
        f"{'OK' if report.cost_ok else 'MISMATCH'}"
    )
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED


def cmd_costs(args: argparse.Namespace) -> int:
    try:
        family = ProtocolFamily(args.family)
        if args.n_max < 2:
            raise ValueError("--n-max must be >= 2")
        check_register_size(args.n_max)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    all_ok = True
    for n in range(2, args.n_max + 1):
        payload = parse_gate_spec("H")  # involutory, valid for every family
        spec = ProtocolSpec(family, n, payload)
        net, _ = build_network(topology_for(family), n, basis_state(n, "0" * n))
        run_protocol(spec, net, [0] * spec.num_measurements)
        ebits, cbits = expected_costs(family, n)
        ok = check_costs(spec, net.ledger)
        all_ok = all_ok and ok
        print(
            f"{family.value} n={n}: {net.ledger.ebits} ebits, {net.ledger.cbits} cbits, "
            f"formula ({ebits}, {cbits}), {'OK' if ok else 'MISMATCH'}"
        )
    return EXIT_OK if all_ok else EXIT_VERIFICATION_FAILED


def cmd_replay(args: argparse.Namespace) -> int:
    try:
        with open(args.trace) as fh:
            recorded = json.load(fh)
        if not isinstance(recorded, dict):
            raise ValueError("a trace must be a JSON object")
        if recorded.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"unsupported trace schema {recorded.get('schema')!r}")
        label = recorded["payload"]["label"]
        if not isinstance(label, str):
            raise ValueError(f"payload label must be a string, got {label!r}")
        payload = _gate_from_pairs(label, recorded["payload"]["matrix"])
        family = ProtocolFamily(recorded["family"])
        n = recorded["n"]
        if not _is_int(n):
            raise ValueError(f"n must be an integer, got {n!r}")
        spec = ProtocolSpec(family, n, payload)
        spec.validate()
        input_state = StateVector(n, _pairs_to_amplitudes(recorded["input"]))
        events = recorded["events"]
        if not isinstance(events, list) or not all(isinstance(ev, dict) for ev in events):
            raise ValueError("events must be a list of objects")
        expected_events = _normalized_events(events)
        expected_hash = recorded["final_state_hash"]
        branch = recorded["branch"]
        if not isinstance(branch, list):
            raise ValueError(f"branch must be a list of outcome bits, got {branch!r}")
        # run_protocol refuses a branch that is not its count of integer 0/1 bits
        replayed = record_trace(spec, input_state, branch)
    except (OSError, ValueError, LookupError, TypeError, ArithmeticError, RecursionError) as exc:
        print(f"error: cannot load trace: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    divergences = []
    if _normalized_events(replayed["events"]) != expected_events:
        divergences.append("event sequence differs")
    if replayed["final_state_hash"] != expected_hash:
        divergences.append(
            f"final state hash differs: {replayed['final_state_hash']} "
            f"vs recorded {expected_hash}"
        )
    if divergences:
        print(f"replay divergence: {'; '.join(divergences)}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    print(f"replay OK: {len(events)} events, hash {expected_hash}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telegate",
        description="Gate teleportation over parallel and series Bell-pair networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    families = [f.value for f in ProtocolFamily]

    run = sub.add_parser("run", help="verify a protocol and write trace/report JSON")
    run.add_argument("--family", required=True, choices=families)
    run.add_argument("--n", type=int, default=3, help="number of parties (>= 2)")
    run.add_argument(
        "--payload",
        default="H",
        help="payload gate: X, Z, H, randU:<seed>, randH:<seed>, matrix:[[..],[..]]",
    )
    run.add_argument(
        "--inputs",
        default="random:20",
        help="basis-sweep, random:<count>, or a JSON amplitude list",
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trace-out", default=None)
    run.add_argument("--report-out", default=None)
    run.set_defaults(func=cmd_run)

    costs = sub.add_parser("costs", help="measured-vs-formula cost table")
    costs.add_argument("--family", required=True, choices=families)
    costs.add_argument("--n-max", type=int, default=6)
    costs.set_defaults(func=cmd_costs)

    replay = sub.add_parser("replay", help="re-execute a recorded trace and compare")
    replay.add_argument("trace", help="path to a trace JSON file")
    replay.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LocalityViolation as exc:
        print(f"internal error: LocalityViolation: {exc}", file=sys.stderr)
        return EXIT_LOCALITY_VIOLATION
    except TelegateError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())

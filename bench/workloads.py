"""Workload generation, operations and correctness checks for the benchmark.

Every input is generated here from the seed; the program receives only the
payload gates, input states, CLI arguments and trace files built below.
Expected results come from the paper's closed forms and from an oracle
written here with plain index arithmetic, not from the package.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

FAMILIES = ("parallel-cu", "series-ch", "series-ncu")
# series-ch is deterministic only for involutory payloads (randH).
PAYLOAD_KIND = {"parallel-cu": "randU", "series-ch": "randH", "series-ncu": "randU"}

FIDELITY_FLOOR = 1.0 - 1e-10
PROBABILITY_ATOL = 1e-9


def closed_form_costs(family: str, n: int) -> tuple[int, int]:
    """(ebits, cbits) of a complete n-party run, as the paper states them."""
    if family == "series-ch":
        return n - 1, (n * n + n - 2) // 2
    return n - 1, 2 * (n - 1)


def branch_count(n: int) -> int:
    return 4 ** (n - 1)


def haar_amplitudes(rng: np.random.Generator, n: int) -> np.ndarray:
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return amps / np.linalg.norm(amps)


def oracle_amplitudes(family: str, payload: np.ndarray, amps: np.ndarray, n: int) -> np.ndarray:
    """The ideal nonlocal gate on the data register; party n is the last qubit.

    The simultaneous families apply the payload once per set control bit; the
    n-controlled family applies it once when every control is set.
    """
    out = np.empty_like(amps)
    all_controls = (1 << (n - 1)) - 1
    for controls in range(1 << (n - 1)):
        if family == "series-ncu":
            power = 1 if controls == all_controls else 0
        else:
            power = bin(controls).count("1")
        block = np.linalg.matrix_power(payload, power)
        pair = amps[2 * controls : 2 * controls + 2]
        out[2 * controls : 2 * controls + 2] = block @ pair
    return out


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2)


def _payload(tg: SimpleNamespace, family: str, seed: int):
    if PAYLOAD_KIND[family] == "randH":
        return tg.gates.random_involution(seed)
    return tg.gates.random_unitary(seed)


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


class Tally:
    """Checks attempted and failed, with the first few failure messages.

    Negative controls are also counted apart: each must be detected.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.controls_run = 0
        self.controls_detected = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str], control: bool = False) -> None:
        self.attempted += 1
        if control:
            self.controls_run += 1
            self.controls_detected += not problems
        if problems:
            self.failed += 1
            if len(self.problems) < 8:
                self.problems.append(f"{what}: {'; '.join(problems[:3])}")


# -- operations --------------------------------------------------------------


@dataclass
class Probe:
    """One branch of an operation's spec on an input the benchmark chose.

    ``cli.record_trace`` forces the branch, and the final state is compared
    with the benchmark's own oracle; the program's fidelity figures are not
    used.  Probes run in the untimed check phase.
    """

    tg: SimpleNamespace
    spec: object
    amplitudes: np.ndarray
    branch: list[int]

    def check(self) -> list[str]:
        state = self.tg.statevector.StateVector(self.spec.n, self.amplitudes)
        trace = self.tg.cli.record_trace(self.spec, state, self.branch)
        return check_trace(
            trace, self.spec.family.value, self.spec.n,
            self.spec.payload.matrix, self.amplitudes, self.branch,
        )


@dataclass
class VerifyOp:
    """One ``verify_inputs`` call: every branch of every input for one spec.

    The report keeps only the worst input's branches and computes fidelity
    against the program's own oracle, so ``probe`` also checks one random
    branch of the last input against the benchmark's oracle.
    """

    tg: SimpleNamespace
    family: str
    spec: object
    inputs: list
    probe: Probe
    kind: str = "verify"
    control: bool = False

    @property
    def branches(self) -> int:
        return len(self.inputs) * branch_count(self.spec.n)

    def run(self):
        return self.tg.verify.verify_inputs(self.spec, self.inputs)

    def check(self, report) -> list[str]:
        n = self.spec.n
        problems = []
        if not report.passed:
            problems.append(f"verdict FAIL (min fidelity {report.min_fidelity!r})")
        if report.trials != len(self.inputs):
            problems.append(f"trials {report.trials} != {len(self.inputs)}")
        problems += _check_branches(
            self.family,
            n,
            [
                (b.outcomes, b.probability, b.fidelity,
                 b.ledger.ebits, b.ledger.cbits, b.impossible)
                for b in report.branches
            ],
        )
        expected = tuple(self.tg.verify.expected_costs(self.spec.family, n))
        if expected != closed_form_costs(self.family, n):
            problems.append("expected_costs disagrees with the closed form")
        return problems + self.probe.check()


def _check_branches(family: str, n: int, branches: list[tuple]) -> list[str]:
    """Branch count, exact costs, oracle fidelity and uniform probability."""
    problems = []
    expected = closed_form_costs(family, n)
    uniform = 1.0 / branch_count(n)
    if len(branches) != branch_count(n):
        problems.append(f"{len(branches)} branches, expected {branch_count(n)}")
    if len({tuple(b[0]) for b in branches}) != len(branches):
        problems.append("repeated outcome assignment")
    for outcomes, probability, fid, ebits, cbits, impossible in branches:
        if (ebits, cbits) != expected:
            problems.append(f"branch {list(outcomes)} costs {(ebits, cbits)} != {expected}")
        if impossible or fid < FIDELITY_FLOOR:
            problems.append(f"branch {list(outcomes)} fidelity {fid!r}")
        if abs(probability - uniform) > PROBABILITY_ATOL:
            problems.append(f"branch {list(outcomes)} probability {probability!r}")
        if problems:
            break
    return problems


@dataclass
class CliRunOp:
    """One ``telegate run`` with report and trace output, called in-process.

    The run's own trace is |0...0> on the all-zero branch, which the oracle
    maps to itself, so ``probe`` also checks one random branch of a Haar
    input against the benchmark's oracle.
    """

    tg: SimpleNamespace
    family: str
    n: int
    payload: str
    random_inputs: int
    seed: int
    workdir: Path
    probe: Probe
    kind: str = "verify"
    control: bool = False
    executions: int = 0

    @property
    def branches(self) -> int:
        # every basis input plus the random ones, and the recorded trace branch
        return ((1 << self.n) + self.random_inputs) * branch_count(self.n) + 1

    def run(self):
        self.executions += 1
        stem = self.workdir / f"run-{self.family}-{self.seed}-{self.executions}"
        report_path, trace_path = stem.with_suffix(".report.json"), stem.with_suffix(".trace.json")
        argv = [
            "run", "--family", self.family, "--n", str(self.n), "--payload", self.payload,
            "--inputs", f"random:{self.random_inputs}", "--seed", str(self.seed),
            "--trace-out", str(trace_path), "--report-out", str(report_path),
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.tg.cli.main(argv)
        return code, out.getvalue(), report_path, trace_path

    def check(self, result) -> list[str]:
        code, stdout, report_path, trace_path = result
        if code != 0:
            return [f"exit code {code}"]
        problems = []
        if stdout.strip().splitlines()[-1:] != ["PASS"]:
            problems.append("stdout does not end in PASS")
        report = json.loads(report_path.read_text())
        trace = json.loads(trace_path.read_text())
        report_path.unlink()
        trace_path.unlink()
        if not report["passed"]:
            problems.append("report verdict FAIL")
        if report["trials"] != (1 << self.n) + self.random_inputs:
            problems.append(f"report trials {report['trials']}")
        costs = report["expected_costs"]
        if (costs["ebits"], costs["cbits"]) != closed_form_costs(self.family, self.n):
            problems.append(f"report expected_costs {costs}")
        problems += _check_branches(
            self.family,
            self.n,
            [
                (b["outcomes"], b["probability"], b["fidelity"],
                 b["ebits"], b["cbits"], b["impossible"])
                for b in report["branches"]
            ],
        )
        # ``run --trace-out`` records |0...0> on the all-zero branch.
        zero = np.zeros(1 << self.n, dtype=complex)
        zero[0] = 1.0
        branch = [0] * (2 * (self.n - 1))
        problems += check_trace(
            trace, self.family, self.n, self.probe.spec.payload.matrix, zero, branch
        )
        return problems + self.probe.check()


def _pairs(pairs: list) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def check_trace(
    trace: dict,
    family: str,
    n: int,
    payload: np.ndarray,
    amplitudes: np.ndarray,
    branch: list[int],
) -> list[str]:
    """The trace must record the given run, and its final state must be the
    oracle's image of the input the benchmark gave."""
    if trace["family"] != family or trace["n"] != n:
        return [f"trace names {trace['family']} n={trace['n']}"]
    if list(trace["branch"]) != list(branch):
        return [f"trace branch {trace['branch']} != {list(branch)}"]
    recorded_payload = np.array(
        [[complex(re, im) for re, im in row] for row in trace["payload"]["matrix"]]
    )
    if not np.allclose(recorded_payload, payload, atol=1e-11):
        return ["trace payload differs from the one given"]
    if not np.allclose(_pairs(trace["input"]), amplitudes, atol=1e-11):
        return ["trace input differs from the one given"]
    expected = oracle_amplitudes(family, payload, amplitudes, n)
    fid = fidelity(expected, _pairs(trace["final_state"]))
    return [] if fid >= FIDELITY_FLOOR else [f"trace final state fidelity {fid!r}"]


@dataclass
class ReplayOp:
    """``telegate replay`` on a recorded trace; tampered traces must exit 1."""

    tg: SimpleNamespace
    path: Path
    control: bool  # the trace has one outcome bit flipped
    kind: str = "replay"
    branches: int = 1

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return self.tg.cli.main(["replay", str(self.path)])

    def check(self, code) -> list[str]:
        expected = 1 if self.control else 0
        if code != expected:
            what = "tampered trace not detected" if self.control else "intact trace rejected"
            return [f"{what}: exit {code}, expected {expected}"]
        return []


# -- negative controls ---------------------------------------------------------


@dataclass
class InvolutionControl:
    """series-ch with a non-involutory payload must break and be refused.

    With the certificate skipped, some branch must miss the simultaneous-gate
    oracle; with it enforced, ``verify_inputs`` must raise InvolutionRequired.
    """

    tg: SimpleNamespace
    spec: object
    input_state: object
    control: bool = True

    def check(self) -> list[str]:
        problems = []
        branches = self.tg.verify.enumerate_branches(
            self.spec, self.input_state, enforce_involution=False
        )
        if min(b.fidelity for b in branches) >= FIDELITY_FLOOR:
            problems.append("non-involutory series-ch payload passed every branch")
        try:
            self.tg.verify.verify_inputs(self.spec, [self.input_state])
        except self.tg.errors.InvolutionRequired:
            pass
        else:
            problems.append("verify_inputs accepted a non-involutory series-ch payload")
        return problems


# -- workloads -------------------------------------------------------------------


@dataclass
class Plan:
    """A workload's generated operations.

    ``rounds`` are timed, cycled whole; ``warmup`` is the set-up's warm-up;
    ``traced`` is the traced run's fixed operation list.
    """

    rounds: list[list]
    warmup: list
    traced: list
    controls: list = field(default_factory=list)


def _spec(tg: SimpleNamespace, family: str, n: int, payload):
    return tg.protocols.ProtocolSpec(tg.protocols.ProtocolFamily(family), n, payload)


def _state(tg: SimpleNamespace, rng: np.random.Generator, n: int):
    return tg.statevector.StateVector(n, haar_amplitudes(rng, n))


def _branch(rng: np.random.Generator, n: int) -> list[int]:
    return [int(b) for b in rng.integers(0, 2, size=2 * (n - 1))]


def _verify_op(tg, rng, family: str, n: int, inputs: int) -> VerifyOp:
    spec = _spec(tg, family, n, _payload(tg, family, _draw_seed(rng)))
    states = [_state(tg, rng, n) for _ in range(inputs)]
    probe = Probe(tg, spec, states[-1].amplitudes, _branch(rng, n))
    return VerifyOp(tg, family, spec, states, probe)


def _prepare_sweep(tg, rng, workdir: Path, tally: Tally) -> Plan:
    rounds = [[_verify_op(tg, rng, f, 3, inputs=3) for f in FAMILIES] for _ in range(40)]
    plan = Plan(rounds, warmup=rounds[0], traced=[op for ops in rounds[:10] for op in ops])
    for _ in range(3):
        bad = _spec(tg, "series-ch", 3, tg.gates.random_unitary(_draw_seed(rng)))
        plan.controls.append(InvolutionControl(tg, bad, _state(tg, rng, 3)))
    return plan


def _prepare_enum(tg, rng, workdir: Path, tally: Tally) -> Plan:
    # An n=6 operation takes several seconds, so a run holds only a few:
    # the timed ones repeat one family, and the traced run covers all three.
    traced = [_verify_op(tg, rng, f, 6, inputs=1) for f in FAMILIES]
    rounds = [[_verify_op(tg, rng, "parallel-cu", 6, inputs=1)] for _ in range(8)]
    return Plan(rounds, warmup=rounds[0], traced=traced)


def _prepare_cli(tg, rng, workdir: Path, tally: Tally) -> Plan:
    n = 4
    replays = []
    for i in range(12):
        family = FAMILIES[i % 3]
        spec = _spec(tg, family, n, _payload(tg, family, _draw_seed(rng)))
        amplitudes = haar_amplitudes(rng, n)
        branch = _branch(rng, n)
        trace = tg.cli.record_trace(spec, tg.statevector.StateVector(n, amplitudes), branch)
        tally.record(
            f"record_trace {family}",
            check_trace(trace, family, n, spec.payload.matrix, amplitudes, branch),
        )
        tampered = i % 4 == 3
        if tampered:
            trace["branch"][int(rng.integers(len(branch)))] ^= 1
        path = workdir / f"trace-{i}.json"
        path.write_text(json.dumps(trace))
        replays.append(ReplayOp(tg, path, tampered))
    rounds = []
    for r in range(10):
        ops = []
        for j, family in enumerate(FAMILIES):
            payload = f"{PAYLOAD_KIND[family]}:{_draw_seed(rng)}"
            spec = _spec(tg, family, n, tg.gates.parse_gate_spec(payload))
            probe = Probe(tg, spec, haar_amplitudes(rng, n), _branch(rng, n))
            ops.append(CliRunOp(tg, family, n, payload, 4, _draw_seed(rng), workdir, probe))
            ops += [replays[(6 * (3 * r + j) + k) % len(replays)] for k in range(6)]
        rounds.append(ops)
    # The warm-up is the first run and its replays: one family, about a second.
    return Plan(rounds, warmup=rounds[0][:7], traced=rounds[0])


WORKLOADS = {
    "sweep-n3": _prepare_sweep,
    "enum-n6": _prepare_enum,
    "cli-n4": _prepare_cli,
}


def prepare(name: str, tg: SimpleNamespace, seed: int, workdir: Path, tally: Tally) -> Plan:
    """Generate a workload's operations from the seed; why each workload was
    chosen is recorded in BENCHMARK.json."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return WORKLOADS[name](tg, rng, workdir, tally)

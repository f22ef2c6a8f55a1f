"""telegate benchmark: exhaustive-verification latency and throughput.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep-n3 --seed 1 --seconds 20 --trace 0

Each workload runs in this one process on one thread, as a closed loop: the
next operation starts when the previous one returns.  With ``--trace 0`` the
benchmark sets up (import, input generation, the workload's warm-up
operations) three or more times, then runs whole rounds of operations until
``--seconds`` have passed, checks every result and prints the end-to-end
metrics.  With ``--trace 1`` it runs a fixed list of operations from the
seed twice, untraced and then with spans recorded around every public call
into the six modules, and prints the per-layer metrics; the spans are
written to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the machine record and the figures that are not gated.  The exit code
is 0 only when every check passed and every negative control was detected.
"""

from __future__ import annotations

import os

# One thread: keep BLAS from fanning out before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["TELEGATE_THREADS"] = "1"

import argparse
import gc
import importlib
import itertools
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import tracing
from workloads import WORKLOADS, Tally, prepare

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

# Set up as many times as about SETUP_BUDGET_S of set-up allows, judged by
# the first, but at least SETUP_MIN and at most SETUP_MAX times: cheap
# set-ups get a steadier median, and the n=6 one (a warm-up of several
# seconds) is not repeated more than needed.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 2, 25, 4.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "setup_s": "s",
    "verify_s_p50": "s",
    "branches_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Spans reported one by one, with their calls and inclusive seconds.
LAYER_SPANS = (
    "statevector.apply_gate",
    "statevector.project_measure",
    "statevector.discard_qubit",
    "statevector.tensor",
    "statevector.permute_qubits",
    "statevector.fidelity_up_to_phase",
    "statevector.StateVector",
    "gates.validate",
    "gates.controlled",
    "network.build_network",
    "network.Network.copy",
    "network.Network.local_apply",
    "network.Network.local_measure",
    "network.Network.send_cbit",
    "network.Network.read_cbit",
    "protocols.run_protocol",
    "protocols.oracle_effect",
    "verify.enumerate_branches",
    "verify.verify_inputs",
    "cli.main",
    "cli.cmd_run",
    "cli.cmd_replay",
    "cli.record_trace",
    "cli.state_hash",
    "cli.report_to_dict",
)

PER_LAYER_UNITS = {
    **{
        f"{span}.{what}": unit
        for span in LAYER_SPANS
        for what, unit in (("calls", "count"), ("s", "s"))
    },
    **{f"{module}.self_s": "s" for module in tracing.MODULES},
    "statevector.kernel_calls_per_branch": "1/branch",
    "statevector.bytes_computed": "bytes",
    "statevector.peak_register_qubits": "qubits",
    "network.copies_per_branch": "1/branch",
    "gates.validate.calls_per_branch": "1/branch",
    "verify.impossible_branch_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def import_telegate() -> SimpleNamespace:
    """Import the package from this checkout's ``src`` afresh."""
    for name in [m for m in sys.modules if m == "telegate" or m.startswith("telegate.")]:
        del sys.modules[name]
    package = importlib.import_module("telegate")
    if Path(package.__file__).resolve().parent != SRC / "telegate":
        raise ImportError(f"telegate imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(
        **{m: importlib.import_module(f"telegate.{m}") for m in (*tracing.MODULES, "errors")}
    )


def machine_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def set_up(workload: str, seed: int, workdir: Path, tally: Tally):
    """Import, generate the inputs and run the checked warm-up operations."""
    started = time.perf_counter()
    tg = import_telegate()
    plan = prepare(workload, tg, seed, workdir, tally)
    _, results, _ = execute([plan.warmup])
    elapsed = time.perf_counter() - started
    check(results, tally, "warm-up ")
    return elapsed, plan


def execute(rounds, deadline: float | None = None) -> tuple[dict[str, list[float]], list, float]:
    """Closed loop over whole rounds, stopping after the round that ends past
    ``deadline``; returns latencies by operation kind, (operation, result)
    pairs and wall time.

    Results are kept and checked after the loop so that checking stays out
    of the measured wall time.
    """
    samples: dict[str, list[float]] = {"verify": [], "replay": []}
    results = []
    clock = time.perf_counter
    started = clock()
    for ops in rounds:
        for op in ops:
            began = clock()
            result = op.run()
            samples[op.kind].append(clock() - began)
            results.append((op, result))
        if deadline is not None and clock() >= deadline:
            break
    return samples, results, clock() - started


def check(results: list, tally: Tally, label: str = "") -> int:
    """Check every result; returns the planned branches of the operations."""
    for op, result in results:
        tally.record(label + op.kind, op.check(result), op.control)
    return sum(op.branches for op, _ in results)


def run_controls(plan, tally: Tally) -> None:
    for control in plan.controls:
        tally.record("negative control", control.check(), control=True)


def tail(latencies: list[float]) -> dict | None:
    """Highest listed percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if len(latencies) * (1 - p / 100) >= 10:
            value = float(np.percentile(latencies, p))
            return {"percentile": p, "value": value, "samples": len(latencies)}
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_end_to_end(workload: str, seed: int, seconds: float, workdir: Path, tally: Tally):
    """Set up, then time a share of ``seconds``; repeat with a fresh set-up.

    Spreading the set-ups over the run lets ``setup_s`` see the same machine
    as the timed operations.  Each share runs whole rounds until the timed
    wall time reaches its cumulative target.
    """
    setup_times: list[float] = []
    samples: dict[str, list[float]] = {"verify": [], "replay": []}
    branches, wall = 0, 0.0
    setups = SETUP_MIN
    while len(setup_times) < setups:
        # Drop the previous set-up's modules, inputs and results first, so
        # that no set-up pays for collecting another's garbage.
        plan = results = None
        gc.collect()
        elapsed, plan = set_up(workload, seed, workdir, tally)
        setup_times.append(elapsed)
        if len(setup_times) == 1:
            setups = min(SETUP_MAX, max(SETUP_MIN, int(SETUP_BUDGET_S / elapsed)))
        target = seconds * len(setup_times) / setups
        chunk, results, chunk_wall = execute(
            itertools.cycle(plan.rounds), time.perf_counter() + target - wall
        )
        for kind, latencies in chunk.items():
            samples[kind] += latencies
        wall += chunk_wall
        branches += check(results, tally)
    run_controls(plan, tally)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "verify_s_p50": statistics.median(samples["verify"]),
        "branches_per_s": branches / wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "setup_s_each": setup_times,
        "operations": len(samples["verify"]),
        "planned_branches": branches,
        "timed_wall_s": wall,
        "verify_s_tail": tail(samples["verify"]),
        "replays": len(samples["replay"]),
        "replay_s_p50": statistics.median(samples["replay"]) if samples["replay"] else None,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, detail


def layer_metrics(tracer: tracing.Tracer, untraced_s: float, traced_s: float) -> dict[str, float]:
    stats = tracer.per_name()
    metrics: dict[str, float] = {}
    for span in LAYER_SPANS:
        calls, inclusive, _ = stats.get(span, (0, 0.0, 0.0))
        metrics[f"{span}.calls"] = calls
        metrics[f"{span}.s"] = inclusive
    for module in tracing.MODULES:
        metrics[f"{module}.self_s"] = sum(
            own for name, (_, _, own) in stats.items() if name.split(".", 1)[0] == module
        )
    # Every forced branch is one run_protocol call; per-branch ratios use that base.
    branches = metrics["protocols.run_protocol.calls"]
    metrics.update({
        "statevector.kernel_calls_per_branch": tracer.kernel_calls / branches,
        "statevector.bytes_computed": tracer.bytes_computed,
        "statevector.peak_register_qubits": tracer.peak_register_qubits,
        "network.copies_per_branch": metrics["network.Network.copy.calls"] / branches,
        "gates.validate.calls_per_branch": metrics["gates.validate.calls"] / branches,
        "verify.impossible_branch_ratio": (
            tracer.impossible_branches / tracer.branches_enumerated
            if tracer.branches_enumerated else 0.0
        ),
        "trace.overhead_ratio": traced_s / untraced_s,
    })
    return metrics


def traced_pass(ops: list, tally: Tally) -> tuple[tracing.Tracer, float, float, int]:
    """Run the same operations untraced, then traced; check both after.

    Returns the tracer, both wall times and the planned branches of one pass.
    """
    _, untraced, untraced_s = execute([ops])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, traced, traced_s = execute([ops])
    finally:
        tracer.uninstall()
    check(untraced, tally)
    return tracer, untraced_s, traced_s, check(traced, tally)


def measure_layers(workload: str, seed: int, workdir: Path, tally: Tally):
    """Per-layer metrics of a fixed operation list; counts repeat per seed."""
    _, plan = set_up(workload, seed, workdir, tally)
    tracer, untraced_s, traced_s, planned = traced_pass(plan.traced, tally)
    run_controls(plan, tally)

    metrics = layer_metrics(tracer, untraced_s, traced_s)
    OUT.mkdir(parents=True, exist_ok=True)
    spans_file = OUT / f"spans-{workload}-{seed}.npz"
    np.savez_compressed(spans_file, names=np.array(tracer.names), **tracer.span_arrays())
    detail = {
        "operations": len(plan.traced),
        "planned_branches": planned,
        # Branches the program actually forced: today one run_protocol call each.
        "forced_branches": metrics["protocols.run_protocol.calls"],
        "kernel_calls": tracer.kernel_calls,
        "spans": len(tracer.start),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in metrics.items()}, detail


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "telegate" / "__init__.py").is_file():
        print(f"error: no telegate sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = args.workload
    tally = Tally()
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, detail = measure_layers(workload, args.seed, workdir, tally)
        else:
            metrics, detail = measure_end_to_end(workload, args.seed, args.seconds, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = tally.failed == 0 and tally.controls_detected == tally.controls_run
    print(json.dumps({
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "error_rate": tally.failed / tally.attempted,
        "controls": {"run": tally.controls_run, "detected": tally.controls_detected},
        "problems": tally.problems,
        **detail,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

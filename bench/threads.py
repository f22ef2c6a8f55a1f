"""One-off diagnostic: does ``TELEGATE_THREADS`` (``max_workers``) pay?

Usage, from the root of a checkout:

    python3 bench/threads.py --seed 1 [--pairs 10] [--out FILE]

For ``sweep-n3`` and ``enum-n6`` it times the workload's operations with
``verify_inputs(..., max_workers=1)`` and ``max_workers=2`` in pairs, and
alternates which side runs first.  It reports forced branches per second for
each side with its median and quartiles, and how many pairs each side won.
A difference counts as resolved only when one side wins at least nine tenths
of the pairs and the medians differ by more than the ``max_workers=1`` side's
own spread (its third minus first quartile); otherwise it is reported as
unresolved.  Every result is checked as in the benchmark.  This is not part
of the end-to-end metrics; it records the data on which the thread pool can
be kept or deleted.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import run
from workloads import Tally, prepare

# Seconds of sweep-n3 operations per side of a pair; enum-n6 runs one
# operation (one n=6 verification) per side.
SWEEP_WINDOW_S = 3.0


def branches_per_s(ops, workers: int, tally: Tally, window_s: float | None) -> float:
    clock = time.perf_counter
    started = clock()
    branches = 0
    for op in ops:
        report = op.tg.verify.verify_inputs(op.spec, op.inputs, max_workers=workers)
        branches += op.branches
        tally.record(f"verify max_workers={workers}", op.check(report))
        if window_s is not None and clock() - started >= window_s:
            break
    return branches / (clock() - started)


def verdict(serial: list[float], pooled: list[float]) -> dict:
    """Compare max_workers=2 against 1 by the pair rule stated above."""
    q1, median1, q3 = statistics.quantiles(serial, n=4)
    median2 = statistics.median(pooled)
    wins = sum(b > a for a, b in zip(serial, pooled))
    losses = sum(b < a for a, b in zip(serial, pooled))
    resolved = max(wins, losses) >= 0.9 * len(serial) and abs(median2 - median1) > q3 - q1
    if not resolved:
        outcome = "unresolved"
    else:
        outcome = "max_workers=2 faster" if wins > losses else "max_workers=2 slower"
    return {
        "pairs_won_by_max_workers=2": wins,
        "pairs_lost_by_max_workers=2": losses,
        "ratio_of_medians": median2 / median1,
        "max_workers=1_spread": q3 - q1,
        "outcome": outcome,
    }


def summary(rates: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(rates, n=4)
    return {"branches_per_s": rates, "median": median, "q1": q1, "q3": q3}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))

    tg = run.import_telegate()
    tally = Tally()
    record = {
        "seed": args.seed, "pairs": args.pairs, "machine": run.machine_record(), "workloads": {}
    }
    for name in ("sweep-n3", "enum-n6"):
        plan = prepare(name, tg, args.seed, run.OUT, tally)
        ops = [op for ops in plan.rounds for op in ops]
        window = SWEEP_WINDOW_S if name == "sweep-n3" else None
        branches_per_s(ops[:1], 1, tally, None)  # warm-up
        rates: dict[int, list[float]] = {1: [], 2: []}
        for pair in range(args.pairs):
            order = (1, 2) if pair % 2 == 0 else (2, 1)
            for workers in order:
                chosen = ops if window else ops[pair % len(ops) : pair % len(ops) + 1]
                rates[workers].append(branches_per_s(chosen, workers, tally, window))
        record["workloads"][name] = {
            **{f"max_workers={w}": summary(r) for w, r in rates.items()},
            "comparison": verdict(rates[1], rates[2]),
        }
        print(name, json.dumps(record["workloads"][name]["comparison"]), flush=True)
    record["checks"] = {
        "attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems
    }
    text = json.dumps(record, indent=1)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
    print(text)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

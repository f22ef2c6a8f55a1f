"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 bench/spread.py --workload enum-n6 --seeds 1-10 [--trace 0] [--out FILE]

Runs ``bench/run.py`` once per seed, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``.  For every metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(third minus first quartile, as a share of the median); for end-to-end
metrics it also prints the bound and a third of it, the largest spread at
which the benchmark counts as steady.  ``--out`` writes every run's full
output and the summary as one JSON record, which is how baselines are kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(config: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    argv = [
        *config["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(results: list[dict], bounds: dict[str, float]) -> dict[str, dict]:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        row = {"median": statistics.median(values), "q1": q1, "q3": q3}
        row["spread"] = (q3 - q1) / row["median"] if row["median"] else 0.0
        if name in bounds:
            row["bound"] = bounds[name]
        summary[name] = row
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        detail, result = run_once(config, args.workload, seed, args.trace)
        runs.append({"detail": detail, "result": result})
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                         if k in bounds or not args.trace),
              flush=True)
    summary = summarize([r["result"] for r in runs], bounds)
    steady = True
    for name, row in summary.items():
        line = (
            f"{name:40s} median={row['median']:.6g} q1={row['q1']:.6g} "
            f"q3={row['q3']:.6g} spread={row['spread']:.4f}"
        )
        if "bound" in row:
            line += f" bound={row['bound']} third={row['bound'] / 3:.4f}"
            if row["spread"] >= row["bound"] / 3:
                line += "  NOT STEADY"
                steady = False
        if "bound" in row or args.trace:
            print(line)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "workload": args.workload,
            "trace": args.trace,
            "run_seconds": config["run_seconds"],
            "machine": runs[0]["detail"]["machine"],
            "summary": summary,
            "runs": runs,
        }, indent=1) + "\n")
    return 0 if steady and all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

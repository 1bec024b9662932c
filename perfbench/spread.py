"""Run one workload on several seeds and report each end-to-end metric's
median and quartile spread, the way a regression check reads them.

Usage: python3 perfbench/spread.py --workload NAME --seeds 301-310 [--seconds 20]

The spread is (q3 - q1) / median over the runs, with the quartiles of
``statistics.quantiles(values, n=4)``.  Prints one line per metric and then
a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(ROOT / "BENCHMARK.json") as fh:
            args.seconds = json.load(fh)["run_seconds"]

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    runs = {"passes": [], "elapsed_s": [], "attempted": 0, "failed": 0}
    for seed in args.seeds:
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        info, result = json.loads(lines[0]), json.loads(lines[-1])
        runs["passes"].append(info["passes"])
        runs["elapsed_s"].append(round(time.monotonic() - t0, 1))
        runs["attempted"] += result["attempted"]
        runs["failed"] += result["failed"]
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} known answers failed", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    summary = {}
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                         "unit": units[name]}
        print(f"{name:16s} median {med:12.6g} {units[name]:5s} spread {(q3 - q1) / med:.4f}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
                      "runs": runs, "metrics": summary}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

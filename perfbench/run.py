"""Benchmark runner for vlie.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass of the workload runs in a fresh
process (``worker.py``), so memos, imports and peak memory never carry over
between passes.  Passes repeat until ``--seconds`` have elapsed, with at
least two (three for the query stream), and every time is a median over passes: set-up, wall and CPU
time per pass, and for the latency percentiles each request's median
latency.  Every time is at the reference speed of ``calibration.py``: the
worker divides each measured span by the slowdown that a calibration loop,
run from a timer in the middle of the work, met during it.  The query
stream sends new requests in every pass, so its percentiles are taken over
all requests of the run.  Percentiles are
Harrell-Davis estimates (``quantile``).

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of one traced pass, next to
one untraced pass of the same inputs whose wall time gives the tracing
overhead.  The lines before it give the environment, every metric with its
unit, the failure ratio and the sample counts.  Each run is also appended
to ``.perfbench_out/results.jsonl``, and a traced pass writes its spans to
``.perfbench_out/trace/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
TIME_LIMIT_S = 170.0

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402


def metric_units(trace: int) -> dict[str, str]:
    """Name and unit of every metric a run reports, from ``BENCHMARK.json``:
    the end-to-end metrics, or with tracing the per-layer ones."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by its continued
    fraction (modified Lentz)."""
    if x <= 0.0 or x >= 1.0:
        return max(0.0, min(1.0, x))
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return front * f


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all order
    statistics, the weights peaking at rank p*n.  Unlike one or two order
    statistics, it does not jump when the sample holds a gap in cost at the
    quantile, as a request mix of a few cost classes does."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def environment() -> dict:
    with open("/proc/loadavg") as fh:
        load = [float(x) for x in fh.read().split()[:3]]
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "loadavg": load}


def run_pass(args, pass_index: int, traced: bool, deadline: float) -> dict:
    trace_dir = str(OUT_DIR / "trace") if traced else "-"
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(ROOT), args.workload,
           str(args.seed), str(pass_index), args.size, trace_dir]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def request_latencies_ms(passes: list[dict], stream: bool) -> list[float]:
    """One latency per request: every request of a stream, or the median
    over passes of each request of a workload that repeats its requests."""
    if stream:
        return [x * 1000 for p in passes for x in p["latencies_s"]]
    per_request = zip(*(p["latencies_s"] for p in passes))
    return [statistics.median(xs) * 1000 for xs in per_request]


def end_to_end(passes: list[dict], latencies_ms: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "query_p50_ms": quantile(latencies_ms, 0.5),
        "query_p90_ms": quantile(latencies_ms, 0.9),
        "queries_per_s": statistics.median(p["attempted"] / p["wall_s"] for p in passes),
    }


def per_layer(plain: dict, traced: dict) -> dict[str, float]:
    out = dict(traced["per_layer"])
    # the traced pass runs no calibration, so compare the times as measured
    out["trace.overhead_s"] = traced["measured"]["wall_s"] - plain["measured"]["wall_s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a reduced workload for the self-check")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vlie" / "__init__.py").is_file():
        print(f"no vlie sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src" / "vlie"), quiet=1)
    env_before = environment()
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    if args.trace:
        plain = [run_pass(args, 0, False, deadline)]
        traced = [run_pass(args, 0, True, deadline)]
    else:
        plain, traced = [], []
        # the stream's percentiles need the requests of three passes
        min_passes = 3 if WORKLOADS[args.workload].stream else 2
        while len(plain) < min_passes or time.monotonic() - start < args.seconds:
            plain.append(run_pass(args, len(plain), False, deadline))

    runs = plain + traced
    attempted = sum(p["attempted"] for p in runs)
    failed = sum(p["failed"] for p in runs)
    for p in runs:
        for failure in p["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)

    latencies_ms = request_latencies_ms(plain, WORKLOADS[args.workload].stream)
    p90_ms = quantile(latencies_ms, 0.9)
    measured = per_layer(plain[0], traced[0]) if args.trace else end_to_end(plain, latencies_ms)
    units = metric_units(args.trace)
    metrics = {name: measured[name] for name in units}
    info = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "inputs_digest": plain[0]["inputs_digest"], "passes": len(plain),
        "traced_passes": len(traced),
        "pass_wall_s": [round(p["wall_s"], 4) for p in plain],
        "measured": {k: [round(p["measured"][k], 4) for p in plain] for k in plain[0]["measured"]},
        "query_samples": len(latencies_ms),
        "samples_beyond_p90": sum(x > p90_ms for x in latencies_ms),
        "fail_ratio": failed / attempted,
        "env": {"before": env_before, "after": environment()},
    }
    print(json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    print(f"{'fail_ratio':48s} {failed / attempted:14.6g} ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps({**info, "result": result}, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

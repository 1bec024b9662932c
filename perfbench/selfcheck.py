"""Fast self-check of the benchmark itself.

Usage: python3 perfbench/selfcheck.py

Runs every workload at tiny size on two seeds, untraced and traced, and
asserts that every metric ``BENCHMARK.json`` names is emitted, with the unit
it gives, that no known answer fails, and that a second seed changes the
generated inputs but no known answer, and that every untraced pass ran its
calibration rounds.  It also checks the oracle against the known Virasoro character, the workload
design seen in the traces, and that the benchmark refuses to run where the
``vlie`` sources are missing.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
from spans import STAT_UNITS  # noqa: E402
from workloads import VIRASORO_CHARACTER_10, WORKLOADS, partition_counts  # noqa: E402

with open(ROOT / "BENCHMARK.json") as _fh:
    SPEC = json.load(_fh)


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def parse(proc) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def main() -> int:
    problems: list[str] = []

    def check(cond: bool, what: str):
        if not cond:
            problems.append(what)

    check(partition_counts([2], 10) == VIRASORO_CHARACTER_10,
          "partition oracle disagrees with the known Virasoro character")
    check(sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json lists other workloads than workloads.py")
    for m in SPEC["per_layer"]:
        check(STAT_UNITS.get(m["name"].rsplit(".", 1)[1]) == m["unit"],
              f"per-layer metric {m['name']} has unit {m['unit']}")
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    calls = {}
    for workload in WORKLOADS:
        digests = []
        for seed in (1, 2):
            proc = run(workload, seed, 0)
            check(proc.returncode == 0, f"{workload} seed {seed} exited {proc.returncode}: "
                  + proc.stderr[-500:])
            if proc.returncode:
                continue
            info, result = parse(proc)
            digests.append(info["inputs_digest"])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{workload}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and info["fail_ratio"] == 0,
                  f"{workload} seed {seed}: {result['failed']} known answers failed")
            check(list(result["metrics"]) == end_to_end,
                  f"{workload}: end-to-end metrics {list(result['metrics'])}")
            check(all(m["value"] > 0 for m in result["metrics"].values()),
                  f"{workload}: an end-to-end metric is not positive")
            check(all(x > 0 for x in info["measured"]["calibration_s"]),
                  f"{workload}: a pass ran no calibration rounds")
        check(len(digests) == 2 and digests[0] != digests[1],
              f"{workload}: seeds 1 and 2 generated the same inputs")

        proc = run(workload, 3, 1)
        check(proc.returncode == 0, f"{workload} traced exited {proc.returncode}: "
              + proc.stderr[-500:])
        if proc.returncode:
            continue
        _, result = parse(proc)
        check(result["correct"], f"{workload} traced: {result['failed']} known answers failed")
        check(list(result["metrics"]) == per_layer,
              f"{workload}: per-layer metrics differ from BENCHMARK.json")
        calls[workload] = {
            name: m["value"] for name, m in result["metrics"].items() if name.endswith(".calls")
        }

    def layer_calls(workload: str, module: str) -> float:
        return sum(v for k, v in calls.get(workload, {}).items() if k.startswith(module + "."))

    for workload in ("vla-windows", "lattice-poisson"):
        check(layer_calls(workload, "vacuum_module") == 0,
              f"{workload} calls into vacuum_module")
    check(layer_calls("lattice-poisson", "vertex_lie") == 0, "lattice-poisson calls into vertex_lie")
    # a poisson request builds one algebra and verifies it twice; bk-compare
    # builds and verifies once
    lat = calls.get("lattice-poisson", {})
    check(lat.get("lattice_c2.verify_axioms.calls")
          == 2 * lat.get("lattice_c2.PLAlgebra.construct.calls", 0)
          - lat.get("lattice_c2.bk_compare.calls", 0),
          "lattice-poisson: verify_axioms should run twice per poisson request")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run("query-stream", 1, 0, cwd=bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "the benchmark ran without the vlie sources")
    shutil.rmtree(bare)

    for p in problems:
        print("SELF-CHECK FAILED:", p)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the golden CLI output that the workloads compare against.

Usage: python3 perfbench/golden.py

Runs every request of ``workloads.golden_requests()`` through ``vlie``'s
``cli.main`` in process and stores, per request, the exit code and a hash
of its standard output in ``perfbench/golden.json``.  Run it only on a
commit whose output is known to be right; the benchmark then fails any
later commit whose output differs.  Structures are built once per builder
name here, which changes no output because they never change after
construction.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path


def main() -> int:
    bench_dir = Path(__file__).resolve().parent
    sys.path.insert(0, str(bench_dir))
    sys.path.insert(0, str(bench_dir.parent / "src"))
    from vlie import cli
    from workloads import GOLDEN_PATH, golden_requests, output_digest, request_key, run_cli

    cli.build_structure = functools.lru_cache(maxsize=None)(cli.build_structure)
    golden = {}
    for argv in golden_requests():
        code, stdout = run_cli(argv)
        if code != 0:
            print(f"exit {code} for {argv}", file=sys.stderr)
            return 1
        golden[request_key(argv)] = output_digest(code, stdout)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(golden)} outputs in {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

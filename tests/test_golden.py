"""Every request recorded in the benchmark's golden file (perfbench/golden.json)
still gives byte-identical output: the same exit code and the same digest of
its standard output.  Structures are built once per builder name, as
perfbench/golden.py does when it records the file; they never change after
construction, so no output depends on it."""

import functools
import importlib.util
import sys
from pathlib import Path

from vlie import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def test_golden_outputs_unchanged(monkeypatch):
    workloads = load_workloads(monkeypatch)
    monkeypatch.setattr(cli, "build_structure", functools.lru_cache(maxsize=None)(cli.build_structure))
    golden = workloads.load_golden()
    requests = workloads.golden_requests()
    assert {workloads.request_key(argv) for argv in requests} == set(golden)
    mismatches = []
    for argv in requests:
        code, stdout = workloads.run_cli(argv)
        if workloads.output_digest(code, stdout) != golden[workloads.request_key(argv)]:
            mismatches.append(argv)
    assert mismatches == []

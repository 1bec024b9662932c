"""One pass of one workload in a fresh process.

Usage: python3 perfbench/worker.py ROOT WORKLOAD SEED PASS SIZE TRACE_DIR|-

Generates the inputs from the seed (and, for a stream workload, the pass
number, so each pass sends new requests), imports ``vlie`` from ``ROOT/src`` and
builds what the workload checks (the set-up), then runs the verdict items in
order, timing each one, and checks every answer.  Prints one JSON object.
With a trace directory the pass runs under the span tracer and writes its
spans there at the end.

An untraced pass runs a calibration loop from a timer signal in the middle
of its work (``calibration.py``) and divides each measured span by the
slowdown the loop met during it, so it reports its times at the reference
speed, next to the times as measured.  A traced pass runs no calibration:
its rounds would land in the spans' self times.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from calibration import Sampler


def main(argv: list[str]) -> int:
    root, workload_name, seed, pass_index, size, trace_dir = argv
    src = Path(root).resolve() / "src"
    sys.path.insert(0, str(src))

    from workloads import WORKLOADS, inputs_digest, load_golden

    workload = WORKLOADS[workload_name]
    inputs = workload.generate(f"{seed}/{pass_index}" if workload.stream else int(seed), size)
    golden = load_golden()

    sampler = Sampler()
    if trace_dir == "-":
        sampler.start()
        sampler.idle()
    setup_clock = sampler.clock()
    import vlie
    import vlie.cli  # noqa: F401  (the tracer wraps functions in every module)

    if Path(vlie.__file__).resolve().parent != src / "vlie":
        print(f"vlie imported from {vlie.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if trace_dir != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    built = workload.setup(inputs)
    spans = [(setup_clock, sampler.clock())]

    items = workload.items(inputs, built, golden)
    failures = []
    for request_id, item in enumerate(items):
        if tracer is not None:
            tracer.request_id = request_id
        start = sampler.clock()
        try:
            result = item.run()
            error = None
        except Exception as exc:  # a raised verdict counts as a failure
            result, error = None, f"{type(exc).__name__}: {exc}"
        spans.append((start, sampler.clock()))
        if error is None:
            error = item.check(result)
        if error is not None:
            failures.append(f"{item.label}: {error}")
    if trace_dir == "-":
        sampler.idle()
        sampler.stop()

    # per span: work time, work CPU time, slowdown (1 without calibration)
    measured = [(b[1] - a[1], b[2] - a[2], sampler.slowdown(a[0], b[0]) if sampler.ticks else 1.0)
                for a, b in spans]
    setup, items_measured = measured[0], measured[1:]
    record = {
        "inputs_digest": inputs_digest(inputs),
        "setup_s": setup[0] / setup[2],
        "wall_s": sum(t / k for t, _, k in items_measured),
        "cpu_s": sum(c / k for _, c, k in items_measured),
        "latencies_s": [t / k for t, _, k in items_measured],
        "measured": {
            "setup_s": setup[0],
            "wall_s": sum(t for t, _, _ in items_measured),
            "cpu_s": sum(c for _, c, _ in items_measured),
            "setup_slowdown": setup[2],
            "slowdown": sum(t for t, _, _ in items_measured)
            / sum(t / k for t, _, k in items_measured),
            "calibration_s": sampler.spent_s,
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(items),
        "failed": len(failures),
        "failures": failures[:5],
    }
    if tracer is not None:
        tracer.uninstall()
        record["per_layer"] = tracer.summary()
        tracer.write(Path(trace_dir) / f"{workload_name}-pass{pass_index}")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

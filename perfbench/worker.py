"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --spawned T0
        [--check] [--trace] [--in-process]

T0 is the parent's `time.perf_counter()` just before it started this
process (the clock is system-wide), so the reported set-up time covers
interpreter start, `import vexpf` and input generation, up to the first
op.  The ops then run back to back, each timed on its own, with the
machine-speed probe of speed.py run between them and after the last
(outside the ops' times; `wall_s` is the sum of the ops' times); afterwards,
untimed, come the output checks (with --check) and the per-layer summary
(with --trace).  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--in-process", action="store_true")
    parser.add_argument("--spans", default=None, help="write the spans here (JSON lines)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE.parent / "src"))
    import vexpf  # noqa: F401  (part of set-up)

    import workloads
    from speed import Probe
    from tracer import Tracer, layer_metrics

    work = workloads.build(args.workload, args.seed, args.in_process)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        cache = work.cache_counts()

    probe = Probe()
    outputs, starts, latencies, errors = [], [], [], []
    first = time.perf_counter()
    for i, (_, op) in enumerate(work.ops):
        probe.due()
        t0 = time.perf_counter()
        try:
            out = tracer.op(op) if tracer else op()
        except Exception as exc:  # a failing op is counted, not fatal
            out = None
            errors.append((i, f"{type(exc).__name__}: {exc}"))
        t1 = time.perf_counter()
        outputs.append(out)
        starts.append(t0)
        latencies.append(t1 - t0)
    probe()

    setup_s = first - args.spawned
    result = {
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "latencies": latencies,
        "scaled_setup_s": setup_s * probe.factor(args.spawned, first),
        "scaled_latencies": [
            lat * probe.factor(t0, t0 + lat) for t0, lat in zip(starts, latencies)
        ],
        "probe_s": statistics.median(probe.seconds),
        "labels": [label for label, _ in work.ops],
        "errors": errors,
    }
    if tracer:
        tracer.uninstall()
        after = work.cache_counts()
        extra = {
            "straighten_hits": after["straighten_hits"] - cache["straighten_hits"],
            "straighten_misses": after["straighten_misses"] - cache["straighten_misses"],
            "memo_entries": after["memo_entries"],
        }
        result["per_layer"] = layer_metrics(tracer.summary(), extra)
        if args.spans:
            with open(args.spans, "w") as fh:
                for span in tracer.spans():
                    fh.write(json.dumps(span) + "\n")
    raised = {i for i, _ in errors}
    result["failed"] = sorted(raised)
    if args.check:
        t0 = time.perf_counter()
        try:
            bad = work.check(outputs, raised)
        except Exception as exc:  # a check that raises fails every op
            bad = range(len(outputs))
            errors.append((None, f"check: {type(exc).__name__}: {exc}"))
        result["check_s"] = time.perf_counter() - t0
        result["failed"] = sorted(set(bad) | raised)
    result["digests"] = [workloads.digest(out) for out in outputs]
    usage = resource.RUSAGE_CHILDREN if args.workload == "verify" and not args.in_process \
        else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

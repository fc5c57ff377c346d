"""Run the workloads over a series of seeds, interleaved, and summarise.

    python3 perfbench/series.py --seeds 1-10 --seconds 20 [--trace 0]

For each seed the workloads run one after another (pfaffian, descent,
census, verify, then the next seed), so a slow stretch of a shared
machine spreads over all of them.  Each run's result line and notes go
to .bench_out/series-<first seed>-<last seed>-trace<t>.jsonl; the summary
gives, per workload and metric, the median over the seeds and the spread
(upper minus lower quartile, as a share of the median).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import OUT, WORKLOADS

HERE = Path(__file__).resolve().parent


def seed_range(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    log = OUT / f"series-{args.seeds[0]}-{args.seeds[-1]}-trace{args.trace}.jsonl"
    results = {name: [] for name in WORKLOADS}
    with open(log, "w") as fh:
        for seed in args.seeds:
            for name in WORKLOADS:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace)],
                    stdout=subprocess.PIPE, text=True, check=False,
                )
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"error: {name} seed {seed} exited {proc.returncode}", file=sys.stderr)
                    return 1
                result = json.loads(lines[-1])
                notes = json.loads(next(x for x in lines if x.startswith("notes "))[6:])
                fh.write(json.dumps({"result": result, "notes": notes}) + "\n")
                fh.flush()
                results[name].append(result)
                print(f"{name:9s} seed {seed:3d}  correct={result['correct']}  "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)

    print(f"\nper-run results in {log}")
    print(f"{'workload':9s} {'metric':34s} {'median':>14s} {'spread':>7s} {'min':>14s} {'max':>14s}")
    for name, runs in results.items():
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            print(f"{name:9s} {metric:34s} {statistics.median(values):14.6g} "
                  f"{spread(values):7.3f} {min(values):14.6g} {max(values):14.6g} {unit}")
    return 0 if all(r["correct"] for runs in results.values() for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

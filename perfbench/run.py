"""Run one workload of the vexpf benchmark and print its metrics.

    python3 perfbench/run.py --workload pfaffian --seed 1 --seconds 20 --trace 0

One client drives the load in a closed loop: passes run one after
another, each in a fresh interpreter (so every cache starts cold, as for
a CLI invocation), and inside a pass the ops run back to back.  Every
pass repeats the same seeded inputs.  The number of passes is fixed by
the workload and --seconds (see pass_count); the first pass also checks
every output, untimed.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The
end-to-end times and the bench.* walls are scaled to a reference machine
speed (speed.py); the raw ones are printed in `notes`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNTS, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pfaffian", "descent", "census", "verify")
OUT = ROOT / ".bench_out"  # raw passes and spans, for later analysis
PASS_TIMEOUT_S = 150
# Seconds one pass takes at the seed commit (2-vCPU VM, CPython 3.11),
# process start to exit, checks excluded.
PASS_SECONDS = {"pfaffian": 4.0, "descent": 3.3, "census": 3.3, "verify": 2.5}


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------


def steal_ticks() -> int:
    """Steal ticks summed over all CPUs, from /proc/stat (0 where absent)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def machine_record() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "steal_ticks": steal_ticks(),
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def run_pass(workload: str, seed: int, *, check=False, trace=False, in_process=False,
             spans=None) -> dict:
    flags = ["--check"] * check + ["--trace"] * trace + ["--in-process"] * in_process
    if spans:
        flags += ["--spans", str(spans)]
    spawned = time.perf_counter()
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--spawned", repr(spawned), *flags,
    ]
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=PASS_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"pass of {workload} exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pass_count(workload: str, seconds: float, trace: bool) -> int:
    """Passes for a run of about `seconds` at the seed commit.  The count
    depends only on the workload and `seconds`, so every commit measures
    the same number of ops and the tail percentile stays the same."""
    count = max(3, round(seconds / PASS_SECONDS[workload]))
    return count + count % 2 if trace else count


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """The run's passes, back to back.  The first pass also checks every
    output.  Traced runs alternate untraced and traced passes."""
    in_process = trace and workload == "verify"
    passes = []
    spans = None
    for i in range(pass_count(workload, seconds, trace)):
        traced = trace and i % 2 == 1
        if traced and spans is None:
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{workload}-{seed}.jsonl"
        res = run_pass(
            workload, seed, check=i == 0, trace=traced, in_process=in_process,
            spans=spans if traced else None,
        )
        res["traced"] = traced
        passes.append(res)
    return passes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _betainc(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b), by its
    continued fraction (modified Lentz)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    ) / a
    tiny = 1e-300
    f = c = 1.0
    d = 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-14:
            break
    return front * (f - 1.0)


def hd_median(values) -> float:
    """The Harrell-Davis estimate of the median: every order statistic
    weighted by a Beta((n+1)/2, (n+1)/2) density, so that the noise of the
    one op that happens to sit in the middle is averaged with that of its
    neighbours."""
    ordered = sorted(values)
    n = len(ordered)
    a = (n + 1) / 2.0
    cdf = [_betainc(a, a, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def tail_percentile(values):
    """The highest percentile with at least ten values beyond it:
    (percentile, value, count)."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 11, 0)
    return 100.0 * (k + 1) / n, ordered[k], n


def pass_figures(passes: list, key: str = "scaled_latencies") -> dict:
    """Wall time and latencies over a set of passes of one run.  Each
    pass runs the same inputs from a cold start; a pass's wall time is
    the sum of its ops' times, and an op's latency is its median over the
    passes.  `every` holds one latency per op executed in the run, each
    at its op's median, so that a percentile counts executions without
    landing on the slowest repeat of one input.  The times are scaled to
    the reference speed (speed.py), or raw with key="latencies"."""
    wall = statistics.median(sum(p[key]) for p in passes)
    per_op = [statistics.median(col) for col in zip(*(p[key] for p in passes))]
    every = [x for x in per_op for _ in passes]
    return {"wall_s": wall, "ops_per_s": len(per_op) / wall, "per_op": per_op, "every": every}


def tally(passes: list):
    """(attempted, failed) op executions.  An execution fails when its op
    raised, when its output differs from the first pass's, or when the
    first pass's output of that op failed a check."""
    first = passes[0]
    checked_bad = set(first["failed"])
    attempted = failed = 0
    for p in passes:
        raised = set(p["failed"])
        for i, d in enumerate(p["digests"]):
            attempted += 1
            if d != first["digests"][i] or i in checked_bad or i in raised:
                failed += 1
    return attempted, failed


def end_to_end(passes: list) -> tuple:
    figs = pass_figures(passes)
    pct, tail, count = tail_percentile(figs["every"])
    metrics = {
        "wall_s": (figs["wall_s"], "s"),
        "ops_per_s": (figs["ops_per_s"], "1/s"),
        "op_ms_p50": (hd_median(figs["per_op"]) * 1000.0, "ms"),
        "op_ms_tail": (tail * 1000.0, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median(p["scaled_setup_s"] for p in passes), "s"),
    }
    raw = pass_figures(passes, "latencies")
    notes = {
        "ops_per_pass": len(passes[0]["latencies"]),
        "passes": len(passes),
        "op_ms_tail_percentile": round(pct, 1),
        "op_ms_tail_of_ops": count,
        "raw": {
            "wall_s": raw["wall_s"],
            "op_ms_p50": hd_median(raw["per_op"]) * 1000.0,
            "op_ms_tail": tail_percentile(raw["every"])[1] * 1000.0,
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "probe_ms": statistics.median(p["probe_s"] for p in passes) * 1000.0,
        },
    }
    return metrics, notes


def per_layer(passes: list) -> tuple:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    layers = [p["per_layer"] for p in traced]
    metrics = {}
    unsteady = []
    for name in PER_LAYER:
        values = [lay[name] for lay in layers]
        if name in COUNTS and len(set(values)) > 1:
            unsteady.append(name)
        metrics[name] = (statistics.median(values), "count" if name in COUNTS else "s")
    for name in ("gamma.swell", "gamma.straighten_hit_frac", "triples.direct_hit_frac"):
        metrics[name] = (metrics[name][0], "ratio")
    untraced_wall = pass_figures(plain)["wall_s"]
    traced_wall = pass_figures(traced)["wall_s"]
    metrics["bench.untraced_wall_s"] = (untraced_wall, "s")
    metrics["bench.traced_wall_s"] = (traced_wall, "s")
    metrics["bench.trace_overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics, {"counts_differ_between_passes": unsteady}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vexpf" / "__init__.py").is_file():
        print(f"error: no vexpf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    before = machine_record()
    started = time.perf_counter()
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    after = machine_record()
    OUT.mkdir(exist_ok=True)
    raw = OUT / f"passes-{args.workload}-{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps(passes))

    attempted, failed = tally(passes)
    if args.trace:
        metrics, notes = per_layer(passes)
        correct = failed == 0 and not notes["counts_differ_between_passes"]
    else:
        metrics, notes = end_to_end(passes)
        correct = failed == 0
    notes.update(
        workload=args.workload, seed=args.seed, fail_frac=failed / attempted,
        machine={"before": before, "after": after,
                 "steal_ticks_during_run": after["steal_ticks"] - before["steal_ticks"]},
        run_s=time.perf_counter() - started, check_s=passes[0]["check_s"],
        first_pass_failures=[passes[0]["labels"][i] for i in passes[0]["failed"]],
        errors=passes[0]["errors"][:5],
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6f} {unit}")
    print(f"{'fail_frac':34s} {failed / attempted:14.6f} ratio  ({failed} of {attempted} ops)")
    print("notes " + json.dumps(notes, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

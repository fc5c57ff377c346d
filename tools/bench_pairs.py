"""Compare two revisions on one perfbench workload in alternating pairs.

    python3 tools/bench_pairs.py REV_A REV_B --workload W --seed S --pairs N

Each revision is unpacked with `git archive` into a temporary directory,
so neither run sees the checkout's bytecode cache or `.bench_out`.  Pair
i runs `perfbench/run.py --workload W --seed S --seconds 20 --trace 0`
once in each tree, with PYTHONDONTWRITEBYTECODE=1: A first in odd pairs
and B first in even ones, so a drift of the machine lands on both sides.

For each end-to-end metric of BENCHMARK.json it prints the medians and
quartiles (`statistics.quantiles(n=4)`) of both sides, how many pairs B
won in the metric's better direction, and whether the gap between the
medians exceeds A's quartile spread q3 - q1: a gain claimed for B needs
both a win in nearly every pair and a gap wider than A's spread.
`--out FILE` also writes every run's metrics and the summary as JSON.
A reader that closes stdout early (`| head`) ends it with exit 1 and no
traceback, as `vexpf` does.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--seconds", "20", "--trace", "0"]


def end_to_end_metrics() -> dict:
    """{metric name: True when higher is better} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}


def checkout(rev: str, dest: Path) -> None:
    """Unpack the tree of rev into dest with `git archive`."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One perfbench run in tree: the last line of its stdout, parsed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, *RUN, "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=env, check=False)
    if proc.returncode:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                         + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(a_runs: list, b_runs: list, higher_better: dict) -> list:
    """One row per metric from paired runs, each run a map {metric: value}:
    medians and quartiles of A and B, B's wins out of the pairs, B's
    median against A's as a fraction, and whether the gap between the
    medians exceeds A's quartile spread."""
    rows = []
    for name, higher in higher_better.items():
        a = [run[name] for run in a_runs]
        b = [run[name] for run in b_runs]
        qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        rows.append({
            "metric": name,
            "a_median": qa[1], "a_q1": qa[0], "a_q3": qa[2],
            "b_median": qb[1], "b_q1": qb[0], "b_q3": qb[2],
            "b_wins": wins, "pairs": len(a),
            "b_vs_a": (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0,
            "gap_exceeds_a_spread": abs(qb[1] - qa[1]) > qa[2] - qa[0],
        })
    return rows


def format_row(row: dict) -> str:
    return (
        f"{row['metric']:12s} A {row['a_median']:.6g} [{row['a_q1']:.6g}, {row['a_q3']:.6g}]"
        f"  B {row['b_median']:.6g} [{row['b_q1']:.6g}, {row['b_q3']:.6g}]"
        f"  B {row['b_vs_a']:+.1%}, better {row['b_wins']}/{row['pairs']}"
        f", gap > A's spread: {'yes' if row['gap_exceeds_a_spread'] else 'no'}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, help="write every run and the summary here as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    try:
        return run_pairs(args)
    except BrokenPipeError:
        return closed_stdout()


def run_pairs(args) -> int:
    """The alternating runs of main's arguments, their table on stdout and
    their JSON in --out."""
    higher_better = end_to_end_metrics()
    runs = {"a": [], "b": []}
    correct = {"a": True, "b": True}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"a": Path(tmp) / "a", "b": Path(tmp) / "b"}
        for side, rev in (("a", args.rev_a), ("b", args.rev_b)):
            trees[side].mkdir()
            checkout(rev, trees[side])
        for pair in range(1, args.pairs + 1):
            for side in ("a", "b") if pair % 2 else ("b", "a"):
                result = run_once(trees[side], args.workload, args.seed)
                correct[side] &= result["correct"]
                runs[side].append({name: m["value"] for name, m in result["metrics"].items()})
            print(f"pair {pair}/{args.pairs} done", file=sys.stderr, flush=True)
    rows = summarize(runs["a"], runs["b"], higher_better)
    if args.out:  # before the table, so a closed stdout loses no run
        args.out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "rev_a": args.rev_a,
            "rev_b": args.rev_b, "correct": correct, "runs": runs, "summary": rows,
        }, indent=1))
    print(f"{args.workload} --seed {args.seed}, {args.pairs} pairs, A = {args.rev_a}, "
          f"B = {args.rev_b}, all correct: A {correct['a']}, B {correct['b']}")
    for row in rows:
        print(format_row(row))
    sys.stdout.flush()
    return 0


def closed_stdout() -> int:
    """Exit 1 quietly when the reader has closed stdout (`... | head`), as
    `vexpf` does: stdout's descriptor goes to devnull, so the flush at exit
    cannot raise again.  A stdout with no descriptor is left as it is."""
    with contextlib.suppress(OSError, ValueError):
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1


if __name__ == "__main__":
    sys.exit(main())

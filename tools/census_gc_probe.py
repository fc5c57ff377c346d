"""Where the timed ops of census, pfaffian and descent meet the garbage
collector.

    python3 tools/census_gc_probe.py [REV]

perfbench runs each pass in a fresh interpreter with no bytecode cache
and collects no garbage before the first op, so how many objects the
set-up leaves alive decides whether op 0 takes a generation-0
collection (about 0.01 ms) or a generation-1 one (0.7-1.3 ms, which
triples census `wall_s`, and would make pfaffian's op 0, `r_family((4,))`
at about 0.18 ms, its slowest op).  `wall_s` sums every op, so a set-up
that ends at (x, 10, 2) costs as much: its generation-1 collection lands
in a later op.  This probe copies the checkout's `src/` and `perfbench/`
(no `__pycache__`) into a temporary directory, or, given a git revision
REV, unpacks those two directories of REV there with `git archive`, as
tools/bench_pairs.py does, so a parent commit is read by the same probe
as the change.  It then patches the copy's `worker.py` to read
`gc.get_count()` just before `probe = Probe()` and to record the
generation of each collection that starts during any timed op, and runs
each workload there at each seed in a fresh interpreter with
PYTHONDONTWRITEBYTECODE=1.  The checkout is only read.  A revision git
cannot read gets one line on stderr and exit 2, before any workload
runs.

It prints one line per workload and seed,

    census --seed 1: count (44, 0, 3), collections in ops [0]

and exits 1 if any timed op takes a collection of generation 1 or more;
tests/test_census_gc_probe.py runs it and asserts exit 0.  A reader
that closes stdout early (`| head -2`) ends it with exit 1 and no
traceback, as `vexpf` does.  The hook
allocates too, so compare trees only through this same probe.

Where the edge sits: importing vexpf takes generation-0 collections
while `cli`, `gamma` and `gysin` compile, the last inside gysin's
compile with under a hundred of the import's allocations after it, and
census's set-up then ends a few dozen allocations after a generation-1
collection: (44, 0, 3) before the program's builders skipped the
constructor's check, (23, 0, 3) after, (28, 0, 3) since the signed
i >= 1 steps take one kernel pass each, and (44, 0, 3) since each verify
suite declares its flags where it is defined.  A net cut of that size
before the last import collection pushes it out of the import; the
set-up then ends with the second count at 11, as in (650, 11, 2), and
census op 0 takes the generation-1 collection.  An edit inside gamma's compile
can flip it at almost no size, and so can dropping the signed step's
one-line closure from `schubert.divided_difference` (636, 11, 2), or a
one-pass `triples.column_steps` beside the seeded `pf_rows` until that
fold read no rows as the module-level row e_0, so the edge follows
allocations, not lines or modules.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("census", "pfaffian", "descent")
SEEDS = (1, 17)
PARTS = ("src", "perfbench")

# Each anchor of worker.py and the lines that go in front of it.
PATCHES = (
    (
        "    probe = Probe()\n",
        "    import gc\n"
        "    gc_count = gc.get_count()\n"
        "    gc_starts = []\n"
        "    gc.callbacks.append(\n"
        "        lambda phase, info: phase == 'start'\n"
        "        and gc_starts.append((time.perf_counter(), info['generation'])))\n",
    ),
    (
        "    print(json.dumps(result))\n",
        "    result['gc_probe'] = {'count': gc_count, 'ops': [\n"
        "        gen for t, gen in gc_starts\n"
        "        if any(t0 <= t <= t0 + lat for t0, lat in zip(starts, latencies))]}\n",
    ),
)


def patch_worker(path: Path) -> None:
    """Insert the probe before each anchor of worker.py; SystemExit if an
    anchor is missing or not unique, since the reading would then mean
    nothing."""
    text = path.read_text()
    for anchor, lines in PATCHES:
        if text.count(anchor) != 1:
            raise SystemExit(f"census_gc_probe: anchor {anchor.strip()!r} not found once in {path}")
        text = text.replace(anchor, lines + anchor)
    path.write_text(text)


def probe(tree: Path, workload: str, seed: int) -> dict:
    """The gc_probe reading of one pass of workload at seed, from tree."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [
        sys.executable, str(tree / "perfbench" / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--spawned", repr(time.perf_counter()),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=150, check=False)
    if proc.returncode:
        raise SystemExit(f"census_gc_probe: {workload} --seed {seed} exited {proc.returncode}:\n"
                         + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])["gc_probe"]


def unpack(rev, tree: Path) -> None:
    """Put `src/` and `perfbench/` of rev (the checkout when rev is None)
    into tree, with no bytecode cache; SystemExit(2) with one line when
    git cannot read rev."""
    if rev is None:
        for part in PARTS:
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        return
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, *PARTS],
                         capture_output=True, check=False)
    if tar.returncode:
        reason = (tar.stderr.decode(errors="replace").strip().splitlines() or ["git archive failed"])[0]
        print(f"census_gc_probe: cannot read revision {rev!r}: {reason}", file=sys.stderr)
        raise SystemExit(2)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(tree, filter="data")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="a git revision to read instead of the checkout")
    args = parser.parse_args(argv)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp)
            unpack(args.rev, tree)
            patch_worker(tree / "perfbench" / "worker.py")
            code = 0
            for workload in WORKLOADS:
                for seed in SEEDS:
                    reading = probe(tree, workload, seed)
                    count, gens = tuple(reading["count"]), reading["ops"]
                    print(f"{workload} --seed {seed}: count {count}, collections in ops {gens}")
                    if any(gen >= 1 for gen in gens):
                        code = 1
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        return closed_stdout()


def closed_stdout() -> int:
    """Exit 1 quietly when the reader has closed stdout (`... | head -2`),
    as `vexpf` does: stdout's descriptor goes to devnull, so the flush at
    exit cannot raise again.  A stdout with no descriptor is left as it is."""
    with contextlib.suppress(OSError, ValueError):
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1


if __name__ == "__main__":
    sys.exit(main())

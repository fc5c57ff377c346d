"""Where the timed ops of census, pfaffian and descent meet the garbage
collector: the benchmark's GC edge, and how to read it.

    python3 tools/census_gc_probe.py          # the checkout
    python3 tools/census_gc_probe.py HEAD~1   # any git revision

The probe copies the checkout's `src/` and `perfbench/` (no
`__pycache__`) into a temporary directory, or unpacks those of a given
revision there with `git archive`, so a parent commit is read by the
same probe as the change.  The checkout is only read, and a revision git
cannot read gets one line on stderr and exit 2, before any workload
runs.  It patches the copy's `worker.py` to read `gc.get_count()` just
before `probe = Probe()` and to record the generation of each
collection that starts during any timed op, and runs each workload at
seeds 1 and 17 in a fresh interpreter with PYTHONDONTWRITEBYTECODE=1.
It prints one line per workload and seed,

    census --seed 1: count (44, 0, 3), collections in ops [0]

and exits 1 if any timed op takes a collection of generation 1 or more:
`wall_s` sums every op, so one in a later op costs as much as one in op
0.  tests/test_census_gc_probe.py runs it and asserts exit 0.  A reader
that closes stdout early (`| head -2`) ends it with exit 1 and no
traceback, as `vexpf` does.  The probe's hook allocates too, so compare
trees only through this same probe.

The edge.  perfbench runs each pass in a fresh interpreter with no
bytecode cache and collects no garbage before the first op.  Its
machine-speed probe (`perfbench/speed.py`) runs with the collector held
off, and its first run, just before op 0, leaves about 3 800 net
allocations: op 0 starts at about (3840, 0, 3), past the generation-0
threshold of 700, so op 0 always takes exactly one collection.  With the default thresholds (700, 10, 10) it is a
generation-1 collection exactly when the set-up ends with the second
count at 11, eleven generation-0 collections after the last
generation-1 one.  That collection takes 0.7-1.3 ms; census's op 0
takes under 0.1 ms, so it moves census `wall_s` from about 0.45 to
about 1.3 ms, past its bound.  Where the second count stands depends on
how many objects the import and set-up leave alive, and so on modules
census never runs:
- importing vexpf takes generation-0 collections while `cli`, `gamma`
  and `gysin` compile, the last inside gysin's compile with under a
  hundred of the import's allocations after it;
- census's set-up then ends a few dozen allocations after a
  generation-1 collection, as in (44, 0, 3);
- a net cut of that size before the last import collection pushes it
  out of the import, the set-up ends at (x, 11, 2), and census op 0
  takes the generation-1 collection.  An edit inside gamma's compile can
  flip it at almost no size, so the edge follows allocations, not lines
  or modules.  A count taken with the collector disabled does not
  predict it: lists, tuples and dicts taken from the interpreter's free
  lists do not move `gc.get_count()`.
A checkout that holds a bytecode cache, as after any test run, read
(175, 11, 2) on an earlier tree, or (482, 11, 2) with only `src`
compiled, so a hand run of perfbench there charges census a
generation-1 collection; the probe copies no cache.  Pfaffian's and
descent's set-ups end at (0, 0, 3) and (0, 3, 3), far from the edge.  A
generation-1 collection in pfaffian's op 0, `r_family((4,))` at about
0.18 ms, would make it the slowest op and move `op_ms_tail`.

Census readings, each from a scratch copy of the tree named:
- The tree itself: (44, 0, 3) before `all_elements` and the insertion
  built their elements unchecked, (23, 0, 3) after, (28, 0, 3) once the
  signed i >= 1 steps took one kernel pass each, (44, 0, 3) once each
  verify suite declared its flags where it is defined, (44, 0, 3) at
  0971ccd and after its docstrings were cut, and (44, 0, 3) at seeds 1
  and 17 once `GammaElement.zero`, `.one`, `.basis` and `.coefficient`
  and `verify --suite` were deleted.
- Edits that stay at generation 0: 124 `cli` lines deleted (43, 0, 3);
  20 or 50 objects added in `gamma` (44, 0, 3);
  `polycore._alternating_quotient` deleted (44, 0, 3); two to seven live
  lists added anywhere from `gamma` to `schubert` (28, 0, 3); at
  0971ccd, 630 docstring lines replaced by one-liners (44, 0, 3), and
  the guard of `weyl.first_ascent` on a one-entry type-D word
  (44, 0, 3).
- Edits that put a generation-1 collection into op 0: deleting
  `GammaElement.zero` and `.one`, `combo.pop(lam, None)` -> `del
  combo[lam]`, an annotation added to `gamma.is_strict`, or removing
  `Q_SERIES = GeneratorSeries(1)`, each (650, 11, 2) before that
  change, and deleting `.zero` and `.one` (634, 11, 2) later; deleting
  the 14-line `weyl.reduced_word` (652, 11, 2); moving `verify`'s
  no-suite check into `cmd_verify` before the suites declared their
  flags (638, 11, 2); dropping the signed step's one-line closure
  from `schubert.divided_difference` (636, 11, 2); a one-pass
  `triples.column_steps` beside the seeded `pf_rows` (636, 11, 2) until
  that fold read no rows as the module-level row e_0, and its loop form
  (638, 11, 2).  The deletions held back for a worker that collects
  before op 0 (ROADMAP item 14 Part B): Appendix A.1 in the polynomial
  ring (596, 11, 2) before that change, (584, 11, 2) later and
  (600, 11, 2) at 0971ccd; with the unchecked `all_elements` (580, 11,
  2), one Pieri table (574, 11, 2) and `__add__` through `_iadd`
  (570, 11, 2) stacked on it; one Pieri table alone at 0971ccd
  (644, 11, 2).
- At e4b0c79, each step alone stays at generation 0, reading (44, 0, 3)
  or (43, 0, 3): one Pieri table, `GammaElement.__add__` through
  `_iadd`, `_UNIT_ROW` inlined into `pf_rows`, the deletion of the four
  `GammaElement` methods above, and a `GammaElement._of` at the six
  bare-construction sites.  So do `__add__`, the inline row and `_of`
  together (43, 0, 3), 92 `cli` suite lines cut (33, 0, 3), and
  `_alternating_quotient` deleted (44, 0, 3), though that one makes
  type-A descent ops 30-60% slower.  Stacked steps flip: Pieri with
  `__add__` (644, 11, 2), Pieri with the inline row (642, 11, 2), and
  the four methods with any one of `__add__`, the inline row or Pieri
  (642-644, 11, 2); so does dropping `cli`'s redundant `if t.s` guards
  on top of the four methods (644, 11, 2).  The A.1 rewrite reads
  (600, 11, 2), about 100 live allocations short, and deleting weyl's
  test-only `descents`, `reduced_word` and `longest_element`
  (644, 11, 2).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from revtree import closed_stdout, unpack

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="a git revision to read instead of the checkout")
    args = parser.parse_args(argv)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp)
            unpack("census_gc_probe", args.rev, tree, PARTS)
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


if __name__ == "__main__":
    sys.exit(main())

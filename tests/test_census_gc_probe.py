"""The GC probe on the tree under test: one report line per workload and
seed, and its verdict.  No op 0 of census, pfaffian or descent may take a
collection of generation 1 or more, since one such collection triples
census `wall_s` in the benchmark.  Where the collector lands depends on
the allocations of the whole import and set-up, so a change anywhere in
`src/vexpf` can flip it; the probe's docstring gives the mechanism."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "census_gc_probe.py"
LINE = re.compile(
    r"(census|pfaffian|descent) --seed (\d+): count \((\d+), (\d+), (\d+)\), op 0 collections \[[\d, ]*\]"
)


def test_one_line_per_workload_and_seed():
    run = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, timeout=120)
    lines = run.stdout.splitlines()
    assert [LINE.fullmatch(line).group(1, 2) for line in lines] == [
        (workload, seed) for workload in ("census", "pfaffian", "descent") for seed in ("1", "17")
    ], run.stderr
    assert run.returncode == 0, run.stdout + run.stderr


def test_a_missing_anchor_fails_loudly(tmp_path):
    spec = importlib.util.spec_from_file_location("census_gc_probe", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    worker = tmp_path / "worker.py"
    worker.write_text("print('no anchor here')\n")
    with pytest.raises(SystemExit, match="anchor"):
        tool.patch_worker(worker)

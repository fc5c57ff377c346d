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


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("census_gc_probe", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_missing_anchor_fails_loudly(tool, tmp_path):
    worker = tmp_path / "worker.py"
    worker.write_text("print('no anchor here')\n")
    with pytest.raises(SystemExit, match="anchor"):
        tool.patch_worker(worker)


def test_an_unknown_revision_is_one_line_and_exit_2(tool, monkeypatch, capsys):
    # git cannot read it, in a clone or in an unpacked tree alike
    runs = []
    monkeypatch.setattr(tool, "probe", lambda *args: runs.append(args))
    with pytest.raises(SystemExit) as exit_:
        tool.main(["no-such-revision-of-this-repository"])
    out, err = capsys.readouterr()
    assert exit_.value.code == 2
    assert out == "" and len(err.splitlines()) == 1
    assert "no-such-revision-of-this-repository" in err
    assert runs == []

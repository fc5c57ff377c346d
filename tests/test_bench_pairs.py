"""The paired-run summary of tools/bench_pairs.py, on synthetic numbers:
no benchmark runs here."""

import io
import json
import sys

import pytest

import bench_pairs


def test_directions_come_from_the_benchmark():
    higher = bench_pairs.end_to_end_metrics()
    assert higher["ops_per_s"] is True
    assert higher["op_ms_p50"] is False and higher["wall_s"] is False
    assert len(higher) == 6


def test_summary_reads_each_metric_in_its_direction():
    # B's time is 3.5 higher in every pair and its rate 1 higher; A's
    # time quartiles (exclusive method) are 1.5, 3 and 4.5, so the gap
    # 3.5 exceeds A's spread 4.5 - 1.5 = 3
    a = [{"t": x, "rate": 10.0 * x} for x in (1, 2, 3, 4, 5)]
    b = [{"t": x + 3.5, "rate": 10.0 * x + 1} for x in (1, 2, 3, 4, 5)]
    low, high = bench_pairs.summarize(a, b, {"t": False, "rate": True})
    assert (low["a_q1"], low["a_median"], low["a_q3"]) == (1.5, 3, 4.5)
    assert (low["b_q1"], low["b_median"], low["b_q3"]) == (5.0, 6.5, 8.0)
    assert low["b_wins"] == 0 and low["pairs"] == 5
    assert low["b_vs_a"] == pytest.approx(3.5 / 3)
    assert low["gap_exceeds_a_spread"] is True
    assert high["b_wins"] == 5
    assert high["gap_exceeds_a_spread"] is False  # 1 against a spread of 30


def test_a_gap_equal_to_the_spread_is_not_enough():
    a = [{"t": x} for x in (1, 2, 3, 4, 5)]
    b = [{"t": x - 3} for x in (1, 2, 3, 4, 5)]
    [row] = bench_pairs.summarize(a, b, {"t": False})
    assert row["b_wins"] == 5 and row["gap_exceeds_a_spread"] is False
    assert bench_pairs.format_row(row) == (
        "t            A 3 [1.5, 4.5]  B 0 [-1.5, 1.5]  B -100.0%, better 5/5, gap > A's spread: no"
    )


def test_pairs_alternate_and_keep_their_runs(monkeypatch, tmp_path, capsys):
    order = []
    values = {"a": iter([5.0, 6.0, 7.0, 8.0]), "b": iter([4.0, 5.0, 6.0, 7.0])}

    def fake_run(tree, workload, seed):
        side = tree.name
        order.append(side)
        value = next(values[side])
        metrics = {name: {"value": value} for name in bench_pairs.end_to_end_metrics()}
        return {"correct": True, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "unpack", lambda *args: None)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["REV1", "REV2", "--workload", "pfaffian", "--seed", "1", "--pairs", "4",
                      "--out", str(out)]) == 0
    assert order == ["a", "b", "b", "a", "a", "b", "b", "a"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("pfaffian --seed 1, 4 pairs, A = REV1, B = REV2")
    assert any(line.startswith("op_ms_p50") and "better 4/4" in line for line in lines)
    saved = json.loads(out.read_text())
    assert [run["wall_s"] for run in saved["runs"]["b"]] == [4.0, 5.0, 6.0, 7.0]


def test_an_unknown_revision_is_one_line_and_exit_2(monkeypatch, capsys):
    # git cannot read it, in a clone or in an unpacked tree alike
    runs = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: runs.append(args))
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["no-such-revision-of-this-repository", "HEAD", "--workload", "census",
                   "--seed", "1", "--pairs", "2"])
    out, err = capsys.readouterr()
    assert exit_.value.code == 2
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("bench_pairs: cannot read revision 'no-such-revision-of-this-repository'")
    assert runs == []


class BrokenStdout(io.TextIOBase):
    """A stdout whose reader is gone: every write raises, as a closed pipe's
    does, and it has no descriptor."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stdout_is_exit_1_without_a_traceback(monkeypatch, tmp_path, capsys):
    # `bench_pairs.py ... | head`, in process, with the runs patched out:
    # the table meets the closed pipe, and --out already holds every run
    def fake_run(tree, workload, seed):
        return {"correct": True, "metrics": {name: {"value": 1.0} for name in bench_pairs.end_to_end_metrics()}}

    monkeypatch.setattr(bench_pairs, "unpack", lambda *args: None)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["REV1", "REV2", "--workload", "census", "--seed", "1", "--pairs", "2",
                      "--out", str(out)]) == 1
    assert len(json.loads(out.read_text())["runs"]["a"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["pair 1/2 done", "pair 2/2 done"]

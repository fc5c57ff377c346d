"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They pin what the per-layer numbers rest on: exact counts that do not
depend on the interpreter's hash seed, the bypass claims the workloads
were chosen for, self times that add up to no more than the wall time,
and output checks that do catch a wrong result; and the estimators the
end-to-end figures are read with.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import COUNTS, LAYERS, Tracer, layer_metrics  # noqa: E402


def traced_pass(workload: str, seed: int = 3, hash_seed: str = "0") -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    flags = ["--in-process"] if workload == "verify" else []
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--spawned", repr(time.perf_counter()), "--trace", *flags],
        stdout=subprocess.PIPE, env=env, check=True, text=True, timeout=300,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def passes():
    """Two traced passes of every workload, under different hash seeds."""
    return {
        w: (traced_pass(w, hash_seed="1"), traced_pass(w, hash_seed="2"))
        for w in workloads.BUILDERS
    }


@pytest.mark.parametrize("workload", list(workloads.BUILDERS))
def test_counts_repeat_across_hash_seeds(passes, workload):
    one, two = passes[workload]
    assert {k: one["per_layer"][k] for k in COUNTS} == {
        k: two["per_layer"][k] for k in COUNTS
    }
    assert one["digests"] == two["digests"]


def test_census_bypasses_arithmetic(passes):
    for run in passes["census"]:
        layer = run["per_layer"]
        assert layer["triples.triple_of_w_calls"] > 0
        assert layer["polycore.mul_calls"] == 0
        assert layer["gamma.straighten_hits"] + layer["gamma.straighten_misses"] == 0
        assert layer["gamma.from_raw_calls"] == 0


def test_type_a_descent_bypasses_straightening():
    work = workloads.build("descent", 3)
    type_a = [op for label, op in work.ops if label.startswith("A ")]
    assert type_a
    tracer = Tracer()
    tracer.install()
    try:
        for op in type_a:
            tracer.op(op)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    extra = {"straighten_hits": 0, "straighten_misses": 0, "memo_entries": 0}
    layer = layer_metrics(summary, extra)
    assert layer["schubert.divided_difference_calls"] > 0
    assert layer["polycore.exact_divide_calls"] > 0
    assert layer["gamma.from_raw_calls"] == 0
    assert layer["gamma.apply_symmetry_calls"] == 0


@pytest.mark.parametrize("workload", list(workloads.BUILDERS))
def test_self_times_fit_in_wall_time(passes, workload):
    for run in passes[workload]:
        total = sum(run["per_layer"][f"{layer}.self_s"] for layer in LAYERS)
        assert 0 < total <= run["wall_s"]


def test_uninstall_restores_every_binding():
    from vexpf import cli, multischur, polycore, schubert

    before = (polycore.Polynomial.__mul__, polycore.Polynomial.__rmul__,
              schubert.exact_divide, multischur.exact_divide, cli.SUITES["census"])
    tracer = Tracer()
    tracer.install()
    assert polycore.Polynomial.__mul__ is polycore.Polynomial.__rmul__
    assert schubert.exact_divide is not before[2]
    assert multischur.exact_divide is schubert.exact_divide
    assert cli.SUITES["census"] is not before[4]
    tracer.uninstall()
    after = (polycore.Polynomial.__mul__, polycore.Polynomial.__rmul__,
             schubert.exact_divide, multischur.exact_divide, cli.SUITES["census"])
    assert after == before


def test_checks_catch_wrong_outputs():
    work = workloads.build("descent", 3)
    outputs = [op() for _, op in work.ops]
    assert work.check(outputs, set()) == set()
    x1 = workloads.Polynomial.variable("x", 1)
    outputs[0] = outputs[0] + x1  # wrong degree
    assert work.check(outputs, set()) == {0}

    verify = workloads.build("verify", 3)
    fake = [(0, b"PASS\n")] * len(verify.ops)
    assert verify.check(fake, set()) == set(range(len(verify.ops)))


def test_raising_op_fails_the_run(monkeypatch, capsys, tmp_path):
    """An op that raises is counted in fail_frac; the run still prints its
    result, with correct false."""
    import run
    import worker

    real = workloads.build

    def build(name, seed, in_process=False):
        work = real(name, seed, in_process)

        def boom():
            raise RuntimeError("injected")

        work.ops[0] = (work.ops[0][0], boom)
        return work

    def run_pass(workload, seed, *, check=False, trace=False, in_process=False, spans=None):
        argv = ["--workload", workload, "--seed", str(seed),
                "--spawned", repr(time.perf_counter())] + ["--check"] * check
        assert worker.main(argv) == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    monkeypatch.setattr(workloads, "build", build)
    monkeypatch.setattr(run, "run_pass", run_pass)
    monkeypatch.setattr(run, "OUT", tmp_path)
    argv = ["--workload", "verify", "--seed", "3", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    fail_frac = float(next(x for x in lines if x.startswith("fail_frac")).split()[1])
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert fail_frac > 0


def test_verify_cache_counts_cover_every_invocation(passes):
    """The traced verify pass empties the caches before each invocation;
    its straightening counts still sum over all of them."""
    hits = misses = memo = 0
    in_process = workloads.InProcessCLI()
    for argv in workloads.verify_invocations(3):
        in_process(argv)
        info = workloads.gamma.straighten_monomial.cache_info()
        hits += info.hits
        misses += info.misses
        memo += len(workloads.schubert._CACHE)
    assert hits > 0
    for run in passes["verify"]:
        layer = run["per_layer"]
        assert layer["gamma.straighten_hits"] >= hits
        assert layer["gamma.straighten_misses"] >= misses
        assert layer["schubert.memo_entries"] >= memo


def test_draws_do_not_depend_on_element_order(monkeypatch):
    """The seeded inputs are the same whatever order the program yields
    the group elements and triples in."""
    before = {name: [label for label, _ in workloads.build(name, 5).ops]
              for name in ("pfaffian", "descent", "census")}
    all_elements = workloads.weyl.all_elements
    enumerate_triples = workloads.triples.enumerate_triples
    monkeypatch.setattr(workloads.weyl, "all_elements",
                        lambda *a: iter(list(all_elements(*a))[::-1]))
    monkeypatch.setattr(workloads.triples, "enumerate_triples",
                        lambda *a: iter(list(enumerate_triples(*a))[::-1]))
    after = {name: [label for label, _ in workloads.build(name, 5).ops]
             for name in ("pfaffian", "descent", "census")}
    assert after == before


def test_avoids_2143():
    assert workloads.avoids_2143((2, 1, 4, 3)) is False
    assert workloads.avoids_2143((1, 2, 3, 4)) is True
    assert workloads.avoids_2143((3, 1, 4, 2, 5)) is True


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_hd_median():
    import run

    assert run.hd_median([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0)
    assert run.hd_median([0.0, 1.0]) == pytest.approx(0.5)
    # n = 3: the top value weighs 1 - I_{2/3}(2, 2) = 7/27
    assert run.hd_median([0.0, 0.0, 1.0]) == pytest.approx(7 / 27)


def test_tail_counts_each_execution_at_its_ops_median():
    """With the two heaviest ops filling ten places, the tail is the third
    op's median, not the slowest of its repeats."""
    import run

    third = [0.5, 0.5, 0.5, 0.5, 0.8]
    passes = [{"scaled_latencies": [1.0, 0.9, third[i]] + [0.1] * 20} for i in range(5)]
    figs = run.pass_figures(passes)
    assert run.tail_percentile(figs["every"])[1] == 0.5


def test_probe_scales_by_the_probes_near_an_op():
    import speed

    probe = speed.Probe()
    probe.starts = [0.0, 0.1, 0.2, 5.0, 5.1]
    probe.seconds = [2 * speed.REFERENCE_PROBE_S] * 3 + [speed.REFERENCE_PROBE_S] * 2
    assert probe.factor(0.12, 0.15) == pytest.approx(0.5)
    assert probe.factor(5.02, 5.05) == pytest.approx(1.0)
    assert probe.factor(0.0, 5.1) == pytest.approx(0.5)  # median of all five

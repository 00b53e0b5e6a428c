"""Tests of the benchmark itself.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
from reference import Sampler
from tracer import Tracer, is_installed
from workloads import (
    WORKLOADS,
    Task,
    build_tasks,
    load_expected,
    run_rounds,
    summarize,
    tail,
)

from imprimlab import cli, imprim, linalg, reprs

ROOT = Path(__file__).resolve().parent.parent


def _bench(*args) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=ROOT,
        capture_output=True, text=True, timeout=170, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    samples = [float(i) for i in range(40)]
    value, pct, n = tail(samples)
    assert (value, pct, n) == (29.0, 75.0, 40)
    assert sum(s > value for s in samples) == 10


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    originals = (linalg.rref, reprs.rref, imprim.subspace_orbit,
                 linalg.Matrix.__mul__, cli.run_command)
    [task] = build_tasks("solvable5", 0, tmp_path)[:1]
    expected = load_expected()
    t = Tracer()
    with t:
        assert is_installed()
        assert linalg.rref is reprs.rref and linalg.rref is not originals[0]
        run_rounds(cli, [task], expected, 0)
    assert not is_installed()
    assert (linalg.rref, reprs.rref, imprim.subspace_orbit,
            linalg.Matrix.__mul__, cli.run_command) == originals
    counts = dict(t.calls)
    assert counts["linalg.Matrix.mul"] > 0
    run_rounds(cli, [task], expected, 0)  # untraced: counts stay put
    assert dict(t.calls) == counts


def test_sampler_times_the_kernel_around_each_task_and_then_stops(tmp_path):
    tasks = build_tasks("solvable5", 0, tmp_path)[:2]
    previous = signal.getsignal(signal.SIGALRM)
    with Sampler(interval=0.01) as sampler:
        [results] = run_rounds(cli, tasks, load_expected(), 0, sampler)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) > 2 * len(tasks)
    assert sampler.busy_cpu >= sum(s for _, s in sampler.samples)
    assert all(r.ok and r.ref_s > 0 and 0 < r.cpu_s for r in results)
    assert [r.refs for r in results] == [r.cpu_s / r.ref_s for r in results]
    figures = summarize([results])
    assert figures["wall_ref"] == pytest.approx(sum(r.refs for r in results))
    assert figures["wall_s"] == pytest.approx(sum(r.seconds for r in results))


def test_ref_seconds_weighs_each_sample_by_the_time_it_covers():
    sampler = Sampler()
    # kernel times 1, 2, 4 at t = 0, 1, 2: spans (-inf, .5], (.5, 1.5], (1.5, inf)
    sampler.samples = [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0)]
    assert sampler.ref_seconds(0.6, 1.4) == 2.0  # within one span
    assert sampler.ref_seconds(3.0, 3.0) == 4.0
    # [0, 2]: 0.5 s at 1, 1 s at 2, 0.5 s at 4 -> 2 / (0.5 + 0.5 + 0.125)
    assert sampler.ref_seconds(0.0, 2.0) == pytest.approx(2 / 1.125)


def test_counters_repeat_exactly_for_a_fixed_seed():
    first, second = (
        _bench("--workload", "regression", "--seed", "7", "--seconds", "1", "--trace", "1")
        for _ in range(2)
    )
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {name for name, _ in tracer.PER_LAYER}
    counts = {name for name, unit in tracer.PER_LAYER if unit != "s"}
    a = {k: v["value"] for k, v in first["metrics"].items() if k in counts}
    b = {k: v["value"] for k, v in second["metrics"].items() if k in counts}
    assert a == b
    assert a["linalg.rref.calls"] > 0 and a["imprim.all_systems.subspaces_scanned"] > 0


def test_two_seeds_give_identical_outputs(tmp_path):
    expected = load_expected()
    outputs, inputs = [], []
    for seed in (1, 2):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        tasks = build_tasks("regression", seed, workdir)
        inputs.append(sorted(p.read_text() for p in workdir.iterdir()))
        [results] = run_rounds(cli, tasks, expected, 0)
        assert all(r.ok for r in results), [r.error for r in results if not r.ok]
        outputs.append([r.stdout for r in results])
    assert inputs[0] != inputs[1]  # the seed really changed the inputs
    assert outputs[0] == outputs[1]


def test_corrupted_expected_output_fails_the_task(tmp_path):
    tasks = build_tasks("solvable5", 0, tmp_path)[:1]
    expected = load_expected()
    good = summarize(run_rounds(cli, tasks, expected, 0))
    assert good["fail_ratio"] == 0
    corrupted = dict(expected)
    corrupted[tasks[0].task_id] = expected[tasks[0].task_id].replace("true", "false", 1)
    bad = summarize(run_rounds(cli, tasks, corrupted, 0))
    assert bad["fail_ratio"] > 0
    assert bad["failures"] == [f"{tasks[0].task_id}: stdout differs from the expected output"]


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solvable5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_task_has_an_expected_output(workload, tmp_path):
    expected = load_expected()
    for task in build_tasks(workload, 3, tmp_path):
        assert task.task_id in expected


def test_cap_errors_are_counted(tmp_path):
    capped = build_tasks("solvable5", 0, tmp_path)[0]
    capped = Task(capped.task_id, capped.argv + ("--cap-elements", "5"))
    t = Tracer()
    with t:
        [[result]] = run_rounds(cli, [capped], load_expected(), 0)
    assert not result.ok and result.error == "exit code 3"
    assert t.metrics()["errors.cap_errors"] == 1

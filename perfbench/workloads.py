"""Workload definitions: seeded inputs, task lists and the checked task loop.

A task is one ``imprimlab.cli.run_command(argv)`` call with stdout captured.
The seed relabels the points of every theorem point group (conjugating its
generators) and shuffles every generator list.  Reports are invariant under
both, so one expected stdout per task serves every seed while the work done
(element discovery order, orbit shapes) differs.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from reference import Sampler

HERE = Path(__file__).resolve().parent
INSTANCES_FILE = HERE / "instances.json"
EXPECTED_FILE = HERE / "expected.json"

WORKLOADS = ("scan6", "induced13", "solvable5", "regression")


@dataclass(frozen=True)
class Task:
    task_id: str
    argv: tuple[str, ...]


def _shuffled(items, rng: random.Random) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def shuffle_generators(doc: dict, rng: random.Random) -> dict:
    """Same group description with every generator list in seeded order."""
    if doc["kind"] == "wreath":
        return dict(doc, h=shuffle_generators(doc["h"], rng),
                    k=shuffle_generators(doc["k"], rng))
    return dict(doc, generators=_shuffled(doc["generators"], rng))


def relabel_points(doc: dict, rng: random.Random) -> dict:
    """Conjugate a perm description by a seeded relabeling of its points.

    The generator g becomes s g s^-1 with s a random permutation, i.e. the
    new image of s(i) is s(g(i)); points are 1-based as in the description.
    """
    degree = doc["degree"]
    sigma = _shuffled(range(1, degree + 1), rng)
    gens = []
    for images in doc["generators"]:
        new = [0] * degree
        for i, gi in enumerate(images, start=1):
            new[sigma[i - 1] - 1] = sigma[gi - 1]
        gens.append(new)
    return dict(doc, generators=gens)


def _write(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _theorem_task(workdir: Path, entry: dict, rng: random.Random) -> Task:
    name = entry["name"]
    h = shuffle_generators(entry["h"], rng)
    k = shuffle_generators(relabel_points(entry["k"], rng), rng)
    return Task(
        f"theorem/{name}",
        ("theorem", "--h", _write(workdir, f"{name}.h", h),
         "--k", _write(workdir, f"{name}.k", k), "--json-only"),
    )


def _inclusion_task(workdir: Path, entry: dict, rng: random.Random) -> Task:
    # Point labels tie k1 to k2 and the report names witness blocks by
    # label, so inclusion instances get shuffled generator lists only.
    name = entry["name"]
    argv = ["inclusion"]
    for part in ("h1", "k1", "h2", "k2"):
        doc = shuffle_generators(entry[part], rng)
        argv += [f"--{part}", _write(workdir, f"{name}.{part}", doc)]
    return Task(f"inclusion/{name}", tuple(argv) + ("--json-only",))


def _q_task(command: str, q: int) -> Task:
    return Task(f"{command}/q{q}", (command, "--q", str(q), "--json-only"))


def build_tasks(workload: str, seed: int, workdir: Path) -> list[Task]:
    """Write the seeded input files into workdir and return the task list."""
    rng = random.Random(f"{workload}:{seed}")
    instances = json.loads(INSTANCES_FILE.read_text())
    if workload == "scan6":
        return [_theorem_task(workdir, instances["scan6"], rng)]
    if workload == "induced13":
        return [_q_task("example21", 13)]
    if workload == "solvable5":
        # q=5 twice, so the median verdict falls on the q=5 report instead
        # of between a 0.05 s and a 1 s report
        q5 = _q_task("maxsolv", 5)
        return [_q_task("maxsolv", 3), q5, q5]
    if workload == "regression":
        tasks = [_theorem_task(workdir, e, rng) for e in instances["theorem"]]
        tasks += [_inclusion_task(workdir, e, rng) for e in instances["inclusion"]]
        return tasks + [_q_task("example21", 7)]
    raise ValueError(f"unknown workload {workload!r}")


def load_expected() -> dict[str, str]:
    return json.loads(EXPECTED_FILE.read_text())["stdout"]


@dataclass
class TaskResult:
    task_id: str
    seconds: float
    ok: bool
    stdout: str
    error: str | None = None
    start: float = 0.0  # perf_counter() when the task started
    end: float = 0.0  # perf_counter() when it ended
    cpu_s: float = 0.0  # CPU time of the task
    ref_s: float | None = None  # reference-kernel CPU time around it (reference.py)

    @property
    def refs(self) -> float:
        """The task's CPU time in ref units."""
        return self.cpu_s / self.ref_s


def run_task(cli, task: Task, expected: dict[str, str],
             sampler: Sampler | None = None) -> TaskResult:
    """Run one task through ``cli.run_command`` and check its verdict.

    The attribute is looked up on every call so that a traced run reaches
    the wrapped function.  A task fails on a nonzero exit, an exception, a
    report with ``"pass": false`` or stdout differing from the expected text.
    A garbage collection before the clock starts gives every task the clean
    heap it would have as a fresh ``imprimlab`` process.  The task's wall and
    CPU times are both taken; the time a sampler spends in the reference
    kernel during the task is taken out of each.
    """
    gc.collect()
    buf = io.StringIO()
    error = None
    if sampler is not None:
        busy_wall, busy_cpu = sampler.busy_wall, sampler.busy_cpu
    start, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.run_command(list(task.argv))
    except (Exception, SystemExit) as exc:  # a crashed task is a failed task
        code, error = None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    cpu = time.process_time() - cpu
    seconds = end - start
    if sampler is not None:
        seconds -= sampler.busy_wall - busy_wall
        cpu -= sampler.busy_cpu - busy_cpu
    out = buf.getvalue()
    if error is None and code != 0:
        error = f"exit code {code}"
    if error is None:
        try:
            passed = json.loads(out).get("pass")
        except json.JSONDecodeError as exc:
            passed, error = None, f"stdout is not JSON ({exc})"
        if error is None and passed is not True:
            error = f'"pass" is {passed!r}'
    if error is None and out != expected.get(task.task_id):
        error = "stdout differs from the expected output"
    return TaskResult(task.task_id, seconds, error is None, out, error,
                      start, end, cpu)


def run_rounds(cli, tasks: list[Task], expected: dict[str, str],
               seconds: float, sampler: Sampler | None = None
               ) -> list[list[TaskResult]]:
    """Closed loop, one client: run the whole task list as rounds.

    A new round starts only if the last round's duration still fits in the
    budget, so every run completes at least one round and no run overshoots
    the budget by more than one round's variation.  With a sampler running,
    every result then gets the reference-kernel time around its task.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        rounds.append([run_task(cli, t, expected, sampler) for t in tasks])
        r1 = time.perf_counter()
        if (r1 - start) + (r1 - r0) > seconds:
            break
    if sampler is not None:
        for r in (r for rs in rounds for r in rs):
            r.ref_s = sampler.ref_seconds(r.start, r.end)
    return rounds


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  With ten samples or fewer no
    such percentile exists, and the maximum is reported as percentile 100.
    """
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def summarize(rounds: list[list[TaskResult]]) -> dict:
    """End-to-end figures of a run's rounds (all but setup and memory).

    A round's wall time is the sum of its tasks' times, so the benchmark's
    own collections and output checks between tasks are left out.  Rounds
    run with a sampler also get the same figures in ref units.
    """
    results = [r for rs in rounds for r in rs]
    failed = [r for r in results if not r.ok]
    figures = {}
    units = [("s", "seconds")]
    if all(r.ref_s is not None for r in results):
        units.append(("ref", "refs"))
    for unit, attr in units:
        verdicts = [getattr(r, attr) for r in results]
        value, pct, n = tail(verdicts)
        figures[f"wall_{unit}"] = statistics.median(
            sum(getattr(r, attr) for r in rs) for rs in rounds)
        figures[f"verdict_{unit}_p50"] = statistics.median(verdicts)
        figures[f"verdict_{unit}_tail"] = value
    return {
        **figures,
        "ref_s": (statistics.median(r.ref_s for r in results)
                  if "wall_ref" in figures else None),
        "tail_percentile": pct,
        "samples": n,
        "rounds": len(rounds),
        "attempted": len(results),
        "failed": len(failed),
        "fail_ratio": len(failed) / len(results),
        "failures": sorted({f"{r.task_id}: {r.error}" for r in failed}),
    }

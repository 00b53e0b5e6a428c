"""imprimlab benchmark: time to verdict, set-up time and memory per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan6 --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh interpreter (perfbench/worker.py), one task at
a time on one thread (a closed loop with one client).  Every task's stdout is
checked against perfbench/expected.json.  ``--trace 0`` reports the
end-to-end metrics, with times in ref units (reference.py) as well as in
seconds; ``--trace 1`` reports the per-layer metrics of a traced
round and the tracing overhead.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# Set-ups timed per untraced run: half before the timed worker, its own, and
# half after it, so that they span the run.  setup_s is their median.
SETUP_SAMPLES = 9
DEADLINE_S = 170.0  # a run must end well within 180 s

END_TO_END = (
    ("wall_ref", "ref"),
    ("verdict_ref_p50", "ref"),
    ("verdict_ref_tail", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # one thread: numpy's BLAS pool would otherwise start a thread per core
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _spawn(args, extra):
    """Start a worker; return (process, seconds until it printed ready)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed)] + extra
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_worker_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
    except BaseException:
        _stop(proc)
        raise
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        _stop(proc)
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _wait(proc, deadline) -> str:
    """Wait for a started worker to exit; return the rest of its stdout.

    A timer kills the worker at the deadline, which also ends the read.
    """
    timer = threading.Timer(max(deadline - time.monotonic(), 1), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def measure(args) -> tuple[dict, list[str]]:
    """Run one workload; return the final result object and report lines."""
    deadline = time.monotonic() + DEADLINE_S
    setups = []

    def time_setups(count):
        for _ in range(count):
            proc, setup = _spawn(args, ["--setup-only"])
            _wait(proc, deadline)
            setups.append(setup)

    around = 0 if args.trace else (SETUP_SAMPLES - 1) // 2
    time_setups(around)
    proc, setup = _spawn(
        args, ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    setups.append(setup)
    out = _wait(proc, deadline).strip()
    time_setups(around)
    if not out:
        raise BenchError("worker printed no result")
    res = json.loads(out.splitlines()[-1])

    lines = [f"workload {args.workload}, seed {args.seed}: closed loop, one client, "
             "single-threaded (no layer waits on another)"]
    if args.trace:
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
        lines += [
            f"tracing overhead: {res['tracing_overhead_s']:.4f} s per round "
            f"(traced {res['traced_wall_s']:.4f} s, untraced {res['untraced_wall_s']:.4f} s)",
            f"trace written to {res['trace_file']}",
        ]
    else:
        res["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END}
        lines += [
            f"rounds {res['rounds']}, tasks {res['attempted']}; verdict_s_tail is "
            f"p{res['tail_percentile']:.1f} of {res['samples']} samples"
            + (" (the maximum: ten or fewer samples)" if res["samples"] <= 10 else ""),
            f"setup_s is the median of {len(setups)} set-ups",
            f"wall_s: {res['wall_s']} s",
            f"verdict_s_p50: {res['verdict_s_p50']} s",
            f"verdict_s_tail: {res['verdict_s_tail']} s",
            f"ref_s: {res['ref_s']} s (median reference-kernel CPU time; "
            "a time in ref units times this is roughly its CPU time in s)",
            f"fail_ratio: {res['fail_ratio']} ratio ({res['failed']}/{res['attempted']})",
        ]
    for name, m in metrics.items():
        lines.append(f"{name}: {m['value']} {m['unit']}")
    lines += [f"FAILED {f}" for f in res["failures"]]
    lines.append("environment: " + json.dumps(res["environment"], sort_keys=True))
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "imprimlab" / "__init__.py").is_file():
        print(f"error: no imprimlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, lines = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

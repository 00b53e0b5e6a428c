"""One workload in a fresh interpreter; started by run.py, not by hand.

Set-up is importing imprimlab and writing the seeded inputs; the worker then
prints ``ready`` so the parent can time it.  With ``--setup-only`` it stops
there.  Otherwise it runs the timed rounds, with the reference kernel timed
alongside every task (reference.py), and prints one JSON result line.
A traced run (``--trace 1``) first runs untraced rounds, then one traced
round, and writes the spans, counters and environment to
``perfbench/out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from reference import Sampler
from tracer import Tracer
from workloads import HERE, build_tasks, load_expected, run_rounds, summarize

OUT_DIR = HERE / "out"


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "note": "compare only results taken on the same machine",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_run(cli, tasks, expected, seconds, workload, seed) -> dict:
    untraced = summarize(run_rounds(cli, tasks, expected, seconds / 2))
    tracer = Tracer()
    with tracer:
        traced = summarize(run_rounds(cli, tasks, expected, 0))
    overhead = traced["wall_s"] - untraced["wall_s"]
    env = environment()
    trace_file = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "environment": env,
        "threads": "single-threaded: no layer waits on another, so no wait "
                   "times are recorded",
        "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "tracing_overhead_s": overhead,
        "metrics": tracer.metrics(),
        "layers": tracer.layer_totals(),
        "counts": dict(tracer.counts),
        "edges": [[p, c, n] for (p, c), n in sorted(tracer.edges.items())],
        "span_fields": ["id", "name", "start", "end", "parent", "run"],
        "spans": tracer.spans,
    }))
    failures = untraced["failures"] + traced["failures"]
    return {
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "failures": sorted(set(failures)),
        "per_layer": tracer.metrics(),
        "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "tracing_overhead_s": overhead,
        "trace_file": str(trace_file.relative_to(HERE.parent)),
        "environment": env,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        from imprimlab import cli

        tasks = build_tasks(args.workload, args.seed, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        expected = load_expected()
        if args.trace:
            result = traced_run(cli, tasks, expected, args.seconds,
                                args.workload, args.seed)
        else:
            with Sampler() as sampler:
                rounds = run_rounds(cli, tasks, expected, args.seconds, sampler)
            result = summarize(rounds)
            result["peak_rss_mb"] = peak_rss_mb()
            result["environment"] = environment()
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

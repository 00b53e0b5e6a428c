"""Re-record perfbench/expected.json: the canonical stdout of every task.

Run from the root of a checkout, only when a report legitimately changes
(see perfbench/README.md, "Re-baselining"):

    PYTHONPATH=src python3 perfbench/record_expected.py

Every task of every workload runs once with seed 0; a task that exits
nonzero or reports ``"pass": false`` is refused rather than recorded.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import EXPECTED_FILE, WORKLOADS, build_tasks


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], capture_output=True,
            text=True, check=True, cwd=EXPECTED_FILE.parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    from imprimlab import cli

    stdout = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for task in build_tasks(workload, 0, Path(tmp)):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.run_command(list(task.argv))
                out = buf.getvalue()
                if code != 0 or json.loads(out).get("pass") is not True:
                    print(f"error: {task.task_id} did not pass (exit {code})",
                          file=sys.stderr)
                    return 1
                stdout[task.task_id] = out
                print(f"recorded {task.task_id}", file=sys.stderr)
    EXPECTED_FILE.write_text(json.dumps(
        {"schema": "perfbench-expected/1", "recorded_at": _commit(),
         "stdout": stdout}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

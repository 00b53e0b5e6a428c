"""Every benchmark task prints exactly its recorded stdout.

perfbench/expected.json holds the canonical stdout of each task of the four
benchmark workloads.  The seed relabels and shuffles the inputs, which no
report may notice, so seeds 0-2 all replay against the same text.  This
reads perfbench/ and changes nothing there.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from imprimlab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from workloads import WORKLOADS, build_tasks, load_expected  # noqa: E402


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_tasks_print_their_expected_stdout(workload, seed, tmp_path):
    expected = load_expected()
    for task in build_tasks(workload, seed, tmp_path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run_command(list(task.argv))
        assert code == 0, task.task_id
        assert buf.getvalue() == expected[task.task_id], task.task_id

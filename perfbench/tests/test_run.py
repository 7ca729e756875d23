"""run.py's result line when operations fail, and its refusal to run
outside a checkout."""

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")


def _run(cwd, workload):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_every_failed_check_is_counted_in_the_result_line(tmp_path):
    _checkout(tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    with open(tmp_path / "perfbench" / "checks.py", "a") as fh:
        fh.write("\n\ndef check_convergence(curves, tau_list):\n"
                 "    return ['every curve rejected']\n")
    out = _run(tmp_path, "paper_convergence")
    assert out.returncode == 1
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result == {"correct": False, "attempted": 6, "failed": 6, "metrics": {}}
    assert "every curve rejected" in out.stderr


def test_run_refuses_a_directory_without_the_program(tmp_path):
    _checkout(tmp_path)
    out = _run(tmp_path, "tcp_small_blocks")
    assert out.returncode != 0
    assert out.stdout.strip() == ""

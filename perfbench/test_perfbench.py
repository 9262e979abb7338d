"""Self-tests of the benchmark; run them from the root of the repository:

    python3 -m pytest perfbench -q

A minimal-length run of each workload, untraced and traced, prints every
metric of BENCHMARK.json with its unit and fails no op.  A wrong expected
answer is counted as a failed op; it neither passes nor stops the run.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ops  # noqa: E402
import run  # noqa: E402


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True, lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"]
              for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wanted
    printed = {(line.split()[0], line.split()[-1])
               for line in lines[:-1] if not line.startswith("#")}
    assert set(wanted.items()) <= printed
    assert ("failed_ratio", "ratio") in printed
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_known_answer_counts_as_failure():
    chosen = [op for op in ops.build_ops("relations", 7)
              if op["name"] in ("verify_C4_A1", "orbit_A1_n6")]
    wrong = next(op for op in chosen if op["name"] == "verify_C4_A1")
    wrong["expect"] = dict(wrong["expect"],
                           relations=wrong["expect"]["relations"] + 1)
    runner = run.Runner(ops, time.monotonic() + 120)
    passes = runner.measure(chosen, seconds=0, trace=0)
    records = [r for _, _, recs in passes for r in recs]
    failed = [r for r in records if not r["ok"]]
    assert len(failed) / len(records) > 0
    assert len(records) == 2
    assert [r["name"] for r in failed] == ["verify_C4_A1"]
    assert failed[0]["error"].startswith("WrongAnswer: 16 relations")


def test_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("relations", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

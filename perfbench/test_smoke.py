"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py      (from the checkout root)

Checks that every metric named in BENCHMARK.json is printed with its unit
for each workload and mode, that a wrong reference value makes the checker
count a failed operation, that the CSV check sees rows it does not sample, that a directory without the program makes the
benchmark fail without a result, and the tracer's per-thread span
bookkeeping.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import check
from tracer import Tracer
from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--seed", "3",
                           "--seconds", "0", "--scale", "tiny", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_printed_with_unit(workload, trace):
    proc = bench("--workload", workload, "--trace", trace)
    res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: m["unit"] for name, m in res["metrics"].items()}
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float))
    assert any(line.startswith("ops_failed_ratio 0 ") for line in proc.stdout.splitlines())
    if trace == "1" and workload == "analytic_decay":
        metrics = {k: v["value"] for k, v in res["metrics"].items()}
        # one table per alpha: lru_cache hits are not builds
        assert metrics["generators.window_tables.builds"] == 1.0
        assert 0.0 < metrics["generators.evaluate_psi_time.useful_ratio"] <= 1.0
        assert metrics["trace.coverage"] >= 0.9


def test_wrong_reference_counts_a_failed_operation(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / "refs" / "tiny" / "grid_criteria" / "n2.json"
    ref = json.loads(path.read_text())
    block = ref["ops"][0]["outputs"][0]["analyses"]["periodization"]
    block["M"] *= 1.0 + 1e-4
    path.write_text(json.dumps(ref))
    res = result(bench("--workload", "grid_criteria", script=copy / "run.py"))
    assert res["correct"] is False
    assert res["failed"] >= 1 and res["attempted"] > res["failed"]


def test_checker_rules():
    ref = {"verdict": "diverging", "x": 1.0, "rows": [1, "pass"], "none": None}
    assert check.mismatches(ref, {**ref, "x": 1.0 + 5e-7, "extra": 3}) == []
    assert check.mismatches(ref, {**ref, "x": 1.0 + 5e-6})
    assert check.mismatches(ref, {**ref, "verdict": "inconclusive"})
    assert check.mismatches(ref, {**ref, "rows": [1, "fail"]})
    assert check.mismatches(ref, {k: v for k, v in ref.items() if k != "none"})
    assert check.mismatches({"z": 0.0}, {"z": 1e-13}) == []


def test_csv_sums_see_every_row(tmp_path):
    path = tmp_path / "signal.csv"
    rows = [f"{i},{0.5 * i - 25},{(-1) ** i / (i + 1)!r}" for i in range(100)]
    path.write_text("index,x,re\n" + "\n".join(rows) + "\n")
    ref = check.extract("csv", path)
    assert "40" not in ref["samples"]
    assert check.check_output("csv", path, ref) == []
    bad = rows[:40] + ["40,-5.0,0.0244"] + rows[41:]   # 4 digits, unsampled row
    path.write_text("index,x,re\n" + "\n".join(bad) + "\n")
    assert check.check_output("csv", path, ref)
    rows[40], rows[41] = rows[41], rows[40]
    path.write_text("index,x,re\n" + "\n".join(rows) + "\n")
    assert check.check_output("csv", path, ref)


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([*SPEC["command"], "--workload", NAMES[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_per_thread_stacks_and_self_time():
    tracer = Tracer()

    def work(tag):
        with tracer.span(f"outer.{tag}"):
            time.sleep(0.01)
            with tracer.span("inner"):
                time.sleep(0.02)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    summary = tracer.summary()
    for name, agg in summary.items():
        assert agg["self_s"] >= 0.0, name
    for name, tid, _, _, parent in tracer.spans:
        if name == "inner":
            assert tracer.spans[parent][1] == tid
    assert summary["inner"]["calls"] == 4
    for i in range(4):
        outer = summary[f"outer.{i}"]
        assert outer["self_s"] < outer["s"] - 0.015

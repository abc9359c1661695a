"""Smoke test of the benchmark itself: every workload runs at a tiny size and
prints every metric BENCHMARK.json names, with its unit.  It asserts no
timing.  Run from the repository root:

    python3 -m pytest levybench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(ROOT / "levybench"))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402  (needs levybench on the path)
import workloads  # noqa: E402  (needs src on the path)


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "levybench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace, monkeypatch, capsys):
    # small size: timed passes of one round and one set-up sample
    for cls in (workloads.Classify, workloads.Scale, workloads.MC):
        monkeypatch.setattr(cls, "PASS_ROUNDS", 1)
    monkeypatch.setattr(bench, "SETUP_SAMPLES", 1)
    code = bench.main(["--workload", workload, "--seed", "7", "--seconds", "0.5",
                       "--trace", str(trace)])
    out = capsys.readouterr()
    assert code == 0, out.err[-3000:]
    lines = out.out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    text = "\n".join(lines[:-1])
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert f"{m['name']} " in text and got["unit"] in text
    if not trace:
        assert "fail_ratio" in text


def test_each_timed_pass_holds_enough_ops():
    for cls in (workloads.Classify, workloads.Scale, workloads.MC):
        assert cls.PASS_ROUNDS * len(cls.ROUND) >= bench.MIN_OPS, cls.__name__


def test_metric_tables_match_the_spec():
    import layers

    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == list(layers.METRICS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "levybench", tmp_path / "levybench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

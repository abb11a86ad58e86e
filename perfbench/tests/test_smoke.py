"""Smoke tests that keep the benchmark from rotting.

Every workload runs untraced and traced on a tiny corpus (scale 0.02)
and must pass all of its output checks. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus_gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE_SCALE = "0.02"


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_passes_its_checks(workload, trace):
    result = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                            "--trace", str(trace), "--scale", SMOKE_SCALE))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        if metric["unit"] in ("s", "us", "MB"):
            assert metric["value"] > 0, name
    if trace and workload == "train_cycles":
        assert 4 < result["metrics"]["textprep.redundancy"]["value"] <= 5
    if trace and workload == "score_full":
        assert result["metrics"]["textprep.redundancy"]["value"] == 1.0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in spec["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.PER_LAYER)


def test_generator_is_deterministic_and_unique(tmp_path):
    a = corpus_gen.generate(tmp_path / "a", seed=5, scale=0.02)
    b = corpus_gen.generate(tmp_path / "b", seed=5, scale=0.02)
    c = corpus_gen.generate(tmp_path / "c", seed=6, scale=0.02)
    for name in a["trees"] + ["labels.json", "slang.txt", "meta.json"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "labels.json").read_bytes() != (tmp_path / "c" / "labels.json").read_bytes()
    assert (a["offensive"], a["not_offensive"]) == corpus_gen.class_counts(0.02)
    assert a["total"] == a["labeled"] + a["unlabeled"] + a["duplicates"]


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "train_cycles", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

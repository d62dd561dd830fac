"""Smoke test of the benchmark itself (kept out of the package's test suite).

    python3 -m pytest perfbench/test_smoke.py -q

Every workload emits every metric BENCHMARK.json names, with its unit, in
both modes; the same seed yields the same generated argv lists; and outside
a source checkout the benchmark fails without printing a result.
"""

import hashlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = list(workloads.GENERATORS)


def argv_digest(name, seed, count=60):
    ops = workloads.GENERATORS[name](random.Random(f"{name}:{seed}"), "<out>")
    digest = hashlib.sha256()
    for _ in range(count):
        digest.update(json.dumps(next(ops).argv).encode())
    return digest.hexdigest()


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs(name):
    assert argv_digest(name, 7) == argv_digest(name, 7)
    assert argv_digest(name, 7) != argv_digest(name, 8)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_emitted_with_unit(name, trace, section):
    result, lines, _ = run.run_workload(name, seed=3, seconds=0.05, trace=trace,
                                        min_ops=4, probes=1)
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {key: m["unit"] for key, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["attempted"] >= 4
    assert all(any(line.startswith(f"{key} = ") for line in lines) for key in want)
    assert result["failed"] == 0 and result["correct"]


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()

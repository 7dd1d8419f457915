"""Self-test of the benchmark at tiny sizes (about 20 seconds).

    python3 -m pytest -q perfbench/selftest.py

Not collected by a plain `pytest` run at the repository root: it starts
interpreters, and it checks the benchmark, not the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

TINY = {
    "CHEB_SWEEP_MAX_N": 6,
    "CHEB_WARM_PAIRS": 4,
    "SIEVED_LAMBDAS": ("1/2", "-7/6"),
    "SIEVED_MAX_N": 5,
    "SIEVED_MAPPING_CELLS": 2,
    "SIEVED_GEN_POLYS": 1,
    "FLOAT_ZEROS_N": (4, 24),
    "FLOAT_ZEROS_SWEEPS": 1,
    "FLOAT_ORTHO_OPS": 2,
    "FLOAT_ORTHO_MAX_N": 6,
    "FLOAT_THEOREM_Q": (1.0,),
    "FLOAT_THEOREM_K": (3,),
    "FLOAT_THEOREM_L": (2,),
}


@pytest.fixture
def tiny(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "SETUP_IMPORTS", 1)
    monkeypatch.setattr(run, "IMPORTTIME_RUNS", 1)
    monkeypatch.setattr(run, "MIN_PASSES", 1)


def test_workload_names_match_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_seed_fixes_the_op_list(name):
    first = workloads.digest(workloads.generate(name, 7))
    assert workloads.digest(workloads.generate(name, 7)) == first
    assert workloads.digest(workloads.generate(name, 8)) != first


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_pass_emits_every_metric(tiny, capsys, name, trace):
    result = run.summarize(name, seed=3, seconds=0, trace=trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], capsys.readouterr().err
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    printed = capsys.readouterr().out
    for metric in spec:
        assert metric["name"] in printed


def test_traced_and_untraced_passes_agree_op_for_op(tiny):
    ops, _, _, plain, traced = run.run("float-model", seed=5, seconds=0, trace=True)
    assert plain and traced
    assert len(plain[0]["ok"]) == len(ops)
    assert plain[0]["ok"] == traced[0]["ok"]


def test_refuses_to_run_without_the_package():
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Self-tests of the campaign benchmark (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_benchmark.py

Each workload runs at its benchmarked size with ``--seconds 0`` (one
untraced pass, plus one traced pass with ``--trace 1``) in separate
processes with different PYTHONHASHSEED values; every deterministic
end-to-end metric and every per-layer count must come out identical. The
whole file takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fleet-scan", "hosting-scan", "ingest-report")
DETERMINISTIC = ("sim_pairs_per_hour", "datagrams_per_pair", "completed_share")


def run_bench(workload: str, seed: int, trace: int, hash_seed: int, cwd: Path = ROOT):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def is_wall_time(name: str) -> bool:
    return (name.endswith("self_s") or name.startswith("stage.")
            or name in ("op_ms_p95", "trace.overhead_ratio"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_counts_repeat_across_hash_seeds(workload):
    a = result(run_bench(workload, 7, 0, 0))
    b = result(run_bench(workload, 7, 0, 4242))
    assert a["correct"] and b["correct"]
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
    for name in DETERMINISTIC:
        assert a["metrics"][name] == b["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat_across_hash_seeds(workload):
    a = result(run_bench(workload, 7, 1, 1))
    b = result(run_bench(workload, 7, 1, 999))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(a["metrics"]) == {m["name"] for m in spec["per_layer"]}
    counts = [name for name in a["metrics"] if not is_wall_time(name)]
    assert counts
    for name in counts:
        assert a["metrics"][name] == b["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_generated_inputs(workload):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        import workloads
        first, second = (workloads.WORKLOADS[workload](seed) for seed in (1, 2))
        assert describe(first.setup()) != describe(second.setup())
        assert describe(first.setup()) == describe(first.setup())
    finally:
        del sys.path[:2]


def describe(state: dict):
    """A comparable digest of the generated inputs of one set-up."""
    if "zones" in state and "expected" in state:  # fleet-scan: fixed names, seeded contents
        return (state["expected"], [sorted(map(repr, zone.records)) for _, zone in state["zones"]])
    if "targets" in state:
        return [repr(t) for t in state["targets"]]
    return ([str(h) for h in state["hostnames"]],
            sorted(sorted(s.vulnerable_pairs) for s in state["snapshots"]))


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("fleet-scan", 1, 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

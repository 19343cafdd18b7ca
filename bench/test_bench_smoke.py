"""Smoke test of the benchmark itself: every workload at a tiny size, traced and untraced.

Run with ``PYTHONPATH=src python -m pytest bench``; the full-size workloads run
through ``python3 bench/run.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import pbsgame.simulation  # noqa: E402
from pbsbench import harness  # noqa: E402
from pbsbench.workloads import ReplicaSpec, SimSpec, VerifySpec  # noqa: E402

TINY = {
    "sim-ref": SimSpec(3, 3, 0.8, sim_rounds=20, trace_rounds=15, warmup_rounds=2),
    "sim-wide": SimSpec(4, 4, 0.1, sim_rounds=10, trace_rounds=8, warmup_rounds=2),
    "replicas": ReplicaSpec(
        builders=2, searchers=2, rounds=15, sweep_pc="0:1:1", sweep_reps=1,
        agents=2, egta_pc=(0.1, 0.5), egta_reps=1, alpha="1,10", jobs=2,
    ),
    "verify": VerifySpec(sign_points=20, mc_points=2, mc_samples=10**4, fd_points=4, trace_calls=1),
}
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
# end-to-end metrics printed by name besides the gated ones
PRINTED = {
    "sim-ref": ("round_us_p50", "round_us_p99", "rounds_per_s"),
    "sim-wide": ("round_us_p50", "round_us_p99", "rounds_per_s"),
    "replicas": ("sweep_cell_s", "egta_profile_s"),
    "verify": ("verify_s",),
}


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_prints_every_metric_and_checks_outputs(name, trace, tmp_path):
    run = harness.run(name, seed=3, seconds=0.3, trace=trace, spec=TINY[name], setup_repeats=1, out_root=tmp_path)
    result = run["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], run["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert run["checks"] > 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, m["name"]
    if not trace:
        for printed in (*PRINTED[name], "setup_s", "peak_rss_mb", "fail_ratio"):
            assert run["detail"][printed]["unit"] and "value" in run["detail"][printed], printed
    assert json.loads((run["workdir"] / "result.json").read_text())["stamp"]["workload"] == name


def test_failed_output_check_fails_the_command(monkeypatch, tmp_path, capsys):
    # a residual above the 1e-12 bound but below the simulation's own 1e-6 guard
    monkeypatch.setattr(pbsgame.simulation, "conservation_residual", lambda settlement, outcome: 1e-9)
    monkeypatch.setitem(harness.workloads.WORKLOADS, "sim-ref", TINY["sim-ref"])
    monkeypatch.setattr(harness, "OUT", tmp_path)
    code = harness.main(["--workload", "sim-ref", "--seed", "1", "--seconds", "0.2", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "sim-ref", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

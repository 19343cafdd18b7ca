"""Command line of the benchmark: run one workload, print its metrics, check its outputs.

    python3 bench/run.py --workload sim-ref --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with tracing
off; ``--trace 1`` runs the workload's fixed traced pass and reports the
per-layer metrics. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from . import probes, workloads
from .tracing import write_spans

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "pbsgame").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stamp(workload: str, seed: int, trace: bool) -> dict:
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def summary(values: list[float]) -> dict:
    """Median, quartiles, 90th and 99th percentiles and sample count (linear interpolation)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return {"n": 0}
    q1, p50, q3, p90, p99 = np.percentile(arr, [25, 50, 75, 90, 99])
    return {"p50": float(p50), "q1": float(q1), "q3": float(q3), "p90": float(p90), "p99": float(p99), "n": int(arr.size)}


def setup_seconds(spec, seed: int, repeats: int) -> list[float]:
    """Time from starting a fresh interpreter to the workload's first unit of work being ready."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = workloads.setup_script(spec, seed)
    times = []
    for _ in range(repeats):
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=True,
        )
        times.append(float(done.stdout.split()[-1]) - started)
    return times


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest waited-for child (worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _quantile(unit: str, samples: list[float], at: str) -> dict:
    stats = summary(samples)
    return {"unit": unit, "value": stats[at], "q1": stats["q1"], "q3": stats["q3"], "n": stats["n"]}


def end_to_end(spec, seed: int, seconds: float, workdir: Path, setup_repeats: int):
    out = workloads.MEASURE[type(spec)](spec, seed, seconds, workdir)
    peak = _peak_rss_mb()
    setups = setup_seconds(spec, seed, setup_repeats)
    calls_ms = summary([ns / 1e6 for ns in out.call_ns])
    values = {"setup_s": statistics.median(setups), "op_ms_p90": calls_ms.get("p90", 0.0), "peak_rss_mb": peak}
    # the printed end-to-end metrics, each with quartiles and sample count
    detail = {}
    for key, samples in out.detail.items():
        if key == "round_us":
            detail["round_us_p50"] = _quantile("us", samples, "p50")
            detail["round_us_p99"] = _quantile("us", samples, "p99")
            detail["rounds_per_s"] = {"unit": "1/s", "value": len(samples) / out.timed_s, "n": len(samples)}
        else:
            detail[key] = _quantile(out.units[key], samples, "p50")
    detail["setup_s"] = _quantile("s", setups, "p50")
    detail["peak_rss_mb"] = {"unit": "MB", "value": peak}
    detail["fail_ratio"] = {"unit": "ratio", "value": out.failed / max(out.attempted, 1), "n": out.attempted}
    detail["op_ms"] = {"unit": "ms", **calls_ms}
    return out, values, detail


def traced(spec, seed: int, workdir: Path):
    out, plain_s, traced_s = workloads.TRACE[type(spec)](spec, seed, workdir)
    values = probes.layer_metrics(out.spans)
    values.update({"replicas.pool_starts": 0, "replicas.parallel_efficiency": 0.0})
    values.update(out.layers)
    values["trace.overhead_ratio"] = traced_s / plain_s
    write_spans(out.spans, workdir / "trace.jsonl")
    detail = {
        "untraced_s": {"unit": "s", "value": plain_s},
        "traced_s": {"unit": "s", "value": traced_s},
        "spans": {"unit": "count", "value": len(out.spans)},
    }
    shares = probes.round_shares(values)
    if shares:
        detail["round_shares"] = {"unit": "ratio", **shares}
    return out, values, detail


def run(name: str, seed: int, seconds: float, trace: bool, spec=None, setup_repeats: int = SETUP_REPEATS,
        out_root: Path | None = None) -> dict:
    """Run one workload; returns the printed result plus details, stamp and checks."""
    spec = spec if spec is not None else workloads.WORKLOADS[name]
    workdir = (out_root or OUT) / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    if trace:
        out, values, detail = traced(spec, seed, workdir)
        declared = benchmark_spec()["per_layer"]
    else:
        out, values, detail = end_to_end(spec, seed, seconds, workdir, setup_repeats)
        declared = benchmark_spec()["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": out.failed == 0 and not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    # tracing overhead is measured by the traced run only
    run_stamp = {**stamp(name, seed, trace), "trace_overhead": values.get("trace.overhead_ratio")}
    report = {"stamp": run_stamp, "result": result, "detail": detail, "checks": out.checks, "problems": out.problems}
    (workdir / "result.json").write_text(json.dumps(report, indent=2) + "\n")
    return {**report, "workdir": workdir}


def _number(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_report(run_result: dict) -> None:
    result, detail = run_result["result"], run_result["detail"]
    print("stamp " + json.dumps(run_result["stamp"]))
    for name, metric in result["metrics"].items():
        print(f"{name} = {_number(metric['value'])} {metric['unit']}")
    for name, info in detail.items():
        fields = ", ".join(f"{k} {_number(v)}" for k, v in info.items() if k not in ("unit", "value"))
        if "value" in info:
            print(f"  {name} = {_number(info['value'])} {info['unit']}" + (f" ({fields})" if fields else ""))
        else:
            print(f"  {name} [{info['unit']}]: {fields}")
    print(f"checks {run_result['checks']}, fail_ratio {result['failed']}/{result['attempted']}")
    for problem in run_result["problems"]:
        print("FAILED CHECK: " + problem.strip().replace("\n", " | "))
    print(f"written to {run_result['workdir']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_report(run_result)
    print(json.dumps(run_result["result"]))
    return 0 if run_result["result"]["correct"] else 1

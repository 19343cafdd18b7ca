"""The four workloads, each a closed loop driven through pbsgame's public API.

All use the reference hyperparameters (the ``SimConfig`` and CLI defaults).
Every workload has an untimed warm-up, a measured closed loop (the next round,
command or report starts only when the previous one is done) and a traced
mode that runs a fixed amount of work twice, untraced and traced, and checks
that both give the same outputs.

An *operation* is the unit that counts into ``attempted``/``failed``: a round
for ``sim-*``, a replica task (sweep cell or egta profile) for ``replicas``,
and a verification point for ``verify``. A *call* is the unit whose latency is
timed: a round, one iteration of CLI commands, or one ``verification_report``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import resource
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pbsgame.analytic
import pbsgame.cli
import pbsgame.egta
import pbsgame.sweep
from pbsgame.simulation import MetricsSeries, SimConfig, Simulation

from . import probes
from .tracing import Tracer

# conservation bound the acceptance suite asserts (criterion 8)
RESIDUAL_BOUND = 1e-12
ALPHARANK_SUM_TOL = 1e-12


@dataclass(frozen=True)
class SimSpec:
    builders: int
    searchers: int
    p_c: float
    sim_rounds: int  # rounds per simulation; the closed loop starts a new one after
    trace_rounds: int  # rounds of the single simulation a traced run steps
    warmup_rounds: int


@dataclass(frozen=True)
class ReplicaSpec:
    builders: int  # sweep population
    searchers: int
    rounds: int
    sweep_pc: str
    sweep_reps: int
    agents: int  # egta population; every split 0..agents is a profile
    egta_pc: tuple[float, ...]
    egta_reps: int
    alpha: str
    jobs: int


@dataclass(frozen=True)
class VerifySpec:
    """Sizes of one ``verification_report`` call, repeated with the same seed.

    The seed is the acceptance suite's criterion-6 fixture and does not follow
    ``--seed``: the report's Monte Carlo check fails on about one seed in eight
    with a correct closed form (bench/README.md, known defects).
    """

    sign_points: int
    mc_points: int
    mc_samples: int
    fd_points: int
    trace_calls: int
    report_seed: int = 6

    @property
    def points(self) -> int:
        return self.sign_points + self.mc_points + self.fd_points


WORKLOADS = {
    "sim-ref": SimSpec(10, 10, 0.8, sim_rounds=2000, trace_rounds=1500, warmup_rounds=50),
    "sim-wide": SimSpec(50, 50, 0.1, sim_rounds=100, trace_rounds=100, warmup_rounds=2),
    "replicas": ReplicaSpec(
        builders=5, searchers=5, rounds=300, sweep_pc="0:1:0.5", sweep_reps=2,
        agents=4, egta_pc=(0.1, 0.5), egta_reps=2, alpha="0.1:100:log10", jobs=2,
    ),
    "verify": VerifySpec(sign_points=1000, mc_points=50, mc_samples=10**6, fd_points=100, trace_calls=2),
}


def child_seed(seed: int, index: int) -> int:
    """Seed of the index-th simulation, command or report of a run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Outcome:
    """What one run did: timings, operation counts and output checks."""

    call_ns: list[int] = field(default_factory=list)  # latency of each timed call
    timed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    checks: int = 0
    problems: list[str] = field(default_factory=list)
    detail: dict[str, list[float]] = field(default_factory=dict)  # latency samples, by printed name
    units: dict[str, str] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)  # traced runs only
    spans: list[dict] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        self.checks += 1
        if not ok and len(self.problems) < 20:
            self.problems.append(message)
        return ok

    def sample(self, name: str, unit: str, value: float) -> None:
        self.detail.setdefault(name, []).append(value)
        self.units[name] = unit


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------- simulation

def _sim_config(spec: SimSpec, rounds: int, seed: int) -> SimConfig:
    return SimConfig(
        n_builders=spec.builders, n_searchers=spec.searchers, rounds=rounds, p_c=spec.p_c, seed=seed
    )


def _series_digest(metrics: MetricsSeries) -> str:
    return _digest(json.dumps([getattr(metrics, name) for name in MetricsSeries.FIELDS]))


def _step(sim: Simulation, out: Outcome, deadline_ns: int | None, timed: bool) -> bool:
    """Run rounds until the simulation's length or the deadline; False once the deadline passed."""
    failed_here = 0
    alive = True
    while sim.round_index < sim.config.rounds:
        if deadline_ns is not None and time.perf_counter_ns() >= deadline_ns:
            alive = False
            break
        out.attempted += 1
        started = time.perf_counter_ns()
        try:
            record = sim.run_round()
        except Exception:  # a raising round is a failed operation; the run goes on
            out.failed += 1
            out.check(False, traceback.format_exc(limit=3))
            return alive
        if timed:
            out.call_ns.append(time.perf_counter_ns() - started)
        if not out.check(record.residual <= RESIDUAL_BOUND, f"round {record.index}: residual {record.residual:.3e}"):
            out.failed += 1
            failed_here += 1
    lengths = {len(getattr(sim.metrics, name)) for name in MetricsSeries.FIELDS}
    if not out.check(lengths == {sim.round_index}, f"series lengths {sorted(lengths)} for {sim.round_index} rounds"):
        out.failed += sim.round_index - failed_here
    return alive


def measure_sim(spec: SimSpec, seed: int, seconds: float, workdir: Path) -> Outcome:
    out = Outcome()
    _step(Simulation(_sim_config(spec, spec.warmup_rounds, child_seed(seed, 0))), out, None, timed=False)
    started = time.perf_counter_ns()
    deadline = started + int(seconds * 1e9)
    index = 1
    while _step(Simulation(_sim_config(spec, spec.sim_rounds, child_seed(seed, index))), out, deadline, timed=True):
        index += 1
    out.timed_s = (time.perf_counter_ns() - started) / 1e9
    for ns in out.call_ns:
        out.sample("round_us", "us", ns / 1e3)
    return out


def trace_sim(spec: SimSpec, seed: int, workdir: Path) -> tuple[Outcome, float, float]:
    out = Outcome()
    _step(Simulation(_sim_config(spec, spec.warmup_rounds, child_seed(seed, 0))), out, None, timed=False)

    def one_pass():
        sim = Simulation(_sim_config(spec, spec.trace_rounds, seed))
        started = time.perf_counter()
        _step(sim, out, None, timed=False)
        return time.perf_counter() - started, _series_digest(sim.metrics)

    plain_s, plain_digest = one_pass()
    tracer = Tracer()
    probes.install_simulation(tracer)
    try:
        traced_s, traced_digest = one_pass()
    finally:
        out.spans = tracer.finish()
    if not out.check(plain_digest == traced_digest, "traced metric series differ from the untraced run"):
        out.failed = out.attempted
    return out, plain_s, traced_s


# ------------------------------------------------------------------ replicas

def _commands(spec: ReplicaSpec, seed: int, workdir: Path, jobs: int) -> list[tuple[str, list[str], Path]]:
    """One iteration: a sweep over the p_c grid, then egta at each p_c value.

    egta is driven one p_c value at a time, the per-p_c pool pattern cmd_egta
    uses internally; a grid passed to ``egta --pc`` currently fails (see
    bench/README.md, known defects).
    """
    common = ["--rounds", str(spec.rounds), "--seed", str(seed), "--jobs", str(jobs)]
    sweep_dir = workdir / "sweep"
    commands = [(
        "sweep",
        ["sweep", "--builders", str(spec.builders), "--searchers", str(spec.searchers),
         "--pc", spec.sweep_pc, "--reps", str(spec.sweep_reps), *common, "-o", str(sweep_dir)],
        sweep_dir,
    )]
    for k, p in enumerate(spec.egta_pc):
        egta_dir = workdir / f"egta-{k}"
        commands.append((
            "egta",
            ["egta", "--agents", str(spec.agents), "--pc", repr(p), "--alpha", spec.alpha,
             "--reps", str(spec.egta_reps), *common, "-o", str(egta_dir)],
            egta_dir,
        ))
    return commands


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _check_sweep(spec: ReplicaSpec, out_dir: Path, out: Outcome) -> int:
    """Output checks of one sweep command; returns the number of failed cells."""
    rows = _read_csv(out_dir / "sweep.csv")
    p_values = pbsgame.cli.parse_grid(spec.sweep_pc)
    failed = 0
    for p in p_values:
        for rep in range(spec.sweep_reps):
            cell = {r["metric"]: float(r["value"]) for r in rows
                    if float(r["p_c"]) == p and int(r["repetition"]) == rep}
            complete = out.check(set(cell) == set(pbsgame.sweep.SWEEP_METRICS), f"sweep cell ({p}, {rep}) incomplete")
            conserved = complete and out.check(
                cell["max_residual"] <= RESIDUAL_BOUND, f"sweep cell ({p}, {rep}): residual {cell['max_residual']:.3e}"
            )
            failed += not conserved
    return failed


def _check_egta(spec: ReplicaSpec, out_dir: Path, out: Outcome) -> int:
    """Output checks of one single-p_c egta command; returns the number of failed profiles."""
    hpt = _read_csv(out_dir / "hpt.csv")
    missing = set(range(spec.agents + 1)) - {int(r["n_building"]) for r in hpt}
    out.check(not missing, f"hpt.csv misses profiles {sorted(missing)}")
    failed = len(missing) * spec.egta_reps
    for r in hpt:
        ok = out.check(int(r["samples"]) == spec.egta_reps, f"hpt row {r['n_building']}: {r['samples']} samples")
        ok = out.check(float(r["max_residual"]) <= RESIDUAL_BOUND, f"hpt row {r['n_building']}: residual {r['max_residual']}") and ok
        failed += 0 if ok else spec.egta_reps
    ranks = _read_csv(out_dir / "alpharank.csv")
    out.check(len(ranks) == len(pbsgame.cli.parse_grid(spec.alpha)), f"alpharank.csv has {len(ranks)} rows")
    for r in ranks:
        total = float(r["nu_building"]) + float(r["nu_sharing"])
        if not out.check(abs(total - 1.0) <= ALPHARANK_SUM_TOL, f"alpha-rank row alpha={r['alpha']} sums to {total!r}"):
            return (spec.agents + 1) * spec.egta_reps
    return failed


def _tasks(spec: ReplicaSpec, kind: str) -> int:
    if kind == "sweep":
        return len(pbsgame.cli.parse_grid(spec.sweep_pc)) * spec.sweep_reps
    return (spec.agents + 1) * spec.egta_reps


def _run_command(spec: ReplicaSpec, kind: str, argv: list[str], out_dir: Path, out: Outcome) -> None:
    """Run one CLI command in-process, check its outputs and sample its wall time per task."""
    tasks = _tasks(spec, kind)
    out.attempted += tasks
    started = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = pbsgame.cli.main(argv)
    except Exception:  # a raising command fails all its tasks; the run goes on
        code = None
        out.check(False, traceback.format_exc(limit=3))
    elapsed = time.perf_counter_ns() - started
    if not out.check(code == 0, f"{' '.join(argv[:1])} exited {code}"):
        out.failed += tasks
    else:
        out.failed += _check_sweep(spec, out_dir, out) if kind == "sweep" else _check_egta(spec, out_dir, out)
    out.sample("sweep_cell_s" if kind == "sweep" else "egta_profile_s", "s", elapsed / 1e9 / tasks)


def _iteration_digests(commands) -> dict[str, str]:
    files = {"sweep": ("sweep.csv",), "egta": ("hpt.csv", "alpharank.csv")}
    return {
        f"{out_dir.name}/{name}": hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for kind, _, out_dir in commands
        for name in files[kind]
        if (out_dir / name).exists()
    }


def measure_replicas(spec: ReplicaSpec, seed: int, seconds: float, workdir: Path) -> Outcome:
    out = Outcome()
    kind, argv, out_dir = _commands(spec, child_seed(seed, 0), workdir / "warmup", jobs=1)[0]
    _run_command(spec, kind, [*argv, "--rounds", "20"], out_dir, out)
    out.detail.clear()
    started = time.perf_counter_ns()
    deadline = started + int(seconds * 1e9)
    index = 1
    while time.perf_counter_ns() < deadline:
        call_started = time.perf_counter_ns()
        for kind, argv, out_dir in _commands(spec, child_seed(seed, index), workdir, spec.jobs):
            _run_command(spec, kind, argv, out_dir, out)
        out.call_ns.append(time.perf_counter_ns() - call_started)
        index += 1
    out.timed_s = (time.perf_counter_ns() - started) / 1e9
    return out


class _CountingPool:
    """Stands in for ProcessPoolExecutor in the modules that start pools, counting starts."""

    def __init__(self, executor):
        self.executor = executor
        self.starts = 0

    def __call__(self, *args, **kwargs):
        self.starts += 1
        return self.executor(*args, **kwargs)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def trace_replicas(spec: ReplicaSpec, seed: int, workdir: Path) -> tuple[Outcome, float, float]:
    """One iteration at --jobs 2 and at --jobs 1 untraced, then at --jobs 1 traced.

    Spans inside pool workers cannot be seen from here, so the traced pass runs
    at --jobs 1; pool starts and worker busy time come from the --jobs 2 pass.
    """
    out = Outcome()

    def one_pass(jobs, name):
        commands = _commands(spec, seed, workdir / name, jobs)
        started = time.perf_counter()
        for kind, argv, out_dir in commands:
            _run_command(spec, kind, argv, out_dir, out)
        return time.perf_counter() - started, _iteration_digests(commands)

    counter = _CountingPool(pbsgame.sweep.ProcessPoolExecutor)
    originals = (pbsgame.sweep.ProcessPoolExecutor, pbsgame.egta.ProcessPoolExecutor)
    pbsgame.sweep.ProcessPoolExecutor = pbsgame.egta.ProcessPoolExecutor = counter
    cpu_before = _children_cpu_s()
    try:
        parallel_s, parallel_digests = one_pass(spec.jobs, "jobs2")
    finally:
        pbsgame.sweep.ProcessPoolExecutor, pbsgame.egta.ProcessPoolExecutor = originals
    busy_s = _children_cpu_s() - cpu_before

    serial_s, serial_digests = one_pass(1, "jobs1")
    tracer = Tracer()
    probes.install_simulation(tracer)
    probes.install_cli(tracer)
    try:
        traced_s, traced_digests = one_pass(1, "traced")
    finally:
        out.spans = tracer.finish()

    same = out.check(len(parallel_digests) == 1 + 2 * len(spec.egta_pc), f"missing outputs: {sorted(parallel_digests)}")
    same = out.check(parallel_digests == serial_digests, "--jobs 2 and --jobs 1 outputs differ") and same
    same = out.check(serial_digests == traced_digests, "traced outputs differ from the untraced run") and same
    if not same:
        out.failed = out.attempted
    out.layers = {
        "replicas.pool_starts": counter.starts,
        "replicas.parallel_efficiency": busy_s / (spec.jobs * parallel_s),
    }
    return out, serial_s, traced_s


# -------------------------------------------------------------------- verify

def _report(spec: VerifySpec, out: Outcome) -> dict | None:
    out.attempted += spec.points
    try:
        report = pbsgame.analytic.verification_report(
            sign_points=spec.sign_points, mc_points=spec.mc_points,
            mc_samples=spec.mc_samples, fd_points=spec.fd_points, seed=spec.report_seed,
        )
    except Exception:  # a raising report fails all its points; the run goes on
        out.failed += spec.points
        out.check(False, traceback.format_exc(limit=3))
        return None
    sign, mc, fd = report["sign_check"], report["mc_check"], report["fd_check"]
    bad_fd = spec.fd_points if fd["max_relative_error"] >= 1e-4 else 0
    out.failed += sign["violations"] + mc["failures"] + bad_fd
    out.check(report["passed"], f"verification failed: {sign['violations']} sign, {mc['failures']} mc, fd {fd['max_relative_error']:.2e}")
    return report


def measure_verify(spec: VerifySpec, seed: int, seconds: float, workdir: Path) -> Outcome:
    out = Outcome()
    _report(VerifySpec(10, 1, 1000, 2, 0, spec.report_seed), out)
    started = time.perf_counter_ns()
    deadline = started + int(seconds * 1e9)
    while time.perf_counter_ns() < deadline:
        call_started = time.perf_counter_ns()
        _report(spec, out)
        out.call_ns.append(time.perf_counter_ns() - call_started)
        out.sample("verify_s", "s", out.call_ns[-1] / 1e9)
    out.timed_s = (time.perf_counter_ns() - started) / 1e9
    return out


def trace_verify(spec: VerifySpec, seed: int, workdir: Path) -> tuple[Outcome, float, float]:
    out = Outcome()

    def one_pass():
        started = time.perf_counter()
        reports = [_report(spec, out) for _ in range(spec.trace_calls)]
        return time.perf_counter() - started, _digest(json.dumps(reports, sort_keys=True))

    plain_s, plain_digest = one_pass()
    tracer = Tracer()
    probes.install_analytic(tracer)
    try:
        traced_s, traced_digest = one_pass()
    finally:
        out.spans = tracer.finish()
    if not out.check(plain_digest == traced_digest, "traced reports differ from the untraced run"):
        out.failed = out.attempted
    return out, plain_s, traced_s


MEASURE = {SimSpec: measure_sim, ReplicaSpec: measure_replicas, VerifySpec: measure_verify}
TRACE = {SimSpec: trace_sim, ReplicaSpec: trace_replicas, VerifySpec: trace_verify}


def setup_script(spec, seed: int) -> str:
    """Code a fresh interpreter runs up to the first unit of work being ready.

    It prints ``time.monotonic()`` at that point; the parent subtracts its own
    monotonic reading taken before starting the interpreter.
    """
    if isinstance(spec, SimSpec):
        body = (
            "from pbsgame.simulation import SimConfig, Simulation\n"
            f"Simulation(SimConfig(n_builders={spec.builders}, n_searchers={spec.searchers}, "
            f"rounds={spec.sim_rounds}, p_c={spec.p_c!r}, seed={seed}))\n"
            "print(time.monotonic())\n"
        )
    elif isinstance(spec, ReplicaSpec):
        argv = _commands(spec, seed, Path("unused"), spec.jobs)[0][1]
        body = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from pbsgame.cli import build_parser\n"
            f"build_parser().parse_args({argv!r})\n"
            f"with ProcessPoolExecutor(max_workers={spec.jobs}) as pool:\n"
            f"    list(pool.map(abs, range({spec.jobs})))\n"
            "    print(time.monotonic(), flush=True)\n"
        )
    else:
        body = (
            "import numpy as np\n"
            "from pbsgame.analytic import verification_report\n"
            f"np.random.default_rng({spec.report_seed})\n"
            "print(time.monotonic())\n"
        )
    return "import time\n" + body

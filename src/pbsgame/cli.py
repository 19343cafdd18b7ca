"""Command-line entry point: simulate, sweep, egta, verify-analytic.

Settings come from an optional JSON config file plus flag overrides, flags
winning; a setting neither gives keeps its ``SimConfig``/``GAConfig`` default.
Every run writes a manifest with sha256 checksums of the emitted files;
re-running with the same seed reproduces identical checksums regardless of
--jobs.

Exit codes: 0 success, 2 configuration error, 3 IO error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .analytic import verification_report
from .egta import HeuristicPayoffTable, HptRow, estimate_hpt, intensity_sweep
from .errors import ConfigError, NumericalError
from .evolution import GAConfig
from .manifest import write_manifest
from .simulation import SimConfig, Simulation, moving_average
from .sweep import sweep_conflict


def parse_grid(spec: str) -> list[float]:
    """Parse a value grid: a number, a comma list, start:stop:step, or start:stop:logN."""
    spec = spec.strip()
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ValueError("grid must be start:stop:step or start:stop:logN")
            start, stop = float(parts[0]), float(parts[1])
            if parts[2].startswith("log"):
                count = int(parts[2][3:])
                if count < 1 or start <= 0 or stop <= 0:
                    raise ValueError("log grid needs positive bounds and count >= 1")
                return [float(v) for v in np.geomspace(start, stop, count)]
            step = float(parts[2])
            if step <= 0:
                raise ValueError("grid step must be positive")
            count = int(round((stop - start) / step)) + 1
            values = [round(start + k * step, 10) for k in range(count)]
            values = [v for v in values if v <= stop + 1e-9]
        elif "," in spec:
            values = [float(v) for v in spec.split(",") if v.strip()]
        else:
            values = [float(spec)]
        if not values:
            raise ValueError("grid is empty")
        return values
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}: {exc}") from exc


# Each flag and config-file key, in manifest order, and the SimConfig field it
# sets (a GAConfig field for the GA rates). A setting is converted to its
# field's type; model hyperparameters default only in the dataclasses.
_FIELDS = {
    "builders": "n_builders", "searchers": "n_searchers", "rounds": "rounds", "pc": "p_c",
    "value_rate": "value_rate", "temperature": "temperature", "learning_rate": "learning_rate",
    "trigger": "trigger", "elimination": "elimination", "mutation": "mutation",
    "capacity": "capacity", "seed": "seed", "ma_window": "ma_window",
    "snapshot_every": "snapshot_every",
}
_GA_FIELDS = {f.name for f in fields(GAConfig)}
_TYPES = {**get_type_hints(SimConfig), **get_type_hints(GAConfig)}
# the only optional field is capacity, which a file may also set to "none"
_CONVERT = {int: int, float: float, int | None: lambda v: None if v in (None, "none") else int(v)}
_RUN_DEFAULTS = {"builders": 10, "searchers": 10, "rounds": 10000}
_SIMULATE_DEFAULTS = {**_RUN_DEFAULTS, "pc": 0.8, "snapshot_every": 1000}
_GRID_DEFAULTS = {**_RUN_DEFAULTS, "pc": "0:1:0.1"}  # sweep and egta read pc as a grid


def _convert(key: str, value, convert):
    """``convert(value)``, or a ConfigError naming ``key``; a boolean is never a number."""
    try:
        if isinstance(value, bool):
            raise TypeError("expected a number")
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {key} {value!r}: {exc}") from exc


def _settings(args: argparse.Namespace, defaults: dict) -> dict:
    """Raw settings: the defaults, then the config file, then the flags given."""
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    settings = dict(defaults)
    if args.config is not None:
        try:
            payload = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config}: line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"config file {args.config}: expected a JSON object")
        unknown = set(payload) - set(_FIELDS)
        if unknown:
            raise ConfigError(f"config file {args.config}: unknown keys {sorted(unknown)}")
        settings.update(payload)
    for key in _FIELDS:
        if getattr(args, key, None) is not None:
            settings[key] = getattr(args, key)
    return settings


def _sim_config(settings: dict, **extra) -> SimConfig:
    """The SimConfig the settings describe; ``extra`` sets fields directly."""
    sim, ga = dict(extra), {}
    for key, value in settings.items():
        field = _FIELDS[key]
        (ga if field in _GA_FIELDS else sim)[field] = _convert(key, value, _CONVERT[_TYPES[field]])
    return SimConfig(**sim, ga=GAConfig(**ga))


def _grid_config(args: argparse.Namespace) -> tuple[SimConfig, list[float], object]:
    """sweep and egta: the config at the first p_c of the grid, the grid, and its spec."""
    settings = _settings(args, _GRID_DEFAULTS)
    spec = settings.pop("pc")
    grid = _convert("pc", spec, lambda value: parse_grid(str(value)))
    return _sim_config(settings, p_c=grid[0]), grid, spec


def _echo(config: SimConfig) -> dict:
    """The manifest's config block: each key with the value the run used."""
    return {
        key: getattr(config.ga if field in _GA_FIELDS else config, field)
        for key, field in _FIELDS.items()
    }


def _output_dir(args: argparse.Namespace) -> Path:
    default = os.environ.get("PBSGAME_OUTPUT", "out")
    path = Path(args.output if args.output is not None else default)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def cmd_simulate(args: argparse.Namespace) -> int:
    started = time.monotonic()
    config = _sim_config(_settings(args, _SIMULATE_DEFAULTS), record_rounds=args.record_rounds)
    out = _output_dir(args)

    sim = Simulation(config)
    sim.run()

    metrics = sim.metrics
    bid_ma = moving_average(metrics.avg_bid_ratio, config.ma_window)
    rebate_ma = moving_average(metrics.avg_rebate_ratio, config.ma_window)
    metrics_path = out / "metrics.csv"
    _write_csv(
        metrics_path,
        ["round", *metrics.FIELDS, "bid_ratio_ma", "rebate_ratio_ma"],
        (
            [t, *(_fmt(v) for v in metrics.row(t)), _fmt(bid_ma[t]), _fmt(rebate_ma[t])]
            for t in range(len(metrics))
        ),
    )
    files = [metrics_path]

    if config.record_rounds:
        rounds_path = out / "rounds.csv"
        _write_csv(
            rounds_path,
            ["round", "agent", "role", "alpha", "gamma1", "gamma2", "payoff"],
            _round_rows(sim),
        )
        files.append(rounds_path)

    pools_path = out / "pools.json"
    pools_path.write_text(json.dumps(sim.snapshots if sim.snapshots else [sim.snapshot()]))
    files.append(pools_path)

    write_manifest(
        out, "simulate", _echo(config), config.seed, files, time.monotonic() - started, __version__
    )
    print(f"simulate: {config.rounds} rounds -> {out}")
    return 0


def _round_rows(sim: Simulation):
    for record in sim.records:
        for agent in range(sim.config.n_agents):
            role = sim.config.role_of(agent)
            alpha = record.alphas.get(agent)
            gamma = record.gammas.get(agent)
            yield [
                record.index,
                agent,
                role,
                _fmt(alpha),
                _fmt(gamma.gamma1 if gamma else None),
                _fmt(gamma.gamma2 if gamma else None),
                _fmt(record.payoffs[agent]),
            ]
        yield [record.index, -1, "proposer", "", "", "", _fmt(record.payment)]


def cmd_sweep(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if args.reps < 1:
        raise ConfigError(f"--reps must be >= 1, got {args.reps}")
    base, p_values, spec = _grid_config(args)
    out = _output_dir(args)

    rows = sweep_conflict(base, p_values, args.reps, jobs=args.jobs)
    sweep_path = out / "sweep.csv"
    _write_csv(
        sweep_path,
        ["p_c", "repetition", "metric", "value"],
        ([_fmt(r.p_c), r.repetition, r.metric, _fmt(r.value)] for r in rows),
    )
    write_manifest(
        out,
        "sweep",
        {**_echo(base), "pc": spec, "pc_grid": p_values, "reps": args.reps},
        base.seed,
        [sweep_path],
        time.monotonic() - started,
        __version__,
    )
    print(f"sweep: {len(p_values)} p values x {args.reps} reps -> {out}")
    return 0


def _load_hpt_file(path: str) -> HeuristicPayoffTable:
    rows = []
    try:
        with open(path, newline="") as handle:
            for raw in csv.DictReader(handle):
                rows.append(
                    HptRow(
                        n_building=int(raw["n_building"]),
                        n_sharing=int(raw["n_sharing"]),
                        u_building=float(raw["u_building"]) if raw["u_building"] else None,
                        u_sharing=float(raw["u_sharing"]) if raw["u_sharing"] else None,
                        samples=int(raw.get("samples") or 0),
                    )
                )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad payoff table file {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"payoff table file {path} is empty")
    return HeuristicPayoffTable(m=rows[0].n_building + rows[0].n_sharing, rows=tuple(rows))


def cmd_egta(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if args.agents < 2:
        raise ConfigError(f"the meta-game needs at least 2 agents, got {args.agents}")
    template, p_values, spec = _grid_config(args)
    alpha_values = parse_grid(args.alpha)
    if min(alpha_values) <= 0:
        raise ConfigError(f"ranking intensity must be positive, got {min(alpha_values)}")
    out = _output_dir(args)
    files = []

    # (p_c cell, payoff table) pairs; a table read from a file has no p_c
    if args.hpt_file:
        tables = [("", _load_hpt_file(args.hpt_file))]
    else:
        tables = [
            (_fmt(p), estimate_hpt(args.agents, replace(template, p_c=p), args.reps, args.jobs))
            for p in p_values
        ]
        hpt_path = out / "hpt.csv"
        _write_csv(
            hpt_path,
            ["p_c", "n_building", "n_sharing", "u_building", "u_sharing", "samples", "max_residual"],
            (
                [p, row.n_building, row.n_sharing, _fmt(row.u_building), _fmt(row.u_sharing),
                 row.samples, _fmt(row.max_residual)]
                for p, hpt in tables
                for row in hpt.rows
            ),
        )
        files.append(hpt_path)

    rank_rows = [
        [p, _fmt(result.alpha), _fmt(result.nu_building), _fmt(result.nu_sharing)]
        for p, hpt in tables
        for result in intensity_sweep(hpt, alpha_values)
    ]
    rank_path = out / "alpharank.csv"
    _write_csv(rank_path, ["p_c", "alpha", "nu_building", "nu_sharing"], rank_rows)
    files.append(rank_path)

    write_manifest(
        out,
        "egta",
        {**_echo(template), "pc": spec, "agents": args.agents, "alpha_grid": alpha_values,
         "reps": args.reps},
        template.seed,
        files,
        time.monotonic() - started,
        __version__,
    )
    print(f"egta: {len(rank_rows)} alpha-rank rows -> {out}")
    return 0


def cmd_verify_analytic(args: argparse.Namespace) -> int:
    started = time.monotonic()
    mc_samples = _convert("mc_samples", args.mc_samples, lambda v: int(float(v)))
    points = (args.sign_points, args.mc_points, args.fd_points)
    if min(points) < 0 or sum(points) == 0:
        raise ConfigError(f"point counts must be >= 0 with at least one point, got {points}")
    out = _output_dir(args)
    report = verification_report(
        sign_points=args.sign_points,
        mc_points=args.mc_points,
        mc_samples=mc_samples,
        fd_points=args.fd_points,
        seed=args.seed,
    )
    report_path = out / "verify.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    write_manifest(
        out,
        "verify-analytic",
        {
            "sign_points": args.sign_points,
            "mc_points": args.mc_points,
            "mc_samples": mc_samples,
            "fd_points": args.fd_points,
        },
        args.seed,
        [report_path],
        time.monotonic() - started,
        __version__,
    )
    print(f"verify-analytic: passed={report['passed']} -> {out}")
    if not report["passed"]:
        raise NumericalError("analytic verification failed; see verify.json")
    return 0


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    for key in _FIELDS:
        if key not in ("pc", "snapshot_every"):  # each command declares these itself
            parser.add_argument("--" + key.replace("_", "-"))


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", "-o", help="output directory (default $PBSGAME_OUTPUT or ./out)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel worker processes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbsgame",
        description="Role-selection game simulator for PBS block production",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one co-evolution simulation")
    _add_sim_flags(p_sim)
    _add_common_flags(p_sim)
    p_sim.add_argument("--pc", help="bundle conflict probability")
    p_sim.add_argument("--snapshot-every")
    p_sim.add_argument(
        "--record-rounds", dest="record_rounds", action="store_true", help="emit rounds.csv"
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="sweep the conflict probability")
    _add_sim_flags(p_sweep)
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--pc", help="p_c grid (value, list, or start:stop:step)")
    p_sweep.add_argument("--reps", type=int, default=10)
    p_sweep.set_defaults(func=cmd_sweep)

    p_egta = sub.add_parser("egta", help="meta-game payoff table and alpha-rank")
    _add_sim_flags(p_egta)
    _add_common_flags(p_egta)
    p_egta.add_argument("--agents", type=int, default=10, help="meta-game population size")
    p_egta.add_argument("--pc", help="p_c grid")
    p_egta.add_argument("--alpha", default="0.1:100:log30", help="ranking intensity grid")
    p_egta.add_argument("--reps", type=int, default=10, help="simulations per profile")
    p_egta.add_argument("--hpt-file", help="skip simulation; rank an existing payoff table CSV")
    p_egta.set_defaults(func=cmd_egta)

    p_verify = sub.add_parser("verify-analytic", help="check the closed-form market on a grid")
    _add_common_flags(p_verify)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--sign-points", type=int, default=1000)
    p_verify.add_argument("--mc-points", type=int, default=50)
    p_verify.add_argument("--mc-samples", default="1e6")
    p_verify.add_argument("--fd-points", type=int, default=100)
    p_verify.set_defaults(func=cmd_verify_analytic)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

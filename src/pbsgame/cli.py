"""Command-line entry point: simulate, sweep, egta, verify-analytic.

Settings come from an optional JSON config file plus flag overrides, flags
winning; a setting neither gives keeps the one default written for it.

A command checks its input and computes its results without touching the
filesystem, and returns them as a ``Result``; ``main`` alone writes. It checks
the output path before any work and makes the directory only once the
results exist, so a run that fails leaves no output behind. The one
exception is verify-analytic's exit 4: its failing report is written first.
Every run writes a manifest with sha256 checksums of the emitted files;
re-running with the same seed reproduces identical checksums regardless of
--jobs.

Exit codes: 0 success, 2 configuration error, 3 IO error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .analytic import verification_report
from .codec import BUILDER_ALPHAS, decode_searcher
from .egta import HeuristicPayoffTable, HptRow, estimate_hpt, intensity_sweep
from .errors import ConfigError, NumericalError
from .evolution import GAConfig
from .manifest import fresh_file, write_manifest
from .simulation import RoundRecord, SimConfig, Simulation, moving_average
from .sweep import sweep_conflict


# the most points one grid may hold; its size is checked before it is built
MAX_GRID_POINTS = 10**6


def parse_grid(spec: str) -> list[float]:
    """Parse a value grid: a number, a comma list, start:stop:step, or start:stop:logN."""
    spec = spec.strip()
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ValueError("grid must be start:stop:step or start:stop:logN")
            start, stop = float(parts[0]), float(parts[1])
            if not (math.isfinite(start) and math.isfinite(stop)):
                raise ValueError("grid bounds must be finite")
            log = parts[2].startswith("log")
            if log:
                count = int(parts[2][3:])
                if count < 1 or start <= 0 or stop <= 0:
                    raise ValueError("log grid needs positive bounds and count >= 1")
            else:
                step = float(parts[2])
                if not step > 0:
                    raise ValueError("grid step must be positive")
                span = (stop - start) / step  # inf for a step far below the span
                count = round(span) + 1 if math.isfinite(span) else math.inf
            if count > MAX_GRID_POINTS:
                raise ValueError(f"grid has more than {MAX_GRID_POINTS} points")
            if log:
                return [float(v) for v in np.geomspace(start, stop, count)]
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
    "capacity": "capacity", "seed": "seed",
}
_GA_FIELDS = {f.name for f in fields(GAConfig)}
_TYPES = {**get_type_hints(SimConfig), **get_type_hints(GAConfig)}


def _integer(value) -> int:
    """An integral number or numeral as an int: 7, "7", 4000.0 and "1e4" are; 2.9 is not."""
    if isinstance(value, str) and not value.strip().lstrip("+-").isdigit():
        value = float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not an integer")
    return int(value)


# the only optional field is capacity, which a file may also set to "none"
_CONVERT = {int: _integer, float: float, int | None: lambda v: None if v in (None, "none") else _integer(v)}
_RUN_DEFAULTS = {"builders": 10, "searchers": 10, "rounds": 10000}
_SIMULATE_DEFAULTS = {**_RUN_DEFAULTS, "pc": 0.8, "ma_window": 200, "snapshot_every": 1000}
# simulate's output settings shape metrics.csv and pools.json only, so no SimConfig holds them
_SIMULATE_KEYS = (*_FIELDS, "ma_window", "snapshot_every")
_GRID_DEFAULTS = {**_RUN_DEFAULTS, "pc": "0:1:0.1"}  # sweep and egta read pc as a grid
# egta takes its role counts from --agents, so it has no builders or searchers setting
_EGTA_KEYS = [key for key in _FIELDS if key not in ("builders", "searchers")]
# egta's run sizes, applied only when it simulates
_EGTA_RUN_DEFAULTS = {"agents": 10, "reps": 10}


def _convert(key: str, value, convert):
    """``convert(value)``, or a ConfigError naming ``key``; a boolean is never a number."""
    try:
        if isinstance(value, bool):
            raise TypeError("expected a number")
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {key} {value!r}: {exc}") from exc


def _settings(args: argparse.Namespace, defaults: dict, keys=tuple(_FIELDS)) -> dict:
    """Raw settings of ``keys``: the defaults, then the config file, then the flags given."""
    settings = {key: value for key, value in defaults.items() if key in keys}
    if args.config is not None:
        try:
            payload = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config}: line {exc.lineno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {args.config}: not UTF-8 text: {exc.reason}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"config file {args.config}: expected a JSON object")
        unknown = set(payload) - set(keys)
        if unknown:
            raise ConfigError(f"config file {args.config}: unknown keys {sorted(unknown)}")
        settings.update(payload)
    for key in keys:
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


def _distinct_grid(key: str, spec) -> list[float]:
    """The grid ``spec`` gives, refusing a repeated value: each value keys its own output rows."""
    grid = _convert(key, spec, lambda value: parse_grid(str(value)))
    if repeated := sorted(value for value, count in Counter(grid).items() if count > 1):
        raise ConfigError(f"bad {key} {spec!r}: repeated {_FIELDS.get(key, key)} values {repeated}")
    return grid


def _grid_config(args, keys=tuple(_FIELDS), **extra) -> tuple[SimConfig, list[float], object]:
    """sweep and egta: the config at the first p_c of the grid, the grid, and its spec."""
    if args.reps < 1:
        raise ConfigError(f"--reps must be >= 1, got {args.reps}")
    settings = _settings(args, _GRID_DEFAULTS, keys)
    spec = settings.pop("pc")
    grid = _distinct_grid("pc", spec)
    configs = [_sim_config(settings, p_c=p, **extra) for p in grid]  # each checked before any run
    return configs[0], grid, spec


def _echo(config: SimConfig, keys=tuple(_FIELDS)) -> dict:
    """The manifest's config block: each key with the value the run used."""
    return {
        key: getattr(config.ga if field in _GA_FIELDS else config, field)
        for key, field in _FIELDS.items() if key in keys
    }


@dataclass(frozen=True)
class Result:
    """What a command computed, for ``main`` to write.

    ``files`` maps each output file name, in write order, to its JSON text or
    to a CSV header and its rows; rows may be a generator that formats values
    already computed. ``failure`` is a numerical failure, reported once the
    files are written.
    """

    files: dict[str, str | tuple[list[str], Iterable]]
    config: dict
    seed: int | None
    summary: str
    failure: str | None = None


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def cmd_simulate(args: argparse.Namespace) -> Result:
    settings = _settings(args, _SIMULATE_DEFAULTS, _SIMULATE_KEYS)
    window = _convert("ma_window", settings.pop("ma_window"), _integer)
    every = _convert("snapshot_every", settings.pop("snapshot_every"), _integer)
    if window < 1:
        raise ConfigError(f"moving-average window must be >= 1, got {window}")
    if every < 0:
        raise ConfigError(f"snapshot period must be >= 0, got {every}")
    config = _sim_config(settings)
    sim = Simulation(config)  # a run too large for its arrays ends here

    records, snapshots = [], []
    for t in range(1, config.rounds + 1):  # t: the rounds played so far
        record = sim.run_round()
        if args.record_rounds:
            records.append(record)
        if every and (t % every == 0 or t == config.rounds):
            snapshots.append(sim.snapshot())

    metrics = sim.metrics
    bid_ma = moving_average(metrics.avg_bid_ratio, window)
    rebate_ma = moving_average(metrics.avg_rebate_ratio, window)
    files = {
        "metrics.csv": (
            ["round", *metrics.FIELDS, "bid_ratio_ma", "rebate_ratio_ma"],
            (
                [t, *(_fmt(v) for v in metrics.row(t)), _fmt(bid_ma[t]), _fmt(rebate_ma[t])]
                for t in range(len(metrics))
            ),
        )
    }
    if args.record_rounds:
        files["rounds.csv"] = (
            ["round", "agent", "role", "alpha", "gamma1", "gamma2", "payoff"],
            _round_rows(config, records),
        )
    files["pools.json"] = json.dumps(snapshots or [sim.snapshot()])

    echo = {**_echo(config), "ma_window": window, "snapshot_every": every}
    return Result(files, echo, config.seed, f"simulate: {config.rounds} rounds")


def _round_rows(config: SimConfig, records: list[RoundRecord]):
    """rounds.csv: each agent's played genome, decoded here, and payoff, then the payment."""
    for record in records:
        for agent, code in enumerate(record.codes.tolist()):
            if agent < config.n_builders:
                alpha, gammas = BUILDER_ALPHAS[code], (None, None)
            else:
                alpha, gammas = None, decode_searcher(code)
            yield [record.index, agent, config.role_of(agent), _fmt(alpha), *map(_fmt, gammas),
                   _fmt(record.payoffs[agent])]
        yield [record.index, -1, "proposer", "", "", "", _fmt(record.payment)]


def cmd_sweep(args: argparse.Namespace) -> Result:
    base, p_values, spec = _grid_config(args)
    rows = sweep_conflict(base, p_values, args.reps, jobs=args.jobs)
    return Result(
        {"sweep.csv": (
            ["p_c", "repetition", "metric", "value"],
            ([_fmt(r.p_c), r.repetition, r.metric, _fmt(r.value)] for r in rows),
        )},
        {**_echo(base), "pc": spec, "pc_grid": p_values, "reps": args.reps},
        base.seed,
        f"sweep: {len(p_values)} p values x {args.reps} reps",
    )


def _load_hpt_file(path: str) -> list[tuple[str, HeuristicPayoffTable]]:
    """One (p_c label, table) pair per p_c value in file order; label "" without a p_c column."""
    groups: dict[float | None, list[HptRow]] = {}
    try:
        with open(path, newline="") as handle:
            for raw in csv.DictReader(handle):
                p_c = float(raw["p_c"]) if "p_c" in raw else None
                groups.setdefault(p_c, []).append(
                    HptRow(
                        n_building=int(raw["n_building"]),
                        n_sharing=int(raw["n_sharing"]),
                        u_building=float(raw["u_building"]) if raw["u_building"] else None,
                        u_sharing=float(raw["u_sharing"]) if raw["u_sharing"] else None,
                        samples=int(raw.get("samples") or 0),
                    )
                )
    except (KeyError, ValueError, TypeError, csv.Error) as exc:
        raise ConfigError(f"bad payoff table file {path}: {exc}") from exc
    if not groups:
        raise ConfigError(f"payoff table file {path} is empty")
    for p_c in groups:
        if p_c is not None and not 0 <= p_c <= 1:  # written so that NaN fails too
            raise ConfigError(f"conflict probability must be in [0, 1], got p_c {p_c} in {path}")
    return [
        (_fmt(p_c), HeuristicPayoffTable(m=rows[0].n_building + rows[0].n_sharing, rows=tuple(rows)))
        for p_c, rows in groups.items()
    ]


def cmd_egta(args: argparse.Namespace) -> Result:
    alpha_values = _distinct_grid("alpha", args.alpha)
    if not all(0 < alpha < math.inf for alpha in alpha_values):
        raise ConfigError(f"ranking intensity must be positive and finite, got {args.alpha}")

    # (p_c cell, payoff table) pairs, the files, and the manifest's config block and seed
    if args.hpt_file:
        # a run setting would select nothing: every p_c group of the file is ranked
        given = [f"--{key.replace('_', '-')}" for key in ("config", *_EGTA_RUN_DEFAULTS, *_EGTA_KEYS)
                 if getattr(args, key) is not None]
        if given:
            raise ConfigError(f"--hpt-file simulates nothing, so it takes no {' '.join(given)}")
        tables = _load_hpt_file(args.hpt_file)
        files = {}
        # nothing is simulated: echo the table ranked
        config = {"hpt_file": args.hpt_file, "pc": [p for p, _ in tables], "alpha_grid": alpha_values}
        seed = None
    else:
        unset = {key: value for key, value in _EGTA_RUN_DEFAULTS.items() if getattr(args, key) is None}
        vars(args).update(unset)
        # estimate_hpt sets each profile's counts; --agents gives the template's
        template, p_values, spec = _grid_config(args, _EGTA_KEYS, n_builders=args.agents, n_searchers=0)
        tables = [
            (_fmt(p), estimate_hpt(args.agents, replace(template, p_c=p), args.reps, args.jobs))
            for p in p_values
        ]
        files = {"hpt.csv": (
            ["p_c", "n_building", "n_sharing", "u_building", "u_sharing", "samples", "max_residual"],
            (
                [p, row.n_building, row.n_sharing, _fmt(row.u_building), _fmt(row.u_sharing),
                 row.samples, _fmt(row.max_residual)]
                for p, hpt in tables
                for row in hpt.rows
            ),
        )}
        config = {**_echo(template, _EGTA_KEYS), "pc": spec, "agents": args.agents,
                  "alpha_grid": alpha_values, "reps": args.reps}
        seed = template.seed

    rank_rows = [
        [p, _fmt(result.alpha), _fmt(result.nu_building), _fmt(result.nu_sharing)]
        for p, hpt in tables
        for result in intensity_sweep(hpt, alpha_values)
    ]
    files["alpharank.csv"] = (["p_c", "alpha", "nu_building", "nu_sharing"], rank_rows)
    return Result(files, config, seed, f"egta: {len(rank_rows)} alpha-rank rows")


def cmd_verify_analytic(args: argparse.Namespace) -> Result:
    mc_samples = _convert("mc_samples", args.mc_samples, _integer)
    # numpy cannot size a float64 sample array beyond this many bytes
    most = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize
    if not 2 <= mc_samples <= most:
        raise ConfigError(f"mc_samples must be in [2, {most}], got {mc_samples}")
    points = (args.sign_points, args.mc_points, args.fd_points)
    if min(points) < 0 or sum(points) == 0:
        raise ConfigError(f"point counts must be >= 0 with at least one point, got {points}")
    report = verification_report(
        sign_points=args.sign_points,
        mc_points=args.mc_points,
        mc_samples=mc_samples,
        fd_points=args.fd_points,
        seed=args.seed,
    )
    return Result(
        {"verify.json": json.dumps(report, indent=2) + "\n"},
        {
            "sign_points": args.sign_points,
            "mc_points": args.mc_points,
            "mc_samples": mc_samples,
            "fd_points": args.fd_points,
        },
        args.seed,
        f"verify-analytic: passed={report['passed']}",
        None if report["passed"] else "analytic verification failed; see verify.json",
    )


def _add_sim_flags(parser: argparse.ArgumentParser, keys=tuple(_FIELDS)) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    for key in keys:
        if key != "pc":  # each command declares its own, a value or a grid
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
    _add_sim_flags(p_sim, _SIMULATE_KEYS)
    _add_common_flags(p_sim)
    p_sim.add_argument("--pc", help="bundle conflict probability")
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
    _add_sim_flags(p_egta, _EGTA_KEYS)
    _add_common_flags(p_egta)
    p_egta.add_argument("--agents", type=int, help="meta-game population size")
    p_egta.add_argument("--pc", help="p_c grid")
    p_egta.add_argument("--alpha", default="0.1:100:log30", help="ranking intensity grid")
    p_egta.add_argument("--reps", type=int, help="simulations per profile")
    p_egta.add_argument(
        "--hpt-file",
        help="skip simulation and rank an existing payoff table CSV; "
        "a simulation flag or --config exits 2",
    )
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


def _output_path(args: argparse.Namespace) -> Path:
    """The output directory, checked but not made, so that a path that cannot take the output
    fails before the run: its nearest existing ancestor must be a directory this process may write."""
    path = Path(args.output if args.output is not None else os.environ.get("PBSGAME_OUTPUT", "out"))
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
        raise OSError(f"output path {path}: {existing} is not a writable directory")
    return path


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        out = _output_path(args)
        started = time.monotonic()
        result = args.func(args)
        out.mkdir(parents=True, exist_ok=True)
        for name, content in result.files.items():
            with fresh_file(out / name) as handle:
                if isinstance(content, str):
                    handle.write(content)
                else:
                    writer = csv.writer(handle, lineterminator="\n")
                    writer.writerow(content[0])
                    writer.writerows(content[1])
        files = [out / name for name in result.files]
        write_manifest(out, args.command, result.config, result.seed, files, time.monotonic() - started,
                       __version__)
        print(f"{result.summary} -> {out}")
        if result.failure:
            raise NumericalError(result.failure)
        return 0
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

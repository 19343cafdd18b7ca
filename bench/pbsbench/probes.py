"""Where the tracer hooks into pbsgame, and how spans become per-layer metrics.

Every probe wraps a name the caller looks up at call time:
``pbsgame.simulation.<fn>`` for the per-round layers (the round loop imports
them into its own namespace), ``pbsgame.cli.<fn>`` for the replica and output
layers, ``pbsgame.egta.<fn>`` for alpha-rank and ``pbsgame.analytic.<fn>`` for
the closed-form oracle.
"""

from __future__ import annotations

import numpy as np

import pbsgame.analytic
import pbsgame.cli
import pbsgame.egta
import pbsgame.simulation

from .tracing import Tracer, add_count, max_count

ROUND = "simulation.run_round"

# every call below a round; all are direct children of the round span
_ROUND_CHILDREN = {
    "draw_scenario": "market.draw_scenario",
    "select_strategy": "evolution.select_strategy",
    "decode_builder": "codec.decode",
    "decode_searcher": "codec.decode",
    "bid_ratio": "codec.bid_ratio",
    "build_block": "builder.build_block",
    "run_auction": "auction.run_auction",
    "settle": "auction.settle",
    "conservation_residual": "auction.conservation_residual",
    "update_fitness": "evolution.update_fitness",
    "evolve": "evolution.evolve",
    "cov": "simulation.cov",
    "segment_ints": "codec.segment_ints",
}


def _conflict_pairs(counts, args, scenario):
    add_count(counts, "market.conflict_pairs", int(np.count_nonzero(scenario.graph.weights < 0)) // 2)


def _block_shape(counts, args, block):
    add_count(counts, "builder.offered", len(args[1]))
    add_count(counts, "builder.included", len(block.entries))


def _auction_ties(counts, args, outcome):
    bids = list(outcome.bids.values())
    if bids.count(max(bids)) > 1:
        add_count(counts, "auction.ties", 1)


def _residual(counts, args, residual):
    max_count(counts, "auction.max_residual", residual)


def _sweep_cells(counts, args, rows):
    add_count(counts, "sweep.cells", len({(r.p_c, r.repetition) for r in rows}))


def _hpt_profiles(counts, args, hpt):
    add_count(counts, "egta.profiles", sum(row.samples for row in hpt.rows))


def _manifest_bytes(counts, args, manifest_path):
    files = args[4]
    add_count(counts, "cli.bytes_written", sum(f.stat().st_size for f in files) + manifest_path.stat().st_size)


_OBSERVERS = {
    "draw_scenario": _conflict_pairs,
    "build_block": _block_shape,
    "run_auction": _auction_ties,
    "conservation_residual": _residual,
}


def install_simulation(tracer: Tracer) -> None:
    sim = pbsgame.simulation
    tracer.wrap(sim.Simulation, "run_round", ROUND, record=True)
    for attr, name in _ROUND_CHILDREN.items():
        tracer.wrap(sim, attr, name, observe=_OBSERVERS.get(attr))


def install_cli(tracer: Tracer) -> None:
    cli, egta = pbsgame.cli, pbsgame.egta
    tracer.wrap(cli, "main", "cli.main", record=True)
    tracer.wrap(cli, "sweep_conflict", "sweep.sweep_conflict", record=True, observe=_sweep_cells)
    tracer.wrap(cli, "estimate_hpt", "egta.estimate_hpt", record=True, observe=_hpt_profiles)
    tracer.wrap(cli, "intensity_sweep", "egta.intensity_sweep", record=True)
    tracer.wrap(cli, "write_manifest", "cli.write_manifest", record=True, observe=_manifest_bytes)
    tracer.wrap(egta, "alpharank", "egta.alpharank")
    tracer.wrap(egta, "stationary_distribution", "egta.stationary_distribution")


def install_analytic(tracer: Tracer) -> None:
    analytic = pbsgame.analytic
    tracer.wrap(analytic, "verification_report", "analytic.verification_report", record=True)
    for attr in ("expected_searcher_payoff", "monte_carlo_searcher_payoff", "payoff_derivative"):
        tracer.wrap(analytic, attr, f"analytic.{attr}")


def _totals(spans):
    """Per name: [calls, total_ns, self_ns] over recorded and aggregated calls; summed counters."""
    calls: dict[str, list[int]] = {}
    counts: dict[str, float] = {}

    def add(name, n, ns, self_ns):
        agg = calls.setdefault(name, [0, 0, 0])
        agg[0] += n
        agg[1] += ns
        agg[2] += self_ns

    for span in spans:
        add(span["name"], 1, span["end_ns"] - span["start_ns"], span["self_ns"])
        for name, (n, ns, self_ns) in span["calls"].items():
            add(name, n, ns, self_ns)
        for key, value in span["counts"].items():
            if key == "auction.max_residual":
                max_count(counts, key, value)
            else:
                add_count(counts, key, value)
    return calls, counts


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric the traced run reports; 0 for a layer the workload bypasses."""
    calls, counts = _totals(spans)
    rounds = [s for s in spans if s["name"] == ROUND]
    n_rounds = len(rounds)

    def ns(*names):
        return sum(calls.get(n, (0, 0, 0))[1] for n in names)

    def n_calls(name):
        return calls.get(name, (0, 0, 0))[0]

    def per_round_us(*names):
        return ns(*names) / n_rounds / 1e3 if n_rounds else 0.0

    def per_call(name, scale):
        return ns(name) / n_calls(name) / scale if n_calls(name) else 0.0

    # a round's own time without tracer bookkeeping: self time plus its children
    round_ns = sum(s["self_ns"] + sum(c[1] for c in s["calls"].values()) for s in rounds)
    offered = counts.get("builder.offered", 0)
    return {
        "simulation.run_round.us_per_round": round_ns / n_rounds / 1e3 if n_rounds else 0.0,
        "market.draw_scenario.us_per_round": per_round_us("market.draw_scenario"),
        "market.conflict_pairs_per_round": counts.get("market.conflict_pairs", 0) / n_rounds if n_rounds else 0.0,
        "codec.decode.us_per_round": per_round_us("codec.decode"),
        "codec.segment_ints.us_per_round": per_round_us("codec.segment_ints"),
        "codec.bid_ratio.us_per_round": per_round_us("codec.bid_ratio"),
        "codec.bid_ratio.calls_per_round": n_calls("codec.bid_ratio") / n_rounds if n_rounds else 0.0,
        "evolution.select_strategy.us_per_round": per_round_us("evolution.select_strategy"),
        "evolution.update_fitness.us_per_round": per_round_us("evolution.update_fitness"),
        "evolution.evolve.us_per_call": per_call("evolution.evolve", 1e3),
        "evolution.evolve.calls_per_round": n_calls("evolution.evolve") / n_rounds if n_rounds else 0.0,
        "builder.build_block.us_per_round": per_round_us("builder.build_block"),
        "builder.bundles_offered_per_round": offered / n_rounds if n_rounds else 0.0,
        "builder.inclusion_ratio": counts.get("builder.included", 0) / offered if offered else 0.0,
        "auction.run_auction.us_per_round": per_round_us("auction.run_auction"),
        "auction.settle.us_per_round": per_round_us("auction.settle"),
        "auction.ties": counts.get("auction.ties", 0),
        "auction.max_residual": counts.get("auction.max_residual", 0.0),
        "simulation.consensus_us_per_round": per_round_us("simulation.cov", "codec.segment_ints"),
        "simulation.self_us_per_round": sum(s["self_ns"] for s in rounds) / n_rounds / 1e3 if n_rounds else 0.0,
        "sweep.sweep_conflict.s": ns("sweep.sweep_conflict") / 1e9,
        "sweep.cells": counts.get("sweep.cells", 0),
        "egta.estimate_hpt.s": ns("egta.estimate_hpt") / 1e9,
        "egta.profiles": counts.get("egta.profiles", 0),
        "egta.alpharank.us_per_call": per_call("egta.alpharank", 1e3),
        "egta.stationary_distribution.us_per_call": per_call("egta.stationary_distribution", 1e3),
        "cli.write_manifest.s": ns("cli.write_manifest") / 1e9,
        "cli.self_s": calls.get("cli.main", (0, 0, 0))[2] / 1e9,
        "cli.bytes_written": counts.get("cli.bytes_written", 0),
        "analytic.expected_searcher_payoff.us_per_call": per_call("analytic.expected_searcher_payoff", 1e3),
        "analytic.monte_carlo_searcher_payoff.ms_per_call": per_call("analytic.monte_carlo_searcher_payoff", 1e6),
        "analytic.payoff_derivative.us_per_call": per_call("analytic.payoff_derivative", 1e3),
    }


# groups whose shares of the round the benchmark notes track
SHARE_GROUPS = {
    "consensus": ("simulation.consensus_us_per_round",),
    "select_strategy": ("evolution.select_strategy.us_per_round",),
    "build_block": ("builder.build_block.us_per_round",),
    "draw_scenario": ("market.draw_scenario.us_per_round",),
    "bid_ratio+decode": ("codec.bid_ratio.us_per_round", "codec.decode.us_per_round"),
    "update_fitness": ("evolution.update_fitness.us_per_round",),
    "auction+settle": ("auction.run_auction.us_per_round", "auction.settle.us_per_round"),
    "round_self": ("simulation.self_us_per_round",),
}


def round_shares(layers: dict[str, float]) -> dict[str, float]:
    """Share of the (bookkeeping-free) round time per layer group."""
    total = layers["simulation.run_round.us_per_round"]
    if not total:
        return {}
    shares = {group: sum(layers[k] for k in keys) / total for group, keys in SHARE_GROUPS.items()}
    # evolve is per call; convert to per round for its share
    shares["evolve"] = (
        layers["evolution.evolve.us_per_call"] * layers["evolution.evolve.calls_per_round"] / total
    )
    shares["other"] = 1.0 - sum(shares.values())
    return shares

"""Golden outputs: sha256 of the CSV and JSON files of small fixed-seed CLI runs,
and of the metric series and pools of wider in-process runs.

Any change to these digests changes what the simulator computes or writes,
and has to be deliberate. Every command runs at --jobs 1.
"""

import hashlib
import json

import pytest

from pbsgame.cli import main
from pbsgame.codec import segment_ints
from pbsgame.evolution import GAConfig
from pbsgame.simulation import MetricsSeries, SimConfig, Simulation, cov

GOLDEN = {
    "simulate": {
        "metrics.csv": "a0805956d4e8266929760bcb5edfc76027893154cd9defd98b276f1be7187ab2",
        "pools.json": "b8e3396d1ffa7c84a66fc46a9533c6c6ac76b8fd9279d324606c7dd4cdf24ca6",
    },
    "sweep": {
        "sweep.csv": "ec342c9b0ab0bcf877530d63e08eb449a2058d937f2d0c10518cb831080d760d",
    },
    "egta": {
        "hpt.csv": "1b702c74fe3df31154b2e673109d98200db3c982d7c64037efefa449794442e8",
        "alpharank.csv": "62690d537934b7dd8405a3514c26d34380b3512ad3f324b70d82bb8f66f74e68",
    },
    "simulate-rounds": {
        "rounds.csv": "dc5465e54c48589c2df5082feeae2362b1e3ee39cb6eead13aec959bda543967",
    },
    "verify-analytic": {
        "verify.json": "971db5dc6a47aef17fb0eca8f610b4a21ea53287c6b6208a17180cba278e62c6",
    },
}

# simulate reads part of its settings from a config file that flags override
SIMULATE_CONFIG = {"builders": 3, "searchers": 3, "rounds": 300, "pc": 0.6, "seed": 11}
COMMANDS = {
    "simulate": ["simulate", "--rounds", "400", "--temperature", "1.5", "--snapshot-every", "100"],
    "sweep": [
        "sweep", "--builders", "2", "--searchers", "3", "--rounds", "80", "--pc", "0:1:0.5",
        "--reps", "2", "--seed", "4", "--trigger", "0.05",
    ],
    "egta": [
        "egta", "--agents", "3", "--pc", "0.4", "--alpha", "0.1:100:log6", "--reps", "2",
        "--rounds", "80", "--seed", "5",
    ],
    "simulate-rounds": [
        "simulate", "--builders", "3", "--searchers", "4", "--rounds", "120", "--pc", "0.5",
        "--capacity", "2", "--seed", "8", "--record-rounds",
    ],
    # an odd sample count, so the Monte Carlo sums end off numpy's 8-wide blocks
    "verify-analytic": [
        "verify-analytic", "--sign-points", "20", "--mc-points", "5", "--mc-samples", "1001",
        "--fd-points", "5", "--seed", "3",
    ],
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_digests(command, tmp_path):
    argv = [*COMMANDS[command], "--jobs", "1", "-o", str(tmp_path)]
    if command == "simulate":
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SIMULATE_CONFIG))
        argv += ["--config", str(config)]
    assert main(argv) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN[command]
    }
    assert digests == GOLDEN[command]


# Wider runs than the CLI commands above: many agents make long greedy scans,
# and a capacity cuts them short. Each pins the sha256 of the metric series
# and of the final pool snapshot.
WIDE = {
    "20x20-pc0.4": (
        {"n_builders": 20, "n_searchers": 20, "rounds": 300, "p_c": 0.4, "seed": 3},
        "ebf87363665f76b422749e011528eded42abec1b5f1ea8dcfdbcfa8d7129db40",
        "b575087559fd358be9aab2873a8f761b2beb04897d1881b1f7977bc665a0a4ab",
    ),
    "12x12-pc0.2-capacity3": (
        {"n_builders": 12, "n_searchers": 12, "rounds": 300, "p_c": 0.2, "seed": 9, "capacity": 3},
        "0bdf9552b96082f6c5d79b658afc46974aa2ffa489aa37562bd954410206d071",
        "396b10270820cf8a0e9bb4397b6264f1357b8a7cd185716361cba5a2f95f1b7f",
    ),
    # the benchmark's sim-wide shape: 51 offers per builder, most of them included
    "50x50-pc0.1": (
        {"n_builders": 50, "n_searchers": 50, "rounds": 60, "p_c": 0.1, "seed": 1},
        "2de7ffd47e61ed00ca810a92f704fa9228242b4e2d9b707f5f49167ae2fd866e",
        "1081f9c213f65f84a69206e4984069fba98524486e2a91f7a4d3701dd44ad462",
    ),
    # every pair conflicts, so each block is one bundle, and builders whose best
    # offer is the same bundle at the same bid tie: 11 of the 200 rounds draw a
    # winner among tied builders, and only those rounds consume that draw
    "20x20-pc1.0": (
        {"n_builders": 20, "n_searchers": 20, "rounds": 200, "p_c": 1.0, "seed": 2},
        "6cf08f26c74364d5058d62d3477d2dc1bcafb471f8a7e2acaac1979a618eb1d4",
        "d11f874d3ca3dc1197aaf51a4efdc27f1f370befb1180210279d9733db417d24",
    ),
    # the other pins run the default trigger of 0.01; here half the pools are
    # rebuilt every round (1,186 GA steps in 150 rounds), from a strong
    # elimination and mutation and a sharp softmax
    "8x8-pc0.5-ga": (
        {"n_builders": 8, "n_searchers": 8, "rounds": 150, "p_c": 0.5, "seed": 4,
         "temperature": 0.5, "ga": GAConfig(trigger=0.5, mutation=0.2, elimination=0.75)},
        "429c02e9b261597b684d85b34cd83ae86c40a33de5abe99f15e7022d6c9ed49a",
        "4d3a1f6ca2a01e44e84833132d06968e00fbbe6d5f472bf701d2ad5d939ea192",
    ),
}


def sha256_json(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(WIDE))
def test_wide_run_digests(name):
    settings, series_digest, snapshot_digest = WIDE[name]
    sim = Simulation(SimConfig(**settings))
    sim.run()
    assert sha256_json([getattr(sim.metrics, f) for f in MetricsSeries.FIELDS]) == series_digest
    assert sha256_json(sim.snapshot()) == snapshot_digest


@pytest.mark.parametrize("trigger", [1.0, 0.2])
def test_consensus_metrics_follow_every_ga_step(trigger):
    # every (or a random fifth of the) pools evolve each round; the per-round
    # CoV metrics must match a fresh computation from the current pools
    config = SimConfig(
        n_builders=3, n_searchers=4, rounds=60, p_c=0.5, seed=2, ga=GAConfig(trigger=trigger)
    )
    sim = Simulation(config)

    def fresh(agents, segment):
        pools = [[segment_ints(bits)[segment] for bits in sim.pools[a].bits] for a in agents]
        return sum(cov(ints) for ints in pools) / len(pools)

    for _ in range(config.rounds):
        sim.run_round()
        assert sim.metrics.cov_alpha[-1] == fresh(config.builder_ids, 0)
        assert sim.metrics.cov_gamma1[-1] == fresh(config.searcher_ids, 0)
        assert sim.metrics.cov_gamma2[-1] == fresh(config.searcher_ids, 1)

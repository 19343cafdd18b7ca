"""Golden outputs: sha256 of the CSV and JSON files of small fixed-seed CLI runs.

Any change to these digests changes what the simulator computes or writes,
and has to be deliberate. Every command runs at --jobs 1.
"""

import hashlib
import json

import pytest

from pbsgame.cli import main

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

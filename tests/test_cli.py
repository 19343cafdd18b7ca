import csv
import hashlib
import json
import tracemalloc
from dataclasses import fields

import pytest

from pbsgame import cli
from pbsgame.cli import main, parse_grid
from pbsgame.errors import ConfigError
from pbsgame.evolution import GAConfig
from pbsgame.simulation import SimConfig, Simulation
from pbsgame.sweep import SWEEP_METRICS


def run_cli(*args):
    return main([str(a) for a in args])


SIM_ARGS = ["--builders", 2, "--searchers", 2, "--rounds", 60, "--pc", 0.5, "--seed", 3]


def test_parse_grid_forms():
    assert parse_grid("0.5") == [0.5]
    assert parse_grid("0:1:0.1") == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    log_grid = parse_grid("0.1:100:log30")
    assert len(log_grid) == 30
    assert log_grid[0] == pytest.approx(0.1)
    assert log_grid[-1] == pytest.approx(100.0)
    assert parse_grid("0.1,0.5,0.9") == [0.1, 0.5, 0.9]
    assert len(parse_grid("0:1:2e-6")) == 500_001  # within MAX_GRID_POINTS
    for bad in ("a", "0:1", "0:1:0", "1:10:logx"):
        with pytest.raises(ConfigError):
            parse_grid(bad)


@pytest.mark.parametrize("spec", ["0:1:1e-300", "0.1:100:log999999999", "0:1:1e-6"])
def test_oversized_grid_is_rejected_before_it_is_built(spec):
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="more than 1000000 points"):
            parse_grid(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def manifest_checksums_ok(out_dir):
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for name, meta in manifest["files"].items():
        digest = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        assert digest == meta["sha256"], name
    return manifest


def test_simulate_writes_files_and_manifest(tmp_path):
    assert run_cli("simulate", *SIM_ARGS, "--record-rounds", "-o", tmp_path) == 0
    assert (tmp_path / "metrics.csv").exists()
    assert (tmp_path / "rounds.csv").exists()
    assert (tmp_path / "pools.json").exists()
    manifest = manifest_checksums_ok(tmp_path)
    assert manifest["command"] == "simulate"
    with open(tmp_path / "metrics.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][0] == "round"
    assert len(rows) == 61


def test_simulate_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli("simulate", *SIM_ARGS, "-o", out1)
    run_cli("simulate", *SIM_ARGS, "-o", out2)
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (out1 / "pools.json").read_bytes() == (out2 / "pools.json").read_bytes()


def test_simulate_rejects_bad_rounds(tmp_path, capsys):
    assert run_cli("simulate", "--rounds", 0, "-o", tmp_path) == 2
    assert "rounds" in capsys.readouterr().err


def test_config_file_with_flag_overrides(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"builders": 2, "searchers": 2, "rounds": 40, "pc": 0.3, "seed": 9}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "--config", cfg, "-o", out1) == 0
    # the flag must win over the file value
    assert run_cli("simulate", "--config", cfg, "--rounds", 50, "-o", out2) == 0
    with open(out2 / "metrics.csv") as handle:
        assert len(list(csv.reader(handle))) == 51
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["config"]["rounds"] == 40


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"bulders": 2}))
    assert run_cli("simulate", "--config", cfg, "-o", tmp_path) == 2
    assert "bulders" in capsys.readouterr().err


def test_sweep_row_counts(tmp_path):
    assert run_cli(
        "sweep", "--builders", 2, "--searchers", 2, "--rounds", 40, "--seed", 1,
        "--pc", "0:1:0.5", "--reps", 2, "-o", tmp_path,
    ) == 0
    with open(tmp_path / "sweep.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3 * 2 * len(SWEEP_METRICS)
    assert {r["metric"] for r in rows} == set(SWEEP_METRICS)


def test_sweep_single_cell(tmp_path):
    assert run_cli(
        "sweep", "--builders", 2, "--searchers", 2, "--rounds", 30, "--seed", 1,
        "--pc", "0.5", "--reps", 1, "-o", tmp_path,
    ) == 0
    with open(tmp_path / "sweep.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(SWEEP_METRICS)


def test_sweep_malformed_grid(tmp_path):
    assert run_cli("sweep", "--pc", "0::1", "-o", tmp_path) == 2


def test_sweep_jobs_do_not_change_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    common = ["sweep", "--builders", 2, "--searchers", 2, "--rounds", 40, "--seed", 5,
              "--pc", "0.2,0.8", "--reps", 2]
    assert run_cli(*common, "--jobs", 1, "-o", out1) == 0
    assert run_cli(*common, "--jobs", 2, "-o", out2) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_egta_emits_tables(tmp_path):
    assert run_cli(
        "egta", "--agents", 2, "--pc", "0.5", "--alpha", "1,10", "--reps", 1,
        "--rounds", 30, "--seed", 2, "-o", tmp_path,
    ) == 0
    with open(tmp_path / "hpt.csv") as handle:
        hpt_rows = list(csv.DictReader(handle))
    assert len(hpt_rows) == 3
    with open(tmp_path / "alpharank.csv") as handle:
        rank_rows = list(csv.DictReader(handle))
    assert len(rank_rows) == 2
    manifest_checksums_ok(tmp_path)


def test_egta_needs_two_agents(tmp_path):
    assert run_cli("egta", "--agents", 1, "-o", tmp_path) == 2


def test_egta_hpt_file_neutral_table(tmp_path):
    hpt_file = tmp_path / "hpt.csv"
    with open(hpt_file, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n_building", "n_sharing", "u_building", "u_sharing", "samples"])
        writer.writerow([0, 10, "", 0.0, 1])
        for k in range(1, 10):
            writer.writerow([k, 10 - k, 0.25, 0.25, 1])
        writer.writerow([10, 0, 0.25, "", 1])
    assert run_cli("egta", "--hpt-file", hpt_file, "--alpha", "0.1,1,100", "-o", tmp_path) == 0
    with open(tmp_path / "alpharank.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3
    for row in rows:
        assert float(row["nu_building"]) == pytest.approx(0.5)
        assert float(row["nu_sharing"]) == pytest.approx(0.5)


def test_egta_hpt_file_ranks_every_pc_block(tmp_path):
    egta = ["egta", "--alpha", "1,10"]
    assert run_cli(*egta, "--agents", 3, "--pc", "0.1,0.9", "--reps", 1, "--rounds", 200,
                   "-o", tmp_path / "a") == 0
    assert run_cli(*egta, "--hpt-file", tmp_path / "a" / "hpt.csv", "-o", tmp_path / "b") == 0
    ranked = (tmp_path / "b" / "alpharank.csv").read_bytes()
    assert ranked == (tmp_path / "a" / "alpharank.csv").read_bytes()
    assert [row["p_c"] for row in csv.DictReader(ranked.decode().splitlines())] == ["0.1"] * 2 + ["0.9"] * 2


def test_egta_hpt_file_manifest_echoes_the_ranked_table(tmp_path):
    # nothing is simulated, so no run setting or seed belongs in the manifest
    hpt_file = tmp_path / "hpt.csv"
    block = "0,2,,0.0,1\n1,1,0.2,0.1,1\n2,0,0.2,,1\n"
    hpt_file.write_text(
        "p_c,n_building,n_sharing,u_building,u_sharing,samples\n"
        + "".join(f"{p},{row}\n" for p in ("0.9", "0.1") for row in block.splitlines())
    )
    out = tmp_path / "out"
    assert run_cli("egta", "--hpt-file", hpt_file, "--alpha", "1,10", "-o", out) == 0
    manifest = manifest_checksums_ok(out)
    assert manifest["config"] == {"hpt_file": str(hpt_file), "pc": ["0.9", "0.1"], "alpha_grid": [1.0, 10.0]}
    assert manifest["master_seed"] is None
    assert list(manifest["files"]) == ["alpharank.csv"]


HPT_HEADER = "n_building,n_sharing,u_building,u_sharing,samples\n"
BLOCK_2 = ("0,2,,0.0,1", "1,1,0.2,0.1,1", "2,0,0.2,,1")  # a valid 2-agent table


@pytest.mark.parametrize(
    "header, rows, expected",
    [
        (HPT_HEADER, "0,2,,0.0,1\n1,1,0.2,0.1,1\n1,1,0.3,0.1,1\n2,0,0.2,,1\n", "two profiles with 1 builders"),
        (HPT_HEADER, "0,2,,0.0,1\n1\n2,0,0.2,,1\n", "bad payoff table file"),
        (HPT_HEADER, "0,2,,0.0,1\n1,1,nan,0.1,1\n2,0,0.2,,1\n", "non-finite payoff"),
        # a table that cannot be ranked is refused when the file is loaded
        (HPT_HEADER, "0,2,,0.0,1\n2,0,0.2,,1\n", "payoff table has no profile with 1 builders"),
        (HPT_HEADER, "0,2,,0.0,1\n1,1,0.2,,1\n2,0,0.2,,1\n", "payoff table row (1, 1) is missing a payoff"),
        # a table of fewer than 2 agents was ranked, nu 0.5/0.5, and the run exited 0
        (HPT_HEADER, "0,0,,,1\n", "at least 2 agents, got 0"),
        (HPT_HEADER, "0,1,,0.0,1\n1,0,0.2,,1\n", "at least 2 agents, got 1"),
        # a payoff for a role no agent plays, and a negative sample count, were ranked
        (HPT_HEADER, "0,2,,0.0,1\n1,1,0.2,0.1,1\n2,0,0.2,7,1\n", "profile (2, 0) has a payoff for a role no agent plays"),
        (HPT_HEADER, "0,2,5,0.0,1\n1,1,0.2,0.1,1\n2,0,0.2,,1\n", "profile (0, 2) has a payoff for a role no agent plays"),
        (HPT_HEADER, "0,2,,0.0,1\n1,1,0.2,0.1,-7\n2,0,0.2,,1\n", "profile (1, 1) has -7 samples"),
        # a negative role count that sums to m was ranked as if the row were absent
        (HPT_HEADER, "0,2,,0.0,1\n1,1,0.2,0.1,1\n2,0,0.2,,1\n-1,3,0.4,0.3,1\n", "profile (-1, 3) has a role count outside [0, 2]"),
        (HPT_HEADER, "0,2,,0.0,1\n1,1,0.2,0.1,1\n2,0,0.2,,1\n3,-1,0.4,0.3,1\n", "profile (3, -1) has a role count outside [0, 2]"),
        # a p_c label outside [0, 1] was ranked, and NaN labels, which never match, split the table
        ("p_c," + HPT_HEADER, "".join(f"7,{row}\n" for row in BLOCK_2), "got p_c 7.0 in"),
        ("p_c," + HPT_HEADER, "".join(f"-inf,{row}\n" for row in BLOCK_2), "got p_c -inf in"),
        ("p_c," + HPT_HEADER, "".join(f"nan,{row}\n" for row in BLOCK_2), "got p_c nan in"),
    ],
    ids=["duplicate-profile", "short-row", "nan-payoff", "missing-profile", "missing-payoff",
         "no-agent", "one-agent",
         "sharing-payoff-without-sharers", "building-payoff-without-builders", "negative-samples",
         "negative-builders", "negative-sharers", "pc-past-1", "pc-neg-inf", "pc-nan"],
)
def test_egta_hpt_file_bad_table_exits_2(tmp_path, capsys, header, rows, expected):
    hpt_file = tmp_path / "hpt.csv"
    hpt_file.write_text(header + rows)
    out = tmp_path / "out"
    assert run_cli("egta", "--hpt-file", hpt_file, "--alpha", "1", "-o", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert expected in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, names",
    [
        (["simulate", *SIM_ARGS], ["metrics.csv", "pools.json"]),
        (["sweep", "--builders", 2, "--searchers", 2, "--rounds", 30, "--pc", "0.2,0.8",
          "--reps", 2, "--seed", 4], ["sweep.csv"]),
        (["egta", "--agents", 2, "--pc", "0.5", "--alpha", "1,10", "--reps", 1, "--rounds", 30],
         ["hpt.csv", "alpharank.csv"]),
    ],
    ids=["simulate", "sweep", "egta"],
)
def test_rerun_replaces_older_longer_outputs(tmp_path, argv, names):
    fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
    assert run_cli(*argv, "-o", fresh) == 0
    rerun.mkdir()
    for name in [*names, "manifest.json"]:
        (rerun / name).write_bytes(b"stale row\n" * 100_000)
    # a symlinked output is replaced by a new file, not written through
    outside = tmp_path / "outside.csv"
    outside.write_text("kept\n")
    (rerun / names[0]).unlink()
    (rerun / names[0]).symlink_to(outside)
    assert run_cli(*argv, "-o", rerun) == 0
    for name in names:
        assert (rerun / name).read_bytes() == (fresh / name).read_bytes(), name
    assert not (rerun / names[0]).is_symlink() and outside.read_text() == "kept\n"
    manifest_checksums_ok(rerun)


VERIFY_ARGS = ["--sign-points", 20, "--mc-points", 2, "--mc-samples", "1e5", "--fd-points", 5, "--seed", 1]


def test_verify_analytic_report(tmp_path):
    assert run_cli("verify-analytic", *VERIFY_ARGS, "-o", tmp_path) == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["passed"]
    assert report["sign_check"]["violations"] == 0
    manifest_checksums_ok(tmp_path)


def forbid_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran before its output path was checked")

    for name in ("Simulation", "sweep_conflict", "estimate_hpt", "verification_report"):
        monkeypatch.setattr(f"pbsgame.cli.{name}", no_work)


@pytest.mark.parametrize(
    "argv, under",
    [
        (["simulate", *SIM_ARGS], ""),
        (["sweep", *SIM_ARGS, "--reps", 1], ""),
        (["egta", "--agents", 2, "--pc", 0.5, "--alpha", 1, "--reps", 1, "--rounds", 30], ""),
        # verify-analytic built its whole report before it found the path taken
        (["verify-analytic", *VERIFY_ARGS], ""),
        (["sweep", *SIM_ARGS, "--reps", 1], "sub"),
    ],
    ids=["simulate", "sweep", "egta", "verify-analytic", "sweep-under-a-file"],
)
def test_output_dir_collision_is_io_error(tmp_path, capsys, monkeypatch, argv, under):
    forbid_work(monkeypatch)
    target = tmp_path / "occupied"
    target.write_text("a file, not a directory")
    assert run_cli(*argv, "-o", target / under) == 3
    err = capsys.readouterr().err
    assert err.startswith("io error: ") and err.count("\n") == 1, err
    assert "not a writable directory" in err
    assert target.read_text() == "a file, not a directory"


def test_unwritable_output_parent_is_io_error_before_any_work(tmp_path, capsys, monkeypatch):
    # the run would end in a write it cannot make; root passes any mode, so access is faked
    forbid_work(monkeypatch)
    monkeypatch.setattr("os.access", lambda path, mode: path != tmp_path)
    assert run_cli("sweep", *SIM_ARGS, "--reps", 1, "-o", tmp_path / "out" / "sub") == 3
    err = capsys.readouterr().err
    assert err.startswith("io error: ") and err.count("\n") == 1, err
    assert "not a writable directory" in err
    assert not (tmp_path / "out").exists()


def test_failing_verification_writes_its_report_and_exits_4(tmp_path, capsys, monkeypatch):
    report = {"passed": False, "sign_check": {"violations": 1}}
    monkeypatch.setattr("pbsgame.cli.verification_report", lambda **kwargs: report)
    out = tmp_path / "out"
    assert run_cli("verify-analytic", *VERIFY_ARGS, "-o", out) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1, err
    assert json.loads((out / "verify.json").read_text()) == report
    assert list(manifest_checksums_ok(out)["files"]) == ["verify.json"]


@pytest.mark.parametrize(
    "argv, config, expected",
    [
        (["simulate"], {"rounds": "x"}, "rounds"),
        (["simulate"], [1, 2], "JSON object"),
        (["sweep", "--pc", "1:0:0.1"], None, "grid is empty"),
        (["simulate", *SIM_ARGS, "--value-rate", "inf"], None, "value rate"),
        (["simulate", *SIM_ARGS, "--snapshot-every", -5], None, "snapshot period"),
        (["verify-analytic", "--mc-samples", "abc"], None, "mc_samples"),
        (["sweep", *SIM_ARGS, "--jobs", -2], None, "--jobs"),
        (["simulate", *SIM_ARGS, "--jobs", 0], None, "--jobs"),
        (["verify-analytic", "--sign-points", 0, "--mc-points", 0, "--fd-points", 0], None,
         "point"),
        (["verify-analytic", "--sign-points", -1, "--mc-points", 1], None, "point"),
        (["verify-analytic", "--mc-samples", "0"], None, "mc_samples"),
        (["verify-analytic", "--mc-samples", "1"], None, "mc_samples"),
        (["verify-analytic", "--mc-samples", "-5"], None, "mc_samples"),
        (["verify-analytic", "--mc-samples", "1e20"], None, "mc_samples"),
        # in range for an array index, but no address space holds 6.9 EiB: nothing is allocated
        (["verify-analytic", "--mc-samples", "1e18"], None, "mc_samples"),
        # the array index fits in intp, its byte size does not
        (["verify-analytic", "--mc-samples", "2e18"], None, "mc_samples"),
        # ~1e300 and ~1e9 points: rejected from the point count, before any is built
        (["sweep", "--pc", "0:1:1e-300"], None, "more than 1000000 points"),
        (["egta", "--alpha", "0.1:100:log999999999"], None, "more than 1000000 points"),
        (["egta", "--alpha", "1:inf:1"], None, "finite"),
        # NaN passed `temperature <= 0`, and every softmax drew strategy 0
        (["simulate", *SIM_ARGS, "--temperature", "nan"], None, "temperature"),
        # positive, but 1/1e-320 overflows: every softmax warned of an overflow in divide
        (["simulate", *SIM_ARGS, "--temperature", "1e-320"], None, "temperature"),
        # finite, but 1/1e-320 overflows: every value was inf and every reward NaN
        (["simulate", *SIM_ARGS, "--value-rate", "1e-320"], None, "value rate"),
        # numpy's seeding raised ValueError with a traceback for each of these
        (["simulate", *SIM_ARGS, "--seed", -1], None, "seed"),
        (["sweep", *SIM_ARGS, "--seed", -1], None, "seed"),
        (["egta", "--agents", 2, "--rounds", 5, "--seed", -1], None, "seed"),
        (["verify-analytic", "--sign-points", 1, "--seed", -1], None, "seed"),
        # verify-analytic alone left --jobs unchecked, and exited 0
        (["verify-analytic", "--sign-points", 1, "--mc-points", 0, "--fd-points", 0, "--jobs", -3],
         None, "--jobs"),
        (["simulate", "--rounds", 5], {"seed": -3}, "seed"),
        # a repeated p_c wrote two cells under one (p_c, repetition) key to sweep.csv, and an
        # hpt.csv that egta --hpt-file then refused
        (["sweep", *SIM_ARGS, "--pc", "0.5,0.5", "--reps", 1], None, "repeated p_c"),
        (["egta", "--agents", 2, "--rounds", 5, "--pc", "0.5,0.5"], None, "repeated p_c"),
        # a repeated alpha wrote two identical alpharank.csv rows
        (["egta", "--agents", 2, "--rounds", 5, "--pc", 0.5, "--alpha", "2,1,2"], None,
         "repeated alpha values [2.0]"),
        # egta takes its role counts from --agents; its template took them from these keys
        (["egta", "--agents", 2, "--rounds", 5], {"builders": 1}, "builders"),
        (["egta", "--agents", 2, "--rounds", 5], {"searchers": 0}, "searchers"),
        # simulate's output settings: sweep and egta checked and echoed them, and read neither
        (["sweep", *SIM_ARGS], {"ma_window": 7}, "unknown keys ['ma_window']"),
        (["sweep", *SIM_ARGS], {"snapshot_every": 1}, "unknown keys ['snapshot_every']"),
        (["egta", "--agents", 2, "--rounds", 5], {"ma_window": 7}, "unknown keys ['ma_window']"),
        (["egta", "--agents", 2, "--rounds", 5], {"snapshot_every": 1}, "unknown keys ['snapshot_every']"),
        # a fractional count was truncated: 2 rounds of 2 builders at capacity 1, echoed so
        (["simulate"], {"rounds": 2.9, "builders": 2.5, "searchers": 2, "capacity": 1.7},
         "bad builders 2.5: not an integer"),
        (["simulate", "--builders", 2, "--searchers", 2, "--rounds", 5], {"capacity": 1.7},
         "bad capacity 1.7"),
        (["simulate", "--rounds", 5], {"ma_window": 7.5, "snapshot_every": 1.5, "seed": 0.5},
         "bad ma_window 7.5"),
        (["verify-analytic", "--mc-samples", "1000.7"], None, "bad mc_samples '1000.7'"),
    ],
    ids=["config-rounds-x", "config-list", "empty-pc-grid", "value-rate-inf",
         "negative-snapshot-period", "mc-samples-abc", "negative-jobs", "zero-jobs",
         "verify-no-points", "verify-negative-points", "mc-samples-0", "mc-samples-1",
         "mc-samples-negative", "mc-samples-1e20", "mc-samples-1e18", "mc-samples-2e18",
         "pc-grid-1e300-points", "alpha-grid-1e9-points", "alpha-grid-inf", "temperature-nan",
         "temperature-1e-320",
         "value-rate-1e-320", "simulate-negative-seed", "sweep-negative-seed",
         "egta-negative-seed", "verify-negative-seed", "verify-negative-jobs", "config-negative-seed",
         "sweep-repeated-pc",
         "egta-repeated-pc", "egta-repeated-alpha", "egta-config-builders", "egta-config-searchers",
         "sweep-config-ma-window", "sweep-config-snapshot-every", "egta-config-ma-window",
         "egta-config-snapshot-every", "config-fractional-builders", "config-fractional-capacity",
         "config-fractional-ma-window", "mc-samples-fractional"],
)
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, argv, config, expected):
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = [*argv, "--config", tmp_path / "config.json"]
    assert run_cli(*argv, "-o", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert expected in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_one_agent_exits_2_before_making_the_output_dir(tmp_path, capsys, command):
    # a round needs two bundles: simulate made the directory and then failed at round 0
    out = tmp_path / "out"
    assert run_cli(command, "--builders", 1, "--searchers", 0, "--rounds", 5, "--jobs", 2, "-o", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "at least 2 agents" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, expected",
    [
        # simulate made the directory, and sweep started its workers, before a pool refused it
        (["simulate", "--learning-rate", 1.5], "learning rate"),
        (["sweep", "--learning-rate", "nan", "--jobs", 2], "learning rate"),
        # no array holds 2**61 rounds of series: the parent run went on without end
        (["simulate", "--rounds", 2**61], "rounds of metrics"),
    ],
    ids=["simulate-learning-rate-1.5", "sweep-learning-rate-nan", "simulate-unallocatable-series"],
)
def test_bad_run_setting_exits_2_before_making_the_output_dir(tmp_path, capsys, argv, expected):
    out = tmp_path / "out"
    assert run_cli(*argv, "--builders", 2, "--searchers", 2, "-o", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert expected in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, expected",
    [
        # only sweep checked --reps first: egta left an empty directory
        (["egta", "--agents", 2, "--rounds", 5, "--pc", 0.5, "--alpha", 1, "--reps", 0], "--reps"),
        # only the grid's first p_c went through SimConfig before the directory was made
        (["sweep", "--builders", 2, "--searchers", 2, "--rounds", 5, "--pc", "0.5,1.5"], "got 1.5"),
        (["egta", "--agents", 2, "--rounds", 5, "--pc", "0.5,1.5"], "got 1.5"),
        # the report was made after the directory
        (["verify-analytic", "--sign-points", 1, "--mc-points", 0, "--fd-points", 0, "--seed", -1],
         "seed"),
        # numpy refuses the byte size of these pools before touching memory: a traceback, exit 1
        (["simulate", "--builders", 10**17, "--searchers", 0, "--rounds", 1], "rounds of metrics"),
        # egta listed 10**17 profile configs before any was allocated, until memory ran out
        (["egta", "--agents", 10**17, "--rounds", 1, "--pc", 0.5, "--alpha", 1, "--reps", 1],
         "rounds of metrics"),
        # the series were allocated after the directory was made, which stayed behind empty
        (["sweep", "--builders", 2, "--searchers", 2, "--rounds", 2**61, "--pc", 0.5, "--reps", 1],
         "rounds of metrics"),
        (["egta", "--agents", 2, "--rounds", 2**61, "--pc", 0.5, "--alpha", 1, "--reps", 1],
         "rounds of metrics"),
        # the task lists were built whole until memory ran out: a MemoryError traceback, exit 1
        (["sweep", "--builders", 2, "--searchers", 2, "--rounds", 1, "--pc", 0.5, "--reps", 10**12],
         "replicas"),
        (["egta", "--agents", 2, "--rounds", 1, "--pc", 0.5, "--alpha", 1, "--reps", 10**12],
         "replicas"),
    ],
    ids=["egta-reps-0", "sweep-pc-past-1", "egta-pc-past-1", "verify-negative-seed",
         "simulate-unallocatable-pools", "egta-unallocatable-pools", "sweep-unallocatable-series",
         "egta-unallocatable-series", "sweep-huge-reps", "egta-huge-reps"],
)
def test_bad_input_exits_2_before_making_the_output_dir(tmp_path, capsys, argv, expected):
    out = tmp_path / "out"
    assert run_cli(*argv, "-o", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert expected in err
    assert not out.exists()


def test_every_kernel_field_is_a_setting_of_the_simulating_commands():
    # an output setting lives with the command that writes the output: record_rounds, a
    # SimConfig field only simulate set, made the round branch on it
    kernel = {f.name for f in fields(SimConfig) if f.name != "ga"} | {f.name for f in fields(GAConfig)}
    assert kernel <= set(cli._FIELDS.values())


@pytest.mark.parametrize("command", ["sweep", "egta"])
def test_sweep_and_egta_have_no_ma_window_flag(tmp_path, capsys, command):
    # the window shapes only simulate's metrics.csv: sweep wrote the same sweep.csv with any
    with pytest.raises(SystemExit) as exit_:
        run_cli(command, "--ma-window", 7, "--rounds", 5, "-o", tmp_path)
    assert exit_.value.code == 2
    assert "unrecognized arguments: --ma-window 7" in capsys.readouterr().err


def test_egta_has_no_role_count_flags(tmp_path, capsys):
    # the counts only built a template whose counts every profile replaced: this exited 2
    # with "need at least 2 agents, got 1"
    with pytest.raises(SystemExit) as exit_:
        run_cli("egta", "--builders", 1, "--searchers", 0, "--agents", 2, "--rounds", 5, "-o", tmp_path)
    assert exit_.value.code == 2
    assert "unrecognized arguments: --builders 1 --searchers 0" in capsys.readouterr().err
    assert not (tmp_path / "hpt.csv").exists()


POOLS_ARGS = ["--builders", 3, "--searchers", 3, "--pc", 0.5, "--seed", 11]


def test_pools_json_holds_the_snapshots_on_schedule(tmp_path):
    assert run_cli("simulate", *POOLS_ARGS, "--rounds", 20, "--snapshot-every", 10, "-o", tmp_path) == 0
    snapshots = json.loads((tmp_path / "pools.json").read_text())
    assert [s["round"] for s in snapshots] == [10, 20]
    snap = snapshots[0]
    assert len(snap["pools"]) == 6
    assert all(len(p["strategies"]) == 20 for p in snap["pools"])


def test_simulate_config_file_sets_its_output_settings(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"ma_window": 3, "snapshot_every": 10}))
    assert run_cli("simulate", *POOLS_ARGS, "--rounds", 20, "--config", cfg, "-o", tmp_path / "file") == 0
    assert run_cli("simulate", *POOLS_ARGS, "--rounds", 20, "--ma-window", 3, "--snapshot-every", 10,
                   "-o", tmp_path / "flags") == 0
    for name in ("metrics.csv", "pools.json"):
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()
    with open(tmp_path / "file" / "metrics.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert float(rows[5]["bid_ratio_ma"]) == pytest.approx(
        sum(float(row["avg_bid_ratio"]) for row in rows[3:6]) / 3
    )
    assert [s["round"] for s in json.loads((tmp_path / "file" / "pools.json").read_text())] == [10, 20]
    manifest = json.loads((tmp_path / "file" / "manifest.json").read_text())
    assert (manifest["config"]["ma_window"], manifest["config"]["snapshot_every"]) == (3, 10)


def test_integral_numbers_set_integer_settings(tmp_path):
    # a file's 4000.0 and a flag's 1e1 are whole numbers, and the manifest echoes them as ints
    keys = ["builders", "searchers", "rounds", "capacity", "seed", "ma_window", "snapshot_every"]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(zip(keys, [2.0, 2.0, 7.0, 3.0, 4000.0, 2.0, 5.0]))))
    assert run_cli("simulate", "--config", cfg, "--rounds", "1e1", "-o", tmp_path / "out") == 0
    echo = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]
    assert [echo[key] for key in keys] == [2, 2, 10, 3, 4000, 2, 5]
    assert all(type(echo[key]) is int for key in keys)


def test_pools_json_equals_the_snapshots_of_a_run_stepped_by_hand(tmp_path):
    assert run_cli("simulate", *POOLS_ARGS, "--rounds", 50, "--snapshot-every", 25, "-o", tmp_path) == 0
    snapshots = json.loads((tmp_path / "pools.json").read_text())
    sim = Simulation(SimConfig(n_builders=3, n_searchers=3, rounds=50, p_c=0.5, seed=11))
    by_hand = []
    for _ in range(2):
        for _ in range(25):
            sim.run_round()
        by_hand.append(sim.snapshot())
    assert [s["round"] for s in snapshots] == [25, 50]
    assert snapshots == json.loads(json.dumps(by_hand))


HPT_HEADER = b"n_building,n_sharing,u_building,u_sharing,samples\n"


@pytest.mark.parametrize(
    "argv, content, expected",
    [
        # not UTF-8: the UnicodeDecodeError of reading the text escaped as a traceback
        (["simulate", "--config"], b"\xff\xfe{}", "not UTF-8"),
        # one field past the csv module's 131,072-character limit raised _csv.Error
        (["egta", "--hpt-file"], HPT_HEADER + b"0,2,," + b"1" * 131_073 + b",1\n", "field limit"),
    ],
    ids=["config-not-utf8", "hpt-file-oversized-field"],
)
def test_bad_file_exits_2_with_one_line(tmp_path, capsys, argv, content, expected):
    (tmp_path / "input").write_bytes(content)
    assert run_cli(*argv, tmp_path / "input", "-o", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert expected in err


def test_egta_rejects_bad_alpha_before_simulating(tmp_path, capsys, monkeypatch):
    def no_simulation(*args):
        raise AssertionError("egta simulated before checking the alpha grid")

    monkeypatch.setattr("pbsgame.cli.estimate_hpt", no_simulation)
    for alpha in ("-1", "nan"):
        assert run_cli("egta", "--agents", 2, "--alpha=" + alpha, "--rounds", 30, "-o", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "ranking intensity" in err
        assert not (tmp_path / "hpt.csv").exists()


@pytest.mark.parametrize(
    "argv, expected",
    [
        # --pc selected nothing: every p_c group of the file was ranked, and the run exited 0
        (["--rounds", 999, "--pc", 0.9, "--seed", 5, "--agents", 7, "--reps", 3, "--config", "missing.json"],
         "takes no --config --agents --reps --rounds --pc --seed"),
        (["--agents", 1, "--rounds", 0], "takes no --agents --rounds"),
        (["--value-rate", 3, "--capacity", 1], "takes no --value-rate --capacity"),
        (["--config", "config.json"], "takes no --config"),
    ],
    ids=["run-flags", "out-of-range-flags", "model-flags", "config-file"],
)
def test_egta_hpt_file_refuses_simulation_flags(tmp_path, capsys, monkeypatch, argv, expected):
    # nothing is simulated, so a run setting in a flag or a file would select nothing
    monkeypatch.chdir(tmp_path)
    (tmp_path / "hpt.csv").write_text(
        "n_building,n_sharing,u_building,u_sharing,samples\n"
        "0,2,,0.0,1\n1,1,0.2,0.1,1\n2,0,0.2,,1\n"
    )
    (tmp_path / "config.json").write_text(json.dumps({"rounds": 5}))
    egta = ["egta", "--hpt-file", "hpt.csv", "--alpha", "1,10"]
    assert run_cli(*egta, *argv, "-o", "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert expected in err
    assert not (tmp_path / "out").exists()
    assert run_cli(*egta, "-o", "out") == 0


def test_egta_pc_grid(tmp_path):
    assert run_cli(
        "egta", "--agents", 2, "--pc", "0:1:0.5", "--alpha", "1", "--reps", 1,
        "--rounds", 30, "--seed", 2, "-o", tmp_path,
    ) == 0
    with open(tmp_path / "hpt.csv") as handle:
        p_values = [row["p_c"] for row in csv.DictReader(handle)]
    assert p_values == ["0.0"] * 3 + ["0.5"] * 3 + ["1.0"] * 3


def test_config_file_pc_sets_the_sweep_grid(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"pc": 0.3}))
    assert run_cli(
        "sweep", "--config", cfg, "--builders", 2, "--searchers", 2, "--rounds", 30,
        "--reps", 1, "-o", tmp_path,
    ) == 0
    with open(tmp_path / "sweep.csv") as handle:
        assert {row["p_c"] for row in csv.DictReader(handle)} == {"0.3"}


def test_egta_profiles_share_random_streams_across_pc(tmp_path):
    # replica seeds carry no p_c index: a p_c gives the same blocks wherever it sits in the grid
    tables = []
    for grid in ("0.5", "0.3,0.5"):
        assert run_cli(
            "egta", "--agents", 2, "--pc", grid, "--alpha", "1", "--reps", 2,
            "--rounds", 30, "--seed", 4, "-o", tmp_path / grid,
        ) == 0
        tables.append((tmp_path / grid / "hpt.csv").read_text().splitlines()[1:])
    alone, second = tables
    assert len(alone) == 3 and len(second) == 6
    assert second[3:] == alone


SETTINGS = [
    "builders", "searchers", "rounds", "pc", "value_rate", "temperature", "learning_rate",
    "trigger", "elimination", "mutation", "capacity", "seed",
]


@pytest.mark.parametrize(
    "argv, keys",
    [
        # simulate alone reads its output settings, and echoes them last
        (["simulate", *SIM_ARGS], SETTINGS + ["ma_window", "snapshot_every"]),
        (["sweep", "--builders", 2, "--searchers", 2, "--rounds", 10, "--pc", "0.5", "--reps", 1],
         SETTINGS + ["pc_grid", "reps"]),
        # egta takes its role counts from --agents, so it echoes no builders or searchers
        (["egta", "--agents", 2, "--pc", "0.5", "--alpha", "1", "--reps", 1, "--rounds", 10],
         SETTINGS[2:] + ["agents", "alpha_grid", "reps"]),
    ],
    ids=["simulate", "sweep", "egta"],
)
def test_manifest_config_keys(tmp_path, argv, keys):
    assert run_cli(*argv, "-o", tmp_path) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert list(manifest["config"]) == keys


# a valid value other than the base run's, for each setting sweep may echo
OTHER_VALUES = {
    "builders": 3, "searchers": 2, "rounds": 60, "pc": 0.3, "value_rate": 5.0, "temperature": 1.0,
    "learning_rate": 0.2, "trigger": 0.2, "elimination": 0.25, "mutation": 0.1, "capacity": 1,
    "seed": 4,
}


def test_every_setting_sweep_echoes_changes_sweep_csv(tmp_path):
    # sweep echoed ma_window and snapshot_every, and read neither
    base = ["--builders", 2, "--searchers", 3, "--rounds", 80, "--pc", 0.5, "--reps", 1,
            "--trigger", 0.05, "--seed", 3]
    assert run_cli("sweep", *base, "-o", tmp_path / "base") == 0
    reference = (tmp_path / "base" / "sweep.csv").read_bytes()
    echoed = json.loads((tmp_path / "base" / "manifest.json").read_text())["config"]
    keys = [key for key in echoed if key not in ("pc_grid", "reps")]
    assert set(keys) == set(OTHER_VALUES)
    for key in keys:
        out = tmp_path / key
        assert run_cli("sweep", *base, "--" + key.replace("_", "-"), OTHER_VALUES[key], "-o", out) == 0
        assert (out / "sweep.csv").read_bytes() != reference, key

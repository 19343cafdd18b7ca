import csv
import hashlib
import json
import tracemalloc

import pytest

from pbsgame.cli import main, parse_grid
from pbsgame.errors import ConfigError
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


@pytest.mark.parametrize(
    "rows, expected",
    [
        ("0,2,,0.0,1\n1,1,0.2,0.1,1\n1,1,0.3,0.1,1\n2,0,0.2,,1\n", "two profiles with 1 builders"),
        ("0,2,,0.0,1\n1\n2,0,0.2,,1\n", "bad payoff table file"),
        ("0,2,,0.0,1\n1,1,nan,0.1,1\n2,0,0.2,,1\n", "non-finite payoff"),
    ],
    ids=["duplicate-profile", "short-row", "nan-payoff"],
)
def test_egta_hpt_file_bad_table_exits_2(tmp_path, capsys, rows, expected):
    hpt_file = tmp_path / "hpt.csv"
    hpt_file.write_text("n_building,n_sharing,u_building,u_sharing,samples\n" + rows)
    assert run_cli("egta", "--hpt-file", hpt_file, "--alpha", "1", "-o", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert expected in err


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


def test_verify_analytic_report(tmp_path):
    assert run_cli(
        "verify-analytic", "--sign-points", 20, "--mc-points", 2, "--mc-samples", "1e5",
        "--fd-points", 5, "--seed", 1, "-o", tmp_path,
    ) == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["passed"]
    assert report["sign_check"]["violations"] == 0
    manifest_checksums_ok(tmp_path)


def test_output_dir_collision_is_io_error(tmp_path, capsys):
    target = tmp_path / "occupied"
    target.write_text("a file, not a directory")
    assert run_cli("simulate", *SIM_ARGS, "-o", target) == 3
    assert "io error" in capsys.readouterr().err


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
        (["simulate", "--rounds", 5], {"seed": -3}, "seed"),
    ],
    ids=["config-rounds-x", "config-list", "empty-pc-grid", "value-rate-inf",
         "negative-snapshot-period", "mc-samples-abc", "negative-jobs", "zero-jobs",
         "verify-no-points", "verify-negative-points", "mc-samples-0", "mc-samples-1",
         "mc-samples-negative", "mc-samples-1e20", "mc-samples-1e18", "mc-samples-2e18",
         "pc-grid-1e300-points", "alpha-grid-1e9-points", "alpha-grid-inf", "temperature-nan",
         "temperature-1e-320",
         "value-rate-1e-320", "simulate-negative-seed", "sweep-negative-seed",
         "egta-negative-seed", "verify-negative-seed", "config-negative-seed"],
)
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, argv, config, expected):
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = [*argv, "--config", tmp_path / "config.json"]
    assert run_cli(*argv, "-o", tmp_path) == 2
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


def test_egta_hpt_file_ignores_simulation_flags(tmp_path):
    # nothing is simulated, so run-size flags are neither validated nor used
    hpt_file = tmp_path / "hpt.csv"
    hpt_file.write_text(
        "n_building,n_sharing,u_building,u_sharing,samples\n"
        "0,2,,0.0,1\n1,1,0.2,0.1,1\n2,0,0.2,,1\n"
    )
    egta = ["egta", "--hpt-file", hpt_file, "--alpha", "1,10"]
    assert run_cli(*egta, "-o", tmp_path / "plain") == 0
    assert run_cli(*egta, "--agents", 1, "--rounds", 0, "-o", tmp_path / "flagged") == 0
    plain = (tmp_path / "plain" / "alpharank.csv").read_bytes()
    assert (tmp_path / "flagged" / "alpharank.csv").read_bytes() == plain


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
    # replica seeds carry no p_c index: equal p_c values give equal blocks
    assert run_cli(
        "egta", "--agents", 2, "--pc", "0.5,0.5", "--alpha", "1", "--reps", 2,
        "--rounds", 30, "--seed", 4, "-o", tmp_path,
    ) == 0
    rows = (tmp_path / "hpt.csv").read_text().splitlines()[1:]
    assert len(rows) == 6
    assert rows[:3] == rows[3:]


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["simulate", *SIM_ARGS], []),
        (["sweep", "--builders", 2, "--searchers", 2, "--rounds", 10, "--pc", "0.5", "--reps", 1],
         ["pc_grid", "reps"]),
        (["egta", "--agents", 2, "--pc", "0.5", "--alpha", "1", "--reps", 1, "--rounds", 10],
         ["agents", "alpha_grid", "reps"]),
    ],
    ids=["simulate", "sweep", "egta"],
)
def test_manifest_config_keys(tmp_path, argv, extra):
    assert run_cli(*argv, "-o", tmp_path) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    keys = [
        "builders", "searchers", "rounds", "pc", "value_rate", "temperature", "learning_rate",
        "trigger", "elimination", "mutation", "capacity", "seed", "ma_window", "snapshot_every",
    ]
    assert list(manifest["config"]) == keys + extra

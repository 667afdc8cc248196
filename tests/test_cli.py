"""Command-line driver: config parsing, reproducibility, subcommands."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import roomflow.calibration as calib
import roomflow.cli as cli

MULTIDAY = """\
[scenario]
mode = multiday
T = 5
C = 20
k0 = 1
v = 0.0
lambda1 = 30
lambda2 = 5
q1 = 0.5
keep_p0 = 0.5
q_stay = 0.3

[policies]
adaptive = adaptive iota=2.0 alpha=0.4

[run]
reps = 2
seed = 7
"""

SINGLEDAY = """\
[scenario]
mode = single-day
C = 20
q1 = 0.5
v = 0.0

[policies]
best = oracle

[sweep]
B = 30,40
lambda2 = 0,5

[run]
reps = 1
sims = 50
seed = 11
objective = mismatch
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def body(path):
    """File content minus the volatile parts: the timestamp line, and the
    trailing runtime_s column when present."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("# generated")]
    header = next((ln for ln in lines if not ln.startswith("#")), "")
    if header.rstrip("\n").endswith("runtime_s"):
        lines = [ln if ln.startswith("#")
                 else ",".join(ln.rstrip("\n").split(",")[:-1]) + "\n"
                 for ln in lines]
    return lines


class TestCellSeed:
    def test_deterministic(self):
        assert cli.cell_seed(7, "B=300", 0) == cli.cell_seed(7, "B=300", 0)

    def test_distinct_across_coordinates(self):
        seen = {cli.cell_seed(m, k, r)
                for m in (0, 1) for k in ("a", "b") for r in (0, 1)}
        assert len(seen) == 8

    def test_64_bit_range(self):
        s = cli.cell_seed(123, "x=1", 5)
        assert 0 <= s < 2 ** 64


class TestParseAxis:
    def test_comma_list(self):
        assert cli.parse_axis("1, 2.5,3") == [1.0, 2.5, 3.0]

    def test_inclusive_range(self):
        assert cli.parse_axis("0:1:0.25") == pytest.approx(
            [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_bad_range_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_axis("5:1:1")
        with pytest.raises(cli.ConfigError):
            cli.parse_axis("0:1:0")


class TestLoadConfig:
    def test_unknown_preset(self):
        with pytest.raises(cli.ConfigError, match="unknown preset"):
            cli.load_config("fig9", None)

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="cannot read"):
            cli.load_config(None, str(tmp_path / "nope.cfg"))

    def test_empty(self):
        with pytest.raises(cli.ConfigError, match="empty configuration"):
            cli.load_config(None, None)

    @pytest.mark.parametrize("preset", cli.PRESETS)
    def test_shipped_presets_parse(self, preset):
        cfg = cli.load_config(preset, None)
        assert cfg.has_section("scenario")
        assert cli.parse_policies(cfg)

    def test_config_overrides_preset(self, tmp_path):
        over = write_cfg(tmp_path, "[scenario]\nC = 33\n")
        cfg = cli.load_config("fig4", over)
        assert cfg.get("scenario", "C") == "33"


class TestParsePolicies:
    def test_unknown_kind(self, tmp_path):
        cfg = cli.load_config(None, write_cfg(
            tmp_path, "[policies]\nx = magic\n"))
        with pytest.raises(cli.ConfigError, match="unknown kind"):
            cli.parse_policies(cfg)

    def test_missing_parameter(self, tmp_path):
        cfg = cli.load_config(None, write_cfg(
            tmp_path, "[policies]\nx = adaptive iota=2.0\n"))
        with pytest.raises(cli.ConfigError, match="alpha"):
            cli.parse_policies(cfg)

    @pytest.mark.parametrize("spec, field", [
        ("adaptive iota=2.0 alpha=1.5", "alpha"),
        ("adaptive iota=-1 alpha=0.4", "iota"),
        ("heuristic beta=5", "beta"),
    ])
    def test_invalid_parameters_exit_1(self, tmp_path, capsys, spec, field):
        cfg = write_cfg(tmp_path, MULTIDAY.replace(
            "adaptive = adaptive iota=2.0 alpha=0.4", f"bad = {spec}"))
        rc = cli.main(["simulate", "--config", cfg,
                       "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("config error: [policies] bad: ")
        assert field in err
        assert not (tmp_path / "x.csv").exists()

    def test_option_case_preserved(self, tmp_path):
        cfg = cli.load_config(None, write_cfg(
            tmp_path, "[sweep]\nB = 1,2\n[scenario]\nT = 1\n"))
        assert cfg.has_option("sweep", "B")


class TestExitCodes:
    def test_config_error_is_1(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, "[scenario]\nmode = multiday\n")
        assert cli.main(["simulate", "--config", bad]) == 1
        assert "config error" in capsys.readouterr().err

    def test_io_error_is_3(self, tmp_path):
        cfg = write_cfg(tmp_path, MULTIDAY)
        rc = cli.main(["simulate", "--config", cfg,
                       "--out", str(tmp_path / "no" / "dir" / "x.csv")])
        assert rc == 3


class TestSimulate:
    def test_rerun_is_byte_identical_modulo_timestamp(self, tmp_path):
        cfg = write_cfg(tmp_path, MULTIDAY)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert cli.main(["simulate", "--config", cfg, "--out", a]) == 0
        assert cli.main(["simulate", "--config", cfg, "--out", b]) == 0
        assert body(a) == body(b)
        assert body(a + ".series") == body(b + ".series")

    def test_seed_flag_changes_results(self, tmp_path):
        cfg = write_cfg(tmp_path, MULTIDAY)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        cli.main(["simulate", "--config", cfg, "--out", a])
        cli.main(["simulate", "--config", cfg, "--out", b, "--seed", "99"])
        assert body(a) != body(b)

    def test_rejects_two_axes(self, tmp_path):
        cfg = write_cfg(tmp_path, MULTIDAY + "[sweep]\nv = 0,1\nC = 10,20\n")
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "x.csv")]) == 1

    def test_no_runtime_column(self, tmp_path):
        # result files hold results only, so reruns are byte-identical
        cfg = write_cfg(tmp_path, MULTIDAY)
        out = str(tmp_path / "x.csv")
        cli.main(["simulate", "--config", cfg, "--out", out])
        assert body(out)[0].rstrip("\n").split(",") == [
            "policy", "mean_cumulative_regret", "stderr",
            "mean_stage1_regret", "mean_stage2_regret"]

    def test_series_file_has_one_row_per_day(self, tmp_path):
        cfg = write_cfg(tmp_path, MULTIDAY)
        out = str(tmp_path / "x.csv")
        cli.main(["simulate", "--config", cfg, "--out", out])
        lines = body(out + ".series")
        assert len(lines) == 1 + 5  # header + T days, one policy


class TestSweep:
    def test_single_day_grid_columns_and_argmin(self, tmp_path):
        cfg = write_cfg(tmp_path, SINGLEDAY)
        out = str(tmp_path / "grid.csv")
        assert cli.main(["sweep", "--config", cfg, "--out", out]) == 0
        lines = body(out)
        assert lines[0].startswith("# argmin best:")
        assert lines[1].rstrip("\n").split(",") == [
            "B", "lambda2", "policy", "mean_loss", "loss_stderr",
            "mean_regret", "regret_stderr", "mean_mismatch",
            "mismatch_stderr"]
        assert len(lines) == 2 + 4  # argmin + header + 4 cells

    def test_jobs_matches_serial(self, tmp_path):
        cfg = write_cfg(tmp_path, SINGLEDAY)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        cli.main(["sweep", "--config", cfg, "--out", a])
        cli.main(["sweep", "--config", cfg, "--out", b, "--jobs", "2"])
        assert body(a) == body(b)

    def test_unknown_objective_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, SINGLEDAY.replace(
            "objective = mismatch", "objective = profit"))
        assert cli.main(["sweep", "--config", cfg,
                         "--out", str(tmp_path / "x.csv")]) == 1

    def test_single_cell_sweep_matches_simulate(self, tmp_path):
        base = MULTIDAY + "[sweep]\nv = 0.5\n"
        cfg = write_cfg(tmp_path, base)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        cli.main(["sweep", "--config", cfg, "--out", a])
        cli.main(["simulate", "--config", cfg, "--out", b])
        assert body(a) == body(b)


class TestFit:
    MODEL = calib.FittedModel(
        lead_gamma=(2.0, 3.0), cancel_weibull=(1.5, 4.0),
        duration_geometric=0.3, walkin_mixture=((0.5, 3.0), (0.5, 15.0)),
        capacity=40, cancel_prob=0.35, mean_daily_bookings=60.0)

    def test_fit_writes_model_and_report(self, tmp_path, capsys):
        data = tmp_path / "b.csv"
        calib.write_bookings(
            calib.simulate_booking_records(self.MODEL, 120, seed=3), data)
        out = str(tmp_path / "model.txt")
        rc = cli.main(["fit", "--config", str(data), "--out", out,
                       "--capacity", "40", "--seed", "1"])
        assert rc == 0
        fitted = calib.load_model(out)
        assert fitted.capacity == 40
        assert fitted.duration_geometric == pytest.approx(0.3, abs=0.03)
        report = open(out + ".report").read()
        assert "loglik" in report
        assert "rejected requests" in capsys.readouterr().out

    def test_walkin_only_dataset_notice(self, tmp_path, capsys):
        rows = [r for r in calib.simulate_booking_records(
            self.MODEL, 60, seed=4) if r.is_walk_in]
        data = tmp_path / "w.csv"
        calib.write_bookings(rows, data)
        rc = cli.main(["fit", "--config", str(data),
                       "--out", str(tmp_path / "m.txt"), "--seed", "1"])
        assert rc == 0
        assert "walk-in-only dataset" in capsys.readouterr().out

    def test_bad_dataset_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "b.csv"
        data.write_text("arrival_date,lead_days\n2017-01-01,5\n")
        assert cli.main(["fit", "--config", str(data)]) == 1

    def test_fit_without_config_rejected(self, capsys):
        assert cli.main(["fit"]) == 1

    def test_model_independent_of_hash_seed(self, tmp_path):
        # the walk-in day counts seed the EM restarts; their order must not
        # follow the interpreter's set order
        data = tmp_path / "b.csv"
        calib.write_bookings(
            calib.simulate_booking_records(self.MODEL, 60, seed=5), data)
        src = str(Path(cli.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"model{hash_seed}.txt"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            subprocess.run([sys.executable, "-m", "roomflow.cli", "fit",
                            "--config", str(data), "--out", str(out),
                            "--capacity", "40", "--seed", "1"],
                           env=env, check=True, capture_output=True)
            outputs.append((out.read_text(),
                            Path(str(out) + ".report").read_text()))
        assert outputs[0] == outputs[1]


class TestCheck:
    def test_fig4_scenario_verdicts(self, capsys):
        assert cli.main(["check", "--preset", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "booking condition: holds" in out
        assert "walk-in condition: fails" in out
        assert "call-timing condition" in out

    def test_single_day_preset(self, capsys):
        # a single-day scenario has no horizon; check reads only what it
        # judges, and reports call timing along the v sweep
        assert cli.main(["check", "--preset", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "booking condition: not applicable" in out
        assert "walk-in condition: fails (lambda2=30," in out
        # lambda2 = 30 is below the second call-timing branch (about 93)
        # at every v
        assert out.count("call-timing condition at v=") == 11
        assert "call-timing condition at v=0: fails" in out
        assert "call-timing condition at v=1: fails" in out

    def test_missing_adaptive_policy_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MULTIDAY.replace(
            "adaptive = adaptive iota=2.0 alpha=0.4", "h = heuristic beta=0.1"))
        assert cli.main(["check", "--config", cfg]) == 1

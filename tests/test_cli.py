"""Command-line driver: config parsing, reproducibility, subcommands."""

import argparse
import concurrent.futures
import dataclasses
import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import reference as R
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
        assert cli.parse_axis("0.7:1:0.1") == pytest.approx(
            [0.7, 0.8, 0.9, 1.0])
        # a stop reached only up to float error is kept: 0.3 / 0.1 is
        # 2.9999999999999996
        assert cli.parse_axis("0:0.3:0.1") == pytest.approx(
            [0.0, 0.1, 0.2, 0.3])

    def test_range_never_passes_its_stop(self):
        assert cli.parse_axis("0:1:0.6") == [0.0, 0.6]
        assert cli.parse_axis("0:50:30") == [0.0, 30.0]

    def test_values_that_share_a_cell_key_rejected(self):
        for text in ("1.0000001,1.0000002", "2,3,2"):
            with pytest.raises(cli.ConfigError, match="share a cell key"):
                cli.parse_axis(text)

    def test_bad_range_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_axis("5:1:1")
        with pytest.raises(cli.ConfigError):
            cli.parse_axis("0:1:0")

    def test_range_at_the_limit_builds(self):
        assert len(cli.parse_axis("1:10000:1")) == 10_000


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

    @pytest.mark.parametrize("text, message", [
        ("[run]\nreps = 2\nreps = 3\n", "line 3: [run] reps: repeated key"),
        ("[run]\nreps = 2\n[run]\nseed = 1\n",
         "line 3: [run]: repeated section"),
        ("reps = 2\n[run]\n", "line 1: a key before any [section] header"),
        ("[run]\nreps\n", "line 2: not a [section] header or a key"),
    ], ids=["repeated-key", "repeated-section", "no-section-header",
            "not-a-key"])
    def test_malformed_file_names_the_line(self, tmp_path, capsys, text,
                                           message):
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "x.csv"
        rc = cli.main(["simulate", "--preset", "lower-bound", "--config",
                       cfg, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"config error: {cfg}: {message}\n"
        assert not out.exists()

    def test_non_utf8_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(b"[scenario]\nT = \xff\n")
        rc = cli.main(["simulate", "--preset", "lower-bound", "--config",
                       str(cfg), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"config error: {cfg}: not UTF-8 (")

    @pytest.mark.parametrize("section", ["rnu", "DEFAULT"])
    def test_unknown_section_rejected(self, tmp_path, capsys, section):
        # a typo would otherwise leave the preset's [run] reps in force;
        # keys under [DEFAULT] would land in every section
        cfg = write_cfg(tmp_path, f"[{section}]\nreps = 2\n")
        out = tmp_path / "x.csv"
        rc = cli.main(["simulate", "--preset", "lower-bound", "--config",
                       cfg, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"config error: [{section}]: unknown section\n")
        assert not out.exists()


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
        ("adaptive iota=2 alpha=0.4 beta=3",
         "beta: not read by kind 'adaptive'"),
        ("adaptive iota=2 alpha=0.4 alpha=0.3", "alpha: repeated"),
        ("oracle iota=2", "iota: not read by kind 'oracle'"),
        ("heuristic beta", "beta: not key=value"),
        # a % is no interpolation syntax, just a character float rejects
        ("adaptive iota=2% alpha=0.4", "'2%'"),
        # no positive departure bound, so no Stage-I capacity estimate
        ("adaptive iota=100 alpha=0.4", "infeasible instance: departure "
         "bound is nonpositive at C=20, q_stay=0.3"),
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

    # a valid value of every policy field
    VALID = {"iota": 2.0, "alpha": 0.4, "beta": 0.2}

    @pytest.mark.parametrize("kind", sorted(cli._KINDS))
    def test_accepted_keys_are_the_policy_fields(self, tmp_path, kind):
        # a spec must give each field of its kind's dataclass and no other
        # key
        cls = cli._KINDS[kind]
        fields = [f.name for f in dataclasses.fields(cls)]

        def parse(keys):
            spec = " ".join(f"{k}={self.VALID[k]}" for k in keys)
            return cli.parse_policies(cli.load_config(None, write_cfg(
                tmp_path, f"[policies]\nx = {kind} {spec}\n")))["x"]

        assert parse(fields) == cls(**{k: self.VALID[k] for k in fields})
        for key in fields:
            with pytest.raises(cli.ConfigError, match=f"{key}: missing"):
                parse([k for k in fields if k != key])
        for key in sorted(set(self.VALID) - set(fields)):
            with pytest.raises(cli.ConfigError, match=f"{key}: not read"):
                parse([*fields, key])

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


class TestFlags:
    @pytest.mark.parametrize("command, flags", [
        ("simulate", ["--config", "--preset", "--out", "--seed", "--jobs",
                      "--reps"]),
        ("sweep", ["--config", "--preset", "--out", "--seed", "--jobs",
                   "--reps"]),
        ("fit", ["--config", "--out", "--seed", "--jobs", "--capacity",
                 "--components"]),
        # check writes no file, draws nothing and starts no pool
        ("check", ["--config", "--preset"]),
    ])
    def test_each_subcommand_takes_only_what_it_reads(self, command, flags):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert [a.option_strings[0] for a in sub.choices[command]._actions
                if a.dest != "help"] == flags


class TestBenchmarkCommandLines:
    def test_workload_command_lines_parse(self, tmp_path):
        # the benchmark's workloads are frozen, so every flag they pass
        # (fit-bookings passes --jobs 1, which fit never reads) stays; the
        # --jobs 2 lines are those of `perfbench/run.py --verify`
        workloads = R.load_perfbench_workloads()
        for name, cls in workloads.WORKLOADS.items():
            (tmp_path / name).mkdir()
            argv = cls(tmp_path / name, 0).argv
            jobs2 = argv[:argv.index("--jobs")] + ["--jobs", "2"]
            for line in (argv, jobs2):
                assert cli.build_parser().parse_args(line).jobs == int(
                    line[-1])


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

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_at_least_one(self, tmp_path, capsys, jobs):
        out = tmp_path / "x.csv"
        rc = cli.main(["sweep", "--config", write_cfg(tmp_path, SINGLEDAY),
                       "--out", str(out), "--jobs", jobs])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"config error: --jobs: must be at least 1, got {jobs}\n")
        assert not out.exists()

    def test_pool_capped_at_unit_count(self, tmp_path, monkeypatch):
        # the work unit is one replication of one cell
        sizes = []

        class Pool:  # records its size and runs the units in-process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # run_grid imports the pool class when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        out = str(tmp_path / "x.csv")
        assert cli.main(["sweep", "--config", write_cfg(tmp_path, SINGLEDAY),
                         "--out", out, "--jobs", "64"]) == 0
        assert sizes == [4]  # B x lambda2 = 4 cells, one rep each
        # one cell of two reps: two units
        one = write_cfg(tmp_path, MULTIDAY, "one.cfg")
        assert cli.main(["simulate", "--config", one, "--out", out,
                         "--jobs", "8"]) == 0
        assert sizes == [4, 2]
        # one cell of one rep: no pool at all
        assert cli.main(["simulate", "--config", one, "--out", out,
                         "--reps", "1", "--jobs", "8"]) == 0
        assert sizes == [4, 2]

    def test_lower_bound_reps_in_parallel_match_serial(self, tmp_path):
        # one cell, five reps: --jobs 2 runs the reps in two processes
        cfg = write_cfg(tmp_path, "[scenario]\nT = 40\n")
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out, jobs in ((a, "1"), (b, "2")):
            assert cli.main(["simulate", "--preset", "lower-bound",
                             "--config", cfg, "--out", out,
                             "--jobs", jobs]) == 0
        assert body(a) == body(b)
        assert body(a + ".series") == body(b + ".series")

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


class TestLazyImports:
    def test_scipy_and_pool_load_only_where_used(self, tmp_path):
        # every module of the package loads with the command, scipy, the
        # process pool and numpy.random do not; a lower-bound run (no Beta
        # rate, one job) reaches neither of the first two
        cfg = write_cfg(tmp_path, "[scenario]\nT = 40\n")
        code = "\n".join([
            "import sys",
            "import roomflow.cli as cli",
            "heavy = ('scipy', 'concurrent.futures.process')",
            "print(*(m for m in (*heavy, 'numpy.random')"
            " if m in sys.modules), sep=',')",
            "print(*sorted(m for m in sys.modules if m.startswith('roomflow')),"
            " sep=',')",
            f"argv = ['simulate', '--preset', 'lower-bound', '--config', "
            f"{cfg!r}, '--out', {str(tmp_path / 'x.csv')!r}, '--jobs', '1']",
            "assert cli.main(argv) == 0",
            "print(*(m for m in heavy if m in sys.modules), sep=',')",
        ])
        src = str(Path(cli.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             check=True, capture_output=True, text=True)
        assert run.stdout.split("\n") == [
            "", "roomflow,roomflow.benchmarks,roomflow.calibration,"
            "roomflow.cli,roomflow.engine,roomflow.flows,roomflow.policies",
            "", ""]

    def test_beta_rate_runs_load_no_scipy(self, tmp_path):
        # every preset but lower-bound has a Beta walk-in rate, whose tail
        # mass is a binomial sum: a small fig4 run, a small fig3 sweep and
        # fig4's check each ask for it and leave scipy unloaded
        small = {
            "fig4": write_cfg(tmp_path, "[scenario]\nT = 20\n"
                              "[sweep]\nv = 0.7\n[run]\nreps = 1\n",
                              "fig4.cfg"),
            "fig3": write_cfg(tmp_path, "[sweep]\nv = 0.5\n"
                              "[run]\nreps = 1\nsims = 20\n", "fig3.cfg")}
        out = str(tmp_path / "x.csv")
        commands = [
            ["simulate", "--preset", "fig4", "--config", small["fig4"],
             "--out", out],
            ["sweep", "--preset", "fig3", "--config", small["fig3"],
             "--out", out],
            ["check", "--preset", "fig4"]]
        code = "\n".join([
            "import contextlib, io, sys",
            "import roomflow.cli as cli",
            "from roomflow.flows import RateFunction",
            "calls, mass_after = [], RateFunction.mass_after",
            "def counted(rate, u):",
            "    calls.append(rate.kind)",
            "    return mass_after(rate, u)",
            "RateFunction.mass_after = counted",
            "seen = []",
            f"for argv in {commands!r}:",
            "    calls.clear()",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert cli.main(argv) == 0",
            "    seen.append(('beta' in calls, sorted(",
            "        m for m in sys.modules if m.split('.')[0] == 'scipy')))",
            "print(seen)",
        ])
        src = str(Path(cli.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             check=True, capture_output=True, text=True)
        assert run.stdout == f"{[(True, [])] * 3}\n"


class TestFit:
    MODEL = calib.FittedModel(
        lead_gamma=(2.0, 3.0), cancel_weibull=(1.5, 4.0),
        duration_geometric=0.3, walkin_mixture=((0.5, 3.0), (0.5, 15.0)),
        capacity=40, cancel_prob=0.35, mean_daily_bookings=60.0)

    def test_fit_writes_model_and_report(self, tmp_path, capsys):
        data = tmp_path / "b.csv"
        R.write_bookings(data, self.MODEL, 120, seed=3)
        out = str(tmp_path / "model.txt")
        rc = cli.main(["fit", "--config", str(data), "--out", out,
                       "--capacity", "40", "--seed", "1"])
        assert rc == 0
        fitted = R.load_perfbench_workloads().checks.read_model(out)
        assert fitted["capacity"] == 40
        assert fitted["duration_geometric_q_stay"] == pytest.approx(
            0.3, abs=0.03)
        report = open(out + ".report").read()
        assert "loglik" in report
        assert "rejected requests" in capsys.readouterr().out

    def test_walkin_only_dataset_notice(self, tmp_path, capsys):
        data = tmp_path / "w.csv"
        R.write_bookings(data, dataclasses.replace(
            self.MODEL, mean_daily_bookings=0.0), 60, seed=4)
        rc = cli.main(["fit", "--config", str(data),
                       "--out", str(tmp_path / "m.txt"), "--seed", "1"])
        assert rc == 0
        assert "walk-in-only dataset" in capsys.readouterr().out

    def test_components_reduced_notice(self, tmp_path):
        # no walk-ins: every day counts 0, one distinct value, so three
        # components reduce to one; a fresh process shows what its stderr
        # gets, where pytest would capture a raw warning
        data = tmp_path / "w.csv"
        data.write_text(",".join(calib.COLUMNS) + "\n" + "".join(
            f"2017-01-0{day},{lead},0,,{stay},0\n"
            for day, lead, stay in ((1, 5, 2), (2, 3, 1), (3, 7, 3),
                                    (4, 2, 1))))
        out = tmp_path / "m.txt"
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "roomflow.cli", "fit", "--config",
             str(data), "--out", str(out), "--components", "3"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True)
        assert proc.returncode == 0
        report = Path(str(out) + ".report").read_text()
        assert proc.stdout == (
            "notice: --components: reducing components from 3 to 1 (more "
            "components than distinct count values)\n" + report)
        assert proc.stderr == ""
        for text in ("UserWarning", "calibration.py", src):
            assert text not in proc.stdout + proc.stderr

    def test_bad_dataset_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "b.csv"
        data.write_text("arrival_date,lead_days\n2017-01-01,5\n")
        assert cli.main(["fit", "--config", str(data)]) == 1

    @pytest.mark.parametrize("flag, value, least", [
        ("--capacity", "0", 1), ("--components", "0", 1), ("--seed", "-1", 0),
    ], ids=["--capacity", "--components", "--seed"])
    def test_flag_counts_at_least_one(self, tmp_path, capsys, flag, value,
                                      least):
        data = tmp_path / "b.csv"
        R.write_bookings(data, self.MODEL, 10, seed=3)
        out = tmp_path / "model.txt"
        rc = cli.main(["fit", "--config", str(data), "--out", str(out),
                       flag, value])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"config error: {flag}: must be at least {least}, got {value}\n")
        assert not out.exists()

    @pytest.mark.parametrize("rows, law", [
        ("", "stay-length Geometric"),
        ("2017-01-01,5,0,,2,0\n", "lead-time Gamma"),
    ], ids=["header-only", "one-booking"])
    def test_dataset_too_small_to_fit(self, tmp_path, capsys, rows, law):
        data = tmp_path / "small.csv"
        data.write_text(",".join(calib.COLUMNS) + "\n" + rows)
        out = tmp_path / "model.txt"
        rc = cli.main(["fit", "--config", str(data), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {data}: {law} fit: ")
        assert not out.exists()

    def test_non_utf8_dataset_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "b.csv"
        data.write_bytes(",".join(calib.COLUMNS).encode()
                         + b"\n2017-01-01,5,0,,2,\xff\n")
        rc = cli.main(["fit", "--config", str(data),
                       "--out", str(tmp_path / "m.txt")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"config error: {data}: not UTF-8 (")

    def test_oversized_field_names_its_line(self, tmp_path, capsys):
        # past the csv module's 128 KiB field limit
        data = tmp_path / "b.csv"
        data.write_text(",".join(calib.COLUMNS) + "\n2017-01-01,5,0,,2,0\n"
                        + "2017-01-01,5,0,,2," + "0" * 200_000 + "\n")
        rc = cli.main(["fit", "--config", str(data),
                       "--out", str(tmp_path / "m.txt")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "config error: line 3: field larger than field limit (131072)\n")

    def test_fit_without_config_rejected(self, capsys):
        assert cli.main(["fit"]) == 1

    @pytest.mark.parametrize("flag", [("--preset", "fig4"), ("--reps", "3")])
    def test_run_flags_are_usage_errors(self, flag, capsys):
        # fit reads no preset and no replication count: the flags are
        # rejected before anything runs, not silently ignored
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", "--config", "b.csv", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in (
            capsys.readouterr().err)

    def test_output_bytes_pinned(self, tmp_path, capsys):
        # SHA-256 of a fixed dataset and of what fit writes for it: a change
        # to ingestion, the fitters or the report that is meant to keep the
        # output must keep these bytes
        data = tmp_path / "b.csv"
        R.write_bookings(data, self.MODEL, 60, seed=5)
        out = tmp_path / "model.txt"
        rc = cli.main(["fit", "--config", str(data), "--out", str(out),
                       "--capacity", "40", "--seed", "1"])
        assert rc == 0
        digests = [hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in (data, out, Path(str(out) + ".report"))]
        assert digests == [
            "d8bf747dc2b016f03dd463fe74a955ce82c1954189e2713633063d1e70ce0e56",
            "484017918186291f26fd2b96fb22f2cf2e19d53c91d4af3bb5db00a52de03312",
            "be5968d17c1d5d1530cc1a7f52b0bcae4e425516fea9e79241e52512f02e186a",
        ]

    def test_model_independent_of_hash_seed(self, tmp_path):
        # the walk-in day counts seed the EM restarts; their order must not
        # follow the interpreter's set order
        data = tmp_path / "b.csv"
        R.write_bookings(data, self.MODEL, 60, seed=5)
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

    def test_verdicts_per_adaptive_policy(self, tmp_path, capsys):
        # each policy is judged at its own iota and alpha: iota = 0.2 with
        # alpha = 0.1 would pass call timing, but neither policy has both
        text = """\
[scenario]
T = 10
C = 10
lambda1 = 30
lambda2 = 30
q1 = 0.9
v = 0.2

[policies]
a1 = adaptive iota=0.2 alpha=0.45
"""
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["check", "--config", cfg]) == 0
        one = capsys.readouterr().out
        assert one.startswith("booking condition: holds")
        assert "call-timing condition at v=0.2: fails" in one
        cfg = write_cfg(tmp_path, text + "a2 = adaptive iota=3.0 alpha=0.1\n")
        assert cli.main(["check", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == ["a1: " + ln for ln in one.splitlines()]
        assert "a2: walk-in condition: fails (lambda2=30," in lines[4]
        assert [ln for ln in lines if "call-timing" in ln] == [
            f"{n}: call-timing condition at v=0.2: fails (walk-in mass "
            "after v=24)" for n in ("a1", "a2")]

    def test_missing_adaptive_policy_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MULTIDAY.replace(
            "adaptive = adaptive iota=2.0 alpha=0.4", "h = heuristic beta=0.1"))
        assert cli.main(["check", "--config", cfg]) == 1

    @pytest.mark.parametrize("flag", [("--out", "here.csv"), ("--seed", "5"),
                                      ("--reps", "3"), ("--jobs", "2")])
    def test_run_flags_are_usage_errors(self, flag, capsys):
        # the verdicts read no output path, seed, replication count or job
        # count: the flags are rejected before anything runs, not silently
        # ignored
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--preset", "fig4", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in (
            capsys.readouterr().err)

    def test_run_section_is_not_read(self, tmp_path, capsys):
        # [run] belongs to simulate and sweep: a reps count past their
        # bound leaves the verdicts as they are
        assert cli.main(["check", "--preset", "fig4"]) == 0
        plain = capsys.readouterr().out
        over = write_cfg(tmp_path, "[run]\nreps = 100000000\n")
        assert cli.main(["check", "--preset", "fig4", "--config", over]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (plain, "")


def data_rows(path):
    """name -> value dicts of a result file's rows."""
    lines = [ln.rstrip("\n").split(",") for ln in body(path)
             if not ln.startswith("#")]
    return [dict(zip(lines[0], ln)) for ln in lines[1:]]


class TestConfigContract:
    def run(self, tmp_path, capsys, text, *flags, preset=None):
        out = tmp_path / "x.csv"
        argv = ["sweep", "--config", write_cfg(tmp_path, text),
                "--out", str(out), *flags]
        if preset:
            argv += ["--preset", preset]
        rc = cli.main(argv)
        return rc, capsys.readouterr().err, out

    def test_unknown_mode_rejected(self, tmp_path, capsys):
        rc, err, out = self.run(tmp_path, capsys,
                                "[scenario]\nmode = singleday\nT = 5\n",
                                preset="fig4")
        assert rc == 1
        assert err == ("config error: [scenario] mode: unknown value "
                       "'singleday'\n")
        assert not out.exists()

    def test_axis_values_sharing_a_cell_key_rejected(self, tmp_path,
                                                    capsys):
        # both cells would print as lambda2=1 and draw from one seed
        rc, err, out = self.run(tmp_path, capsys, MULTIDAY
                                + "[sweep]\nlambda2 = 1.0000001,1.0000002\n")
        assert rc == 1
        assert err == ("config error: [sweep] lambda2: 1.0000001 and "
                       "1.0000002 share a cell key\n")
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [("scenario", "q_sty"),
                                              ("run", "repz")])
    def test_unread_key_rejected(self, tmp_path, capsys, section, key):
        text = MULTIDAY.replace(f"[{section}]\n", f"[{section}]\n{key} = 3\n")
        rc, err, out = self.run(tmp_path, capsys, text)
        assert rc == 1
        assert err.startswith(f"config error: [{section}] {key}: ")
        assert not out.exists()

    def test_key_of_another_mode_rejected(self, tmp_path, capsys):
        rc, err, _ = self.run(tmp_path, capsys,
                              MULTIDAY.replace("reps = 2", "sims = 10"))
        assert rc == 1
        assert err.startswith("config error: [run] sims: ")

    @pytest.mark.parametrize("axis", ["bogus", "B"])
    def test_axis_the_mode_does_not_read_rejected(self, tmp_path, capsys,
                                                  axis):
        rc, err, out = self.run(tmp_path, capsys,
                                MULTIDAY + f"[sweep]\n{axis} = 1,2\n")
        assert rc == 1
        assert err.startswith(f"config error: [sweep] {axis}: ")
        assert not out.exists()

    def test_reward_axis_is_honoured(self, tmp_path, capsys):
        # the reward=5 cell must price the day at reward 5, like a run
        # whose [scenario] says so (same cell key, so the same seeds)
        rc, _, swept = self.run(tmp_path, capsys,
                                MULTIDAY + "[sweep]\nreward = 1,5\n")
        assert rc == 0
        rows = {r["reward"]: r for r in data_rows(swept)}
        fixed = tmp_path / "fixed"
        fixed.mkdir()
        rc, _, single = self.run(fixed, capsys, MULTIDAY.replace(
            "q_stay = 0.3", "q_stay = 0.3\nreward = 5")
            + "[sweep]\nreward = 5\n")
        assert rc == 0
        (row,) = data_rows(single)
        assert rows["5"] == row
        assert rows["1"]["mean_cumulative_regret"] != row[
            "mean_cumulative_regret"]

    @pytest.mark.parametrize("text", ["0:1e12:1", "0:inf:1", "0:1:1e-300"])
    def test_oversized_axis_range_rejected(self, tmp_path, capsys, text):
        # sized before it is built: the first would not fit in memory
        rc, err, out = self.run(tmp_path, capsys,
                                MULTIDAY + f"[sweep]\nv = {text}\n")
        assert rc == 1
        assert err == (f"config error: [sweep] v: axis range {text!r} has "
                       "more than 10000 points\n")
        assert not out.exists()

    @pytest.mark.parametrize("text", ["0:1", "0:1:0.5:2", "inf:inf:1",
                                      "0:1:inf"])
    def test_malformed_axis_range_rejected(self, tmp_path, capsys, text):
        # two or four parts, or a start or step that is not finite
        rc, err, out = self.run(tmp_path, capsys,
                                MULTIDAY + f"[sweep]\nv = {text}\n")
        assert rc == 1
        assert err == (f"config error: [sweep] v: bad axis range {text!r}\n")
        assert not out.exists()

    def test_horizon_axis_is_honoured(self, tmp_path, capsys):
        rc, _, out = self.run(tmp_path, capsys, "[sweep]\nT = 10,20\n",
                              "--reps", "1", preset="lower-bound")
        assert rc == 0
        series = data_rows(str(out) + ".series")
        assert [r["T"] for r in series] == ["10"] * 10 + ["20"] * 20
        assert [r["day"] for r in series if r["T"] == "20"][-1] == "20"

    @pytest.mark.parametrize("cfg, flags, field, rule", [
        (MULTIDAY, ["--reps", "0"], "reps", "at least 1"),
        (SINGLEDAY, ["--reps", "0"], "reps", "at least 1"),
        (MULTIDAY.replace("reps = 2", "reps = -1"), [], "reps", "at least 1"),
        (SINGLEDAY.replace("sims = 50", "sims = 0"), [], "sims", "at least 1"),
        # three float64 results a draw: 24 TB of results, never allocated
        (SINGLEDAY.replace("sims = 50", "sims = 1000000000000"), [], "sims",
         "at most 1000000"),
        (MULTIDAY, ["--reps", "1000000000000"], "reps", "at most 1000000"),
        (SINGLEDAY.replace("reps = 1", "reps = 1e12"), [], "reps",
         "at most 1000000"),
        # 10**4 reps of a 10**5-day curve: 8 GB of results, never allocated
        (MULTIDAY.replace("T = 5", "T = 100000"), ["--reps", "10000"], "reps",
         "at most 2684 where one rep of every cell holds 800000 bytes"),
        # four cells of 10**6 draws, three float64 results each: 96 MB a rep
        (SINGLEDAY.replace("sims = 50", "sims = 1000000").replace(
            "reps = 1", "reps = 100"), [], "reps",
         "at most 22 where one rep of every cell holds 96000000 bytes"),
    ], ids=["multiday-flag", "single-day-flag", "multiday-config",
            "single-day-sims", "single-day-sims-past-bound",
            "multiday-reps-flag-past-bound", "single-day-reps-past-bound",
            "multiday-run-past-bound", "single-day-run-past-bound"])
    def test_run_counts_at_least_one(self, tmp_path, capsys, cfg, flags,
                                     field, rule):
        rc, err, out = self.run(tmp_path, capsys, cfg, *flags)
        assert rc == 1
        assert err.startswith(f"config error: [run] {field}: must be {rule}")
        assert not out.exists()

    def test_overflowing_threshold_prints_no_warning(self, tmp_path,
                                                     capsys):
        # iota = 1e200 overflows the Stage-I threshold to inf, which never
        # fits: the run is right and must not print numpy's warning
        out = tmp_path / "x.csv"
        cfg = write_cfg(tmp_path, "[scenario]\nT = 40\nkeep_p0 = 0.5\n"
                        "[policies]\np = adaptive iota=1e200 alpha=0.4\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["simulate", "--preset", "lower-bound", "--config",
                           cfg, "--out", str(out), "--reps", "1"])
        assert rc == 0
        assert capsys.readouterr().err == ""
        assert out.exists()

    def test_threshold_overflow_at_no_bookings_prints_no_warning(
            self, tmp_path, capsys):
        # iota = 1e308 overflows 2 iota: the threshold at no bookings is
        # nan, so the capacity estimate is 0 and the run accepts nothing; it
        # ends neither in an OverflowError nor with a warning
        out = tmp_path / "x.csv"
        cfg = write_cfg(tmp_path, "[scenario]\nT = 40\nkeep_p0 = 0.5\n"
                        "[policies]\np = adaptive iota=1e308 alpha=0.4\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["simulate", "--preset", "lower-bound", "--config",
                           cfg, "--out", str(out), "--reps", "1"])
        assert rc == 0
        assert capsys.readouterr().err == ""
        assert out.exists()

    def test_real_arrival_shapes_run(self, tmp_path, capsys):
        # only rng.beta reads the arrival shapes, which need not be whole
        rc, err, out = self.run(tmp_path, capsys,
                                "[scenario]\narrival_beta_a = 2.5\n"
                                "[sweep]\nv = 0.5\n[run]\nreps = 1\n"
                                "sims = 20\n", preset="fig3")
        assert (rc, err) == (0, "")
        assert out.exists()

    def test_counts_at_their_bounds_parse(self):
        # the bounds are inclusive; only the parse runs here
        cfg = cli.load_config("fig4", None)
        _, sc = cli.build_scenario(cfg, (("T", 1e5), ("C", 1e6)))
        assert (sc.T, sc.C) == (100_000, 1_000_000)


    @pytest.mark.parametrize("text, preset, key", [
        (MULTIDAY.replace("T = 5", "T = 0"), None, "T"),
        (MULTIDAY.replace("T = 5", "T = 2.5"), None, "T"),
        (MULTIDAY.replace("C = 20", "C = 100.9"), None, "C"),
        (MULTIDAY.replace("q_stay = 0.3", "duration = constant\nd = 2.5"),
         None, "d"),
        (SINGLEDAY.replace("B = 30,40", "B = -1,40"), None, "B"),
        ("[scenario]\nreward = -2\noverbook_penalty = -1\n", "fig4",
         "reward"),
        ("[scenario]\noverbook_penalty = -1\n", "fig4", "overbook_penalty"),
        ("[scenario]\nreward = inf\n", "lower-bound", "reward"),
        ("[scenario]\noverbook_penalty = inf\n", "lower-bound",
         "overbook_penalty"),
        ("[sweep]\nv = 1.5\n[scenario]\nreward = -1\n", "fig3", "v"),
        ("[scenario]\nreward = -1\n", "fig3", "reward"),
        (MULTIDAY.replace("q1 = 0.5", "q1 = 1.5"), None, "q1"),
        (MULTIDAY.replace("lambda2 = 5", "lambda2 = -1"), None, "lambda2"),
        (MULTIDAY.replace("q_stay = 0.3", "q_stay = 1.2"), None, "q_stay"),
        (MULTIDAY.replace("q_stay = 0.3", "q_stay = 0.3\narrival_beta_a = 0"),
         None, "arrival_beta_a"),
        # rng.beta(inf, b) draws nan times
        ("[scenario]\nT = 2\nwalkin_beta_a = inf\n", "fig4", "walkin_beta_a"),
        # the walk-in tail mass is a binomial sum over whole shapes
        ("[scenario]\nT = 2\nwalkin_beta_a = 2.5\n", "fig4",
         "walkin_beta_a"),
        ("[scenario]\nT = 2\nwalkin_beta_b = 0\n", "fig4", "walkin_beta_b"),
        ("[scenario]\nT = 2\nwalkin_beta_a = 1e9\n", "fig4",
         "walkin_beta_a"),
        (MULTIDAY.replace("keep_p0 = 0.5", "keep_p0 = 1.5"), None, "keep_p0"),
        ("[scenario]\nlambda2 = inf\n", "fig4", "lambda2"),
        ("[scenario]\nlambda1 = 1e300\n", "fig4", "lambda1"),
        ("[scenario]\nT = 2\nlambda1 = 1e15\n", "fig4", "lambda1"),
        ("[scenario]\nT = 2\nlambda2 = 1e9\n", "fig4", "lambda2"),
        (SINGLEDAY.replace("B = 30,40", "B = 30,1e12"), None, "B"),
        # ledger slots and day losses for each of 10^12 days, and a warm
        # start of 10^12 guests: rejected before either is allocated
        ("[scenario]\nT = 1e12\n", "lower-bound", "T"),
        ("[scenario]\nT = 2\nC = 1e12\n", "fig4", "C"),
        (MULTIDAY.replace("q_stay = 0.3", "duration = weekly"), None,
         "duration"),
        # a stay longer than the longest horizon
        (MULTIDAY.replace("q_stay = 0.3", "duration = constant\nd = 1e9"),
         None, "d"),
    ], ids=["T-zero", "T-fraction", "C-fraction", "d-fraction",
            "single-day-B-negative", "fig4-costs", "fig4-penalty",
            "reward-infinite", "penalty-infinite", "fig3-v",
            "fig3-reward", "q1-above-one", "lambda2-negative",
            "q_stay-above-one", "beta-shape-zero", "beta-shape-infinite",
            "walkin-shape-fraction", "walkin-shape-zero",
            "walkin-shape-past-bound",
            "keep_p0-above-one",
            "lambda2-infinite", "lambda1-past-poisson-limit",
            "lambda1-past-day-bound", "lambda2-past-day-bound",
            "single-day-B-past-day-bound", "T-past-bound", "C-past-bound",
            "duration-unknown", "d-past-bound"])
    def test_invalid_scenario_value_names_the_key(self, tmp_path, capsys,
                                                  text, preset, key):
        rc, err, out = self.run(tmp_path, capsys, text, preset=preset)
        assert rc == 1
        assert err.startswith(f"config error: [scenario] {key}: ")
        assert not out.exists()


class TestCheckSweeps:
    def test_fig2_without_iota_names_the_cause(self, capsys):
        assert cli.main(["check", "--preset", "fig2"]) == 1
        assert capsys.readouterr().err == (
            "config error: [check] iota: no adaptive policy or iota given\n")

    @pytest.mark.parametrize("iota", ["-1", "nan", "inf"])
    def test_invalid_iota_names_the_key(self, tmp_path, capsys, iota):
        # the rule AdaptivePolicy enforces: finite and nonnegative
        over = write_cfg(tmp_path, f"[check]\niota = {iota}\n")
        assert cli.main(["check", "--preset", "fig2", "--config", over]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("config error: [check] iota: must be finite "
                                f"and nonnegative, got {float(iota):g}\n")
        assert captured.out == ""

    def test_unread_check_key_rejected(self, tmp_path, capsys):
        # a typo would otherwise give verdicts at the policy's iota
        over = write_cfg(tmp_path, "[check]\niotaa = 3\n")
        assert cli.main(["check", "--preset", "fig4", "--config", over]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "config error: [check] iotaa: not read in mode 'multiday'\n")
        assert captured.out == ""

    def test_fig2_verdict_per_swept_lambda2(self, tmp_path, capsys):
        over = write_cfg(tmp_path, "[check]\niota = 2\n")
        assert cli.main(["check", "--preset", "fig2", "--config", over]) == 0
        out = capsys.readouterr().out
        walkin = [ln for ln in out.splitlines()
                  if ln.startswith("walk-in condition:")]
        assert len(walkin) == 11  # lambda2 = 0, 5, ..., 50
        assert "walk-in condition: fails (lambda2=50," in out
        # an oracle makes no confirmation call
        assert [ln for ln in out.splitlines() if "call-timing" in ln] == [
            "call-timing condition: not applicable (no adaptive policy)"]

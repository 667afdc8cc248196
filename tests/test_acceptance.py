"""End-to-end acceptance checks: golden values, oracle agreement, preset
experiment behavior, concentration, linear-regret instance, invariants,
and calibration closure."""

import dataclasses
import hashlib
import importlib.util
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as R
from reference import engine_days, sampled_days, substream
import roomflow.calibration as calib
import roomflow.cli as cli
import roomflow.engine as E
from roomflow.benchmarks import offline_day_optimum
from roomflow.flows import (DurationLaw, KeepCurve, RateFunction,
                            StageProfiles, sample_batches)
from roomflow.policies import (departure_floor, estimated_capacity,
                               stage1_threshold)


def load_checks():
    """perfbench/checks.py, which holds the closed forms and imports nothing
    of roomflow, loaded by path so that each closed form has one copy."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up here
    spec.loader.exec_module(module)
    return module


checks = load_checks()


def reference_profiles(lam1=300.0, lam2=30.0, q1=0.4, q_stay=0.3, p0=0.5):
    return StageProfiles(
        stage1_rate=RateFunction.constant(lam1, 0.0, 1.0),
        keep_curve=KeepCurve.linear(p0, 0.0, 1.0),
        show_prob=q1,
        arrival_density=RateFunction.beta_shaped(1.0, 6, 6),
        walkin_rate=RateFunction.beta_shaped(lam2, 6, 6),
        duration_law=DurationLaw("geometric", q_stay=q_stay),
    )


def preset_rows(tmp_path_factory, preset):
    out = str(tmp_path_factory.mktemp(preset) / "out.csv")
    assert cli.main(["sweep", "--preset", preset, "--out", out]) == 0
    with open(out) as fh:
        lines = fh.readlines()
    argmin = next((ln for ln in lines if ln.startswith("# argmin")), None)
    header = next(ln for ln in lines if not ln.startswith("#")).strip()
    rows = [ln.strip().split(",") for ln in lines
            if not ln.startswith("#") and ln.strip() != header]
    return argmin, header.split(","), rows, out


@pytest.fixture(scope="module")
def fig2_result(tmp_path_factory):
    return preset_rows(tmp_path_factory, "fig2")


@pytest.fixture(scope="module")
def fig3_result(tmp_path_factory):
    return preset_rows(tmp_path_factory, "fig3")


@pytest.fixture(scope="module")
def fig4_result(tmp_path_factory):
    return preset_rows(tmp_path_factory, "fig4")


@pytest.fixture(scope="module")
def lower_bound_result(tmp_path_factory):
    return preset_rows(tmp_path_factory, "lower-bound")


def fingerprint(path):
    """SHA-256 of a result file without its `# generated` timestamp line."""
    with open(path, "rb") as fh:
        return hashlib.sha256(b"".join(
            ln for ln in fh if not ln.startswith(b"# generated"))).hexdigest()


class TestPresetFingerprints:
    # the shipped presets' outputs at shipped size; a change to any of them
    # must be deliberate and re-pin these
    EXPECTED = {
        "fig2": ("4cf03d5ac329fe114b4de12c9b088e7f"
                 "9cd51265eb4dfd6d868708885ffe4bc1"),
        "fig3": ("ac214255a9d43c88c3db942f3280c4ce"
                 "0415baecc2867372dbba84d75913c88f"),
        "fig4": ("625e966f87b76862e681d834e0a3e3f9"
                 "e08e06f8efabeb03a0c98158fc3f49d6"),
        "fig4.series": ("b88cc7b2aa0a078648a615c73695088d"
                        "9858d9450ef842f97ace9aa427e8e172"),
        "lower-bound": ("b3f9d6ccd0ce9ace15353eb1a954a7fe"
                        "a85f415555be302431d4404d0deb0ebe"),
        "lower-bound.series": ("a6bbafaf0022cf9bf6d9301f5e6461d5"
                               "3b3e62db194eb57bc61f8c102086be38"),
    }

    def test_shipped_outputs_are_pinned(self, fig2_result, fig3_result,
                                        fig4_result, lower_bound_result):
        outs = {"fig2": fig2_result[3], "fig3": fig3_result[3],
                "fig4": fig4_result[3], "lower-bound": lower_bound_result[3]}
        got = {}
        for name, out in outs.items():
            got[name] = fingerprint(out)
            if name in ("fig4", "lower-bound"):
                got[name + ".series"] = fingerprint(out + ".series")
        assert got == self.EXPECTED


class TestFormulaGoldenValues:
    def test_threshold_reference_point(self):
        assert stage1_threshold(100, 0.5, 2.0) == pytest.approx(
            60.3389, abs=1e-4)
        # frozen to full precision from an independent evaluation:
        # 50 + 1/3 + sqrt(1/9 + 100)
        assert stage1_threshold(100, 0.5, 2.0) == pytest.approx(
            50.0 + 1.0 / 3.0 + np.sqrt(1.0 / 9.0 + 100.0), abs=1e-9)

    def test_capacity_reference_point(self):
        law = DurationLaw("geometric", q_stay=0.3)
        hat_C = estimated_capacity(law, 100, 0.4, 2.0)
        assert hat_C == pytest.approx(122.7, abs=0.05)
        assert abs(stage1_threshold(hat_C, 0.4, 2.0)
                   - departure_floor(law, 100, 2.0)) < 1e-9

    def test_zero_confidence_trivial_cases(self):
        assert stage1_threshold(40, 0.25, 0.0) == 10.0
        assert stage1_threshold(40, 1.0, 3.0) == 40.0
        law = DurationLaw("geometric", q_stay=0.3)
        assert estimated_capacity(law, 100, 0.4, 0.0) == pytest.approx(
            0.7 * 100 / 0.4, abs=1e-6)
        assert estimated_capacity(law, 100, 1.0, 0.0) == pytest.approx(
            70.0, abs=1e-6)


class TestOfflineOracleEquivalence:
    def test_matches_enumeration_on_random_instances(self):
        rng = substream(2024, 11)
        for _ in range(1200):
            C = int(rng.integers(1, 9))
            finals = int(rng.integers(0, 11))
            W = int(rng.integers(0, 13))
            r = float(rng.integers(1, 4))
            ell = float(rng.integers(1, 4))
            served, walkins, overbooked = offline_day_optimum(finals, W, C)
            assert (ell * overbooked + r * (C - served - walkins)
                    == R.brute_force_day_optimal(finals, W, C, r, ell))


class TestImmediateCallIdentity:
    def test_event_replay_equals_offline_on_random_days(self):
        # with the call at the day start the adaptive policy reproduces the
        # offline optimum on every draw, not just in expectation
        pol = E.AdaptivePolicy(0.0, 0.4)
        base = reference_profiles()
        rng = substream(2024, 13)
        for _ in range(10_000):
            q1 = float(rng.uniform(0.1, 0.9))
            C = int(rng.integers(1, 9))
            B = int(rng.integers(0, 13))
            arrival = rng.random(B)
            shows = rng.random(B) < q1
            walkins = np.sort(rng.random(int(rng.integers(0, 10))))
            served, served_wk, overbooked = E.replay_stage2(
                pol, arrival, shows, walkins,
                R.pre_call_mass(base, walkins, 0.0), float(C), C, q1)
            ref = offline_day_optimum(int(shows.sum()), len(walkins), C)
            assert len(served) == ref[0]
            assert len(served_wk) == ref[1]
            assert overbooked == ref[2]


class TestBookingWalkinSweep:
    def test_minimizing_cell_brackets_reference_scale(self, fig2_result):
        argmin, _, _, _ = fig2_result
        m = re.search(r"B=(\d+);lambda2=(\d+)", argmin)
        assert m, argmin
        B_star, lam2_star = int(m.group(1)), int(m.group(2))
        # C=200, q1=0.5: both gaps should sit near 2 sqrt(C) ~ 28
        assert 10 <= 200 / 0.5 - B_star <= 60
        assert 15 <= lam2_star <= 45


class TestCallTimingSweep:
    def test_regret_nondecreasing_and_early_call_cheap(self, fig3_result):
        _, header, rows, _ = fig3_result
        iv = header.index("v")
        im, ise = header.index("mean_regret"), header.index("regret_stderr")
        pts = sorted((float(r[iv]), float(r[im]), float(r[ise]))
                     for r in rows)
        for (v0, m0, s0), (v1, m1, s1) in zip(pts, pts[1:]):
            assert m1 >= m0 - 2.0 * np.hypot(s0, s1), (v0, v1)
        late = dict((v, m) for v, m, _ in pts)[1.0]
        for v, m, _ in pts:
            if v <= 0.4:
                assert m <= 0.25 * late


class TestClosedForms:
    # the shipped outputs against exact values, within perfbench's 5
    # standard errors: over master seeds 1-100 the largest |z| was 2.9
    # (lower-bound) and 2.0 (fig3), so 5 fails by chance almost never

    def test_lower_bound_daily_regret(self, lower_bound_result):
        cfg = cli.load_config("lower-bound", None)
        iota = cli.parse_policies(cfg)["adaptive"].iota
        header, rows = checks.read_result(lower_bound_result[3] + ".series")
        _, curves = checks.series_by_curve(header, rows)
        cum = [float(r["mean_cumulative_regret"])
               for r in curves[("adaptive",)]]
        check = checks.check_daily_rate(
            cum, checks.lower_bound_daily_regret(iota))
        assert check.ok, check.detail

    def test_fig3_immediate_call_loss(self, fig3_result):
        # at v = 0 the adaptive rule decides with full information, so its
        # mean loss is the exact single-day loss mean
        cfg = cli.load_config("fig3", None)
        _, (B, sc) = cli.build_scenario(cfg)
        mean, sd = checks.single_day_loss_moments(
            B, sc.profiles.show_prob, sc.C, sc.profiles.walkin_rate.mass,
            sc.reward, sc.overbook_penalty)
        _, rows = checks.read_result(fig3_result[3])
        (v0,) = [r for r in rows if float(r["v"]) == 0.0]
        n = cfg.getint("run", "reps") * cfg.getint("run", "sims")
        check = checks.check_mean_loss(v0, mean, sd, n)
        assert check.ok, check.detail


class TestMultiDayComparison:
    def test_adaptive_dominates_heuristics(self, fig4_result):
        _, header, rows, _ = fig4_result
        iv, ip = header.index("v"), header.index("policy")
        im = header.index("mean_cumulative_regret")
        ise = header.index("stderr")
        for v in ("0", "0.5", "0.7", "1"):
            cells = [r for r in rows if r[iv] == v]
            ada = next(r for r in cells if r[ip] == "adaptive")
            for r in cells:
                if r[ip] == "adaptive":
                    continue
                assert (float(ada[im])
                        < float(r[im]) - float(r[ise])), (v, r[ip])

    def test_early_call_regret_nearly_flat(self, fig4_result):
        _, _, _, out = fig4_result
        series = {}
        with open(out + ".series") as fh:
            header = None
            for ln in fh:
                if ln.startswith("#"):
                    continue
                if header is None:
                    header = ln.strip().split(",")
                    continue
                row = dict(zip(header, ln.strip().split(",")))
                if row["v"] == "0" and row["policy"] == "adaptive":
                    series[int(row["day"])] = float(
                        row["mean_cumulative_regret"])
        assert series[1000] <= 3.0 * series[200], (series[200], series[1000])


class TestStageOneConcentration:
    def test_acceptance_rarely_exceeds_capacity_estimate(self):
        prof = reference_profiles()
        pol = E.AdaptivePolicy(4.0, 0.4)
        hat_C = estimated_capacity(prof.duration_law, 100, 0.4, 4.0)
        sc = E.ScenarioConfig(T=1, C=100, v=0.0, reward=1.0,
                              overbook_penalty=1.0, profiles=prof)
        exceed = days = 0
        for batch in sample_batches(
                prof, R.day_streams(2024, 7, range(10_000), (1, 2)), 10_000,
                1):
            mask, = E.batch_survivors(batch, [pol], sc)
            survivors = np.diff(np.concatenate(([0], mask.cumsum()))[
                batch.starts])  # per day
            exceed += int((survivors > hat_C).sum())
            days += len(survivors)
        assert days == 10_000
        assert exceed / 10_000 <= 0.1


@pytest.fixture(scope="module")
def linear_instance_curves():
    """Cumulative-regret curve of each policy on the linear instance."""
    _, sc = cli.build_scenario(cli.load_config("lower-bound", None),
                               (("lambda2", math.sqrt(1.0)), ("T", 10_000)))
    sc = dataclasses.replace(sc, seed=3)
    policies = {"adaptive": E.AdaptivePolicy(1.0, 0.4),
                "h-0.2": E.HeuristicPolicy(-0.2),
                "h0": E.HeuristicPolicy(0.0),
                "h0.2": E.HeuristicPolicy(0.2)}
    return {name: np.cumsum(pol - ben) for name, (pol, _, ben)
            in E.run_experiment(sc, policies).items()}


class TestLinearRegretInstance:

    def test_every_policy_pays_linear_regret(self, linear_instance_curves):
        for name, cum in linear_instance_curves.items():
            assert cum[-1] / len(cum) >= 0.01, name

    def test_cumulative_regret_is_linear(self, linear_instance_curves):
        for name, cum in linear_instance_curves.items():
            days = np.arange(1.0, len(cum) + 1.0)
            slope, icpt = np.polyfit(days, cum, 1)
            resid = cum - (slope * days + icpt)
            assert 1.0 - resid.var() / cum.var() >= 0.95, name
            assert slope > 0.0


class TestInvariantSuite:
    def random_scenario(self, rng, T=30):
        prof = reference_profiles(
            lam1=float(rng.uniform(100, 400)),
            lam2=float(rng.uniform(5, 60)),
            q1=float(rng.uniform(0.2, 0.9)),
            q_stay=float(rng.uniform(0.0, 0.7)),
            p0=float(rng.uniform(0.2, 1.0)))
        return E.ScenarioConfig(
            T=T, C=int(rng.integers(20, 150)),
            v=float(rng.uniform(0.0, 1.0)),
            reward=float(rng.integers(1, 4)),
            overbook_penalty=float(rng.integers(1, 4)),
            profiles=prof, seed=int(rng.integers(0, 2 ** 31)))

    def test_capacity_safety_and_accounting_identity(self):
        rng = substream(2024, 17)
        pol = E.AdaptivePolicy(2.0, 0.4)
        for _ in range(8):
            sc = self.random_scenario(rng)
            led = R.counting_warm_start(sc, substream(sc.seed, 0, 0, 0))
            committed = []
            for k, loss, _ in engine_days(sc, pol, led):
                # daily conservation: idle + occupied = C, priced at r; the
                # rest of the loss is a whole number of overbooked guests
                idle = sc.C - led.occupied(k)
                assert 0 <= led.occupied(k) <= sc.C
                overbooked = (loss - sc.reward * idle) / sc.overbook_penalty
                assert overbooked >= 0 and overbooked.is_integer()
                committed.append(led.occupied(k))
            assert led.room_nights == sum(committed)

    def test_survival_law_three_sigma(self):
        # empirical window survival per request-time bin vs the keep value
        prof = reference_profiles(p0=0.4)
        days = [d.bookings for d in sampled_days(prof, 9, range(300))]
        times = np.concatenate([d.time for d in days])
        survived = np.isnan(np.concatenate([d.cancel_time for d in days]))
        for lo in np.arange(0.0, 1.0, 0.25):
            sel = (times >= lo) & (times < lo + 0.25)
            n = int(sel.sum())
            p = float(prof.keep_curve.value(lo + 0.125))
            assert abs(survived[sel].mean() - p) <= 3.0 * np.sqrt(
                p * (1.0 - p) / n) + 0.01

    def test_shows_conditionally_binomial_three_sigma(self):
        # given the surviving count, shows are Binomial(B, q1)
        prof = reference_profiles(q1=0.35)
        total_B, total_shows = 0, 0
        for day in sampled_days(prof, 10, range(400)):
            recs = day.bookings
            survives = np.isnan(recs.cancel_time)
            total_B += int(survives.sum())
            total_shows += int((recs.shows & survives).sum())
        expect = 0.35 * total_B
        sigma = np.sqrt(total_B * 0.35 * 0.65)
        assert abs(total_shows - expect) <= 3.0 * sigma

    def test_determinism_under_fixed_seed(self):
        rng = substream(2024, 19)
        sc = self.random_scenario(rng, T=15)
        pol = E.AdaptivePolicy(2.0, 0.4)

        def run():
            led = E.warm_start_ledger(sc, substream(sc.seed, 0, 0, 0))
            return [loss for _, loss, _ in engine_days(sc, pol, led)]

        assert run() == run()


class TestCalibrationClosure:
    def test_gamma_within_five_percent(self):
        x = substream(30, 1).gamma(2.0, 30.0, 10_000)
        k, s = calib.fit_gamma(x)
        assert k == pytest.approx(2.0, rel=0.05)
        assert s == pytest.approx(30.0, rel=0.05)

    def test_weibull_within_five_percent(self):
        x = 20.0 * substream(30, 2).weibull(1.5, 10_000)
        k, s = calib.fit_weibull(x)
        assert k == pytest.approx(1.5, rel=0.05)
        assert s == pytest.approx(20.0, rel=0.05)

    def test_geometric_within_one_percent_absolute(self):
        d = substream(30, 3).geometric(0.7, 100_000)
        assert calib.fit_geometric(d) == pytest.approx(0.3, abs=0.01)

    def test_mixture_rates_and_weights(self):
        rng = substream(30, 4)
        counts = np.concatenate([rng.poisson(3.0, 5000),
                                 rng.poisson(15.0, 5000)])
        (w0, r0), (w1, r1) = calib.fit_poisson_mixture(counts, 2,
                                                       n_restarts=10)
        assert r0 == pytest.approx(3.0, rel=0.10)
        assert r1 == pytest.approx(15.0, rel=0.10)
        assert w0 == pytest.approx(0.5, abs=0.05)
        assert w1 == pytest.approx(0.5, abs=0.05)

    def test_extra_component_never_hurts_likelihood(self):
        # the EM loop asserts per-iteration monotonicity internally
        rng = substream(30, 5)
        counts = np.concatenate([rng.poisson(2.0, 400),
                                 rng.poisson(12.0, 400)])
        two = calib.fit_poisson_mixture(counts, 2, n_restarts=10)
        one = calib.fit_poisson_mixture(counts, 1)
        assert (calib.poisson_mixture_loglik(counts, two)
                >= calib.poisson_mixture_loglik(counts, one))

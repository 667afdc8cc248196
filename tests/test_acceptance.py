"""End-to-end acceptance checks: golden values, oracle agreement, preset
experiment behavior, concentration, linear-regret instance, invariants,
calibration closure, and the fitted-scenario policy comparison."""

import re

import numpy as np
import pytest

import roomflow.calibration as calib
import roomflow.cli as cli
import roomflow.engine as E
from roomflow.benchmarks import (DayDemandSnapshot, brute_force_day_optimal,
                                 lower_bound_instance,
                                 single_day_offline_optimal)
from roomflow.flows import (DurationLaw, KeepCurve, RateFunction,
                            StageProfiles, attach_stage2_outcomes,
                            sample_stage1_day, substream)
from roomflow.policies import (EconomicParams, estimated_capacity,
                               stage1_threshold)


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
    argmin = next(ln for ln in lines if ln.startswith("# argmin"))
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
        from roomflow.policies import _capacity_lhs, departure_floor
        assert abs(_capacity_lhs(hat_C, 0.4, 2.0)
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
            snap = DayDemandSnapshot(
                finals=finals,
                final_show_times=tuple(np.sort(rng.random(finals))),
                walkin_times=tuple(np.sort(rng.random(W))),
                C_tilde=C, reward=float(rng.integers(1, 4)),
                overbook_penalty=float(rng.integers(1, 4)))
            assert (single_day_offline_optimal(snap).day_loss
                    == brute_force_day_optimal(snap))


class TestImmediateCallIdentity:
    def test_event_replay_equals_offline_on_random_days(self):
        # with the call at the day start the adaptive policy reproduces the
        # offline optimum on every draw, not just in expectation
        rate = RateFunction.constant(10.0, 0.0, 1.0)
        rng = substream(2024, 13)
        for _ in range(10_000):
            q1 = float(rng.uniform(0.1, 0.9))
            C = int(rng.integers(1, 9))
            B = int(rng.integers(0, 13))
            arrival = rng.random(B)
            shows = rng.random(B) < q1
            walkins = np.sort(rng.random(int(rng.integers(0, 10))))
            res = E.replay_stage2(arrival, shows, walkins, float(C), C, 0.0,
                                  q1, 0.4, rate, "adaptive")
            ref = E.oracle_stage2(arrival, shows, len(walkins), C)
            assert len(res.served_type1) == len(ref.served_type1)
            assert len(res.served_walkins) == len(ref.served_walkins)
            assert res.overbooked == ref.overbooked


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
        exceed = 0
        for day in range(10_000):
            recs = sample_stage1_day(prof, day, substream(2024, 7, day, 1))
            accepted = E.stage1_accept(pol, recs, prof, 100)
            survivors = int(recs.survives[accepted].sum())
            exceed += survivors > hat_C
        assert exceed / 10_000 <= 0.1


@pytest.fixture(scope="module")
def linear_instance_reports():
    sc = lower_bound_instance(1.0, T=10_000, seed=3)
    policies = {"adaptive": E.AdaptivePolicy(1.0, 0.4),
                "h-0.2": E.HeuristicPolicy(-0.2),
                "h0": E.HeuristicPolicy(0.0),
                "h0.2": E.HeuristicPolicy(0.2)}
    return E.run_experiment(sc, policies)


class TestLinearRegretInstance:

    def test_every_policy_pays_linear_regret(self, linear_instance_reports):
        for name, rpt in linear_instance_reports.items():
            cum = rpt.cumulative_regret
            assert cum[-1] / len(cum) >= 0.01, name

    def test_cumulative_regret_is_linear(self, linear_instance_reports):
        for name, rpt in linear_instance_reports.items():
            cum = rpt.cumulative_regret
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
            T=T, C=int(rng.integers(20, 150)), k0=1,
            v=float(rng.uniform(0.0, 1.0)),
            reward=float(rng.integers(1, 4)),
            overbook_penalty=float(rng.integers(1, 4)),
            profiles=prof, seed=int(rng.integers(0, 2 ** 31)))

    def test_capacity_safety_and_accounting_identity(self):
        rng = substream(2024, 17)
        pol = E.AdaptivePolicy(2.0, 0.4)
        for _ in range(8):
            sc = self.random_scenario(rng)
            led = E.warm_start_ledger(sc, substream(sc.seed, 0, 0, 0))
            committed = []
            for k in range(1, sc.T + 1):
                out = E.run_day(k, E.realize_day(sc, 0, k), pol, pol, led, sc)
                # daily conservation: idle + occupied = C, priced at r
                assert led.occupied(k) + out.idle == sc.C
                assert led.occupied(k) <= sc.C
                assert out.day_loss == pytest.approx(
                    sc.overbook_penalty * out.overbooked
                    + sc.reward * out.idle)
                committed.append(led.occupied(k))
            assert led.total_room_nights == sum(committed)

    def test_survival_law_three_sigma(self):
        # empirical window survival per request-time bin vs the keep value
        prof = reference_profiles(p0=0.4)
        days = [sample_stage1_day(prof, day, substream(9, 0, day, 1))
                for day in range(300)]
        times = np.concatenate([d.time for d in days])
        survived = np.concatenate([d.survives for d in days])
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
        for day in range(400):
            recs = sample_stage1_day(prof, day, substream(10, 0, day, 1))
            attach_stage2_outcomes(recs, prof, substream(10, 0, day, 2))
            total_B += int(recs.survives.sum())
            total_shows += int((recs.shows & recs.survives).sum())
        expect = 0.35 * total_B
        sigma = np.sqrt(total_B * 0.35 * 0.65)
        assert abs(total_shows - expect) <= 3.0 * sigma

    def test_determinism_under_fixed_seed(self):
        rng = substream(2024, 19)
        sc = self.random_scenario(rng, T=15)
        pol = E.AdaptivePolicy(2.0, 0.4)
        a = E.run_horizon(sc, pol, pol)
        b = E.run_horizon(sc, pol, pol)
        assert [o.day_loss for o in a] == [o.day_loss for o in b]


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


class TestFittedScenarioComparison:
    def test_adaptive_beats_heuristics_on_refit_scenario(self):
        model = calib.FittedModel(
            lead_gamma=(2.0, 3.0), cancel_weibull=(1.5, 4.0),
            duration_geometric=0.3,
            walkin_mixture=((0.5, 70.0), (0.5, 140.0)),
            capacity=70, cancel_prob=0.35, mean_daily_bookings=180.0)
        econ = EconomicParams(reward=1.0, overbook_penalty=1.0, capacity=70,
                              confirmation_time=0.7, k0=14, T=200)
        rows = calib.simulate_booking_records(model, 300, seed=11)
        fit = calib.fit_model(rows, 70, seed=1)
        sc, _ = calib.scenario_from_fit(fit, econ, iota=2.0, alpha=0.4)
        policies = {"dass": E.AdaptivePolicy(2.0, 0.4)}
        for b in (-0.2, -0.1, 0.0, 0.1, 0.2):
            policies[f"h{b:g}"] = E.HeuristicPolicy(beta=b)
        reports = E.run_experiment(sc, policies, rep=0)
        dass = reports["dass"].policy_loss.sum()
        for name, rpt in reports.items():
            if name != "dass":
                assert dass < rpt.policy_loss.sum(), name

"""Sampling laws: frozen oracle values, statistical checks, determinism."""

import numpy as np
import pytest
from scipy import stats

import roomflow.engine as E
from roomflow.flows import (
    DurationLaw,
    KeepCurve,
    RateFunction,
    StageProfiles,
    attach_stage2_outcomes,
    sample_nhpp,
    sample_stage1_day,
    sample_stage2_day,
    substream,
)


def simple_profiles(q1=0.5, keep=None, lam1=30.0, lam2=30.0,
                    law=DurationLaw("constant", d=1)):
    return StageProfiles(
        stage1_rate=RateFunction.constant(lam1, 0.0, 1.0),
        keep_curve=keep or KeepCurve.always(0.0, 1.0),
        show_prob=q1,
        arrival_density=RateFunction.constant(1.0, 0.0, 1.0),
        walkin_rate=RateFunction.constant(lam2, 0.0, 1.0),
        duration_law=law,
    )


class TestRateFunction:
    def test_zero_mass_returns_empty(self):
        rate = RateFunction.constant(0.0, 0.0, 1.0)
        assert len(sample_nhpp(rate, substream(0))) == 0

    def test_constant_mass_law(self):
        # empirical mean count over many draws matches the total mass
        rate = RateFunction.constant(30.0, 0.0, 1.0)
        rng = substream(1)
        counts = rng.poisson(rate.mass, 200_000)
        assert abs(counts.mean() - 30.0) < 0.1
        # one full sample path stays inside the domain and is sorted
        times = sample_nhpp(rate, rng)
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 0.0 and times.max() <= 1.0

    def test_beta_density_symmetry(self):
        rate = RateFunction.beta_shaped(30.0, 6, 6)
        rng = substream(2)
        t = rate.sample_times(500_000, rng)
        assert abs(t.mean() - 0.5) < 0.002

    def test_mass_between(self):
        rate = RateFunction.piecewise([((0.0, 0.5), 10.0), ((0.5, 1.0), 20.0)])
        assert rate.mass == pytest.approx(15.0)
        assert rate.mass_between(0.25, 0.75) == pytest.approx(2.5 + 5.0)
        beta = RateFunction.beta_shaped(30.0, 6, 6)
        assert beta.mass_after(0.5) == pytest.approx(15.0)
        assert beta.mass_after(0.0) == pytest.approx(30.0)

    def test_nhpp_subinterval_counts_poisson(self):
        # chi-square goodness of fit at significance 0.001 on 1e5 samples
        rate = RateFunction.beta_shaped(5.0, 2, 3)
        rng = substream(3)
        sub_mass = rate.mass_between(0.2, 0.6)
        counts = []
        for _ in range(2000):
            times = sample_nhpp(rate, rng)
            counts.append(int(np.sum((times >= 0.2) & (times < 0.6))))
        counts = np.asarray(counts)
        kmax = counts.max()
        observed = np.bincount(counts, minlength=kmax + 1)
        expected = stats.poisson.pmf(np.arange(kmax + 1), sub_mass) * len(counts)
        # pool the tail so expected cell counts stay above 5
        keep = expected >= 5
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        chi2 = float(((obs - exp) ** 2 / exp).sum())
        assert chi2 < stats.chi2.ppf(0.999, len(obs) - 1)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            RateFunction.constant(-1.0)
        with pytest.raises(ValueError):
            RateFunction.piecewise([((0.0, 0.5), 1.0), ((0.6, 1.0), 1.0)])
        with pytest.raises(ValueError):
            RateFunction.beta_shaped(1.0, 0, 6)


class TestKeepCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            KeepCurve([0.0, 1.0], [0.5, 0.5])  # does not end at 1
        with pytest.raises(ValueError):
            KeepCurve([0.0, 1.0], [0.9, 0.8])  # decreasing

    def test_constant_curve_cancels_at_window_end(self):
        curve = KeepCurve.constant(0.5, 0.0, 1.0)
        s = np.full(50, 0.3)
        tau = curve.cancel_times(s, curve.value(s), substream(4))
        assert tau == pytest.approx(np.ones(50))

    def test_linear_curve_survival_law(self):
        # p(t) = t on [0, 1], booked at s=0.25:
        # P(uncancelled at 0.5) = p(s)/p(0.5) = 0.5
        curve = KeepCurve.linear(0.0, 0.0, 1.0)
        rng = substream(5)
        n = 100_000
        s = np.full(n, 0.25)
        p = curve.value(s)
        survives = rng.random(n) < p  # survives the whole window
        tau = curve.cancel_times(s[~survives], p[~survives], rng)
        alive = survives.sum() + (tau > 0.5).sum()
        assert abs(alive / n - 0.5) < 0.01


class TestDurationLaw:
    def test_constant(self):
        law = DurationLaw("constant", d=1)
        assert law.sample(substream(6)) == 1
        assert law.delta == 1.0

    def test_geometric_immediate(self):
        law = DurationLaw("geometric", q_stay=0.0)
        assert np.all(law.sample(substream(7), 1000) == 1)

    def test_geometric_mean(self):
        law = DurationLaw("geometric", q_stay=0.3)
        d = law.sample(substream(8), 1_000_000)
        assert abs(d.mean() - 1 / 0.7) < 0.005
        assert law.delta == pytest.approx(0.7)

    def test_invalid(self):
        with pytest.raises(ValueError):
            DurationLaw("geometric", q_stay=1.0)
        with pytest.raises(ValueError):
            DurationLaw("constant", d=0)


class TestStage1Day:
    def test_no_cancellation(self):
        profiles = simple_profiles(keep=KeepCurve.always(0.0, 1.0))
        day = sample_stage1_day(profiles, 1, substream(9))
        assert len(day) > 0
        assert day.survives.all() and np.isnan(day.cancel_time).all()

    def test_constant_half_survival(self):
        profiles = simple_profiles(keep=KeepCurve.constant(0.5, 0.0, 1.0),
                                   lam1=100.0)
        rng = substream(10)
        total = survived = 0
        while total < 100_000:
            day = sample_stage1_day(profiles, 1, rng)
            total += len(day)
            survived += int(day.survives.sum())
        assert abs(survived / total - 0.5) < 0.005

    def test_records_sorted_and_consistent(self):
        profiles = simple_profiles(keep=KeepCurve.linear(0.2, 0.0, 1.0))
        day = sample_stage1_day(profiles, 1, substream(11))
        times = day.time.tolist()
        assert times == sorted(times)
        gone = ~day.survives
        assert gone.any()
        assert np.all(day.cancel_time[gone] >= day.time[gone])

    def test_survival_fraction_matches_curve_midwindow(self):
        # among bookings alive at t, the fraction ultimately surviving is p(t)
        curve = KeepCurve.linear(0.2, 0.0, 1.0)
        profiles = simple_profiles(keep=curve, lam1=50.0)
        rng = substream(12)
        t = 0.6
        alive = surv = 0
        for _ in range(2000):
            day = sample_stage1_day(profiles, 1, rng)
            # nan cancel times (survivors) compare False
            live = (day.time <= t) & (day.survives | (day.cancel_time > t))
            alive += int(live.sum())
            surv += int((live & day.survives).sum())
        p_hat = surv / alive
        sigma = np.sqrt(curve.value(t) * (1 - curve.value(t)) / alive)
        assert abs(p_hat - curve.value(t)) < 3 * sigma + 1e-9


class TestStage2Day:
    def test_empty(self):
        profiles = simple_profiles(lam2=0.0)
        t1, wk = sample_stage2_day(profiles, 0, 1, substream(13))
        assert len(t1) == 0 and len(wk) == 0

    def test_show_count_mean(self):
        profiles = simple_profiles(q1=0.5)
        rng = substream(14)
        shows = [int(sample_stage2_day(profiles, 360, 1, rng)[0].shows.sum())
                 for _ in range(10_000)]
        assert abs(np.mean(shows) - 180.0) < 1.0

    def test_beta_arrival_means(self):
        profiles = StageProfiles(
            stage1_rate=RateFunction.constant(30.0, 0.0, 1.0),
            keep_curve=KeepCurve.always(0.0, 1.0),
            show_prob=0.5,
            arrival_density=RateFunction.beta_shaped(1.0, 6, 6),
            walkin_rate=RateFunction.beta_shaped(30.0, 6, 6),
            duration_law=DurationLaw("constant", d=1),
        )
        rng = substream(15)
        t1_times, wk_times = [], []
        for _ in range(2000):
            t1, wk = sample_stage2_day(profiles, 30, 1, rng)
            t1_times += t1.time.tolist()
            wk_times += wk.time.tolist()
        assert abs(np.mean(t1_times) - 0.5) < 0.005
        assert abs(np.mean(wk_times) - 0.5) < 0.005

    def test_lists_sorted(self):
        profiles = simple_profiles()
        t1, wk = sample_stage2_day(profiles, 50, 1, substream(16))
        assert t1.time.tolist() == sorted(t1.time.tolist())
        assert wk.time.tolist() == sorted(wk.time.tolist())

    def test_conditional_binomial_after_u(self):
        # conditioning on the counts determined by time u, the post-u shows
        # are Binomial(B - determined, q1) in mean and variance
        q1 = 0.4
        profiles = simple_profiles(q1=q1)
        rng = substream(17)
        u, B = 0.5, 80
        post_shows, remaining = [], []
        for _ in range(20_000):
            t1, _ = sample_stage2_day(profiles, B, 1, rng)
            rem = t1.time > u
            remaining.append(int(rem.sum()))
            post_shows.append(int(t1.shows[rem].sum()))
        post_shows = np.asarray(post_shows, dtype=float)
        remaining = np.asarray(remaining, dtype=float)
        n = len(post_shows)
        mean_expected = q1 * remaining.mean()
        sd_mean = np.sqrt(np.var(post_shows) / n)
        assert abs(post_shows.mean() - mean_expected) < 3 * sd_mean
        # variance check: shows - q1*remaining has variance q1(1-q1)E[rem]
        resid = post_shows - q1 * remaining
        var_expected = q1 * (1 - q1) * remaining.mean()
        sd_var = np.sqrt(2.0 / n) * var_expected  # rough normal-theory scale
        assert abs(resid.var() - var_expected) < 4 * sd_var


def scenario_for(profiles, seed):
    return E.ScenarioConfig(T=5, C=10, k0=1, v=0.0, reward=1.0,
                            overbook_penalty=1.0, profiles=profiles,
                            seed=seed)


def day_arrays(day):
    b, w = day.bookings, day.walkins
    return [b.time, b.keep, b.survives, b.cancel_time, b.duration,
            b.arrival_time, b.shows, w.time, w.duration]


class TestDeterminism:
    def test_identical_seeds_identical_streams(self):
        profiles = simple_profiles(keep=KeepCurve.linear(0.3, 0.0, 1.0),
                                   law=DurationLaw("geometric", q_stay=0.3))
        d1 = E.realize_day(scenario_for(profiles, 42), 0, 3)
        d2 = E.realize_day(scenario_for(profiles, 42), 0, 3)
        for a, b in zip(day_arrays(d1), day_arrays(d2)):
            np.testing.assert_array_equal(a, b)

    def test_different_paths_differ(self):
        profiles = simple_profiles()
        sc = scenario_for(profiles, 42)
        d1 = E.realize_day(sc, 0, 3)
        d2 = E.realize_day(sc, 1, 3)
        assert d1.bookings.time.tolist() != d2.bookings.time.tolist()


class TestRecords:
    def test_booking_record_invariants(self):
        # cancel_time is present (not nan) iff the booking cancels, and
        # never before its request
        profiles = simple_profiles(keep=KeepCurve.linear(0.2, 0.0, 1.0),
                                   lam1=200.0)
        day = sample_stage1_day(profiles, 1, substream(20))
        np.testing.assert_array_equal(np.isnan(day.cancel_time),
                                      day.survives)
        gone = ~day.survives
        assert np.all(day.cancel_time[gone] >= day.time[gone])

    def test_walkins_always_show(self):
        # walk-ins carry no show flag, and with rooms to spare a zero
        # standard serves every one of them
        profiles = simple_profiles(lam2=30.0)
        t1, wk = sample_stage2_day(profiles, 0, 1, substream(21))
        assert wk.shows is None and len(wk) > 0
        res = E.replay_stage2(t1.time, t1.shows, wk.time, 1000.0, 1000,
                              0.0, 0.5, 0.0, profiles.walkin_rate,
                              "heuristic", standard=0.0)
        assert list(res.served_walkins) == list(range(len(wk)))

    def test_attach_outcomes_covers_all_bookings(self):
        profiles = simple_profiles(keep=KeepCurve.constant(0.5, 0.0, 1.0))
        day = sample_stage1_day(profiles, 1, substream(18))
        attach_stage2_outcomes(day, profiles, substream(19))
        assert len(day.arrival_time) == len(day.shows) == len(day) > 0
        assert day.shows.dtype == bool

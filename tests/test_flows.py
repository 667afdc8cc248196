"""Sampling laws: frozen oracle values, statistical checks, determinism."""

import numpy as np
import pytest
from scipy import stats

import roomflow.engine as E
import roomflow.flows as F
from roomflow.flows import (
    DurationLaw,
    KeepCurve,
    RateFunction,
    StageProfiles,
    reserved_outcomes,
    sample_batches,
    sample_blocks,
    sample_walkins,
)
from reference import day_streams, pre_call_mass, sampled_days, substream


def sample_nhpp(rate, rng):
    """Sorted event times of a non-homogeneous Poisson process."""
    return np.sort(rate.times(F._draw_nhpp(rate, rng)[1]))


def simple_profiles(q1=0.5, keep=None, lam1=30.0, lam2=30.0,
                    law=DurationLaw("constant", d=1)):
    return StageProfiles(
        stage1_rate=RateFunction.constant(lam1, 0.0, 1.0),
        keep_curve=keep or KeepCurve.linear(1.0, 0.0, 1.0),
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
        t = rate.times(rate.draw(500_000, rng))
        assert abs(t.mean() - 0.5) < 0.002

    def test_mass_between(self):
        rate = RateFunction.constant(15.0, 0.0, 1.0)
        assert rate.mass == pytest.approx(15.0)
        assert rate.mass_after(0.25) - rate.mass_after(0.75) == (
            pytest.approx(7.5))
        beta = RateFunction.beta_shaped(30.0, 6, 6)
        assert beta.mass_after(0.5) == pytest.approx(15.0)
        assert beta.mass_after(0.0) == pytest.approx(30.0)

    def test_nhpp_subinterval_counts_poisson(self):
        # chi-square goodness of fit at significance 0.001 on 1e5 samples
        rate = RateFunction.beta_shaped(5.0, 2, 3)
        rng = substream(3)
        sub_mass = rate.mass_after(0.2) - rate.mass_after(0.6)
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
            RateFunction.constant(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            RateFunction.beta_shaped(1.0, 0, 6)


class TestKeepCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            KeepCurve([0.0, 1.0], [0.5, 0.5])  # does not end at 1
        with pytest.raises(ValueError):
            KeepCurve([0.0, 1.0], [0.9, 0.8])  # decreasing

    def test_constant_curve_cancels_at_window_end(self):
        curve = KeepCurve([0.0, 1.0, 1.0], [0.5, 0.5, 1.0])
        s = np.full(50, 0.3)
        tau = curve.cancel_times(s, curve.value(s), substream(4).random(50))
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
        tau = curve.cancel_times(s[~survives], p[~survives],
                                 rng.random(n - survives.sum()))
        alive = survives.sum() + (tau > 0.5).sum()
        assert abs(alive / n - 0.5) < 0.01


class TestDurationLaw:
    def test_constant(self):
        law = DurationLaw("constant", d=1)
        assert law.sample(substream(6), 1) == 1
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
        profiles = simple_profiles(keep=KeepCurve.linear(1.0, 0.0, 1.0))
        day = next(sampled_days(profiles, 9, [1])).bookings
        assert len(day) > 0
        assert np.isnan(day.cancel_time).all()

    def test_constant_half_survival(self):
        profiles = simple_profiles(
            keep=KeepCurve([0.0, 1.0, 1.0], [0.5, 0.5, 1.0]), lam1=100.0)
        total = survived = 0
        for day in sampled_days(profiles, 10, range(1, 2000)):
            if total >= 100_000:
                break
            day = day.bookings
            total += len(day)
            survived += int(np.isnan(day.cancel_time).sum())
        assert abs(survived / total - 0.5) < 0.005

    def test_records_sorted_and_consistent(self):
        profiles = simple_profiles(keep=KeepCurve.linear(0.2, 0.0, 1.0))
        day = next(sampled_days(profiles, 11, [1])).bookings
        times = day.time.tolist()
        assert times == sorted(times)
        gone = ~np.isnan(day.cancel_time)
        assert gone.any()
        assert np.all(day.cancel_time[gone] >= day.time[gone])

    def test_survival_fraction_matches_curve_midwindow(self):
        # among bookings alive at t, the fraction ultimately surviving is p(t)
        curve = KeepCurve.linear(0.2, 0.0, 1.0)
        profiles = simple_profiles(keep=curve, lam1=50.0)
        t = 0.6
        alive = surv = 0
        for day in sampled_days(profiles, 12, range(1, 2001)):
            day = day.bookings
            # nan cancel times (survivors) compare False
            survives = np.isnan(day.cancel_time)
            live = (day.time <= t) & (survives | (day.cancel_time > t))
            alive += int(live.sum())
            surv += int((live & survives).sum())
        p_hat = surv / alive
        sigma = np.sqrt(curve.value(t) * (1 - curve.value(t)) / alive)
        assert abs(p_hat - curve.value(t)) < 3 * sigma + 1e-9


def stage2_day(profiles, B, rng):
    """One single-day draw in engine.single_day_cell's order: the reserved
    customers' arrival times and show flags, their stay lengths, then the
    walk-ins."""
    arrival, shows = reserved_outcomes(profiles, B, rng)
    profiles.duration_law.sample(rng, B)
    return arrival, shows, sample_walkins(profiles, rng)


class TestStage2Day:
    def test_empty(self):
        profiles = simple_profiles(lam2=0.0)
        arrival, shows, wk = stage2_day(profiles, 0, substream(13))
        assert len(arrival) == len(shows) == 0 and len(wk) == 0

    def test_show_count_mean(self):
        profiles = simple_profiles(q1=0.5)
        rng = substream(14)
        shows = [int(stage2_day(profiles, 360, rng)[1].sum())
                 for _ in range(10_000)]
        assert abs(np.mean(shows) - 180.0) < 1.0

    def test_beta_arrival_means(self):
        profiles = StageProfiles(
            stage1_rate=RateFunction.constant(30.0, 0.0, 1.0),
            keep_curve=KeepCurve.linear(1.0, 0.0, 1.0),
            show_prob=0.5,
            arrival_density=RateFunction.beta_shaped(1.0, 6, 6),
            walkin_rate=RateFunction.beta_shaped(30.0, 6, 6),
            duration_law=DurationLaw("constant", d=1),
        )
        rng = substream(15)
        t1_times, wk_times = [], []
        for _ in range(2000):
            arrival, _, wk = stage2_day(profiles, 30, rng)
            t1_times += arrival.tolist()
            wk_times += wk.tolist()
        assert abs(np.mean(t1_times) - 0.5) < 0.005
        assert abs(np.mean(wk_times) - 0.5) < 0.005

    def test_lists_sorted(self):
        # walk-ins come in time order; reserved customers in draw order,
        # which the Stage-II replay sorts
        profiles = simple_profiles()
        _, _, wk = stage2_day(profiles, 50, substream(16))
        assert wk.tolist() == sorted(wk.tolist())

    def test_conditional_binomial_after_u(self):
        # conditioning on the counts determined by time u, the post-u shows
        # are Binomial(B - determined, q1) in mean and variance
        q1 = 0.4
        profiles = simple_profiles(q1=q1)
        rng = substream(17)
        u, B = 0.5, 80
        post_shows, remaining = [], []
        for _ in range(20_000):
            arrival, shows, _ = stage2_day(profiles, B, rng)
            rem = arrival > u
            remaining.append(int(rem.sum()))
            post_shows.append(int(shows[rem].sum()))
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


def day_arrays(day):
    b = day.bookings
    return [b.time, b.keep, b.cancel_time, b.duration,
            b.arrival_time, b.shows, day.wk_time, day.walkin_stays]


class TestDeterminism:
    def test_identical_seeds_identical_streams(self):
        profiles = simple_profiles(keep=KeepCurve.linear(0.3, 0.0, 1.0),
                                   law=DurationLaw("geometric", q_stay=0.3))
        d1 = next(sampled_days(profiles, 42, [3]))
        d2 = next(sampled_days(profiles, 42, [3]))
        for a, b in zip(day_arrays(d1), day_arrays(d2)):
            np.testing.assert_array_equal(a, b)

    def test_different_paths_differ(self):
        profiles = simple_profiles()
        d1 = next(sampled_days(profiles, 42, [3]))
        d2 = next(sampled_days(profiles, 42, [3], rep=1))
        assert d1.bookings.time.tolist() != d2.bookings.time.tolist()


class TestRecords:
    def test_booking_record_invariants(self):
        # cancel_time is present (not nan) iff the booking cancels, and
        # never before its request
        profiles = simple_profiles(keep=KeepCurve.linear(0.2, 0.0, 1.0),
                                   lam1=200.0)
        day = next(sampled_days(profiles, 20, [1])).bookings
        gone = ~np.isnan(day.cancel_time)
        assert gone.any() and not gone.all()
        assert np.all(day.cancel_time[gone] >= day.time[gone])

    def test_walkins_always_show(self):
        # walk-ins carry no show flag, and with rooms to spare a zero
        # standard serves every one of them
        profiles = simple_profiles(lam2=30.0)
        arrival, shows, wk = stage2_day(profiles, 0, substream(21))
        assert not hasattr(wk, "shows") and len(wk) > 0
        # (no bookings, so the heuristic standard q1 B is zero)
        _, served_wk, _ = E.replay_stage2(
            E.HeuristicPolicy(0.0), arrival, shows, wk,
            pre_call_mass(profiles, wk, 0.0), 1000.0, 1000,
            profiles.show_prob)
        assert served_wk == list(range(len(wk)))

    def test_reserved_outcomes_cover_all_bookings(self):
        # the sampler draws an outcome for every request, admitted or not
        profiles = simple_profiles(
            keep=KeepCurve([0.0, 1.0, 1.0], [0.5, 0.5, 1.0]))
        batch = next(sample_batches(profiles, iter(
            [substream(18), substream(19)]), 1, 1))
        day = next(sample_blocks(profiles, batch, iter(
            [substream(22)]))).bookings
        assert len(day.arrival_time) == len(day.shows) == len(day) > 0
        assert day.shows.dtype == bool

    def test_walkins_count_toward_the_block_budget(self, monkeypatch):
        # a walk-in-heavy, booking-light horizon: a block closes once its
        # requests and walk-ins reach the budget, so before its last day it
        # holds fewer events than the budget, not _BLOCK_DAYS days of them
        monkeypatch.setattr(F, "_BLOCK_EVENTS", 100)
        profiles = simple_profiles(lam1=0.5, lam2=30.0)
        batch, = sample_batches(
            profiles, day_streams(23, 0, range(1, 61), (1, 2)), 60, 1)
        blocks = list(sample_blocks(
            profiles, batch, day_streams(23, 0, range(1, 61), (3,))))
        assert sum(len(b.bookings.starts) - 1 for b in blocks) == 60
        assert len(blocks) > 5
        for block in blocks:
            assert block.bookings.starts[-2] + block.wk_starts[-2] < 100
        for block in blocks[:-1]:
            assert len(block.bookings) + len(block.wk_time) >= 100

"""Property tests of the struct-of-arrays day engine against the plain
record-based reference in `reference.py`, and of the engine invariants, on
small random scenarios."""

import itertools
import math
import re
from fractions import Fraction

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference as R
from reference import (engine_days, max_bookings_within, sampled_days,
                       substream)
import roomflow.engine as E
import roomflow.flows as F
from roomflow.benchmarks import clairvoyant_stage1_select
from roomflow.flows import (
    DurationLaw,
    KeepCurve,
    RateFunction,
    StageProfiles,
    sample_batches,
    streams,
)
from roomflow.policies import (
    AdaptivePolicy,
    HeuristicPolicy,
    OraclePolicy,
    booking_caps,
    estimated_capacity,
    stage1_caps,
)

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
GRID = [0.0, 0.25, 0.5, 0.75, 1.0]


@st.composite
def rates(draw, mass, t1=1.0):
    """A Beta-shaped (whole shapes) or flat rate of the given mass over
    [0, t1]."""
    if draw(st.booleans()):
        return RateFunction.beta_shaped(mass, draw(st.integers(1, 6)),
                                        draw(st.integers(1, 6)), t1)
    return RateFunction.constant(mass / t1, t1)


@st.composite
def keep_curves(draw, k0):
    """The line from p0 at 0 to 1 at k0; p0 = 1 never cancels."""
    p0 = draw(st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 0.95))
    return KeepCurve(p0, k0)


@st.composite
def profiles(draw, k0):
    if draw(st.booleans()):
        law = DurationLaw("geometric", q_stay=draw(st.floats(0.0, 0.8)))
    else:
        law = DurationLaw("constant", d=draw(st.integers(1, 4)))
    return StageProfiles(
        stage1_rate=draw(rates(draw(st.floats(0.0, 40.0)), t1=k0)),
        keep_curve=draw(keep_curves(k0)),
        show_prob=draw(st.floats(0.05, 1.0)),
        arrival_density=draw(rates(1.0)),
        walkin_rate=draw(rates(draw(st.floats(0.0, 15.0)))),
        duration_law=law,
    )


@st.composite
def scenarios(draw):
    k0 = draw(st.sampled_from([1, 2, 3]))
    v = draw(st.sampled_from([-0.5, 0.0]) | st.floats(0.01, 0.99)
             | st.just(1.0))
    return E.ScenarioConfig(
        T=draw(st.integers(1, 6)), C=draw(st.integers(1, 12)), v=v,
        reward=draw(st.sampled_from([1.0, 2.5])),
        overbook_penalty=draw(st.sampled_from([1.0, 0.5])),
        profiles=draw(profiles(k0)), seed=draw(st.integers(0, 2 ** 32)))


# a booking window of k0 = 3 under p0 = 0.26, whose slope 0.74 / 3 is not
# 0.74 * (1 / 3) in floats: the keep values and the inverse must follow
# np.interp's arithmetic
WINDOW_OF_3 = E.ScenarioConfig(
    T=3, C=5, v=0.5, reward=1.0, overbook_penalty=1.0, seed=7,
    profiles=StageProfiles(
        stage1_rate=RateFunction.constant(10.0, 3.0),
        keep_curve=KeepCurve(0.26, 3.0), show_prob=0.5,
        arrival_density=RateFunction.constant(1.0),
        walkin_rate=RateFunction.constant(5.0),
        duration_law=DurationLaw("geometric", q_stay=0.3)))


@st.composite
def policy_sets(draw, scenario):
    prof = scenario.profiles
    iota = draw(st.floats(0.0, 4.0))
    try:
        estimated_capacity(prof.duration_law, scenario.C, prof.show_prob,
                           iota)
    except ValueError:  # departure bound nonpositive: no safety stock
        iota = 0.0
    return {"adaptive": AdaptivePolicy(iota, draw(st.floats(0.05, 0.95))),
            "heuristic": HeuristicPolicy(draw(st.floats(-1.0, 1.0))),
            "oracle": OraclePolicy()}


@st.composite
def cases(draw):
    sc = draw(scenarios())
    return sc, draw(policy_sets(sc))


class TestArrayEngineMatchesReference:
    @SETTINGS
    @given(case=cases())
    def test_policy_hybrid_and_benchmark_losses(self, case):
        sc, policies = case
        expected = R.run_experiment(sc, policies)
        for name, losses in E.run_experiment(sc, policies).items():
            pol, hyb, ben = expected[name]
            assert losses[0].tolist() == pol, name
            assert losses[1].tolist() == hyb, name
            assert losses[2].tolist() == ben, name

    @SETTINGS
    @given(case=cases(), limit=st.sampled_from(["_BLOCK_DAYS",
                                                "_BLOCK_EVENTS",
                                                "_BATCH_CELLS"]))
    def test_block_limits_are_invisible(self, case, limit):
        # batches and blocks of one day, blocks closed at the first event,
        # or batches of one day each give the losses of batches and blocks
        # that span the horizon
        sc, policies = case
        want = E.run_experiment(sc, policies)
        with mock.patch.object(F, limit, 1):
            got = E.run_experiment(sc, policies)
        for name, losses in want.items():
            assert ([x.tolist() for x in got[name]]
                    == [x.tolist() for x in losses]), name

    @SETTINGS
    @given(sc=scenarios())
    @example(sc=WINDOW_OF_3)
    def test_sampling_is_bit_identical_to_scalar_draws(self, sc):
        # vectorized draws against one scalar draw per record, stream by
        # stream
        curve = sc.profiles.keep_curve
        days = sampled_days(sc.profiles, sc.seed, range(1, sc.T + 1))
        for k, day in zip(range(1, sc.T + 1), days):
            bookings, walkins = R.realize_day(sc, 0, k)
            b = day.bookings
            assert b.time.tolist() == [r.request_time for r in bookings]
            assert b.keep.tolist() == [R.keep_value(curve, r.request_time)
                                       for r in bookings]
            assert np.isnan(b.cancel_time).tolist() == [r.survives
                                                        for r in bookings]
            assert [None if math.isnan(c) else c for c in
                    b.cancel_time.tolist()] == [r.cancel_time
                                                for r in bookings]
            assert b.duration.tolist() == [r.duration for r in bookings]
            assert b.arrival_time.tolist() == [r.arrival_time
                                               for r in bookings]
            assert b.shows.tolist() == [r.shows for r in bookings]
            assert day.wk_time.tolist() == [w.arrival_time for w in walkins]
            assert day.walkin_stays == [w.duration for w in walkins]

    @SETTINGS
    @given(sc=scenarios(), seed=st.integers(0, 2 ** 32))
    def test_stage1_stream_ends_where_the_scalar_one_does(self, sc, seed):
        prof = sc.profiles
        fast, slow = substream(seed, 1), substream(seed, 1)
        next(sample_batches(prof, iter([fast, substream(seed, 2)]), 1, 1))
        R.sample_stage1(prof, slow)
        assert fast.random() == slow.random()

    @settings(max_examples=300, deadline=None)
    @given(arrival=st.lists(st.sampled_from(GRID), max_size=12),
           walkins=st.lists(st.sampled_from(GRID), max_size=10),
           data=st.data(), C_rooms=st.integers(0, 10),
           v=st.sampled_from([-0.5] + GRID), q1=st.floats(0.05, 1.0),
           alpha=st.floats(0.05, 0.95), adaptive=st.booleans())
    def test_stage2_replay_with_tied_times(self, arrival, walkins, data,
                                           C_rooms, v, q1, alpha, adaptive):
        # times on a coarse grid, so reserved customers, walk-ins and the
        # call share timestamps; v covers a call before the day (v <= 0),
        # inside it and at its end
        shows = data.draw(st.lists(st.booleans(), min_size=len(arrival),
                                   max_size=len(arrival)))
        walkins = sorted(walkins)
        C_tilde = C_rooms + data.draw(st.sampled_from([0.0, 0.5]))
        policy = (AdaptivePolicy(0.0, alpha) if adaptive
                  else HeuristicPolicy(0.0))
        prof = StageProfiles(
            stage1_rate=RateFunction.constant(1.0),
            keep_curve=KeepCurve(1.0, 1.0), show_prob=q1,
            arrival_density=RateFunction.constant(1.0),
            walkin_rate=RateFunction.beta_shaped(8.0, 2.0, 3.0),
            duration_law=DurationLaw("geometric"))
        walkin_time = np.array(walkins, dtype=float)
        served, served_wk, overbooked = E.replay_stage2(
            policy, np.array(arrival, dtype=float),
            np.array(shows, dtype=bool), walkin_time,
            R.pre_call_mass(prof, walkin_time, v), C_tilde, C_rooms, q1)
        guests = [R.Guest(t, s, 1) for t, s in zip(arrival, shows)]
        wk = [R.Guest(t, True, 1) for t in walkins]
        t1, ref_wk, over = R.replay_stage2(policy, guests, wk, C_tilde,
                                              C_rooms, prof, v)
        assert sorted(served.tolist()) == sorted(
            next(i for i, g in enumerate(guests) if g is r) for r in t1)
        assert served_wk == [
            next(i for i, g in enumerate(wk) if g is r) for r in ref_wk]
        assert overbooked == over

    @settings(max_examples=200, deadline=None)
    @given(hat_C=st.floats(0.0, 300.0), iota=st.floats(0.0, 8.0),
           p=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                      min_size=0, max_size=40))
    def test_booking_caps_match_scalar_closed_form(self, hat_C, iota, p):
        # the vectorized bracket against the reference's scalar bisection
        caps = booking_caps(hat_C, np.asarray(p, dtype=float), iota,
                            np.full(len(p), len(p)))
        assert caps.tolist() == [
            min(max_bookings_within(hat_C, x, iota), len(p)) for x in p]


    @settings(max_examples=300, deadline=None)
    @given(law=st.builds(DurationLaw, st.just("geometric"),
                         q_stay=st.floats(0.0, 0.95))
           | st.builds(DurationLaw, st.just("constant"),
                       d=st.integers(1, 12)),
           C=st.integers(1, 500), q1=st.just(1.0) | st.floats(1e-6, 1.0),
           iota=st.just(0.0) | st.floats(0.0, 8.0))
    @example(law=DurationLaw("geometric", q_stay=0.3), C=100, q1=1.0,
             iota=2.0)
    @example(law=DurationLaw("geometric", q_stay=0.3), C=100, q1=0.4,
             iota=0.0)
    @example(law=DurationLaw("constant", d=10), C=1, q1=0.5,
             iota=1.0)  # departure bound 0.1 < stage1_threshold(0): hat_C 0
    def test_capacity_estimate_matches_bisection(self, law, C, q1, iota):
        try:
            want = R.estimated_capacity_bisection(law, C, q1, iota)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                estimated_capacity(law, C, q1, iota)
            return
        assert abs(estimated_capacity(law, C, q1, iota) - want) <= (
            1e-8 * max(1.0, want))


@st.composite
def checkin_blocks(draw):
    """A hand-built block of 1-5 days whose arrival and walk-in times lie on
    GRID, so reserved customers, walk-ins and the call tie; days may have
    no bookings or no walk-ins. Every booking and walk-in has its own stay
    length, so the stays a trajectory admits name the guests it served.
    Returns (block, kept mask)."""
    days = draw(st.lists(st.tuples(
        st.lists(st.sampled_from(GRID), max_size=8),
        st.lists(st.sampled_from(GRID), max_size=6).map(sorted)),
        min_size=1, max_size=5))
    arrival = [t for a, _ in days for t in a]
    wk_time = [t for _, w in days for t in w]
    n = len(arrival)
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    shows, survives = draw(flags), draw(flags)
    kept = draw(st.sampled_from([[False] * n, [True] * n]) | flags)
    bookings = F.Bookings(
        np.zeros(n), np.ones(n), np.where(survives, np.nan, 0.0),
        np.arange(1, n + 1),
        np.array(arrival, dtype=float), np.array(shows, dtype=bool),
        [0, *itertools.accumulate(len(a) for a, _ in days)])
    block = F.DayBlock(
        bookings, np.array(wk_time, dtype=float),
        list(range(1001, 1001 + len(wk_time))),
        [0, *itertools.accumulate(len(w) for _, w in days)])
    return block, np.array(kept, dtype=bool)


class RecordingLedger:
    """occupied(k) is a drawn base occupancy plus the guests admitted on
    day k, whose stays it records."""

    def __init__(self, base):
        self.base, self.admitted = base, {}

    def occupied(self, k):
        return self.base[k] + len(self.admitted.get(k, []))

    def admit(self, k, stays):
        self.admitted.setdefault(k, []).extend(stays)


class TestBlockCheckinsMatchReference:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=checkin_blocks(), data=st.data(),
           v=st.sampled_from([-0.5, 0.0, 0.25, 0.5, 0.6, 1.0]),
           q1=st.floats(0.05, 1.0), alpha=st.floats(0.05, 0.95),
           adaptive=st.booleans(),
           law=st.sampled_from([DurationLaw("geometric"),
                                DurationLaw("constant", d=2)]))
    def test_every_trajectory_matches_the_record_replay(
            self, case, data, v, q1, alpha, adaptive, law):
        # the block path (block_checkins, run_day, run_oracle_day) against
        # the reference's one-event-at-a-time replay of each day
        block, kept = case
        C = data.draw(st.integers(1, 8))
        n_days = len(block.bookings.starts) - 1
        base = {k: data.draw(st.integers(0, C)) for k in range(1, n_days + 1)}
        sc = E.ScenarioConfig(
            T=n_days, C=C, v=v, reward=1.0, overbook_penalty=2.0,
            profiles=StageProfiles(
                stage1_rate=RateFunction.constant(1.0),
                keep_curve=KeepCurve(1.0, 1.0), show_prob=q1,
                arrival_density=RateFunction.constant(1.0),
                walkin_rate=RateFunction.beta_shaped(8.0, 2.0, 3.0),
                duration_law=law))
        policy = (AdaptivePolicy(0.0, alpha) if adaptive
                  else HeuristicPolicy(0.0))
        (day, stays), = E.block_checkins(block, [kept], sc.profiles, v)
        candidates, cut = clairvoyant_stage1_select(
            np.isnan(block.bookings.cancel_time), block.bookings.shows,
            block.bookings.starts)
        selected = block.bookings.duration[candidates].tolist()
        ledgers = [RecordingLedger(base) for _ in range(3)]
        b = block.bookings
        for d in range(n_days):
            k = d + 1
            o, e = b.starts[d:d + 2]
            w, x = block.wk_starts[d:d + 2]
            guests = [R.Guest(float(b.arrival_time[i]), bool(b.shows[i]),
                              int(b.duration[i])) for i in range(o, e)]
            walkins = [R.Guest(float(block.wk_time[j]), True,
                               block.walkin_stays[j]) for j in range(w, x)]
            survivors = [g for g, i in zip(guests, range(o, e)) if kept[i]]
            benchmark = [g for g, i in zip(guests, range(o, e))
                         if np.isnan(b.cancel_time[i]) and b.shows[i]]
            C_tilde, C_rooms = E.allocated_capacity(sc, ledgers[0], k)
            want = [
                R.replay_stage2(policy, survivors, walkins, C_tilde, C_rooms,
                                sc.profiles, v),
                R.oracle_stage2(survivors, walkins, C_rooms),
                R.oracle_stage2(benchmark[:C_rooms], walkins, C_rooms)]
            got = [
                E.run_day(k, block, d, day, stays, policy, ledgers[0], sc),
                E.run_oracle_day(k, block, d, day.shows, stays, ledgers[1],
                                 sc),
                E.run_oracle_day(k, block, d, cut, selected, ledgers[2], sc,
                                 select=True)]
            for loss, ledger, (t1, wk, over) in zip(got, ledgers, want):
                served = sorted(g.duration for g in t1 + wk)
                assert sorted(ledger.admitted.get(k, [])) == served
                assert loss == 2.0 * over + (C - base[k] - len(served))


@st.composite
def stage1_batches(draw):
    """A hand-built batch of 1-5 days of booking requests, times on GRID
    and sorted within each day, so requests tie with each other and with
    cancellations; keep values in [0, 1]; each request cancels at a GRID
    lag after it or survives (nan). Days may have no requests."""
    days = draw(st.lists(st.lists(st.sampled_from(GRID), max_size=10)
                         .map(sorted), min_size=1, max_size=5))
    time = np.array([t for day in days for t in day], dtype=float)
    n = len(time)
    keep = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                         min_size=n, max_size=n))
    lags = draw(st.lists(st.none() | st.sampled_from(GRID), min_size=n,
                         max_size=n))
    cancel = [math.nan if lag is None else t + lag
              for t, lag in zip(time.tolist(), lags)]
    return F.Bookings(time, np.array(keep), np.array(cancel),
                      np.ones(n, dtype=int), np.zeros(n),
                      np.ones(n, dtype=bool),
                      [0, *itertools.accumulate(map(len, days))])


class TestBatchSurvivors:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(batch=stage1_batches(), C=st.integers(1, 12),
           iota=st.floats(0.0, 1.0), q1=st.floats(0.05, 1.0),
           betas=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
           law=st.sampled_from([DurationLaw("geometric"),
                                DurationLaw("constant", d=2)]))
    def test_policies_together_equal_each_alone(self, batch, C, iota, q1,
                                                betas, law):
        # one call builds the slots, day sizes and survival mask for every
        # policy: no policy's replay may change what the next one reads, and
        # each mask is the record replay's, one day at a time
        sc = E.ScenarioConfig(
            T=len(batch.starts) - 1, C=C, v=0.5, reward=1.0,
            overbook_penalty=1.0, profiles=StageProfiles(
                stage1_rate=RateFunction.constant(1.0),
                keep_curve=KeepCurve(1.0, 1.0), show_prob=q1,
                arrival_density=RateFunction.constant(1.0),
                walkin_rate=RateFunction.constant(1.0),
                duration_law=law))
        policies = [AdaptivePolicy(iota, 0.4),
                    *(HeuristicPolicy(b) for b in betas)]
        together = E.batch_survivors(batch, policies, sc)
        assert len(together) == len(policies)
        b, starts = batch, batch.starts
        survives = np.isnan(b.cancel_time)
        sizes = np.diff(starts)
        for policy, mask in zip(policies, together):
            alone, = E.batch_survivors(batch, [policy], sc)
            assert mask.dtype == bool and np.array_equal(mask, alone)
            # the record replay, day by day, of the surviving acceptances
            caps = stage1_caps(policy, b.keep, np.repeat(sizes, sizes),
                               sc.profiles, C)
            want = np.zeros(len(b.time), dtype=bool)
            for o, e in itertools.pairwise(starts):
                want[[o + i for i in R.accepted_positions(
                    b.time[o:e].tolist(), b.cancel_time[o:e].tolist(),
                    caps[o:e])]] = True
            assert np.array_equal(mask, want & survives)

    @SETTINGS
    @given(case=cases(), keep=st.lists(st.floats(0.0, 1.0), max_size=20))
    def test_no_cap_is_a_fraction_below_zero(self, case, keep):
        # batch_survivors floors each cap and stores it as int32, which
        # truncates toward zero; the two differ only on a fraction below
        # zero, which no Stage-I rule gives: a cap is a whole number or
        # nonnegative
        sc, policies = case
        keep = np.array(keep)
        for name in ("adaptive", "heuristic"):
            caps = stage1_caps(policies[name], keep, np.full(len(keep), 7),
                               sc.profiles, sc.C)
            assert ((caps >= 0.0) | (caps == np.floor(caps))).all(), name


class TestEngineInvariants:
    @SETTINGS
    @given(case=cases())
    def test_capacity_accounting_and_room_nights(self, case):
        sc, policies = case
        for policy in (policies["adaptive"], policies["heuristic"]):
            led = R.counting_warm_start(sc, substream(sc.seed, 0, 0, 0))
            occupied = []
            for k, loss, _ in engine_days(sc, policy, led):
                # capacity safety: the ledger raises CapacityError before
                # any day exceeds C
                assert 0 <= led.occupied(k) <= sc.C
                idle = sc.C - led.occupied(k)
                # loss accounting identity: what idle rooms do not explain
                # is a whole number of overbooked guests
                overbooked = (loss - sc.reward * idle) / sc.overbook_penalty
                assert overbooked >= 0 and overbooked.is_integer()
                occupied.append(led.occupied(k))
            # room-night conservation: nights admitted inside the horizon
            # equal the nights the daily occupancies add up to
            assert led.room_nights == sum(occupied)

    @SETTINGS
    @given(case=cases())
    def test_regret_splits_into_stage_components(self, case):
        sc, policies = case
        for name, (pol, hyb, ben) in E.run_experiment(sc, policies).items():
            # Stage-I component hyb - ben, Stage-II component pol - hyb
            assert np.allclose((hyb - ben) + (pol - hyb), pol - ben), name
            if name == "oracle":
                assert np.all(pol - ben == 0.0)

    @SETTINGS
    @given(prof=profiles(1), B=st.integers(0, 30), C=st.integers(1, 20),
           v=st.floats(0.0, 1.0), alpha=st.floats(0.05, 0.95),
           seed=st.integers(0, 2 ** 32))
    def test_single_day_oracle_never_above_policy(self, prof, B, C, v, alpha,
                                                  seed):
        sc = E.ScenarioConfig(T=1, C=C, v=v, reward=1.0,
                              overbook_penalty=1.0, profiles=prof)
        for policy in (AdaptivePolicy(0.0, alpha), HeuristicPolicy(0.0)):
            pol, ora, _ = E.single_day_cell(sc, B, policy, 5, seed)
            assert np.all(ora <= pol)


# stream path entries: one zero word, one word, two words (such as a day
# number of 2**32 and above) and up to five words
WORDS = (st.just(0) | st.integers(0, 2 ** 32 - 1)
         | st.integers(2 ** 32, 2 ** 64 - 1) | st.integers(0, 2 ** 128))
MASTERS = st.just(0) | st.integers(0, 2 ** 32 - 1) | st.integers(0, 2 ** 128)
# a block of same-length one-word tails, as the engine seeds a replication
TAIL_BLOCKS = st.integers(0, 5).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(0, 2 ** 32 - 1)] * n), min_size=1, max_size=12))
# tails of any length and word count, but not one length of one-word entries
OTHER_TAIL_BLOCKS = st.lists(
    st.lists(WORDS, max_size=6).map(tuple), min_size=1, max_size=12).filter(
    lambda tails: len(set(map(len, tails))) > 1
    or any(x > 2 ** 32 - 1 for tail in tails for x in tail))


def engine_draws(rng, n1, n2):
    """One of each kind of draw the engine and calibration make."""
    return (rng.poisson(30.0), rng.random(3).tolist(),
            rng.binomial(n1, 0.4), rng.binomial(n2, 0.4),
            rng.geometric(0.7, 3).tolist(), rng.beta(6.0, 6.0, 3).tolist(),
            rng.choice(4, 3, p=[0.1, 0.2, 0.3, 0.4]).tolist(),
            rng.integers(0, 1000, 3).tolist())


class TestStreams:
    @settings(max_examples=300, deadline=None)
    @given(master=MASTERS, tails=TAIL_BLOCKS, data=st.data())
    def test_each_stream_is_numpys_seed_sequence(self, master, tails, data):
        # any change to numpy's SeedSequence or PCG64 seeding fails here
        n = 0
        for tail, rng in zip(tails, streams(master, tails)):
            fresh = substream(master, *tail)
            assert rng.bit_generator.state == fresh.bit_generator.state, tail
            # each path's Generator is fresh and keeps nothing of the
            # previous stream: binomial's cached setup and the buffered
            # 32-bit half-word
            n1, n2 = (data.draw(st.integers(0, 500)) for _ in range(2))
            assert engine_draws(rng, n1, n2) == engine_draws(fresh, n1, n2)
            n += 1
        assert n == len(tails)

    @settings(max_examples=200, deadline=None)
    @given(master=MASTERS, tails=OTHER_TAIL_BLOCKS)
    def test_other_tails_rejected(self, master, tails):
        with pytest.raises(ValueError):
            next(streams(master, tails))

    def test_blocks_of_mixed_word_counts(self):
        # more tails than one internal block hash bit for bit; a block with
        # a two-word day is rejected, not hashed
        master = 2 ** 64 - 1
        tails = [(rep, k, sub) for rep in (0, 1) for k in range(700)
                 for sub in (1, 2)]
        states = [rng.bit_generator.state
                  for rng in streams(master, tails)]
        assert states == [substream(master, *t).bit_generator.state
                          for t in tails]
        for day in (2 ** 32, 2 ** 40):
            with pytest.raises(ValueError):
                list(streams(master, [*tails, (0, day, 1)]))

    def test_later_block_of_another_length_rejected(self):
        # the 1025th tail opens a second hashing block: it must keep the
        # first block's length too
        with pytest.raises(ValueError):
            list(streams(0, [(1, 2, 3)] * 1024 + [(1, 2)]))
        assert len(list(streams(0, [(1, 2, 3)] * 1025))) == 1025

    def test_negative_entry_rejected(self):
        for master, tail in ((-1, (0,)), (3, (0, -2))):
            with pytest.raises(ValueError):
                next(streams(master, [tail]))


@st.composite
def any_rates(draw):
    """A Beta-shaped (whole shapes) or flat rate over a domain [0, t1],
    from the narrowest float width to 4; rates may be zero."""
    t1 = draw(st.sampled_from([0.5, 1.0, 3.0])
              | st.floats(0.0, 4.0, exclude_min=True))
    if draw(st.booleans()):
        return RateFunction.beta_shaped(
            draw(st.floats(0.0, 50.0)), draw(st.integers(1, 8)),
            draw(st.integers(1, 8)), t1)
    return RateFunction.constant(draw(st.floats(0.0, 50.0)), t1)


def mass_points(rate):
    """Points u for mass_after: the domain's ends, inside and outside it,
    and +-inf."""
    return (st.sampled_from([0.0, rate.t1])
            | st.floats(0.0, rate.t1) | st.floats(-3.0, 5.0)
            | st.sampled_from([-math.inf, math.inf]))


def beta_ulp_bound(rate):
    """Ulps by which the Beta tail mass may miss the exact binomial sum,
    stated before any test runs. mass_after evaluates it in Horner's form
    (1 - z)^b S, S = sum_{j<a} C(n, j) z^j (1 - z)^(a-1-j), n = a + b - 1,
    by s <- s (1 - z) + C(n, j) z^j, and every operand is positive, so
    relative errors add along each term's path. To first order in
    u = 2**-53: 1 - z rounds once, z^j takes j - 1 roundings (a running
    product) and its product with the binomial (exact below 2**53) one;
    each later step multiplies by the rounded 1 - z and adds, 3 u; so
    S is off by at most 3 (a - 1) u. The b products with 1 - z add 2b u
    and the mass u: (3a + 2b - 2) u = (2n + a) u of the mass, below 2n + a
    of its ulps. One ulp more covers the higher orders and a subnormal
    result."""
    n = rate.a + rate.b - 1
    return 2 * n + rate.a + 1


def ulps_off(got, exact):
    """|got - exact| in ulps of the exact value rounded to a float."""
    return abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact)))


class TestRateMass:
    @settings(max_examples=500, deadline=None)
    @given(rate=any_rates(), data=st.data())
    def test_mass_after_is_the_two_sided_mass_to_the_end(self, rate, data):
        # for a scalar, an empty array and an array: a flat rate bit for bit
        # to the reference's two-sided mass; a Beta rate within its stated
        # ulp bound of the exact binomial sum, and close to the reference's
        # (scipy's betainc), whose 1 - I_z cancels in the far tail
        points = mass_points(rate)
        for u in (data.draw(points), np.empty(0),
                  np.array(data.draw(st.lists(points, max_size=6)))):
            # u = inf makes an infinite fraction of the domain, and a
            # subnormal t1 may too; both are masked
            with np.errstate(all="ignore"):
                got = rate.mass_after(u)
                want = R.mass_between(rate, u, rate.t1)
            assert type(got) is type(want)
            if rate.kind == "flat":
                assert np.asarray(got).tobytes() == np.asarray(
                    want).tobytes()
                continue
            assert np.asarray(got) == pytest.approx(
                want, rel=1e-12, abs=1e-13 * max(rate.mass, 1.0))
            for g, x in zip(np.ravel(got), np.ravel(u)):
                assert ulps_off(g, R.exact_mass_after(rate, x)) <= (
                    beta_ulp_bound(rate))

    @settings(max_examples=200, deadline=None)
    @given(rate=any_rates(), data=st.data())
    def test_one_call_on_a_concatenation_equals_calls_on_its_pieces(
            self, rate, data):
        # a point's mass does not depend on the array it sits in, byte for
        # byte: the single-day cell asks once for many draws' walk-ins
        pieces = data.draw(st.lists(st.lists(mass_points(rate), max_size=6),
                                    max_size=4))
        joined = np.array([u for piece in pieces for u in piece], dtype=float)
        with np.errstate(all="ignore"):
            whole = rate.mass_after(joined)
            parts = [rate.mass_after(np.array(piece, dtype=float))
                     for piece in pieces]
            one_by_one = [rate.mass_after(u) for u in joined.tolist()]
        assert whole.tobytes() == np.concatenate(
            [np.empty(0), *parts]).tobytes()
        assert whole.tobytes() == np.array(one_by_one, dtype=float).tobytes()

    def test_tail_mass_needs_whole_shapes_up_to_the_bound(self):
        # only rng.beta reads other shapes
        for a, b in ((2.5, 3), (2, 0.5), (F.MAX_SHAPE + 1, 1)):
            rate = RateFunction.beta_shaped(1.0, a, b)
            rate.draw(3, np.random.default_rng(0))
            with pytest.raises(ValueError, match="whole shapes"):
                rate.mass_after(0.5)

"""Property tests of the struct-of-arrays day engine against the plain
record-based reference in `reference.py`, and of the engine invariants, on
small random scenarios."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference as R
import roomflow.engine as E
from roomflow.flows import (
    DurationLaw,
    KeepCurve,
    RateFunction,
    StageProfiles,
    sample_stage1_day,
    substream,
)
from roomflow.policies import (
    AdaptivePolicy,
    HeuristicPolicy,
    OraclePolicy,
    booking_caps,
    estimated_capacity,
    max_bookings_within,
)

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
GRID = [0.0, 0.25, 0.5, 0.75, 1.0]


@st.composite
def rates(draw, mass, t1=1.0):
    """A Beta-shaped or two-piece piecewise-constant rate of the given mass
    over [0, t1]."""
    if draw(st.booleans()):
        return RateFunction.beta_shaped(mass, draw(st.floats(0.5, 6.0)),
                                        draw(st.floats(0.5, 6.0)), 0.0, t1)
    share = draw(st.floats(0.0, 1.0))
    mid = t1 / 2
    return RateFunction.piecewise([((0.0, mid), share * mass / mid),
                                   ((mid, t1), (1.0 - share) * mass / mid)])


@st.composite
def keep_curves(draw, k0):
    kind = draw(st.sampled_from(["constant", "linear", "always"]))
    p0 = draw(st.sampled_from([0.0, 0.3]) | st.floats(0.0, 0.95))
    if kind == "constant":
        return KeepCurve.constant(p0, 0.0, k0)
    if kind == "linear":
        return KeepCurve.linear(p0, 0.0, k0)
    return KeepCurve.always(0.0, k0)


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
    k0 = draw(st.sampled_from([1, 2]))
    v = draw(st.sampled_from([-0.5, 0.0]) | st.floats(0.01, 0.99)
             | st.just(1.0))
    return E.ScenarioConfig(
        T=draw(st.integers(1, 6)), C=draw(st.integers(1, 12)), k0=k0, v=v,
        reward=draw(st.sampled_from([1.0, 2.5])),
        overbook_penalty=draw(st.sampled_from([1.0, 0.5])),
        profiles=draw(profiles(k0)), seed=draw(st.integers(0, 2 ** 32)))


@st.composite
def policy_sets(draw, scenario):
    prof = scenario.profiles_for(1)
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
        reports = E.run_experiment(sc, policies)
        expected = R.run_experiment(sc, policies)
        for name, rpt in reports.items():
            pol, hyb, ben = expected[name]
            assert rpt.policy_loss.tolist() == pol, name
            assert rpt.benchmark_loss.tolist() == ben, name
            assert (rpt.benchmark_loss + rpt.stage1_component).tolist() \
                == pytest.approx(hyb, abs=1e-12), name

    @SETTINGS
    @given(sc=scenarios())
    def test_sampling_is_bit_identical_to_scalar_draws(self, sc):
        # vectorized draws against one scalar draw per record, stream by
        # stream; the generators must also end at the same state
        for k in range(1, sc.T + 1):
            day = E.realize_day(sc, 0, k)
            bookings, walkins = R.realize_day(sc, 0, k)
            b = day.bookings
            assert b.time.tolist() == [r.request_time for r in bookings]
            assert b.survives.tolist() == [r.survives for r in bookings]
            assert [None if math.isnan(c) else c for c in
                    b.cancel_time.tolist()] == [r.cancel_time
                                                for r in bookings]
            assert b.duration.tolist() == [r.duration for r in bookings]
            assert b.arrival_time.tolist() == [r.arrival_time
                                               for r in bookings]
            assert b.shows.tolist() == [r.shows for r in bookings]
            assert day.walkins.time.tolist() == [w.arrival_time
                                                 for w in walkins]
            assert day.walkins.duration.tolist() == [w.duration
                                                     for w in walkins]

    @SETTINGS
    @given(sc=scenarios(), seed=st.integers(0, 2 ** 32))
    def test_stage1_stream_ends_where_the_scalar_one_does(self, sc, seed):
        prof = sc.profiles_for(1)
        fast, slow = substream(seed, 1), substream(seed, 1)
        sample_stage1_day(prof, 1, fast)
        R.sample_stage1(prof, slow)
        assert fast.random() == slow.random()

    @settings(max_examples=300, deadline=None)
    @given(arrival=st.lists(st.sampled_from(GRID), max_size=12),
           walkins=st.lists(st.sampled_from(GRID), max_size=10),
           data=st.data(), C_rooms=st.integers(0, 10),
           v=st.sampled_from(GRID), q1=st.floats(0.05, 1.0),
           alpha=st.floats(0.05, 0.95), kind=st.sampled_from(
               ["adaptive", "heuristic"]))
    def test_stage2_replay_with_tied_times(self, arrival, walkins, data,
                                           C_rooms, v, q1, alpha, kind):
        # times on a coarse grid, so reserved customers, walk-ins and the
        # call share timestamps
        shows = data.draw(st.lists(st.booleans(), min_size=len(arrival),
                                   max_size=len(arrival)))
        walkins = sorted(walkins)
        C_tilde = C_rooms + data.draw(st.sampled_from([0.0, 0.5]))
        standard = q1 * len(arrival)
        rate = RateFunction.beta_shaped(8.0, 2.0, 3.0)
        res = E.replay_stage2(np.array(arrival, dtype=float),
                              np.array(shows, dtype=bool),
                              np.array(walkins, dtype=float), C_tilde,
                              C_rooms, v, q1, alpha, rate, kind, standard)
        guests = [R.Guest(t, s, 1) for t, s in zip(arrival, shows)]
        wk = [R.Guest(t, True, 1) for t in walkins]
        t1, served_wk, over = R.replay_stage2(guests, wk, C_tilde, C_rooms,
                                              v, q1, alpha, rate, kind,
                                              standard)
        assert sorted(res.served_type1.tolist()) == sorted(
            next(i for i, g in enumerate(guests) if g is r) for r in t1)
        assert list(res.served_walkins) == [
            next(i for i, g in enumerate(wk) if g is r) for r in served_wk]
        assert res.overbooked == over

    @settings(max_examples=200, deadline=None)
    @given(hat_C=st.floats(0.0, 300.0), iota=st.floats(0.0, 8.0),
           p=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                      min_size=0, max_size=40))
    def test_booking_caps_match_scalar_closed_form(self, hat_C, iota, p):
        # short days take the scalar branch, long ones the vectorized one
        caps = booking_caps(hat_C, np.asarray(p, dtype=float), iota)
        assert caps == [min(max_bookings_within(hat_C, x, iota), len(p))
                        for x in p]


class TestEngineInvariants:
    @SETTINGS
    @given(case=cases())
    def test_capacity_accounting_and_room_nights(self, case):
        sc, policies = case
        for policy in (policies["adaptive"], policies["heuristic"]):
            led = E.warm_start_ledger(sc, substream(sc.seed, 0, 0, 0))
            occupied = []
            for k in range(1, sc.T + 1):
                out = E.run_day(k, E.realize_day(sc, 0, k), policy, policy,
                                led, sc)
                # capacity safety: the ledger raises CapacityError before
                # any day exceeds C
                assert 0 <= led.occupied(k) <= sc.C
                assert out.idle == sc.C - led.occupied(k)
                # loss accounting identity
                assert out.day_loss == (sc.overbook_penalty * out.overbooked
                                        + sc.reward * out.idle)
                occupied.append(led.occupied(k))
            # room-night conservation: nights admitted inside the horizon
            # equal the nights the daily occupancies add up to
            assert led.total_room_nights == sum(occupied)

    @SETTINGS
    @given(case=cases())
    def test_regret_splits_into_stage_components(self, case):
        sc, policies = case
        for name, rpt in E.run_experiment(sc, policies).items():
            assert np.allclose(rpt.stage1_component + rpt.stage2_component,
                               rpt.regret), name
            if name == "oracle":
                assert np.all(rpt.regret == 0.0)

    @SETTINGS
    @given(prof=profiles(1), B=st.integers(0, 30), C=st.integers(1, 20),
           v=st.floats(0.0, 1.0), alpha=st.floats(0.05, 0.95),
           seed=st.integers(0, 2 ** 32))
    def test_single_day_oracle_never_above_policy(self, prof, B, C, v, alpha,
                                                  seed):
        for kind in ("adaptive", "heuristic"):
            pol, ora, _ = E.single_day_cell(B, C, prof, v, alpha, kind, 5,
                                            seed)
            assert np.all(ora <= pol)

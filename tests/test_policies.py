"""Decision-rule formulas: frozen golden values and structural properties."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roomflow.engine import replay_stage2
from roomflow.flows import DurationLaw, KeepCurve, RateFunction, StageProfiles
from roomflow.policies import (
    AdaptivePolicy,
    HeuristicPolicy,
    booking_caps,
    check_busy_season,
    check_call_timing,
    departure_floor,
    estimated_capacity,
    stage1_caps,
    stage1_threshold,
)
from reference import (
    StageTwoState,
    accepted_positions,
    expected_shownups,
    heuristic2_decide_walkin,
    heuristic_stage2_standard,
    max_bookings_within,
    pre_call_mass,
    type1_checkin_decide,
)

GEO = DurationLaw("geometric", q_stay=0.3)  # delta = 0.7


class TestStage1Threshold:
    def test_p_one_is_identity(self):
        for b in (0, 1, 17, 400):
            assert stage1_threshold(b, 1.0, 2.0) == b

    def test_zero_bookings_collapses(self):
        assert stage1_threshold(0, 0.5, 3.0) == pytest.approx(1.0)

    def test_golden_value(self):
        assert stage1_threshold(100, 0.5, 2.0) == pytest.approx(60.3389, abs=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            stage1_threshold(-1, 0.5, 2.0)
        with pytest.raises(ValueError):
            stage1_threshold(1, 1.5, 2.0)

    @given(b=st.integers(0, 1000), p=st.floats(0.01, 0.99),
           iota=st.floats(0.0, 10.0))
    def test_dominates_mean(self, b, p, iota):
        assert stage1_threshold(b, p, iota) >= p * b - 1e-12

    @given(b=st.integers(0, 1000), p=st.floats(0.01, 0.99),
           iota=st.floats(0.01, 10.0))
    def test_strictly_increasing_in_b(self, b, p, iota):
        assert stage1_threshold(b + 1, p, iota) > stage1_threshold(b, p, iota)


class TestMaxBookingsWithin:
    @given(hat_C=st.floats(0.5, 300.0), p=st.floats(0.01, 1.0),
           iota=st.floats(0.0, 8.0))
    @settings(max_examples=200)
    def test_matches_scan_oracle(self, hat_C, p, iota):
        n = max_bookings_within(hat_C, p, iota)
        if n is math.inf:
            assert p == 0.0
            return
        if n == -1:
            assert stage1_threshold(0, p, iota) > hat_C
            return
        assert stage1_threshold(n, p, iota) <= hat_C
        assert stage1_threshold(n + 1, p, iota) > hat_C

    def test_frozen_scan_value(self):
        hat_C = estimated_capacity(GEO, 100, 0.4, 2.0)
        n = max_bookings_within(hat_C, 0.5, 2.0)
        # scan oracle: first B whose threshold exceeds hat_C
        scan = 0
        while stage1_threshold(scan + 1, 0.5, 2.0) <= hat_C:
            scan += 1
        assert n == scan == 215

    def test_underflowing_estimate_returns_promptly(self):
        # the threshold's safety terms underflow: the closed-form estimate
        # is 1e10 where the cap is 6666666666, too far to step by one; run
        # apart so that a hang fails on the timeout
        code = ("import numpy as np\n"
                "from reference import max_bookings_within\n"
                "from roomflow.policies import booking_caps\n"
                "print(max_bookings_within(1e-300, 1e-310, 1e-300))\n"
                "print(booking_caps(1e-300, np.array([1e-310, 0.5]), 1e-300,"
                " np.array([2e10, 2e10])).tolist())\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).parent), *sys.path]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60,
                             check=True).stdout
        assert out == "6666666666\n[6666666666.0, 0.0]\n"


class TestEstimatedCapacity:
    def test_iota_zero_constant(self):
        assert estimated_capacity(DurationLaw("constant", d=2), 100, 0.5, 0.0) \
            == pytest.approx(100.0, abs=1e-8)

    def test_iota_zero_geometric(self):
        assert estimated_capacity(GEO, 100, 0.4, 0.0) == pytest.approx(175.0, abs=1e-7)

    def test_golden_value_and_residual(self):
        hat_C = estimated_capacity(GEO, 100, 0.4, 2.0)
        assert hat_C == pytest.approx(122.7, abs=0.1)
        rhs = departure_floor(GEO, 100, 2.0)
        assert rhs == pytest.approx(60.356, abs=1e-3)
        a = 2.0 * 0.6 / 3.0
        lhs = 0.4 * hat_C + a + math.sqrt(a * a + 2 * 2 * hat_C * 0.4 * 0.6)
        assert abs(lhs - rhs) < 1e-9

    def test_infeasible_signalled(self):
        # huge iota makes the departure bound negative
        with pytest.raises(ValueError):
            estimated_capacity(GEO, 2, 0.4, 50.0)

    @given(C=st.integers(10, 500), q1=st.floats(0.2, 1.0),
           iota=st.floats(0.0, 4.0), q_stay=st.floats(0.0, 0.8))
    @settings(max_examples=100)
    def test_residual_property(self, C, q1, iota, q_stay):
        law = DurationLaw("geometric", q_stay=q_stay)
        try:
            hat_C = estimated_capacity(law, C, q1, iota)
        except ValueError:
            return
        rhs = departure_floor(law, C, iota)
        a = iota * (1 - q1) / 3.0
        lhs = q1 * hat_C + a + math.sqrt(a * a + 2 * iota * hat_C * q1 * (1 - q1))
        if hat_C > 0:
            assert abs(lhs - rhs) < 1e-8


def stage1_accepted(times, curve, hat_C, iota):
    """Accepted positions of never-cancelling requests at `times` under the
    adaptive Stage-I rule (per-request caps from the keep values)."""
    times = np.asarray(times, dtype=float)
    caps = booking_caps(hat_C, curve.value(times), iota,
                        np.full(len(times), len(times)))
    return accepted_positions(times.tolist(), [math.nan] * len(times), caps)


class TestDass1Decide:
    def test_p_one_hard_cap(self):
        # p = 1: the threshold is B itself, so the 50th booking fits a
        # capacity estimate of 50 and the 51st does not
        curve = KeepCurve(1.0, 1.0)
        accepted = stage1_accepted(np.linspace(0.0, 0.9, 51), curve, 50.0,
                                   2.0)
        assert accepted == list(range(50))

    def test_boundary_reject(self):
        hat_C = estimated_capacity(GEO, 100, 0.4, 2.0)
        curve = KeepCurve(0.5, 1.0)  # p = 0.5 at t = 0
        accepted = stage1_accepted(np.zeros(216), curve, hat_C, 2.0)
        assert len(accepted) == 215  # B_t+1 = 215 accepted, 216 rejected

    def test_invariant_after_decisions(self):
        # after any accept, the threshold at the current state stays within hat_C
        hat_C = estimated_capacity(GEO, 100, 0.4, 2.0)
        curve = KeepCurve(0.3, 1.0)
        times = np.arange(0.0, 1.0, 0.01)
        accepted = set(stage1_accepted(times, curve, hat_C, 2.0))
        B_t = 0
        for i, t in enumerate(times):
            B_t += i in accepted
            p = float(curve.value(t))
            assert stage1_threshold(B_t, p, 2.0) <= hat_C + 1e-9


ADAPTIVE = AdaptivePolicy(0.0, 0.4)
HEURISTIC = HeuristicPolicy(0.0)


def day_profiles(q1=0.5, lam2=30.0):
    """A service day's profiles with show probability q1 and a flat walk-in
    rate, lam2 over the day, so the walk-in mass after u is lam2 (1 - u)."""
    return StageProfiles(
        stage1_rate=RateFunction.constant(1.0),
        keep_curve=KeepCurve(1.0, 1.0), show_prob=q1,
        arrival_density=RateFunction.constant(1.0),
        walkin_rate=RateFunction.constant(lam2),
        duration_law=GEO)


def heuristic_cap(policy, C, q1):
    """The heuristic's Stage-I cap, read through stage1_caps for one
    request on `day_profiles(q1)` (GEO stays)."""
    cap, = stage1_caps(policy, np.ones(1), np.ones(1), day_profiles(q1), C)
    return cap


def walkins_served(policy, reserved, walkins, C_tilde, C_rooms=1000, v=0.5,
                   q1=0.5, lam2=30.0):
    """Walk-ins served by engine.replay_stage2 on a constructed day.
    reserved: (arrival time, shows, count) groups of reserved customers;
    walkins: (time, count) groups. With the default C_rooms rooms stay
    free, so only C_tilde binds."""
    counts = [n for *_, n in reserved]
    arrival = np.repeat([float(t) for t, _, _ in reserved], counts)
    shows = np.repeat([s for _, s, _ in reserved], counts).astype(bool)
    times = np.repeat([float(t) for t, _ in walkins], [n for _, n in walkins])
    prof = day_profiles(q1, lam2)
    _, served_wk, _ = replay_stage2(policy, arrival, shows, times,
                                    pre_call_mass(prof, times, v), C_tilde,
                                    C_rooms, prof.show_prob)
    return len(served_wk)


# ten walk-ins at u = 0.3 see at most 180 + 9 + 0.4 * 21 = 197.4 and are
# served; then 50 shows and 40 no-shows arrive before the walk-in at 0.5
PRE_CALL_DAY = ([(0.35, True, 50), (0.4, False, 40), (0.8, True, 270)],
                [(0.3, 10), (0.5, 1)])


# The adaptive check-in rule, call at v = 0.5: a walk-in is served iff the
# expected shown-ups before it stay strictly below C_tilde. Each test builds
# a day whose last walk-in meets the counters of the rule's golden example.

class TestExpectedShownups:
    def test_post_call_arithmetic(self):
        # B1 = 120, B3 = 30 and W1 = 40 at u = 0.9: 190 shown-ups
        day = ([(0.1, True, 120), (0.2, False, 210), (0.95, True, 30)],
               [(0.6, 40), (0.9, 1)])
        assert walkins_served(ADAPTIVE, *day, C_tilde=190.0) == 40
        assert walkins_served(ADAPTIVE, *day, C_tilde=190.5) == 41

    def test_empty(self):
        # no bookings and no walk-in mass ahead: 0 shown-ups at u = 0.2
        day = ([], [(0.2, 1)])
        assert walkins_served(ADAPTIVE, *day, C_tilde=0.0, lam2=0.0) == 0
        assert walkins_served(ADAPTIVE, *day, C_tilde=0.5, lam2=0.0) == 1

    def test_pre_call_formula(self):
        # B = 360, B1 = 50, B2 = 40, W1 = 10 and walk-in mass 15 after
        # u = 0.5 < v = 0.6: 50 + 0.5 * 270 + 10 + 0.4 * 15 = 201
        day = PRE_CALL_DAY
        assert walkins_served(ADAPTIVE, *day, C_tilde=201.0, v=0.6) == 10
        assert walkins_served(ADAPTIVE, *day, C_tilde=201.5, v=0.6) == 11

    def test_missing_reveal_is_error(self):
        # the reference's counters only: the engine reveals B3 at the call
        s = StageTwoState(B=10, C_tilde=10, C_rooms=10)
        with pytest.raises(ValueError):
            expected_shownups(s, 0.6, 0.5, 0.5, 0.4)


class TestDass2Decide:
    def test_strict_inequality_rejects_at_equality(self):
        # B1 = 100, B3 = 0 and W1 = 100 after the call: 200 = C_tilde
        day = ([(0.1, True, 100), (0.95, False, 100)], [(0.6, 100), (0.7, 1)])
        assert walkins_served(ADAPTIVE, *day, C_tilde=200.0) == 100

    def test_rejects_above_capacity(self):
        # 201 >= 200 before the call: W1 stays 10
        assert walkins_served(ADAPTIVE, *PRE_CALL_DAY, C_tilde=200.0,
                              v=0.6) == 10

    def test_accepts_below_capacity_post_call(self):
        # B1 = 120, B3 = 30 and W1 = 49 at u = 0.8: 199 < 200, W1 becomes 50
        day = ([(0.1, True, 120), (0.2, False, 150), (0.95, True, 30)],
               [(0.6, 49), (0.8, 1)])
        assert walkins_served(ADAPTIVE, *day, C_tilde=200.0) == 50

    def test_post_call_never_forces_future_rejection(self):
        # B1 = 2 and B3 = 4 after the call, 20 walk-ins, 8 rooms: the two
        # walk-ins served keep B1 + B3 + W1 within C_tilde, and every
        # confirmed show still gets a room
        arrival = np.array([0.1, 0.1, 0.2, 0.2, 0.2, 0.2,
                            0.95, 0.95, 0.95, 0.95])
        shows = np.array([True, True, False, False, False, False,
                          True, True, True, True])
        walkins = np.full(20, 0.9)
        served, served_wk, overbooked = replay_stage2(
            ADAPTIVE, arrival, shows, walkins,
            pre_call_mass(day_profiles(), walkins, 0.5), 8.0, 8,
            day_profiles().show_prob)
        accepted = len(served_wk)
        assert 6 + accepted <= 8.0
        assert len(served) == 6 and overbooked == 0
        assert accepted == 2


class TestType1CheckIn:
    def test_full_house_rejects(self):
        s = StageTwoState(B=10, B1=3, W1=2, C_tilde=5, C_rooms=5)
        assert not type1_checkin_decide(s)

    def test_empty_house_offers(self):
        s = StageTwoState(B=10, C_tilde=5, C_rooms=5)
        assert type1_checkin_decide(s)

    def test_sequence_of_seven(self):
        s = StageTwoState(B=7, C_tilde=5, C_rooms=5)
        offers = overbooked = 0
        for _ in range(7):
            if type1_checkin_decide(s):
                s.B1 += 1
                offers += 1
            else:
                overbooked += 1
        assert (offers, overbooked) == (5, 2)


class TestHeuristics:
    def test_cap_values(self):
        assert heuristic_cap(HeuristicPolicy(0.0), 100, 0.4) \
            == pytest.approx(175.0)
        assert heuristic_cap(HeuristicPolicy(-1.0), 100, 0.4) == 0.0
        assert heuristic_cap(HeuristicPolicy(0.2), 100, 0.4) \
            == pytest.approx(210.0)

    def test_stage2_standard(self):
        # the walk-in at 0.1 comes before every reserved customer, so it is
        # served iff the standard q1 B is below C_tilde
        for B, q1, standard in ((0, 0.5, 0.0), (360, 0.5, 180.0),
                                (100, 1.0, 100.0)):
            day = ([(0.9, True, B)], [(0.1, 1)])
            assert walkins_served(HEURISTIC, *day, C_tilde=standard,
                                  q1=q1) == 0
            assert walkins_served(HEURISTIC, *day, C_tilde=standard + 0.5,
                                  q1=q1) == 1

    def test_stage1_cap_linear_in_C_but_adaptive_is_not(self):
        h = HeuristicPolicy(0.1)
        h100 = heuristic_cap(h, 100, 0.4)
        h200 = heuristic_cap(h, 200, 0.4)
        assert h200 == pytest.approx(2 * h100)
        a100 = estimated_capacity(GEO, 100, 0.4, 2.0)
        a200 = estimated_capacity(GEO, 200, 0.4, 2.0)
        # concave safety stock: doubling C more than doubles hat_C's mean
        # part minus safety, so the ratio is not exactly 2
        assert a200 / a100 != pytest.approx(2.0, abs=1e-6)
        assert a200 / a100 > 2.0  # safety stock is sublinear in C

    def test_heuristic_walkin_rule(self):
        # B = 360, B1 = 10, W1 = 5: 180 + 10 + 5 = 195 < 200 serves the
        # sixth walk-in
        day = ([(0.1, True, 10), (0.9, True, 350)], [(0.2, 6)])
        assert walkins_served(HEURISTIC, *day, C_tilde=200.0) == 6
        # five walk-ins served before 30 shows: 180 + 30 + 5 = 215 >= 200
        day = ([(0.2, True, 30), (0.9, True, 330)], [(0.1, 5), (0.3, 1)])
        assert walkins_served(HEURISTIC, *day, C_tilde=200.0) == 5
        # B = 400 with those counters cannot be built from arrivals (its
        # standard 200 turns away every walk-in): the reference's rule
        s2 = StageTwoState(B=400, B1=10, W1=5, C_tilde=200, C_rooms=200)
        assert not heuristic2_decide_walkin(
            s2, heuristic_stage2_standard(400, 0.5))


class TestBusySeason:
    def test_iota_zero_reduces_to_rate_comparison(self):
        rep = check_busy_season(176.0, 1.0, GEO, 100, 0.4, 0.0)
        assert rep.required_lambda1 == pytest.approx(175.0)
        assert rep.booking_ok

    def test_golden_booking_condition(self):
        rep = check_busy_season(300.0, 30.0, GEO, 100, 0.4, 2.0)
        assert rep.required_lambda1 == pytest.approx(204.3, abs=0.1)
        assert rep.booking_ok
        assert rep.required_lambda2 == pytest.approx(112.3, abs=0.1)
        assert not rep.walkin_ok


class TestCallTiming:
    def test_iota_zero_true(self):
        assert check_call_timing(0.0, 0.3, 0.4, 0.7, 100, 0.0)

    def test_v_one_false(self):
        assert not check_call_timing(0.0, 1.0, 0.4, 0.7, 100, 2.0)

    def test_golden_example(self):
        # branches ~ 31.3 and ~ 93.1; mass 60 fails the second
        assert not check_call_timing(60.0, 0.5, 0.4, 0.7, 100, 2.0)
        assert check_call_timing(95.0, 0.5, 0.4, 0.7, 100, 2.0)

    def test_alpha_half_signalled(self):
        with pytest.raises(ValueError):
            check_call_timing(60.0, 0.5, 0.5, 0.7, 100, 2.0)


class TestParamValidation:
    def test_dass_params(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(iota=-1.0, alpha=0.4)
        with pytest.raises(ValueError):
            AdaptivePolicy(iota=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            AdaptivePolicy(iota=math.nan, alpha=0.4)

    def test_heuristic_params(self):
        with pytest.raises(ValueError):
            HeuristicPolicy(1.5)
        with pytest.raises(ValueError):
            HeuristicPolicy(math.nan)

    def test_stage_two_state(self):
        with pytest.raises(ValueError):
            StageTwoState(B=5, B1=4, B2=3)

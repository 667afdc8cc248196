"""Decision-rule formulas: frozen golden values and structural properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roomflow.engine import replay_stage1
from roomflow.flows import DurationLaw, KeepCurve
from roomflow.policies import (
    AdaptivePolicy,
    HeuristicPolicy,
    StageTwoState,
    booking_caps,
    check_busy_season,
    check_call_timing,
    dass2_decide_walkin,
    departure_floor,
    estimated_capacity,
    expected_shownups,
    heuristic2_decide_walkin,
    heuristic_stage1_threshold,
    heuristic_stage2_standard,
    max_bookings_within,
    stage1_threshold,
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
    caps = booking_caps(hat_C, curve.value(times), iota)
    return replay_stage1(times.tolist(), [math.nan] * len(times), caps)


class TestDass1Decide:
    def test_p_one_hard_cap(self):
        # p = 1: the threshold is B itself, so the 50th booking fits a
        # capacity estimate of 50 and the 51st does not
        curve = KeepCurve.always(0.0, 1.0)
        accepted = stage1_accepted(np.linspace(0.0, 0.9, 51), curve, 50.0,
                                   2.0)
        assert accepted == list(range(50))

    def test_boundary_reject(self):
        hat_C = estimated_capacity(GEO, 100, 0.4, 2.0)
        curve = KeepCurve.constant(0.5, 0.0, 1.0)
        accepted = stage1_accepted(np.full(216, 0.5), curve, hat_C, 2.0)
        assert len(accepted) == 215  # B_t+1 = 215 accepted, 216 rejected

    def test_invariant_after_decisions(self):
        # after any accept, the threshold at the current state stays within hat_C
        hat_C = estimated_capacity(GEO, 100, 0.4, 2.0)
        curve = KeepCurve.linear(0.3, 0.0, 1.0)
        times = np.arange(0.0, 1.0, 0.01)
        accepted = set(stage1_accepted(times, curve, hat_C, 2.0))
        B_t = 0
        for i, t in enumerate(times):
            B_t += i in accepted
            p = float(curve.value(t))
            assert stage1_threshold(B_t, p, 2.0) <= hat_C + 1e-9


class TestExpectedShownups:
    def test_post_call_arithmetic(self):
        s = StageTwoState(B=360, B1=120, revealed_B3=30, W1=40, C_tilde=300,
                          C_rooms=300)
        assert expected_shownups(s, 0.9, 0.5, 0.5, 0.4) == 190

    def test_empty(self):
        s = StageTwoState(B=0, C_tilde=10, C_rooms=10)
        assert expected_shownups(s, 0.2, 0.5, 0.5, 0.4) == 0

    def test_pre_call_formula(self):
        s = StageTwoState(B=360, B1=50, B2=40, W1=10, C_tilde=200, C_rooms=200,
                          remaining_walkin_mass=15.0)
        assert expected_shownups(s, 0.3, 0.5, 0.5, 0.4) == pytest.approx(201.0)

    def test_missing_reveal_is_error(self):
        s = StageTwoState(B=10, C_tilde=10, C_rooms=10)
        with pytest.raises(ValueError):
            expected_shownups(s, 0.6, 0.5, 0.5, 0.4)


class TestDass2Decide:
    def test_strict_inequality_rejects_at_equality(self):
        s = StageTwoState(B=200, B1=100, revealed_B3=0, W1=100, C_tilde=200,
                          C_rooms=200)
        assert not dass2_decide_walkin(s, 0.7, 0.5, 0.5, 0.4)

    def test_rejects_above_capacity(self):
        s = StageTwoState(B=360, B1=50, B2=40, W1=10, C_tilde=200, C_rooms=200,
                          remaining_walkin_mass=15.0)
        assert not dass2_decide_walkin(s, 0.3, 0.5, 0.5, 0.4)  # 201 >= 200
        assert s.W1 == 10

    def test_accepts_below_capacity_post_call(self):
        s = StageTwoState(B=300, B1=120, revealed_B3=30, W1=49, C_tilde=200,
                          C_rooms=200)
        assert dass2_decide_walkin(s, 0.8, 0.5, 0.5, 0.4)  # 199 < 200
        assert s.W1 == 50

    def test_post_call_never_forces_future_rejection(self):
        # step-through: walk-ins accepted after the call never push
        # B1 + revealed_B3 + W1 above C_tilde
        s = StageTwoState(B=10, B1=2, revealed_B3=4, W1=0, C_tilde=8, C_rooms=8)
        accepted = 0
        for _ in range(20):
            if dass2_decide_walkin(s, 0.9, 0.5, 0.5, 0.4):
                accepted += 1
            assert s.B1 + s.revealed_B3 + s.W1 <= s.C_tilde
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
        assert heuristic_stage1_threshold(HeuristicPolicy(0.0), GEO, 100, 0.4) \
            == pytest.approx(175.0)
        assert heuristic_stage1_threshold(HeuristicPolicy(-1.0), GEO, 100, 0.4) == 0.0
        assert heuristic_stage1_threshold(HeuristicPolicy(0.2), GEO, 100, 0.4) \
            == pytest.approx(210.0)

    def test_stage2_standard(self):
        assert heuristic_stage2_standard(0, 0.5) == 0
        assert heuristic_stage2_standard(360, 0.5) == 180.0
        assert heuristic_stage2_standard(100, 1.0) == 100.0

    def test_stage1_cap_linear_in_C_but_adaptive_is_not(self):
        h = HeuristicPolicy(0.1)
        h100 = heuristic_stage1_threshold(h, GEO, 100, 0.4)
        h200 = heuristic_stage1_threshold(h, GEO, 200, 0.4)
        assert h200 == pytest.approx(2 * h100)
        a100 = estimated_capacity(GEO, 100, 0.4, 2.0)
        a200 = estimated_capacity(GEO, 200, 0.4, 2.0)
        # concave safety stock: doubling C more than doubles hat_C's mean
        # part minus safety, so the ratio is not exactly 2
        assert a200 / a100 != pytest.approx(2.0, abs=1e-6)
        assert a200 / a100 > 2.0  # safety stock is sublinear in C

    def test_heuristic_walkin_rule(self):
        s = StageTwoState(B=360, B1=10, W1=5, C_tilde=200, C_rooms=200)
        std = heuristic_stage2_standard(360, 0.5)
        assert heuristic2_decide_walkin(s, std)  # 180+10+5 < 200
        s2 = StageTwoState(B=400, B1=10, W1=5, C_tilde=200, C_rooms=200)
        assert not heuristic2_decide_walkin(s2, heuristic_stage2_standard(400, 0.5))


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

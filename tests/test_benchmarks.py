"""Offline oracle, brute-force cross-check, and adversarial instance."""

import numpy as np
import pytest

from roomflow.benchmarks import (
    BenchmarkOutcome,
    DayDemandSnapshot,
    brute_force_day_optimal,
    clairvoyant_stage1_select,
    lower_bound_instance,
    single_day_offline_optimal,
)
from roomflow.flows import substream


def snap(finals, n_walkins, C, r=1.0, ell=1.0):
    return DayDemandSnapshot(
        finals=finals,
        final_show_times=tuple(np.linspace(0.1, 0.9, finals)),
        walkin_times=tuple(np.linspace(0.05, 0.95, n_walkins)),
        C_tilde=C, reward=r, overbook_penalty=ell,
    )


class TestSingleDayOfflineOptimal:
    def test_overloaded_day_serves_capacity_and_no_walkins(self):
        out = single_day_offline_optimal(snap(7, 4, 5, ell=2.0))
        assert out == BenchmarkOutcome(5, 0, 2, 0, 4.0)

    def test_underloaded_day_tops_up_with_walkins(self):
        out = single_day_offline_optimal(snap(3, 4, 5))
        assert out == BenchmarkOutcome(3, 2, 0, 0, 0.0)

    def test_scarce_walkins_leave_idle_rooms(self):
        out = single_day_offline_optimal(snap(3, 1, 5, r=2.5))
        assert out == BenchmarkOutcome(3, 1, 0, 1, 2.5)

    def test_empty_day_loses_full_reward(self):
        out = single_day_offline_optimal(snap(0, 0, 4, r=3.0))
        assert out.day_loss == 12.0

    def test_exact_fill_is_lossless(self):
        assert single_day_offline_optimal(snap(5, 0, 5)).day_loss == 0.0

    def test_matches_brute_force_on_random_instances(self):
        # independent oracle: exhaustive enumeration of walk-in subsets
        rng = substream(20240817, 0)
        for _ in range(1200):
            s = snap(
                finals=int(rng.integers(0, 13)),
                n_walkins=int(rng.integers(0, 11)),
                C=int(rng.integers(1, 10)),
                r=float(rng.uniform(0.1, 3.0)),
                ell=float(rng.uniform(0.1, 3.0)),
            )
            assert single_day_offline_optimal(s).day_loss == pytest.approx(
                brute_force_day_optimal(s))

    def test_brute_force_rejects_huge_instances(self):
        with pytest.raises(ValueError):
            brute_force_day_optimal(snap(1, 21, 5))


def outcomes(*pairs):
    """survives, shows arrays of bookings in request order."""
    survives, shows = zip(*pairs)
    return np.array(survives), np.array(shows)


class TestClairvoyantSelect:
    def test_takes_first_surviving_showing_in_request_order(self):
        survives, shows = outcomes(
            (True, True),
            (False, True),   # cancels in the window
            (True, False),   # survives but no-shows
            (True, True),
            (True, True),
        )
        sel = clairvoyant_stage1_select(survives, shows, 2)
        assert sel.tolist() == [0, 3]

    def test_short_demand_returns_everything_available(self):
        assert len(clairvoyant_stage1_select(*outcomes((True, True)), 5)) == 1

    def test_zero_target_selects_nothing(self):
        assert clairvoyant_stage1_select(*outcomes((True, True)), 0).size == 0


class TestLowerBoundInstance:
    def test_instance_shape(self):
        sc = lower_bound_instance(4.0, T=100, seed=7)
        assert sc.C == 1 and sc.T == 100 and sc.v == 0.0
        prof = sc.profiles_for(1)
        assert prof.show_prob == 0.5
        assert prof.stage1_rate.mass == pytest.approx(1.0)
        assert prof.walkin_rate.mass == pytest.approx(2.0)  # sqrt(iota)
        assert prof.duration_law.kind == "constant"
        assert prof.duration_law.d == 1

    def test_rejects_negative_iota(self):
        with pytest.raises(ValueError):
            lower_bound_instance(-1.0)

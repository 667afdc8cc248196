"""Engine invariants: ledger safety, accounting, determinism, trajectories."""

import dataclasses

import numpy as np
import pytest

import roomflow.engine as E
from roomflow.benchmarks import lower_bound_instance
from roomflow.flows import (
    DurationLaw,
    KeepCurve,
    RateFunction,
    StageProfiles,
    substream,
)


def geometric_profiles(lam1=300.0, lam2=30.0, q1=0.4, q_stay=0.3, p0=0.5):
    return StageProfiles(
        stage1_rate=RateFunction.constant(lam1, 0.0, 1.0),
        keep_curve=KeepCurve.linear(p0, 0.0, 1.0),
        show_prob=q1,
        arrival_density=RateFunction.beta_shaped(1.0, 6, 6),
        walkin_rate=RateFunction.beta_shaped(lam2, 6, 6),
        duration_law=DurationLaw("geometric", q_stay=q_stay),
    )


def scenario(T=40, C=100, v=0.0, seed=5, **kw):
    return E.ScenarioConfig(T=T, C=C, k0=1, v=v, reward=1.0,
                            overbook_penalty=1.0,
                            profiles=geometric_profiles(**kw), seed=seed)


class TestOccupancyLedger:
    def test_admit_spans_duration(self):
        led = E.OccupancyLedger(C=3, T=100)
        before = led.occupied(4)
        led.admit(5, [3])
        assert [before] + [led.occupied(d) for d in (5, 6, 7, 8)] \
            == [0, 1, 1, 1, 0]

    def test_truncates_at_horizon(self):
        led = E.OccupancyLedger(C=3, T=6)
        led.admit(5, [10])
        assert led.occupied(6) == 1 and led.occupied(7) == 0
        assert led.total_room_nights == 2

    def test_capacity_violation_raises(self):
        led = E.OccupancyLedger(C=1, T=10)
        led.admit(2, [1])
        with pytest.raises(E.CapacityError):
            led.admit(2, [1])
        # a later day holds no more of the guests than the open day
        led = E.OccupancyLedger(C=2, T=10)
        led.admit(1, [3, 1])
        led.admit(2, [2])
        with pytest.raises(E.CapacityError):
            led.admit(3, [1, 1])

    def test_closed_days_are_final(self):
        led = E.OccupancyLedger(C=3, T=10)
        led.admit(4, [1])
        with pytest.raises(ValueError):
            led.admit(3, [1])


class TestWarmStart:
    def test_geometric_day1_within_capacity(self):
        sc = scenario(C=50, q_stay=0.6)
        led = E.warm_start_ledger(sc, substream(1, 0, 0, 0))
        day1 = led.occupied(1)
        assert 0 < day1 <= 50
        # memoryless residual: day-1 occupancy is Binomial(C, q_stay)-like
        assert led.occupied(2) <= day1

    def test_constant_duration_age_classes(self):
        prof = dataclasses.replace(geometric_profiles(),
                                   duration_law=DurationLaw("constant", d=4))
        sc = E.ScenarioConfig(T=30, C=100, k0=1, v=0.0, reward=1.0,
                              overbook_penalty=1.0, profiles=prof, seed=0)
        led = E.warm_start_ledger(sc, substream(1, 0, 0, 0))
        # floor(100/4)=25 guests per residual class 1..3 nights
        assert led.occupied(1) == 75
        assert led.occupied(2) == 50
        assert led.occupied(3) == 25
        assert led.occupied(4) == 0

    def test_disabled_warm_start_is_empty(self):
        sc = dataclasses.replace(scenario(), warm_start=False)
        led = E.warm_start_ledger(sc, substream(1, 0, 0, 0))
        assert led.occupied(1) == 0


NAN = float("nan")


class TestStage1Replay:
    def test_cancellation_frees_a_slot_before_later_request(self):
        # (request time, cancel time or nan if the booking survives)
        times, cancels = [0.1, 0.2, 0.4], [0.3, NAN, NAN]
        # cap of 2 alive: third request admitted only because the first
        # cancelled at 0.3 < 0.4
        accepted = E.replay_stage1(times, cancels, [2, 2, 2])
        assert len(accepted) == 3

    def test_tie_processes_cancellation_first(self):
        accepted = E.replay_stage1([0.1, 0.4], [0.4, NAN], [1, 1])
        assert len(accepted) == 2


def arrays(times, shows=None):
    times = np.asarray(times, dtype=float)
    if shows is None:
        return times
    return times, np.asarray(shows, dtype=bool)


class TestStage2Replay:
    def test_oracle_equivalence_random_instances(self):
        # event-driven v=0 replay against the direct offline construction
        rate = RateFunction.constant(10.0, 0.0, 1.0)
        rng = substream(77, 0)
        for _ in range(400):
            B = int(rng.integers(0, 12))
            C = int(rng.integers(1, 8))
            arrival, shows = arrays(rng.random(B), rng.random(B) < 0.6)
            walkins = np.sort(rng.random(int(rng.integers(0, 9))))
            res = E.replay_stage2(arrival, shows, walkins, float(C), C, 0.0,
                                  0.6, 0.4, rate, "adaptive")
            ref = E.oracle_stage2(arrival, shows, len(walkins), C)
            assert len(res.served_type1) == len(ref.served_type1)
            assert res.overbooked == ref.overbooked
            assert (walkins[list(res.served_walkins)].tolist()
                    == walkins[list(ref.served_walkins)].tolist())

    def test_reveal_processed_before_event_at_v(self):
        # one confirmed no-show: a walk-in exactly at v sees the revealed
        # count (1 future show), not the expected one
        arrival, shows = arrays([0.9, 0.8], [True, False])
        rate = RateFunction.constant(4.0, 0.0, 1.0)
        res = E.replay_stage2(arrival, shows, arrays([0.5]), 2.0, 2, 0.5,
                              0.9, 0.4, rate, "adaptive")
        assert len(res.served_walkins) == 1
        assert len(res.served_type1) == 1

    def test_heuristic_ignores_reveal(self):
        arrival, shows = arrays([0.9, 0.95], [False, False])
        rate = RateFunction.constant(4.0, 0.0, 1.0)
        res = E.replay_stage2(arrival, shows, arrays([0.5]), 2.0, 2, 0.0,
                              0.9, 0.4, rate, "heuristic", standard=1.8)
        # standard 1.8 + 0 accepted >= C_tilde 2 is false, so accept
        assert len(res.served_walkins) == 1

    def test_reserved_before_walkin_at_equal_times(self):
        # the reserved customer at 0.5 takes the last room first
        arrival, shows = arrays([0.5], [True])
        rate = RateFunction.constant(4.0, 0.0, 1.0)
        res = E.replay_stage2(arrival, shows, arrays([0.5]), 1.0, 1, 0.0,
                              0.9, 0.4, rate, "heuristic", standard=0.0)
        assert res.served_type1.tolist() == [0]
        assert list(res.served_walkins) == []


class TestRunHorizonAccounting:
    def run(self, sc, policy=None):
        policy = policy or E.AdaptivePolicy(2.0, 0.4)
        return E.run_horizon(sc, policy, policy)

    def test_day_loss_identity(self):
        for out in self.run(scenario()):
            assert out.day_loss == pytest.approx(out.overbooked + out.idle)
            assert out.idle >= 0
            assert out.overbooked >= 0

    def test_served_never_exceeds_capacity(self):
        sc = scenario()
        for out in self.run(sc):
            assert out.type1_served + out.walkins_served <= sc.C

    def test_deterministic_given_seed(self):
        a = self.run(scenario(seed=9))
        b = self.run(scenario(seed=9))
        assert [o.day_loss for o in a] == [o.day_loss for o in b]
        c = self.run(scenario(seed=10))
        assert [o.day_loss for o in a] != [o.day_loss for o in c]

    def test_zero_horizon(self):
        assert self.run(scenario(T=0)) == []

    def test_room_night_conservation(self):
        # ledger total equals the sum of daily committed counts
        sc = scenario(T=25)
        pol = E.AdaptivePolicy(2.0, 0.4)
        led = E.warm_start_ledger(sc, substream(sc.seed, 0, 0, 0))
        committed = []
        for k in range(1, sc.T + 1):
            E.run_day(k, E.realize_day(sc, 0, k), pol, pol, led, sc)
            committed.append(led.occupied(k))
        assert led.total_room_nights == sum(committed)


class TestRegret:
    def test_v0_stage2_component_is_zero(self):
        rpt = E.run_experiment(scenario(T=60, v=0.0),
                               {"a": E.AdaptivePolicy(2.0, 0.4)})["a"]
        assert np.all(rpt.stage2_component == 0.0)
        assert np.all(rpt.regret == rpt.stage1_component)

    def test_components_sum_to_total(self):
        rpt = E.run_experiment(scenario(T=40, v=0.7),
                               {"a": E.AdaptivePolicy(2.0, 0.4)})["a"]
        assert np.allclose(rpt.stage1_component + rpt.stage2_component,
                           rpt.regret)

    def test_oracle_policy_has_zero_regret(self):
        rpt = E.run_experiment(scenario(T=30), {"o": E.OraclePolicy()})["o"]
        assert np.all(rpt.regret == 0.0)

    def test_per_day_loss_at_least_offline(self):
        # the offline day optimum lower-bounds any policy on the same draw
        sc = lower_bound_instance(2.0, T=300, seed=4)
        rpt = E.run_experiment(sc, {"a": E.AdaptivePolicy(2.0, 0.4)})["a"]
        assert np.all(rpt.regret >= 0.0)

    def test_first_cycle_allowance(self):
        prof = dataclasses.replace(geometric_profiles(),
                                   duration_law=DurationLaw("constant", d=3))
        sc = E.ScenarioConfig(T=30, C=90, k0=1, v=0.0, reward=2.0,
                              overbook_penalty=1.0, profiles=prof, seed=0)
        # sum over k=1..3 of 90 (3-k)/3 * 2 = 60*2 + 30*2 = 180
        assert E.first_cycle_allowance(sc) == pytest.approx(180.0)
        assert E.first_cycle_allowance(scenario()) == 0.0


class TestMonteCarlo:
    def test_aggregate_shapes_and_determinism(self):
        sc = scenario(T=20)
        r1 = E.monte_carlo(sc, E.AdaptivePolicy(2.0, 0.4), 4)
        r2 = E.monte_carlo(sc, E.AdaptivePolicy(2.0, 0.4), 4)
        assert r1.n_reps == 4
        assert len(r1.mean_cumulative) == 20
        assert np.array_equal(r1.mean_cumulative, r2.mean_cumulative)
        assert r1.stderr_total >= 0.0

    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError):
            E.monte_carlo(scenario(T=5), E.AdaptivePolicy(2.0, 0.4), 0)


class TestSingleDayCell:
    def test_policy_loss_dominates_oracle_loss(self):
        prof = geometric_profiles(q1=0.5, lam2=30.0)
        pol, ora, _ = E.single_day_cell(400, 200, prof, v=1.0, alpha=0.4,
                                     kind="adaptive", n_sims=200,
                                     master_seed=123)
        assert np.all(pol >= ora)

    def test_v0_adaptive_equals_oracle(self):
        prof = geometric_profiles(q1=0.5, lam2=30.0)
        pol, ora, _ = E.single_day_cell(400, 200, prof, v=0.0, alpha=0.4,
                                     kind="adaptive", n_sims=100,
                                     master_seed=5)
        assert np.array_equal(pol, ora)

    def test_count_fast_path_matches_replay(self):
        # the count-based oracle must agree with a full event replay
        prof = geometric_profiles(q1=0.5, lam2=10.0)
        _, ora, _ = E.single_day_cell(30, 20, prof, v=1.0, alpha=0.4,
                                   kind="adaptive", n_sims=150,
                                   master_seed=42)
        from roomflow.flows import sample_stage2_day
        for i in range(150):
            rng = substream(42, i)
            type1, walkins = sample_stage2_day(prof, 30, 1, rng)
            res = E.oracle_stage2(type1.time, type1.shows, len(walkins), 20)
            idle = 20 - len(res.served_type1) - len(res.served_walkins)
            assert ora[i] == pytest.approx(res.overbooked + idle)

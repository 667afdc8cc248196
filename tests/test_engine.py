"""Engine invariants: ledger safety, accounting, determinism, trajectories."""

import dataclasses
import math

import numpy as np
import pytest

import roomflow.cli as cli
import roomflow.engine as E
import roomflow.flows as F
from roomflow.benchmarks import offline_day_optimum
from roomflow.flows import (
    DurationLaw,
    KeepCurve,
    RateFunction,
    StageProfiles,
    reserved_outcomes,
    sample_walkins,
)
import reference as R
from reference import engine_days, substream


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
    return E.ScenarioConfig(T=T, C=C, v=v, reward=1.0,
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
        led = R.CountingLedger(C=3, T=6)
        led.admit(5, [10])
        assert led.occupied(6) == 1 and led.occupied(7) == 0
        assert led.room_nights == 2

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
        sc = E.ScenarioConfig(T=30, C=100, v=0.0, reward=1.0,
                              overbook_penalty=1.0, profiles=prof, seed=0)
        led = E.warm_start_ledger(sc, substream(1, 0, 0, 0))
        # floor(100/4)=25 guests per residual class 1..3 nights
        assert led.occupied(1) == 75
        assert led.occupied(2) == 50
        assert led.occupied(3) == 25
        assert led.occupied(4) == 0

    def test_disabled_warm_start_is_empty(self):
        # a ledger without a warm start holds no guests
        assert E.OccupancyLedger(100, 40).occupied(1) == 0


NAN = float("nan")


def one_day_survivors(times, cancels, beta):
    """batch_survivors of one day of requests (cancel time nan for a
    survivor) under the heuristic, whose cap (1 + beta) * delta * C / q1 is
    1 + beta at C = 1, q1 = 1 and one-night stays."""
    n = len(times)
    batch = F.Bookings(np.array(times), np.ones(n), np.array(cancels),
                       np.ones(n, dtype=int), np.zeros(n),
                       np.ones(n, dtype=bool), [0, n])
    mask, = E.batch_survivors(batch, [E.HeuristicPolicy(beta)],
                              scenario(T=1, C=1, q1=1.0, q_stay=0.0))
    return mask.tolist()


class TestStage1Replay:
    def test_cancellation_frees_a_slot_before_later_request(self):
        # cap of 2 alive: the third request is admitted only because the
        # first cancelled at 0.3 < 0.4
        assert one_day_survivors([0.1, 0.2, 0.4], [0.3, NAN, NAN],
                                 1.0) == [False, True, True]

    def test_tie_processes_cancellation_first(self):
        assert one_day_survivors([0.1, 0.4], [0.4, NAN], 0.0) == [False, True]


def arrays(times, shows=None):
    times = np.asarray(times, dtype=float)
    if shows is None:
        return times
    return times, np.asarray(shows, dtype=bool)


class TestStage2Replay:
    def test_oracle_equivalence_random_instances(self):
        # event-driven v=0 replay against the direct offline construction
        pol, prof = E.AdaptivePolicy(0.0, 0.4), geometric_profiles(q1=0.6)
        rng = substream(77, 0)
        for _ in range(400):
            B = int(rng.integers(0, 12))
            C = int(rng.integers(1, 8))
            arrival, shows = arrays(rng.random(B), rng.random(B) < 0.6)
            walkins = np.sort(rng.random(int(rng.integers(0, 9))))
            served, served_wk, overbooked = E.replay_stage2(
                pol, arrival, shows, walkins,
                R.pre_call_mass(prof, walkins, 0.0), float(C), C,
                prof.show_prob)
            ref = offline_day_optimum(int(shows.sum()), len(walkins), C)
            assert len(served) == ref[0]
            assert overbooked == ref[2]
            # the offline optimum serves the earliest walk-ins
            assert (walkins[served_wk].tolist()
                    == walkins[:ref[1]].tolist())

    def test_reveal_processed_before_event_at_v(self):
        # one confirmed no-show: a walk-in exactly at v sees the revealed
        # count (1 future show), not the expected one
        arrival, shows = arrays([0.9, 0.8], [True, False])
        prof, walkins = geometric_profiles(q1=0.9, lam2=4.0), arrays([0.5])
        served, served_wk, _ = E.replay_stage2(
            E.AdaptivePolicy(0.0, 0.4), arrival, shows, walkins,
            R.pre_call_mass(prof, walkins, 0.5), 2.0, 2, prof.show_prob)
        assert len(served_wk) == 1
        assert len(served) == 1

    def test_heuristic_ignores_reveal(self):
        arrival, shows = arrays([0.9, 0.95], [False, False])
        prof, walkins = geometric_profiles(q1=0.9, lam2=4.0), arrays([0.5])
        _, served_wk, _ = E.replay_stage2(
            E.HeuristicPolicy(0.0), arrival, shows, walkins,
            R.pre_call_mass(prof, walkins, 0.0), 2.0, 2, prof.show_prob)
        # standard q1 B = 1.8 + 0 accepted >= C_tilde 2 is false, so accept
        assert len(served_wk) == 1

    def test_reserved_before_walkin_at_equal_times(self):
        # the reserved customer at 0.5 takes the last room first
        arrival, shows = arrays([0.5], [True])
        prof, walkins = geometric_profiles(q1=0.9, lam2=4.0), arrays([0.5])
        served, served_wk, _ = E.replay_stage2(
            E.HeuristicPolicy(0.0), arrival, shows, walkins,
            R.pre_call_mass(prof, walkins, 0.0), 1.0, 1, prof.show_prob)
        assert served.tolist() == [0]
        assert served_wk == []


def run_days(sc, policy):
    """(loss, idle rooms, guests served) of each day of the policy
    trajectory over days 1..T of replication 0; idle rooms come from the
    ledger."""
    led = E.warm_start_ledger(sc, substream(sc.seed, 0, 0, 0))
    return [(loss, sc.C - led.occupied(k), served)
            for k, loss, served in engine_days(sc, policy, led)]


class TestRunHorizonAccounting:
    def run(self, sc, policy=None):
        return run_days(sc, policy or E.AdaptivePolicy(2.0, 0.4))

    def test_day_loss_identity(self):
        # reward and overbooking penalty are 1: the loss is overbooked +
        # idle, with a whole number of overbooked guests
        for loss, idle, _ in self.run(scenario()):
            overbooked = loss - idle
            assert idle >= 0
            assert overbooked >= 0 and overbooked.is_integer()

    def test_served_never_exceeds_capacity(self):
        sc = scenario()
        for _, _, served in self.run(sc):
            assert served <= sc.C

    def test_deterministic_given_seed(self):
        a = self.run(scenario(seed=9))
        b = self.run(scenario(seed=9))
        assert [day[0] for day in a] == [day[0] for day in b]
        c = self.run(scenario(seed=10))
        assert [day[0] for day in a] != [day[0] for day in c]

    def test_zero_horizon(self):
        with pytest.raises(ValueError, match="^T: must be at least 1"):
            scenario(T=0)

    def test_room_night_conservation(self):
        # the room-nights admitted equal the sum of daily committed counts
        sc = scenario(T=25)
        pol = E.AdaptivePolicy(2.0, 0.4)
        led = R.counting_warm_start(sc, substream(sc.seed, 0, 0, 0))
        committed = [led.occupied(k) for k, _, _ in engine_days(sc, pol, led)]
        assert led.room_nights == sum(committed)


class TestRegret:
    # run_experiment gives (policy, hybrid, benchmark) day losses: the
    # regret is pol - ben, its Stage-I component hyb - ben and its Stage-II
    # component pol - hyb

    def test_v0_stage2_component_is_zero(self):
        pol, hyb, ben = E.run_experiment(
            scenario(T=60, v=0.0), {"a": E.AdaptivePolicy(2.0, 0.4)})["a"]
        assert np.all(pol - hyb == 0.0)
        assert np.all(pol - ben == hyb - ben)

    def test_components_sum_to_total(self):
        pol, hyb, ben = E.run_experiment(
            scenario(T=40, v=0.7), {"a": E.AdaptivePolicy(2.0, 0.4)})["a"]
        assert np.allclose((hyb - ben) + (pol - hyb), pol - ben)

    def test_oracle_policy_has_zero_regret(self):
        pol, _, ben = E.run_experiment(scenario(T=30),
                                       {"o": E.OraclePolicy()})["o"]
        assert np.all(pol - ben == 0.0)

    def test_per_day_loss_at_least_offline(self):
        # the offline day optimum lower-bounds any policy on the same draw
        _, sc = cli.build_scenario(cli.load_config("lower-bound", None),
                                   (("lambda2", math.sqrt(2.0)), ("T", 300)))
        sc = dataclasses.replace(sc, seed=4)
        pol, _, ben = E.run_experiment(
            sc, {"a": E.AdaptivePolicy(2.0, 0.4)})["a"]
        assert np.all(pol - ben >= 0.0)


class TestMonteCarlo:
    def curves(self, sc, n_reps):
        """Cumulative-regret curves of n_reps replications, each seeded as
        the CLI seeds a cell's replications."""
        curves = []
        for rep in range(n_reps):
            pol, _, ben = E.run_experiment(
                dataclasses.replace(sc, seed=cli.cell_seed(sc.seed, "", rep)),
                {"a": E.AdaptivePolicy(2.0, 0.4)})["a"]
            curves.append(np.cumsum(pol - ben))
        return curves

    def test_aggregate_shapes_and_determinism(self):
        sc = scenario(T=20)
        mean, stderr = E.aggregate(self.curves(sc, 4))
        mean2, _ = E.aggregate(self.curves(sc, 4))
        assert len(mean) == 20
        assert np.array_equal(mean, mean2)
        assert stderr[-1] >= 0.0

    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError):
            E.aggregate(self.curves(scenario(T=5), 0))


def one_day(C, v, **kw):
    """A single service day with capacity C and confirmation call at v."""
    return E.ScenarioConfig(T=1, C=C, v=v, reward=1.0,
                            overbook_penalty=1.0,
                            profiles=geometric_profiles(**kw))


class TestSingleDayCell:
    def test_policy_loss_dominates_oracle_loss(self):
        sc = one_day(200, 1.0, q1=0.5, lam2=30.0)
        pol, ora, _ = E.single_day_cell(sc, 400, E.AdaptivePolicy(2.0, 0.4),
                                        n_sims=200, master_seed=123)
        assert np.all(pol >= ora)

    def test_v0_adaptive_equals_oracle(self):
        sc = one_day(200, 0.0, q1=0.5, lam2=30.0)
        pol, ora, _ = E.single_day_cell(sc, 400, E.AdaptivePolicy(2.0, 0.4),
                                        n_sims=100, master_seed=5)
        assert np.array_equal(pol, ora)

    @pytest.mark.parametrize("policy", [E.AdaptivePolicy(2.0, 0.4),
                                        E.HeuristicPolicy(0.1)])
    def test_chunks_change_no_result(self, policy, monkeypatch):
        # one mass_after call per chunk of draws: a draw a chunk, and the
        # whole cell in one, give the same bytes
        sc = one_day(60, 0.6, q1=0.5, lam2=30.0)
        runs = []
        for events in (1, 10 ** 9):
            monkeypatch.setattr(E, "_CELL_EVENTS", events)
            runs.append(b"".join(a.tobytes() for a in E.single_day_cell(
                sc, 100, policy, n_sims=40, master_seed=9)))
        assert runs[0] == runs[1]

    def test_count_fast_path_matches_replay(self):
        # the count-based oracle must agree with a full event replay
        sc = one_day(20, 1.0, q1=0.5, lam2=10.0)
        prof = sc.profiles
        _, ora, _ = E.single_day_cell(sc, 30, E.AdaptivePolicy(2.0, 0.4),
                                      n_sims=150, master_seed=42)
        for i in range(150):
            rng = substream(42, i)
            arrival, shows = reserved_outcomes(prof, 30, rng)
            prof.duration_law.sample(rng, 30)
            walkins = sample_walkins(prof, rng)
            t1, wk, overbooked = R.oracle_stage2(
                [R.Guest(t, s, 1) for t, s in zip(arrival, shows)],
                [R.Guest(t, True, 1) for t in walkins], 20)
            idle = 20 - len(t1) - len(wk)
            assert ora[i] == pytest.approx(overbooked + idle)

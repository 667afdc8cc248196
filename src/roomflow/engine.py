"""Multi-day discrete-event engine.

Each day runs Stage I (booking requests and cancellations replayed through
an admission rule) and Stage II (check-ins, walk-ins, and the confirmation
reveal replayed through a check-in rule), with inter-day coupling only
through the occupancy ledger. The benchmark trajectory concatenates
single-day offline optima with clairvoyant Stage-I selection on the same
realizations (common random numbers); a hybrid trajectory (offline-optimal
Stage II on top of the policy's Stage-I acceptances) splits the regret into
Stage-I and Stage-II components.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np

from .benchmarks import clairvoyant_stage1_select
from .flows import (
    DayRealization,
    StageProfiles,
    attach_stage2_outcomes,
    sample_stage1_day,
    sample_stage2_day,
    sample_walkins,
    substream,
)
from .policies import (
    AdaptivePolicy,
    HeuristicPolicy,
    OraclePolicy,
    StageTwoState,
    booking_caps,
    dass2_decide_walkin,
    heuristic2_decide_walkin,
    heuristic_stage1_threshold,
    heuristic_stage2_standard,
)
from .policies import estimated_capacity as _estimated_capacity


class CapacityError(RuntimeError):
    """Committed rooms exceeded physical capacity (engine invariant)."""


@dataclass
class ScenarioConfig:
    """Full generative and economic description of one instance."""

    T: int
    C: int
    k0: int
    v: float
    reward: float
    overbook_penalty: float
    profiles: StageProfiles | list
    seed: int = 0
    warm_start: bool = True

    def __post_init__(self):
        if self.T < 0 or self.C < 1 or self.k0 < 1:
            raise ValueError("invalid scenario dimensions")
        if not -self.k0 < self.v <= 1.0:
            raise ValueError("confirmation time outside (-k0, 1]")
        if isinstance(self.profiles, list) and len(self.profiles) != self.T:
            raise ValueError("per-day profile list must have length T")

    def profiles_for(self, k):
        if isinstance(self.profiles, list):
            return self.profiles[k - 1]
        return self.profiles

    @property
    def v_effective(self):
        """A call during Stage I behaves like a call at the day start."""
        return max(self.v, 0.0)


class OccupancyLedger:
    """Committed rooms per day, truncated at the horizon, as a difference
    array: a guest adds one to the open day and one to the "leaves on day j"
    counter of the day after its last night, so admission costs one write
    per guest, not one per room-night.

    Days open in increasing order and only the open day admits guests.
    Stays are contiguous, so no later day holds more of the guests admitted
    so far than the open day does: checking the open day at each admission
    catches every capacity violation.
    """

    def __init__(self, C, T):
        self.C = C
        self.T = T
        self.day = 1
        self._occupied = 0
        self._leaves = [0] * (T + 2)
        self.total_room_nights = 0

    def occupied(self, day):
        """Rooms committed on `day`, which becomes the open day."""
        if day < self.day:
            raise ValueError(f"day {day} is closed (open day {self.day})")
        while self.day < day:
            self.day += 1
            self._occupied -= self._leaves[self.day]
        return self._occupied

    def admit(self, day, stays):
        """Check in guests on `day`, one stay length (>= 1 night) each."""
        occupied = self.occupied(day) + len(stays)
        if occupied > self.C:
            raise CapacityError(
                f"day {day}: committed {occupied} > capacity {self.C}")
        end = self.T + 1
        leaves = self._leaves
        nights = 0
        for d in stays:
            j = day + d
            if j > end:
                j = end
            leaves[j] += 1
            nights += j - day
        self._occupied = occupied
        self.total_room_nights += nights


# ---------------------------------------------------------------------------
# Stage-I and Stage-II replays

hat_capacity = lru_cache(maxsize=None)(_estimated_capacity)


def replay_stage1(times, cancel_times, caps):
    """Replay one day's booking requests, and the cancellations of accepted
    ones, in time order. Request i is accepted iff B_alive + 1 <= caps[i];
    caps may be a list or any iterable (itertools.repeat for a fixed cap).
    cancel_times[i] is nan for a request that survives the window.

    Cancellations are processed before requests at equal timestamps.
    Returns the positions of the accepted requests.
    """
    heappop, heappush = heapq.heappop, heapq.heappush
    cancels = []
    alive = 0
    accepted = []
    i = -1
    for t, c, cap in zip(times, cancel_times, caps):
        i += 1
        while cancels and cancels[0] <= t:
            heappop(cancels)
            alive -= 1
        if alive + 1 <= cap:
            alive += 1
            accepted.append(i)
            if c == c:  # not nan: the booking cancels
                heappush(cancels, c)
    return accepted


def stage1_accept(policy, bookings, profiles, C):
    """Positions of the bookings accepted on one day under the policy's
    Stage-I rule.

    The adaptive rule accepts request i iff stage1_threshold(B_alive + 1,
    p_i, iota) <= hat_C, that is iff B_alive + 1 is at most the request's
    cap max_bookings_within(hat_C, p_i, iota); the caps come from the keep
    values sampled with the day, so the keep curve is evaluated once per
    day.
    """
    law = profiles.duration_law
    q1 = profiles.show_prob
    if isinstance(policy, AdaptivePolicy):
        hat_C = hat_capacity(law, C, q1, policy.iota)
        caps = booking_caps(hat_C, bookings.keep, policy.iota)
    elif isinstance(policy, HeuristicPolicy):
        caps = repeat(heuristic_stage1_threshold(policy, law, C, q1))
    else:
        raise TypeError(f"no Stage-I rule for {type(policy).__name__}")
    return replay_stage1(bookings.lists.time, bookings.lists.cancel_time,
                         caps)


@dataclass
class Stage2Result:
    served_type1: np.ndarray  # positions in the reserved-customer arrays
    served_walkins: list | range  # positions in the walk-in arrays
    overbooked: int


def replay_stage2(arrival, shows, walkin_time, C_tilde, C_rooms, v, q1, alpha,
                  walkin_rate, kind, standard=None):
    """Replay one service day through a check-in rule.

    arrival, shows: the reserved customers, in any order (ties in arrival
    keep that order); walkin_time: walk-ins in time order. kind: "adaptive"
    (confirmation reveal at v) or "heuristic" (constant standard, no
    reveal). Reserved customers are processed before walk-ins at equal
    timestamps; the reveal is processed before any event at or after v.

    A showing reserved customer gets a room iff one is free, so between two
    walk-ins the shows fill free rooms in arrival order and the rest are
    overbooked; only walk-ins need a decision. The walk-in loop stops at
    the first walk-in that meets a full house, or that a rule turns away
    while its test can only tighten: the heuristic test and the post-call
    adaptive one (B1 + revealed_B3 = all shows while rooms are free) grow
    with B1 + W1 alone, so every later walk-in would be turned away too.
    The walk-in mass after u is computed only for walk-ins before v, once a
    decision needs it.
    """
    B = len(arrival)
    if B:
        order = np.argsort(arrival, kind="stable")
        ranks = np.flatnonzero(shows[order])  # arrival ranks of the shows
        show_pos = order[ranks]
        # reserved customers processed before each walk-in, and the shows
        # among them
        before = np.searchsorted(arrival[order], walkin_time, side="right")
        shows_before = np.searchsorted(ranks, before).tolist()
        before = before.tolist()
    else:
        show_pos = np.empty(0, dtype=np.intp)
        before = shows_before = [0] * len(walkin_time)
    shows_total = len(show_pos)
    adaptive = kind == "adaptive"
    state = StageTwoState(B=B, C_tilde=C_tilde, C_rooms=C_rooms)
    decided = overbooked = 0  # shows decided so far, and those overbooked
    served_wk = []
    mass = None
    for j, (u, n, s) in enumerate(zip(walkin_time.tolist(), before,
                                      shows_before)):
        free = C_rooms - state.B1 - state.W1
        take = min(s - decided, free)
        state.B1 += take
        overbooked += s - decided - take
        decided = s
        if state.B1 + state.W1 >= C_rooms:
            break
        state.B2 = n - s
        pre_call = adaptive and u < v
        if pre_call:
            if mass is None:
                mass = walkin_rate.mass_after(
                    walkin_time[walkin_time < v]).tolist()
            state.remaining_walkin_mass = mass[j]
            accept = dass2_decide_walkin(state, u, v, q1, alpha)
        elif adaptive:
            # confirmed future check-ins: total shows minus decided ones
            state.revealed_B3 = shows_total - s
            accept = dass2_decide_walkin(state, u, v, q1, alpha)
        else:
            accept = heuristic2_decide_walkin(state, standard)
        if accept:
            served_wk.append(j)
        elif not pre_call:
            break
    take = min(shows_total - decided,
               max(C_rooms - state.B1 - state.W1, 0))
    state.B1 += take
    overbooked += shows_total - decided - take
    return Stage2Result(show_pos[:state.B1], served_wk, overbooked)


def stage2_run(policy, arrival, shows, walkin_time, C_tilde, C_rooms,
               profiles, v):
    q1 = profiles.show_prob
    if isinstance(policy, AdaptivePolicy):
        return replay_stage2(arrival, shows, walkin_time, C_tilde, C_rooms,
                             max(v, 0.0), q1, policy.alpha,
                             profiles.walkin_rate, "adaptive")
    if isinstance(policy, HeuristicPolicy):
        standard = heuristic_stage2_standard(len(arrival), q1)
        return replay_stage2(arrival, shows, walkin_time, C_tilde, C_rooms,
                             max(v, 0.0), q1, 0.0, profiles.walkin_rate,
                             "heuristic", standard=standard)
    raise TypeError(f"no Stage-II rule for {type(policy).__name__}")


def oracle_stage2(arrival, shows, n_walkins, C_rooms):
    """Single-day offline optimum on realized outcomes: serve all showing
    reserved customers if they fit, then the earliest walk-ins; otherwise
    the earliest-arriving shows, up to capacity."""
    finals = np.flatnonzero(shows)
    if len(finals) <= C_rooms:
        return Stage2Result(finals, range(min(n_walkins,
                                              C_rooms - len(finals))), 0)
    first = finals[np.argsort(arrival[finals], kind="stable")[:C_rooms]]
    return Stage2Result(first, range(0), len(finals) - C_rooms)


# ---------------------------------------------------------------------------
# day and horizon execution

@dataclass
class DayOutcome:
    day: int
    B_accepted: int
    type1_served: int
    walkins_served: int
    overbooked: int
    idle: int
    day_loss: float
    C_tilde_used: float


def allocated_capacity(scenario, ledger, k, profiles):
    """(threshold value, physical rooms) available for day k."""
    law = profiles.duration_law
    if law.kind == "constant":
        return scenario.C / law.d, scenario.C // law.d
    free = scenario.C - ledger.occupied(k)
    return float(free), free


def _finish_day(scenario, ledger, k, B, result, C_tilde, realization,
                reserved):
    """Admit the served guests and price the day. reserved: booking
    positions (an index array) of the reserved customers the Stage-II
    result indexes."""
    served = result.served_type1
    stays = (realization.bookings.duration[reserved[served]].tolist()
             if len(served) else [])
    walkin_durations = realization.walkins.lists.duration
    stays += [walkin_durations[j] for j in result.served_walkins]
    if stays:
        ledger.admit(k, stays)
    idle = scenario.C - ledger.occupied(k)
    loss = (scenario.overbook_penalty * result.overbooked
            + scenario.reward * idle)
    return DayOutcome(
        day=k, B_accepted=B,
        type1_served=len(served),
        walkins_served=len(result.served_walkins),
        overbooked=result.overbooked, idle=idle, day_loss=loss,
        C_tilde_used=C_tilde,
    )


def _survivors(realization, accepted):
    """Index array of the accepted bookings that survive the window."""
    accepted = np.array(accepted, dtype=np.intp)
    return accepted[realization.bookings.survives[accepted]]


def run_day(k, realization, stage1_policy, stage2_policy, ledger, scenario,
            survivors=None):
    """One day of the policy trajectory; admits guests into the ledger.
    survivors: positions of the accepted bookings that survive the window,
    if the Stage-I replay has already run."""
    profiles = scenario.profiles_for(k)
    bookings = realization.bookings
    if survivors is None:
        survivors = _survivors(realization, stage1_accept(
            stage1_policy, bookings, profiles, scenario.C))
    C_tilde, C_rooms = allocated_capacity(scenario, ledger, k, profiles)
    result = stage2_run(stage2_policy, bookings.arrival_time[survivors],
                        bookings.shows[survivors], realization.walkins.time,
                        C_tilde, C_rooms, profiles, scenario.v)
    return _finish_day(scenario, ledger, k, len(survivors), result, C_tilde,
                       realization, survivors)


def run_oracle_day(k, realization, survivors, ledger, scenario):
    """One day with offline-optimal Stage II on the surviving bookings at
    the given positions."""
    profiles = scenario.profiles_for(k)
    bookings = realization.bookings
    C_tilde, C_rooms = allocated_capacity(scenario, ledger, k, profiles)
    result = oracle_stage2(bookings.arrival_time[survivors],
                           bookings.shows[survivors],
                           len(realization.walkins), C_rooms)
    return _finish_day(scenario, ledger, k, len(survivors), result, C_tilde,
                       realization, survivors)


def run_benchmark_day(k, realization, ledger, scenario):
    """Clairvoyant Stage-I fill + offline-optimal Stage II."""
    profiles = scenario.profiles_for(k)
    bookings = realization.bookings
    C_tilde, C_rooms = allocated_capacity(scenario, ledger, k, profiles)
    selected = clairvoyant_stage1_select(bookings.survives, bookings.shows,
                                         C_rooms)
    result = oracle_stage2(bookings.arrival_time[selected],
                           bookings.shows[selected],
                           len(realization.walkins), C_rooms)
    return _finish_day(scenario, ledger, k, len(selected), result, C_tilde,
                       realization, selected)


def warm_start_ledger(scenario, rng):
    """Initial occupancy: full house with residual stays.

    Geometric: C guests whose extra nights follow the memoryless law (0
    extra nights frees the room on day 1). Constant(d): floor(C/d) guests
    per residual-age class.
    """
    ledger = OccupancyLedger(scenario.C, scenario.T)
    if not scenario.warm_start or scenario.T == 0:
        return ledger
    law = scenario.profiles_for(1).duration_law
    if law.kind == "geometric":
        if law.q_stay > 0.0:
            extras = rng.geometric(1.0 - law.q_stay, scenario.C) - 1
            ledger.admit(1, [e for e in extras.tolist() if e > 0])
    else:
        per_class = scenario.C // law.d
        ledger.admit(1, [law.d - age for age in range(1, law.d)
                         for _ in range(per_class)])
    return ledger


def realize_day(scenario, rep, k):
    """Sample day k's realization from the documented stream-split rule:
    SeedSequence([master, rep, day, sub]) with sub 1=bookings,
    2=check-in outcomes, 3=walk-ins (0 is the warm start)."""
    profiles = scenario.profiles_for(k)
    bookings = sample_stage1_day(profiles, k, substream(scenario.seed, rep, k, 1))
    attach_stage2_outcomes(bookings, profiles, substream(scenario.seed, rep, k, 2))
    walkins = sample_walkins(profiles, substream(scenario.seed, rep, k, 3))
    return DayRealization(day=k, bookings=bookings, walkins=walkins)


def run_horizon(scenario, stage1_policy, stage2_policy, seed=None, rep=0):
    """Policy trajectory over days 1..T. Deterministic given the seed."""
    if seed is not None:
        scenario = _reseeded(scenario, seed)
    ledger = warm_start_ledger(scenario, substream(scenario.seed, rep, 0, 0))
    outcomes = []
    for k in range(1, scenario.T + 1):
        realization = realize_day(scenario, rep, k)
        outcomes.append(run_day(k, realization, stage1_policy, stage2_policy,
                                ledger, scenario))
    return outcomes


def _reseeded(scenario, seed):
    from dataclasses import replace
    return replace(scenario, seed=seed)


# ---------------------------------------------------------------------------
# regret accounting

@dataclass
class RegretReport:
    policy_loss: np.ndarray
    benchmark_loss: np.ndarray
    regret: np.ndarray
    cumulative_regret: np.ndarray
    stage1_component: np.ndarray | None
    stage2_component: np.ndarray | None
    first_cycle_allowance: float


def first_cycle_allowance(scenario):
    """Idle loss forced in the first duration cycle by the capacity split:
    sum over the first d days of C (d-k)/d r for constant durations, zero
    for geometric."""
    law = scenario.profiles_for(1).duration_law
    if law.kind != "constant":
        return 0.0
    d = law.d
    return sum(scenario.C * (d - k) / d * scenario.reward
               for k in range(1, min(d, scenario.T) + 1))


def compute_regret(policy_outcomes, benchmark_outcomes, scenario,
                   hybrid_outcomes=None):
    if len(policy_outcomes) != len(benchmark_outcomes):
        raise ValueError("mismatched trajectory lengths")
    pol = np.array([o.day_loss for o in policy_outcomes])
    ben = np.array([o.day_loss for o in benchmark_outcomes])
    regret = pol - ben
    s1 = s2 = None
    if hybrid_outcomes is not None:
        hyb = np.array([o.day_loss for o in hybrid_outcomes])
        s1 = hyb - ben
        s2 = pol - hyb
    return RegretReport(
        policy_loss=pol, benchmark_loss=ben, regret=regret,
        cumulative_regret=np.cumsum(regret),
        stage1_component=s1, stage2_component=s2,
        first_cycle_allowance=first_cycle_allowance(scenario),
    )


def run_experiment(scenario, policies, rep=0):
    """All policy trajectories plus hybrid and benchmark on one realization.

    policies: dict name -> AdaptivePolicy | HeuristicPolicy | OraclePolicy.
    Stage-I acceptances depend only on the Stage-I stream, so each policy's
    accepted set is shared between its own and its hybrid trajectory. An
    OraclePolicy is the benchmark itself, so it reports the benchmark's
    losses. Returns dict name -> RegretReport.
    """
    names = [n for n, p in policies.items() if not isinstance(p, OraclePolicy)]
    warm = lambda: warm_start_ledger(  # noqa: E731 - one-line factory
        scenario, substream(scenario.seed, rep, 0, 0))
    bench_ledger = warm()
    ledgers = {n: warm() for n in names}
    hybrid_ledgers = {n: warm() for n in names}
    outcomes = {n: [] for n in names}
    hybrid_outcomes = {n: [] for n in names}
    bench_outcomes = []
    for k in range(1, scenario.T + 1):
        realization = realize_day(scenario, rep, k)
        bench_outcomes.append(run_benchmark_day(k, realization, bench_ledger,
                                                scenario))
        profiles = scenario.profiles_for(k)
        for n in names:
            policy = policies[n]
            survivors = _survivors(realization, stage1_accept(
                policy, realization.bookings, profiles, scenario.C))
            outcomes[n].append(run_day(k, realization, policy, policy,
                                       ledgers[n], scenario, survivors))
            hybrid_outcomes[n].append(run_oracle_day(
                k, realization, survivors, hybrid_ledgers[n], scenario))
    return {n: compute_regret(outcomes.get(n, bench_outcomes), bench_outcomes,
                              scenario, hybrid_outcomes.get(n, bench_outcomes))
            for n in policies}


@dataclass
class AggregateReport:
    """Monte Carlo aggregate of one policy's regret across replications."""

    n_reps: int
    mean_cumulative: np.ndarray
    stderr_cumulative: np.ndarray
    per_rep_total: np.ndarray
    first_cycle_allowance: float

    @property
    def mean_total(self):
        return float(self.mean_cumulative[-1]) if len(self.mean_cumulative) else 0.0

    @property
    def stderr_total(self):
        return float(self.stderr_cumulative[-1]) if len(self.stderr_cumulative) else 0.0


def aggregate(curves):
    """Stack per-rep cumulative-regret curves into mean and standard error."""
    curves = np.asarray(curves, dtype=float)
    n = curves.shape[0]
    mean = curves.mean(axis=0)
    if n > 1:
        stderr = curves.std(axis=0, ddof=1) / np.sqrt(n)
    else:
        stderr = np.zeros_like(mean)
    return n, mean, stderr


def monte_carlo_set(scenario, policies, n_reps):
    """Independent replications of run_experiment; order-independent
    commutative aggregation."""
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")
    curves = {n: [] for n in policies}
    allowance = first_cycle_allowance(scenario)
    for rep in range(n_reps):
        reports = run_experiment(scenario, policies, rep=rep)
        for n, rpt in reports.items():
            curves[n].append(rpt.cumulative_regret)
    out = {}
    for n, cs in curves.items():
        n_reps_, mean, stderr = aggregate(cs)
        out[n] = AggregateReport(
            n_reps=n_reps_, mean_cumulative=mean, stderr_cumulative=stderr,
            per_rep_total=np.asarray([c[-1] for c in cs]),
            first_cycle_allowance=allowance,
        )
    return out


def monte_carlo(scenario, policy, n_reps):
    """Single-policy aggregate (see monte_carlo_set)."""
    return monte_carlo_set(scenario, {"policy": policy}, n_reps)["policy"]


# ---------------------------------------------------------------------------
# single-day cells (fixed surviving bookings, Stage II only)

def single_day_cell(B, C, profiles, v, alpha, kind, n_sims, master_seed,
                    reward=1.0, overbook_penalty=1.0, cell=()):
    """Replications of a single service day with B surviving bookings and
    full capacity C. Returns (policy_losses, oracle_losses,
    rejected_walkins) arrays; the last one supports a capacity-mismatch
    objective that also charges turned-away walk-in demand.

    kind: "adaptive", "heuristic", or "oracle". The offline optimum depends
    on the realization only through the show and walk-in counts, so oracle
    losses (and adaptive at v <= 0, which is identical) are computed from
    counts directly.
    """
    q1 = profiles.show_prob
    pol_losses = np.empty(n_sims)
    ora_losses = np.empty(n_sims)
    rejected = np.empty(n_sims)
    count_based = kind == "oracle" or (kind == "adaptive" and v <= 0.0)
    if kind == "heuristic":
        standard = heuristic_stage2_standard(B, q1)
    for i in range(n_sims):
        rng = substream(master_seed, *cell, i)
        if count_based:
            finals = rng.binomial(B, q1)
            n_wk = rng.poisson(profiles.walkin_rate.mass)
            ora = _count_loss(finals, n_wk, C, reward, overbook_penalty)
            pol_losses[i] = ora_losses[i] = ora
            rejected[i] = n_wk - min(n_wk, max(0, C - finals))
            continue
        type1, walkins = sample_stage2_day(profiles, B, 1, rng)
        n_wk = len(walkins)
        ora_losses[i] = _count_loss(int(np.count_nonzero(type1.shows)), n_wk,
                                    C, reward, overbook_penalty)
        if kind == "adaptive":
            res = replay_stage2(type1.time, type1.shows, walkins.time,
                                float(C), C, max(v, 0.0), q1, alpha,
                                profiles.walkin_rate, "adaptive")
        else:
            res = replay_stage2(type1.time, type1.shows, walkins.time,
                                float(C), C, 0.0, q1, 0.0,
                                profiles.walkin_rate, "heuristic",
                                standard=standard)
        idle = C - len(res.served_type1) - len(res.served_walkins)
        pol_losses[i] = overbook_penalty * res.overbooked + reward * idle
        rejected[i] = n_wk - len(res.served_walkins)
    return pol_losses, ora_losses, rejected


def _count_loss(finals, n_walkins, C, reward, overbook_penalty):
    over = max(0, finals - C)
    idle = max(0, C - finals - n_walkins)
    return overbook_penalty * over + reward * idle

"""Multi-day discrete-event engine.

Each day runs Stage I (booking requests and cancellations replayed through
an admission rule) and Stage II (check-ins, walk-ins, and the confirmation
reveal replayed through a check-in rule), with inter-day coupling only
through the occupancy ledger. One day step, `run_day`, serves every
trajectory: the policy's, the benchmark's (clairvoyant Stage-I selection,
then the offline optimum as check-in rule, on the same realizations:
common random numbers) and a hybrid one (the offline optimum on top of the
policy's Stage-I acceptances), which splits the regret into Stage-I and
Stage-II components. Stage I never reads the ledger and runs a block of
days at a time; Stage II runs day d of a block, on block positions.
"""

from __future__ import annotations

import copy
import heapq
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .benchmarks import clairvoyant_stage1_select, offline_day_optimum
from .flows import (
    StageProfiles,
    reserved_outcomes,
    sample_blocks,
    sample_walkins,
    streams,
)
from .policies import (
    AdaptivePolicy,
    HeuristicPolicy,
    OraclePolicy,
    booking_caps,
    estimated_capacity,
    heuristic_stage1_threshold,
)


class CapacityError(RuntimeError):
    """Committed rooms exceeded physical capacity (engine invariant)."""


@dataclass
class ScenarioConfig:
    """Full generative and economic description of one instance."""

    T: int
    C: int
    v: float
    reward: float
    overbook_penalty: float
    profiles: StageProfiles
    seed: int = 0

    def __post_init__(self):
        # each message starts with the field it names; the booking window
        # [0, k0] is the profiles' booking-rate domain
        k0 = self.profiles.stage1_rate.t1
        for key, ok, rule in (
                ("T", self.T >= 1, "must be at least 1"),
                ("C", self.C >= 1, "must be at least 1"),
                ("v", -k0 < self.v <= 1.0, f"outside (-{k0:g}, 1]"),
                ("reward", 0 <= self.reward < math.inf,
                 "must be finite and nonnegative"),
                ("overbook_penalty", 0 <= self.overbook_penalty < math.inf,
                 "must be finite and nonnegative")):
            if not ok:
                raise ValueError(f"{key}: {rule}, got {getattr(self, key)!r}")


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

    def copy(self):
        """An independent ledger with the same commitments."""
        twin = copy.copy(self)
        twin._leaves = self._leaves.copy()
        return twin


# ---------------------------------------------------------------------------
# Stage-I and Stage-II replays


def replay_stage1(times, cancel_times, caps, first=0):
    """Replay one day's booking requests, and the cancellations of accepted
    ones, in time order. Request i is accepted iff B_alive + 1 <= caps[i];
    cancel_times[i] is nan for a request that survives the window.

    Cancellations are processed before requests at equal timestamps.
    Returns the positions of the accepted requests, counted from `first`.
    """
    heappop, heappush = heapq.heappop, heapq.heappush
    cancels = []
    alive = 0
    accepted = []
    i = first - 1
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


def stage1_accept(policy, bookings, profiles, C, starts):
    """Positions of the bookings accepted under the policy's Stage-I rule
    in a block of days, day d at positions starts[d]:starts[d + 1]; each
    day replays on its own. The adaptive rule accepts request i iff
    stage1_threshold(B_alive + 1, p_i, iota) <= hat_C, that is iff
    B_alive + 1 is at most the request's cap, computed for the whole block
    from the keep values sampled with it (policies.booking_caps)."""
    law, q1 = profiles.duration_law, profiles.show_prob
    if isinstance(policy, AdaptivePolicy):
        hat_C = estimated_capacity(law, C, q1, policy.iota)
        sizes = np.diff(starts)
        caps = booking_caps(hat_C, bookings.keep, policy.iota,
                            np.repeat(sizes, sizes))
    elif isinstance(policy, HeuristicPolicy):
        caps = [heuristic_stage1_threshold(policy, law, C, q1)] * len(bookings)
    else:
        raise TypeError(f"no Stage-I rule for {type(policy).__name__}")
    times, cancels = bookings.lists
    accepted = []
    for o, e in zip(starts, starts[1:]):
        accepted += replay_stage1(times[o:e], cancels[o:e], caps[o:e], o)
    return accepted


@dataclass
class Stage2Result:
    served_type1: np.ndarray  # positions in the reserved-customer arrays
    served_walkins: list | range  # positions in the walk-in arrays
    overbooked: int


def replay_stage2(policy, arrival, shows, walkin_time, C_tilde, C_rooms,
                  profiles, v):
    """Replay one service day through the policy's check-in rule.

    arrival, shows: the reserved customers, in any order (ties in arrival
    keep that order); walkin_time: walk-ins in time order. Reserved
    customers are processed before walk-ins at equal timestamps; the
    adaptive rule's confirmation call at v is processed before any event
    at or after v (at the day start if v <= 0).

    A walk-in is accepted iff the expected final shown-ups, not counting
    it, stay strictly below C_tilde. With B1 reserved customers and W1
    walk-ins checked in so far, those are
    - adaptive before the call: B1 + q1 (B - B1 - B2) + W1 + alpha m(u),
      with B2 the no-shows revealed so far and m(u) the walk-in mass
      after u;
    - adaptive after the call: B1 + B3 + W1, with B3 the confirmed shows
      still to come;
    - heuristic (no call): q1 B + B1 + W1.

    A showing reserved customer gets a room iff one is free, so between two
    walk-ins the shows fill free rooms in arrival order and the rest are
    overbooked; only walk-ins need a decision. The walk-in loop stops at
    the first walk-in that meets a full house, or that a rule turns away
    while its test can only tighten: the heuristic test and the post-call
    one (B1 + B3 = all shows while rooms are free) grow with B1 + W1 alone,
    so every later walk-in would be turned away too. The walk-in mass after
    u is computed only for walk-ins before v, once a decision needs it.

    An OraclePolicy's check-in rule is the offline day optimum
    (`oracle_stage2`).
    """
    if isinstance(policy, OraclePolicy):
        return oracle_stage2(arrival, shows, len(walkin_time), C_rooms)
    B = len(arrival)
    q1 = profiles.show_prob
    if isinstance(policy, AdaptivePolicy):
        alpha, standard = policy.alpha, None
    elif isinstance(policy, HeuristicPolicy):
        # no call: every walk-in faces the one fixed standard
        alpha, standard, v = None, q1 * B, -math.inf
    else:
        raise TypeError(f"no Stage-II rule for {type(policy).__name__}")
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
    B1 = W1 = decided = overbooked = 0  # decided: shows replayed so far
    served_wk = []
    mass = None
    for j, (u, n, s) in enumerate(zip(walkin_time.tolist(), before,
                                      shows_before)):
        take = min(s - decided, C_rooms - B1 - W1)
        B1 += take
        overbooked += s - decided - take
        decided = s
        if B1 + W1 >= C_rooms:
            break
        if u < v:  # adaptive, before the call: n - s no-shows revealed
            if mass is None:
                mass = profiles.walkin_rate.mass_after(
                    walkin_time[walkin_time < v]).tolist()
            if B1 + q1 * (B - B1 - (n - s)) + W1 + alpha * mass[j] < C_tilde:
                W1 += 1
                served_wk.append(j)
        elif ((shows_total - s if standard is None else standard) + B1 + W1
              < C_tilde):
            W1 += 1
            served_wk.append(j)
        else:
            break
    take = min(shows_total - decided, max(C_rooms - B1 - W1, 0))
    B1 += take
    overbooked += shows_total - decided - take
    return Stage2Result(show_pos[:B1], served_wk, overbooked)


def oracle_stage2(arrival, shows, n_walkins, C_rooms):
    """The offline day optimum (benchmarks.offline_day_optimum) as
    positions: the showing reserved customers, or the earliest-arriving
    C_rooms of them when they overflow, and the earliest walk-ins."""
    finals = np.flatnonzero(shows)
    served, walkins, overbooked = offline_day_optimum(len(finals), n_walkins,
                                                      C_rooms)
    if overbooked:
        finals = finals[np.argsort(arrival[finals], kind="stable")[:served]]
    return Stage2Result(finals, range(walkins), overbooked)


# ---------------------------------------------------------------------------
# day execution

def allocated_capacity(scenario, ledger, k):
    """(threshold value, physical rooms) available for day k."""
    law = scenario.profiles.duration_law
    if law.kind == "constant":
        return scenario.C / law.d, scenario.C // law.d
    free = scenario.C - ledger.occupied(k)
    return float(free), free


def _finish_day(scenario, ledger, k, result, block, reserved, w):
    """Admit the served guests and return the day's loss. reserved: block
    positions (an index array) of the reserved customers the Stage-II
    result indexes; w: the block position of the day's first walk-in."""
    served = result.served_type1
    stays = (block.bookings.duration[reserved[served]].tolist()
             if len(served) else [])
    stays += [block.walkin_stays[w + j] for j in result.served_walkins]
    if stays:
        ledger.admit(k, stays)
    idle = scenario.C - ledger.occupied(k)
    return (scenario.overbook_penalty * result.overbooked
            + scenario.reward * idle)


def run_day(k, block, d, policy, ledger, scenario, kept):
    """Day k of one trajectory, day d of the block: the policy's check-in
    rule on the surviving bookings at block positions `kept`. Admits the
    served guests into the ledger and returns the day's loss."""
    bookings = block.bookings
    w, x = block.wk_starts[d:d + 2]
    C_tilde, C_rooms = allocated_capacity(scenario, ledger, k)
    result = replay_stage2(policy, bookings.arrival_time[kept],
                           bookings.shows[kept], block.wk_time[w:x], C_tilde,
                           C_rooms, scenario.profiles, scenario.v)
    return _finish_day(scenario, ledger, k, result, block, kept, w)


def warm_start_ledger(scenario, rng):
    """Initial occupancy: full house with residual stays.

    Geometric: C guests whose extra nights follow the memoryless law (0
    extra nights frees the room on day 1). Constant(d): floor(C/d) guests
    per residual-age class, so O(C) work: when d > C every class is empty.
    """
    ledger = OccupancyLedger(scenario.C, scenario.T)
    law = scenario.profiles.duration_law
    if law.kind == "geometric":
        if law.q_stay > 0.0:
            extras = rng.geometric(1.0 - law.q_stay, scenario.C) - 1
            ledger.admit(1, [e for e in extras.tolist() if e > 0])
    elif scenario.C >= law.d:
        per_class = scenario.C // law.d
        ledger.admit(1, [law.d - age for age in range(1, law.d)
                         for _ in range(per_class)])
    return ledger


def block_survivors(policy, block, scenario):
    """Per day of the block, the block positions (an index array) of the
    bookings the policy accepts in Stage I that survive the window."""
    bookings, starts = block.bookings, block.starts
    kept = np.array(stage1_accept(policy, bookings, scenario.profiles,
                                  scenario.C, starts), dtype=np.intp)
    kept = kept[bookings.survives[kept]]
    cut = kept.searchsorted(starts).tolist()
    return [kept[i:j] for i, j in zip(cut, cut[1:])]


def run_experiment(scenario, policies, rep=0):
    """All policy trajectories plus hybrid and benchmark on one realization.

    policies: dict name -> AdaptivePolicy | HeuristicPolicy | OraclePolicy.
    Stage-I acceptances depend only on the Stage-I stream, so each policy's
    accepted set is shared between its own and its hybrid trajectory. An
    OraclePolicy is the benchmark itself, so it reports the benchmark's
    losses. The warm start is drawn once and copied into every ledger.
    Returns dict name -> (policy, hybrid, benchmark) day losses, float64
    arrays of length T; the regret is policy - benchmark, its Stage-I
    component hybrid - benchmark and its Stage-II component policy - hybrid.
    """
    T = scenario.T
    oracle = OraclePolicy()
    names = [n for n, p in policies.items() if not isinstance(p, OraclePolicy)]
    # one replication's streams in draw order: (rep, 0, 0) for the warm
    # start, then three a day
    rngs = streams(scenario.seed, chain(
        [(rep, 0, 0)], ((rep, k, sub) for k in range(1, T + 1)
                        for sub in (1, 2, 3))))
    bench_ledger = warm_start_ledger(scenario, next(rngs))
    ledgers = {n: (bench_ledger.copy(), bench_ledger.copy()) for n in names}
    bench = np.empty(T)
    losses = {n: (np.empty(T), np.empty(T), bench) for n in names}
    k = 0
    for block in sample_blocks(scenario.profiles, rngs, T):
        survivors = {n: block_survivors(policies[n], block, scenario)
                     for n in names}
        survives, shows = block.bookings.survives, block.bookings.shows
        for d, (o, e) in enumerate(zip(block.starts, block.starts[1:])):
            k += 1
            _, C_rooms = allocated_capacity(scenario, bench_ledger, k)
            selected = o + clairvoyant_stage1_select(survives[o:e],
                                                     shows[o:e], C_rooms)
            bench[k - 1] = run_day(k, block, d, oracle, bench_ledger,
                                   scenario, selected)
            for n in names:
                (ledger, hybrid_ledger), (pol, hyb, _) = ledgers[n], losses[n]
                kept = survivors[n][d]
                pol[k - 1] = run_day(k, block, d, policies[n], ledger,
                                     scenario, kept)
                hyb[k - 1] = run_day(k, block, d, oracle, hybrid_ledger,
                                     scenario, kept)
    return {n: losses.get(n, (bench, bench, bench)) for n in policies}


def aggregate(curves):
    """Mean and standard error over the first axis: per-rep cumulative-regret
    curves, or one value per draw."""
    curves = np.asarray(curves, dtype=float)
    n = curves.shape[0]
    if n < 1:
        raise ValueError("need at least one replication")
    mean = curves.mean(axis=0)
    if n > 1:
        stderr = curves.std(axis=0, ddof=1) / np.sqrt(n)
    else:
        stderr = np.zeros_like(mean)
    return n, mean, stderr


# ---------------------------------------------------------------------------
# single-day cells (fixed surviving bookings, Stage II only)

def single_day_cell(scenario, B, policy, n_sims, master_seed):
    """Replications of a single service day with B surviving bookings and
    full capacity scenario.C, replayed through the policy's Stage-II rule.
    Returns (policy_losses, oracle_losses, rejected_walkins) arrays; the
    last one supports a capacity-mismatch objective that also charges
    turned-away walk-in demand.

    The offline optimum depends on the realization only through the show
    and walk-in counts, so oracle losses (and adaptive ones at v <= 0,
    which are identical) are computed from counts directly.
    """
    profiles, C = scenario.profiles, scenario.C
    pol_losses = np.empty(n_sims)
    ora_losses = np.empty(n_sims)
    rejected = np.empty(n_sims)
    count_based = isinstance(policy, OraclePolicy) or (
        isinstance(policy, AdaptivePolicy) and scenario.v <= 0.0)

    def price(served_type1, served_walkins, overbooked):
        return (scenario.overbook_penalty * overbooked
                + scenario.reward * (C - served_type1 - served_walkins))

    for i, rng in enumerate(streams(master_seed,
                                    ((j,) for j in range(n_sims)))):
        if count_based:
            # shows before walk-ins: the draw order is part of the seed
            # contract
            finals = rng.binomial(B, profiles.show_prob)
            n_wk = rng.poisson(profiles.walkin_rate.mass)
            optimum = offline_day_optimum(finals, n_wk, C)
            pol_losses[i] = ora_losses[i] = price(*optimum)
            rejected[i] = n_wk - optimum[1]
            continue
        # reserved outcomes, stay lengths that nothing reads, then walk-ins:
        # the draw order is part of the seed contract
        arrival, shows = reserved_outcomes(profiles, B, rng)
        profiles.duration_law.sample(rng, B)
        walkin_time = sample_walkins(profiles, rng)
        n_wk = len(walkin_time)
        ora_losses[i] = price(*offline_day_optimum(
            int(np.count_nonzero(shows)), n_wk, C))
        res = replay_stage2(policy, arrival, shows, walkin_time, float(C), C,
                            profiles, scenario.v)
        pol_losses[i] = price(len(res.served_type1), len(res.served_walkins),
                              res.overbooked)
        rejected[i] = n_wk - len(res.served_walkins)
    return pol_losses, ora_losses, rejected

"""Multi-day discrete-event engine.

Each day runs Stage I (booking requests and cancellations replayed through
an admission rule) and Stage II (check-ins, walk-ins, and the confirmation
reveal replayed through a check-in rule), with inter-day coupling only
through the occupancy ledger. On the same realizations (common random
numbers) run the policy's trajectory (`run_day`), the benchmark's
(clairvoyant Stage-I selection, then the offline optimum) and a hybrid
(the offline optimum on the policy's Stage-I acceptances), which splits
the regret into Stage-I and Stage-II components.

Stage I reads stream 1 and constants only, never the ledger, so a
replication runs at two levels. A Stage-I batch of whole days draws those
days' booking requests and their would-be check-ins (streams 1 and 2) and
settles every policy's Stage I at once (`batch_survivors`: numpy lanes, one
per day and policy, stepped once per request position of the batch's
largest day). Stage-II blocks within the batch then draw the walk-ins of
their days (stream 3); Stage II's sorting and counting (`block_checkins`)
runs once per block, and each day decides its check-ins in plain Python
against the ledger."""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .benchmarks import clairvoyant_stage1_select, offline_day_optimum
from .flows import (
    StageProfiles,
    reserved_outcomes,
    sample_batches,
    sample_blocks,
    sample_walkins,
    streams,
)
from .policies import (
    AdaptivePolicy,
    HeuristicPolicy,
    OraclePolicy,
    stage1_caps,
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
        for d in stays:
            j = day + d
            if j > end:
                j = end
            leaves[j] += 1
        self._occupied = occupied

    def copy(self):
        """An independent ledger with the same commitments."""
        twin = copy.copy(self)
        twin._leaves = self._leaves.copy()
        return twin


# ---------------------------------------------------------------------------
# Stage-I and Stage-II replays


def batch_survivors(batch, policies, scenario):
    """A boolean mask per policy, the rows of a policies x requests array,
    of the batch's Bookings it accepts in Stage I that survive the
    window: request i is accepted iff B_alive + 1 <= caps[i], with the
    policy's caps (policies.stage1_caps).

    Every policy's replay runs at once in numpy lanes, one per (day,
    policy), over arrays indexed [i, lane], i a request's position in its
    day, padded to the batch's largest day M. B_alive is whole, so a lane's
    cap is the floor of the policy's cap, clipped at the day's size, as
    int32; -1 pads, and accepts nothing. An accepted booking counts as alive
    up to its slot, the position of the first request of its day it no
    longer counts for; slots do not depend on the policy. A cancel goes
    before requests at equal times, so its slot is the first later request
    of its day at or after it, found by an exact key: the complex number
    day + time * 1j (finite times), which numpy orders by its real part
    first. A survivor, or a cancel after its day's last request, gets the
    day's size, a step of the lane's padding. Step i releases the bookings
    whose slot is i, then decides request i in every lane."""
    starts, n, P = batch.starts, len(batch.time), len(policies)
    sizes = np.diff(starts)
    D, M = len(sizes), int(sizes.max())
    L = D * P
    day = np.repeat(np.arange(D, dtype=np.int32), sizes)
    local = np.arange(n, dtype=np.int32) - np.repeat(  # position in the day
        np.array(starts[:-1], dtype=np.int32), sizes)
    m = np.repeat(sizes.astype(np.int32), sizes)  # the day's size
    rows = local * D + day  # [i, lane] is row i * D + day, column policy
    cap = np.full((M * D, P), -1, dtype=np.int32)
    for p, policy in enumerate(policies):
        cap[rows, p] = np.minimum(np.floor(stage1_caps(
            policy, batch.keep, m, scenario.profiles, scenario.C)), m)
    survives = np.isnan(batch.cancel_time)
    c = np.flatnonzero(~survives)  # the cancelling requests
    slot = m  # the caps are set: m is now each survivor's slot
    # a cancel at the request's own time releases at the next request
    slot[c] = np.maximum((day + batch.time * 1j).searchsorted(
        day[c] + batch.cancel_time[c] * 1j) - c + local[c], local[c] + 1)
    # step i releases cell [i, lane] at slot * L + lane of a flat array;
    # a padding cell accepts nothing, so it releases nothing, at step 0
    at = np.zeros(M * D, dtype=np.int32)
    at[rows] = slot
    fidx = np.empty((M, D, P), dtype=np.int32)
    np.multiply(at.reshape(M, D, 1), L, out=fidx)
    fidx = fidx.reshape(M, L)
    fidx += np.arange(L, dtype=np.int32)
    cap = cap.reshape(M, L)
    gone = np.zeros((M + 1) * L, dtype=np.int32)  # releases at each step
    alive = np.zeros(L, dtype=np.int32)
    acc = np.empty((M, L), dtype=bool)
    for i in range(M):
        alive -= gone[i * L:(i + 1) * L]
        np.less(alive, cap[i], out=acc[i])
        alive += acc[i]
        gone[fidx[i]] += acc[i]
    return acc.reshape(M * D, P)[rows].T & survives


@dataclass(eq=False)
class CheckIns:
    """One trajectory's Stage-II counts over a block of days, as lists:
    kept[d] of its kept bookings in (day, arrival) order come before day
    d, before[j] before walk-in j (reserved customers first at equal
    times), and shows[d] and shows_before[j] of them show. Day d's
    walk-ins are wk_starts[d]:wk_starts[d + 1]; before[j] and mass[j], the
    walk-in mass after j, are read only below calls[d], before the call."""

    kept: list
    before: list
    shows: list
    shows_before: list
    wk_starts: list
    calls: list
    mass: list


def replay_walkins(policy, day, d, C_tilde, C_rooms, q1):
    """Replay day d of `day` (CheckIns) through the policy's check-in rule:
    (reserved customers served, positions j of the walk-ins served,
    overbooked). A walk-in is accepted iff the expected final shown-ups,
    not counting it, stay strictly below C_tilde. With B kept bookings,
    and B1 reserved customers and W1 walk-ins checked in so far, those are
    B1 + q1 (B - B1 - B2) + W1 + alpha m(u) before the adaptive rule's call
    at v (B2 no-shows revealed, m(u) the walk-in mass after u), B1 + B3 +
    W1 after it (B3 shows still to come), and q1 B + B1 + W1 for the
    heuristic. A show gets a room iff one is free, so between two walk-ins
    the shows fill free rooms in arrival order and the rest are
    overbooked. The loop stops at a full house, or at a walk-in turned
    away by a test that can only tighten (heuristic, or after the call)."""
    shows, kept, wk_starts = day.shows, day.kept, day.wk_starts
    decided, shows_end = shows[d], shows[d + 1]  # shows, counted in the block
    no_shows, B = kept[d] - decided, kept[d + 1] - kept[d]  # before the day
    w, call = wk_starts[d], day.calls[d]
    if isinstance(policy, HeuristicPolicy):
        # no call: every walk-in faces the one fixed standard
        alpha, standard, call = None, q1 * B, w
    else:
        alpha, standard = policy.alpha, None
    shows_before = day.shows_before
    B1 = W1 = overbooked = 0
    served_wk = []
    for j in range(w, wk_starts[d + 1]):
        s = shows_before[j]
        take = min(s - decided, C_rooms - B1 - W1)
        B1 += take
        overbooked += s - decided - take
        decided = s
        if B1 + W1 >= C_rooms:
            break
        if j < call:  # adaptive, before the call: no-shows revealed
            if (B1 + q1 * (B - B1 - (day.before[j] - s - no_shows)) + W1
                    + alpha * day.mass[j] < C_tilde):
                W1 += 1
                served_wk.append(j)
        elif ((shows_end - s if standard is None else standard) + B1 + W1
              < C_tilde):
            W1 += 1
            served_wk.append(j)
        else:
            break
    take = min(shows_end - decided, max(C_rooms - B1 - W1, 0))
    B1 += take
    overbooked += shows_end - decided - take
    return B1, served_wk, overbooked


def replay_stage2(policy, arrival, shows, walkin_time, mass, C_tilde,
                  C_rooms, q1):
    """One service day, every booking kept, through `replay_walkins`.
    arrival, shows: the reserved customers, in any order (ties in arrival
    keep it); walkin_time: sorted; mass: a list, the walk-in mass after each
    walk-in before the call, which comes after the first len(mass) walk-ins.
    Returns (positions of the served reserved customers, of the served
    walk-ins, overbooked)."""
    order = np.argsort(arrival, kind="stable")
    ranks = np.flatnonzero(shows[order])  # arrival ranks of the shows
    before = np.searchsorted(arrival[order], walkin_time, side="right")
    day = CheckIns([0, len(order)], before.tolist(), [0, len(ranks)],
                   ranks.searchsorted(before).tolist(), [0, len(walkin_time)],
                   [len(mass)], mass)
    served, served_wk, overbooked = replay_walkins(
        policy, day, 0, C_tilde, C_rooms, q1)
    return order[ranks[:served]], served_wk, overbooked


def block_checkins(block, masks, profiles, v):
    """A (CheckIns, stays) pair per boolean mask in `masks`, the bookings a
    trajectory keeps in the block; stays: its kept shows' stays, each
    day's in arrival order. The bookings are sorted once, ties in request
    order, by the exact complex key day + time·1j (numpy orders complex
    numbers by real part first). A walk-in's key passes those of the
    bookings before it, so counts are cumulative sums in that order."""
    bookings, wk_time = block.bookings, block.wk_time
    starts = bookings.starts
    wk_starts = np.array(block.wk_starts)
    days = np.arange(len(starts) - 1)
    key = np.repeat(days, np.diff(starts)) + bookings.arrival_time * 1j
    order = key.argsort(kind="stable")
    cut = key[order].searchsorted(
        np.repeat(days, np.diff(wk_starts)) + wk_time * 1j, "right")
    early = np.flatnonzero(wk_time < v)  # a prefix of each day's walk-ins
    calls = (wk_starts[:-1] + np.diff(early.searchsorted(wk_starts))).tolist()
    mass = np.zeros(len(wk_time) if len(early) else 0)
    if len(early):
        mass[early] = profiles.walkin_rate.mass_after(wk_time[early])
    mass, shows = mass.tolist(), bookings.shows[order]
    out = []
    for mask in masks:
        in_order = mask[order]
        shown = in_order & shows
        n_kept, n_shown = (np.concatenate(([0], flags.cumsum()))
                           for flags in (in_order, shown))
        out.append((CheckIns(n_kept[starts].tolist(),
                             n_kept[cut].tolist() if len(early) else [],
                             n_shown[starts].tolist(), n_shown[cut].tolist(),
                             block.wk_starts, calls, mass),
                    bookings.duration[order[shown]].tolist()))
    return out


# ---------------------------------------------------------------------------
# day execution

def allocated_capacity(scenario, ledger, k):
    """(threshold value, physical rooms) available for day k."""
    law = scenario.profiles.duration_law
    if law.kind == "constant":
        return scenario.C / law.d, scenario.C // law.d
    free = scenario.C - ledger.occupied(k)
    return float(free), free


def _finish_day(scenario, ledger, k, stays, overbooked):
    """Admit the served guests, one stay each, and return the day's loss."""
    if stays:
        ledger.admit(k, stays)
    idle = scenario.C - ledger.occupied(k)
    return scenario.overbook_penalty * overbooked + scenario.reward * idle


def run_day(k, block, d, day, stays, policy, ledger, scenario):
    """Day k of the policy's trajectory, day d of the block: its check-in
    rule on `day` (CheckIns), `stays` its kept shows' stays in arrival
    order. Admits the served guests, returns the day's loss."""
    C_tilde, C_rooms = allocated_capacity(scenario, ledger, k)
    served, served_wk, overbooked = replay_walkins(
        policy, day, d, C_tilde, C_rooms, scenario.profiles.show_prob)
    a = day.shows[d]
    stays = stays[a:a + served]
    if served_wk:
        stays += [block.walkin_stays[j] for j in served_wk]
    return _finish_day(scenario, ledger, k, stays, overbooked)


def run_oracle_day(k, block, d, cut, stays, ledger, scenario, select=False):
    """Day k of the hybrid or benchmark trajectory, day d of the block: admit
    the offline day optimum on the shows with stays stays[cut[d]:cut[d + 1]],
    in serving order, and the walk-ins (with `select`, the clairvoyant Stage-I
    selection keeps at most C_rooms shows first); return the day's loss."""
    _, C_rooms = allocated_capacity(scenario, ledger, k)
    a, w, finals = cut[d], block.wk_starts[d], cut[d + 1] - cut[d]
    served, walkins, overbooked = offline_day_optimum(
        min(finals, C_rooms) if select else finals,
        block.wk_starts[d + 1] - w, C_rooms)
    return _finish_day(scenario, ledger, k,
                       stays[a:a + served] + block.walkin_stays[w:w + walkins],
                       overbooked)


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


def run_experiment(scenario, policies):
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
    names = [n for n, p in policies.items() if not isinstance(p, OraclePolicy)]
    rules = [policies[n] for n in names]
    # two iterators of streams, each with its own Generator: (0, 0, 0) for
    # the warm start, then stream 3 of each day a Stage-II block at a time;
    # and streams 1 and 2 of each day a Stage-I batch at a time, ahead of
    # them. Each stream depends only on its path, so the order in which the
    # paths are asked for is free. The replication enters through
    # scenario.seed
    rngs = streams(scenario.seed, chain(
        [(0, 0, 0)], ((0, k, 3) for k in range(1, T + 1))))
    bench_ledger = warm_start_ledger(scenario, next(rngs))
    ledgers = {n: (bench_ledger.copy(), bench_ledger.copy()) for n in names}
    bench = np.empty(T)
    losses = {n: (np.empty(T), np.empty(T), bench) for n in names}

    def replay(block, masks, k):  # the block's lists go when it returns
        bookings = block.bookings
        candidates, cut = clairvoyant_stage1_select(
            np.isnan(bookings.cancel_time), bookings.shows, bookings.starts)
        selected = bookings.duration[candidates].tolist()
        days = range(len(bookings.starts) - 1)
        for d in days:
            bench[k + d] = run_oracle_day(k + d + 1, block, d, cut, selected,
                                          bench_ledger, scenario, select=True)
        # each trajectory has its own ledger: they run one after another
        for n, policy, (day, stays) in zip(names, rules, block_checkins(
                block, masks, scenario.profiles, scenario.v)):
            (ledger, hybrid), (pol, hyb, _) = ledgers[n], losses[n]
            for d in days:
                pol[k + d] = run_day(k + d + 1, block, d, day, stays, policy,
                                     ledger, scenario)
                hyb[k + d] = run_oracle_day(k + d + 1, block, d, day.shows,
                                            stays, hybrid, scenario)
        return k + len(days)

    k = 0  # days done
    for batch in sample_batches(scenario.profiles, streams(
            scenario.seed, ((0, day, sub) for day in range(1, T + 1)
                            for sub in (1, 2))), T, len(rules)):
        masks, o = batch_survivors(batch, rules, scenario), 0
        for block in sample_blocks(scenario.profiles, batch, rngs):
            e = o + len(block.bookings)  # the block's requests are o:e
            k, o = replay(block, masks[:, o:e], k), e
            del block  # each is freed before the next is drawn
        del batch, masks
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
    return mean, stderr


# ---------------------------------------------------------------------------
# single-day cells (fixed surviving bookings, Stage II only)

# the draws of a single-day cell are replayed in chunks that close once they
# reach this many events (reserved customers and walk-ins), each with one
# mass_after call: at about 9 bytes an event a chunk holds about 0.6 MB plus
# its last draw, however many draws a cell has
_CELL_EVENTS = 2 ** 16


def single_day_cell(scenario, B, policy, n_sims, master_seed):
    """Replications of a single service day with B surviving bookings and
    full capacity scenario.C, replayed through the policy's Stage-II rule.
    Returns (policy_losses, oracle_losses, rejected_walkins) arrays; the
    last one supports a capacity-mismatch objective that also charges
    turned-away walk-in demand.

    The offline optimum depends on the realization only through the show
    and walk-in counts, so oracle losses (and adaptive ones at v <= 0,
    which are identical) are computed from counts directly. Otherwise the
    draws are sampled a chunk at a time, and the walk-in mass after every
    walk-in of the chunk before the call comes from one mass_after call.
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

    def replay(first, draws):  # draws: (arrival, shows, walk-in times)
        calls = [int(wk.searchsorted(scenario.v)) for _, _, wk in draws]
        mass = profiles.walkin_rate.mass_after(np.concatenate(
            [wk[:call] for (_, _, wk), call in zip(draws, calls)])).tolist()
        o = 0  # the draw's first walk-in mass
        for i, ((arrival, shows, walkin_time), call) in enumerate(
                zip(draws, calls), first):
            n_wk = len(walkin_time)
            ora_losses[i] = price(*offline_day_optimum(
                int(np.count_nonzero(shows)), n_wk, C))
            served, served_wk, overbooked = replay_stage2(
                policy, arrival, shows, walkin_time, mass[o:o + call],
                float(C), C, profiles.show_prob)
            pol_losses[i] = price(len(served), len(served_wk), overbooked)
            rejected[i] = n_wk - len(served_wk)
            o += call

    draws, events = [], 0
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
        draws.append((arrival, shows, walkin_time))
        events += B + len(walkin_time)
        if events >= _CELL_EVENTS or i == n_sims - 1:
            replay(i + 1 - len(draws), draws)
            draws, events = [], 0
    return pol_losses, ora_losses, rejected

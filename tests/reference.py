"""Plain record-based reference for the array day engine.

One object per customer, a scalar keep-curve lookup and a scalar threshold
per request, a sorted event list per service day, and a dict ledger with
one entry per room-night. It is slow and obvious on purpose: the property
tests hold the struct-of-arrays engine in `roomflow.engine` to it, day by
day, on the same realizations.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

import roomflow.engine as E
from roomflow.flows import substream
from roomflow.policies import (
    AdaptivePolicy,
    OraclePolicy,
    StageTwoState,
    dass2_decide_walkin,
    estimated_capacity,
    heuristic2_decide_walkin,
    heuristic_stage1_threshold,
    heuristic_stage2_standard,
    stage1_threshold,
    type1_checkin_decide,
)


@dataclass
class Booking:
    request_time: float
    survives: bool
    cancel_time: float | None
    duration: int
    arrival_time: float
    shows: bool


@dataclass
class Guest:
    """A Stage-II arrival: a reserved customer or a walk-in."""

    arrival_time: float
    shows: bool
    duration: int


# ---------------------------------------------------------------------------
# sampling: the scalar draw sequence

def sample_times(rate, n, rng):
    """RateFunction.sample_times with numpy's own weighted choice."""
    if n == 0:
        return np.empty(0)
    if rate.kind == "beta":
        return rate.t0 + (rate.t1 - rate.t0) * rng.beta(rate.a, rate.b, n)
    idx = rng.choice(len(rate.piece_mass), size=n,
                     p=rate.piece_mass / rate.mass)
    u = rng.random(n)
    return rate.breaks[idx] + u * (rate.breaks[idx + 1] - rate.breaks[idx])


def sample_nhpp(rate, rng):
    if rate.mass <= 0:
        return np.empty(0)
    return np.sort(sample_times(rate, rng.poisson(rate.mass), rng))


def _inverse(curve, y):
    i = int(np.searchsorted(curve.values, y, side="left"))
    if i == 0:
        return float(curve.times[0])
    v0, v1 = curve.values[i - 1], curve.values[i]
    t0, t1 = curve.times[i - 1], curve.times[i]
    if v1 == v0:
        return float(t0)
    return float(t0 + (y - v0) / (v1 - v0) * (t1 - t0))


def cancel_time(curve, s, rng):
    """Cancellation time of one non-surviving request booked at s."""
    p_s = float(curve.value(s))
    if p_s <= 0.0:
        return min(curve.t_end, s + 1e-12 * max(1.0, curve.t_end
                                                - curve.t_start))
    u = 1.0 - rng.random()
    y = p_s / (1.0 - u * (1.0 - p_s))
    return max(_inverse(curve, min(y, 1.0)), s)


def sample_stage1(profiles, rng):
    """(request_time, survives, cancel_time or None, duration) per request,
    with one scalar cancellation draw per cancelling request."""
    curve = profiles.keep_curve
    times = sample_nhpp(profiles.stage1_rate, rng)
    n = len(times)
    survives = rng.random(n) < np.atleast_1d(curve.value(times))
    durations = profiles.duration_law.sample(rng, n)
    return [(float(times[i]), bool(survives[i]),
             None if survives[i] else cancel_time(curve, times[i], rng),
             int(durations[i])) for i in range(n)]


def realize_day(scenario, rep, k):
    """(bookings, walk-ins) of day k from the documented streams, drawn
    record by record."""
    profiles = scenario.profiles_for(k)
    stage1 = sample_stage1(profiles, substream(scenario.seed, rep, k, 1))
    rng = substream(scenario.seed, rep, k, 2)
    n = len(stage1)
    arrival = sample_times(profiles.arrival_density, n, rng)
    shows = rng.random(n) < profiles.show_prob
    bookings = [Booking(t, s, c, d, float(arrival[i]), bool(shows[i]))
                for i, (t, s, c, d) in enumerate(stage1)]
    rng = substream(scenario.seed, rep, k, 3)
    times = sample_nhpp(profiles.walkin_rate, rng)
    durations = profiles.duration_law.sample(rng, len(times))
    walkins = [Guest(float(t), True, int(d))
               for t, d in zip(times, np.atleast_1d(durations))]
    return bookings, walkins


# ---------------------------------------------------------------------------
# replays

class DictLedger:
    """Committed room-nights by absolute day, one dict entry per night."""

    def __init__(self, C, T):
        self.C = C
        self.T = T
        self.committed = {}
        self.total_room_nights = 0

    def occupied(self, day):
        return self.committed.get(day, 0)

    def admit(self, day, duration):
        last = min(day + duration - 1, self.T)
        for j in range(day, last + 1):
            n = self.committed.get(j, 0) + 1
            if n > self.C:
                raise E.CapacityError(f"day {j}: {n} > {self.C}")
            self.committed[j] = n
        self.total_room_nights += max(0, last - day + 1)


def warm_start(scenario, rng):
    ledger = DictLedger(scenario.C, scenario.T)
    if not scenario.warm_start or scenario.T == 0:
        return ledger
    law = scenario.profiles_for(1).duration_law
    if law.kind == "geometric":
        if law.q_stay > 0.0:
            for extra in rng.geometric(1.0 - law.q_stay, scenario.C) - 1:
                if extra > 0:
                    ledger.admit(1, int(extra))
    else:
        for age in range(1, law.d):
            for _ in range(scenario.C // law.d):
                ledger.admit(1, law.d - age)
    return ledger


def replay_stage1(bookings, decide):
    """Accepted bookings under decide(t, B_alive); cancellations first at
    equal times."""
    cancels = []
    alive = 0
    accepted = []
    for rec in bookings:
        while cancels and cancels[0] <= rec.request_time:
            heapq.heappop(cancels)
            alive -= 1
        if decide(rec.request_time, alive):
            alive += 1
            accepted.append(rec)
            if not rec.survives:
                heapq.heappush(cancels, rec.cancel_time)
    return accepted


def stage1_accept(policy, bookings, profiles, C):
    curve = profiles.keep_curve
    if isinstance(policy, AdaptivePolicy):
        hat_C = estimated_capacity(profiles.duration_law, C,
                                   profiles.show_prob, policy.iota)

        def decide(t, alive):
            p = float(curve.value(t))
            return stage1_threshold(alive + 1, p, policy.iota) <= hat_C
    else:
        cap = heuristic_stage1_threshold(policy, profiles.duration_law, C,
                                         profiles.show_prob)

        def decide(t, alive):
            return alive + 1 <= cap
    return replay_stage1(bookings, decide)


def replay_stage2(survivors, walkins, C_tilde, C_rooms, v, q1, alpha,
                  walkin_rate, kind, standard=None):
    """(served reserved, served walk-ins, overbooked) of one service day,
    one event at a time."""
    events = [(r.arrival_time, 0, r) for r in survivors]
    events += [(r.arrival_time, 1, r) for r in walkins]
    events.sort(key=lambda e: (e[0], e[1]))
    state = StageTwoState(B=len(survivors), C_tilde=C_tilde, C_rooms=C_rooms)
    shows_total = sum(1 for r in survivors if r.shows)
    served_t1, served_wk = [], []
    overbooked = 0
    revealed = kind == "adaptive" and v <= 0.0
    if revealed:
        state.revealed_B3 = shows_total
    for u, tag, rec in events:
        if kind == "adaptive" and not revealed and u >= v:
            state.revealed_B3 = shows_total - state.B1 - overbooked
            revealed = True
        if tag == 0:
            if rec.shows:
                if revealed:
                    state.revealed_B3 -= 1
                if type1_checkin_decide(state):
                    state.B1 += 1
                    served_t1.append(rec)
                else:
                    overbooked += 1
            else:
                state.B2 += 1
        else:
            if kind == "adaptive":
                if not revealed:
                    state.remaining_walkin_mass = walkin_rate.mass_after(u)
                accept = dass2_decide_walkin(state, u, v, q1, alpha)
            else:
                accept = heuristic2_decide_walkin(state, standard)
            if accept:
                served_wk.append(rec)
    return served_t1, served_wk, overbooked


def oracle_stage2(survivors, walkins, C_rooms):
    finals = sorted((r for r in survivors if r.shows),
                    key=lambda r: r.arrival_time)
    if len(finals) <= C_rooms:
        return finals, walkins[:C_rooms - len(finals)], 0
    return finals[:C_rooms], [], len(finals) - C_rooms


# ---------------------------------------------------------------------------
# trajectories

def _capacity(scenario, ledger, k, profiles):
    law = profiles.duration_law
    if law.kind == "constant":
        return scenario.C / law.d, scenario.C // law.d
    free = scenario.C - ledger.occupied(k)
    return float(free), free


def _finish(scenario, ledger, k, served, overbooked):
    for rec in served:
        ledger.admit(k, rec.duration)
    idle = scenario.C - ledger.occupied(k)
    return scenario.overbook_penalty * overbooked + scenario.reward * idle


def run_experiment(scenario, policies, rep=0):
    """name -> (policy, hybrid, benchmark) per-day loss lists."""
    warm = lambda: warm_start(  # noqa: E731
        scenario, substream(scenario.seed, rep, 0, 0))
    bench_ledger = warm()
    ledgers = {n: (warm(), warm()) for n in policies}
    bench = []
    losses = {n: ([], []) for n in policies}
    for k in range(1, scenario.T + 1):
        profiles = scenario.profiles_for(k)
        bookings, walkins = realize_day(scenario, rep, k)
        _, C_rooms = _capacity(scenario, bench_ledger, k, profiles)
        selected = [r for r in bookings if r.survives and r.shows][:C_rooms]
        t1, wk, over = oracle_stage2(selected, walkins, C_rooms)
        bench.append(_finish(scenario, bench_ledger, k, t1 + wk, over))
        for n, policy in policies.items():
            if isinstance(policy, OraclePolicy):
                continue
            led, hyb_led = ledgers[n]
            survivors = [r for r in stage1_accept(policy, bookings,
                                                  profiles, scenario.C)
                         if r.survives]
            C_tilde, C_rooms = _capacity(scenario, led, k, profiles)
            v = max(scenario.v, 0.0)
            if isinstance(policy, AdaptivePolicy):
                t1, wk, over = replay_stage2(
                    survivors, walkins, C_tilde, C_rooms, v,
                    profiles.show_prob, policy.alpha, profiles.walkin_rate,
                    "adaptive")
            else:
                t1, wk, over = replay_stage2(
                    survivors, walkins, C_tilde, C_rooms, v,
                    profiles.show_prob, 0.0, profiles.walkin_rate,
                    "heuristic", heuristic_stage2_standard(
                        len(survivors), profiles.show_prob))
            losses[n][0].append(_finish(scenario, led, k, t1 + wk, over))
            _, C_rooms = _capacity(scenario, hyb_led, k, profiles)
            t1, wk, over = oracle_stage2(survivors, walkins, C_rooms)
            losses[n][1].append(_finish(scenario, hyb_led, k, t1 + wk, over))
    return {n: (bench, bench, bench) if isinstance(p, OraclePolicy)
            else (losses[n][0], losses[n][1], bench)
            for n, p in policies.items()}

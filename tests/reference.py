"""Plain record-based reference for the array day engine.

One object per customer, a scalar keep-curve lookup and a scalar threshold
per request, a sorted event list per service day, and a dict ledger with
one entry per room-night. It is slow and obvious on purpose: the property
tests hold the struct-of-arrays engine in `roomflow.engine` to it, day by
day, on the same realizations. The Stage-II check-in rules are this
module's own copies, one running-counter state per customer, so the engine's
replay is never compared with itself; `mass_between` is the two-sided
walk-in mass those rules read, where the engine's `RateFunction.mass_after`
holds the upper end at the day's end. `brute_force_day_optimal` is the
enumeration oracle for the offline day optimum, and
`estimated_capacity_bisection` solves for the capacity estimate by
bisection where the engine inverts the threshold in closed form, and
`max_bookings_within` finds a request's Stage-I cap the same way.
`engine_days` steps the engine's own policy trajectory day by day for the
invariant tests, whose room-night conservation checks count the nights
admitted outside the engine (`CountingLedger`, `counting_warm_start`).
`sampled_batches` yields the engine's Stage-I batches with their Stage-II
blocks, and `sampled_days` yields their days one at a time.
`fit_poisson_mixture` runs the EM restarts of the walk-in mixture fit one
after another, where `roomflow.calibration` runs them together, and
`ingest_bookings` reads a booking dataset one csv record at a time, where
`roomflow.calibration` checks clean files a column at a time. Synthetic
booking datasets come from the benchmark's own generator
(`load_perfbench_workloads`, `write_bookings`), and fitted-model files are
read back by the benchmark's reader (`checks.read_model` of the loaded
module).
"""

from __future__ import annotations

import csv
import datetime
import functools
import heapq
import importlib.util
import itertools
import math
import sys
import unittest.mock
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy.special import betainc, gammaln, logsumexp

import roomflow.calibration as C
import roomflow.engine as E
from roomflow.flows import Bookings, sample_batches, sample_blocks, streams
from roomflow.policies import (
    AdaptivePolicy,
    OraclePolicy,
    departure_floor,
    estimated_capacity,
    stage1_threshold,
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

def substream(master_seed, *path):
    """Generator for one sub-process: numpy's own
    default_rng(SeedSequence([master, *path])), one fresh object per
    stream, as `roomflow.flows.streams` must reproduce."""
    entropy = [int(master_seed)] + [int(x) for x in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def day_streams(seed, rep, days, subs):
    """The streams `subs` of the given days of replication rep, day by
    day: (1, 2) for `flows.sample_batches`, (3,) for `flows.sample_blocks`."""
    return streams(seed, ((rep, k, sub) for k in days for sub in subs))


@dataclass
class SampledDay:
    """One day cut out of a sampled block: its bookings, and its walk-ins'
    times and stays."""

    bookings: Bookings
    wk_time: np.ndarray
    walkin_stays: list


def sampled_batches(profiles, seed, days, rep=0):
    """The engine's realizations of the given days (a sequence of day
    numbers) of replication rep: yields each Stage-I batch, sized for one
    policy, with its Stage-II blocks, as a list of (the block's first
    request in the batch, DayBlock)."""
    rngs = day_streams(seed, rep, days, (3,))
    for batch in sample_batches(profiles, day_streams(seed, rep, days, (1, 2)),
                                len(days), 1):
        blocks = list(sample_blocks(profiles, batch, rngs))
        yield batch, list(zip(itertools.accumulate(
            (len(b.bookings) for b in blocks), initial=0), blocks))


def sampled_days(profiles, seed, days, rep=0):
    """The engine's realizations of the given days (a sequence of day
    numbers) of replication rep, one day at a time."""
    for _, blocks in sampled_batches(profiles, seed, days, rep):
        for _, block in blocks:
            b = block.bookings
            arrays = [f.name for f in fields(b) if f.name != "starts"]
            for (o, e), (w, x) in zip(itertools.pairwise(b.starts),
                                      itertools.pairwise(block.wk_starts)):
                yield SampledDay(
                    Bookings(*(getattr(b, name)[o:e] for name in arrays),
                             [0, e - o]),
                    block.wk_time[w:x], block.walkin_stays[w:x])


def engine_days(scenario, policy, ledger):
    """The engine's policy trajectory on `ledger`, one day at a time:
    yields (k, day loss, guests served on day k)."""
    k = 0
    for batch, blocks in sampled_batches(scenario.profiles, scenario.seed,
                                         range(1, scenario.T + 1)):
        mask, = E.batch_survivors(batch, [policy], scenario)
        for o, block in blocks:
            (day, stays), = E.block_checkins(
                block, [mask[o:o + len(block.bookings)]], scenario.profiles,
                scenario.v)
            for d in range(len(block.bookings.starts) - 1):
                k += 1
                carried = ledger.occupied(k)
                loss = E.run_day(k, block, d, day, stays, policy, ledger,
                                 scenario)
                yield k, loss, ledger.occupied(k) - carried


def sample_times(rate, n, rng):
    """RateFunction.times(draw(n, rng)), one kind of draw after another."""
    if n == 0:
        return np.empty(0)
    if rate.kind == "beta":
        return rate.t0 + (rate.t1 - rate.t0) * rng.beta(rate.a, rate.b, n)
    rng.random(n)  # drawn and unread, as the seed contract fixes
    return rate.t0 + (rate.t1 - rate.t0) * rng.random(n)


def sample_nhpp(rate, rng):
    if rate.mass <= 0:
        return np.empty(0)
    return np.sort(sample_times(rate, rng.poisson(rate.mass), rng))


def mass_between(rate, lo, hi):
    """Mass of a RateFunction over [lo, hi], from its cumulative mass at
    each end; lo and hi may be arrays of the same shape."""
    lo = np.maximum(lo, rate.t0)
    hi = np.minimum(hi, rate.t1)
    if rate.kind == "beta":
        span = rate.t1 - rate.t0
        zlo = (lo - rate.t0) / span
        zhi = (hi - rate.t0) / span
        mass = rate.mass * (betainc(rate.a, rate.b, zhi)
                            - betainc(rate.a, rate.b, zlo))
    else:
        mass = _flat_mass_to(rate, hi) - _flat_mass_to(rate, lo)
    mass = np.where(hi <= lo, 0.0, mass)
    return float(mass) if mass.ndim == 0 else mass


def _flat_mass_to(rate, x):
    """Flat mass over [t0, x], for x inside the domain."""
    return (x - rate.t0) / (rate.t1 - rate.t0) * rate.mass


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
    with one scalar cancellation draw per cancelling request with p > 0;
    the stream then draws the unused rest of the day's n cancel uniforms."""
    curve = profiles.keep_curve
    times = sample_nhpp(profiles.stage1_rate, rng)
    n = len(times)
    survives = rng.random(n) < np.atleast_1d(curve.value(times))
    durations = profiles.duration_law.sample(rng, n)
    out = [(float(times[i]), bool(survives[i]),
            None if survives[i] else cancel_time(curve, times[i], rng),
            int(durations[i])) for i in range(n)]
    drawn = sum(not s and curve.value(t) > 0 for t, s, _, _ in out)
    rng.random(n - drawn)
    return out


def realize_day(scenario, rep, k):
    """(bookings, walk-ins) of day k from the documented streams, drawn
    record by record."""
    profiles = scenario.profiles
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

    def occupied(self, day):
        return self.committed.get(day, 0)

    def admit(self, day, duration):
        last = min(day + duration - 1, self.T)
        for j in range(day, last + 1):
            n = self.committed.get(j, 0) + 1
            if n > self.C:
                raise E.CapacityError(f"day {j}: {n} > {self.C}")
            self.committed[j] = n


class CountingLedger(E.OccupancyLedger):
    """The engine's ledger, which also counts the room-nights inside the
    horizon of every guest it admits, from their stays alone: a guest
    admitted on day k for d nights holds min(d, T + 1 - k) of them."""

    room_nights = 0

    def admit(self, day, stays):
        super().admit(day, stays)
        self.room_nights += sum(min(d, self.T + 1 - day) for d in stays)


def counting_warm_start(scenario, rng):
    """`engine.warm_start_ledger`'s ledger as a CountingLedger, so that its
    warm-start guests are counted too."""
    with unittest.mock.patch.object(E, "OccupancyLedger", CountingLedger):
        return E.warm_start_ledger(scenario, rng)


def warm_start(scenario, rng):
    ledger = DictLedger(scenario.C, scenario.T)
    law = scenario.profiles.duration_law
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


def accepted_positions(times, cancel_times, caps):
    """Positions of the requests `replay_stage1` accepts when request i is
    accepted iff B_alive + 1 <= caps[i]; cancel_times[i] is nan for a
    request that survives the window."""
    records = [Booking(t, math.isnan(c), c, 1, 0.0, True)
               for t, c in zip(times, cancel_times)]
    caps = iter(caps)
    accepted = {id(rec) for rec in replay_stage1(
        records, lambda t, alive: alive + 1 <= next(caps))}
    return [i for i, rec in enumerate(records) if id(rec) in accepted]


def stage1_accept(policy, bookings, profiles, C):
    curve = profiles.keep_curve
    if isinstance(policy, AdaptivePolicy):
        hat_C = estimated_capacity(profiles.duration_law, C,
                                   profiles.show_prob, policy.iota)

        def decide(t, alive):
            p = float(curve.value(t))
            return stage1_threshold(alive + 1, p, policy.iota) <= hat_C
    else:
        # the heuristic's fixed cap (1 + beta) * delta * C / q1
        cap = ((1.0 + policy.beta) * profiles.duration_law.delta * C
               / profiles.show_prob)

        def decide(t, alive):
            return alive + 1 <= cap
    return replay_stage1(bookings, decide)


@dataclass
class StageTwoState:
    """Running Stage-II counters a check-in rule may read.

    revealed_B3 is the number of confirmed future check-ins remaining at the
    current time: it is set at the confirmation call and decremented as
    those customers check in, so B1 + revealed_B3 always equals the final
    Type-I check-in total once the call has happened.
    """

    B: int                   # surviving bookings at day start
    B1: int = 0              # checked in so far
    B2: int = 0              # revealed cancellations (no-shows) so far
    W1: int = 0              # accepted walk-ins so far
    revealed_B3: int | None = None
    C_tilde: float = 0.0     # allocated capacity (may be fractional)
    C_rooms: int = 0         # physical rooms available (floor of C_tilde)
    remaining_walkin_mass: float = 0.0

    def __post_init__(self):
        if self.B1 + self.B2 > self.B:
            raise ValueError("more determined customers than bookings")
        if self.W1 < 0:
            raise ValueError("negative walk-in count")


def expected_shownups(state, u, v, q1, alpha):
    """Expected final occupied rooms from the Stage-II viewpoint at time u."""
    if not 0.0 <= u <= 1.0:
        raise ValueError("u outside the service day")
    if u < v:
        return (state.B1 + q1 * (state.B - state.B1 - state.B2) + state.W1
                + alpha * state.remaining_walkin_mass)
    if state.revealed_B3 is None:
        raise ValueError("confirmation outcome not revealed at u >= v")
    return state.B1 + state.revealed_B3 + state.W1


def dass2_decide_walkin(state, u, v, q1, alpha):
    """Accept iff expected shown-ups stay strictly below the allocated
    capacity (the candidate itself is not counted) and a room is free."""
    accept = (expected_shownups(state, u, v, q1, alpha) < state.C_tilde
              and state.B1 + state.W1 < state.C_rooms)
    if accept:
        state.W1 += 1
    return accept


def heuristic_stage2_standard(B, q1):
    """Constant expected-shows standard q1 * B."""
    if B < 0:
        raise ValueError("B must be nonnegative")
    return q1 * B


def heuristic2_decide_walkin(state, standard):
    """Accept iff standard + B1 + W1 < C_tilde and a room is free."""
    accept = (standard + state.B1 + state.W1 < state.C_tilde
              and state.B1 + state.W1 < state.C_rooms)
    if accept:
        state.W1 += 1
    return accept


def type1_checkin_decide(state):
    """Offer a room to a showing reserved customer iff one is free; the
    caller counts a rejection as one overbooking event."""
    return state.B1 + state.W1 < state.C_rooms


def replay_stage2(policy, survivors, walkins, C_tilde, C_rooms, profiles, v):
    """(served reserved, served walk-ins, overbooked) of one service day,
    one event at a time."""
    events = [(r.arrival_time, 0, r) for r in survivors]
    events += [(r.arrival_time, 1, r) for r in walkins]
    events.sort(key=lambda e: (e[0], e[1]))
    q1 = profiles.show_prob
    adaptive = isinstance(policy, AdaptivePolicy)
    standard = heuristic_stage2_standard(len(survivors), q1)
    state = StageTwoState(B=len(survivors), C_tilde=C_tilde, C_rooms=C_rooms)
    shows_total = sum(1 for r in survivors if r.shows)
    served_t1, served_wk = [], []
    overbooked = 0
    revealed = adaptive and v <= 0.0
    if revealed:
        state.revealed_B3 = shows_total
    for u, tag, rec in events:
        if adaptive and not revealed and u >= v:
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
            if adaptive:
                if not revealed:
                    rate = profiles.walkin_rate
                    state.remaining_walkin_mass = mass_between(rate, u,
                                                               rate.t1)
                accept = dass2_decide_walkin(state, u, v, q1, policy.alpha)
            else:
                accept = heuristic2_decide_walkin(state, standard)
            if accept:
                served_wk.append(rec)
    return served_t1, served_wk, overbooked


def brute_force_day_optimal(finals, n_walkins, C, reward, overbook_penalty):
    """Exact minimal day loss with `finals` showing reserved customers and
    `n_walkins` walk-ins: every walk-in accept subset is enumerated, with
    reserved service maximized for each subset."""
    if n_walkins > 20:
        raise ValueError("instance above the enumeration bound")
    best = math.inf
    for subset in itertools.product((0, 1), repeat=n_walkins):
        w = sum(subset)
        if w > C:
            continue
        served_type1 = min(finals, C - w)
        overbooked = finals - served_type1
        idle = C - served_type1 - w
        best = min(best, overbook_penalty * overbooked + reward * idle)
    return best


def estimated_capacity_bisection(law, C, q1, iota):
    """hat_C with stage1_threshold(hat_C, q1, iota) equal to the departure
    LCB, by bisection on the strictly increasing threshold, down to the
    width of one float."""
    if C < 1 or not 0.0 < q1 <= 1.0 or iota < 0:
        raise ValueError("estimated_capacity domain violation")
    rhs = departure_floor(law, C, iota)
    if rhs <= 0:
        raise ValueError("infeasible instance: departure bound is nonpositive")
    if rhs <= stage1_threshold(0.0, q1, iota):
        return 0.0
    lo, hi = 0.0, max(1.0, C / q1)
    while stage1_threshold(hi, q1, iota) < rhs:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if stage1_threshold(mid, q1, iota) < rhs:
            lo = mid
        else:
            hi = mid


def max_bookings_within(hat_C, p_t, iota):
    """Largest integer B with stage1_threshold(B, p_t, iota) <= hat_C, by
    an exponential bracket up from 0 and integer bisection on the
    nondecreasing threshold. Returns -1 when even B = 0 exceeds hat_C, and
    math.inf when the bound passes 2**53 (p_t = 0: the threshold does not
    grow with B)."""
    def fits(n):
        return stage1_threshold(n, p_t, iota) <= hat_C

    if not fits(0):
        return -1
    lo, hi = 0, 1
    while fits(hi):
        if hi >= 2 ** 53:
            return math.inf
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


def oracle_stage2(survivors, walkins, C_rooms):
    finals = sorted((r for r in survivors if r.shows),
                    key=lambda r: r.arrival_time)
    if len(finals) <= C_rooms:
        return finals, walkins[:C_rooms - len(finals)], 0
    return finals[:C_rooms], [], len(finals) - C_rooms


# ---------------------------------------------------------------------------
# trajectories

def _capacity(scenario, ledger, k):
    law = scenario.profiles.duration_law
    if law.kind == "constant":
        return scenario.C / law.d, scenario.C // law.d
    free = scenario.C - ledger.occupied(k)
    return float(free), free


def _finish(scenario, ledger, k, served, overbooked):
    for rec in served:
        ledger.admit(k, rec.duration)
    idle = scenario.C - ledger.occupied(k)
    return scenario.overbook_penalty * overbooked + scenario.reward * idle


def run_experiment(scenario, policies):
    """name -> (policy, hybrid, benchmark) per-day loss lists."""
    warm = lambda: warm_start(  # noqa: E731
        scenario, substream(scenario.seed, 0, 0, 0))
    bench_ledger = warm()
    ledgers = {n: (warm(), warm()) for n in policies}
    bench = []
    losses = {n: ([], []) for n in policies}
    for k in range(1, scenario.T + 1):
        profiles = scenario.profiles
        bookings, walkins = realize_day(scenario, 0, k)
        _, C_rooms = _capacity(scenario, bench_ledger, k)
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
            C_tilde, C_rooms = _capacity(scenario, led, k)
            t1, wk, over = replay_stage2(policy, survivors, walkins, C_tilde,
                                         C_rooms, profiles, scenario.v)
            losses[n][0].append(_finish(scenario, led, k, t1 + wk, over))
            _, C_rooms = _capacity(scenario, hyb_led, k)
            t1, wk, over = oracle_stage2(survivors, walkins, C_rooms)
            losses[n][1].append(_finish(scenario, hyb_led, k, t1 + wk, over))
    return {n: (bench, bench, bench) if isinstance(p, OraclePolicy)
            else (losses[n][0], losses[n][1], bench)
            for n, p in policies.items()}


# ---------------------------------------------------------------------------
# calibration

def _booking_record(fields):
    """One dataset record, its fields in dataset-column order, as a
    BOOKING_DTYPE tuple; a broken rule raises ValueError."""
    date, lead, canceled, cancel_lead, stay, walkin = fields
    day = datetime.date.fromisoformat(date).toordinal()
    canceled, walkin = canceled.strip(), walkin.strip()
    if canceled not in ("0", "1") or walkin not in ("0", "1"):
        raise ValueError("boolean columns must be 0 or 1")
    cancel_lead = cancel_lead.strip()
    lead = int(lead)
    cancel_lead = int(cancel_lead) if cancel_lead else None
    stay = int(stay)
    canceled, walkin = canceled == "1", walkin == "1"
    if lead < 0:
        raise ValueError("negative lead_days")
    if stay < 1:
        raise ValueError("stay_nights must be positive")
    if canceled != (cancel_lead is not None):
        raise ValueError("cancel_lead_days present iff canceled")
    if cancel_lead is not None:
        if cancel_lead < 0:
            raise ValueError("negative cancel_lead_days")
        if cancel_lead > lead:
            raise ValueError("cancel_lead_days exceeds lead_days")
    if walkin and lead != 0:
        raise ValueError("walk-ins must have lead_days 0")
    if max(lead, stay) >= 2 ** 63:
        raise ValueError("lead_days and stay_nights must be below 2**63")
    return (day, lead, canceled, cancel_lead or 0, stay, walkin)


def ingest_bookings(path):
    """The booking dataset one csv record at a time: every record's broken
    rule as "line N: rule", joined by "; ". `roomflow.calibration`
    checks clean files a column at a time and must equal this, array
    bytes and error message alike."""
    rows, problems = [], []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise C.IngestError("empty file without header")
            missing = set(C.COLUMNS) - set(header)
            if missing:
                raise C.IngestError(f"missing columns: {sorted(missing)}")
            where = {name: i for i, name in enumerate(header)}  # last wins
            order = [where[c] for c in C.COLUMNS]
            for raw in reader:
                if not raw:  # a blank line
                    continue
                try:
                    if len(raw) <= max(order):
                        raise ValueError("fewer fields than the header")
                    rows.append(_booking_record([raw[i] for i in order]))
                except ValueError as exc:
                    problems.append(f"line {reader.line_num}: {exc}")
        except UnicodeDecodeError as exc:
            raise C.IngestError(f"{path}: not UTF-8 ({exc})") from exc
        except csv.Error as exc:
            raise C.IngestError(f"line {reader.line_num}: {exc}") from exc
    if problems:
        raise C.IngestError("; ".join(problems))
    return np.array(rows, dtype=C.BOOKING_DTYPE)


def mixture_loglik(counts, log_w, rates):
    """Log joint of (day, component) of one Poisson mixture, and its
    log-likelihood."""
    # log pmf matrix, guarding the rate-0 atom at zero
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = (counts[:, None] * np.log(rates[None, :]) - rates[None, :]
              - gammaln(counts[:, None] + 1.0))
    zero = rates[None, :] == 0.0
    lp = np.where(zero, np.where(counts[:, None] == 0, 0.0, -np.inf), lp)
    comp = lp + log_w[None, :]
    return comp, float(logsumexp(comp, axis=1).sum())


def fit_poisson_mixture(daily_counts, n_components=2, n_restarts=50,
                        seed=0):
    """EM for a Poisson mixture, one restart after another, each from
    stream (r,) of seed, until its gain falls below the engine's tolerance
    or the iteration cap; the first restart of greatest log-likelihood
    wins. `roomflow.calibration.fit_poisson_mixture` runs the restarts
    together and must equal this."""
    counts = np.asarray(daily_counts, dtype=float)
    distinct = len(np.unique(counts))
    if n_components > distinct:
        warnings.warn(
            f"reducing components from {n_components} to {distinct} "
            "(more components than distinct count values)")
        n_components = distinct
    if n_components == 1:
        return [(1.0, float(counts.mean()))]

    best = None
    for rng in streams(seed, ((r,) for r in range(n_restarts))):
        rates = np.sort(rng.choice(counts, n_components, replace=False)
                        + rng.uniform(0.0, 1.0, n_components))
        w = rng.dirichlet(np.ones(n_components))
        log_w = np.log(w)
        prev_ll = -np.inf
        for _ in range(C._EM_MAX_ITER):
            comp, ll = mixture_loglik(counts, log_w, rates)
            assert ll >= prev_ll - 1e-9, "EM log-likelihood decreased"
            if ll - prev_ll < C._EM_TOL:
                break
            prev_ll = ll
            resp = np.exp(comp - logsumexp(comp, axis=1, keepdims=True))
            nk = resp.sum(axis=0)
            nk = np.maximum(nk, 1e-300)
            rates = resp.T @ counts / nk
            log_w = np.log(nk / len(counts))
        if best is None or ll > best[0]:
            best = (ll, np.exp(log_w), rates)
    _, w, rates = best
    order = np.argsort(rates)
    return [(float(w[i]), float(rates[i])) for i in order]


@functools.cache
def load_perfbench_workloads():
    """perfbench/workloads.py, loaded by path with its sibling `checks`
    (the module's `checks` attribute)."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    with unittest.mock.patch.dict(sys.modules), unittest.mock.patch.object(
            sys, "path", [str(bench), *sys.path]):
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", bench / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def write_bookings(path, model, days, seed):
    """A booking CSV of `days` arrival dates from 2017-01-01, drawn from the
    laws of the FittedModel `model` by the benchmark's generator; returns
    its row count."""
    weights, rates = zip(*model.walkin_mixture)
    return load_perfbench_workloads().write_bookings(path, seed, dict(
        days=days, first_date=datetime.date(2017, 1, 1),
        bookings_per_day=model.mean_daily_bookings,
        lead_gamma=model.lead_gamma, cancel_prob=model.cancel_prob,
        cancel_weibull=model.cancel_weibull,
        q_stay=model.duration_geometric, walkin_weights=weights,
        walkin_rates=rates))

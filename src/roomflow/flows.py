"""Customer flow sampling: booking requests, in-window cancellations,
check-ins, and walk-ins.

All randomness flows through explicit numpy Generators, so identical seeds
yield bit-identical event streams: SeedSequence([seed, *path]), a day of a
multiday replication on path (0, day, sub) under its cell seed, which holds
the replication. The test suite holds each stream to numpy's own
SeedSequence. Arrival intensities are stored as a total mass plus a
normalized density, which makes a scaled Beta density and a flat rate
interchangeable, and lets non-homogeneous Poisson streams be sampled
exactly by count-then-order-statistics (draw a Poisson count for the total
mass, then i.i.d. times from the density).

Days are sampled as parallel numpy arrays (struct of arrays) with day
offsets, not as one object per customer or per day: a Stage-I batch of
days holds their booking requests with each one's would-be check-in
(`sample_batches`, streams 1 and 2), and the Stage-II blocks cut from it
add their walk-ins (`sample_blocks`, stream 3); a day is addressed by its
block and its position in it. Each day draws its raw variates from its own
streams, and the transforms of them run once per batch or block. Each
stream depends only on its path, so the order in which paths are asked for
changes no draw. Vectorized draws take the same values from a Generator as
the equivalent sequence of scalar draws, so the per-stream draw order
(`sample_batches`, `sample_blocks`) is the seed contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate, islice

import numpy as np


# numpy's SeedSequence hash (a pool of four 32-bit words), as documented
# by numpy
_MASK32 = 0xFFFF_FFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_BLOCK = 1024  # paths hashed together, so memory stays flat in their number
# the largest whole Beta shape whose tail mass `RateFunction.mass_after`
# sums, in about 4a + b array operations a call
MAX_SHAPE = 100


def streams(master_seed, tails):
    """One Generator per path [master_seed, *tail], for each tail in turn.

    The split rule is SeedSequence([master, *path]); a multiday day's path
    is (0, day, subprocess id) under a cell seed that holds the replication.
    Distinct paths give independent streams. Each stream is numpy's
    default_rng(SeedSequence([master, *tail])) bit for bit, but the
    SeedSequence hash runs in numpy lanes over blocks of tails (each entry
    below 2**32, and all tails of one length, or ValueError), and each
    path's fresh Generator seeds PCG64 from its row of the hashed states.
    """
    head = _words(master_seed)
    row_seed = _row_seed()
    generator, pcg64 = np.random.Generator, np.random.PCG64
    tails, width = iter(tails), None  # width: the first block's tail length
    while block := list(islice(tails, _BLOCK)):
        for row in _generate_states(head, block, width):
            yield generator(pcg64(row_seed(row)))
        width = len(block[0])


@cache
def _row_seed():
    """The seed sequence class of `streams`: it hands PCG64 one row of
    _generate_states, which PCG64 asks for as generate_state(4, uint64).
    Built on first use, so that importing this module loads no
    numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class RowSeed(ISeedSequence):
        def __init__(self, row):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("a stream's seed is 4 uint64 words")
            return self.row

    return RowSeed


def _words(x):
    """SeedSequence's 32-bit words of one nonnegative int, least significant
    first; 0 is one zero word."""
    x = int(x)
    if x < 0:
        raise ValueError(f"stream path entries must be nonnegative, got {x}")
    out = [x & _MASK32]
    while x := x >> 32:
        out.append(x & _MASK32)
    return out


def _generate_states(head, block, width):
    """SeedSequence([*head words, *tail]).generate_state(4, uint64) for
    the tails of `block` in order, one C-contiguous row each of an (n, 4)
    uint64 matrix, hashed as one: tails of one length (`width` unless
    None) with 32-bit word entries."""
    try:
        words = np.array(block, dtype=np.uint64)
    except (ValueError, OverflowError, TypeError):  # ragged or negative
        words = None
    if (words is None or words.ndim != 2 or (words > _MASK32).any()
            or width not in (None, words.shape[1])):
        raise ValueError("stream tails must be of one length, with entries "
                         "in [0, 2**32)")
    return _hash(head, words)


def _hash(head, tails):
    """generate_state(4, uint64) of SeedSequence(entropy row) for the rows
    [*head, *tails[i]] of 32-bit words in uint64 lanes: the pool mixing,
    then the output hash."""
    n = len(tails)
    entropy = np.concatenate(
        [np.tile(np.array(head, dtype=np.uint64), (n, 1)), tails], axis=1)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        value = (x * _MIX_L - y * _MIX_R) & _MASK32
        return value ^ (value >> 16)

    size = entropy.shape[1]
    zero = np.zeros(n, dtype=np.uint64)
    pool = [hashmix(entropy[:, i] if i < size else zero)
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, size):  # entropy longer than the pool
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    hash_const = _INIT_B
    out = []
    for i in range(8):  # generate_state: 8 words, low word first
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ (value >> 16))
    # four uint64s, each from two words, low word first
    return np.stack([out[j] | out[j + 1] << 32 for j in range(0, 8, 2)],
                    axis=1)


class RateFunction:
    """Nonnegative arrival intensity over an interval.

    Stored as (mass, normalized density). Supported shapes: flat, and a
    Beta(a, b) density scaled to a total mass. Any positive shapes can be
    drawn from; `mass_after` of a Beta rate needs whole shapes in
    [1, MAX_SHAPE].
    """

    def __init__(self, kind, t0, t1, mass, a=None, b=None):
        if t1 < t0:
            raise ValueError("empty domain")
        if mass < 0:
            raise ValueError("negative total mass")
        self.kind = kind
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.mass = float(mass)
        self.a = a
        self.b = b

    @classmethod
    def constant(cls, rate, t0=0.0, t1=1.0):
        if rate < 0:
            raise ValueError("negative rate")
        return cls("flat", t0, t1, rate * (t1 - t0))

    @classmethod
    def beta_shaped(cls, mass, a, b, t0=0.0, t1=1.0):
        if not (0 < a < np.inf and 0 < b < np.inf):
            raise ValueError("Beta parameters must be finite and positive")
        return cls("beta", t0, t1, mass, a=a, b=b)

    def draw(self, n, rng):
        """The variates of n i.i.d. times from the normalized density, for
        `times`: n Beta draws, or two rows of n uniforms, the positions in
        the domain in row 1. Row 0 goes unread; it is drawn because the seed
        contract fixes the draw order."""
        if self.kind == "beta":
            return rng.beta(self.a, self.b, n)
        if self.mass <= 0 and n:
            raise ValueError("cannot sample from a zero-mass rate")
        return rng.random((2, n))

    def times(self, raw):
        """Times of `draw` variates, or of several draws joined on axis -1."""
        if self.kind == "flat":
            raw = raw[1]
        return self.t0 + (self.t1 - self.t0) * raw

    def mass_after(self, u):
        """Mass over [u, t1]; u may be an array. A point's mass depends on
        that point alone, not on the array it sits in."""
        lo = np.maximum(u, self.t0)
        z = (lo - self.t0) / (self.t1 - self.t0)
        if self.kind == "beta":  # z > 1 only past t1, which is masked
            mass = self.mass * self._upper_tail(np.minimum(z, 1.0))
        else:
            mass = self.mass - z * self.mass
        mass = np.where(self.t1 <= lo, 0.0, mass)
        return float(mass) if mass.ndim == 0 else mass

    @cached_property
    def _binomials(self):
        """C(n, j) for j < a, n = a + b - 1, as floats."""
        if not all(float(s).is_integer() and s <= MAX_SHAPE
                   for s in (self.a, self.b)):
            raise ValueError("the tail mass of a Beta rate needs whole "
                             f"shapes in [1, {MAX_SHAPE}], got "
                             f"({self.a:g}, {self.b:g})")
        a, n = int(self.a), int(self.a + self.b) - 1
        return [float(math.comb(n, j)) for j in range(a)]

    def _upper_tail(self, z):
        """1 - I_z(a, b) for z in [0, 1], as the binomial sum
        sum_{j<a} C(n, j) z^j (1 - z)^(n-j), n = a + b - 1, in Horner's form
        (1 - z)^b sum_{j<a} C(n, j) z^j (1 - z)^(a-1-j). Each step adds or
        multiplies positive numbers, so nothing cancels, and acts on each
        point alone."""
        first, *rest = self._binomials
        z = np.asarray(z)
        w = 1.0 - z
        tail, zj = np.full(z.shape, first), np.ones(z.shape)
        for c in rest:
            zj *= z  # z^j, a running product
            tail *= w
            tail += c * zj
        for _ in range(int(self.b)):
            tail *= w
        return tail


class KeepCurve:
    """Nondecreasing keep probability p over the booking window.

    A request alive at time t ultimately survives the window with
    probability p(t); the curve must end at 1. Piecewise linear between
    knots; a repeated knot time encodes a jump. Flat segments carry no
    cancellation mass, so the conditional cancel-time law
    P(cancel by tau | booked at s) = 1 - p(s)/p(tau) is sampled by inverting
    the curve.
    """

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise ValueError("times/values shape mismatch")
        if len(self.times) < 2:
            raise ValueError("need at least two knots")
        if np.any(np.diff(self.times) < 0):
            raise ValueError("knot times must be nondecreasing")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("keep probability must be nondecreasing")
        if np.any((self.values < 0) | (self.values > 1)):
            raise ValueError("keep probability outside [0, 1]")
        if self.values[-1] != 1.0:
            raise ValueError("keep probability must equal 1 at the window end")

    @classmethod
    def linear(cls, p0, t0, t1):
        """p0 at t0, rising linearly to 1 at t1."""
        return cls([t0, t1], [p0, 1.0])

    @property
    def t_start(self):
        return float(self.times[0])

    @property
    def t_end(self):
        return float(self.times[-1])

    def value(self, t):
        return np.interp(t, self.times, self.values)

    def _inverse(self, y):
        """inf{t : p(t) >= y} for each y in (0, 1]."""
        i = np.searchsorted(self.values, y, side="left")
        j = np.maximum(i, 1)
        v0, v1 = self.values[j - 1], self.values[j]
        t0, t1 = self.times[j - 1], self.times[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(v1 == v0, t0, t0 + (y - v0) / (v1 - v0) * (t1 - t0))
        return np.where(i == 0, self.times[0], t)

    def cancel_times(self, s, p, u):
        """Cancellation times of non-surviving requests booked at times s,
        with keep probabilities p = value(s) < 1.

        Requests with p > 0 each take one uniform of u, in order; requests
        with p = 0 cannot survive and cancel immediately, without one.
        """
        if np.any(p >= 1.0):
            raise ValueError("a request with keep probability 1 cannot cancel")
        out = np.minimum(self.t_end,
                         s + 1e-12 * max(1.0, self.t_end - self.t_start))
        live = p > 0.0
        if live.any():
            p_s = p[live]
            y = p_s / (1.0 - (1.0 - u) * (1.0 - p_s))  # 1 - u is in (0, 1]
            out[live] = np.maximum(self._inverse(np.minimum(y, 1.0)), s[live])
        return out


@dataclass(frozen=True)
class DurationLaw:
    """Occupancy duration in whole nights.

    kind "geometric": P(D >= j+1 | D >= j) = q_stay, so D >= 1 with mean
    1/(1 - q_stay). kind "constant": always d nights. delta is the effective
    per-day departure fraction.
    """

    kind: str
    q_stay: float = 0.0
    d: int = 1

    def __post_init__(self):
        if self.kind not in ("geometric", "constant"):
            raise ValueError(f"unknown duration law {self.kind!r}")
        if self.kind == "geometric" and not 0.0 <= self.q_stay < 1.0:
            raise ValueError("q_stay must be in [0, 1)")
        if self.kind == "constant" and (self.d < 1 or self.d != int(self.d)):
            raise ValueError("d must be a positive integer")

    @property
    def delta(self):
        if self.kind == "geometric":
            return 1.0 - self.q_stay
        return 1.0 / self.d

    def sample(self, rng, size):
        """`size` stay lengths as an array."""
        if self.kind == "constant":
            return np.array([self.d] * size, dtype=int)
        return rng.geometric(1.0 - self.q_stay, size)


@dataclass
class StageProfiles:
    """Per-day generative profile of the two-stage customer flow."""

    stage1_rate: RateFunction      # over the booking window [0, k0]
    keep_curve: KeepCurve          # same domain; ends at 1
    show_prob: float               # q1: Type-I show probability
    arrival_density: RateFunction  # mass 1 over the service day [0, 1]
    walkin_rate: RateFunction      # over the service day [0, 1]
    duration_law: DurationLaw

    def __post_init__(self):
        if not 0.0 < self.show_prob <= 1.0:
            raise ValueError("show probability must be in (0, 1]")
        if abs(self.arrival_density.mass - 1.0) > 1e-9:
            raise ValueError("arrival density must integrate to 1")
        if abs(self.keep_curve.t_end - self.stage1_rate.t1) > 1e-9:
            raise ValueError("keep curve and booking rate domains differ")


@dataclass(eq=False)
class Bookings:
    """Consecutive days' booking requests as parallel arrays, day d at
    positions starts[d]:starts[d + 1], each day's in request order.

    time is relative to the window start; keep is p(time); cancel_time is
    nan for requests that survive the window. arrival_time/shows hold each
    customer's would-be Stage-II outcome. They are drawn for every request,
    admitted or not, so that every admission rule replays the same
    randomness.
    """

    time: np.ndarray
    keep: np.ndarray
    cancel_time: np.ndarray
    duration: np.ndarray
    arrival_time: np.ndarray
    shows: np.ndarray
    starts: list

    def __len__(self):
        return len(self.time)


@dataclass(eq=False)
class DayBlock:
    """Consecutive sampled days: their `bookings`, and day d's walk-ins, who
    always show, at positions wk_starts[d]:wk_starts[d + 1] of wk_time (in
    time order within the day) and walkin_stays (a list, read per guest)."""

    bookings: Bookings
    wk_time: np.ndarray
    walkin_stays: list
    wk_starts: list


def _draw_nhpp(rate, rng):
    """The Poisson count of an NHPP and the i.i.d. variates of its times."""
    n = int(rng.poisson(rate.mass)) if rate.mass > 0 else 0
    return n, rate.draw(n, rng)


# A Stage-I batch closes before its lanes' cells (one more than its
# largest day's requests, times its days, times the lanes of a day) pass
# _BATCH_CELLS, or at _BLOCK_DAYS days; a day always fits an empty batch.
# Its lanes hold about 14 bytes a cell (engine.batch_survivors), its
# requests about 40 bytes each. Within a batch, a Stage-II block closes at
# _BLOCK_EVENTS events (booking requests and walk-ins): enough to spread
# numpy's per-call cost, few enough to hold little more than its largest
# day (under 60 bytes an event and 1.4 KB a day).
_BATCH_CELLS = 2 ** 17
_BLOCK_EVENTS = 4096
_BLOCK_DAYS = 256


def sample_batches(profiles, rngs, n_days, lanes):
    """The booking requests of n_days consecutive days, as Bookings. Each
    day draws from the next two streams of `rngs`, in this order: (1) the
    Poisson count and times of its booking requests (`_draw_nhpp`), then
    one survival uniform, one stay length and one cancel uniform per
    request, each kind for all requests in time order; (2) the check-in
    outcomes of every request (`_draw_outcomes`). The j-th cancelling
    request with p > 0 of a day takes the day's j-th cancel uniform
    (KeepCurve.cancel_times), so the rest go unused. A batch is sized for
    `lanes` lanes a day; the transforms of the draws run once per batch.
    Raw draws are freed before a batch is yielded."""
    rate, law = profiles.stage1_rate, profiles.duration_law
    days, width = [], 0  # width: the batch's largest day
    for _ in range(n_days):
        rng = next(rngs)
        n, t_raw = _draw_nhpp(rate, rng)
        day = (n, t_raw, rng.random(n), law.sample(rng, n), rng.random(n),
               *_draw_outcomes(profiles, n, next(rngs)))
        width = max(width, n)
        if days and (len(days) == _BLOCK_DAYS or (width + 1) * lanes
                     * (len(days) + 1) > _BATCH_CELLS):
            yield _request_batch(profiles, days)  # empties days
            width = n
        days.append(day)
    yield _request_batch(profiles, days)


def _request_batch(profiles, days):
    """The Bookings of days' raw draws, which it takes out of the list
    `days`: each kind of draw is freed once it is joined."""
    curve = profiles.keep_curve
    counts, t_raw, u_survive, stays, u_cancel, a_raw, u_show = zip(*days)
    days.clear()
    starts = [0, *accumulate(counts)]
    time = _by_day(profiles.stage1_rate.times(np.concatenate(t_raw, axis=-1)),
                   counts)
    del t_raw
    keep = curve.value(time)
    gone = np.flatnonzero(np.concatenate(u_survive) >= keep)
    del u_survive
    live = gone[keep[gone] > 0.0]
    first = np.repeat(starts[:-1], counts)[live]  # each one's day start
    cancel = np.full(len(time), np.nan)
    cancel[gone] = curve.cancel_times(
        time[gone], keep[gone], np.concatenate(u_cancel)[
            first + np.arange(len(live)) - live.searchsorted(first)])
    del u_cancel
    return Bookings(
        time, keep, cancel, np.concatenate(stays),
        profiles.arrival_density.times(np.concatenate(a_raw, axis=-1)),
        np.concatenate(u_show) < profiles.show_prob, starts)


def sample_blocks(profiles, batch, rngs):
    """The days of a batch of Bookings with their walk-ins, as DayBlocks
    whose bookings are views of the batch's. Each day draws its walk-ins
    (`_draw_walkins`) from the next stream of `rngs`, its stream 3. The
    transforms of the draws run once per block. Raw draws are freed before
    a block is yielded."""
    starts = batch.starts
    o = 0  # the block's first day
    while o < len(starts) - 1:
        days, total = [], 0
        while o + len(days) < len(starts) - 1 and total < _BLOCK_EVENTS:
            days.append(_draw_walkins(profiles, next(rngs)))
            e = o + len(days)
            total += starts[e] - starts[e - 1] + days[-1][0]  # and walk-ins
        wk_counts, w_raw, wk_stays = zip(*days)
        a, b = starts[o], starts[e]
        block = DayBlock(
            Bookings(batch.time[a:b], batch.keep[a:b],
                     batch.cancel_time[a:b], batch.duration[a:b],
                     batch.arrival_time[a:b], batch.shows[a:b],
                     [s - a for s in starts[o:e + 1]]),
            _by_day(profiles.walkin_rate.times(
                np.concatenate(w_raw, axis=-1)), wk_counts),
            np.concatenate(wk_stays).tolist(), [0, *accumulate(wk_counts)])
        del days, w_raw, wk_stays
        o = e
        yield block
        del block  # freed before the next block is drawn


def _by_day(x, counts):
    """x sorted within its consecutive runs of counts[0], counts[1], ..."""
    if len(counts) == 1:
        return np.sort(x)
    day = np.repeat(np.arange(len(counts), dtype=np.uint16), counts)
    order = x.argsort()  # then stably, by radix, on the day
    return x[order[day[order].argsort(kind="stable")]]


def reserved_outcomes(profiles, n, rng):
    """Unsorted arrival times and show flags of n reserved customers: times
    from the arrival density, each showing with probability q1."""
    raw, u_show = _draw_outcomes(profiles, n, rng)
    return profiles.arrival_density.times(raw), u_show < profiles.show_prob


def _draw_outcomes(profiles, n, rng):
    """n arrival time variates, then one show uniform each."""
    return profiles.arrival_density.draw(n, rng), rng.random(n)


def sample_walkins(profiles, rng):
    """The sorted times of one day's walk-ins (their stays are drawn too)."""
    _, raw, _ = _draw_walkins(profiles, rng)
    return np.sort(profiles.walkin_rate.times(raw))


def _draw_walkins(profiles, rng):
    """The count and time variates of the walk-ins, then their stays."""
    m, raw = _draw_nhpp(profiles.walkin_rate, rng)
    return m, raw, profiles.duration_law.sample(rng, m)

"""Customer flow sampling: booking requests, in-window cancellations,
check-ins, and walk-ins.

All randomness flows through explicit numpy Generators, so identical seeds
yield bit-identical event streams. Streams follow the split rule
SeedSequence([master, rep, day, sub]); `streams` computes that hash for a
block of paths at once and re-seeds one Generator per path, and the test
suite holds each stream to numpy's own SeedSequence. Arrival intensities are stored as a total
mass plus a normalized density, which makes a scaled Beta density and a
piecewise-constant rate interchangeable, and lets non-homogeneous Poisson
streams be sampled exactly by count-then-order-statistics (draw a Poisson
count for the total mass, then i.i.d. times from the density).

A sampled day is held as parallel numpy arrays (struct of arrays), not as one
object per customer. Vectorized draws take the same values from a Generator
as the equivalent sequence of scalar draws, so the per-stream draw order
below is the seed contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from types import SimpleNamespace

import numpy as np
from scipy.special import betainc


# numpy's SeedSequence hash (a pool of four 32-bit words) and PCG64's
# 128-bit multiplier, as documented by numpy and the PCG report
_MASK32 = 0xFFFF_FFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_BLOCK = 1024  # paths hashed together, so memory stays flat in their number


def streams(master_seed, tails):
    """One Generator per path [master_seed, *tail], for each tail in turn.

    The split rule is SeedSequence([master, *path]) with nonnegative integer
    path components, conventionally (replication, day, subprocess id);
    distinct paths give statistically independent streams. Each stream is
    numpy's default_rng(SeedSequence([master, *tail])) bit for bit, but the
    SeedSequence hash runs in numpy lanes over blocks of tails and the
    result is set into one Generator that is re-seeded and yielded again for
    every tail. A caller is done with one stream when it asks for the next.
    """
    head = _words(master_seed)
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    tails = iter(tails)
    while block := list(islice(tails, _BLOCK)):
        for seed_hi, seed_lo, seq_hi, seq_lo in _generate_states(head, block):
            # PCG64's set-seed step for (seed, sequence), both 128 bits
            inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
            state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT
                     + inc) & _MASK128
            bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
            yield rng


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


def _generate_states(head, block):
    """SeedSequence([*head words, *tail]).generate_state(4, uint64) as four
    Python ints, for the tails of `block` in order. Tails of one-word
    entries, the usual case, hash as one matrix; otherwise tails hash in
    groups of equal word count."""
    try:
        words = np.array(block, dtype=np.uint64)
        one_word = words.ndim == 2 and not (words > _MASK32).any()
    except (ValueError, OverflowError, TypeError):  # ragged, big or negative
        one_word = False
    if one_word:
        return _hash(head, words)
    groups = {}
    for i, tail in enumerate(block):
        row = [w for x in tail for w in _words(x)]
        index, rows = groups.setdefault(len(row), ([], []))
        index.append(i)
        rows.append(row)
    out = [None] * len(block)
    for index, rows in groups.values():
        for i, words in zip(index, _hash(head, np.array(rows,
                                                        dtype=np.uint64))):
            out[i] = words
    return out


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
    return zip(*((out[j] | out[j + 1] << 32).tolist() for j in range(0, 8, 2)))


class RateFunction:
    """Nonnegative arrival intensity over an interval.

    Stored as (mass, normalized density). Supported shapes: piecewise
    constant over contiguous intervals, and a Beta(a, b) density scaled to a
    total mass.
    """

    def __init__(self, kind, t0, t1, mass, breaks=None, piece_mass=None,
                 a=None, b=None):
        if t1 < t0:
            raise ValueError("empty domain")
        if mass < 0:
            raise ValueError("negative total mass")
        self.kind = kind
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.mass = float(mass)
        self.breaks = breaks
        self.piece_mass = piece_mass
        self.a = a
        self.b = b

    @classmethod
    def constant(cls, rate, t0=0.0, t1=1.0):
        return cls.piecewise([((t0, t1), rate)])

    @classmethod
    def piecewise(cls, pieces):
        """pieces: list of ((lo, hi), rate) with contiguous intervals."""
        if not pieces:
            raise ValueError("no pieces")
        breaks = [pieces[0][0][0]]
        masses = []
        for (lo, hi), rate in pieces:
            if rate < 0:
                raise ValueError("negative rate")
            if hi < lo:
                raise ValueError("piece with hi < lo")
            if abs(lo - breaks[-1]) > 1e-12:
                raise ValueError("pieces not contiguous")
            breaks.append(hi)
            masses.append(rate * (hi - lo))
        breaks = np.asarray(breaks, dtype=float)
        masses = np.asarray(masses, dtype=float)
        return cls("piecewise", breaks[0], breaks[-1], float(masses.sum()),
                   breaks=breaks, piece_mass=masses)

    @classmethod
    def beta_shaped(cls, mass, a, b, t0=0.0, t1=1.0):
        if a <= 0 or b <= 0:
            raise ValueError("Beta parameters must be positive")
        return cls("beta", t0, t1, mass, a=a, b=b)

    def sample_times(self, n, rng):
        """n i.i.d. times from the normalized density (unsorted)."""
        if n == 0:
            return np.empty(0)
        if self.kind == "beta":
            return self.t0 + (self.t1 - self.t0) * rng.beta(self.a, self.b, n)
        if self.mass <= 0:
            raise ValueError("cannot sample from a zero-mass rate")
        # the piece draw of rng.choice(len(w), size=n, p=w), without its
        # per-call validation of w: the same uniforms and the same pieces
        idx = self._piece_cdf.searchsorted(rng.random(n), side="right")
        u = rng.random(n)
        lo = self.breaks[idx]
        hi = self.breaks[idx + 1]
        return lo + u * (hi - lo)

    @cached_property
    def _piece_cdf(self):
        cdf = (self.piece_mass / self.mass).cumsum()
        cdf /= cdf[-1]
        return cdf

    def mass_between(self, lo, hi):
        """Mass over [lo, hi]; lo and hi may be arrays of the same shape."""
        lo = np.maximum(lo, self.t0)
        hi = np.minimum(hi, self.t1)
        if self.kind == "beta":
            span = self.t1 - self.t0
            zlo = (lo - self.t0) / span
            zhi = (hi - self.t0) / span
            mass = self.mass * (betainc(self.a, self.b, zhi)
                                - betainc(self.a, self.b, zlo))
        else:
            mass = self._cdf(hi) - self._cdf(lo)
        mass = np.where(hi <= lo, 0.0, mass)
        return float(mass) if mass.ndim == 0 else mass

    def _cdf(self, x):
        """Piecewise mass up to x, for x inside the domain."""
        cum = np.concatenate([[0.0], np.cumsum(self.piece_mass)])
        i = np.searchsorted(self.breaks, x, side="right") - 1
        i = np.clip(i, 0, len(self.piece_mass) - 1)
        seg = self.breaks[i + 1] - self.breaks[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(seg == 0, 0.0, (x - self.breaks[i]) / seg)
        return cum[i] + frac * self.piece_mass[i]

    def mass_after(self, u):
        return self.mass_between(u, self.t1)


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

    def cancel_times(self, s, p, rng):
        """Cancellation times of non-surviving requests booked at times s,
        with keep probabilities p = value(s) < 1.

        Requests with p > 0 each take one uniform, in order; requests with
        p = 0 cannot survive and cancel immediately, without a draw.
        """
        if np.any(p >= 1.0):
            raise ValueError("a request with keep probability 1 cannot cancel")
        out = np.minimum(self.t_end,
                         s + 1e-12 * max(1.0, self.t_end - self.t_start))
        live = p > 0.0
        if live.any():
            p_s = p[live]
            u = 1.0 - rng.random(len(p_s))  # in (0, 1]
            y = p_s / (1.0 - u * (1.0 - p_s))
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
            return np.full(size, self.d, dtype=int)
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
    """One day's booking requests as parallel arrays, in request order.

    time is relative to the window start; keep is p(time); cancel_time is
    nan for requests that survive the window. arrival_time/shows hold each
    customer's would-be Stage-II outcome. They are drawn for every request,
    admitted or not, so that every admission rule replays the same
    randomness.
    """

    time: np.ndarray
    keep: np.ndarray
    survives: np.ndarray
    cancel_time: np.ndarray
    duration: np.ndarray
    arrival_time: np.ndarray | None = None
    shows: np.ndarray | None = None

    def __len__(self):
        return len(self.time)

    @cached_property
    def lists(self):
        """time and cancel_time as Python lists, for the Stage-I replays,
        which read them one element at a time."""
        return _as_lists(self, "time", "cancel_time")


@dataclass(eq=False)
class CheckIns:
    """A day's walk-ins as parallel arrays, in time order; they always
    show."""

    time: np.ndarray
    duration: np.ndarray

    def __len__(self):
        return len(self.time)

    @cached_property
    def lists(self):
        """duration as a Python list, read per served guest."""
        return _as_lists(self, "duration")


def _as_lists(arrays, *names):
    return SimpleNamespace(**{n: getattr(arrays, n).tolist() for n in names})


@dataclass(eq=False)
class DayRealization:
    """One sampled day: the full Stage-I and Stage-II event stream."""

    bookings: Bookings
    walkins: CheckIns


def sample_nhpp(rate, rng):
    """Sorted event times of a non-homogeneous Poisson process.

    The count is Poisson(total mass); given the count, times are i.i.d.
    from the normalized density.
    """
    if rate.mass <= 0:
        return np.empty(0)
    n = rng.poisson(rate.mass)
    return np.sort(rate.sample_times(n, rng))


def sample_stage1_day(profiles, rng):
    """One day's booking requests with survival and cancellation outcomes.

    Draw order: Poisson count and request times, one survival uniform per
    request, the stay lengths, then one uniform per cancelling request with
    p > 0 (KeepCurve.cancel_times).
    """
    curve = profiles.keep_curve
    time = sample_nhpp(profiles.stage1_rate, rng)
    n = len(time)
    keep = curve.value(time)
    survives = rng.random(n) < keep
    duration = profiles.duration_law.sample(rng, n)
    cancel = np.full(n, np.nan)
    gone = ~survives
    if gone.any():
        cancel[gone] = curve.cancel_times(time[gone], keep[gone], rng)
    return Bookings(time, keep, survives, cancel, duration)


def reserved_outcomes(profiles, n, rng):
    """Unsorted arrival times and show flags of n reserved customers: each
    arrives at a time from the arrival density and shows with probability
    q1. Draw order: the n arrival times, then one show uniform each."""
    if n == 0:
        return np.empty(0), np.empty(0, dtype=bool)
    arrival = profiles.arrival_density.sample_times(n, rng)
    return arrival, rng.random(n) < profiles.show_prob


def sample_walkins(profiles, rng):
    time = sample_nhpp(profiles.walkin_rate, rng)
    duration = profiles.duration_law.sample(rng, len(time))
    return CheckIns(time, duration)

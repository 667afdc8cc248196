"""Customer flow sampling: booking requests, in-window cancellations,
check-ins, and walk-ins.

All randomness flows through explicit numpy Generators, so identical seeds
yield bit-identical event streams. Arrival intensities are stored as a total
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
from types import SimpleNamespace

import numpy as np
from scipy.special import betainc


def substream(master_seed, *path):
    """Generator for one sub-process, derived from the master seed.

    The split rule is SeedSequence([master, *path]) with integer path
    components, conventionally (replication, day, subprocess id). Distinct
    paths give statistically independent streams.
    """
    entropy = [int(master_seed)] + [int(x) for x in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


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
    def constant(cls, p, t0, t1):
        """p everywhere inside the window, jumping to 1 at the end."""
        if p == 1.0:
            return cls([t0, t1], [1.0, 1.0])
        return cls([t0, t1, t1], [p, p, 1.0])

    @classmethod
    def linear(cls, p0, t0, t1, p1=1.0):
        return cls([t0, t1], [p0, p1])

    @classmethod
    def always(cls, t0, t1):
        return cls([t0, t1], [1.0, 1.0])

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

    def sample(self, rng, size=None):
        if self.kind == "constant":
            if size is None:
                return self.d
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

    @property
    def window(self):
        return self.stage1_rate.t1 - self.stage1_rate.t0


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
    """Stage-II arrivals as parallel arrays, in time order: reserved
    customers (with a show flag) or walk-ins (shows is None: they always
    show)."""

    time: np.ndarray
    duration: np.ndarray
    shows: np.ndarray | None = None

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

    day: int
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


def sample_stage1_day(profiles, k, rng):
    """Booking requests for day k with survival and cancellation outcomes.

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


def _reserved_outcomes(profiles, n, rng):
    """Unsorted arrival times and show flags of n reserved customers."""
    if n == 0:
        return np.empty(0), np.empty(0, dtype=bool)
    arrival = profiles.arrival_density.sample_times(n, rng)
    return arrival, rng.random(n) < profiles.show_prob


def sample_stage2_day(profiles, B, k, rng):
    """Stage-II events for day k given B surviving bookings.

    Returns (type1, walkins), both CheckIns in time order (ties keep draw
    order). Reserved customers get an arrival time from the arrival
    density, show with probability q1 and draw a stay length; walk-ins
    follow the walk-in rate and always show.
    """
    if B < 0:
        raise ValueError("B must be nonnegative")
    arrival, shows = _reserved_outcomes(profiles, B, rng)
    duration = np.atleast_1d(profiles.duration_law.sample(rng, B))
    order = np.argsort(arrival, kind="stable")
    type1 = CheckIns(arrival[order], duration[order], shows[order])
    return type1, sample_walkins(profiles, rng)


def sample_walkins(profiles, rng):
    time = sample_nhpp(profiles.walkin_rate, rng)
    duration = np.atleast_1d(profiles.duration_law.sample(rng, len(time)))
    return CheckIns(time, duration)


def attach_stage2_outcomes(bookings, profiles, rng):
    """Attach would-be Stage-II outcomes (arrival time, shows) to every
    booking request."""
    bookings.arrival_time, bookings.shows = _reserved_outcomes(
        profiles, len(bookings), rng)
    return bookings

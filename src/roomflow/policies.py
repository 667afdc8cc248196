"""Policies and their Stage-I thresholds.

The adaptive policy adds a concentration-derived safety stock to expected
counts: Stage I accepts a booking only while an upper confidence bound on the
final surviving bookings stays below an estimated capacity. Heuristic
baselines replace it with a fixed linear cap. Both rules reach the engine as
per-request caps (`stage1_caps`), computed per policy for a batch of days.
The Stage-II check-in rules read alpha or the heuristic standard from the
policy in `engine.replay_walkins`. The busy-season and call-timing checks
live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AdaptivePolicy:
    """Safety-stock booking control + expected shown-ups check-in control:
    safety-stock coefficient iota >= 0 and walk-in weight alpha in (0, 1)."""

    iota: float
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.iota < math.inf:
            raise ValueError("iota must be finite and nonnegative")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")


@dataclass(frozen=True)
class HeuristicPolicy:
    """Fixed booking cap (1+beta) delta C / q1 + constant q1 B standard,
    with beta in [-1, 1]."""

    beta: float

    def __post_init__(self):
        if not abs(self.beta) <= 1.0:
            raise ValueError("beta must be in [-1, 1]")


@dataclass(frozen=True)
class OraclePolicy:
    """Clairvoyant Stage-I fill + single-day offline-optimal Stage II."""


def stage1_threshold(B_t, p_t, iota):
    """Upper confidence bound on final surviving bookings.

    p_t*B_t plus a one-sided Bernstein-style safety stock.
    """
    if B_t < 0 or not 0.0 <= p_t <= 1.0 or iota < 0:
        raise ValueError("stage1_threshold domain violation")
    return _threshold(B_t, p_t, iota, math.sqrt)


def _threshold(B, p, iota, sqrt):
    # one formula for scalars (math.sqrt) and arrays (np.sqrt); both give
    # the same correctly rounded float for the same inputs
    a = iota * (1.0 - p) / 3.0
    return p * B + a + sqrt(a * a + 2.0 * iota * B * p * (1.0 - p))


def _cap_estimate(hat_C, p, iota):
    # closed-form inverse of the threshold for p > 0: the smaller root of
    # p^2 n^2 - 2c n + h^2 - a^2 with h = hat_C - a and c = p h + b, written
    # without dividing by p^2, which underflows for tiny p, and with the
    # discriminant c^2 - p^2 (h^2 - a^2) expanded to b (2 p h + b) + (p a)^2,
    # which does not cancel as iota -> 0 or p -> 1; hat_C / p where the
    # safety terms vanish (then the root's denominator is 0)
    with np.errstate(all="ignore"):
        a = iota * (1.0 - p) / 3.0
        b = iota * p * (1.0 - p)
        h = hat_C - a
        c = p * h + b
        disc = b * (2.0 * p * h + b) + (p * a) ** 2
        den = c + np.sqrt(np.maximum(disc, 0.0))
        return np.where(den > 0.0, (h * h - a * a) / den, hat_C / p)


def booking_caps(hat_C, p, iota, m):
    """Stage-I caps of requests with keep probabilities p (an array), as an
    array: the largest integer B with stage1_threshold(B, p_i, iota) <=
    hat_C (-1 if none), clipped at m_i, the count of the request's day (an
    array), which no alive count can pass. The closed-form inverse is corrected against
    the threshold, nondecreasing in B in floating point too, by an
    exponential bracket and integer bisection: where the threshold's terms
    underflow, the estimate can be off by billions."""
    flat = p == 0.0
    q = np.where(flat, 1.0, p)  # p = 0 is settled after the correction

    def fits(n):  # at n = -1 the threshold is nan and never compared, and
        # one that overflows is inf, which never fits
        with np.errstate(invalid="ignore", over="ignore"):
            return (n < 0.0) | ((n <= m)
                                & (_threshold(n, q, iota, np.sqrt) <= hat_C))

    lo = np.clip(np.floor(_cap_estimate(hat_C, q, iota)), -1.0, m)
    lo[np.isnan(lo)] = -1.0
    hi, step = lo + 1.0, 1.0
    while (down := ~fits(lo)).any() | (up := fits(hi)).any():
        lo, hi = (np.where(down, np.maximum(lo - step, -1.0),
                           np.where(up, hi, lo)),
                  np.where(down, lo, np.where(up, hi + step, hi)))
        step *= 2.0
    while (hi - lo > 1.0).any():  # fits(lo) and not fits(hi)
        mid = np.floor((lo + hi) / 2.0)
        ok = fits(mid)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    if flat.any():
        lo[flat] = m[flat] if stage1_threshold(0, 0.0, iota) <= hat_C else -1
    return lo


def departure_floor(law, C, iota):
    """Lower confidence bound on daily departures at full occupancy."""
    if law.kind == "constant":
        return C / law.d
    delta = law.delta
    a = iota * delta / 3.0
    return delta * C - a - math.sqrt(a * a + 2.0 * iota * C * delta * (1.0 - delta))


def estimated_capacity(law, C, q1, iota):
    """hat_C: the booking count whose expected-shows UCB,
    stage1_threshold(hat_C, q1, iota), equals the departure LCB; the
    threshold's closed-form inverse."""
    if C < 1 or not 0.0 < q1 <= 1.0 or iota < 0:
        raise ValueError("estimated_capacity domain violation")
    rhs = departure_floor(law, C, iota)
    if rhs <= 0:
        raise ValueError("infeasible instance: departure bound is nonpositive")
    if rhs <= stage1_threshold(0.0, q1, iota):
        return 0.0
    return float(_cap_estimate(rhs, q1, iota))


def stage1_caps(policy, keep, m, profiles, C):
    """The Stage-I rule of an adaptive or heuristic policy as per-request
    caps (an array): request i is accepted iff B_alive + 1 <= caps[i]. The
    adaptive rule accepts iff stage1_threshold(B_alive + 1, keep[i], iota)
    <= hat_C (`booking_caps`, m the request's day size); the heuristic
    caps every request at (1+beta) * delta * C / q1."""
    law, q1 = profiles.duration_law, profiles.show_prob
    if isinstance(policy, HeuristicPolicy):
        return np.full(len(keep), (1.0 + policy.beta) * law.delta * C / q1)
    hat_C = estimated_capacity(law, C, q1, policy.iota)
    return booking_caps(hat_C, keep, policy.iota, m)


@dataclass(frozen=True)
class BusySeasonReport:
    booking_ok: bool
    walkin_ok: bool
    required_lambda1: float
    required_lambda2: float


def check_busy_season(lambda1, lambda2, law, C, q1, iota):
    """Crowdedness conditions: both arrival masses must dominate the
    expected departures plus safety terms."""
    delta = law.delta
    base = delta * C / q1
    req1 = base + 4.0 * iota / 3.0 + math.sqrt(8.0 * iota * iota / 3.0
                                               + 2.0 * base * iota)
    root = math.sqrt(3.0 * delta * C * iota)
    req2 = (5.0 * iota + 1.0 + 4.0 * root
            + math.sqrt(10.0 * iota * iota + 2.0 * iota + 8.0 * iota * root))
    return BusySeasonReport(
        booking_ok=lambda1 >= req1,
        walkin_ok=lambda2 >= req2,
        required_lambda1=req1,
        required_lambda2=req2,
    )


def check_call_timing(walkin_mass_after_v, v, alpha, delta, C, iota):
    """True iff the walk-in mass after the call covers both safety branches."""
    if iota == 0:
        return True
    if alpha >= 0.5:
        raise ValueError("call-timing condition needs alpha < 1/2")
    branch1 = (iota + math.sqrt(iota * iota
                                + 18.0 * (1.0 - v) * delta * C * iota)) / (3.0 * alpha)
    denom = 2.0 * alpha * math.log(2.0 * alpha) + 1.0 - 2.0 * alpha
    branch2 = iota / denom
    return walkin_mass_after_v >= max(branch1, branch2)

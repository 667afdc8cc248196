"""Decision rules for the two stages.

The adaptive policy adds a concentration-derived safety stock to expected
counts: Stage I accepts a booking only while an upper confidence bound on the
final surviving bookings stays below an estimated capacity, and Stage II
accepts a walk-in only while the expected final shown-ups stay below the
day's allocated capacity. Heuristic baselines replace both rules with fixed
linear standards.
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


@dataclass(frozen=True)
class EconomicParams:
    reward: float           # r: money per occupied room-night
    overbook_penalty: float  # charged per rejected reserved check-in
    capacity: int           # C
    confirmation_time: float  # v
    k0: int                 # booking window length in days
    T: int                  # horizon in days

    def __post_init__(self):
        if self.reward < 0 or self.overbook_penalty < 0:
            raise ValueError("costs must be nonnegative")
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")
        if not -self.k0 < self.confirmation_time <= 1.0:
            raise ValueError("confirmation time outside (-k0, 1]")


@dataclass
class StageTwoState:
    """Running Stage-II counters a policy may read.

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


def max_bookings_within(hat_C, p_t, iota):
    """Largest integer B with stage1_threshold(B, p_t, iota) <= hat_C.

    Returns -1 when even B=0 exceeds hat_C, and math.inf when the threshold
    does not grow with B (p_t = 0) or grows so slowly that the bound passes
    2**53, beyond any count of bookings. Closed-form inversion of the
    threshold with a floor correction against the direct formula, which is
    nondecreasing in B in floating point too, so `B <= result` decides
    `stage1_threshold(B, p_t, iota) <= hat_C` exactly.
    """
    if stage1_threshold(0, p_t, iota) > hat_C:
        return -1
    if p_t == 0.0:
        return math.inf
    if p_t == 1.0 or iota == 0.0:
        est = hat_C / p_t  # the threshold is p_t * B
    else:
        est = float(_cap_estimate(hat_C, p_t, iota))
    if not est < 2.0 ** 53:
        return math.inf
    n = math.floor(est)
    while n >= 0 and stage1_threshold(n, p_t, iota) > hat_C:
        n -= 1
    while stage1_threshold(n + 1, p_t, iota) <= hat_C:
        n += 1
    return n


def _cap_estimate(hat_C, p, iota):
    # closed-form inverse of the threshold for p > 0: the smaller root of
    # p^2 n^2 - 2(p(hat_C - a) + b) n + (hat_C - a)^2 - a^2, written without
    # dividing by p^2, which underflows for tiny p; hat_C / p where the
    # safety terms vanish (then the root's denominator is 0)
    with np.errstate(all="ignore"):
        a = iota * (1.0 - p) / 3.0
        b = iota * p * (1.0 - p)
        h = hat_C - a
        c = p * h + b
        den = c + np.sqrt(np.maximum(c * c - p * p * (h * h - a * a), 0.0))
        return np.where(den > 0.0, (h * h - a * a) / den, hat_C / p)


# below this many requests a day, the scalar closed form beats numpy's
# per-call overhead
_SCALAR_CAPS_BELOW = 8


def booking_caps(hat_C, p, iota):
    """Stage-I caps of a day's m requests with keep probabilities p (an
    array): min(max_bookings_within(hat_C, p_i, iota), m) for each. No more
    than m bookings are ever alive, so the clip at m changes no decision
    and keeps every cap finite."""
    m = len(p)
    if m < _SCALAR_CAPS_BELOW:
        return [min(max_bookings_within(hat_C, x, iota), m)
                for x in p.tolist()]
    flat = p == 0.0
    q = np.where(flat, 1.0, p)  # p = 0 is settled after the correction
    n = np.clip(np.floor(_cap_estimate(hat_C, q, iota)), -1.0, m)
    n[np.isnan(n)] = -1.0
    with np.errstate(invalid="ignore"):
        while True:  # at n = -1 the threshold is nan and never compared
            over = (n >= 0.0) & (_threshold(n, q, iota, np.sqrt) > hat_C)
            under = (n < m) & (_threshold(n + 1.0, q, iota, np.sqrt)
                               <= hat_C)
            if not (over.any() or under.any()):
                break
            n = n - over + under
    if flat.any():
        n[flat] = m if _threshold(0, 0.0, iota, math.sqrt) <= hat_C else -1.0
    return n.tolist()


def _capacity_lhs(x, q1, iota):
    a = iota * (1.0 - q1) / 3.0
    return q1 * x + a + math.sqrt(a * a + 2.0 * iota * x * q1 * (1.0 - q1))


def departure_floor(law, C, iota):
    """Lower confidence bound on daily departures at full occupancy."""
    if law.kind == "constant":
        return C / law.d
    delta = law.delta
    a = iota * delta / 3.0
    return delta * C - a - math.sqrt(a * a + 2.0 * iota * C * delta * (1.0 - delta))


def estimated_capacity(law, C, q1, iota, tol=1e-9):
    """Solve for hat_C: expected-shows UCB of hat_C bookings equals the
    departure LCB. Bisection on the strictly increasing left side."""
    if C < 1 or not 0.0 < q1 <= 1.0 or iota < 0:
        raise ValueError("estimated_capacity domain violation")
    rhs = departure_floor(law, C, iota)
    if rhs <= 0:
        raise ValueError("infeasible instance: departure bound is nonpositive")
    if rhs <= _capacity_lhs(0.0, q1, iota):
        return 0.0
    lo, hi = 0.0, max(1.0, C / q1)
    while _capacity_lhs(hi, q1, iota) < rhs:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        val = _capacity_lhs(mid, q1, iota)
        if abs(val - rhs) < tol or (hi - lo) < 1e-15 * max(1.0, hi):
            return mid
        if val < rhs:
            lo = mid
        else:
            hi = mid


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


def type1_checkin_decide(state):
    """Offer a room to a showing reserved customer iff one is free.

    The caller counts a rejection as one overbooking event.
    """
    return state.B1 + state.W1 < state.C_rooms


def heuristic_stage1_threshold(policy, law, C, q1):
    """Fixed booking cap (1+beta) * delta * C / q1."""
    if q1 <= 0:
        raise ValueError("q1 must be positive")
    return (1.0 + policy.beta) * law.delta * C / q1


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

"""Offline oracles and adversarial instances.

The single-day offline optimum serves reserved customers first and fills the
remainder with the earliest walk-ins; a brute-force enumerator over walk-in
subsets provides an independent oracle for it. Clairvoyant Stage-I selection
builds the benchmark trajectory, and lower_bound_instance constructs the
out-of-busy-season configuration on which every online policy pays linear
regret.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .flows import DurationLaw, KeepCurve, RateFunction, StageProfiles


@dataclass(frozen=True)
class DayDemandSnapshot:
    """Hindsight view of one day's demand against an allocated capacity."""

    finals: int                 # reserved customers that ultimately show
    final_show_times: tuple
    walkin_times: tuple
    C_tilde: int
    reward: float
    overbook_penalty: float

    def __post_init__(self):
        if self.finals != len(self.final_show_times):
            raise ValueError("finals inconsistent with show times")
        if list(self.final_show_times) != sorted(self.final_show_times):
            raise ValueError("show times not sorted")
        if list(self.walkin_times) != sorted(self.walkin_times):
            raise ValueError("walk-in times not sorted")


@dataclass(frozen=True)
class BenchmarkOutcome:
    served_type1: int
    served_walkins: int
    overbooked: int
    newly_idle: int
    day_loss: float


def single_day_offline_optimal(snapshot):
    """Hindsight-optimal single day: serve all finals if they fit and top up
    with the earliest walk-ins; otherwise serve finals only, up to capacity.

    day_loss is relative to C_tilde (the engine adds the common occupancy
    offset shared with the policy trajectory).
    """
    C = snapshot.C_tilde
    if snapshot.finals <= C:
        served_type1 = snapshot.finals
        served_walkins = min(len(snapshot.walkin_times), C - served_type1)
        overbooked = 0
    else:
        served_type1 = C
        served_walkins = 0
        overbooked = snapshot.finals - C
    idle = C - served_type1 - served_walkins
    loss = snapshot.overbook_penalty * overbooked + snapshot.reward * idle
    return BenchmarkOutcome(served_type1, served_walkins, overbooked, idle, loss)


def brute_force_day_optimal(snapshot):
    """Exact minimal day loss by enumerating every walk-in accept subset,
    with Type-I service maximized for each subset. Test oracle only."""
    W = len(snapshot.walkin_times)
    if W > 20:
        raise ValueError("instance above the enumeration bound")
    C = snapshot.C_tilde
    best = math.inf
    for subset in itertools.product((0, 1), repeat=W):
        w = sum(subset)
        if w > C:
            continue
        served_type1 = min(snapshot.finals, C - w)
        overbooked = snapshot.finals - served_type1
        idle = C - served_type1 - w
        loss = snapshot.overbook_penalty * overbooked + snapshot.reward * idle
        best = min(best, loss)
    return best


def clairvoyant_stage1_select(survives, shows, target):
    """Positions of the first `target` bookings, in request order, that
    survive the window and show on the service day (parallel arrays of a
    day's bookings with realized outcomes)."""
    return np.flatnonzero(survives & shows)[:max(target, 0)]


def lower_bound_instance(iota, T=1000, seed=0):
    """Out-of-busy-season configuration: one room, unit booking rate,
    sqrt(iota) walk-in rate, even odds that a booked customer shows, unit
    costs, one-night stays. Every online policy pays linear regret here."""
    if iota < 0:
        raise ValueError("iota must be nonnegative")
    from .engine import ScenarioConfig

    lam2 = math.sqrt(iota)
    profiles = StageProfiles(
        stage1_rate=RateFunction.constant(1.0, 0.0, 1.0),
        keep_curve=KeepCurve.always(0.0, 1.0),
        show_prob=0.5,
        arrival_density=RateFunction.constant(1.0, 0.0, 1.0),
        walkin_rate=RateFunction.constant(lam2, 0.0, 1.0),
        duration_law=DurationLaw("constant", d=1),
    )
    return ScenarioConfig(
        T=T, C=1, k0=1, v=0.0, reward=1.0, overbook_penalty=1.0,
        profiles=profiles, seed=seed,
    )

"""Offline oracles and adversarial instances.

The single-day offline optimum serves reserved customers first and fills the
remainder with walk-ins. Clairvoyant Stage-I selection builds the benchmark
trajectory, and lower_bound_instance constructs the out-of-busy-season
configuration on which every online policy pays linear regret.
"""

from __future__ import annotations

import math

import numpy as np

from .flows import DurationLaw, KeepCurve, RateFunction, StageProfiles


def offline_day_optimum(finals, n_walkins, C):
    """Hindsight-optimal single day on realized counts: serve the finals (the
    reserved customers who show) up to capacity C, then fill the rest with
    walk-ins. Returns (served_type1, served_walkins, overbooked)."""
    if finals > C:
        return C, 0, finals - C
    return finals, min(n_walkins, C - finals), 0


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
        raise ValueError(f"iota: must be nonnegative, got {iota!r}")
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

"""Offline oracles.

The single-day offline optimum serves reserved customers first and fills the
remainder with walk-ins. Clairvoyant Stage-I selection builds the benchmark
trajectory.
"""

from __future__ import annotations

import numpy as np


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

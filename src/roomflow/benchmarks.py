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


def clairvoyant_stage1_select(survives, shows, starts):
    """Positions, in request order, of a block's bookings (day d's at
    starts[d]:starts[d + 1]) that survive the window and show, and where
    each day's start among them (cut). Day d selects the first
    min(finals, C_rooms) of its cut[d + 1] - cut[d] = finals candidates
    (`engine.run_oracle_day` with select=True)."""
    positions = np.flatnonzero(survives & shows)
    return positions, positions.searchsorted(starts).tolist()

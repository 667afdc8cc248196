"""Offline oracle, brute-force cross-check, and adversarial instance."""

import dataclasses
import math

import numpy as np
import pytest

import reference as R
import roomflow.cli as cli
from reference import substream
from roomflow.benchmarks import clairvoyant_stage1_select, offline_day_optimum


def outcome(finals, n_walkins, C, r=1.0, ell=1.0):
    """(served type1, served walk-ins, overbooked, idle, day loss) of the
    offline day optimum."""
    served, walkins, overbooked = offline_day_optimum(finals, n_walkins, C)
    idle = C - served - walkins
    return served, walkins, overbooked, idle, ell * overbooked + r * idle


class TestSingleDayOfflineOptimal:
    def test_overloaded_day_serves_capacity_and_no_walkins(self):
        assert outcome(7, 4, 5, ell=2.0) == (5, 0, 2, 0, 4.0)

    def test_underloaded_day_tops_up_with_walkins(self):
        assert outcome(3, 4, 5) == (3, 2, 0, 0, 0.0)

    def test_scarce_walkins_leave_idle_rooms(self):
        assert outcome(3, 1, 5, r=2.5) == (3, 1, 0, 1, 2.5)

    def test_empty_day_loses_full_reward(self):
        assert outcome(0, 0, 4, r=3.0)[-1] == 12.0

    def test_exact_fill_is_lossless(self):
        assert outcome(5, 0, 5)[-1] == 0.0

    def test_matches_brute_force_on_random_instances(self):
        # independent oracle: exhaustive enumeration of walk-in subsets
        rng = substream(20240817, 0)
        for _ in range(1200):
            finals = int(rng.integers(0, 13))
            n_walkins = int(rng.integers(0, 11))
            C = int(rng.integers(1, 10))
            r = float(rng.uniform(0.1, 3.0))
            ell = float(rng.uniform(0.1, 3.0))
            assert outcome(finals, n_walkins, C, r, ell)[-1] == pytest.approx(
                R.brute_force_day_optimal(finals, n_walkins, C, r, ell))

    def test_brute_force_rejects_huge_instances(self):
        with pytest.raises(ValueError):
            R.brute_force_day_optimal(1, 21, 5, 1.0, 1.0)


def select(survives, shows, target):
    """The clairvoyant selection of a one-day block: the first `target`
    candidates."""
    positions, cut = clairvoyant_stage1_select(survives, shows,
                                               [0, len(survives)])
    return positions[cut[0]:min(cut[1], cut[0] + target)]


def outcomes(*pairs):
    """survives, shows arrays of bookings in request order."""
    survives, shows = zip(*pairs)
    return np.array(survives), np.array(shows)


class TestClairvoyantSelect:
    def test_takes_first_surviving_showing_in_request_order(self):
        survives, shows = outcomes(
            (True, True),
            (False, True),   # cancels in the window
            (True, False),   # survives but no-shows
            (True, True),
            (True, True),
        )
        assert select(survives, shows, 2).tolist() == [0, 3]

    def test_short_demand_returns_everything_available(self):
        assert len(select(*outcomes((True, True)), 5)) == 1

    def test_zero_target_selects_nothing(self):
        assert select(*outcomes((True, True)), 0).size == 0

    def test_each_day_selects_among_its_own_candidates(self):
        # days [0, 3) and [3, 5) of one block: day 1's first candidate is
        # position 4, whatever day 0 selects
        survives, shows = outcomes((True, True), (True, True), (True, True),
                                   (True, False), (True, True))
        positions, cut = clairvoyant_stage1_select(survives, shows, [0, 3, 5])
        assert cut == [0, 3, 4]
        assert positions[cut[1]:cut[2]].tolist() == [4]


class TestLowerBoundInstance:
    def test_instance_shape(self):
        # the shipped preset, with lambda2 = sqrt(iota) for iota = 4
        _, sc = cli.build_scenario(cli.load_config("lower-bound", None),
                                   (("lambda2", math.sqrt(4.0)), ("T", 100)))
        sc = dataclasses.replace(sc, seed=7)
        assert sc.C == 1 and sc.T == 100 and sc.v == 0.0
        prof = sc.profiles
        assert prof.show_prob == 0.5
        assert prof.stage1_rate.mass == pytest.approx(1.0)
        assert prof.walkin_rate.mass == pytest.approx(2.0)  # sqrt(iota)
        assert prof.duration_law.kind == "constant"
        assert prof.duration_law.d == 1

    def test_rejects_negative_iota(self, tmp_path, capsys):
        # the instance is an ordinary multiday preset; no lower-bound mode
        # (and so no iota key) is left to take a negative iota
        cfg = tmp_path / "lb.cfg"
        cfg.write_text("[scenario]\nmode = lower-bound\niota = -1\n")
        assert cli.main(["simulate", "--preset", "lower-bound", "--config",
                         str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: [scenario] mode: ")
        assert not (tmp_path / "x.csv").exists()

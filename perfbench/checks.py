"""Output checks computed apart from roomflow.

Each check reads a result file with the plain `csv` module and compares it
with a closed form, a scipy computation or an identity the output format
promises. Nothing here imports roomflow. A check returns a `Check`; a failed
check counts as one failed operation of the benchmark run.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def read_result(path):
    """(header, rows as dicts) of a result file, skipping `#` lines."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(reader)
        return header, [dict(zip(header, row)) for row in reader]


def read_model(path):
    """`key=value` lines of a fitted-model file as floats."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.strip().partition("=")
            if sep:
                out[key] = float(value)
    return out


# ---------------------------------------------------------------------------
# multi-day result files

def check_regret_split(rows):
    """Stage-I plus Stage-II regret equals the total, to the printed
    precision (10 significant digits)."""
    bad = []
    for r in rows:
        s1 = float(r["mean_stage1_regret"])
        s2 = float(r["mean_stage2_regret"])
        total = float(r["mean_cumulative_regret"])
        scale = max(1.0, abs(s1), abs(s2), abs(total))
        if abs(s1 + s2 - total) > 1e-9 * scale:
            bad.append(f"{r['policy']}: {s1}+{s2}!={total}")
    return Check("regret_split", not bad, "; ".join(bad) or
                 f"{len(rows)} rows")


def series_by_curve(header, rows):
    """Series rows grouped by (axis values..., policy), in file order."""
    axes = header[:header.index("policy")]
    curves = defaultdict(list)
    for r in rows:
        curves[tuple(r[a] for a in axes) + (r["policy"],)].append(r)
    return axes, curves


def check_series(header, rows, series_header, series_rows, T):
    """The series holds days 1..T for every CSV row, and its last day
    repeats the CSV's mean and standard error digit for digit."""
    axes, curves = series_by_curve(series_header, series_rows)
    bad = []
    for r in rows:
        key = tuple(r[a] for a in axes) + (r["policy"],)
        curve = curves.pop(key, [])
        days = [int(s["day"]) for s in curve]
        if days != list(range(1, T + 1)):
            bad.append(f"{key}: {len(days)} days, expected 1..{T}")
        elif (curve[-1]["mean_cumulative_regret"]
              != r["mean_cumulative_regret"]
              or curve[-1]["stderr"] != r["stderr"]):
            bad.append(f"{key}: last day differs from the CSV")
    if curves:
        bad.append(f"series curves without a CSV row: {sorted(curves)}")
    return Check("series_matches_csv", not bad, "; ".join(bad) or
                 f"{len(rows)} curves x {T} days")


def check_adaptive_dominates(header, rows):
    """Fig. 4 claim: in every cell the adaptive policy's regret is below
    every heuristic's."""
    axes = header[:header.index("policy")]
    cells = defaultdict(dict)
    for r in rows:
        cells[tuple(r[a] for a in axes)][r["policy"]] = float(
            r["mean_cumulative_regret"])
    bad = []
    for cell, regrets in cells.items():
        adaptive = regrets.pop("adaptive")
        best = min(regrets, key=regrets.get)
        if not adaptive < regrets[best]:
            bad.append(f"{cell}: adaptive {adaptive} >= {best} "
                       f"{regrets[best]}")
    return Check("adaptive_dominates", not bad, "; ".join(bad) or
                 f"{len(cells)} cells")


def lower_bound_daily_regret(iota):
    """Closed-form per-day regret of the adaptive rule on the lower-bound
    instance. The rule admits no booking (its capacity estimate is below
    one room), so it pays one idle room exactly when no walk-in comes
    (probability e^-sqrt(iota)) while the clairvoyant benchmark fills the
    room with a showing booking (probability 1 - e^-1/2: booking rate 1,
    show probability 1/2)."""
    return math.exp(-math.sqrt(iota)) * (1.0 - math.exp(-0.5))


def daily_from_cumulative(cumulative):
    return np.diff(np.concatenate([[0.0], np.asarray(cumulative, float)]))


def check_daily_rate(cumulative, expected, z=5.0):
    """The mean per-day regret lies within z standard errors of the
    expected rate; the standard error comes from the per-day values."""
    daily = daily_from_cumulative(cumulative)
    mean = float(daily.mean())
    se = float(daily.std(ddof=1) / math.sqrt(len(daily)))
    ok = abs(mean - expected) <= z * se
    return Check("daily_regret_closed_form", ok,
                 f"mean {mean:.5f} vs {expected:.5f}, se {se:.5f}, "
                 f"{len(daily)} days")


def check_linear(cumulative, min_r2=0.95):
    """Cumulative regret grows linearly: a straight-line fit explains at
    least min_r2 of its variance, with positive slope."""
    cum = np.asarray(cumulative, float)
    days = np.arange(1.0, len(cum) + 1.0)
    slope, icpt = np.polyfit(days, cum, 1)
    r2 = 1.0 - (cum - (slope * days + icpt)).var() / cum.var()
    return Check("regret_linear", bool(r2 >= min_r2 and slope > 0.0),
                 f"r2 {r2:.4f}, slope {slope:.5f}")


# ---------------------------------------------------------------------------
# single-day result files

def single_day_loss_moments(B, q1, C, lam2, reward=1.0, penalty=1.0):
    """Exact mean and standard deviation of one day's loss
    penalty*max(0, F-C) + reward*max(0, C-F-W) under full information,
    F ~ Bin(B, q1) shows and W ~ Poisson(lam2) walk-ins, summed over the
    scipy pmfs."""
    from scipy import stats

    f = np.arange(B + 1)
    w = np.arange(int(stats.poisson.ppf(1.0 - 1e-15, lam2)) + 2)
    prob = np.outer(stats.binom.pmf(f, B, q1), stats.poisson.pmf(w, lam2))
    loss = (penalty * np.maximum(0, f - C)[:, None]
            + reward * np.maximum(0, C - f[:, None] - w[None, :]))
    mean = float((loss * prob).sum())
    return mean, math.sqrt(float((loss * loss * prob).sum()) - mean * mean)


def check_zero_regret(row):
    ok = float(row["mean_regret"]) == 0.0 and float(row["regret_stderr"]) == 0.0
    return Check("v0_regret_zero", ok,
                 f"mean_regret {row['mean_regret']}, "
                 f"stderr {row['regret_stderr']}")


def check_mean_loss(row, mean, sd, n, z=5.0):
    """The cell's mean loss lies within z exact standard errors (sd /
    sqrt(n)) of the exact mean."""
    got = float(row["mean_loss"])
    se = sd / math.sqrt(n)
    return Check("v0_loss_exact", abs(got - mean) <= z * se,
                 f"mean_loss {got} vs exact {mean:.4f}, se {se:.4f}, n {n}")


def check_nondecreasing(points, z=4.0):
    """points: (v, mean, stderr). Regret may fall between neighbouring v
    by at most z standard errors of the difference. The cells are
    independent and the late ones flat, so z=2 fails by chance on a few
    percent of seeds."""
    pts = sorted(points)
    bad = [f"v={v0:g}->{v1:g}: {m0}->{m1}"
           for (v0, m0, s0), (v1, m1, s1) in zip(pts, pts[1:])
           if m1 < m0 - z * math.hypot(s0, s1)]
    return Check("regret_nondecreasing", not bad, "; ".join(bad) or
                 f"{len(pts)} cells, z={z:g}")


# ---------------------------------------------------------------------------
# booking dataset and fitted model

def read_bookings(path):
    """Fitter inputs from a booking CSV: positive reserved lead times,
    positive reserved cancellation intervals, all stay lengths, and the
    walk-in count of every date that has a row."""
    leads, cancels, stays = [], [], []
    walkins = defaultdict(int)
    with open(path, encoding="utf-8", newline="") as fh:
        for r in csv.DictReader(fh):
            walk_in = r["is_walk_in"] == "1"
            walkins[r["arrival_date"]] += walk_in
            stays.append(int(r["stay_nights"]))
            if walk_in:
                continue
            if int(r["lead_days"]) > 0:
                leads.append(int(r["lead_days"]))
            if r["is_canceled"] == "1" and int(r["cancel_lead_days"]) > 0:
                cancels.append(int(r["cancel_lead_days"]))
    return leads, cancels, stays, list(walkins.values())


def _close(name, got, want, rtol):
    bad = [f"{g!r} vs {w!r}" for g, w in zip(got, want)
           if not math.isclose(g, w, rel_tol=rtol)]
    return Check(name, not bad, "; ".join(bad) or
                 f"within {rtol:g} of scipy {tuple(round(float(w), 6) for w in want)}")


def check_gamma(model, leads, rtol=1e-5):
    from scipy import stats

    shape, _, scale = stats.gamma.fit(leads, floc=0)
    return _close("lead_gamma_vs_scipy",
                  (model["lead_gamma_shape"], model["lead_gamma_scale"]),
                  (shape, scale), rtol)


def _tight_fmin(func, x0, args=(), disp=0):
    from scipy import optimize

    return optimize.fmin(func, x0, args=args, xtol=1e-10, ftol=1e-9,
                         maxiter=10_000, maxfun=20_000, disp=disp)


def check_weibull(model, cancels, rtol=1e-5):
    """scipy's default Nelder-Mead stops about 1e-5 short of the optimum
    (its log-likelihood was 1e-6 below the program's on 5 of 40 seeds), so
    the reference fit runs it to xtol 1e-10."""
    from scipy import stats

    shape, _, scale = stats.weibull_min.fit(cancels, floc=0,
                                            optimizer=_tight_fmin)
    return _close("cancel_weibull_vs_scipy",
                  (model["cancel_weibull_shape"],
                   model["cancel_weibull_scale"]),
                  (shape, scale), rtol)


def check_geometric(model, stays):
    want = 1.0 - len(stays) / sum(stays)
    got = model["duration_geometric_q_stay"]
    return Check("q_stay_closed_form", math.isclose(got, want, rel_tol=1e-12),
                 f"{got!r} vs 1 - n/sum(d) = {want!r}")


def mixture_loglik(counts, weights, rates):
    from scipy import stats

    counts = np.asarray(counts)
    pmf = sum(w * stats.poisson.pmf(counts, r) for w, r in zip(weights, rates))
    return float(np.log(pmf).sum())


def fitted_mixture(model):
    n = int(model["walkin_components"])
    return ([model[f"walkin_weight_{i}"] for i in range(n)],
            [model[f"walkin_rate_{i}"] for i in range(n)])


def check_mixture(model, counts, weights, rates):
    """The fitted mixture is at least as likely as the generating one."""
    fit = mixture_loglik(counts, *fitted_mixture(model))
    true = mixture_loglik(counts, weights, rates)
    return Check("mixture_beats_generator", fit >= true - 1e-9,
                 f"loglik fitted {fit:.4f} vs generating {true:.4f}")

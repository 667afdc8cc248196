"""The four benchmark workloads.

Each workload writes its inputs from the seed, names the `roomflow` command
line that one repetition runs, counts the units of work in one repetition,
and checks the result files with `checks`. All run with `--jobs 1`.
"""

from __future__ import annotations

import datetime
from pathlib import Path

import numpy as np

import checks

FIG4_T = 100          # horizon of the fig4 slice (shipped: 1000)
FIG4_V = "0.7"        # the one fig4 cell run (shipped: 0, 0.5, 0.7, 1)
LOWER_BOUND_T = 2000  # horizon of the lower-bound run (shipped: 1000)
LOWER_BOUND_IOTA = 2.0
FIG3_SIMS = 25        # Stage-II draws per cell and rep (shipped: 1000)
FIG3_REPS = 5         # as shipped
# fig3 preset constants the exact v=0 loss uses
FIG3_B, FIG3_C, FIG3_Q1, FIG3_LAMBDA2 = 360, 200, 0.5, 30.0

# synthetic booking data set for `roomflow fit` (README: "Booking model")
BOOKING_MODEL = {
    "days": 240,
    "first_date": datetime.date(2019, 1, 1),
    "bookings_per_day": 200.0,
    "lead_gamma": (2.0, 15.0),       # shape, scale (days)
    "cancel_prob": 0.3,
    "cancel_weibull": (1.4, 8.0),    # shape, scale (days)
    "q_stay": 0.35,
    # well-separated components: EM converges in a few iterations per
    # restart. With rates 6 and 18 the iteration count varied by +-20%
    # between seeds, which made the fit time depend on the seed.
    "walkin_weights": (0.5, 0.5),
    "walkin_rates": (4.0, 30.0),
}


def write_config(path, sections):
    with open(path, "w", encoding="utf-8") as fh:
        for name, items in sections.items():
            fh.write(f"[{name}]\n")
            for key, value in items.items():
                fh.write(f"{key} = {value}\n")


def _jobs1(argv):
    return argv + ["--jobs", "1"]


class Workload:
    name = ""
    unit = ""
    results = ()  # result file names inside the output directory

    def __init__(self, outdir: Path, seed: int):
        self.outdir = outdir
        self.seed = seed
        self.argv = self.prepare()

    def prepare(self):
        raise NotImplementedError

    def work(self):
        """Units of work in one repetition, read from its outputs."""
        raise NotImplementedError

    def check(self):
        raise NotImplementedError

    def result_paths(self):
        return [self.outdir / f for f in self.results]


class MultidayFig4(Workload):
    name = "multiday-fig4"
    unit = "policy-days"
    results = ("fig4.csv", "fig4.csv.series")

    def prepare(self):
        cfg = self.outdir / "fig4.cfg"
        write_config(cfg, {"scenario": {"T": FIG4_T},
                           "sweep": {"v": FIG4_V},
                           "run": {"reps": 1}})
        return _jobs1(["simulate", "--preset", "fig4", "--config", str(cfg),
                       "--out", str(self.outdir / "fig4.csv"),
                       "--seed", str(self.seed)])

    def work(self):
        _, rows = checks.read_result(self.outdir / "fig4.csv")
        return len(rows) * FIG4_T

    def check(self):
        header, rows = checks.read_result(self.outdir / "fig4.csv")
        sh, srows = checks.read_result(self.outdir / "fig4.csv.series")
        return [checks.check_regret_split(rows),
                checks.check_series(header, rows, sh, srows, FIG4_T),
                checks.check_adaptive_dominates(header, rows)]


class MultidayLowerBound(Workload):
    name = "multiday-lower-bound"
    unit = "policy-days"
    results = ("lb.csv", "lb.csv.series")

    def prepare(self):
        cfg = self.outdir / "lb.cfg"
        write_config(cfg, {"scenario": {"T": LOWER_BOUND_T},
                           "run": {"reps": 1}})
        return _jobs1(["simulate", "--preset", "lower-bound",
                       "--config", str(cfg),
                       "--out", str(self.outdir / "lb.csv"),
                       "--seed", str(self.seed)])

    def work(self):
        _, rows = checks.read_result(self.outdir / "lb.csv")
        return len(rows) * LOWER_BOUND_T

    def check(self):
        header, rows = checks.read_result(self.outdir / "lb.csv")
        sh, srows = checks.read_result(self.outdir / "lb.csv.series")
        out = [checks.check_regret_split(rows),
               checks.check_series(header, rows, sh, srows, LOWER_BOUND_T)]
        (row,) = [r for r in rows if r["policy"] == "adaptive"]
        out.append(checks.Check(
            "stage2_component_zero", float(row["mean_stage2_regret"]) == 0.0,
            f"mean_stage2_regret {row['mean_stage2_regret']}"))
        _, curves = checks.series_by_curve(sh, srows)
        cum = [float(s["mean_cumulative_regret"])
               for s in curves[("adaptive",)]]
        out.append(checks.check_daily_rate(
            cum, checks.lower_bound_daily_regret(LOWER_BOUND_IOTA)))
        out.append(checks.check_linear(cum))
        return out


class SingledayFig3(Workload):
    name = "singleday-fig3"
    unit = "stage2-draws"
    results = ("fig3.csv",)

    def prepare(self):
        cfg = self.outdir / "fig3.cfg"
        write_config(cfg, {"run": {"reps": FIG3_REPS, "sims": FIG3_SIMS}})
        return _jobs1(["sweep", "--preset", "fig3", "--config", str(cfg),
                       "--out", str(self.outdir / "fig3.csv"),
                       "--seed", str(self.seed)])

    def work(self):
        _, rows = checks.read_result(self.outdir / "fig3.csv")
        return len(rows) * FIG3_REPS * FIG3_SIMS

    def check(self):
        _, rows = checks.read_result(self.outdir / "fig3.csv")
        (v0,) = [r for r in rows if float(r["v"]) == 0.0]
        mean, sd = checks.single_day_loss_moments(
            FIG3_B, FIG3_Q1, FIG3_C, FIG3_LAMBDA2)
        pts = [(float(r["v"]), float(r["mean_regret"]),
                float(r["regret_stderr"])) for r in rows]
        return [checks.check_zero_regret(v0),
                checks.check_mean_loss(v0, mean, sd, FIG3_REPS * FIG3_SIMS),
                checks.check_nondecreasing(pts)]


def write_bookings(path, seed, model=BOOKING_MODEL):
    """Booking CSV in roomflow's dataset format, drawn from `model` with
    numpy. Reserved bookings: Poisson count per day, Gamma lead time and
    Weibull cancellation interval rounded to whole days (at least 1, the
    interval at most the lead), Geometric stay. Walk-ins: a Poisson mixture
    count per day, lead 0, never cancelled. Returns the number of rows."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    days = model["days"]
    n_res = rng.poisson(model["bookings_per_day"], days)
    m = int(n_res.sum())
    lead = np.maximum(1, np.rint(rng.gamma(*model["lead_gamma"], m))).astype(int)
    canceled = rng.random(m) < model["cancel_prob"]
    shape, scale = model["cancel_weibull"]
    interval = np.maximum(1, np.rint(scale * rng.weibull(shape, m))).astype(int)
    cancel_lead = np.minimum(interval, lead)
    stay = rng.geometric(1.0 - model["q_stay"], m)
    comp = rng.choice(len(model["walkin_weights"]), size=days,
                      p=model["walkin_weights"])
    n_walk = rng.poisson(np.asarray(model["walkin_rates"])[comp])
    walk_stay = rng.geometric(1.0 - model["q_stay"], int(n_walk.sum()))

    dates = [(model["first_date"] + datetime.timedelta(days=d)).isoformat()
             for d in range(days)]
    lines = ["arrival_date,lead_days,is_canceled,cancel_lead_days,"
             "stay_nights,is_walk_in"]
    i = j = 0
    for d in range(days):
        for _ in range(n_res[d]):
            cl = cancel_lead[i] if canceled[i] else ""
            lines.append(f"{dates[d]},{lead[i]},{int(canceled[i])},{cl},"
                         f"{stay[i]},0")
            i += 1
        for _ in range(n_walk[d]):
            lines.append(f"{dates[d]},0,0,,{walk_stay[j]},1")
            j += 1
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines) - 1


class FitBookings(Workload):
    name = "fit-bookings"
    unit = "booking-rows"
    results = ("model.txt", "model.txt.report")

    def prepare(self):
        self.csv = self.outdir / "bookings.csv"
        self.rows = write_bookings(self.csv, self.seed)
        return _jobs1(["fit", "--config", str(self.csv), "--capacity", "70",
                       "--out", str(self.outdir / "model.txt"),
                       "--seed", str(self.seed)])

    def work(self):
        return self.rows

    def check(self):
        model = checks.read_model(self.outdir / "model.txt")
        leads, cancels, stays, counts = checks.read_bookings(self.csv)
        return [checks.check_gamma(model, leads),
                checks.check_weibull(model, cancels),
                checks.check_geometric(model, stays),
                checks.check_mixture(model, counts,
                                     BOOKING_MODEL["walkin_weights"],
                                     BOOKING_MODEL["walkin_rates"])]


WORKLOADS = {w.name: w for w in
             (MultidayFig4, MultidayLowerBound, SingledayFig3, FitBookings)}

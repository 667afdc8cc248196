"""Fitting hotel-booking records to the generative model.

Lead times get a Gamma law, cancellation intervals a Weibull law, stay
durations a Geometric law, and daily walk-in counts a Poisson mixture; the
fitted marginals are then reassembled into a replayable scenario. The keep
curve and show probability are derived from the joint law of (lead time,
cancellation flag, cancellation interval): a cancellation landing with less
than one day of remaining lead behaves as a no-show, earlier ones as
in-window cancellations.
"""

from __future__ import annotations

import csv
import datetime
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma, gammaln, logsumexp, polygamma

from .flows import DurationLaw, KeepCurve, RateFunction, StageProfiles, substream

COLUMNS = ("arrival_date", "lead_days", "is_canceled", "cancel_lead_days",
           "stay_nights", "is_walk_in")


class IngestError(ValueError):
    """Malformed dataset; message carries line-numbered diagnostics."""


@dataclass(frozen=True)
class BookingRow:
    arrival_date: datetime.date
    lead_days: int
    is_canceled: bool
    cancel_lead_days: int | None
    stay_nights: int
    is_walk_in: bool

    def __post_init__(self):
        if self.lead_days < 0:
            raise ValueError("negative lead_days")
        if self.stay_nights < 1:
            raise ValueError("stay_nights must be positive")
        if self.is_canceled != (self.cancel_lead_days is not None):
            raise ValueError("cancel_lead_days present iff canceled")
        if self.cancel_lead_days is not None:
            if self.cancel_lead_days < 0:
                raise ValueError("negative cancel_lead_days")
            if self.cancel_lead_days > self.lead_days:
                raise ValueError("cancel_lead_days exceeds lead_days")
        if self.is_walk_in and self.lead_days != 0:
            raise ValueError("walk-ins must have lead_days 0")


@dataclass(frozen=True)
class FittedModel:
    """Fitted marginals plus the aggregates needed to rebuild a scenario.

    cancel_prob and mean_daily_bookings are not themselves fitted laws but
    scenario_from_fit cannot shape a booking rate or keep curve without
    them.
    """

    lead_gamma: tuple          # (shape, scale)
    cancel_weibull: tuple      # (shape, scale)
    duration_geometric: float  # q_stay
    walkin_mixture: tuple      # ((weight, rate), ...)
    capacity: int
    cancel_prob: float = 0.0
    mean_daily_bookings: float = 0.0
    mean_daily_walkins: float = field(init=False, default=0.0)

    def __post_init__(self):
        for name, (a, b) in (("lead_gamma", self.lead_gamma),
                             ("cancel_weibull", self.cancel_weibull)):
            if a <= 0 or b <= 0:
                raise ValueError(f"{name} parameters must be positive")
        if not 0.0 <= self.duration_geometric < 1.0:
            raise ValueError("q_stay must be in [0, 1)")
        if not 0.0 <= self.cancel_prob <= 1.0:
            raise ValueError("cancel_prob must be a probability")
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")
        w = np.array([wt for wt, _ in self.walkin_mixture])
        r = np.array([rt for _, rt in self.walkin_mixture])
        if len(w) == 0 or np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("mixture weights must be positive and sum to 1")
        if np.any(r < 0):
            raise ValueError("mixture rates must be nonnegative")
        object.__setattr__(self, "mean_daily_walkins", float(w @ r))


# ---------------------------------------------------------------------------
# ingestion

def _parse_row(raw, lineno):
    try:
        date = datetime.date.fromisoformat(raw["arrival_date"])
        canceled = raw["is_canceled"].strip()
        walkin = raw["is_walk_in"].strip()
        if canceled not in ("0", "1") or walkin not in ("0", "1"):
            raise ValueError("boolean columns must be 0 or 1")
        cancel_lead = raw["cancel_lead_days"].strip()
        return BookingRow(
            arrival_date=date,
            lead_days=int(raw["lead_days"]),
            is_canceled=canceled == "1",
            cancel_lead_days=int(cancel_lead) if cancel_lead else None,
            stay_nights=int(raw["stay_nights"]),
            is_walk_in=walkin == "1",
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise IngestError(f"line {lineno}: {exc}") from exc


def ingest_bookings(path):
    """Parse and validate a booking dataset; every malformed row is
    reported with its line number."""
    rows, problems = [], []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise IngestError("empty file without header")
        missing = set(COLUMNS) - set(reader.fieldnames)
        if missing:
            raise IngestError(f"missing columns: {sorted(missing)}")
        for lineno, raw in enumerate(reader, start=2):
            try:
                rows.append(_parse_row(raw, lineno))
            except IngestError as exc:
                problems.append(str(exc))
    if problems:
        raise IngestError("; ".join(problems))
    return rows


def write_bookings(rows, path):
    """Inverse of ingest_bookings (round-trips exactly)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for r in rows:
            writer.writerow([
                r.arrival_date.isoformat(), r.lead_days,
                int(r.is_canceled),
                "" if r.cancel_lead_days is None else r.cancel_lead_days,
                r.stay_nights, int(r.is_walk_in),
            ])


# ---------------------------------------------------------------------------
# fitters

def fit_gamma(samples, tol=1e-8, max_iter=200):
    """Gamma MLE via Newton on the profile shape equation
    log k - digamma(k) = log(mean) - mean(log)."""
    x = np.asarray(samples, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least 2 samples")
    if np.any(x <= 0):
        raise ValueError("samples must be positive")
    s = math.log(x.mean()) - float(np.mean(np.log(x)))
    if s <= 0:
        raise ValueError("non-identifiable: samples are (numerically) equal")
    # standard closed-form initializer
    k = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(max_iter):
        f = math.log(k) - digamma(k) - s
        fp = 1.0 / k - polygamma(1, k)
        step = f / fp
        k_new = k - step
        if k_new <= 0:
            k_new = k / 2.0
        if abs(k_new - k) < tol * max(1.0, k):
            k = k_new
            break
        k = k_new
    return float(k), float(x.mean() / k)


def fit_weibull(samples, tol=1e-8, max_iter=200):
    """Weibull MLE via Newton on the profile-likelihood shape equation."""
    x = np.asarray(samples, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least 2 samples")
    if np.any(x <= 0):
        raise ValueError("samples must be positive")
    lx = np.log(x)
    if np.ptp(x) == 0:
        raise ValueError("non-identifiable: samples are equal")
    mean_lx = lx.mean()
    k = 1.0
    for _ in range(max_iter):
        xk = x ** k
        sa = xk.sum()
        sb = (xk * lx).sum()
        sc = (xk * lx * lx).sum()
        g = sb / sa - 1.0 / k - mean_lx
        gp = (sc * sa - sb * sb) / (sa * sa) + 1.0 / (k * k)
        k_new = k - g / gp
        if k_new <= 0:
            k_new = k / 2.0
        if abs(k_new - k) < tol * max(1.0, k):
            k = k_new
            break
        k = k_new
    scale = float(np.mean(x ** k) ** (1.0 / k))
    return float(k), scale


def fit_geometric(durations):
    """Closed-form MLE under P(D = j) = (1 - q) q^(j-1), j >= 1."""
    d = np.asarray(durations)
    if len(d) < 1:
        raise ValueError("need at least 1 duration")
    if np.any(d < 1):
        raise ValueError("durations must be positive integers")
    return float(1.0 - len(d) / d.sum())


def _mixture_loglik(counts, log_w, rates):
    # log pmf matrix, guarding the rate-0 atom at zero
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = (counts[:, None] * np.log(rates[None, :]) - rates[None, :]
              - gammaln(counts[:, None] + 1.0))
    zero = rates[None, :] == 0.0
    lp = np.where(zero, np.where(counts[:, None] == 0, 0.0, -np.inf), lp)
    comp = lp + log_w[None, :]
    return comp, float(logsumexp(comp, axis=1).sum())


def fit_poisson_mixture(daily_counts, n_components=2, n_restarts=50,
                        seed=0, tol=1e-8, max_iter=500):
    """EM for a Poisson mixture; best of independently seeded restarts."""
    counts = np.asarray(daily_counts, dtype=float)
    if len(counts) == 0:
        raise ValueError("counts must be nonempty")
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    if n_components < 1:
        raise ValueError("need at least one component")
    distinct = len(np.unique(counts))
    if n_components > distinct:
        warnings.warn(
            f"reducing components from {n_components} to {distinct} "
            "(more components than distinct count values)")
        n_components = distinct
    if n_components == 1:
        return [(1.0, float(counts.mean()))]

    best = None
    for restart in range(n_restarts):
        rng = substream(seed, restart)
        rates = np.sort(rng.choice(counts, n_components, replace=False)
                        + rng.uniform(0.0, 1.0, n_components))
        w = rng.dirichlet(np.ones(n_components))
        log_w = np.log(w)
        prev_ll = -np.inf
        for _ in range(max_iter):
            comp, ll = _mixture_loglik(counts, log_w, rates)
            assert ll >= prev_ll - 1e-9, "EM log-likelihood decreased"
            if ll - prev_ll < tol:
                break
            prev_ll = ll
            resp = np.exp(comp - logsumexp(comp, axis=1, keepdims=True))
            nk = resp.sum(axis=0)
            nk = np.maximum(nk, 1e-300)
            rates = resp.T @ counts / nk
            log_w = np.log(nk / len(counts))
        if best is None or ll > best[0]:
            best = (ll, np.exp(log_w), rates)
    _, w, rates = best
    order = np.argsort(rates)
    return [(float(w[i]), float(rates[i])) for i in order]


def poisson_mixture_loglik(daily_counts, mixture):
    counts = np.asarray(daily_counts, dtype=float)
    w = np.array([wt for wt, _ in mixture])
    r = np.array([rt for _, rt in mixture])
    _, ll = _mixture_loglik(counts, np.log(w), r)
    return ll


# ---------------------------------------------------------------------------
# model assembly

def fit_model(rows, capacity, n_components=2, seed=0, min_walkin_count=0):
    """Run all four fitters on an ingested dataset.

    min_walkin_count excludes zero-inflated closure days from the mixture
    fit. Reserved rows with zero lead are excluded from the Gamma fit
    (positivity), as are zero cancellation intervals from the Weibull fit.
    """
    reserved = [r for r in rows if not r.is_walk_in]
    if not reserved:
        raise ValueError("no reserved bookings to fit")
    leads = [r.lead_days for r in reserved if r.lead_days > 0]
    cancel_ints = [r.cancel_lead_days for r in reserved
                   if r.is_canceled and r.cancel_lead_days > 0]
    if not cancel_ints:
        cancel_ints = [1, 2]  # no cancellations: nominal law, pi_c = 0
    # sorted, not set order: the count order seeds the EM restarts, and set
    # order follows the interpreter's hash seed
    days = sorted({r.arrival_date for r in rows})
    walkin_counts = {d: 0 for d in days}
    for r in rows:
        if r.is_walk_in:
            walkin_counts[r.arrival_date] += 1
    counts = [c for c in walkin_counts.values() if c >= min_walkin_count]
    return FittedModel(
        lead_gamma=fit_gamma(leads),
        cancel_weibull=fit_weibull(cancel_ints),
        duration_geometric=fit_geometric([r.stay_nights for r in rows]),
        walkin_mixture=tuple(fit_poisson_mixture(counts, n_components,
                                                 seed=seed)),
        capacity=capacity,
        cancel_prob=sum(r.is_canceled for r in reserved) / len(reserved),
        mean_daily_bookings=len(reserved) / len(days),
    )


def _weibull_cdf(x, shape, scale):
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    return 1.0 - np.exp(-((x / scale) ** shape))


def _gamma_pdf(x, shape, scale):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    xp = x[pos]
    out[pos] = np.exp((shape - 1.0) * np.log(xp) - xp / scale
                      - gammaln(shape) - shape * np.log(scale))
    return out


def scenario_from_fit(model, econ, iota, alpha, grid=200):
    """Rebuild a replayable scenario (and the matching adaptive policy)
    from fitted marginals.

    A booking made at window time t has lead u = k0 - t days. It cancels
    with probability cancel_prob at interval Z ~ Weibull; the cancellation
    lands in the booking window when Z <= u - 1 and behaves as a no-show
    when Z > u - 1. This yields the keep curve
    p(t) = 1 - cancel_prob F_Z(u - 1) and the aggregate show probability
    among window survivors. Booking volume is shaped by the truncated lead
    density; walk-in mass is the mixture mean (deterministic-rate mode).
    Intraday timing is not identifiable from daily data: both intraday
    densities are uniform.
    """
    from .engine import ScenarioConfig
    from .policies import AdaptivePolicy

    if econ.T < econ.k0:
        raise ValueError("horizon shorter than the booking window")
    k0 = float(econ.k0)
    pi_c = model.cancel_prob
    wk, wsc = model.cancel_weibull
    gk, gsc = model.lead_gamma

    t = np.linspace(0.0, k0, grid + 1)
    lead = k0 - t
    keep = 1.0 - pi_c * _weibull_cdf(lead - 1.0, wk, wsc)
    keep = np.maximum.accumulate(np.clip(keep, 0.0, 1.0))
    keep[-1] = 1.0
    curve = KeepCurve(t, keep)

    density = _gamma_pdf(lead, gk, gsc)
    seg_w = 0.5 * (density[:-1] + density[1:])
    if seg_w.sum() <= 0:
        seg_w = np.ones(grid)
    seg_mass = seg_w / seg_w.sum() * model.mean_daily_bookings
    widths = np.diff(t)
    pieces = [((float(t[i]), float(t[i + 1])),
               float(seg_mass[i] / widths[i])) for i in range(grid)]
    stage1_rate = RateFunction.piecewise(pieces)

    # shows are non-cancellers; survivors also include would-be no-shows
    survive = keep[:-1]
    shows = (1.0 - pi_c) * np.ones(grid)
    booked_w = seg_mass
    q1 = float((booked_w * shows).sum() / (booked_w * survive).sum())
    q1 = min(max(q1, 1e-9), 1.0)

    profiles = StageProfiles(
        stage1_rate=stage1_rate,
        keep_curve=curve,
        show_prob=q1,
        arrival_density=RateFunction.constant(1.0, 0.0, 1.0),
        walkin_rate=RateFunction.constant(model.mean_daily_walkins, 0.0, 1.0),
        duration_law=DurationLaw("geometric", q_stay=model.duration_geometric),
    )
    scenario = ScenarioConfig(
        T=econ.T, C=econ.capacity, k0=econ.k0, v=econ.confirmation_time,
        reward=econ.reward, overbook_penalty=econ.overbook_penalty,
        profiles=profiles,
    )
    return scenario, AdaptivePolicy(iota=iota, alpha=alpha)


# ---------------------------------------------------------------------------
# synthetic data and persistence

def simulate_booking_records(model, n_days, seed=0, k0=None):
    """Synthetic dataset drawn from a known model (for round-trip checks).

    Lead times, cancellation intervals, and counts are integerized the way
    the record format requires; intervals are clipped to the lead.
    """
    rng = substream(seed, 97)
    gk, gsc = model.lead_gamma
    wk, wsc = model.cancel_weibull
    base = datetime.date(2017, 1, 1)
    rows = []
    for day in range(n_days):
        date = base + datetime.timedelta(days=day)
        n_res = rng.poisson(model.mean_daily_bookings)
        for _ in range(n_res):
            lead = max(1, int(round(rng.gamma(gk, gsc))))
            canceled = bool(rng.random() < model.cancel_prob)
            cancel_lead = None
            if canceled:
                z = wsc * rng.weibull(wk)
                cancel_lead = min(max(1, int(round(z))), lead)
            stay = int(rng.geometric(1.0 - model.duration_geometric))
            rows.append(BookingRow(date, lead, canceled, cancel_lead,
                                   stay, False))
        weights = np.array([w for w, _ in model.walkin_mixture])
        rates = np.array([r for _, r in model.walkin_mixture])
        comp = rng.choice(len(weights), p=weights)
        for _ in range(rng.poisson(rates[comp])):
            rows.append(BookingRow(date, 0, False, None,
                                   int(rng.geometric(1.0 - model.duration_geometric)),
                                   True))
    return rows


def save_model(model, path):
    """Plain-text key=value form at full precision."""
    lines = [
        f"lead_gamma_shape={model.lead_gamma[0]!r}",
        f"lead_gamma_scale={model.lead_gamma[1]!r}",
        f"cancel_weibull_shape={model.cancel_weibull[0]!r}",
        f"cancel_weibull_scale={model.cancel_weibull[1]!r}",
        f"duration_geometric_q_stay={model.duration_geometric!r}",
        f"capacity={model.capacity}",
        f"cancel_prob={model.cancel_prob!r}",
        f"mean_daily_bookings={model.mean_daily_bookings!r}",
        f"walkin_components={len(model.walkin_mixture)}",
    ]
    for i, (w, r) in enumerate(model.walkin_mixture):
        lines.append(f"walkin_weight_{i}={w!r}")
        lines.append(f"walkin_rate_{i}={r!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path):
    kv = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            kv[key] = val
    n = int(kv["walkin_components"])
    mixture = tuple((float(kv[f"walkin_weight_{i}"]),
                     float(kv[f"walkin_rate_{i}"])) for i in range(n))
    return FittedModel(
        lead_gamma=(float(kv["lead_gamma_shape"]),
                    float(kv["lead_gamma_scale"])),
        cancel_weibull=(float(kv["cancel_weibull_shape"]),
                        float(kv["cancel_weibull_scale"])),
        duration_geometric=float(kv["duration_geometric_q_stay"]),
        walkin_mixture=mixture,
        capacity=int(kv["capacity"]),
        cancel_prob=float(kv["cancel_prob"]),
        mean_daily_bookings=float(kv["mean_daily_bookings"]),
    )


def fit_report(model, rows):
    """Quality report: log-likelihoods and histogram comparisons per law."""
    reserved = [r for r in rows if not r.is_walk_in]
    leads = np.array([r.lead_days for r in reserved if r.lead_days > 0],
                     dtype=float)
    # sorted, not set order: the count order seeds the EM restarts, and set
    # order follows the interpreter's hash seed
    days = sorted({r.arrival_date for r in rows})
    walkin_counts = {d: 0 for d in days}
    for r in rows:
        if r.is_walk_in:
            walkin_counts[r.arrival_date] += 1
    counts = np.array(list(walkin_counts.values()), dtype=float)

    gk, gsc = model.lead_gamma
    lead_ll = float(np.sum((gk - 1.0) * np.log(leads) - leads / gsc
                           - gammaln(gk) - gk * np.log(gsc))) if len(leads) else 0.0
    mix_ll = poisson_mixture_loglik(counts, model.walkin_mixture)

    out = ["fit report",
           f"rows={len(rows)} reserved={len(reserved)} days={len(days)}",
           f"lead_gamma shape={gk:.6g} scale={gsc:.6g} loglik={lead_ll:.6g}",
           f"cancel_weibull shape={model.cancel_weibull[0]:.6g} "
           f"scale={model.cancel_weibull[1]:.6g}",
           f"duration_geometric q_stay={model.duration_geometric:.6g}",
           f"walkin_mixture {model.walkin_mixture} loglik={mix_ll:.6g}",
           f"cancel_prob={model.cancel_prob:.6g}",
           "lead histogram (observed / expected):"]
    if len(leads):
        edges = np.linspace(0.0, float(leads.max()) + 1.0, 11)
        obs, _ = np.histogram(leads, bins=edges)
        from scipy.special import gammainc
        cdf = gammainc(gk, edges / gsc)
        exp = np.diff(cdf) * len(leads)
        for i in range(10):
            out.append(f"  [{edges[i]:.1f},{edges[i+1]:.1f}) "
                       f"{obs[i]} / {exp[i]:.1f}")
    out.append("caveat: the dataset omits rejected requests; fitted booking "
               "volume understates true demand")
    return "\n".join(out)

"""Fitting hotel-booking records to the generative model.

Lead times get a Gamma law, cancellation intervals a Weibull law, stay
durations a Geometric law, and daily walk-in counts a Poisson mixture; the
fitted marginals are then reassembled into a replayable scenario. The keep
curve and show probability are derived from the joint law of (lead time,
cancellation flag, cancellation interval): a cancellation landing with less
than one day of remaining lead behaves as a no-show, earlier ones as
in-window cancellations.

The mixture's EM restarts run together, one array pass per iteration over
the restarts still improving, and each restart's numbers equal those of a
lone run (`tests/reference.py` holds the one-after-another loop).

scipy is imported only inside the fitters and the report that call it, so
importing this module (as `roomflow.cli` does) does not load it.
"""

from __future__ import annotations

import csv
import datetime
import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .engine import ScenarioConfig
from .flows import DurationLaw, KeepCurve, RateFunction, StageProfiles, streams

# a booking dataset: one record per CSV row, one field per column. The
# arrival date is held as its proleptic Gregorian ordinal, and a booking
# that was not cancelled has cancel_lead_days 0
BOOKING_DTYPE = np.dtype([
    ("arrival_date", np.int64), ("lead_days", np.int64),
    ("is_canceled", np.bool_), ("cancel_lead_days", np.int64),
    ("stay_nights", np.int64), ("is_walk_in", np.bool_)])
COLUMNS = BOOKING_DTYPE.names


class IngestError(ValueError):
    """Malformed dataset; message carries line-numbered diagnostics."""


class ComponentsReduced(UserWarning):
    """The mixture fit was asked for more components than the counts have
    distinct values, and fits that many instead."""


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

def _parse_row(raw, lineno, ordinals):
    """One CSV record, its fields in COLUMNS order, as a BOOKING_DTYPE
    tuple; a broken rule raises IngestError naming the line. ordinals
    caches the ordinal of every date string that has parsed."""
    try:
        if len(raw) < len(COLUMNS):
            raise ValueError("fewer fields than the header")
        date, lead, canceled, cancel_lead, stay, walkin = raw
        day = ordinals.get(date)
        if day is None:
            day = ordinals[date] = (
                datetime.date.fromisoformat(date).toordinal())
        canceled, walkin = canceled.strip(), walkin.strip()
        if canceled not in ("0", "1") or walkin not in ("0", "1"):
            raise ValueError("boolean columns must be 0 or 1")
        cancel_lead = cancel_lead.strip()
        lead = int(lead)
        cancel_lead = int(cancel_lead) if cancel_lead else None
        stay = int(stay)
        canceled, walkin = canceled == "1", walkin == "1"
        if lead < 0:
            raise ValueError("negative lead_days")
        if stay < 1:
            raise ValueError("stay_nights must be positive")
        if canceled != (cancel_lead is not None):
            raise ValueError("cancel_lead_days present iff canceled")
        if cancel_lead is not None:
            if cancel_lead < 0:
                raise ValueError("negative cancel_lead_days")
            if cancel_lead > lead:
                raise ValueError("cancel_lead_days exceeds lead_days")
        if walkin and lead != 0:
            raise ValueError("walk-ins must have lead_days 0")
        if max(lead, stay) >= 2 ** 63:  # the int64 fields
            raise ValueError("lead_days and stay_nights must be below 2**63")
    except ValueError as exc:
        raise IngestError(f"line {lineno}: {exc}") from exc
    return (day, lead, canceled, cancel_lead or 0, stay, walkin)


def ingest_bookings(path):
    """Parse and validate a booking dataset into one BOOKING_DTYPE array;
    every malformed row is reported with its line number."""
    rows, problems = [], []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise IngestError("empty file without header")
            missing = set(COLUMNS) - set(header)
            if missing:
                raise IngestError(f"missing columns: {sorted(missing)}")
            # a repeated column name reads its last occurrence
            where = {name: i for i, name in enumerate(header)}
            order = [where[c] for c in COLUMNS]
            pick, width = operator.itemgetter(*order), max(order) + 1
            ordinals = {}
            for raw in filter(None, reader):  # a blank line holds no record
                try:
                    fields = (pick(raw) if len(raw) >= width
                              else [raw[i] for i in order if i < len(raw)])
                    rows.append(_parse_row(fields, reader.line_num, ordinals))
                except IngestError as exc:
                    problems.append(str(exc))
        except UnicodeDecodeError as exc:
            raise IngestError(f"{path}: not UTF-8 ({exc})") from exc
        except csv.Error as exc:  # such as a field over the size limit
            raise IngestError(f"line {reader.line_num}: {exc}") from exc
    if problems:
        raise IngestError("; ".join(problems))
    return np.array(rows, dtype=BOOKING_DTYPE)


def write_bookings(data, path):
    """Inverse of ingest_bookings (round-trips exactly)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for date, lead, canceled, cancel_lead, stay, walkin in data.tolist():
            writer.writerow([
                datetime.date.fromordinal(date).isoformat(), lead,
                int(canceled), cancel_lead if canceled else "", stay,
                int(walkin)])


# ---------------------------------------------------------------------------
# fitters

# stopping rules: a Newton step on a shape parameter below _NEWTON_TOL
# relative, an EM gain in log-likelihood below _EM_TOL, or the iteration cap
_NEWTON_TOL, _NEWTON_MAX_ITER = 1e-8, 200
_EM_TOL, _EM_MAX_ITER = 1e-8, 500


def _newton(k, step):
    """Newton iteration on a shape parameter from k; step(k) is f(k)/f'(k).
    A step that would leave k <= 0 halves k instead."""
    for _ in range(_NEWTON_MAX_ITER):
        k_new = k - step(k)
        if k_new <= 0:
            k_new = k / 2.0
        if abs(k_new - k) < _NEWTON_TOL * max(1.0, k):
            return k_new
        k = k_new
    return k


def fit_gamma(samples):
    """Gamma MLE via Newton on the profile shape equation
    log k - digamma(k) = log(mean) - mean(log)."""
    from scipy.special import digamma, polygamma
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
    k = _newton(k, lambda k: ((math.log(k) - digamma(k) - s)
                              / (1.0 / k - polygamma(1, k))))
    return float(k), float(x.mean() / k)


def fit_weibull(samples):
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

    def step(k):
        xk = x ** k
        sa = xk.sum()
        sb = (xk * lx).sum()
        sc = (xk * lx * lx).sum()
        g = sb / sa - 1.0 / k - mean_lx
        gp = (sc * sa - sb * sb) / (sa * sa) + 1.0 / (k * k)
        return g / gp

    k = _newton(1.0, step)
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


def _mixture_loglik(counts, log_factorial, log_w, rates):
    """Log-likelihood of daily counts under several Poisson mixtures at once.

    counts and log_factorial (gammaln(counts + 1)) hold one value per day;
    log_w and rates hold one mixture per row. Returns comp, the log joint
    of (mixture, day, component); lse, comp's logsumexp over components
    with that axis kept; and each mixture's log-likelihood, its lse summed
    over days. Every day and component reduction runs along the last axis,
    so each row's numbers equal a lone mixture's.
    """
    from scipy.special import logsumexp
    rates = rates[:, None, :]
    # log pmf, guarding the rate-0 atom at zero
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = counts[:, None] * np.log(rates) - rates - log_factorial[:, None]
    lp = np.where(rates == 0.0,
                  np.where(counts[:, None] == 0, 0.0, -np.inf), lp)
    comp = lp + log_w[:, None, :]
    lse = logsumexp(comp, axis=-1, keepdims=True)
    return comp, lse, lse[..., 0].sum(axis=-1)


def fit_poisson_mixture(daily_counts, n_components=2, n_restarts=50,
                        seed=0):
    """EM for a Poisson mixture; best of independently seeded restarts.

    Restart r starts from stream (r,) of seed. The restarts run together,
    one array pass per EM iteration over those still improving; a restart
    leaves that set where its gain in log-likelihood falls below _EM_TOL,
    and its numbers equal a lone run's. The result is the first restart of
    greatest log-likelihood, its components in increasing rate.
    """
    from scipy.special import gammaln
    counts = np.asarray(daily_counts, dtype=float)
    if len(counts) == 0:
        raise ValueError("counts must be nonempty")
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    if n_components < 1:
        raise ValueError("need at least one component")
    if n_restarts < 1:
        raise ValueError("need at least one restart")
    distinct = len(np.unique(counts))
    if n_components > distinct:
        warnings.warn(
            f"reducing components from {n_components} to {distinct} "
            "(more components than distinct count values)", ComponentsReduced)
        n_components = distinct
    if n_components == 1:
        return [(1.0, float(counts.mean()))]

    starts = [(np.sort(rng.choice(counts, n_components, replace=False)
                       + rng.uniform(0.0, 1.0, n_components)),
               rng.dirichlet(np.ones(n_components)))
              for rng in streams(seed, ((r,) for r in range(n_restarts)))]
    rates = np.array([r for r, _ in starts])
    log_w = np.log([w for _, w in starts])
    log_factorial = gammaln(counts + 1.0)
    ll = np.full(n_restarts, -np.inf)
    active = np.arange(n_restarts)  # the restarts still improving
    for _ in range(_EM_MAX_ITER):
        comp, lse, new_ll = _mixture_loglik(counts, log_factorial,
                                            log_w[active], rates[active])
        prev_ll = ll[active]
        assert np.all(new_ll >= prev_ll - 1e-9), "EM log-likelihood decreased"
        ll[active] = new_ll
        # a NaN gain (-inf to -inf) stops no restart, as in a lone run
        go = ~(new_ll - prev_ll < _EM_TOL)
        active = active[go]
        if not len(active):
            break
        resp = np.exp(comp[go] - lse[go])
        nk = resp.sum(axis=1)
        nk = np.maximum(nk, 1e-300)
        # one matrix-vector product per restart, as a lone run rounds it
        rates[active] = np.array([r.T @ counts for r in resp]) / nk
        log_w[active] = np.log(nk / len(counts))
    best = max(range(n_restarts), key=ll.__getitem__)  # first of the greatest
    w, rates = np.exp(log_w[best]), rates[best]
    order = np.argsort(rates)
    return [(float(w[i]), float(rates[i])) for i in order]


def poisson_mixture_loglik(daily_counts, mixture):
    from scipy.special import gammaln
    counts = np.asarray(daily_counts, dtype=float)
    w = np.array([[wt for wt, _ in mixture]])
    r = np.array([[rt for _, rt in mixture]])
    _, _, ll = _mixture_loglik(counts, gammaln(counts + 1.0), np.log(w), r)
    return float(ll[0])


# ---------------------------------------------------------------------------
# model assembly

def daily_walkin_counts(data):
    """Walk-in count of every arrival date of the dataset, in sorted date
    order. Sorted, not hash order: the count order seeds the EM restarts,
    and a set's order follows the interpreter's hash seed."""
    days, day = np.unique(data["arrival_date"], return_inverse=True)
    return np.bincount(day[data["is_walk_in"]], minlength=len(days))


def _fitted(law, fitter, samples, **kw):
    """fitter(samples), with a fitter's ValueError naming the law."""
    try:
        return fitter(samples, **kw)
    except ValueError as exc:
        raise ValueError(f"{law} fit: {exc}") from exc


def fit_model(data, capacity, n_components=2, seed=0):
    """Run all four fitters on an ingested dataset.

    Reserved rows with zero lead are excluded from the Gamma fit
    (positivity), as are zero cancellation intervals from the Weibull fit.
    A walk-in-only dataset has nothing to fit them to: it gets the nominal
    laws Gamma(1, 1) and Weibull(1, 1), with no cancellations and no
    bookings. A fitter's ValueError names the law it could not fit.
    """
    reserved = data[~data["is_walk_in"]]
    counts = daily_walkin_counts(data)
    if len(reserved):
        lead = reserved["lead_days"]
        interval = reserved["cancel_lead_days"]  # 0 when not cancelled
        cancel_ints = interval[interval > 0]
        if not len(cancel_ints):
            cancel_ints = [1, 2]  # no cancellations: nominal law, pi_c = 0
        laws = dict(
            lead_gamma=_fitted("lead-time Gamma", fit_gamma, lead[lead > 0]),
            cancel_weibull=_fitted("cancellation Weibull", fit_weibull,
                                   cancel_ints),
            cancel_prob=float(np.mean(reserved["is_canceled"])),
            mean_daily_bookings=len(reserved) / len(counts))
    else:
        laws = dict(lead_gamma=(1.0, 1.0), cancel_weibull=(1.0, 1.0))
    return FittedModel(
        **laws,
        duration_geometric=_fitted("stay-length Geometric", fit_geometric,
                                   data["stay_nights"]),
        walkin_mixture=tuple(_fitted(
            "walk-in Poisson mixture", fit_poisson_mixture, counts,
            n_components=n_components, seed=seed)),
        capacity=capacity,
    )


def _weibull_cdf(x, shape, scale):
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    return 1.0 - np.exp(-((x / scale) ** shape))


def _gamma_logpdf(x, shape, scale):
    """Gamma log-density at positive x."""
    from scipy.special import gammaln
    return ((shape - 1.0) * np.log(x) - x / scale
            - gammaln(shape) - shape * np.log(scale))


def _gamma_pdf(x, shape, scale):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(_gamma_logpdf(x[pos], shape, scale))
    return out


# knots of the fitted keep curve and pieces of the booking rate
_GRID = 200


def scenario_from_fit(model, T, k0, v, reward=1.0, overbook_penalty=1.0):
    """Rebuild a replayable scenario with capacity model.capacity from
    fitted marginals.

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
    if k0 < 1:
        raise ValueError("k0: must be at least 1")
    if T < k0:
        raise ValueError("horizon shorter than the booking window")
    pi_c = model.cancel_prob
    wk, wsc = model.cancel_weibull
    gk, gsc = model.lead_gamma

    t = np.linspace(0.0, k0, _GRID + 1)
    lead = k0 - t
    keep = 1.0 - pi_c * _weibull_cdf(lead - 1.0, wk, wsc)
    keep = np.maximum.accumulate(np.clip(keep, 0.0, 1.0))
    keep[-1] = 1.0
    curve = KeepCurve(t, keep)

    density = _gamma_pdf(lead, gk, gsc)
    seg_w = 0.5 * (density[:-1] + density[1:])
    if seg_w.sum() <= 0:
        seg_w = np.ones(_GRID)
    seg_mass = seg_w / seg_w.sum() * model.mean_daily_bookings
    widths = np.diff(t)
    pieces = [((float(t[i]), float(t[i + 1])),
               float(seg_mass[i] / widths[i])) for i in range(_GRID)]
    stage1_rate = RateFunction.piecewise(pieces)

    # shows are non-cancellers; survivors also include would-be no-shows
    survive = keep[:-1]
    shows = (1.0 - pi_c) * np.ones(_GRID)
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
    return ScenarioConfig(
        T=T, C=model.capacity, v=v, reward=reward,
        overbook_penalty=overbook_penalty, profiles=profiles,
    )


# ---------------------------------------------------------------------------
# synthetic data and persistence

def simulate_booking_records(model, n_days, seed=0):
    """Synthetic dataset drawn from a known model (for round-trip checks).

    Lead times, cancellation intervals, and counts are integerized the way
    the record format requires; intervals are clipped to the lead.
    """
    rng = next(streams(seed, [(97,)]))
    gk, gsc = model.lead_gamma
    wk, wsc = model.cancel_weibull
    weights = np.array([w for w, _ in model.walkin_mixture])
    rates = np.array([r for _, r in model.walkin_mixture])
    first = datetime.date(2017, 1, 1).toordinal()
    rows = []
    for date in range(first, first + n_days):
        n_res = rng.poisson(model.mean_daily_bookings)
        for _ in range(n_res):
            lead = max(1, int(round(rng.gamma(gk, gsc))))
            canceled = bool(rng.random() < model.cancel_prob)
            cancel_lead = 0
            if canceled:
                z = wsc * rng.weibull(wk)
                cancel_lead = min(max(1, int(round(z))), lead)
            stay = int(rng.geometric(1.0 - model.duration_geometric))
            rows.append((date, lead, canceled, cancel_lead, stay, False))
        comp = rng.choice(len(weights), p=weights)
        for _ in range(rng.poisson(rates[comp])):
            rows.append((date, 0, False, 0,
                         int(rng.geometric(1.0 - model.duration_geometric)),
                         True))
    return np.array(rows, dtype=BOOKING_DTYPE)


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


def fit_report(model, data):
    """Quality report: log-likelihoods and histogram comparisons per law."""
    from scipy.special import gammainc
    lead = data["lead_days"]
    leads = lead[lead > 0].astype(float)  # walk-ins have lead 0
    reserved = np.count_nonzero(~data["is_walk_in"])
    counts = daily_walkin_counts(data)

    gk, gsc = model.lead_gamma
    lead_ll = float(np.sum(_gamma_logpdf(leads, gk, gsc)))
    mix_ll = poisson_mixture_loglik(counts, model.walkin_mixture)

    out = ["fit report",
           f"rows={len(data)} reserved={reserved} days={len(counts)}",
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
        cdf = gammainc(gk, edges / gsc)
        exp = np.diff(cdf) * len(leads)
        for i in range(10):
            out.append(f"  [{edges[i]:.1f},{edges[i+1]:.1f}) "
                       f"{obs[i]} / {exp[i]:.1f}")
    out.append("caveat: the dataset omits rejected requests; fitted booking "
               "volume understates true demand")
    return "\n".join(out)

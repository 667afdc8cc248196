"""Fitting hotel-booking records to the generative model.

Lead times get a Gamma law, cancellation intervals a Weibull law, stay
durations a Geometric law, and daily walk-in counts a Poisson mixture. The
fitted model is written as key=value text (`save_model`) beside a quality
report (`fit_report`).

A booking dataset of plain rows and plain fields (ASCII digits, flags of
one byte, YYYY-MM-DD dates) is ingested from its bytes a block of whole
lines at a time: numpy finds the fields, converts each column from its
bytes and checks each rule over the whole block. Any other file (padded,
signed or underscored integers, other Unicode digits, compact dates,
quoted fields, bare CR line ends, ragged rows, bytes that are not UTF-8)
and any file that breaks a rule is read again by the per-row csv loop,
which words the line-numbered errors; both give the same array or the
same error (`tests/reference.py` holds the per-row reader).

The mixture's EM restarts run together, one array pass per iteration over
the restarts still improving, and each restart's numbers equal those of a
lone run (`tests/reference.py` holds the one-after-another loop). Its
logsumexp over components is computed here (`_logsumexp`), with
scipy.special.logsumexp's rounding.

scipy is imported only inside the fitters and the report that call it
(`gammaln`, `digamma`, `polygamma`, `gammainc`), so importing this module
(as `roomflow.cli` does) does not load it.
"""

from __future__ import annotations

import csv
import datetime
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .flows import streams

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
    """Fitted marginals, plus two aggregates of the reserved rows that are
    not themselves fitted laws: cancel_prob and mean_daily_bookings."""

    lead_gamma: tuple          # (shape, scale)
    cancel_weibull: tuple      # (shape, scale)
    duration_geometric: float  # q_stay
    walkin_mixture: tuple      # ((weight, rate), ...)
    capacity: int
    cancel_prob: float = 0.0
    mean_daily_bookings: float = 0.0

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


# ---------------------------------------------------------------------------
# ingestion

def _parse_row(raw, lineno, ordinals):
    """One CSV record, its fields in COLUMNS order, as a BOOKING_DTYPE
    tuple; a broken rule raises IngestError naming the line. ordinals
    caches the ordinal of every date string that has parsed."""
    try:
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


def _column_order(header):
    """Index in the header of each of COLUMNS; a repeated column name
    reads its last occurrence."""
    missing = set(COLUMNS) - set(header)
    if missing:
        raise IngestError(f"missing columns: {sorted(missing)}")
    where = {name: i for i, name in enumerate(header)}
    return [where[c] for c in COLUMNS]


# bytes of a dataset that _ingest_columns reads, checks and converts
# together; a block ends at its last line end
CHUNK_BYTES = 1 << 16
_COMMA, _LF, _ZERO, _ONE = b",\n01"  # byte values
# 10**k for the k-th digit from a field's end: 18 digits stay below 2**63
_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _digits(buf, start, end):
    """The fields buf[start:end] as int64 when each is 1 to 18 ASCII
    digits, else None: each digit times its power of ten, summed per
    field."""
    size = end - start
    if not np.all((size >= 1) & (size <= len(_POW10))):
        return None
    last = np.cumsum(size)  # one past each field in the list of their bytes
    first, k = last - size, np.arange(size.sum())
    digit = buf[k + np.repeat(start - first, size)] - _ZERO  # wraps below 0
    if np.any(digit > 9):
        return None
    return np.add.reduceat(digit * _POW10[np.repeat(last - 1, size) - k],
                           first)


def _flags(buf, start, end):
    """The fields as bool when each is the byte 0 or 1, else None."""
    first = buf[start]
    if not np.all((end - start == 1) & ((first == _ZERO) | (first == _ONE))):
        return None
    return first == _ONE


def _dates(buf, start, end, ordinals):
    """The proleptic ordinals of the fields when each is 10 bytes
    (YYYY-MM-DD) that fromisoformat reads, else None. ordinals caches them
    by text, looked up once per run of equal fields."""
    if not np.all(end - start == 10):
        return None
    key = sliding_window_view(buf, 10)[start].view("S10").ravel()
    run = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    texts = [k.decode() for k in key[run].tolist()]  # each run's first
    try:
        for d in set(texts).difference(ordinals):
            ordinals[d] = datetime.date.fromisoformat(d).toordinal()
    except ValueError:
        return None
    return np.repeat(np.fromiter(map(ordinals.__getitem__, texts), np.int64,
                                 len(texts)), np.diff(run, append=len(key)))


def _columns_block(block, width, order, ordinals, limit):
    """The records of a block of whole lines as a BOOKING_DTYPE array, or
    None when the block needs the per-row path: a quote, a NUL, a bare
    carriage return, bytes that are not UTF-8, a line of at least limit
    bytes, a field count other than width, a field that is not plain
    (_digits, _flags, _dates, and a cancel_lead_days empty or digits), or
    a value that breaks a rule of _parse_row."""
    if b'"' in block or b"\0" in block:
        return None
    crs = block.count(b"\r")
    if crs:  # csv.writer ends its lines with \r\n
        if crs != block.count(b"\r\n"):
            return None
        block = block.replace(b"\r\n", b"\n")
    if not block.isascii():
        try:
            block.decode()
        except UnicodeDecodeError:
            return None
    buf = np.frombuffer(block, np.uint8)
    end = np.flatnonzero((buf == _COMMA) | (buf == _LF))  # each field's end
    start = np.concatenate(([0], end[:-1] + 1))
    at_eol = buf[end] == _LF
    if np.diff(end[at_eol], prepend=-1).max() >= limit:
        return None
    # a blank line is one empty field right after a line end
    blank = at_eol & (start == end) & np.concatenate(([True], at_eol[:-1]))
    if blank.any():
        start, end, at_eol = start[~blank], end[~blank], at_eol[~blank]
    n = np.count_nonzero(at_eol)  # every line holds width fields
    if len(end) != n * width or not at_eol[width - 1::width].all():
        return None
    if not n:
        return np.empty(0, BOOKING_DTYPE)
    start, end = start.reshape(n, width), end.reshape(n, width)
    date, lead, canceled, (first, last), stay, walkin = (
        (start[:, i], end[:, i]) for i in order)
    day = _dates(buf, *date, ordinals)
    lead, stay = _digits(buf, *lead), _digits(buf, *stay)
    canceled, walkin = _flags(buf, *canceled), _flags(buf, *walkin)
    present = last > first  # an empty cancel_lead_days reads 0
    given = _digits(buf, first[present], last[present])
    if any(x is None for x in (day, lead, stay, canceled, walkin, given)):
        return None
    values = np.zeros(n, np.int64)
    values[present] = given
    if not np.all((stay >= 1) & (canceled == present) & (values <= lead)
                  & ~(walkin & (lead != 0))):
        return None
    out = np.empty(n, BOOKING_DTYPE)
    out["arrival_date"], out["lead_days"] = day, lead
    out["is_canceled"], out["cancel_lead_days"] = canceled, values
    out["stay_nights"], out["is_walk_in"] = stay, walkin
    return out


def _blocks(fh):
    """The rest of fh as blocks of whole lines, read CHUNK_BYTES at a time
    and cut after the last line end, the rest carried into the next block;
    a last line without its line end gets one."""
    pieces = []
    while data := fh.read(CHUNK_BYTES):
        cut = data.rfind(b"\n") + 1
        if cut:
            yield b"".join([*pieces, memoryview(data)[:cut]])
            pieces = [data[cut:]]
        else:
            pieces.append(data)
    if rest := b"".join(pieces):
        yield rest + b"\n"


def _ingest_columns(path):
    """The dataset as ingest_bookings returns it, read a block of bytes at
    a time and checked a column at a time; None when the file needs the
    per-row path, which alone reads quoted fields and words errors."""
    limit = csv.field_size_limit()
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = line.decode().removesuffix("\n").removesuffix("\r")
        except UnicodeDecodeError:
            return None
        if len(line) >= limit or any(c in header for c in '"\0\r'):
            return None
        header = header.split(",")
        if set(COLUMNS) - set(header):
            return None
        order, width = _column_order(header), len(header)
        parts, ordinals = [], {}
        for part in (_columns_block(block, width, order, ordinals, limit)
                     for block in _blocks(fh)):
            if part is None:
                return None
            parts.append(part)
    return np.concatenate(parts) if parts else np.empty(0, BOOKING_DTYPE)


def ingest_bookings(path):
    """Parse and validate a booking dataset into one BOOKING_DTYPE array;
    every malformed row is reported with its line number.

    A file of plain records with plain fields is read in binary, a block
    of CHUNK_BYTES cut after its last line end at a time, and checked and
    converted a column at a time (_ingest_columns). Any other file, and
    every file that breaks a rule, is read again record by record, and
    that path words the errors: both paths return the same array, or the
    same error."""
    data = _ingest_columns(path)
    return _ingest_rows(path) if data is None else data


def _ingest_rows(path):
    """ingest_bookings one csv record at a time."""
    rows, problems = [], []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise IngestError("empty file without header")
            order = _column_order(header)
            pick, width = operator.itemgetter(*order), max(order) + 1
            ordinals = {}
            for raw in filter(None, reader):  # a blank line holds no record
                if len(raw) < width:
                    problems.append(f"line {reader.line_num}: "
                                    "fewer fields than the header")
                    continue
                try:
                    rows.append(_parse_row(pick(raw), reader.line_num,
                                           ordinals))
                except IngestError as exc:
                    problems.append(str(exc))
        except UnicodeDecodeError as exc:
            raise IngestError(f"{path}: not UTF-8 ({exc})") from exc
        except csv.Error as exc:  # such as a field over the size limit
            raise IngestError(f"line {reader.line_num}: {exc}") from exc
    if problems:
        raise IngestError("; ".join(problems))
    return np.array(rows, dtype=BOOKING_DTYPE)


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


def _logsumexp(a):
    """scipy.special.logsumexp over a's leading axis, to the bit: the
    result scipy gives for a copy of a with that axis moved last.

    scipy's steps, in numpy: the maximum, its tie count m, the sum s of
    exp(a - max) over the other terms (a tie's term times 0, where scipy
    takes exp(-inf)), log1p(s / m) + log(m) + max, and log(sum(exp(a)))
    where that is not finite (all terms -inf, or an inf or NaN term).
    scipy's other steps (a guard on s == 0, signs) change no finite result.
    Only s depends on the order of its terms; the fallback's sums are 0,
    inf or NaN in any order. numpy sums a last axis one term after another
    below 8 terms, as a leading-axis sum adds its rows; from 8 terms it
    keeps 8 partial sums, so there s is taken on a contiguous copy with
    that axis last, which is shorter than writing numpy's order out and
    costs only fits of 8 or more components.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=0)
        tie = a == a_max
        m = tie.sum(axis=0, dtype=float)
        e = np.exp(a - a_max) * ~tie
        s = (e.sum(axis=0) if len(a) < 8
             else np.moveaxis(e, 0, -1).copy().sum(axis=-1))
        out = np.log1p(s / m) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(a[:, bad]).sum(axis=0))
    return out


def _mixture_loglik(counts, log_factorial, log_w, rates):
    """Log-likelihood of daily counts under several Poisson mixtures at once.

    counts and log_factorial (gammaln(counts + 1)) hold one value per day;
    log_w and rates hold one mixture per row, (mixture, component). Returns
    comp, the log joint laid out as (component, mixture, day); lse, comp's
    logsumexp over components, (mixture, day); and each mixture's
    log-likelihood, its lse summed over days. Components lead, so their
    reductions are cheap leading-axis passes (`_logsumexp` keeps scipy's
    rounding), and the sum over days runs along the last axis, so each
    mixture's numbers equal a lone mixture's.
    """
    rates = rates.T[:, :, None]
    # log pmf, guarding the rate-0 atom at zero
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = counts * np.log(rates) - rates - log_factorial
    lp = np.where(rates == 0.0, np.where(counts == 0, 0.0, -np.inf), lp)
    comp = lp + log_w.T[:, :, None]
    lse = _logsumexp(comp)
    return comp, lse, lse.sum(axis=-1)


def fit_poisson_mixture(daily_counts, n_components=2, n_restarts=50,
                        seed=0):
    """EM for a Poisson mixture; best of independently seeded restarts.

    Restart r starts from stream (r,) of seed. The restarts run together,
    one array pass per EM iteration over those still improving; a restart
    leaves that set where its gain in log-likelihood falls below _EM_TOL,
    and its numbers equal a lone run's. The result is the first restart of
    greatest log-likelihood, its components in increasing rate.

    The responsibilities are held as (component, restart, day), as
    `_mixture_loglik` lays out the log joint. A lone run sums them over
    days one day after another and over components in numpy's last-axis
    order, so the batch does too: each component's mass nk is a running
    sum along the days, and `_logsumexp` keeps the component order.
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
        resp = np.exp(comp[:, go] - lse[go])
        nk = np.cumsum(resp, axis=-1)[..., -1].T
        nk = np.maximum(nk, 1e-300)
        # one matrix-vector product per restart on its contiguous (day,
        # component) block, as a lone run rounds it
        blocks = np.moveaxis(resp, 0, -1).copy()
        rates[active] = np.array([r.T @ counts for r in blocks]) / nk
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
# the model, its file and its report

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


def _gamma_logpdf(x, shape, scale):
    """Gamma log-density at positive x."""
    from scipy.special import gammaln
    return ((shape - 1.0) * np.log(x) - x / scale
            - gammaln(shape) - shape * np.log(scale))


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

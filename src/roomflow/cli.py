"""Batch experiment driver.

Subcommands: simulate (multi-day regret runs), sweep (grid evaluation with
argmin annotation), fit (dataset calibration), check (crowdedness and
call-timing conditions). Configuration is INI-style; presets fig2, fig3,
fig4, and lower-bound ship with the package. Rates are per day, times in
day fractions. Result files are comma-separated with a header; the leading
`# generated` timestamp line is excluded from the reproducibility
guarantee. Per-cell seeds derive from SHA-256 of "master|cell-key|rep"
truncated to 64 bits, so partial re-runs reproduce cell for cell.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import datetime
import hashlib
import math
import sys
import warnings
from importlib import resources
from itertools import product

import numpy as np

from . import calibration, engine
from .flows import (
    MAX_SHAPE,
    DurationLaw,
    KeepCurve,
    RateFunction,
    StageProfiles,
)
from .policies import (
    AdaptivePolicy,
    HeuristicPolicy,
    OraclePolicy,
    check_busy_season,
    check_call_timing,
    estimated_capacity,
)

PRESETS = ("fig2", "fig3", "fig4", "lower-bound")


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the field."""


def cell_seed(master, cell_key, rep):
    digest = hashlib.sha256(f"{master}|{cell_key}|{rep}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# config parsing

_SECTIONS = ("scenario", "policies", "sweep", "run", "check")


def _malformed(path, exc):
    """ConfigError naming the file and line of an INI syntax error."""
    if isinstance(exc, configparser.DuplicateOptionError):
        line, what = exc.lineno, f"[{exc.section}] {exc.option}: repeated key"
    elif isinstance(exc, configparser.DuplicateSectionError):
        line, what = exc.lineno, f"[{exc.section}]: repeated section"
    elif isinstance(exc, configparser.MissingSectionHeaderError):
        line, what = exc.lineno, "a key before any [section] header"
    else:  # a ParsingError: lines that are neither a header nor a key
        line, what = exc.errors[0][0], "not a [section] header or a key"
    return ConfigError(f"{path}: line {line}: {what}")


def load_config(preset, config_path):
    # no header can name the empty section, so [DEFAULT], whose keys would
    # land in every section, is an ordinary section here, and unknown; a
    # value is taken as written, so a % in it is an ordinary character
    cfg = configparser.ConfigParser(default_section="", interpolation=None)
    cfg.optionxform = str
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        text = (resources.files("roomflow") / "presets"
                / f"{preset}.cfg").read_text()
        cfg.read_string(text)
    if config_path is not None:
        try:
            read = cfg.read(config_path, encoding="utf-8")
        except configparser.Error as exc:
            raise _malformed(config_path, exc) from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{config_path}: not UTF-8 ({exc})") from exc
        if not read:
            raise ConfigError(f"cannot read config file {config_path}")
    for section in cfg.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"[{section}]: unknown section")
    if not cfg.sections():
        raise ConfigError("empty configuration: give --preset or --config")
    return cfg


_REQUIRED = object()


class _Fields:
    """One config section's values, with `overlay` laid over them. Each read
    converts a value and marks its key read; `reject_unread` fails on the
    keys no parse step asked for, so a typo never falls back to a default
    silently."""

    def __init__(self, cfg, section, overlay=()):
        self.section = section
        self.values = dict(cfg.items(section)) if cfg.has_section(
            section) else {}
        self.values.update(overlay)
        self.unread = set(self.values)

    def get(self, key, conv, default=_REQUIRED):
        self.unread.discard(key)
        if key not in self.values:
            if default is not _REQUIRED:
                return default
            raise ConfigError(f"[{self.section}] {key}: missing")
        try:
            return conv(self.values[key])
        except ValueError as exc:
            raise ConfigError(f"[{self.section}] {key}: {exc}") from exc

    def reject_unread(self, mode, axes=()):
        if self.unread:
            key = min(self.unread)
            where = "[sweep]" if key in axes else f"[{self.section}]"
            raise ConfigError(f"{where} {key}: not read in mode {mode!r}")


def _whole(least, most=math.inf):
    """Converter to a whole number in [least, most]. Integral floats, such
    as the 10.0 a sweep axis gives, are whole; 2.5 is not."""
    def conv(text):
        x = float(text)
        if not x.is_integer():
            raise ValueError(f"not a whole number: {text}")
        if x < least:
            raise ValueError(f"must be at least {least}, got {x:g}")
        if x > most:
            raise ValueError(f"must be at most {most}, got {x:g}")
        return int(x)
    return conv


def _real(rule, ok):
    """Converter to a float that meets `ok`; `rule` says what it must be.
    nan meets no rule."""
    def conv(text):
        x = float(text)
        if not ok(x):
            raise ValueError(f"must be {rule}, got {x:g}")
        return x
    return conv


# a day's booking requests, walk-ins and single-day bookings are held as
# arrays of that length (Stage I's lanes: about 14 bytes a request and
# policy), in batches and blocks of days that hold little more than their
# largest day, so their expected count is bounded where a day fits in
# memory: a fig4 day at lambda1 = 10**6 peaks near 245 MiB
_MAX_DAY_EVENTS = 1_000_000
_RATE = _real(f"in [0, {_MAX_DAY_EVENTS}]",
              lambda x: 0.0 <= x <= _MAX_DAY_EVENTS)
_POSITIVE = _real("finite and positive", lambda x: 0.0 < x < math.inf)
_IOTA = _real("finite and nonnegative", lambda x: 0.0 <= x < math.inf)
# a multiday replication keeps a float64 loss and a ledger slot a day for
# each of its trajectories, the benchmark's and two per policy: fig4's
# thirteen peak near 240 bytes a day (tracemalloc), 24 MB at this horizon,
# which takes minutes a replication; a stay may not outlast it either
_MAX_DAYS = 100_000
# the warm start holds up to three array or list entries a room (about
# 30 bytes), and a day serves at most C guests
_MAX_ROOMS = 1_000_000
# a single-day cell keeps three float64 results a draw for each policy and
# replication (24 MB at this count) until the file is written
_MAX_SIMS = 1_000_000
# a replication of a cell is one work unit (a 4-tuple with its own seed,
# about 120 bytes), so 10**6 units of one cell take about 120 MB
_MAX_REPS = 1_000_000
# results a whole run holds until its files are written: per cell, rep and
# policy a T-day float64 cumulative-regret curve (multiday, 800 KB at
# T = 10**5) or three float64 results a draw (single-day, 24 MB at 10**6
# draws); 2 GiB
_MAX_RUN_BYTES = 2 ** 31


def _one_of(*values):
    """Converter that accepts only the given strings."""
    def conv(text):
        if text not in values:
            raise ValueError(f"unknown value {text!r}")
        return text
    return conv


_MAX_CELLS = 10_000  # of a grid, and so of points on one axis


def parse_axis(text):
    """Value grid: either "a,b,c" or "start:stop:step" (stop inclusive up to
    float error; start and step finite). A range is sized before it is
    built, so one far past the cell limit fails without allocating its
    points. Values that print alike would share a cell key, and so a seed:
    they fail."""
    text = text.strip()
    if ":" in text:
        bounds = [float(x) for x in text.split(":")]
        start, stop, step = bounds if len(bounds) == 3 else [math.nan] * 3
        if not (math.isfinite(start) and 0 < step < math.inf
                and start <= stop):  # nan fails every test
            raise ConfigError(f"bad axis range {text!r}")
        steps = (stop - start) / step
        if not steps < _MAX_CELLS:
            raise ConfigError(
                f"axis range {text!r} has more than {_MAX_CELLS} points")
        values = [start + i * step
                  for i in range(math.floor(steps * (1 + 1e-9)) + 1)]
    else:
        values = [float(x) for x in text.split(",")]
    printed = {}
    for v in values:
        if (key := f"{v:g}") in printed:
            raise ConfigError(f"{printed[key]!r} and {v!r} share a cell key")
        printed[key] = v
    return values


# policy kind -> type; a spec gives each of the type's fields as key=value
_KINDS = {"adaptive": AdaptivePolicy, "heuristic": HeuristicPolicy,
          "oracle": OraclePolicy}


def parse_policies(cfg):
    """[policies] name = kind key=value ... -> dict of policy objects."""
    if not cfg.has_section("policies"):
        raise ConfigError("[policies]: section missing")
    out = {}
    for name, spec in cfg.items("policies"):
        kind, *parts = spec.split() or [""]
        if kind not in _KINDS:
            raise ConfigError(f"[policies] {name}: unknown kind {kind!r}")
        cls = _KINDS[kind]
        keys = [field.name for field in dataclasses.fields(cls)]
        try:
            kv = {}
            for part in parts:
                key, eq, value = part.partition("=")
                if not eq:
                    raise ValueError(f"{part}: not key=value")
                if key in kv:
                    raise ValueError(f"{key}: repeated")
                if key not in keys:
                    raise ValueError(f"{key}: not read by kind {kind!r}")
                kv[key] = float(value)
            missing = [k for k in keys if k not in kv]
            if missing:
                raise ValueError(f"{missing[0]}: missing")
            out[name] = cls(**kv)
        except ValueError as exc:
            raise ConfigError(f"[policies] {name}: {exc}") from exc
    if not out:
        raise ConfigError("[policies]: no policies given")
    return out


def _profiles(f, lam1, p0, k0):
    """Day profiles from [scenario]; lam1, p0 and k0 describe the booking
    window."""
    lam2 = f.get("lambda2", _RATE)
    q1 = f.get("q1", _real("in (0, 1]", lambda x: 0.0 < x <= 1.0))

    def day_rate(prefix, shape, mass):  # Beta(a, b), flat when a = b = 1
        a, b = (f.get(f"{prefix}_beta_{x}", shape, 1.0) for x in "ab")
        return (RateFunction.constant(mass) if a == b == 1.0
                else RateFunction.beta_shaped(mass, a, b))

    # only rng.beta reads the arrival shapes; the walk-in rate's tail mass
    # (RateFunction.mass_after) is a sum over whole shapes
    arrival = day_rate("arrival", _POSITIVE, 1.0)
    walkin = day_rate("walkin", _whole(1, MAX_SHAPE), lam2)
    kind = f.get("duration", _one_of("geometric", "constant"), "geometric")
    if kind == "constant":
        law = DurationLaw(kind, d=f.get("d", _whole(1, _MAX_DAYS), 1))
    else:
        law = DurationLaw(kind, q_stay=f.get(
            "q_stay", _real("in [0, 1)", lambda x: 0.0 <= x < 1.0), 0.0))
    return StageProfiles(
        stage1_rate=RateFunction.constant(lam1 / k0, k0),
        keep_curve=KeepCurve(p0, k0), show_prob=q1,
        arrival_density=arrival, walkin_rate=walkin, duration_law=law)


def _scenario(f, T, profiles):
    return engine.ScenarioConfig(
        T=T, C=f.get("C", _whole(1, _MAX_ROOMS)), v=f.get("v", float, 0.0),
        reward=f.get("reward", float, 1.0),
        overbook_penalty=f.get("overbook_penalty", float, 1.0),
        profiles=profiles)


def _multiday(f):
    k0 = f.get("k0", _whole(1), 1)
    T = f.get("T", _whole(1, _MAX_DAYS))
    lam1 = f.get("lambda1", _RATE)
    p0 = f.get("keep_p0", _real("in [0, 1]", lambda x: 0.0 <= x <= 1.0),
               1.0)
    return _scenario(f, T, _profiles(f, lam1, p0, k0))


def _single_day(f):
    # one day with B surviving bookings: no booking window to describe
    B = f.get("B", _whole(0, _MAX_DAY_EVENTS))
    return B, _scenario(f, 1, _profiles(f, 1.0, 1.0, 1.0))


_MODES = {"multiday": _multiday, "single-day": _single_day}


def build_scenario(cfg, coords=(), axes=()):
    """(mode, typed inputs) of one grid cell: the cell's coordinates laid
    over [scenario], then one typed parse that rejects every key it leaves
    unread. The inputs are a ScenarioConfig (seed 0) for multiday, and
    (B, one-day ScenarioConfig) for single-day."""
    f = _Fields(cfg, "scenario", coords)
    mode = f.get("mode", _one_of(*_MODES), "multiday")
    try:
        inputs = _MODES[mode](f)
    except ConfigError:
        raise
    except ValueError as exc:  # ScenarioConfig's messages name the key
        raise ConfigError(f"[scenario] {exc}") from exc
    f.reject_unread(mode, axes)
    return mode, inputs


def _axes_from_config(cfg, limit):
    axes = []
    if cfg.has_section("sweep"):
        for name, text in cfg.items("sweep"):
            try:
                axes.append((name, parse_axis(text)))
            except ValueError as exc:
                raise ConfigError(f"[sweep] {name}: {exc}") from exc
    if len(axes) > limit:
        raise ConfigError(f"[sweep]: at most {limit} axes supported")
    total = int(np.prod([len(v) for _, v in axes])) if axes else 1
    if total > _MAX_CELLS:
        raise ConfigError(
            f"[sweep]: grid of {total} cells exceeds {_MAX_CELLS}")
    return axes


def _grid(cfg, limit):
    """The scenario grid, parsed and checked before any cell runs: the
    policies, the axis names, each cell's coordinates and typed inputs, and
    the mode."""
    policies = parse_policies(cfg)
    axes = _axes_from_config(cfg, limit)
    names = [name for name, _ in axes]
    grid = product(*([(name, v) for v in values] for name, values in axes))
    cells = [(coords, build_scenario(cfg, coords, names)) for coords in grid]
    return policies, names, cells, cells[0][1][0]


# ---------------------------------------------------------------------------
# work units, one replication of one grid cell: (typed inputs, seed,
# policies, single-day draws) -> per-policy results of that replication.
# Grid cells: (typed inputs, policies, single-day objective, the results of
# the cell's replications in rep order) -> per-policy rows (name, stats,
# objective, objective value) and per-day series

def _multiday_rep(unit):
    sc, seed, policies, _ = unit
    return {n: (np.cumsum(pol - ben), (hyb - ben).sum(), (pol - hyb).sum())
            for n, (pol, hyb, ben) in engine.run_experiment(
                dataclasses.replace(sc, seed=seed), policies).items()}


def _multiday_cell(_inputs, policies, _objective, reps):
    rows, series = [], []
    for n in policies:
        cum, s1, s2 = zip(*(rep[n] for rep in reps))
        mean, stderr = engine.aggregate(cum)
        total = float(mean[-1])
        rows.append((n, (total, float(stderr[-1]), float(np.mean(s1)),
                         float(np.mean(s2))), "regret", total))
        series.append((n, mean.tolist(), stderr.tolist()))
    return rows, series


def _singleday_rep(unit):
    (B, sc), seed, policies, sims = unit
    return {name: engine.single_day_cell(sc, B, pol, sims, seed)
            for name, pol in policies.items()}


def _singleday_cell(inputs, policies, objective, reps):
    sc = inputs[1]
    rows = []
    for name, pol in policies.items():
        losses, oracle, rejected = (
            np.concatenate(x) for x in zip(*(rep[name] for rep in reps)))
        stats = []
        # mismatch also charges turned-away walk-in demand, so over- and
        # undersupply both register
        for x in (losses, losses - oracle, losses + sc.reward * rejected):
            mean, stderr = engine.aggregate(x)
            stats += [float(mean), float(stderr)]
        obj = objective
        if obj == "auto":
            # the oracle's own regret is identically zero; its loss surface
            # is the interesting objective
            obj = "loss" if isinstance(pol, OraclePolicy) else "regret"
        score = stats[("loss", "regret", "mismatch").index(obj) * 2]
        rows.append((name, stats, obj, score))
    return rows, ()


_MULTIDAY_COLUMNS = ["mean_cumulative_regret", "stderr",
                     "mean_stage1_regret", "mean_stage2_regret"]
_SINGLE_DAY_COLUMNS = ["mean_loss", "loss_stderr", "mean_regret",
                       "regret_stderr", "mean_mismatch", "mismatch_stderr"]


# ---------------------------------------------------------------------------
# output

def _open_out(path):
    fh = open(path, "w", encoding="utf-8", newline="")
    fh.write(f"# generated {datetime.datetime.now().isoformat()}\n")
    return fh


def _cell_key(coords):
    return ";".join(f"{k}={v:g}" for k, v in coords)


def _check_stage1_caps(policies, cells):
    """Fail on a multiday cell where an adaptive policy's Stage-I rule has
    no capacity estimate, before any cell runs."""
    for _, (_, sc) in cells:
        law = sc.profiles.duration_law
        for name, pol in policies.items():
            if isinstance(pol, AdaptivePolicy):
                try:
                    estimated_capacity(law, sc.C, sc.profiles.show_prob,
                                       pol.iota)
                except ValueError as exc:
                    raise ConfigError(
                        f"[policies] {name}: {exc} at C={sc.C}, "
                        f"q_stay={law.q_stay:g}") from exc


def run_grid(cfg, args, limit):
    """Run every cell of the [sweep] grid (at most `limit` axes) with the
    [run] settings, the --seed, --reps and --out flags laid over them, and
    write one result row per cell and policy, with an `# argmin` line when
    there are axes; multiday runs also write the per-day `<out>.series`.
    Everything is parsed and checked before any cell runs."""
    policies, names, cells, mode = _grid(cfg, limit)
    single_day = mode == "single-day"
    if not single_day:
        _check_stage1_caps(policies, cells)
    f = _Fields(cfg, "run")
    master = f.get("seed", int, 0)
    reps = f.get("reps", str, "1")  # checked once --reps is laid over it
    out = f.get("out", str, "results.csv")
    sims = objective = None
    if single_day:
        sims = f.get("sims", _whole(1, _MAX_SIMS), 1000)
        objective = f.get("objective", _one_of("auto", "loss", "regret",
                                               "mismatch"), "auto")
    f.reject_unread(mode)
    master = args.seed if args.seed is not None else master
    out = args.out or out
    try:
        reps = _whole(1, _MAX_REPS)(
            str(args.reps) if args.reps is not None else reps)
    except ValueError as exc:
        raise ConfigError(f"[run] reps: {exc}") from exc
    # result bytes of one rep of every cell, checked before any is allocated
    per_rep = 8 * len(policies) * sum(
        3 * sims if single_day else inputs.T for _, (_, inputs) in cells)
    if reps * per_rep > _MAX_RUN_BYTES:
        raise ConfigError(
            f"[run] reps: must be at most {_MAX_RUN_BYTES // per_rep} where "
            f"one rep of every cell holds {per_rep} bytes of results, "
            f"got {reps}")

    rep_work, cell_work = ((_singleday_rep, _singleday_cell) if single_day
                           else (_multiday_rep, _multiday_cell))
    units = [(inputs, cell_seed(master, _cell_key(coords), rep), policies,
              sims) for coords, (_, inputs) in cells for rep in range(reps)]
    workers = min(args.jobs, len(units))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(rep_work, units))
    else:
        done = [rep_work(u) for u in units]
    # each cell's replications, gathered in rep order
    results = [cell_work(inputs, policies, objective,
                         done[i * reps:(i + 1) * reps])
               for i, (_, (_, inputs)) in enumerate(cells)]

    rows = [(coords, *row)
            for (coords, _), (cell_rows, _) in zip(cells, results)
            for row in cell_rows]
    best = min(rows, key=lambda r: r[-1], default=None)
    columns = _SINGLE_DAY_COLUMNS if single_day else _MULTIDAY_COLUMNS
    with _open_out(out) as fh:
        if best is not None and names:
            coords, name, _, obj, score = best
            fh.write(f"# argmin {name}: {_cell_key(coords)} "
                     f"mean_{obj}={score:.6g}\n")
        fh.write(",".join(names + ["policy"] + columns) + "\n")
        for coords, name, stats, _, _ in rows:
            fh.write(",".join([f"{v:g}" for _, v in coords] + [name]
                              + [f"{x:.10g}" for x in stats]) + "\n")
    if single_day:
        return
    with _open_out(str(out) + ".series") as fh:
        fh.write(",".join(names + [
            "policy", "day", "mean_cumulative_regret", "stderr"]) + "\n")
        for (coords, _), (_, series) in zip(cells, results):
            vals = [f"{v:g}" for _, v in coords]
            for name, mean, stderr in series:
                for day, (m, se) in enumerate(zip(mean, stderr), start=1):
                    fh.write(",".join(vals + [name, str(day), f"{m:.10g}",
                                              f"{se:.10g}"]) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_grid(args):
    """simulate (at most one axis) and sweep (at most two)."""
    limit = 1 if args.command == "simulate" else 2
    run_grid(load_config(args.preset, args.config), args, limit)
    return 0


def cmd_fit(args):
    if args.config is None:
        raise ConfigError("fit needs --config pointing at the dataset file")
    seed = args.seed or 0
    for flag, value, least in (("--capacity", args.capacity, 1),
                               ("--components", args.components, 1),
                               ("--seed", seed, 0)):
        if value < least:
            raise ConfigError(f"{flag}: must be at least {least}, "
                              f"got {value}")
    data = calibration.ingest_bookings(args.config)
    out = args.out or "model.txt"
    if len(data) and data["is_walk_in"].all():
        print("notice: walk-in-only dataset; Gamma lead-time and Weibull "
              "cancellation fitters skipped (nominal parameters written)")
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", calibration.ComponentsReduced)
            model = calibration.fit_model(data, args.capacity,
                                          n_components=args.components,
                                          seed=seed)
    except ValueError as exc:  # the message names the law
        raise ConfigError(f"{args.config}: {exc}") from exc
    for w in caught:
        if issubclass(w.category, calibration.ComponentsReduced):
            print(f"notice: --components: {w.message}")
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    calibration.save_model(model, out)
    report = calibration.fit_report(model, data)
    with open(str(out) + ".report", "w", encoding="utf-8") as fh:
        fh.write(report + "\n")
    print(report)
    return 0


def _check_lines(mode, inputs, iota, alpha):
    """Busy-season and call-timing verdicts of one grid cell at one policy's
    iota ([check] iota, if given) and alpha (None: no adaptive policy)."""
    single_day = mode == "single-day"
    sc = inputs[1] if single_day else inputs
    C, v, prof = sc.C, sc.v, sc.profiles
    rpt = check_busy_season(prof.stage1_rate.mass, prof.walkin_rate.mass,
                            prof.duration_law, C, prof.show_prob, iota)
    if single_day:
        yield ("booking condition: not applicable (single-day scenario with "
               "a fixed number of bookings)")
    else:
        yield (f"booking condition: {'holds' if rpt.booking_ok else 'fails'} "
               f"(lambda1={prof.stage1_rate.mass:g}, "
               f"required={rpt.required_lambda1:.4g})")
    yield (f"walk-in condition: {'holds' if rpt.walkin_ok else 'fails'} "
           f"(lambda2={prof.walkin_rate.mass:g}, "
           f"required={rpt.required_lambda2:.4g})")
    if alpha is None:
        yield "call-timing condition: not applicable (no adaptive policy)"
        return
    v_eff = max(v, 0.0)
    mass = prof.walkin_rate.mass_after(v_eff)
    try:
        timing_ok = check_call_timing(mass, v_eff, alpha,
                                      prof.duration_law.delta, C, iota)
    except ValueError as exc:
        yield f"call-timing condition: not applicable ({exc})"
        return
    yield (f"call-timing condition at v={v:g}: "
           f"{'holds' if timing_ok else 'fails'} "
           f"(walk-in mass after v={mass:.4g})")


def cmd_check(args):
    """Verdicts of every grid cell per adaptive policy (named when there are
    several), each distinct line printed once."""
    cfg = load_config(args.preset, args.config)
    policies, _, cells, mode = _grid(cfg, limit=2)
    f = _Fields(cfg, "check")
    iota = f.get("iota", _IOTA, None)
    f.reject_unread(mode)
    adaptive = [(n, p) for n, p in policies.items()
                if isinstance(p, AdaptivePolicy)]
    if not adaptive and iota is None:
        raise ConfigError("[check] iota: no adaptive policy or iota given")
    judges = [(f"{n}: " if len(adaptive) > 1 else "",
               p.iota if iota is None else iota, p.alpha)
              for n, p in adaptive] or [("", iota, None)]
    printed = set()
    for _, (_, inputs) in cells:
        for name, *judge in judges:
            for line in _check_lines(mode, inputs, *judge):
                if (line := name + line) not in printed:
                    printed.add(line)
                    print(line)
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="roomflow",
        description="Two-stage reusable-resource allocation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_grid), ("sweep", cmd_grid),
                     ("fit", cmd_fit), ("check", cmd_check)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        if name != "fit":
            p.add_argument("--preset", choices=PRESETS, default=None)
        if name != "check":  # check writes no file, draws nothing, no pool
            p.add_argument("--out", default=None)
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--jobs", type=int, default=1)
        if name == "fit":
            p.add_argument("--capacity", type=int, default=70)
            p.add_argument("--components", type=int, default=2)
        elif fn is cmd_grid:
            p.add_argument("--reps", type=int, default=None)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:  # check takes no --jobs
            raise ConfigError(f"--jobs: must be at least 1, got {args.jobs}")
        return args.fn(args)
    except (ConfigError, calibration.IngestError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (engine.CapacityError, AssertionError) as exc:
        print(f"runtime assertion: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

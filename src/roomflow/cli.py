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
import sys
from concurrent.futures import ProcessPoolExecutor
from importlib import resources

import numpy as np

from . import calibration, engine
from .benchmarks import lower_bound_instance
from .flows import DurationLaw, KeepCurve, RateFunction, StageProfiles
from .policies import (
    AdaptivePolicy,
    HeuristicPolicy,
    OraclePolicy,
    check_busy_season,
    check_call_timing,
)

PRESETS = ("fig2", "fig3", "fig4", "lower-bound")


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the field."""


def cell_seed(master, cell_key, rep):
    digest = hashlib.sha256(f"{master}|{cell_key}|{rep}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# config parsing

def load_config(preset, config_path):
    cfg = configparser.ConfigParser()
    cfg.optionxform = str
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        text = (resources.files("roomflow") / "presets"
                / f"{preset}.cfg").read_text()
        cfg.read_string(text)
    if config_path is not None:
        if not cfg.read(config_path):
            raise ConfigError(f"cannot read config file {config_path}")
    if not cfg.sections():
        raise ConfigError("empty configuration: give --preset or --config")
    return cfg


_REQUIRED = object()


def _get(cfg, section, key, conv, default=_REQUIRED):
    if not cfg.has_option(section, key):
        if default is not _REQUIRED:
            return default
        raise ConfigError(f"[{section}] {key}: missing")
    try:
        return conv(cfg.get(section, key))
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def parse_axis(text):
    """Value grid: either "a,b,c" or "start:stop:step" (stop inclusive)."""
    text = text.strip()
    if ":" in text:
        start, stop, step = (float(x) for x in text.split(":"))
        if step <= 0 or stop < start:
            raise ConfigError(f"bad axis range {text!r}")
        n = int(round((stop - start) / step))
        return [start + i * step for i in range(n + 1)]
    return [float(x) for x in text.split(",")]


def parse_policies(cfg):
    """[policies] name = kind key=value ... -> dict of policy objects."""
    if not cfg.has_section("policies"):
        raise ConfigError("[policies]: section missing")
    out = {}
    for name, spec in cfg.items("policies"):
        kind, *parts = spec.split() or [""]
        if kind not in ("adaptive", "heuristic", "oracle"):
            raise ConfigError(f"[policies] {name}: unknown kind {kind!r}")
        try:
            kv = dict(p.split("=", 1) for p in parts)
            if kind == "adaptive":
                out[name] = AdaptivePolicy(
                    iota=float(kv["iota"]), alpha=float(kv["alpha"]))
            elif kind == "heuristic":
                out[name] = HeuristicPolicy(beta=float(kv["beta"]))
            else:
                out[name] = OraclePolicy()
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"[policies] {name}: {exc}") from exc
    if not out:
        raise ConfigError("[policies]: no policies given")
    return out


def build_profiles(cfg, overrides):
    def g(key, default=_REQUIRED):
        if key in overrides:
            return overrides[key]
        return _get(cfg, "scenario", key, float, default)
    k0 = g("k0", 1.0)
    lam1 = g("lambda1")
    lam2 = g("lambda2")
    q1 = g("q1")
    p0 = g("keep_p0", 1.0)
    curve = (KeepCurve.always(0.0, k0) if p0 >= 1.0
             else KeepCurve.linear(p0, 0.0, k0))
    aa, ab = g("arrival_beta_a", 1.0), g("arrival_beta_b", 1.0)
    wa, wb = g("walkin_beta_a", 1.0), g("walkin_beta_b", 1.0)
    arrival = (RateFunction.constant(1.0, 0.0, 1.0) if aa == ab == 1.0
               else RateFunction.beta_shaped(1.0, aa, ab))
    walkin = (RateFunction.constant(lam2, 0.0, 1.0) if wa == wb == 1.0
              else RateFunction.beta_shaped(lam2, wa, wb))
    kind = overrides.get("duration",
                         _get(cfg, "scenario", "duration", str, "geometric"))
    if kind == "geometric":
        law = DurationLaw("geometric", q_stay=g("q_stay", 0.0))
    else:
        law = DurationLaw("constant", d=int(g("d", 1.0)))
    try:
        return StageProfiles(
            stage1_rate=RateFunction.constant(lam1 / k0, 0.0, k0),
            keep_curve=curve, show_prob=q1, arrival_density=arrival,
            walkin_rate=walkin, duration_law=law)
    except ValueError as exc:
        raise ConfigError(f"[scenario]: {exc}") from exc


def build_scenario(cfg, overrides, seed=0):
    mode = _get(cfg, "scenario", "mode", str, "multiday")
    if mode == "lower-bound":
        iota = overrides.get("iota", _get(cfg, "scenario", "iota", float))
        T = int(_get(cfg, "scenario", "T", float))
        return lower_bound_instance(iota, T=T, seed=seed)
    try:
        return engine.ScenarioConfig(
            T=int(overrides.get("T", _get(cfg, "scenario", "T", float))),
            C=int(overrides.get("C", _get(cfg, "scenario", "C", float))),
            k0=int(overrides.get("k0", _get(cfg, "scenario", "k0", float, 1.0))),
            v=overrides.get("v", _get(cfg, "scenario", "v", float, 0.0)),
            reward=_get(cfg, "scenario", "reward", float, 1.0),
            overbook_penalty=_get(cfg, "scenario", "overbook_penalty",
                                  float, 1.0),
            profiles=build_profiles(cfg, overrides),
            seed=seed)
    except ValueError as exc:
        raise ConfigError(f"[scenario]: {exc}") from exc


# ---------------------------------------------------------------------------
# output

def _open_out(path):
    fh = open(path, "w", encoding="utf-8", newline="")
    fh.write(f"# generated {datetime.datetime.now().isoformat()}\n")
    return fh


def _cell_key(coords):
    return ";".join(f"{k}={v:g}" for k, v in coords)


# ---------------------------------------------------------------------------
# multi-day grid

def _multiday_cell(payload):
    cfg_dict, coords, policies, master, reps = payload
    cfg = configparser.ConfigParser()
    cfg.optionxform = str
    cfg.read_dict(cfg_dict)
    key = _cell_key(coords)
    overrides = dict(coords)
    curves = {n: [] for n in policies}
    for rep in range(reps):
        sc = build_scenario(cfg, overrides, seed=cell_seed(master, key, rep))
        reports = engine.run_experiment(sc, policies, rep=0)
        for n, rpt in reports.items():
            curves[n].append((rpt.cumulative_regret,
                              rpt.stage1_component.sum(),
                              rpt.stage2_component.sum()))
    rows, series = [], []
    for n, items in curves.items():
        cum = [c for c, _, _ in items]
        _, mean, stderr = engine.aggregate(cum)
        rows.append((coords, n, float(mean[-1]), float(stderr[-1]),
                     float(np.mean([s1 for _, s1, _ in items])),
                     float(np.mean([s2 for _, _, s2 in items]))))
        for day, (m, se) in enumerate(zip(mean, stderr), start=1):
            series.append((coords, n, day, float(m), float(se)))
    return rows, series


def _cfg_as_dict(cfg):
    return {s: dict(cfg.items(s)) for s in cfg.sections()}


def run_multiday_grid(cfg, axes, policies, master, reps, out, jobs):
    grid = [[]]
    for name, values in axes:
        grid = [cell + [(name, v)] for cell in grid for v in values]
    payloads = [(_cfg_as_dict(cfg), tuple(cell), policies, master, reps)
                for cell in grid]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_multiday_cell, payloads))
    else:
        results = [_multiday_cell(p) for p in payloads]

    all_rows = [r for rows, _ in results for r in rows]
    best = min(all_rows, key=lambda r: r[2], default=None)
    axis_names = [name for name, _ in axes]
    with _open_out(out) as fh:
        if best is not None and axis_names:
            fh.write(f"# argmin {best[1]}: {_cell_key(best[0])} "
                     f"mean_regret={best[2]:.6g}\n")
        fh.write(",".join(axis_names + [
            "policy", "mean_cumulative_regret", "stderr",
            "mean_stage1_regret", "mean_stage2_regret"]) + "\n")
        for coords, n, m, se, s1, s2 in all_rows:
            vals = [f"{v:g}" for _, v in coords]
            fh.write(",".join(vals + [n, f"{m:.10g}", f"{se:.10g}",
                                      f"{s1:.10g}", f"{s2:.10g}"]) + "\n")
    series_path = str(out) + ".series"
    with _open_out(series_path) as fh:
        fh.write(",".join(axis_names + [
            "policy", "day", "mean_cumulative_regret", "stderr"]) + "\n")
        for _, series in results:
            for coords, n, day, m, se in series:
                vals = [f"{v:g}" for _, v in coords]
                fh.write(",".join(vals + [n, str(day), f"{m:.10g}",
                                          f"{se:.10g}"]) + "\n")
    return all_rows


# ---------------------------------------------------------------------------
# single-day grid

def _singleday_cell(payload):
    cfg_dict, coords, policy_specs, master, reps, sims, objective = payload
    cfg = configparser.ConfigParser()
    cfg.optionxform = str
    cfg.read_dict(cfg_dict)
    key = _cell_key(coords)
    overrides = dict(coords)
    def scalar(key, default=_REQUIRED):
        if key in overrides:
            return overrides[key]
        return _get(cfg, "scenario", key, float, default)

    C = int(scalar("C"))
    B = int(scalar("B"))
    v = scalar("v", 0.0)
    profiles = build_profiles(cfg, {**overrides, "lambda1": 1.0,
                                    "keep_p0": 1.0, "k0": 1.0})
    reward = scalar("reward", 1.0)
    rows = []
    for name, (kind, alpha) in policy_specs.items():
        regrets, losses, mismatches = [], [], []
        for rep in range(reps):
            pol, ora, rej = engine.single_day_cell(
                B, C, profiles, v, alpha, kind, sims,
                cell_seed(master, key, rep),
                reward=reward,
                overbook_penalty=scalar("overbook_penalty", 1.0))
            regrets.append(pol - ora)
            losses.append(pol)
            # mismatch also charges turned-away walk-in demand, so over-
            # and undersupply both register
            mismatches.append(pol + reward * rej)
        regrets = np.concatenate(regrets)
        losses = np.concatenate(losses)
        mismatches = np.concatenate(mismatches)

        def _se(x):
            return float(x.std(ddof=1) / np.sqrt(len(x))) if len(x) > 1 else 0.0

        if objective == "auto":
            # the oracle's own regret is identically zero; its loss surface
            # is the interesting objective
            obj = "loss" if kind == "oracle" else "regret"
        else:
            obj = objective
        rows.append((coords, name, float(losses.mean()), _se(losses),
                     float(regrets.mean()), _se(regrets),
                     float(mismatches.mean()), _se(mismatches), obj))
    return rows


def run_singleday_grid(cfg, axes, policies, master, reps, sims, out, jobs,
                       objective="auto"):
    specs = {}
    for name, pol in policies.items():
        if isinstance(pol, AdaptivePolicy):
            specs[name] = ("adaptive", pol.alpha)
        elif isinstance(pol, OraclePolicy):
            specs[name] = ("oracle", 0.0)
        else:
            specs[name] = ("heuristic", 0.0)
    grid = [[]]
    for name, values in axes:
        grid = [cell + [(name, v)] for cell in grid for v in values]
    payloads = [(_cfg_as_dict(cfg), tuple(cell), specs, master, reps, sims,
                 objective) for cell in grid]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_singleday_cell, payloads))
    else:
        results = [_singleday_cell(p) for p in payloads]
    all_rows = [r for rows in results for r in rows]

    def row_objective(row):
        return {"loss": row[2], "regret": row[4],
                "mismatch": row[6]}[row[8]]

    best = min(all_rows, key=row_objective, default=None)
    axis_names = [name for name, _ in axes]
    with _open_out(out) as fh:
        if best is not None and axis_names:
            fh.write(f"# argmin {best[1]}: {_cell_key(best[0])} "
                     f"mean_{best[8]}={row_objective(best):.6g}\n")
        fh.write(",".join(axis_names + [
            "policy", "mean_loss", "loss_stderr", "mean_regret",
            "regret_stderr", "mean_mismatch", "mismatch_stderr"]) + "\n")
        for coords, n, ml, mse, rm, rse, mm, mmse, _ in all_rows:
            vals = [f"{v:g}" for _, v in coords]
            fh.write(",".join(vals + [n, f"{ml:.10g}", f"{mse:.10g}",
                                      f"{rm:.10g}", f"{rse:.10g}",
                                      f"{mm:.10g}", f"{mmse:.10g}"]) + "\n")
    return all_rows


# ---------------------------------------------------------------------------
# subcommands

def _axes_from_config(cfg, limit):
    axes = []
    if cfg.has_section("sweep"):
        for name, text in cfg.items("sweep"):
            axes.append((name, parse_axis(text)))
    if len(axes) > limit:
        raise ConfigError(f"[sweep]: at most {limit} axes supported")
    total = int(np.prod([len(v) for _, v in axes])) if axes else 1
    if total > 10_000:
        raise ConfigError(f"[sweep]: grid of {total} cells exceeds 10000")
    return axes


def _run_grid_command(cfg, args, limit):
    policies = parse_policies(cfg)
    master = args.seed if args.seed is not None else _get(
        cfg, "run", "seed", int, 0)
    reps = args.reps if args.reps is not None else _get(
        cfg, "run", "reps", int, 1)
    out = args.out or _get(cfg, "run", "out", str, "results.csv")
    axes = _axes_from_config(cfg, limit)
    mode = _get(cfg, "scenario", "mode", str, "multiday")
    if mode == "single-day":
        sims = _get(cfg, "run", "sims", int, 1000)
        objective = _get(cfg, "run", "objective", str, "auto")
        if objective not in ("auto", "loss", "regret", "mismatch"):
            raise ConfigError(f"[run] objective: unknown value {objective!r}")
        run_singleday_grid(cfg, axes, policies, master, reps, sims, out,
                           args.jobs, objective=objective)
    else:
        run_multiday_grid(cfg, axes, policies, master, reps, out, args.jobs)
    return 0


def cmd_simulate(args):
    cfg = load_config(args.preset, args.config)
    return _run_grid_command(cfg, args, limit=1)


def cmd_sweep(args):
    cfg = load_config(args.preset, args.config)
    return _run_grid_command(cfg, args, limit=2)


def cmd_fit(args):
    if args.config is None:
        raise ConfigError("fit needs --config pointing at the dataset file")
    rows = calibration.ingest_bookings(args.config)
    capacity = args.capacity
    reserved = [r for r in rows if not r.is_walk_in]
    out = args.out or "model.txt"
    if not reserved:
        print("notice: walk-in-only dataset; Gamma lead-time and Weibull "
              "cancellation fitters skipped (nominal parameters written)")
        stays = [r.stay_nights for r in rows]
        counts = {d: 0 for d in sorted({r.arrival_date for r in rows})}
        for r in rows:
            counts[r.arrival_date] += 1
        model = calibration.FittedModel(
            lead_gamma=(1.0, 1.0), cancel_weibull=(1.0, 1.0),
            duration_geometric=calibration.fit_geometric(stays),
            walkin_mixture=tuple(calibration.fit_poisson_mixture(
                list(counts.values()), args.components,
                seed=args.seed or 0)),
            capacity=capacity)
    else:
        model = calibration.fit_model(rows, capacity,
                                      n_components=args.components,
                                      seed=args.seed or 0)
    calibration.save_model(model, out)
    report = calibration.fit_report(model, rows)
    with open(str(out) + ".report", "w", encoding="utf-8") as fh:
        fh.write(report + "\n")
    print(report)
    return 0


def _check_targets(cfg, single_day):
    """(C, v values, day profile) that `check` judges. A single-day
    scenario has no horizon or booking rate; its v values are its sweep
    axis when it sweeps v."""
    if not single_day:
        sc = build_scenario(cfg, {}, seed=0)
        return sc.C, [sc.v], sc.profiles_for(1)
    C = int(_get(cfg, "scenario", "C", float))
    axes = dict(_axes_from_config(cfg, 2))
    vs = axes.get("v", [_get(cfg, "scenario", "v", float, 0.0)])
    return C, vs, build_profiles(cfg, {"lambda1": 1.0, "keep_p0": 1.0,
                                       "k0": 1.0})


def cmd_check(args):
    cfg = load_config(args.preset, args.config)
    single_day = _get(cfg, "scenario", "mode", str, "multiday") == "single-day"
    C, vs, prof = _check_targets(cfg, single_day)
    iota = _get(cfg, "check", "iota", float, None) if cfg.has_section(
        "check") else None
    alpha = 0.4
    for pol in parse_policies(cfg).values():
        if isinstance(pol, AdaptivePolicy):
            iota = pol.iota if iota is None else iota
            alpha = pol.alpha
    if iota is None:
        raise ConfigError("[check] iota: no adaptive policy or iota given")
    rpt = check_busy_season(prof.stage1_rate.mass, prof.walkin_rate.mass,
                            prof.duration_law, C, prof.show_prob, iota)
    if single_day:
        print("booking condition: not applicable (single-day scenario with "
              "a fixed number of bookings)")
    else:
        print(f"booking condition: {'holds' if rpt.booking_ok else 'fails'} "
              f"(lambda1={prof.stage1_rate.mass:g}, "
              f"required={rpt.required_lambda1:.4g})")
    print(f"walk-in condition: {'holds' if rpt.walkin_ok else 'fails'} "
          f"(lambda2={prof.walkin_rate.mass:g}, "
          f"required={rpt.required_lambda2:.4g})")
    for v in vs:
        v_eff = max(v, 0.0)
        try:
            timing_ok = check_call_timing(
                prof.walkin_rate.mass_after(v_eff), v_eff, alpha,
                prof.duration_law.delta, C, iota)
        except ValueError as exc:
            print(f"call-timing condition: not applicable ({exc})")
            break
        print(f"call-timing condition at v={v:g}: "
              f"{'holds' if timing_ok else 'fails'}")
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="roomflow",
        description="Two-stage reusable-resource allocation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("sweep", cmd_sweep),
                     ("fit", cmd_fit), ("check", cmd_check)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--preset", choices=PRESETS, default=None)
        if name == "fit":
            p.add_argument("--capacity", type=int, default=70)
            p.add_argument("--components", type=int, default=2)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
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

"""Span tracing of roomflow's six layers, installed from outside the program.

While a `Tracer` is installed, every function defined in a layer module
(the public ones, plus the private ones the layer table names) and every
public method of a class defined there is replaced by a wrapper that records
one span per call: (name, start, end, index of the parent span). A function
that another layer imports by name is replaced there too, because that
module looks it up in its own namespace. `uninstall` restores every
original object.

Two times come out of the spans. A span's self time is its duration minus
its child spans'. Its layer time adds the layer time of children from the
same module, so `engine.stage1_accept` keeps the replay loop it runs but not
the keep-curve and threshold calls it makes into `flows` and `policies`.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

LAYERS = ("cli", "flows", "policies", "engine", "benchmarks", "calibration")
PRIVATE = {"cli._multiday_cell", "cli._singleday_cell", "engine._finish_day"}


def _len(x):
    try:
        return len(x)
    except TypeError:
        return 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _stage1_accept(counts, args, kwargs, result, _):
    counts["offered"] += _len(_arg(args, kwargs, 1, "bookings"))
    counts["accepted"] += _len(result)


def _room_nights_before(args, kwargs):
    return getattr(args[0], "total_room_nights", 0)


def _admit(counts, args, kwargs, result, before):
    counts["room_nights"] += getattr(args[0], "total_room_nights", 0) - before


def _count_len(key, pick=lambda r: r):
    def after(counts, args, kwargs, result, _):
        counts[key] += _len(pick(result))
    return after


# span name -> (before hook or None, after hook)
HOOKS = {
    "engine.stage1_accept": (None, _stage1_accept),
    "engine.OccupancyLedger.admit": (_room_nights_before, _admit),
    "flows.sample_stage1_day": (None, _count_len("booking_requests")),
    # walk-ins are counted by sample_walkins, which sample_stage2_day calls
    "flows.sample_stage2_day": (
        None, _count_len("checkin_records", lambda r: r[0])),
    "flows.sample_walkins": (None, _count_len("checkin_records")),
    "calibration.ingest_bookings": (None, _count_len("rows_ingested")),
}

# per-layer metric -> (unit, better, how it is computed)
#   ("layer", span): layer time of the span, summed over calls
#   ("self", span): self time of the span, summed over calls
#   ("calls", span): number of calls
#   ("count", counter): a hook counter
#   ("ratio", counter, counter): one hook counter over another
#   ("module", layer): self time of all the layer's spans
TABLE = {
    "engine.stage1_accept_s": ("s", "lower", ("layer", "engine.stage1_accept")),
    "engine.stage1_accept_calls": ("count", "lower", ("calls", "engine.stage1_accept")),
    "engine.bookings_accepted": ("count", "higher", ("count", "accepted")),
    "engine.stage1_accept_ratio": ("ratio", "higher", ("ratio", "accepted", "offered")),
    "flows.keep_curve_value_calls": ("count", "lower", ("calls", "flows.KeepCurve.value")),
    "policies.stage1_threshold_calls": ("count", "lower", ("calls", "policies.stage1_threshold")),
    "engine.ledger_admit_s": ("s", "lower", ("layer", "engine.OccupancyLedger.admit")),
    "engine.ledger_admit_calls": ("count", "lower", ("calls", "engine.OccupancyLedger.admit")),
    "engine.room_nights_committed": ("count", "higher", ("count", "room_nights")),
    "engine.finish_day_s": ("s", "lower", ("layer", "engine._finish_day")),
    "flows.sample_stage1_day_s": ("s", "lower", ("layer", "flows.sample_stage1_day")),
    "flows.booking_requests": ("count", "higher", ("count", "booking_requests")),
    "flows.cancel_time_calls": ("count", "lower", ("calls", "flows.KeepCurve.cancel_time")),
    "flows.attach_stage2_outcomes_s": ("s", "lower", ("layer", "flows.attach_stage2_outcomes")),
    "flows.sample_walkins_s": ("s", "lower", ("layer", "flows.sample_walkins")),
    "engine.realize_day_s": ("s", "lower", ("layer", "engine.realize_day")),
    "flows.substream_s": ("s", "lower", ("layer", "flows.substream")),
    "flows.substream_calls": ("count", "lower", ("calls", "flows.substream")),
    "flows.sample_stage2_day_s": ("s", "lower", ("layer", "flows.sample_stage2_day")),
    "flows.checkin_records": ("count", "higher", ("count", "checkin_records")),
    "flows.mass_after_calls": ("count", "lower", ("calls", "flows.RateFunction.mass_after")),
    "engine.replay_stage2_s": ("s", "lower", ("layer", "engine.replay_stage2")),
    "engine.replay_stage2_calls": ("count", "lower", ("calls", "engine.replay_stage2")),
    "policies.dass2_decide_walkin_calls": ("count", "lower", ("calls", "policies.dass2_decide_walkin")),
    "engine.single_day_cell_s": ("s", "lower", ("layer", "engine.single_day_cell")),
    "engine.run_benchmark_day_s": ("s", "lower", ("layer", "engine.run_benchmark_day")),
    "engine.run_oracle_day_s": ("s", "lower", ("layer", "engine.run_oracle_day")),
    "benchmarks.clairvoyant_stage1_select_s": ("s", "lower", ("layer", "benchmarks.clairvoyant_stage1_select")),
    "engine.compute_regret_s": ("s", "lower", ("layer", "engine.compute_regret")),
    "calibration.ingest_bookings_s": ("s", "lower", ("layer", "calibration.ingest_bookings")),
    "calibration.rows_ingested": ("count", "higher", ("count", "rows_ingested")),
    "calibration.fit_poisson_mixture_s": ("s", "lower", ("layer", "calibration.fit_poisson_mixture")),
    "calibration.fit_gamma_s": ("s", "lower", ("layer", "calibration.fit_gamma")),
    "calibration.fit_weibull_s": ("s", "lower", ("layer", "calibration.fit_weibull")),
    "calibration.fit_report_s": ("s", "lower", ("layer", "calibration.fit_report")),
    "cli.load_config_s": ("s", "lower", ("layer", "cli.load_config")),
    "cli.build_scenario_calls": ("count", "lower", ("calls", "cli.build_scenario")),
    "cli.grid_self_s": ("s", "lower", ("self", "cli.run_multiday_grid", "cli.run_singleday_grid")),
}
TABLE.update({f"{layer}.self_s": ("s", "lower", ("module", layer))
              for layer in LAYERS})
TABLE["trace.overhead_s"] = ("s", "lower", None)  # filled in by run.py
TABLE["trace.absent_functions"] = ("count", "lower", None)


class Tracer:
    """Wraps the functions of `modules` (layer name -> module) in spans."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.counts = Counter()
        self.wrapped = set()
        self._stack = [-1]
        self._patches = []

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self._stack[:] = [-1]

    # -- installation ------------------------------------------------------

    def install(self):
        self.wrapped.clear()
        for layer, module in self.modules.items():
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj) and (
                        not attr.startswith("_") or name in PRIVATE):
                    self._patch_everywhere(obj, self._wrap(name, obj))
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            self._patch(obj, meth,
                                        self._wrap(f"{name}.{meth}", fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, fn, wrapper):
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    self._patch(module, attr, wrapper)

    def _wrap(self, name, fn):
        self.wrapped.add(name)
        before, after = HOOKS.get(name, (None, None))
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            index = len(spans)
            spans.append(None)
            stack.append(index)
            state = before(args, kwargs) if before else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1])
            if after:
                after(tracer.counts, args, kwargs, result, state)
            return result

        return traced

    # -- analysis ----------------------------------------------------------

    def absent(self):
        """Span names the layer table needs that nothing was wrapped as."""
        needed = {n for _, _, spec in TABLE.values()
                  if spec and spec[0] in ("layer", "self", "calls")
                  for n in spec[1:]}
        return sorted(needed - self.wrapped)

    def metrics(self, spans=None, counts=None):
        """Per-layer metrics (name -> value) of one recorded repetition,
        plus the per-span table (name -> calls, self s, layer s)."""
        spans = self.spans if spans is None else spans
        counts = self.counts if counts is None else counts
        stats = span_stats(spans)
        modules = Counter()
        for name, (_, self_s, _) in stats.items():
            modules[name.split(".", 1)[0]] += self_s
        out = {}
        for metric, (_, _, spec) in TABLE.items():
            if spec is None:
                continue
            kind, *names = spec
            if kind == "calls":
                out[metric] = sum(stats.get(n, (0, 0, 0))[0] for n in names)
            elif kind == "self":
                out[metric] = sum(stats.get(n, (0, 0, 0))[1] for n in names)
            elif kind == "layer":
                out[metric] = sum(stats.get(n, (0, 0, 0))[2] for n in names)
            elif kind == "count":
                out[metric] = counts.get(names[0], 0)
            elif kind == "ratio":
                den = counts.get(names[1], 0)
                out[metric] = counts.get(names[0], 0) / den if den else 0.0
            elif kind == "module":
                out[metric] = modules[names[0]]
        out["trace.absent_functions"] = len(self.absent())
        return out, stats


def span_stats(spans):
    """name -> [calls, self time, layer time] over complete spans.

    Spans are stored in call order, so every child follows its parent and a
    reverse pass sees all children of a span before the span itself."""
    n = len(spans)
    child = [0.0] * n
    same_layer = [0.0] * n
    stats = {}
    for i in range(n - 1, -1, -1):
        name, start, end, parent = spans[i]
        dur = end - start
        self_s = dur - child[i]
        layer_s = self_s + same_layer[i]
        st = stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += self_s
        st[2] += layer_s
        if parent >= 0:
            child[parent] += dur
            if spans[parent][0].split(".", 1)[0] == name.split(".", 1)[0]:
                same_layer[parent] += layer_s
    return stats

"""Tests of the benchmark's own helpers at tiny sizes.

    python3 -m pytest perfbench
"""

import math
import types

import pytest

import checks
import run
import spans
import workloads


def test_lower_bound_rate_hand_value():
    # e^-sqrt(2) = 0.2431167345, 1 - e^-1/2 = 0.3934693403
    assert checks.lower_bound_daily_regret(2.0) == pytest.approx(
        0.2431167345 * 0.3934693403, rel=1e-9)
    assert checks.lower_bound_daily_regret(2.0) == pytest.approx(0.0957, abs=5e-5)


@pytest.mark.parametrize("B, q1, C, lam2, penalty, mean, sd", [
    # one booking, shows with 1/2: idle only if it stays away and no walk-in
    (1, 0.5, 1, 1.0, 1.0, 0.5 * math.exp(-1.0),
     math.sqrt(0.5 * math.exp(-1.0) * (1.0 - 0.5 * math.exp(-1.0)))),
    # two sure shows for one room: one overbooked guest at penalty 2
    (2, 1.0, 1, 1.0, 2.0, 2.0, 0.0),
])
def test_single_day_loss_moments_by_hand(B, q1, C, lam2, penalty, mean, sd):
    got = checks.single_day_loss_moments(B, q1, C, lam2, penalty=penalty)
    assert got == pytest.approx((mean, sd), abs=1e-12)


def test_fig3_exact_loss():
    mean, _ = checks.single_day_loss_moments(360, 0.5, 200, 30.0)
    assert mean == pytest.approx(1.1217, abs=1e-4)


def test_daily_rate_and_linearity():
    cum = [(d + 1) // 2 for d in range(1, 81)]  # per-day regret 1, 0, 1, 0
    assert checks.check_daily_rate(cum, 0.5).ok
    assert checks.check_daily_rate(cum, 0.7).ok        # 3.6 standard errors
    assert not checks.check_daily_rate(cum, 0.8).ok    # 5.3 standard errors
    assert checks.check_linear(cum).ok
    assert not checks.check_linear([0, 0, 0, 0, 0, 0, 0, 8]).ok


def test_nondecreasing_tolerance():
    pts = [(0.0, 0.0, 0.0), (1.0, 0.8, 0.1), (0.5, 1.0, 0.1)]
    assert checks.check_nondecreasing(pts, z=2.0).ok      # 0.2 < 2 * 0.141
    assert not checks.check_nondecreasing(pts, z=1.0).ok


def _row(policy, total, s1, s2, stderr="0"):
    return {"v": "0.7", "policy": policy, "mean_cumulative_regret": total,
            "stderr": stderr, "mean_stage1_regret": s1,
            "mean_stage2_regret": s2}


def test_regret_split_series_and_dominance():
    header = ["v", "policy", "mean_cumulative_regret", "stderr",
              "mean_stage1_regret", "mean_stage2_regret"]
    rows = [_row("adaptive", "3", "1", "2"), _row("h0.1", "7", "7", "0")]
    sh = ["v", "policy", "day", "mean_cumulative_regret", "stderr"]
    series = [{"v": "0.7", "policy": p, "day": str(d),
               "mean_cumulative_regret": m, "stderr": "0"}
              for p, ms in (("adaptive", ("1", "3")), ("h0.1", ("4", "7")))
              for d, m in enumerate(ms, start=1)]
    assert checks.check_regret_split(rows).ok
    assert checks.check_series(header, rows, sh, series, 2).ok
    assert checks.check_adaptive_dominates(header, rows).ok
    assert not checks.check_regret_split([_row("a", "3", "1", "1")]).ok
    assert not checks.check_series(header, rows, sh, series, 3).ok
    assert not checks.check_series(header, rows, sh, series[:-1], 2).ok
    assert not checks.check_adaptive_dominates(
        header, [_row("adaptive", "7", "7", "0"), rows[1]]).ok


def test_geometric_and_mixture_closed_forms():
    model = {"duration_geometric_q_stay": 0.5}
    assert checks.check_geometric(model, [1, 2, 3]).ok
    # one component of rate 2: log(e^-2) + log(2 e^-2)
    assert checks.mixture_loglik([0, 1], [1.0], [2.0]) == pytest.approx(
        -4.0 + math.log(2.0), abs=1e-12)


def test_bookings_are_seeded_and_readable(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    model = dict(workloads.BOOKING_MODEL, days=5, bookings_per_day=20.0)
    n = workloads.write_bookings(a, 1, model)
    workloads.write_bookings(b, 1, model)
    workloads.write_bookings(c, 2, model)
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()
    leads, cancels, stays, counts = checks.read_bookings(a)
    assert len(stays) == n and len(counts) == 5
    assert min(leads) >= 1 and min(cancels) >= 1 and min(stays) >= 1
    assert len(leads) + sum(counts) == n


def test_fingerprint_ignores_timestamp_and_runtime(tmp_path):
    body = "v,policy,x,runtime_s\n0.7,a,1,{}\n"
    a, b, c = (tmp_path / n for n in ("a", "b", "c"))
    a.write_text("# generated 1\n# argmin a\n" + body.format("0.100"))
    b.write_text("# generated 2\n# argmin a\n" + body.format("9.900"))
    c.write_text("# generated 1\n# argmin a\n" + body.replace(",1,", ",2,")
                 .format("0.100"))
    assert run.fingerprint(a) == run.fingerprint(b) != run.fingerprint(c)


def _toy_layers():
    flows = types.ModuleType("toy.flows")

    def leaf(xs):
        return list(xs)

    leaf.__module__ = "toy.flows"
    flows.sample_walkins = leaf
    engine = types.ModuleType("toy.engine")
    engine.sample_walkins = leaf  # imported by name, looked up here

    def realize_day(n):
        return engine.sample_walkins(range(n))

    realize_day.__module__ = "toy.engine"
    engine.realize_day = realize_day
    return {"flows": flows, "engine": engine}


def test_tracer_spans_counts_and_restore():
    layers = _toy_layers()
    original = layers["engine"].sample_walkins
    tracer = spans.Tracer(layers)
    tracer.install()
    try:
        assert layers["engine"].realize_day(3) == [0, 1, 2]
    finally:
        tracer.uninstall()
    assert layers["engine"].sample_walkins is original
    assert layers["flows"].sample_walkins is original
    (outer, inner) = tracer.spans
    assert outer[0] == "engine.realize_day" and outer[3] == -1
    assert inner[0] == "flows.sample_walkins" and inner[3] == 0
    values, stats = tracer.metrics()
    assert values["flows.checkin_records"] == 3
    assert stats["engine.realize_day"][0] == 1
    # the flows child leaves the engine span's self and layer time
    assert stats["engine.realize_day"][2] == pytest.approx(
        (outer[2] - outer[1]) - (inner[2] - inner[1]))
    assert values["engine.self_s"] + values["flows.self_s"] == pytest.approx(
        outer[2] - outer[1])
    assert "engine.stage1_accept" in tracer.absent()
    assert values["trace.absent_functions"] == len(tracer.absent())


def test_span_stats_layer_time_keeps_same_module_children():
    # a (engine) -> b (engine) -> c (flows)
    recorded = [("engine.a", 0.0, 10.0, -1), ("engine.b", 1.0, 6.0, 0),
                ("flows.c", 2.0, 4.0, 1)]
    stats = spans.span_stats(recorded)
    assert stats["engine.a"] == [1, 5.0, 8.0]
    assert stats["engine.b"] == [1, 3.0, 3.0]
    assert stats["flows.c"] == [1, 2.0, 2.0]

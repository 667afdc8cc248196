"""Fitter closure, ingestion round-trips, and scenario assembly."""

import datetime
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference as R
import roomflow.calibration as C
from reference import substream


def row(lead=5, canceled=False, cancel=None, stay=2, walkin=False, day=0):
    """One dataset record as ingest_bookings holds it."""
    date = datetime.date(2017, 1, 1) + datetime.timedelta(days=day)
    return (date.toordinal(), lead, canceled, cancel or 0, stay, walkin)


MODEL = C.FittedModel(
    lead_gamma=(2.0, 3.0), cancel_weibull=(1.5, 4.0),
    duration_geometric=0.3, walkin_mixture=((0.5, 3.0), (0.5, 15.0)),
    capacity=70, cancel_prob=0.35, mean_daily_bookings=180.0,
)

HEADER = ("arrival_date,lead_days,is_canceled,cancel_lead_days,stay_nights,"
          "is_walk_in\n")


class TestBookingRow:
    """Each rule of a dataset row, on a one-row file."""

    @staticmethod
    def rejected(tmp_path, line, rule):
        p = tmp_path / "b.csv"
        p.write_text(HEADER + line + "\n")
        with pytest.raises(C.IngestError, match=f"^line 2: {rule}$"):
            C.ingest_bookings(p)

    def test_cancel_interval_bounded_by_lead(self, tmp_path):
        self.rejected(tmp_path, "2017-01-01,3,1,5,2,0",
                      "cancel_lead_days exceeds lead_days")

    def test_cancel_field_presence_tied_to_flag(self, tmp_path):
        self.rejected(tmp_path, "2017-01-01,5,1,,2,0",
                      "cancel_lead_days present iff canceled")
        self.rejected(tmp_path, "2017-01-01,5,0,2,2,0",
                      "cancel_lead_days present iff canceled")

    def test_walkin_has_zero_lead(self, tmp_path):
        self.rejected(tmp_path, "2017-01-01,3,0,,2,1",
                      "walk-ins must have lead_days 0")

    @pytest.mark.parametrize("line, rule", [
        ("2017-01-01,5,0", "fewer fields than the header"),
        ("2017-01-01,9223372036854775808,0,,2,0",
         r"lead_days and stay_nights must be below 2\*\*63"),
    ], ids=["short-row", "lead-past-int64"])
    def test_malformed_row_names_its_line(self, tmp_path, line, rule):
        self.rejected(tmp_path, line, rule)


class TestIngestion:
    def test_empty_file_with_header(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text(HEADER)
        data = C.ingest_bookings(p)
        assert data.dtype == C.BOOKING_DTYPE
        assert data.tolist() == []

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("arrival_date,lead_days\n2017-01-01,5\n")
        with pytest.raises(C.IngestError, match="missing columns"):
            C.ingest_bookings(p)

    def test_invariant_violation_reports_line_number(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text(HEADER
                     + "2017-01-01,5,0,,2,0\n"
                     + "2017-01-02,3,1,9,2,0\n")
        with pytest.raises(C.IngestError, match="line 3"):
            C.ingest_bookings(p)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text(HEADER + "2017-01-01,5,0,,2,0\n\n"
                     + "2017-01-02,3,1,9,2,0\n")
        with pytest.raises(C.IngestError, match="^line 4: "):
            C.ingest_bookings(p)

    def test_golden_three_row_file(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text(HEADER
                     + "2017-01-01,5,0,,2,0\n"
                     + "2017-01-02,10,1,4,1,0\n"
                     + "2017-01-03,0,0,,3,1\n")
        data = C.ingest_bookings(p)
        assert data.dtype == C.BOOKING_DTYPE
        assert data.tolist() == [
            row(lead=5, stay=2, day=0),
            row(lead=10, canceled=True, cancel=4, stay=1, day=1),
            row(lead=0, stay=3, walkin=True, day=2),
        ]

    def test_write_and_reingest_round_trip(self, tmp_path):
        rows = [row(lead=5, stay=2),
                row(lead=10, canceled=True, cancel=4, day=1),
                row(lead=0, stay=3, walkin=True, day=2)]
        p = tmp_path / "out.csv"
        C.write_bookings(np.array(rows, dtype=C.BOOKING_DTYPE), p)
        assert C.ingest_bookings(p).tolist() == rows


class TestFitGamma:
    def test_exponential_special_case(self):
        x = substream(3, 1).gamma(1.0, 7.0, 100_000)
        k, s = C.fit_gamma(x)
        assert k == pytest.approx(1.0, rel=0.03)
        assert k * s == pytest.approx(x.mean(), rel=0.03)

    def test_recovers_synthetic_parameters(self):
        x = substream(3, 2).gamma(2.0, 30.0, 10_000)
        k, s = C.fit_gamma(x)
        assert k == pytest.approx(2.0, rel=0.05)
        assert s == pytest.approx(30.0, rel=0.05)

    def test_two_points_give_finite_estimates(self):
        k, s = C.fit_gamma([1.0, 3.0])
        assert k > 0 and s > 0 and np.isfinite(k) and np.isfinite(s)

    def test_degenerate_samples_rejected(self):
        with pytest.raises(ValueError, match="identifiable"):
            C.fit_gamma([2.0, 2.0, 2.0])


class TestFitWeibull:
    def test_exponential_special_case(self):
        x = substream(4, 1).exponential(20.0, 100_000)
        k, s = C.fit_weibull(x)
        assert k == pytest.approx(1.0, rel=0.03)
        assert s == pytest.approx(x.mean(), rel=0.03)

    def test_recovers_synthetic_parameters(self):
        x = 20.0 * substream(4, 2).weibull(1.5, 10_000)
        k, s = C.fit_weibull(x)
        assert k == pytest.approx(1.5, rel=0.05)
        assert s == pytest.approx(20.0, rel=0.05)

    def test_constant_samples_rejected(self):
        with pytest.raises(ValueError, match="identifiable"):
            C.fit_weibull([5.0] * 10)


class TestFitGeometric:
    def test_all_ones(self):
        assert C.fit_geometric([1, 1, 1]) == 0.0

    def test_mean_two(self):
        assert C.fit_geometric([1, 3, 2, 2]) == pytest.approx(0.5)

    def test_recovers_synthetic_parameter(self):
        d = substream(5, 1).geometric(0.7, 100_000)
        assert C.fit_geometric(d) == pytest.approx(0.3, abs=0.01)


class TestFitPoissonMixture:
    def test_single_component_is_sample_mean(self):
        mix = C.fit_poisson_mixture([2, 4, 9], 1)
        assert mix == [(1.0, pytest.approx(5.0))]

    def test_all_zero_counts(self):
        with pytest.warns(UserWarning, match="reducing components"):
            mix = C.fit_poisson_mixture([0, 0, 0], 2)
        assert mix == [(1.0, 0.0)]

    def test_no_restart_rejected(self):
        with pytest.raises(ValueError, match="^need at least one restart$"):
            C.fit_poisson_mixture([2, 4, 9], 2, n_restarts=0)

    def test_excess_components_reduced_with_warning(self):
        with pytest.warns(UserWarning, match="reducing components"):
            C.fit_poisson_mixture([3, 3, 7, 7], 3, n_restarts=2)

    def test_recovers_synthetic_mixture(self):
        rng = substream(6, 1)
        counts = np.concatenate([rng.poisson(3.0, 5000),
                                 rng.poisson(15.0, 5000)])
        mix = C.fit_poisson_mixture(counts, 2, n_restarts=10)
        (w0, r0), (w1, r1) = mix
        assert r0 == pytest.approx(3.0, rel=0.10)
        assert r1 == pytest.approx(15.0, rel=0.10)
        assert w0 == pytest.approx(0.5, abs=0.05)
        assert w1 == pytest.approx(0.5, abs=0.05)

    def test_beats_single_poisson_likelihood(self):
        rng = substream(6, 2)
        counts = np.concatenate([rng.poisson(2.0, 500),
                                 rng.poisson(12.0, 500)])
        two = C.fit_poisson_mixture(counts, 2, n_restarts=10)
        one = C.fit_poisson_mixture(counts, 1)
        assert (C.poisson_mixture_loglik(counts, two)
                >= C.poisson_mixture_loglik(counts, one))


# daily walk-in counts: spread, mostly zeros, all equal, two clusters, and
# zeros beside large counts, where a component can fall onto the rate-0 atom
DAILY_COUNTS = st.one_of(
    st.lists(st.integers(0, 30), min_size=1, max_size=30),
    st.lists(st.sampled_from([0, 0, 0, 0, 1, 3]), min_size=1, max_size=30),
    st.builds(lambda c, n: [c] * n, st.integers(0, 9), st.integers(1, 30)),
    st.builds(lambda a, b: a + b,
              st.lists(st.integers(0, 4), min_size=1, max_size=15),
              st.lists(st.integers(25, 40), min_size=1, max_size=15)),
    st.lists(st.sampled_from([0, 0, 0, 30, 40]), min_size=1, max_size=30),
)


class TestBatchedEMMatchesReference:
    """The restarts run together equal the reference's restarts run one
    after another, to the bit. The iteration cap is drawn small as well,
    which keeps degenerate counts (which run to the cap) cheap and puts
    the capped path in most examples."""

    @staticmethod
    def fits(fit, counts, k, restarts, seed):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mixture = fit(counts, k, n_restarts=restarts, seed=seed)
        return mixture, [str(w.message) for w in caught]

    @settings(max_examples=100, deadline=None)
    @given(counts=DAILY_COUNTS, k=st.integers(1, 4),
           restarts=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1),
           cap=st.integers(1, 40))
    @example(counts=[0] * 8 + [30, 40] * 3, k=3, restarts=4, seed=0,
             cap=C._EM_MAX_ITER).via("rate-0 atom at the shipped cap")
    @example(counts=[2, 3, 3, 2, 3, 3, 2], k=4, restarts=3, seed=1,
             cap=C._EM_MAX_ITER).via("4 components reduced to 2")
    @example(counts=[i % 7 + 20 * (i % 3 == 0) for i in range(240)], k=2,
             restarts=5, seed=3, cap=C._EM_MAX_ITER).via(
        "more days than numpy's pairwise-summation block of 128")
    def test_equals_restarts_one_after_another(self, counts, k, restarts,
                                               seed, cap):
        with mock.patch.object(C, "_EM_MAX_ITER", cap):
            fast = self.fits(C.fit_poisson_mixture, counts, k, restarts, seed)
            plain = self.fits(R.fit_poisson_mixture, counts, k, restarts,
                              seed)
        assert fast == plain

    def test_rate_zero_atom_reached(self):
        # the first explicit example above takes the atom path
        counts = [0] * 8 + [30, 40] * 3
        mixture = C.fit_poisson_mixture(counts, 3, n_restarts=4, seed=0)
        assert 0.0 in [rate for _, rate in mixture]


class TestScenarioFromFit:
    ECON = dict(T=100, k0=14, v=0.7)

    def test_no_cancellations_degenerate(self):
        model = C.FittedModel(
            lead_gamma=(2.0, 3.0), cancel_weibull=(1.5, 4.0),
            duration_geometric=0.3, walkin_mixture=((1.0, 5.0),),
            capacity=70, cancel_prob=0.0, mean_daily_bookings=100.0)
        sc = C.scenario_from_fit(model, **self.ECON)
        prof = sc.profiles
        assert prof.show_prob == pytest.approx(1.0)
        assert np.all(prof.keep_curve.values == 1.0)

    def test_walkin_mass_is_mixture_mean(self):
        sc = C.scenario_from_fit(MODEL, **self.ECON)
        assert sc.profiles.walkin_rate.mass == pytest.approx(9.0)

    def test_capacity_and_policy_passthrough(self):
        sc = C.scenario_from_fit(MODEL, **self.ECON)
        assert sc.C == 70 and sc.v == 0.7

    def test_keep_curve_monotone_and_ends_at_one(self):
        sc = C.scenario_from_fit(MODEL, **self.ECON)
        curve = sc.profiles.keep_curve
        assert np.all(np.diff(curve.values) >= 0)
        assert curve.values[-1] == 1.0

    def test_horizon_shorter_than_window_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            C.scenario_from_fit(MODEL, T=7, k0=14, v=0.7)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="^k0: must be at least 1"):
            C.scenario_from_fit(MODEL, T=7, k0=0, v=0.7)

    @pytest.mark.parametrize("key", ["reward", "overbook_penalty"])
    def test_infinite_cost_rejected(self, key):
        with pytest.raises(ValueError, match=(
                f"^{key}: must be finite and nonnegative, got inf$")):
            C.scenario_from_fit(MODEL, **self.ECON, **{key: float("inf")})


class TestModelPersistence:
    def test_save_load_round_trip(self, tmp_path):
        p = tmp_path / "model.txt"
        C.save_model(MODEL, p)
        assert C.load_model(p) == MODEL


class TestEndToEndFit:
    def test_simulated_records_recover_model(self):
        rows = C.simulate_booking_records(MODEL, 200, seed=5)
        fit = C.fit_model(rows, 70, seed=1)
        # integerized records: looser than the raw-sample closures
        assert fit.duration_geometric == pytest.approx(0.3, abs=0.02)
        assert fit.cancel_prob == pytest.approx(0.35, abs=0.02)
        assert fit.mean_daily_bookings == pytest.approx(180.0, rel=0.05)
        mean_wk = fit.mean_daily_walkins
        assert mean_wk == pytest.approx(9.0, rel=0.10)

    def test_fit_report_mentions_demand_caveat(self):
        rows = C.simulate_booking_records(MODEL, 30, seed=2)
        fit = C.fit_model(rows, 70, seed=1)
        report = C.fit_report(fit, rows)
        assert "rejected requests" in report
        assert "loglik" in report

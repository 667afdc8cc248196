"""Ingestion, fitter closure, the model file, and fits of synthetic
datasets drawn by the benchmark's generator."""

import csv
import datetime
import sys
import tempfile
import warnings
from pathlib import Path
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

    # the csv dialect as the per-row reader has always read it: each case
    # is a whole file and its records, or its whole error message
    @pytest.mark.parametrize("text, expected", [
        (HEADER + '"2017-01-01","5","0","","2","0"\n', [row()]),
        (HEADER.replace("\n", "\r") + "2017-01-01,5,0,,2,0\r"
         "2017-01-02,10,1,4,1,0\r", [row(), row(10, True, 4, 1, day=1)]),
        (HEADER.replace("\n", "\r\n") + "2017-01-01,5,0,,2,0\r\n"
         "2017-01-02,10,1,4,1,0\r\n", [row(), row(10, True, 4, 1, day=1)]),
        (HEADER + "2017-01-01, 5 , 0 ,  , 2 , 0 \n", [row()]),
        (HEADER + "2017-01-01,5,0,,2,0,extra\n", [row()]),
        (HEADER.replace("\n", ",lead_days\n") + "2017-01-01,9,0,,2,0,5\n",
         [row()]),
        (HEADER + "2017-01-01,1_0,0,,2,0\n", [row(lead=10)]),
        (HEADER + "2017-01-01,-99999999999999999999,0,,2,0\n",
         "line 2: negative lead_days"),
        (HEADER + "   \n", "line 2: fewer fields than the header"),
        (HEADER + " 2017-01-01,5,0,,2,0\n",
         "line 2: Invalid isoformat string: ' 2017-01-01'"),
        (HEADER + "2017-01-01,5,01,,2,0\n",
         "line 2: boolean columns must be 0 or 1"),
    ], ids=["quoted", "cr-line-ends", "crlf-line-ends", "padded-fields",
            "extra-field", "repeated-column", "underscore-digits",
            "below-int64", "whitespace-line", "padded-date", "two-byte-flag"])
    def test_dialect(self, tmp_path, text, expected):
        p = tmp_path / "b.csv"
        p.write_bytes(text.encode())
        if isinstance(expected, str):
            with pytest.raises(C.IngestError) as exc:
                C.ingest_bookings(p)
            assert str(exc.value) == expected
        else:
            data = C.ingest_bookings(p)
            assert data.dtype == C.BOOKING_DTYPE
            assert data.tolist() == expected


def ingested(ingest, path):
    """ingest(path) as comparable bytes, or its IngestError's message."""
    try:
        data = ingest(path)
    except C.IngestError as exc:
        return str(exc)
    return data.dtype, data.tobytes()


def per_row_path_raises():
    """Makes the per-row path of calibration fail if it runs at all."""
    return mock.patch.object(C, "_parse_row",
                             side_effect=AssertionError("per-row path"))


# how a valid field may be written: padded, signed, with underscores,
# in other Unicode digits; each int's grammar and str.strip read alike
PADS = ["", " ", "\t", "\u3000"]
DIGITS = [str.maketrans("0123456789", "０１２３４５６７８９"),
          str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")]
# Python reads compact dates (20170101) from 3.11 on
DATE_FORMATS = ["%Y-%m-%d"] + (["%Y%m%d"] if sys.version_info >= (3, 11)
                               else [])
# a broken field: (column, text); each one breaks a rule of the format
BROKEN = [("lead_days", "-1"), ("lead_days", ""), ("lead_days", "x"),
          ("lead_days", str(2 ** 63)), ("lead_days", str(-2 ** 63 - 1)),
          ("lead_days", "-99999999999999999999"), ("stay_nights", "0"),
          ("stay_nights", str(2 ** 63)), ("is_canceled", "2"),
          ("is_walk_in", "yes"), ("cancel_lead_days", "-1"),
          ("cancel_lead_days", "x"), ("cancel_lead_days", str(2 ** 64)),
          ("arrival_date", "2017-13-01"), ("arrival_date", " 2017-01-01"),
          ("arrival_date", ""), ("lead_days", "5\0"), ("is_canceled", "01"),
          ("is_canceled", "00"), ("is_walk_in", "10"), ("is_walk_in", "11")]


def plain(name, text):
    """Whether text, a valid field of column name, is plain: 1 to 18
    ASCII digits, a flag of one byte, a 10-byte date, or an empty
    cancel_lead_days. The columnar path reads plain fields by itself."""
    if name == "arrival_date":
        return len(text) == 10
    if name == "cancel_lead_days" and not text:
        return True
    return (text.isascii() and text.isdigit()
            and len(text) <= (1 if name.startswith("is_") else 18))


@st.composite
def integer_text(draw, value, forms, pad):
    """value as a field may write it, in one of forms, padded by pad."""
    text = str(abs(value))
    style = draw(st.sampled_from(forms))
    if style == "plus" and value >= 0:
        text = "+" + text
    elif style == "underscore" and len(text) > 1:
        cut = draw(st.integers(1, len(text) - 1))
        text = text[:cut] + "_" + text[cut:]
    elif style == "unicode":
        text = text.translate(draw(st.sampled_from(DIGITS)))
    if value < 0:
        text = "-" + text
    return draw(pad) + text + draw(pad)


@st.composite
def record_fields(draw, plain_only):
    """The six fields of one valid record, by column name: in plain forms
    only, or in any form. 10**18 - 1 is the largest plain integer, and
    2**63 - 1, of 19 digits, is never plain."""
    walkin = draw(st.booleans())
    big = st.sampled_from([10 ** 18 - 1] if plain_only
                          else [10 ** 18 - 1, 2 ** 63 - 1])
    lead = 0 if walkin else draw(st.one_of(st.integers(0, 400), big))
    canceled = not walkin and draw(st.booleans())
    cancel = draw(st.sampled_from([0, lead]) | st.integers(0, lead))
    date = datetime.date(2017, 1, 1) + datetime.timedelta(
        days=draw(st.integers(0, 800)))
    forms = (["plain"] if plain_only
             else ["plain", "plus", "underscore", "unicode"])
    pad = st.sampled_from([""] if plain_only else PADS)
    return {
        "arrival_date": date.strftime(draw(st.sampled_from(
            DATE_FORMATS[:1] if plain_only else DATE_FORMATS))),
        "lead_days": draw(integer_text(lead, forms, pad)),
        "is_canceled": draw(pad) + str(int(canceled)) + draw(pad),
        "cancel_lead_days": (draw(integer_text(cancel, forms, pad))
                             if canceled else draw(pad)),
        "stay_nights": draw(integer_text(draw(st.one_of(
            st.integers(1, 30), big)), forms, pad)),
        "is_walk_in": draw(pad) + str(int(walkin)) + draw(pad),
    }


@st.composite
def booking_texts(draw):
    """(text, clean): a booking dataset, and whether it was drawn from
    clean forms only, which the columnar path must read by itself: plain
    fields, LF or CRLF line ends and blank lines. The other forms (fields
    that are not plain, bare CR line ends, quotes, short and long rows,
    whitespace lines, broken fields and missing columns) send the file to
    the per-row path, and most make it fail. Three files in four draw
    plain fields only."""
    clean, plain_only = True, draw(st.integers(0, 3)) > 0
    header = draw(st.permutations(C.COLUMNS))
    for name in draw(st.lists(st.sampled_from(["hotel", *C.COLUMNS]),
                              max_size=2)):
        header.insert(draw(st.integers(0, len(header))), name)
    if draw(st.integers(0, 19)) == 19:
        header.remove(draw(st.sampled_from(C.COLUMNS)))
        clean = False
    last = {name: i for i, name in enumerate(header)}
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        fields = draw(record_fields(plain_only))
        clean = clean and all(plain(name, fields[name]) for name in last
                              if name in fields)
        line = [fields[name] if last[name] == i and name in fields
                else draw(st.sampled_from(["", "x", " 7 "]))
                for i, name in enumerate(header)]
        flaw = draw(st.integers(0, 29))  # drawn near 0 most often
        if flaw == 29:  # a broken field
            name, text = draw(st.sampled_from(BROKEN))
            if name in last:
                line[last[name]] = text
                clean = False
        elif flaw == 28:  # a quoted field, maybe with a comma inside
            i = draw(st.integers(0, len(line) - 1))
            line[i] = '"' + draw(st.sampled_from([line[i], "a,b"])) + '"'
            clean = False
        elif flaw == 27:  # a short or a long row
            line = (line[:draw(st.integers(0, len(line) - 1))]
                    if draw(st.booleans()) else line + ["x"])
            clean = False
        elif flaw == 26:  # a whitespace line
            lines.append(draw(st.sampled_from([" ", "\t"])))
            clean = False
        elif flaw >= 23:
            lines.append("")  # a blank line
        lines.append(",".join(line))
    ends = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    if ends == "mixed":
        ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    else:
        ends = [ends] * len(lines)
    clean = clean and "\r" not in [e for e in ends if e != "\r\n"]
    if len(lines) > 1 and draw(st.booleans()):
        ends[-1] = ""  # no line end after the last record
    return "".join(map(str.__add__, lines, ends)), clean


@st.composite
def one_broken_field(draw):
    """(text, False): a file of plain records and LF or CRLF line ends in
    which exactly one field is a BROKEN entry. The rest of the file keeps
    it on the columnar path, so that path's own checks must find the
    field; booking_texts puts a broken field into an otherwise clean file
    too rarely to test them."""
    header = draw(st.permutations(C.COLUMNS))
    records = draw(st.lists(record_fields(True), min_size=1, max_size=12))
    lines = [header] + [[r[name] for name in header] for r in records]
    # a column first, then one of its broken entries: the two flags'
    # entries are drawn as often as the other columns' are
    name = draw(st.sampled_from(C.COLUMNS))
    text = draw(st.sampled_from([t for n, t in BROKEN if n == name]))
    lines[draw(st.integers(1, len(records)))][header.index(name)] = text
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(",".join(line) + end for line in lines), False


class TestColumnarIngestMatchesReference:
    """ingest_bookings against the reference's one-record-at-a-time
    reader: the same array bytes or the same error message. A clean file
    must not reach the per-row path at all. The block size is drawn
    small, so most files span several blocks, and lines and multi-byte
    UTF-8 fields straddle reads."""

    @settings(max_examples=300, deadline=None)
    @given(case=st.one_of(booking_texts(), one_broken_field()),
           chunk=st.integers(1, 64))
    @example(case=(HEADER + "2017-01-01,5, 1 ,\t3 ,2,\u30000\n", False),
             chunk=64).via("padded flags and cancel lead")
    @example(case=("hotel," + HEADER.replace("\n", ",hotel\r")
                   + "x,2017-01-01,5,0,,2,0,y\r", False),
             chunk=64).via("bare CR line ends, no line feed in the file")
    def test_equals_reference(self, case, chunk):
        text, clean = case
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "b.csv"
            p.write_bytes(text.encode())
            expected = ingested(R.ingest_bookings, p)
            with mock.patch.object(C, "CHUNK_BYTES", chunk):
                assert ingested(C.ingest_bookings, p) == expected
                if clean:
                    assert not isinstance(expected, str)
                    with per_row_path_raises():
                        assert ingested(C.ingest_bookings, p) == expected

    @pytest.mark.parametrize("bad, message", [
        ("2017-01-02,3,1,9,2,0", "cancel_lead_days exceeds lead_days"),
        ('"2017-01-02",3,0,,2,0', None),
        ("2017-01-02,3,0,,2", "fewer fields than the header"),
    ], ids=["broken-rule", "quoted", "short-row"])
    def test_bad_line_in_second_chunk(self, tmp_path, bad, message):
        # at the shipped block size: the first block, of whole lines, is
        # clean
        line = "2017-01-01,5,0,,2,0\n"
        first = C.CHUNK_BYTES // len(line)
        n = first + 10
        lines = [line] * n
        lines[first + 3] = bad + "\n"
        p = tmp_path / "b.csv"
        p.write_text(HEADER + "".join(lines))
        expected = ingested(R.ingest_bookings, p)
        assert ingested(C.ingest_bookings, p) == expected
        if message:
            assert expected == f"line {first + 5}: {message}"
        else:
            assert len(C.ingest_bookings(p)) == n

    @pytest.mark.parametrize("note, message", [
        ("x" * 85, None),  # a line over the limit, its fields under it
        ("x" * 120, "line 2: field larger than field limit (100)"),
    ], ids=["long-line", "long-field"])
    def test_field_size_limit(self, tmp_path, note, message):
        p = tmp_path / "b.csv"
        p.write_text(HEADER.replace("\n", ",note\n")
                     + f"2017-01-01,5,0,,2,0,{note}\n")
        limit = csv.field_size_limit(100)
        try:
            expected = ingested(R.ingest_bookings, p)
            assert ingested(C.ingest_bookings, p) == expected
        finally:
            csv.field_size_limit(limit)
        if message:
            assert expected == message
        else:
            assert not isinstance(expected, str)

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_bytes(HEADER.encode() + b"2017-01-01,5,0,,2,0\n" * 5000
                      + b"2017-01-01,\xff,0,,2,0\n")
        expected = ingested(R.ingest_bookings, p)
        assert expected.endswith("invalid start byte)")
        assert ingested(C.ingest_bookings, p) == expected


class TestColumnarPath:
    """Clean files, the benchmark's dataset among them, are read by the
    columnar path alone: with the per-row path failing, each still
    ingests, and to the reference's array."""

    def check(self, p):
        with per_row_path_raises():
            data = C.ingest_bookings(p)
        assert data.tobytes() == R.ingest_bookings(p).tobytes()
        return data

    def test_lf_file(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text(HEADER + "2017-01-01,5,0,,2,0\n"
                     "2017-01-02,10,1,4,1,0\n2017-01-03,0,0,,3,1\n")
        assert self.check(p).tolist() == [
            row(), row(10, True, 4, 1, day=1), row(0, stay=3, walkin=True,
                                                   day=2)]

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("blank", [0, 3],
                             ids=["no-last-line-end", "blank-lines"])
    def test_file_end(self, tmp_path, end, blank):
        # the last record without its line end, or followed by blank lines
        records = ["2017-01-01,5,0,,2,0", "2017-01-02,10,1,4,1,0",
                   "2017-01-03,0,0,,3,1"]
        p = tmp_path / "b.csv"
        p.write_bytes((HEADER.replace("\n", end) + end.join(records)
                       + end * blank).encode())
        assert self.check(p).tolist() == [
            row(), row(10, True, 4, 1, day=1), row(0, stay=3, walkin=True,
                                                   day=2)]

    def test_written_crlf_file(self, tmp_path):
        # a generated dataset written again by csv.writer, which ends its
        # lines with \r\n
        lf, p = tmp_path / "lf.csv", tmp_path / "b.csv"
        R.write_bookings(lf, MODEL, 30, seed=4)
        data = R.ingest_bookings(lf)
        with open(lf, encoding="utf-8", newline="") as src, \
                open(p, "w", encoding="utf-8", newline="") as dst:
            csv.writer(dst).writerows(csv.reader(src))
        assert b"\r\n" in p.read_bytes()
        assert self.check(p).tobytes() == data.tobytes()

    def test_benchmark_dataset(self, tmp_path):
        p = tmp_path / "b.csv"
        rows = R.load_perfbench_workloads().write_bookings(p, 20240401)
        assert len(self.check(p)) == rows
        assert p.stat().st_size > C.CHUNK_BYTES


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
    @given(counts=DAILY_COUNTS, k=st.integers(1, 12),
           restarts=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1),
           cap=st.integers(1, 40))
    @example(counts=[0] * 8 + [30, 40] * 3, k=3, restarts=4, seed=0,
             cap=C._EM_MAX_ITER).via("rate-0 atom at the shipped cap")
    @example(counts=[2, 3, 3, 2, 3, 3, 2], k=4, restarts=3, seed=1,
             cap=C._EM_MAX_ITER).via("4 components reduced to 2")
    @example(counts=[i % 7 + 20 * (i % 3 == 0) for i in range(240)], k=2,
             restarts=5, seed=3, cap=C._EM_MAX_ITER).via(
        "more days than numpy's pairwise-summation block of 128")
    @example(counts=[i % 7 + 20 * (i % 3 == 0) for i in range(240)], k=9,
             restarts=3, seed=3, cap=C._EM_MAX_ITER).via(
        "9 components, which numpy sums with 8 partial sums")
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


class TestLogsumexp:
    @pytest.mark.parametrize("k", [*range(1, 21), 130])
    def test_equals_scipy_over_the_last_axis(self, k):
        # over the leading axis, against scipy over the last axis of a
        # contiguous copy, as the reference's lone run calls it: continuous
        # values, whose sums round by their order, values on a grid of 0.5,
        # which tie for the maximum, and -inf terms and all -inf columns
        from scipy.special import logsumexp
        rng = np.random.default_rng(k)
        a = np.concatenate([rng.normal(0.0, 20.0, (k, 3, 40)),
                            rng.integers(-4, 1, (k, 3, 40)) * 0.5], axis=-1)
        a[rng.random(a.shape) < 0.2] = -np.inf
        a[:, 0, :3] = -np.inf
        expected = logsumexp(np.moveaxis(a, 0, -1).copy(), axis=-1)
        assert C._logsumexp(a).tobytes() == expected.tobytes()
        top = a.max(axis=0)
        ties = (a == top).sum(axis=0)[np.isfinite(top)]
        assert k == 1 or ties.max() >= 2


class TestModelPersistence:
    def test_save_load_round_trip(self, tmp_path):
        # every field at full precision, as the benchmark's reader reads it
        p = tmp_path / "model.txt"
        C.save_model(MODEL, p)
        assert R.load_perfbench_workloads().checks.read_model(p) == {
            "lead_gamma_shape": 2.0, "lead_gamma_scale": 3.0,
            "cancel_weibull_shape": 1.5, "cancel_weibull_scale": 4.0,
            "duration_geometric_q_stay": 0.3, "capacity": 70,
            "cancel_prob": 0.35, "mean_daily_bookings": 180.0,
            "walkin_components": 2, "walkin_weight_0": 0.5,
            "walkin_rate_0": 3.0, "walkin_weight_1": 0.5,
            "walkin_rate_1": 15.0}


def simulated(tmp_path, days, seed):
    """An ingested dataset of `days` dates drawn from MODEL."""
    p = tmp_path / "b.csv"
    R.write_bookings(p, MODEL, days, seed)
    return C.ingest_bookings(p)


class TestEndToEndFit:
    def test_simulated_records_recover_model(self, tmp_path):
        rows = simulated(tmp_path, 200, seed=5)
        fit = C.fit_model(rows, 70, seed=1)
        # integerized records: looser than the raw-sample closures
        assert fit.duration_geometric == pytest.approx(0.3, abs=0.02)
        assert fit.cancel_prob == pytest.approx(0.35, abs=0.02)
        assert fit.mean_daily_bookings == pytest.approx(180.0, rel=0.05)
        mean_wk = sum(w * r for w, r in fit.walkin_mixture)
        assert mean_wk == pytest.approx(9.0, rel=0.10)

    def test_fit_report_mentions_demand_caveat(self, tmp_path):
        rows = simulated(tmp_path, 30, seed=2)
        fit = C.fit_model(rows, 70, seed=1)
        report = C.fit_report(fit, rows)
        assert "rejected requests" in report
        assert "loglik" in report

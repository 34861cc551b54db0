"""Histogram ingest: parsing, background, normalization, pair rates."""

import warnings

import numpy as np
import pytest
from conftest import first_difference, oracle_table
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import ingest
from biphoton.errors import ParameterError, ParseError
from biphoton.ingest import (_BLOCK_ROWS, SERIES_HEADER, CoincidenceHistogram,
                             detected_pair_rate, estimate_background,
                             load_histogram, load_series,
                             make_synthetic_histogram, save_histogram, to_g2,
                             write_table)
from biphoton.observables import (DetectionChain, detected_to_generated,
                                  sbr_from_g2)
from biphoton.params import SystemParams

CHAIN = DetectionChain(d_s=0.13, d_p=0.094, fiber_factor=1.9)

META_TEMPLATE = """\
bin_width_ns = 0.8
accumulation_s = 120.0
singles_signal_per_s = 683200.0
singles_probe_per_s = 800000.0
d_s = 0.13
d_p = 0.094
fiber_factor = 1.9
saturation_corrected = true
"""


def write_pair(tmp_path, rows, meta=META_TEMPLATE, name="hist.csv"):
    csv = tmp_path / name
    csv.write_text("tau_ns,counts\n" + "\n".join(rows) + "\n")
    csv.with_suffix(".meta").write_text(meta)
    return csv


def flat_histogram(level=20, n=600):
    tau = np.arange(n) * 0.8
    return CoincidenceHistogram(
        bin_start=tau, counts=np.full(n, level, dtype=np.int64),
        bin_width=0.8, accumulation=120.0, singles_signal=6.832e5,
        singles_probe=8.0e5, chain=CHAIN, saturation_corrected=True)


class TestLoad:
    def test_two_bin_file(self, tmp_path):
        h = load_histogram(write_pair(tmp_path, ["0.0,5", "0.8,7"]))
        assert h.n_bins == 2
        assert h.counts.tolist() == [5, 7]
        assert h.chain.d_s == 0.13
        assert h.saturation_corrected is True

    def test_non_uniform_bins_rejected(self, tmp_path):
        path = write_pair(tmp_path, ["0.0,5", "1.0,7"])
        with pytest.raises(ParseError, match="uniform"):
            load_histogram(path)

    def test_missing_meta_key(self, tmp_path):
        meta = META_TEMPLATE.replace("d_s = 0.13\n", "")
        path = write_pair(tmp_path, ["0.0,5", "0.8,7"], meta=meta)
        with pytest.raises(ParseError, match="d_s"):
            load_histogram(path)

    def test_meta_comments(self, tmp_path):
        meta = "# acquired 2025-01-07\n" + META_TEMPLATE.replace(
            "d_s = 0.13\n", "d_s = 0.13  # calibrated at 795 nm\n")
        h = load_histogram(write_pair(tmp_path, ["0.0,5", "0.8,7"], meta=meta))
        assert h.chain.d_s == 0.13

    def test_meta_line_without_equals_names_its_line(self, tmp_path):
        meta = META_TEMPLATE.replace("d_p = 0.094\n", "d_p 0.094\n")
        path = write_pair(tmp_path, ["0.0,5", "0.8,7"], meta=meta)
        with pytest.raises(ParseError) as excinfo:
            load_histogram(path)
        assert str(excinfo.value) == \
            "metadata line is not 'key = value' (hist.meta:6)"
        assert excinfo.value.code == "DATA_PARSE"

    def test_malformed_row_reports_line(self, tmp_path):
        path = write_pair(tmp_path, ["0.0,5", "0.8,seven"])
        with pytest.raises(ParseError, match="hist.csv:3"):
            load_histogram(path)

    def test_negative_counts_rejected(self, tmp_path):
        path = write_pair(tmp_path, ["0.0,5", "0.8,-1"])
        with pytest.raises(ParseError):
            load_histogram(path)

    @pytest.mark.parametrize("count", ["-1", "2.5", "1e20",
                                       "9007199254740992",
                                       "9007199254740993"])
    def test_count_outside_exact_integers_names_its_row(self, tmp_path,
                                                         count):
        path = write_pair(tmp_path, ["0.0,5", "", f"0.8,{count}", "1.6,2"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError) as excinfo:
                load_histogram(path)
        assert str(excinfo.value) == (
            f"count in row '0.8,{count}' is not an integer in [0, 2^53) "
            "(hist.csv:4)")

    def test_largest_exact_count_loads(self, tmp_path):
        h = load_histogram(write_pair(tmp_path, ["0.0,9007199254740991",
                                                 "0.8,0"]))
        assert h.counts.tolist() == [2**53 - 1, 0]

    @pytest.mark.parametrize("rows", [["0.0,1_0", "0.8,7"],
                                      ["0.0,\u0661\u0660", "0.8,7"],
                                      ["\u3000", "0.0,10", "  ", "0.8,7"]])
    def test_rows_the_c_reader_refuses_and_float_reads(self, tmp_path, rows):
        h = load_histogram(write_pair(tmp_path, rows))
        assert h.counts.tolist() == [10, 7]

    def test_unit_separator_is_not_space_to_float(self, tmp_path):
        # numpy's reader strips U+001F around a number; float() does not
        path = write_pair(tmp_path, ["0.0,5", "0.8,7\x1f"])
        with pytest.raises(ParseError, match=r"hist\.csv:3"):
            load_histogram(path)

    def test_long_synthetic_histogram_raises_no_warning(self):
        # a profile that evaluates the rise exponential on every bin
        # overflows far past the peak, above ~11800 bins
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = make_synthetic_histogram(1.7e5, 21.0, CHAIN, seed=3,
                                         n_bins=32768)
        assert h.n_bins == 32768
        assert int(np.argmax(h.counts)) in range(32768 // 4 - 50,
                                                 32768 // 4 + 50)

    def test_round_trip_bit_identical(self, tmp_path):
        # longer than two write blocks, so the round trip crosses them
        h = make_synthetic_histogram(1.7e5, 21.0, CHAIN, seed=3,
                                     n_bins=2 * _BLOCK_ROWS + 3)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        save_histogram(h, p1)
        back = load_histogram(p1)
        np.testing.assert_array_equal(back.bin_start, h.bin_start)
        np.testing.assert_array_equal(back.counts, h.counts)
        save_histogram(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.with_suffix(".meta").read_bytes() == \
            p2.with_suffix(".meta").read_bytes()

    def test_saved_meta_text(self, tmp_path):
        save_histogram(flat_histogram(), tmp_path / "h.csv")
        assert (tmp_path / "h.meta").read_bytes() == META_TEMPLATE.encode()

    def test_saved_rows_match_the_oracle(self, tmp_path):
        h = make_synthetic_histogram(1.7e5, 21.0, CHAIN, seed=3,
                                     n_bins=_BLOCK_ROWS + 1)
        save_histogram(h, tmp_path / "h.csv")
        rows = [f"{float(t)!r},{int(c)}" for t, c in zip(h.bin_start,
                                                            h.counts)]
        assert first_difference((tmp_path / "h.csv").read_text(),
                                "\n".join(["tau_ns,counts", *rows]) + "\n"
                                ) is None


# every float whose text a careless formatter could change
SPECIAL_FLOATS = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-5,
                  0.1 + 0.2, -np.nan, 1.0, 2.5]


class TestWriteTable:
    @pytest.mark.parametrize("n_rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS,
                                        _BLOCK_ROWS + 1])
    def test_matches_the_per_value_oracle(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        # repeated special values, distinct values, int64 counts with
        # repeats, and an object column of floats and "ERROR" cells
        special = rng.choice(np.array(SPECIAL_FLOATS), n_rows)
        distinct = rng.normal(size=n_rows) * 10.0 ** rng.integers(-9, 9,
                                                                   n_rows)
        counts = rng.poisson(30.0, n_rows).astype(np.int64)
        g2 = counts / 23.7
        mixed = [("ERROR" if i % 7 == 3 else float(v))
                 for i, v in enumerate(special)]
        columns = [special, distinct, counts, g2, mixed]
        write_table(tmp_path / "t.csv", "a,b,c,d,e", columns)
        assert first_difference((tmp_path / "t.csv").read_text(),
                                oracle_table("a,b,c,d,e", columns)) is None

    def test_special_values_keep_their_text(self, tmp_path):
        values = np.array(SPECIAL_FLOATS)
        write_table(tmp_path / "t.csv", "v", [values])
        assert (tmp_path / "t.csv").read_text().splitlines()[1:] == [
            "-0.0", "0.0", "nan", "inf", "-inf", "5e-324", "1e+16", "1e-05",
            "0.30000000000000004", "nan", "1.0", "2.5"]

    def test_strided_columns_and_object_cells(self, tmp_path):
        tau = np.arange(20) * 0.8
        names = ("sbr", "r_d")
        columns = [tau[::10], [np.float64(0.5), 7], names, ["", "1/s"],
                   ["true", "false"]]
        write_table(tmp_path / "t.csv", "tau,v,name,units,flag", columns)
        assert (tmp_path / "t.csv").read_text() == (
            "tau,v,name,units,flag\n0.0,0.5,sbr,,true\n8.0,7,r_d,1/s,false\n")

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            write_table(tmp_path, "a", [np.zeros(3)])


def write_series(tmp_path, rows, header=SERIES_HEADER):
    path = tmp_path / "s.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


SERIES_ROWS = ["0.2,1.0,0.1,60.0,1.0", "0.6,1.1,0.1,62.0,1.0",
               "1.0,1.2,0.1,64.0,1.0", "2.2,1.3,0.1,66.0,1.0"]


class TestLoadSeries:
    def test_columns_fixed_and_label(self, tmp_path):
        fixed = SystemParams(alpha=300.0)
        series = load_series(write_series(tmp_path, SERIES_ROWS), fixed)
        assert series.delta_c_ghz.tolist() == [0.2, 0.6, 1.0, 2.2]
        assert series.tau_w_err.tolist() == [1.0] * 4
        assert series.fixed is fixed
        assert series.label == "s"

    @pytest.mark.parametrize("bad_row", ["1.0,1.2,0.1,64.0",
                                         "1.0,1.2,0.1,64.0,1.0,7",
                                         "1.0,1.2,0.1,sixty,1.0",
                                         "1.0,1.2,nan,64.0,1.0",
                                         "1.0,inf,0.1,64.0,1.0"])
    def test_bad_row_names_its_line(self, tmp_path, bad_row):
        rows = SERIES_ROWS[:2] + [bad_row] + SERIES_ROWS[3:]
        with pytest.raises(ParseError, match=r"\(s\.csv:4\)") as excinfo:
            load_series(write_series(tmp_path, rows), SystemParams())
        assert (excinfo.value.code, excinfo.value.status) == ("DATA_PARSE", 3)

    @pytest.mark.parametrize("dc", ["1e307", "-1e307"])
    def test_detuning_past_gamma_units_names_its_row(self, tmp_path, dc):
        # finite in GHz, but it overflows in units of Gamma; refused
        # without an overflow warning (pytest makes one an error)
        rows = SERIES_ROWS[:2] + [f"{dc},1.2,0.1,64.0,1.0"] + SERIES_ROWS[3:]
        with pytest.raises(ParseError) as excinfo:
            load_series(write_series(tmp_path, rows), SystemParams())
        assert str(excinfo.value) == (
            f"delta_c_ghz in row '{dc},1.2,0.1,64.0,1.0' is not finite in "
            "units of Gamma (s.csv:4)")
        assert excinfo.value.code == "DATA_PARSE"

    def test_header_checked(self, tmp_path):
        path = write_series(tmp_path, SERIES_ROWS, header="a,b,c,d,e")
        with pytest.raises(ParseError, match=r"s\.csv:1"):
            load_series(path, SystemParams())

    def test_too_short_is_a_usage_error(self, tmp_path):
        with pytest.raises(ParameterError) as excinfo:
            load_series(write_series(tmp_path, SERIES_ROWS[:3]),
                        SystemParams())
        assert (excinfo.value.code, excinfo.value.status) == (
            "SERIES_TOO_SHORT", 2)

    def test_repeated_detuning_is_a_parse_error(self, tmp_path):
        rows = SERIES_ROWS[:3] + [SERIES_ROWS[0]]
        with pytest.raises(ParseError, match="distinct"):
            load_series(write_series(tmp_path, rows), SystemParams())

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError) as excinfo:
            load_series(tmp_path / "absent.csv", SystemParams())
        assert excinfo.value.code == "DATA_NOT_FOUND"


def walk_table(path, header):
    """The table reader of record: every cell through ``float()``, one
    line at a time."""
    lines = ingest.read_text(path,
                             ingest._data_error("table file")).splitlines()
    name = path.name
    if not lines or lines[0].strip() != header:
        raise ParseError(f"expected header '{header}'", context=f"{name}:1")
    width = header.count(",") + 1
    values = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            if len(parts) != width:
                raise ValueError
            for v in parts:
                values.append(float(v))
        except ValueError:
            raise ParseError(f"row {line!r} is not {width} numbers",
                             context=f"{name}:{lineno}") from None
    table = np.array(values).reshape(-1, width)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        row = [line for line in lines[1:] if line.strip()][np.argmin(finite)]
        raise ParseError(f"non-finite value in row {row!r}",
                         context=f"{name}:{lines.index(row, 1) + 1}")
    return table


def read_outcome(read, path, header):
    """What a table reader makes of ``path``: the table's dtype, shape and
    bytes, or the text and code of its ParseError."""
    try:
        table = read(path, header)
    except ParseError as exc:
        return "error", str(exc), exc.code
    return "table", table.dtype.str, table.shape, table.tobytes()


def _any_case(word):
    """``word`` with each letter in either case."""
    return st.lists(st.booleans(), min_size=len(word),
                    max_size=len(word)).map(lambda upper: "".join(
                        c.upper() if u else c for c, u in zip(word, upper)))


# the cells of generated tables: float spellings, and spellings that only
# float() or neither reader takes, in ASCII and Unicode whitespace
SIGN = st.sampled_from(["", "+", "-"])
DIGITS = st.text("0123456789", min_size=1, max_size=4)
MANTISSA = st.one_of(
    DIGITS, DIGITS.map("{}.".format),
    st.builds("{}.{}".format, st.text("0123456789", max_size=3), DIGITS))
EXPONENT = st.one_of(st.just(""), st.builds("{}{}{}".format,
                                            st.sampled_from("eE"), SIGN,
                                            DIGITS))
NUMBER = st.builds("{}{}{}".format, SIGN, MANTISSA, EXPONENT)
SPECIAL = st.builds("{}{}".format, SIGN,
                    st.sampled_from(["nan", "inf", "infinity"])
                    .flatmap(_any_case))
ODD = st.sampled_from(["1_0", "1__0", "_1", "\u0661\u0662", "\u0663.5",
                       "\x00", "1\x00", '"1"', "'1'", "#", "1#2", "", ".",
                       "e5", "0x1f", "1e", "--1", "1 2", "nan(1)", "infinit",
                       "\u200b1", "\uff11"])
SPACE = st.sampled_from(["", " ", "  ", "\t", "\x1f", "\xa0", "\u2009",
                         "\u3000"])
CELL = st.builds("{}{}{}".format, SPACE,
                 st.one_of(NUMBER, NUMBER, SPECIAL, ODD), SPACE)
BLANK = st.sampled_from(["", "", " ", "\t", "\u3000", "\x1f \xa0"])


@st.composite
def table_texts(draw):
    """A header of 1-3 columns and a body of numeric, odd, blank and
    whitespace-only rows of 1-3 cells, mostly of the header's width."""
    width = draw(st.integers(1, 3))
    header = ",".join("abc"[:width])
    cells = st.sampled_from([width] * 6 + [1, 2, 3])
    row = cells.flatmap(lambda n: st.lists(CELL, min_size=n, max_size=n)
                        ).map(",".join)
    lines = draw(st.lists(st.one_of(row, row, row, BLANK), max_size=8))
    return header, "\n".join([header, *lines]) + draw(
        st.sampled_from(["", "\n"]))


@pytest.fixture(scope="module")
def table_file(tmp_path_factory):
    return tmp_path_factory.mktemp("tables") / "t.csv"


class TestReadTable:
    @settings(max_examples=400, deadline=None)
    @given(text=table_texts())
    def test_matches_the_per_line_reader(self, table_file, text):
        header, body = text
        table_file.write_text(body, encoding="utf-8")
        want = read_outcome(walk_table, table_file, header)
        got = read_outcome(
            lambda path, header: ingest._read_table(path, header,
                                                    "table file")[0],
            table_file, header)
        assert got == want

    def test_only_blank_rows_give_an_empty_table(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table, _ = ingest._read_table(path, "a,b", "table file")
        assert table.shape == (0, 2) and table.dtype == np.float64


class TestBackground:
    def test_constant_histogram_any_window(self):
        h = flat_histogram(level=20)
        est = estimate_background(h)
        assert est.mean == 20.0
        assert est.stderr == 0.0

    def test_poisson_flat_recovered(self):
        rng = np.random.default_rng(11)
        n = 500
        counts = rng.poisson(20.0, size=n).astype(np.int64)
        h = CoincidenceHistogram(
            bin_start=np.arange(n) * 0.8, counts=counts, bin_width=0.8,
            accumulation=120.0, singles_signal=1e5, singles_probe=1e5,
            chain=CHAIN, saturation_corrected=True)
        est = estimate_background(h)
        assert abs(est.mean - 20.0) <= 3.0 * max(est.stderr, 1e-9)

    def test_long_flat_histogram_has_no_false_peak(self):
        # the largest noise excess of this seed sits 5.4 standard errors
        # above the median, past a fixed 5-sigma significance threshold
        h = make_synthetic_histogram(0.0, 10.0, DetectionChain(),
                                     n_bins=32768, seed=19)
        est = estimate_background(h)
        assert abs(est.mean - 10.0) <= 3.0 * est.stderr

    def test_window_overlapping_peak_rejected(self):
        h = make_synthetic_histogram(2e5, 20.0, CHAIN, seed=5,
                                     tau_peak_ns=1200.0)
        with pytest.raises(ParameterError, match="overlaps"):
            estimate_background(h)  # default trailing window hits the peak

    def test_window_too_small(self):
        h = flat_histogram()
        with pytest.raises(ParameterError, match="50"):
            estimate_background(h, window=(0.0, 10.0))


class TestG2:
    def test_counts_equal_background(self):
        h = flat_histogram(level=20)
        curve = to_g2(h, estimate_background(h))
        assert np.all(curve.g2 == 1.0)

    def test_table_row_peak(self):
        # peak bin 268 over background 20 gives g2 max 13.4, SBR 12.4
        h = flat_histogram(level=20, n=600)
        counts = h.counts.copy()
        counts[100] = 268
        h2 = CoincidenceHistogram(
            bin_start=h.bin_start, counts=counts, bin_width=h.bin_width,
            accumulation=h.accumulation, singles_signal=h.singles_signal,
            singles_probe=h.singles_probe, chain=h.chain,
            saturation_corrected=True)
        curve = to_g2(h2, estimate_background(h2))
        assert curve.g2.max() == pytest.approx(13.4)
        assert sbr_from_g2(curve.g2) == pytest.approx(12.4)

    def test_zero_background_rejected(self):
        h = flat_histogram(level=20)
        from biphoton.ingest import BackgroundEstimate
        with pytest.raises(ParameterError):
            to_g2(h, BackgroundEstimate(mean=0.0, stderr=0.0, n_bins=100))


class TestPairRate:
    def test_flat_histogram_zero_rate(self):
        h = flat_histogram(level=20)
        result = detected_pair_rate(h, estimate_background(h))
        assert result.rate == 0.0
        assert result.support is None

    def test_injected_area_recovered(self):
        # known injected detected-pair area over the accumulation time
        h = make_synthetic_histogram(2.0e5, 30.0, CHAIN, seed=9,
                                     noiseless=True)
        est = estimate_background(h)
        result = detected_pair_rate(h, est)
        expected = 2.0e5 * CHAIN.d_s * CHAIN.d_p
        assert result.rate == pytest.approx(expected, rel=0.01)

    def test_halved_by_doubled_accumulation(self):
        h = make_synthetic_histogram(2.0e5, 30.0, CHAIN, seed=9,
                                     noiseless=True)
        doubled = CoincidenceHistogram(
            bin_start=h.bin_start, counts=h.counts, bin_width=h.bin_width,
            accumulation=2.0 * h.accumulation,
            singles_signal=h.singles_signal, singles_probe=h.singles_probe,
            chain=h.chain, saturation_corrected=True)
        est = estimate_background(h)
        r1 = detected_pair_rate(h, est).rate
        r2 = detected_pair_rate(doubled, est).rate
        assert r2 == pytest.approx(r1 / 2.0, rel=1e-12)

    def test_offset_invariance_with_reestimated_background(self):
        h = make_synthetic_histogram(2.0e5, 30.0, CHAIN, seed=9,
                                     noiseless=True)
        shifted = CoincidenceHistogram(
            bin_start=h.bin_start, counts=h.counts + 17, bin_width=h.bin_width,
            accumulation=h.accumulation, singles_signal=h.singles_signal,
            singles_probe=h.singles_probe, chain=h.chain,
            saturation_corrected=True)
        r1 = detected_pair_rate(h, estimate_background(h))
        r2 = detected_pair_rate(shifted, estimate_background(shifted))
        assert r2.rate == pytest.approx(r1.rate, rel=1e-12)
        assert r2.support == r1.support


class TestFullChainRecovery:
    def test_generation_rate_recovered_within_2_percent(self):
        # ~1e6 detected pairs: 6.8e5/s * 0.13 * 0.094 * 120 s
        true_rate = 6.8e5
        h = make_synthetic_histogram(true_rate, 5000.0, CHAIN, seed=42,
                                     n_bins=4096)
        est = estimate_background(h)
        detected = detected_pair_rate(h, est)
        recovered = detected_to_generated(detected.rate, h.chain).fiber
        assert recovered == pytest.approx(true_rate, rel=0.02)

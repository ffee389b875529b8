"""Property tests: bulk trace CSV reading and writing against line-by-line forms.

The reference reader is `oracles.line_walk_parse_trace_csv`; the reference
writer is one f-string per row, as the CSV writers were first written.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fbgvib import ParameterError, ParseError, WavelengthTrace, dataio
from fbgvib.dataio import (CHUNK_ROWS, TRACE_HEADER, csv_text, parse_trace_csv,
                           tips_csv_text, trace_csv_text, write_trace_csv)
from fbgvib.shape import BAND_NM
from fbgvib.spectral import spectrum_rows

from oracles import line_walk_parse_trace_csv

# Whole-microsecond periods: the file's six-decimal times keep the spacing
# uniform within 1 ppm, so a written trace parses back to the same rate.
RATES_HZ = (1.0, 4.0, 250.0, 1000.0, 2000.0)

FILE_SETTINGS = settings(max_examples=60, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def trace_sets(draw):
    """One trace per fiber (one or two fibers), sharing their sample instants."""
    n = draw(st.one_of(st.sampled_from([1, 2]), st.integers(3, 30)))
    rate = draw(st.sampled_from(RATES_HZ))
    t0 = draw(st.integers(0, 10**6)) / 1000.0
    fibers = draw(st.sampled_from([(0,), (1,), (0, 1)]))
    traces = []
    for fiber in fibers:
        areas = draw(st.lists(st.sampled_from((0, 1, 2)), min_size=1, max_size=3,
                              unique=True).map(sorted))
        channels = draw(arrays(float, (n, len(areas)),
                               elements=st.floats(BAND_NM[0], BAND_NM[1])))
        traces.append(WavelengthTrace(rate, channels, t0=t0,
                                      labels=tuple((fiber, aa) for aa in areas)))
    return traces


def outcome(parse, path):
    """What a parser makes of a file: its traces (every float by its bits),
    or its error and line."""
    try:
        traces = parse(path)
    except ParseError as exc:
        return ("error", exc.line, str(exc))
    return ("ok", [(t.sample_rate_hz.hex(), t.t0.hex(), t.labels, t.channels.tobytes())
                   for t in traces])


@FILE_SETTINGS
@given(traces=trace_sets())
def test_parse_then_write_reproduces_the_text(tmp_path, traces):
    text = trace_csv_text(traces)
    path = tmp_path / "t.csv"
    path.write_text(text)
    parsed = parse_trace_csv(path)
    assert trace_csv_text(parsed) == text
    assert outcome(parse_trace_csv, path) == outcome(line_walk_parse_trace_csv, path)


def _set(index, value):
    def corrupt(fields):
        fields[index] = value
        return fields
    return corrupt


CORRUPTIONS = {
    "missing field": lambda fields: fields[:3],
    "extra field": lambda fields: fields + ["0"],
    "non-numeric time": _set(0, "x"),
    "non-numeric fiber": _set(1, "x"),
    "fractional area": _set(2, "0.0"),
    "empty wavelength": _set(3, ""),
    "fiber 2": _set(1, "2"),
    "area 3": _set(2, "3"),
    "below band": _set(3, "1500.0"),
    "above band": _set(3, "1600.0"),
    "decreasing time": _set(0, "-1.0"),
    "inf time": _set(0, "inf"),
    "nan time": _set(0, "nan"),
    "-inf time": _set(0, "-inf"),
    "nan wavelength": _set(3, "nan"),
    "inf wavelength": _set(3, "inf"),
}


# Periods of whole microseconds, and periods that are not (3 Hz, 7 Hz and
# 1024 Hz below 1 s; 0.3 Hz above): the writer must refuse what would not
# read back to the same text.
ROUND_TRIP_RATES_HZ = RATES_HZ + (3.0, 7.0, 1024.0, 3000.0, 0.3, 0.7)


@st.composite
def written_traces(draw):
    """Trace sets over the writer's whole input space: any rate, starts
    that put the time field's 10 s width change inside short records,
    negative starts, and wavelengths at the band edges."""
    rate = draw(st.sampled_from(ROUND_TRIP_RATES_HZ) | st.floats(0.2, 5000.0))
    n = draw(st.integers(1, 40))
    t0 = draw(st.sampled_from([0.0, 10.0 - 3.0 / rate, -1.0 / rate, -4e-7, 99.99])
              | st.integers(-10**6, 10**6).map(lambda k: k / 1000.0))
    fibers = draw(st.sampled_from([(0,), (1,), (0, 1)]))
    wavelength = st.sampled_from(BAND_NM) | st.floats(BAND_NM[0], BAND_NM[1])
    traces = []
    for fiber in fibers:
        areas = draw(st.lists(st.sampled_from((0, 1, 2)), min_size=1, max_size=3,
                              unique=True).map(sorted))
        channels = draw(arrays(float, (n, len(areas)), elements=wavelength))
        traces.append(WavelengthTrace(rate, channels, t0=t0,
                                      labels=tuple((fiber, aa) for aa in areas)))
    return traces


@settings(FILE_SETTINGS, max_examples=150)
@given(traces=written_traces())
def test_what_the_writer_accepts_reads_back_to_the_same_bytes(tmp_path, traces):
    path = tmp_path / "t.csv"
    try:
        text = trace_csv_text(traces)
    except ParameterError:
        # Refused: the same text, written without the check, does not
        # read back to itself.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "_reread_problem", lambda times: None)
            path.write_text(trace_csv_text(traces))
        try:
            again = trace_csv_text(parse_trace_csv(path))
        except (ParseError, ParameterError):
            return
        assert again != path.read_text()
        return
    path.write_text(text)
    assert trace_csv_text(parse_trace_csv(path)) == text


@FILE_SETTINGS
@given(traces=trace_sets(), ending=st.sampled_from(["\n", "", "\n\n", "\n\n\n", "\r\n\r\n"]))
def test_writer_output_never_takes_the_line_walk(tmp_path, traces, ending, monkeypatch):
    # Also without the last newline, or with blank lines after the last row.
    def line_walk(path):
        raise AssertionError("the writer's layout reached _scan_rows")
    monkeypatch.setattr(dataio, "_scan_rows", line_walk)
    path = tmp_path / "t.csv"
    text = trace_csv_text(traces)
    lines = text[:-1].split("\n")
    path.write_bytes((("\r\n" if "\r" in ending else "\n").join(lines) + ending).encode())
    assert trace_csv_text(parse_trace_csv(path)) == text


@FILE_SETTINGS
@given(traces=trace_sets(), data=st.data())
def test_crlf_files_parse_like_the_oracle(tmp_path, traces, data):
    # CRLF endings read as LF, so the writer's layout saved with them is
    # read without the line walk, and a bad row is named as the oracle does.
    lines = trace_csv_text(traces).splitlines()
    kind = data.draw(st.sampled_from([None, *sorted(CORRUPTIONS)]), label="kind")
    if kind:
        row = data.draw(st.integers(1, len(lines) - 1), label="row")
        lines[row] = ",".join(CORRUPTIONS[kind](lines[row].split(",")))
    path = tmp_path / "t.csv"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    expected = outcome(line_walk_parse_trace_csv, path)

    def line_walk(path):
        raise AssertionError("a CRLF writer-layout file reached _scan_rows")
    with pytest.MonkeyPatch.context() as patch:
        if kind is None:
            patch.setattr(dataio, "_scan_rows", line_walk)
        assert outcome(parse_trace_csv, path) == expected


# Fields that break one row rule and keep the writer's layout: the same
# width, with digits where the writer prints digits.
WRITER_LAYOUT_BREAKS = {"fiber 2": (1, lambda text: "2"), "area 3": (2, lambda text: "3"),
                        "below band": (3, lambda text: "1500.000000000"),
                        "above band": (3, lambda text: "1600.000000000"),
                        "decreasing time": (0, lambda text: re.sub("[0-9]", "0", text))}


@FILE_SETTINGS
@given(traces=trace_sets(), data=st.data())
def test_a_bad_row_in_the_writer_layout_is_named_without_the_line_walk(
        tmp_path, traces, data, monkeypatch):
    lines = trace_csv_text(traces).splitlines()
    kind = data.draw(st.sampled_from(sorted(WRITER_LAYOUT_BREAKS)), label="kind")
    row = data.draw(st.integers(1, len(lines) - 1), label="row")
    fields = lines[row].split(",")
    if kind == "decreasing time":  # a time of 0 s after a later one
        assume(row > 1 and float(lines[row - 1].split(",")[0]) > 0)
    field, change = WRITER_LAYOUT_BREAKS[kind]
    fields[field] = change(fields[field])
    lines[row] = ",".join(fields)
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines) + "\n")
    expected = outcome(line_walk_parse_trace_csv, path)
    assert expected[:2] == ("error", row + 1)

    def line_walk(path):
        raise AssertionError("a writer-layout file reached _scan_rows")
    monkeypatch.setattr(dataio, "_scan_rows", line_walk)
    assert outcome(parse_trace_csv, path) == expected


def _time_texts(t):
    """Ways a time can be written that float() reads (or, for nan, refuses)."""
    return st.sampled_from([f"{t:.6f}", repr(t), f"{t:+.6f}", f"{t:e}", f"{t:.17g}",
                            f"000{t:.6f}" if t >= 0 else f"-000{-t:.6f}",
                            f" {t:.6f}", f"{t:.6f} ", "nan"])


def _label_texts(v):
    return st.sampled_from([str(v), f"{v}.0", f"-{v}" if v == 0 else str(v), f"0{v}",
                            f" {v}", f"+{v}"])


def _wavelength_texts(w):
    return st.sampled_from([f"{w:.9f}", f"{w:.17g}", f"{w:.16g}", repr(w), f"{w:E}",
                            f"{w:.13f}", f"{w:.15f}", f"  {w:.9f}", f"+{w:.9f}"])


@st.composite
def layout_files(draw):
    """A trace file's text in the writer's layout or one of its neighbours.

    Half the files are in the writer's layout with at most one field of one
    row written another way; the rest draw each field's layout per file and
    vary a row's field one time in ten. Times can cross 10 s and 100 s, be
    negative or print as -0.000000; some files end in CRLF, lack the final
    newline or hold a blank line.
    """
    rate = draw(st.sampled_from([1.0, 250.0, 1000.0]))
    t0 = draw(st.sampled_from([0.0, -4e-7, -0.002, 10.0 - 2.0 / rate,
                               100.0 - 2.0 / rate, 9.999]))
    n = draw(st.integers(1, 8))
    labels = draw(st.lists(st.sampled_from([(0, 0), (0, 1), (1, 2), (1, 0)]),
                           min_size=1, max_size=3, unique=True).map(sorted))
    rows = [(t0 + i / rate, f, aa, draw(st.sampled_from(BAND_NM)
                                         | st.floats(BAND_NM[0], BAND_NM[1])))
            for i in range(n) for f, aa in labels]
    plain = ("{:.6f}".format, str, str, "{:.9f}".format)
    others = (_time_texts, _label_texts, _label_texts, _wavelength_texts)
    if draw(st.booleans()):
        layouts = list(plain)
        odd = {(draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 3)))}
        odd = odd if draw(st.booleans()) else set()
    else:
        layouts = [fmt if draw(st.booleans()) else None for fmt in plain]
        odd = {(r, k) for r in range(len(rows)) for k in range(4)
               if draw(st.integers(0, 9)) == 0}
    lines = [",".join(draw(other(value)) if (r, k) in odd or layout is None
                      else layout(value)
                      for k, (value, layout, other) in enumerate(zip(row, layouts, others)))
             for r, row in enumerate(rows)]
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " "])))
    end = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    text = end.join([TRACE_HEADER] + lines)
    return text + ("" if draw(st.integers(0, 4)) == 0 else end)


@settings(FILE_SETTINGS, max_examples=300)
@given(text=layout_files())
def test_every_layout_parses_like_the_oracle(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    assert outcome(parse_trace_csv, path) == outcome(line_walk_parse_trace_csv, path)


def _lines(*rows, end="\n", last=True):
    return end.join((TRACE_HEADER,) + rows) + (end if last else "")


NAMED_LAYOUTS = {
    "writer, time past 10 s and 100 s": _lines(
        "9.999000,0,0,1535.300000000", "9.999000,0,1,1590.000000000",
        "10.000000,0,0,1535.300000001", "10.000000,0,1,1510.000000000",
        "99.999000,0,0,1535.300000002", "99.999000,0,1,1510.000000000",
        "100.000000,0,0,1535.300000003", "100.000000,0,1,1510.000000000"),
    "negative times": _lines("-0.002000,1,2,1535.3", "-0.001000,1,2,1535.4",
                             "-0.000000,1,2,1535.5", "0.001000,1,2,1535.6"),
    "-0.000000 alone": _lines("-0.000000,0,0,1535.300000000"),
    "one row": _lines("12.345678,1,1,1589.999999999"),
    "leading zeros": _lines("0.000000,0,0,001535.300000000",
                            "00.001000,0,0,1535.300000000"),
    "plus signs": _lines("+0.000000,0,0,1535.3", "0.001000,0,0,+1535.3"),
    "exponents": _lines("0.000000,0,0,1.5353e3", "1e-3,0,0,1535.3"),
    "nan wavelength": _lines("0.000000,0,0,nan", "0.001000,0,0,1535.3"),
    "nan time": _lines("nan,0,0,1535.3"),
    "padding spaces": _lines("0.000000, 0,0,1535.3 ", " 0.001000,0,0,1535.3"),
    "crlf": _lines("0.000000,0,0,1535.3", "0.001000,0,0,1535.4", end="\r\n"),
    "lone cr": _lines("0.000000,0,0,1535.3", "0.001000,0,0,1535.4", end="\r"),
    "cr before crlf": _lines("0.000000,0,0,1535.3", "0.001000,0,0,1535.4", end="\r\r\n"),
    "crlf, then a lone cr": _lines("0.000000,0,0,1535.3", end="\r\n")
    + "0.001000,0,0,1535.4\r0.002000,0,0,1600.0\r",
    "no final newline": _lines("0.000000,0,0,1535.3", "0.001000,0,0,1535.4",
                               last=False),
    "blank lines": _lines("0.000000,0,0,1535.3", "", "0.001000,0,0,1535.4", "  "),
    "label 1.0": _lines("0.000000,1.0,0,1535.3"),
    "label -0": _lines("0.000000,-0,0,1535.3", "0.001000,0,-0,1535.3"),
    "label 01": _lines("0.000000,01,02,1535.3", "0.001000,01,02,1535.3"),
    "16-digit mantissa": _lines("0.000000,0,0,1576.280060726923",
                                "0.001000,0,0,1520.139864215034"),
    "17-digit mantissa": _lines("0.000000,0,0,1547.5790189238428",
                                "0.001000,0,0,1530.4650087858347"),
    "17-digit time": _lines("0.0000000000000001,0,0,1535.3",
                            "1.0000000000000001,0,0,1535.3"),
    "15-digit fields": _lines("0.00000000000000,0,0,1535.30000000001",
                              "0.00100000000000,0,0,1535.30000000002"),
    "sign in a digit column": _lines("10.000000,0,0,1535.3", "-1.000000,0,0,1535.3"),
    "400-digit fiber": _lines("0.000000,1" + "0" * 399 + ",0,1535.3"),
    "10**30 area": _lines(f"0.000000,0,{10**30},1535.3"),
    "bad row, then a malformed line": _lines("0.000000,0,0,1600.0", "x,0,0,1535.3"),
    "malformed line, then a bad row": _lines("0.000000,0,0,1535.3,0", "0.001000,2,0,1535.3"),
}


@pytest.mark.parametrize("name", sorted(NAMED_LAYOUTS))
def test_named_layouts_parse_like_the_oracle(tmp_path, name):
    path = tmp_path / "t.csv"
    path.write_bytes(NAMED_LAYOUTS[name].encode())
    assert outcome(parse_trace_csv, path) == outcome(line_walk_parse_trace_csv, path)


@FILE_SETTINGS
@given(traces=trace_sets(), data=st.data())
def test_corrupted_row_reports_the_oracle_line(tmp_path, traces, data):
    lines = trace_csv_text(traces).splitlines()
    row = data.draw(st.integers(1, len(lines) - 1), label="row")
    kind = data.draw(st.sampled_from(sorted(CORRUPTIONS)), label="kind")
    lines[row] = ",".join(CORRUPTIONS[kind](lines[row].split(",")))
    # Blank lines shift line numbers and send the bulk parser to its slow path.
    for _ in range(data.draw(st.integers(0, 2), label="blank lines")):
        at = data.draw(st.integers(1, len(lines)), label="blank at")
        lines.insert(at, data.draw(st.sampled_from(["", "  "]), label="blank"))
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines) + "\n")
    expected = outcome(line_walk_parse_trace_csv, path)
    assert expected[0] == "error" or kind == "decreasing time"
    assert outcome(parse_trace_csv, path) == expected


finite_or_not = st.floats(allow_nan=True, allow_infinity=True, width=64)


@settings(deadline=None)
@given(columns=st.integers(0, 40).flatmap(
    lambda n: st.tuples(*[arrays(float, n, elements=finite_or_not)] * 3)))
def test_csv_text_matches_per_row_formatting(columns):
    rows = [f"{a:.6f},{b:.9f},{c:.9g}" for a, b, c in zip(*columns)]
    expected = "\n".join(["h"] + rows) + "\n"
    assert csv_text("h", "{:.6f},{:.9f},{:.9g}\n", columns) == expected


@pytest.mark.parametrize("n", [CHUNK_ROWS - 1, CHUNK_ROWS, 2 * CHUNK_ROWS + 1])
def test_writers_across_chunk_boundaries(n):
    rng = np.random.default_rng(n)
    times = 12.5 + np.arange(n) / 1000.0
    tips = rng.normal(0.0, 20.0, (n, 2))
    # Lists of lines: a wrong row is reported at once, not after a string diff.
    expected = ["time_s,tip_x_mm,tip_z_mm"] + [
        f"{t:.6f},{x:.9f},{z:.9f}" for t, (x, z) in zip(times, tips)]
    assert tips_csv_text(times, tips).split("\n") == expected + [""]

    freqs, mags = times, np.abs(tips[:, 0])
    expected = ["frequency_hz,magnitude_nm"] + [
        f"{f:.9f},{m:.9g}" for f, m in zip(freqs, mags)]
    assert spectrum_rows(freqs, mags).split("\n") == expected + [""]


def _near(value):
    """value and its neighbouring doubles, both signs."""
    below, above = np.nextafter(value, 0.0), np.nextafter(value, np.inf)
    return st.sampled_from([below, value, above]).map(float) | \
        st.sampled_from([-below, -value, -above]).map(float)


def fixed_point_values(decimals):
    """Doubles that stress '{:.Nf}': ties, signed zeros, the 2**52 edge."""
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.floats(-1e6, 1e6),
        st.builds(lambda j, k: j / 2.0 ** k, st.integers(-2**40, 2**40),
                  st.integers(0, 60)),  # dyadic: exact half-way cases
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
        _near(2.0 ** 52 / 10.0 ** decimals),
    )


@settings(deadline=None, max_examples=300)
@given(rows=st.lists(st.tuples(
           fixed_point_values(6) | st.sampled_from([np.nan, np.inf, -np.inf]),
           fixed_point_values(9)), max_size=40),
       chunk_rows=st.integers(1, 8))
def test_fixed_point_rows_match_per_row_formatting(rows, chunk_rows):
    # Small chunks mix rows formatted as arrays with chunks a non-finite
    # value sends to str.format.
    columns = [np.array([r[i] for r in rows], dtype=float) for i in range(2)]
    expected = "".join(["h\n"] + [f"{a:.6f},{b:.9f}\n" for a, b in rows])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "CHUNK_ROWS", chunk_rows)
        assert csv_text("h", "{:.6f},{:.9f}\n", columns) == expected


@pytest.mark.parametrize("decimals", range(16))
def test_fixed_point_rows_at_every_precision(decimals):
    rng = np.random.default_rng(decimals)
    scale = 2.0 ** 52 / 10.0 ** decimals
    values = np.concatenate([
        rng.integers(-2**30, 2**30, 3000) / 2.0 ** rng.integers(0, 40, 3000),
        rng.uniform(-1.0, 1.0, 3000) * scale,
        rng.normal(0.0, 1.0, 3000) * 10.0 ** rng.integers(-20, 10, 3000),
        [0.0, -0.0, scale, -scale, np.nextafter(scale, 0.0), 0.5, 1.5, 2.5],
    ])
    template = f"{{0:.{decimals}f}};{{0:.{decimals}f}}|\n"
    expected = ["h"] + [template.format(v)[:-1] for v in values.tolist()]
    assert csv_text("h", template, [values]).split("\n") == expected + [""]


def _digit_edges(decimals):
    """Named groups of values where a digit-at-a-time writer can go wrong."""
    def both_signs(values):
        values = np.asarray(values, dtype=float)
        return np.concatenate([values, -values])
    powers = 10.0 ** np.arange(-decimals - 1, 16 - decimals)  # every whole width
    half = 0.5 / 10.0 ** decimals
    # m / 2**(decimals + 1) for odd m is half-way at `decimals` places;
    # the largest m keep |v| * 10**decimals below 2**52.
    top = 2 ** 53 // 5 ** decimals - 1 | 1
    odd = np.concatenate([np.arange(1, 1000, 2), np.arange(top - 1000, top + 1, 2)])
    return {
        "powers of ten": both_signs(np.concatenate(
            [np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])),
        "round into a new digit": both_signs(powers - 0.8 * half),
        "zeros": both_signs([0.0, 5e-324, 1e-300, 0.8 * half, half / 3.0]),
        "ties": both_signs(odd / 2.0 ** (decimals + 1)),
    }


@pytest.mark.parametrize("decimals", range(16))
def test_digit_writer_edges_match_str_format(decimals):
    # Each group alone, then all in one chunk, where the widest row sets
    # the width every other row is padded to and its padding dropped.
    groups = _digit_edges(decimals)
    assert decimals != 9 or 9.9999999996 in groups["round into a new digit"]
    template = f"{{:.{decimals}f}}\n"
    for values in [*groups.values(), np.concatenate(list(groups.values()))]:
        assert values.size <= CHUNK_ROWS  # one chunk, written as arrays
        assert dataio._fixed_rows(dataio._fixed_template(template, 1), [values])
        expected = ["h"] + [template.format(v)[:-1] for v in values.tolist()]
        assert csv_text("h", template, [values]).split("\n") == expected + [""]


def g_values(digits):
    """Doubles that stress '{:.Ng}': every exponent (subnormals and signed
    zeros too), e-notation mantissas, values that round up into the next
    decade, and |v| * 10**k that are half-way as float64 products."""
    def round_up(e):  # half an N-digit ulp below 10**(e + 1), and a tenth of one
        return [float(f"{'9' * n}5e{e - n}") for n in (digits, digits + 1)]
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.floats(1e-22, 1e-5) | st.floats(-1e-5, -1e-22),
        st.integers(-23, 1).flatmap(lambda e: st.sampled_from(round_up(e)).flatmap(_near)),
        st.builds(lambda j, shift: (j + 0.5) / 10.0 ** shift,
                  st.integers(10 ** (digits - 1), 10 ** digits - 1), st.integers(digits + 4, 22)),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 12345678950.0]),
    )


@settings(deadline=None, max_examples=300)
@given(data=st.data(), digits=st.integers(1, 15), other=st.integers(1, 15),
       decimals=st.integers(0, 15), chunk_rows=st.integers(1, 8))
def test_g_rows_match_per_row_formatting(data, digits, other, decimals, chunk_rows):
    # Small chunks mix rows formatted as arrays with chunks sent to str.format.
    rows = data.draw(st.lists(st.tuples(g_values(digits), fixed_point_values(decimals)),
                              max_size=30), label="rows")
    template = f"{{0:.{digits}g}},{{1:.{decimals}f}};{{0:.{other}g}}\n"
    columns = [np.array([r[i] for r in rows], dtype=float) for i in range(2)]
    expected = "".join(["h\n"] + [template.format(*row) for row in rows])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "CHUNK_ROWS", chunk_rows)
        assert csv_text("h", template, columns) == expected


@pytest.mark.parametrize("value", [9.9999999995e-05, 12345678950.0, 9.999999995e-06])
@pytest.mark.parametrize("step", [-2, -1, 0, 1, 2])
def test_g_round_ups_and_half_ways_match_str_format(value, step):
    for _ in range(abs(step)):
        value = float(np.nextafter(value, np.inf if step > 0 else 0.0))
    for digits in range(1, 16):
        template = f"{{:.{digits}g}}\n"
        expected = "h\n" + template.format(value) + template.format(-value)
        assert csv_text("h", template, [np.array([value, -value])]) == expected


def _g_edges(digits):
    """Named groups of e-notation values the '{:.Ng}' array path writes."""
    rng = np.random.default_rng(digits)
    exponents = np.arange(digits - 23, -4)  # every exponent it takes
    def both_signs(values):
        values = np.asarray(values, dtype=float).ravel()
        return np.concatenate([values, -values])
    # Inside the range, with the next decade in e-notation too.
    powers = 10.0 ** exponents[1:-1]
    # N-digit mantissas, 0.2 or 0.7 from a rounding tie and from 10**N.
    mantissas = (rng.integers(10 ** (digits - 1), 10 ** digits - 1, (40, exponents.size))
                 + rng.choice([0.2, 0.7], (40, exponents.size)))
    return {
        "every exponent": both_signs(mantissas / 10.0 ** (digits - 1 - exponents)),
        "powers of ten": both_signs(np.concatenate(
            [np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])),
        "round into a new decade": both_signs(10.0 * powers * (1.0 - 0.2 / 10.0 ** digits)),
        "trailing zeros": both_signs(np.outer([1.0, 1.2, 3.04, 9.0, 1.000001], powers)),
        # |v| * 10**(N + 4) half-way as a double: str.format rounds each.
        "half-way products": both_signs(
            (rng.integers(10 ** (digits - 1), 9 * 10 ** (digits - 1), 40) + 0.5)
            / 10.0 ** (digits + 4)),
    }


@pytest.mark.parametrize("digits", range(1, 16))
def test_g_writer_edges_take_the_array_path_and_match_str_format(digits):
    groups = _g_edges(digits)
    template = f"{{:.{digits}g}}\n"
    for values in [*groups.values(), np.concatenate(list(groups.values()))]:
        assert values.size <= CHUNK_ROWS  # one chunk, written as arrays
        assert dataio._fixed_rows(dataio._fixed_template(template, 1), [values])
        expected = ["h"] + [template.format(v)[:-1] for v in values.tolist()]
        assert csv_text("h", template, [values]).split("\n") == expected + [""]


def _instants(lines):
    """Data lines grouped by their time field, in file order."""
    groups = []
    for line in lines:
        if groups and groups[-1][0].split(",")[0] == line.split(",")[0]:
            groups[-1].append(line)
        else:
            groups.append([line])
    return groups


@FILE_SETTINGS
@given(traces=trace_sets(), data=st.data())
def test_rows_in_any_label_order_parse_like_the_oracle(tmp_path, traces, data):
    header, *lines = trace_csv_text(traces).splitlines()
    shuffled = [row for group in _instants(lines)
                for row in data.draw(st.permutations(group), label="instant")]
    if data.draw(st.booleans(), label="drop a row"):
        del shuffled[data.draw(st.integers(0, len(shuffled) - 1), label="row")]
    path = tmp_path / "t.csv"
    path.write_text("\n".join([header] + shuffled) + "\n")
    expected = outcome(line_walk_parse_trace_csv, path)
    assert outcome(parse_trace_csv, path) == expected
    if len(shuffled) == len(lines):  # the label order changes nothing
        path.write_text(trace_csv_text(traces))
        assert outcome(parse_trace_csv, path) == expected


@pytest.mark.parametrize("template", [
    "{:.2f} µm\n", "{0:.3f},{1!r}\n", "{:>9.2f}\n", "{0.real:.2f}\n", "{:.2e},{:.0f}\n",
    "{:.16f}\n", "{1:.1f}{0:.1f}\n", "no fields\n",
])
def test_other_templates_format_like_str_format(template):
    values = np.array([0.125, -2.5, 1535.3, -0.0, 1e17, 3.0])
    columns = [values, values[::-1]]
    expected = "".join(["h\n"] + [template.format(*row) for row in
                                  zip(*(c.tolist() for c in columns))])
    assert csv_text("h", template, columns) == expected


#: Template pieces: fields of the array writer's form (some out of its
#: range), text it prints, and fields and text only str.format takes or refuses.
TEMPLATE_PIECES = st.one_of(
    st.sampled_from(["{:.6f}", "{0:.9f}", "{1:.3g}", "{:.3g}", "{:.0g}", "{:.16f}", "{2:.1f}",
                     "{00:.2f}", "{:.015g}"]),
    st.sampled_from([",", ":", "\n", "x"]),
    st.sampled_from(["{!r:.3f}", "{:>9.2f}", "{:.3e}", "{0}", "{}", "{{", "}}", "{", "}", "é",
                     "\0"]))


@settings(max_examples=400, deadline=None)
@given(template=st.lists(TEMPLATE_PIECES, max_size=6).map("".join), n_rows=st.integers(0, 3),
       small=st.booleans())
@example(template="{:.6f},{0:.9f}\n", n_rows=1, small=False)
@example(template="{:.0g}\n", n_rows=1, small=True)
@example(template="{0:.16f},{1:.0g}\n", n_rows=3, small=True)
def test_csv_text_formats_any_template_as_str_format_does(template, n_rows, small):
    # Small values take the e-notation array path of "{:.Ng}" too.
    values = ([3e-7, -1.5e-9, 2.5e-12, 7e-6, -9.99e-5, 1e-20] if small
              else [0.125, -2.5, 1535.3, -0.0, 3e-7, 12345678950.0])
    columns = [np.array(values[:n_rows]), np.array(values[::-1][:n_rows])]
    try:
        expected = "".join(["h\n"] + [template.format(*row) for row in
                                      zip(*(c.tolist() for c in columns))])
    except Exception as exc:  # the same type and message
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            csv_text("h", template, columns)
    else:
        assert csv_text("h", template, columns) == expected


@pytest.mark.parametrize("byte", [None, "/", ":", "-", "x", " "])
def test_every_block_of_a_long_file_is_checked(tmp_path, byte):
    # 12000 lines in runs of two widths (the time passes 10 s) and many
    # read blocks; the last wavelength digit of a late line is changed, so
    # a block left unchecked would read a wrong value within the band.
    rng = np.random.default_rng(5)
    trace = WavelengthTrace(50.0, rng.uniform(1520.0, 1560.0, (4000, 3)), t0=9.0)
    text = trace_csv_text(trace)
    if byte is not None:
        at = text.rindex("\n", 0, len(text) - 1000) - 1
        text = text[:at] + byte + text[at + 1:]
    path = tmp_path / "t.csv"
    path.write_text(text)
    expected = outcome(line_walk_parse_trace_csv, path)
    assert expected[0] == ("error" if byte in ("/", ":", "-", "x") else "ok")
    assert outcome(parse_trace_csv, path) == expected


def _edge_trace_lines():
    """Lines of a 12 s, 1 kHz, three-area trace: the time field widens at
    10 s, after 30000 lines of 28 bytes, and the next line opens a run of
    29-byte lines."""
    rng = np.random.default_rng(11)
    lines = trace_csv_text(WavelengthTrace(1000.0, rng.uniform(1520.0, 1560.0, (12000, 3))))
    return lines.splitlines(keepends=True)


#: (line index in the text, field, position within the field) of each edge.
READER_EDGES = {"last line of a run's partial block": (30000, 3, -1),
                "first line after the time widens": (30001, 3, -1),
                "fiber column": (20000, 1, 0), "area column": (30002, 2, 0)}


@pytest.mark.parametrize("byte", ["2", "3", "x", ":", "/", "-"])
@pytest.mark.parametrize("edge", sorted(READER_EDGES))
def test_a_bad_byte_at_a_reader_edge_is_named_at_the_oracle_line(tmp_path, edge, byte):
    lines = _edge_trace_lines()
    step = dataio._BLOCK_BYTES // len(lines[-1])  # lines a read block holds
    assert len(lines[1]) == 28 and len(lines[30001]) == 29 and 30000 % step
    assert 30000 // step * step < READER_EDGES["last line of a run's partial block"][0]
    index, field, at = READER_EDGES[edge]
    fields = lines[index].rstrip("\n").split(",")
    fields[field] = fields[field][:at % len(fields[field])] + byte + (
        fields[field][at % len(fields[field]) + 1:])
    lines[index] = ",".join(fields) + "\n"
    path = tmp_path / "t.csv"
    path.write_text("".join(lines))
    expected = outcome(line_walk_parse_trace_csv, path)
    if byte in "23" and field == 3:  # a wavelength digit keeps every rule
        assert expected[0] == "ok"
    elif (byte, field) == ("2", 2):  # area 2 twice at one instant, no area 1
        assert expected[:2] == ("error", None)
    else:
        assert expected[:2] == ("error", index + 1)
    assert outcome(parse_trace_csv, path) == expected


#: How a file prints the labels: on every row, or ("area 1 ...") on area 1's rows only.
WIDE_LABELS = {"both": "0{f},0{a}", "fiber": "0{f},{a}", "area": "{f},00{a}",
               "area 1 only": "{f},0{a}", "area 1 as 10": "{f},{a}0"}


@pytest.mark.parametrize("kind", sorted(WIDE_LABELS))
def test_labels_of_more_than_one_digit_parse_like_the_oracle(tmp_path, kind):
    lines = _edge_trace_lines()[:40]
    plain = tmp_path / "plain.csv"
    plain.write_text("".join(lines))
    for i, line in enumerate(lines[1:], start=1):
        t, fiber, aa, wl = line.split(",")
        labels = WIDE_LABELS[kind] if aa == "1" or "area 1" not in kind else "{f},{a}"
        lines[i] = ",".join((t, labels.format(f=fiber, a=aa), wl))
    path = tmp_path / "t.csv"
    path.write_text("".join(lines))
    expected = outcome(line_walk_parse_trace_csv, path)
    assert outcome(parse_trace_csv, path) == expected
    assert expected == (("error", 3, "line 3: aa must be 0, 1, or 2, got 10")
                        if kind == "area 1 as 10" else outcome(parse_trace_csv, plain))


@settings(deadline=None, max_examples=300)
@given(values=st.lists(st.floats(-1e300, 1e300)
                       | st.sampled_from([1e-3, 0.001000000001, 0.0, -0.0]),
                       min_size=1, max_size=60))
def test_median_is_numpys(values):
    x = np.array(values)
    assert dataio._median(x).hex() == float(np.median(x)).hex()

"""Property tests: bulk trace CSV reading and writing against line-by-line forms.

The reference reader is `oracles.line_walk_parse_trace_csv`; the reference
writer is one f-string per row, as the CSV writers were first written.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fbgvib import ParseError, WavelengthTrace, dataio
from fbgvib.dataio import (CHUNK_ROWS, csv_text, parse_trace_csv, tips_csv_text,
                           trace_csv_text)
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
    """What a parser makes of a file: its traces, or its error and line."""
    try:
        traces = parse(path)
    except ParseError as exc:
        return ("error", exc.line, str(exc))
    return ("ok", [(t.sample_rate_hz, t.t0, t.labels, t.channels.tolist())
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
    expected = ["time_s,tip_x_mm,tip_z_mm"] + [
        f"{t:.6f},{x:.9f},{z:.9f}" for t, (x, z) in zip(times, tips)]
    assert tips_csv_text(times, tips) == "\n".join(expected) + "\n"

    freqs, mags = times, np.abs(tips[:, 0])
    expected = ["frequency_hz,magnitude_nm"] + [
        f"{f:.9f},{m:.9g}" for f, m in zip(freqs, mags)]
    assert spectrum_rows(freqs, mags) == "\n".join(expected) + "\n"


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
    expected = "".join(["h\n"] + [template.format(v) for v in values.tolist()])
    assert csv_text("h", template, [values]) == expected


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

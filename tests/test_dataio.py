import os
import tracemalloc

import numpy as np
import pytest

from fbgvib import (DataError, ParameterError, ParseError, Scenario, WavelengthTrace, dataio,
                    simulate)
from fbgvib.dataio import (CONFIG_KEYS, TRACE_HEADER, atomic_write_text, csv_text,
                           parse_config, parse_trace_csv, tips_csv_text, trace_csv_text,
                           write_trace_csv)


def test_minimal_single_instant_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("time_s,fiber,aa,wavelength_nm\n"
                    "0.000000,0,0,1535.300000000\n"
                    "0.000000,0,1,1535.300000000\n"
                    "0.000000,0,2,1535.300000000\n")
    traces = parse_trace_csv(path)
    assert len(traces) == 1
    assert traces[0].n_samples == 1
    assert np.all(traces[0].channels == 1535.3)


def test_write_parse_round_trip(tmp_path, params):
    trace = simulate(Scenario(rpm=120.0, duration_s=2.0), params, seed=1)
    path = tmp_path / "t.csv"
    write_trace_csv(path, trace)
    back = parse_trace_csv(path)[0]
    assert back.sample_rate_hz == pytest.approx(1000.0, rel=1e-9)
    assert back.channels.shape == trace.channels.shape
    assert np.max(np.abs(back.channels - trace.channels)) <= 1e-9


def test_parsed_channels_are_contiguous(tmp_path, params):
    trace = simulate(Scenario(rpm=120.0, duration_s=2.0), params, seed=1)
    path = tmp_path / "t.csv"
    write_trace_csv(path, [trace, WavelengthTrace(1000.0, trace.channels[:, :2],
                                                  labels=((1, 0), (1, 2)))])
    fibers = parse_trace_csv(path)
    assert [t.channels.shape for t in fibers] == [(2000, 3), (2000, 2)]
    assert all(t.channel(i).flags.c_contiguous
               for t in fibers for i in range(len(t.labels)))


def test_parse_holds_the_file_and_two_float_columns_at_most(tmp_path):
    # numpy reports its buffers to tracemalloc. Time and wavelength are the
    # only float64 columns, and a label is one byte: the file's bytes and
    # about 20 bytes a row at the peak, where four float64 columns took 33.
    rng = np.random.default_rng(3)
    path = tmp_path / "t.csv"
    write_trace_csv(path, WavelengthTrace(1000.0, rng.uniform(1520.0, 1560.0, (150_000, 3))))
    rows = 450_000
    tracemalloc.start()
    try:
        trace = parse_trace_csv(path)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.channels.shape == (150_000, 3)
    assert peak <= os.path.getsize(path) + 3 * 8 * rows


def test_out_of_band_wavelength_names_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("time_s,fiber,aa,wavelength_nm\n"
                    "0.000000,0,0,1535.3\n"
                    "0.001000,0,0,1499.0\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_trace_csv(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("time,fiber,aa,wl\n0,0,0,1535.3\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_trace_csv(path)


@pytest.mark.parametrize("text,message", [
    ("", "line 1: empty file"), ("\n\n", "line 1: expected header"),
    (TRACE_HEADER, "line 2: file holds no samples"),
    (TRACE_HEADER + "\n\n\n", "line 2: file holds no samples")])
def test_empty_file_rejected(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^{message}"):
        parse_trace_csv(path)


def test_nonuniform_rate_rejected(tmp_path):
    rows = ["time_s,fiber,aa,wavelength_nm"]
    times = [0.0, 0.001, 0.002, 0.0035, 0.0045]  # one long gap
    for t in times:
        rows.append(f"{t:.6f},0,0,1535.3")
    path = tmp_path / "t.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ParseError, match="1 ppm"):
        parse_trace_csv(path)


def test_decreasing_time_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("time_s,fiber,aa,wavelength_nm\n"
                    "0.001000,0,0,1535.3\n"
                    "0.000000,0,0,1535.3\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_trace_csv(path)


@pytest.mark.parametrize("time", ["inf", "nan", "-inf"])
def test_non_finite_time_rejected(tmp_path, time):
    path = tmp_path / "t.csv"
    path.write_text("time_s,fiber,aa,wavelength_nm\n"
                    + "".join(f"{time},0,{aa},1535.3\n" for aa in range(3)))
    with pytest.raises(ParseError, match="line 2: time must be finite"):
        parse_trace_csv(path)


def test_whitespace_only_lines_are_skipped(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("time_s,fiber,aa,wavelength_nm\n"
                    "0.000000,0,0,1535.3\n"
                    "   \n"
                    "0.001000,0,0,1535.4\n")
    trace, = parse_trace_csv(path)
    assert trace.sample_rate_hz == pytest.approx(1000.0)
    assert trace.channel(0).tolist() == [1535.3, 1535.4]


def test_bad_fiber_and_aa_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("time_s,fiber,aa,wavelength_nm\n0.0,7,0,1535.3\n")
    with pytest.raises(ParseError, match="fiber"):
        parse_trace_csv(path)
    path.write_text("time_s,fiber,aa,wavelength_nm\n0.0,0,5,1535.3\n")
    with pytest.raises(ParseError, match="aa"):
        parse_trace_csv(path)


def test_two_fibers_split_into_traces(tmp_path):
    rows = ["time_s,fiber,aa,wavelength_nm"]
    for n in range(4):
        t = n * 0.001
        for fiber in (0, 1):
            for aa in (0, 1, 2):
                rows.append(f"{t:.6f},{fiber},{aa},{1535.3 + 0.01 * fiber:.9f}")
    path = tmp_path / "t.csv"
    path.write_text("\n".join(rows) + "\n")
    traces = parse_trace_csv(path)
    assert len(traces) == 2
    assert traces[0].labels == ((0, 0), (0, 1), (0, 2))
    assert traces[1].labels == ((1, 0), (1, 1), (1, 2))
    assert np.all(traces[1].channels == 1535.31)


def test_multi_trace_text_interleaves(params):
    trace0 = simulate(Scenario(rpm=0.0, duration_s=0.01, noise_sigma_nm=0.0),
                      params, seed=0)
    trace1 = WavelengthTrace(sample_rate_hz=1000.0,
                             channels=trace0.channels + 0.01,
                             labels=((1, 0), (1, 1), (1, 2)))
    text = trace_csv_text([trace0, trace1])
    lines = text.strip().split("\n")
    assert len(lines) == 1 + 10 * 6
    assert lines[1].split(",")[1] == "0" and lines[4].split(",")[1] == "1"


def test_config_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n"
                    "tool_velocity_rpm = 240\n"
                    "duration_s = 10\n"
                    "seed = 7\n")
    config = parse_config(path)
    assert config == {"tool_velocity_rpm": 240.0, "duration_s": 10.0, "seed": 7}


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("rpm = 240\n")  # missing unit suffix, not a known key
    with pytest.raises(ParameterError, match="unknown config key"):
        parse_config(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", sorted(k for k, kind in CONFIG_KEYS.items() if kind is float))
def test_non_finite_config_value_names_its_line(tmp_path, key, value):
    path = tmp_path / "run.cfg"
    path.write_text(f"# comment\n{key} = {value}\n")
    with pytest.raises(ParseError, match=f"line 2: {key} must be finite"):
        parse_config(path)


def test_malformed_config_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("duration_s 10\n")
    with pytest.raises(ParseError):
        parse_config(path)


@pytest.mark.parametrize("change", [
    {"channels": [[1535.3], [float("nan")]]},
    {"channels": [[1535.3], [float("inf")]]},
    {"channels": [[1535.3], [1600.0]]},
    {"channels": [[1509.0], [1535.3]]},
    {"t0": float("nan")},
    {"t0": float("inf")},
    {"labels": ((2, 0),)},
    {"labels": ((0, 3),)},
])
def test_writer_rejects_what_the_reader_rejects(tmp_path, change):
    fields = {"sample_rate_hz": 1000.0, "channels": [[1535.3], [1535.4]],
              "t0": 0.0, "labels": ((0, 0),)}
    fields.update(change)
    fields["channels"] = np.array(fields["channels"])
    path = tmp_path / "t.csv"
    with pytest.raises(ParameterError):
        write_trace_csv(path, WavelengthTrace(**fields))
    assert not path.exists()


@pytest.mark.parametrize("change,message", [
    ({"labels": ((0, 3),)}, "area 3 of fiber 0, sample 0: aa must be 0, 1, or 2, got 3"),
    ({"channels": [[1535.3], [1600.0]]},
     "area 0 of fiber 0, sample 1: wavelength 1600.0 nm outside the band (1510.0, 1590.0)"),
    ({"t0": float("inf")}, "area 0 of fiber 0, sample 0: time must be finite, got inf"),
])
def test_writer_names_the_rule_the_sample_breaks(change, message):
    fields = {"sample_rate_hz": 1000.0, "channels": [[1535.3], [1535.4]],
              "t0": 0.0, "labels": ((0, 0),)}
    fields.update(change)
    fields["channels"] = np.array(fields["channels"])
    with pytest.raises(ParameterError) as info:
        trace_csv_text(WavelengthTrace(**fields))
    assert str(info.value) == message


def test_a_trace_needs_a_channel():
    with pytest.raises(DataError):
        WavelengthTrace(1000.0, np.empty((5, 0)), labels=())


@pytest.mark.parametrize("write", [
    lambda: tips_csv_text(np.arange(3.0), np.zeros((2, 2))),
    lambda: csv_text("h", "{:.3f},{:.3f}\n", (np.zeros(3), np.ones(5))),
    lambda: csv_text("h", "{:.3f},{:.3f}\n", (np.zeros(2), np.ones((2, 1)))),
    lambda: csv_text("h", "{:.3f}\n", []),
])
def test_csv_columns_of_other_shapes_are_refused(write):
    # Rows past the shortest column used to be dropped without a word.
    with pytest.raises(DataError, match="1-D and of equal length"):
        write()


@pytest.mark.parametrize("rate,t0,n,problem", [
    (3.0, 0.0, 40, "fail the reader's check"), (7.0, 0.0, 40, "fail the reader's check"),
    (1024.0, 0.0, 40, "fail the reader's check"), (0.3, 0.0, 40, "read back as other times"),
    (1000.0, -4e-7, 40, "read back as other times"),
    (1000.0, -4e-7, 1, "read back as other times"),
])
def test_writer_refuses_times_that_do_not_read_back(tmp_path, rate, t0, n, problem):
    # Six-decimal times: 3 Hz prints 0.333333 then 0.333334 s steps (3 ppm
    # apart); 0.3 Hz passes the 1 ppm rule but reads back at 1/3.333333 Hz;
    # a start of -0.000000 reads back as -0.0, and -0.0 + 0.0 prints 0.000000.
    trace = WavelengthTrace(rate, np.full((n, 1), 1535.3), t0=t0, labels=((0, 0),))
    path = tmp_path / "t.csv"
    with pytest.raises(ParameterError, match=problem):
        write_trace_csv(path, trace)
    assert not path.exists()


@pytest.mark.parametrize("rate", [250.0, 1000.0])
def test_whole_microsecond_periods_write_as_before(tmp_path, rate):
    rng = np.random.default_rng(int(rate))
    channels = 1535.3 + rng.normal(0.0, 0.1, (3000, 3))
    trace = WavelengthTrace(rate, channels, t0=8.0)
    expected = ["time_s,fiber,aa,wavelength_nm"] + [
        f"{t:.6f},0,{aa},{w:.9f}" for t, row in zip(trace.times(), channels)
        for aa, w in enumerate(row)]
    assert trace_csv_text(trace) == "\n".join(expected) + "\n"


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("bad", [False, True])
def test_a_trace_from_a_pipe_is_read_once(bad):
    # A pipe holds its bytes once: the line walk works on what was read.
    text = ("time_s,fiber,aa,wavelength_nm\n0.000000,0,0,1535.300000000\n"
            f"0.001000,0,0,{'15x5.3' if bad else '1535.300000000'}\n")
    read, write = os.pipe()
    try:
        os.write(write, text.encode())
        os.close(write)
        if bad:
            with pytest.raises(ParseError, match="line 3: malformed row"):
                parse_trace_csv(f"/dev/fd/{read}")
        else:
            assert parse_trace_csv(f"/dev/fd/{read}")[0].n_samples == 2
    finally:
        os.close(read)


@pytest.mark.parametrize("slice_chars", [1, 7, 1 << 20])
def test_atomic_write_in_slices_keeps_every_byte(tmp_path, monkeypatch, slice_chars):
    monkeypatch.setattr(dataio, "_WRITE_CHARS", slice_chars)
    text = "".join(f"{i},{i * 0.5:.3f}\n" for i in range(500))
    path = tmp_path / "out.txt"
    atomic_write_text(path, text)
    assert path.read_bytes() == text.encode()
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

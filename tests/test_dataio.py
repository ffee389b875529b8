import numpy as np
import pytest

from fbgvib import ParameterError, ParseError, Scenario, WavelengthTrace, simulate
from fbgvib.dataio import (parse_config, parse_trace_csv, trace_csv_text,
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


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("")
    with pytest.raises(ParseError):
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

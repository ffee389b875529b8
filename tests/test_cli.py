import argparse
import errno
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fbgvib import (WavelengthTrace, dataio, events, filtering, shape, spectral, sweep,
                    vib_model)
from fbgvib.cli import build_parser, main
from fbgvib.dataio import CONFIG_KEYS, parse_trace_csv, tips_csv_text, write_trace_csv


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_simulate_then_analyze_reports_4hz(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    status, _, _ = run(capsys, "simulate", "--rpm", "240", "--duration", "10",
                       "--out", str(trace))
    assert status == 0
    status, out, _ = run(capsys, "analyze", str(trace), "--rpm-hint", "240")
    assert status == 0
    line = [ln for ln in out.splitlines() if ln.startswith("fundamental_hz=")][0]
    assert float(line.split("=")[1]) == pytest.approx(4.0, abs=0.1)


def test_unknown_flag_is_usage_error(capsys):
    status, _, err = run(capsys, "simulate", "--frequency", "10", "--out", "x.csv")
    assert status == 2
    assert err.strip() and len(err.strip().splitlines()) == 1


def test_out_naming_a_directory_names_only_the_directory(tmp_path, capsys):
    target = tmp_path / "d"
    target.mkdir()
    status, _, err = run(capsys, "simulate", "--rpm", "120", "--duration", "2",
                         "--out", str(target))
    assert status == 2
    reason = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}"
    assert err.splitlines() == [f"error: {reason}: {str(target)!r}"]
    assert [p.name for p in tmp_path.iterdir()] == ["d"]


def test_missing_input_is_usage_error(tmp_path, capsys):
    status, _, err = run(capsys, "analyze", str(tmp_path / "missing.csv"))
    assert status == 2
    assert len(err.strip().splitlines()) == 1


def test_empty_file_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    status, _, err = run(capsys, "analyze", str(empty))
    assert status == 2
    assert len(err.strip().splitlines()) == 1


def test_simulate_deterministic_outputs(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        status, _, _ = run(capsys, "simulate", "--rpm", "120", "--duration", "3",
                           "--seed", "11", "--bend",
                           "pull=2,release=1,cable_speed=0.1", "--out", str(path))
        assert status == 0
    assert a.read_bytes() == b.read_bytes()


def test_filter_pipeline_attenuates_fundamental(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    filtered = tmp_path / "f.csv"
    specfile = tmp_path / "cascade.txt"
    run(capsys, "simulate", "--rpm", "120", "--duration", "20", "--noise", "0",
        "--out", str(trace))
    status, _, _ = run(capsys, "filter", str(trace), "--rpm", "120",
                       "--save-spec", str(specfile), "--out", str(filtered))
    assert status == 0
    raw = parse_trace_csv(trace)[0].channel(0)
    cln = parse_trace_csv(filtered)[0].channel(0)
    assert np.ptp(cln[5000:15000]) < 0.05 * np.ptp(raw[5000:15000])
    assert len(specfile.read_text().strip().splitlines()) == 3


def test_filter_requires_fundamental(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    run(capsys, "simulate", "--rpm", "120", "--duration", "5", "--out", str(trace))
    status, _, err = run(capsys, "filter", str(trace), "--out",
                         str(tmp_path / "f.csv"))
    assert status == 2 and "fundamental" in err


def test_shape_outputs_polyline_and_tips(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    poly = tmp_path / "poly.csv"
    tips = tmp_path / "tips.csv"
    run(capsys, "simulate", "--rpm", "0", "--duration", "2", "--noise", "0",
        "--out", str(trace))
    status, out, _ = run(capsys, "shape", str(trace), "--out", str(poly),
                         "--out-tips", str(tips))
    assert status == 0
    assert "tip_x_mm=0.000000" in out and "tip_z_mm=35.000000" in out
    assert poly.read_text().startswith("s_mm,x_mm,z_mm")
    tip_lines = tips.read_text().strip().splitlines()
    assert tip_lines[0] == "time_s,tip_x_mm,tip_z_mm"
    assert len(tip_lines) == 2001


def test_shape_tips_are_the_curvature_of_every_sample(tmp_path, capsys):
    trace_path, tips = tmp_path / "t.csv", tmp_path / "tips.csv"
    status, _, _ = run(capsys, "simulate", "--rpm", "120", "--duration", "3", "--bend",
                       "pull=1.5,release=1.5", "--out", str(trace_path))
    assert status == 0
    status, _, _ = run(capsys, "shape", str(trace_path), "--out",
                       str(tmp_path / "poly.csv"), "--out-tips", str(tips))
    assert status == 0
    trace, = parse_trace_csv(trace_path)
    calibration = shape.default_calibration()
    kappas = ((trace.channels - np.array(calibration.base_wavelengths_nm))
              / np.array(calibration.sensitivities_nm_per_invm))
    expected = tips_csv_text(trace.times(),
                             shape.tips_for_curvatures(kappas, shape.CmGeometry()))
    assert tips.read_text() == expected


def test_detect_counts_events(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    run(capsys, "simulate", "--rpm", "0", "--duration", "30", "--noise", "0.002",
        "--out", str(trace))
    status, out, _ = run(capsys, "detect", str(trace), "--out",
                         str(tmp_path / "e.csv"))
    assert status == 0
    assert out.strip() == "events=0"


def test_sweep_preset_reports_two_peaks(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    summary = tmp_path / "summary.txt"
    status, out, _ = run(capsys, "sweep", "--preset", "paper",
                         "--out", str(out_csv), "--summary", str(summary))
    assert status == 0
    assert "detected peaks: 2" in out
    peak_lines = [ln for ln in out.splitlines() if ln.startswith("peak ")]
    low = float(peak_lines[0].split()[1])
    high = float(peak_lines[1].split()[1])
    assert abs(low - 24.0) <= 6.0
    assert abs(high - 960.0) <= 60.0
    assert summary.read_text() in out + "\n" + out  # same text persisted


def test_sweep_determinism(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        status, _, _ = run(capsys, "sweep", "--rpm-min", "100", "--rpm-max",
                           "2400", "--points", "12", "--seed", "3",
                           "--out", str(path))
        assert status == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_points_without_a_range_sizes_the_default_grid(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    status, out, _ = run(capsys, "sweep", "--points", "12", "--sample-rate", "250",
                         "--out", str(out_csv))
    assert status == 0
    assert out.splitlines()[0] == "sweep points: 12"
    rpms = [float(ln.split(",")[0]) for ln in out_csv.read_text().splitlines()[1:]]
    assert rpms == pytest.approx(sweep.default_rpm_grid(n_points=12), abs=1e-6)


def test_sweep_paper_preset_with_other_points_is_usage_error(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    status, _, err = run(capsys, "sweep", "--preset", "paper", "--points", "12",
                         "--out", str(out_csv))
    assert status == 2
    assert len(err.strip().splitlines()) == 1 and "--points" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("bounds", [["--rpm-min", "100", "--rpm-max", "200"],
                                    ["--rpm-max", "200"]], ids=["range", "max-only"])
def test_sweep_paper_preset_with_an_rpm_range_is_usage_error(tmp_path, capsys, bounds):
    out_csv = tmp_path / "sweep.csv"
    status, out, err = run(capsys, "sweep", "--preset", "paper", *bounds,
                           "--out", str(out_csv))
    assert status == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "--rpm-min" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("source", [[], ["--from-dir", "."]], ids=["simulated", "from-dir"])
def test_an_unknown_sweep_preset_is_usage_error(tmp_path, capsys, source):
    out_csv = tmp_path / "sweep.csv"
    status, out, err = run(capsys, "sweep", "--preset", "nope", *source,
                           "--out", str(out_csv))
    assert status == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "'nope'" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("points", ["-1", "0", "9"])
@pytest.mark.parametrize("bounds", [[], ["--rpm-min", "100", "--rpm-max", "200"]],
                         ids=["default-range", "range"])
def test_sweep_with_fewer_than_ten_points_is_usage_error(tmp_path, capsys, bounds, points):
    out_csv = tmp_path / "sweep.csv"
    status, out, err = run(capsys, "sweep", *bounds, "--points", points,
                           "--out", str(out_csv))
    assert status == 2 and out == ""
    assert err.splitlines() == ["error: --points must be at least 10"]
    assert not out_csv.exists()


@pytest.mark.parametrize("low,high", [("0", "2400"), ("10", "0"), ("-5", "2400"),
                                     ("10", "-1")],
                         ids=["zero-min", "zero-max", "negative-min", "negative-max"])
def test_sweep_with_a_non_positive_rpm_bound_is_usage_error(tmp_path, capsys, recwarn,
                                                            low, high):
    out_csv = tmp_path / "sweep.csv"
    status, out, err = run(capsys, "sweep", f"--rpm-min={low}", f"--rpm-max={high}",
                           "--out", str(out_csv))
    assert status == 2 and out == ""
    assert err.splitlines() == [
        f"error: rpm grid bounds must be positive, got {float(low)} and {float(high)}"]
    assert not recwarn.list
    assert not out_csv.exists()


@pytest.mark.parametrize("command,rate", [("sweep", "3e7"), ("sweep", "1e9"),
                                          ("sweep", "1e12"), ("sweep", "1e308"),
                                          ("simulate", "3e7")])
def test_a_rate_past_the_sample_bound_is_usage_error(tmp_path, capsys, command, rate):
    # Refused when the scenario is built, before anything is allocated.
    out_csv = tmp_path / "out.csv"
    rpm = ["--rpm", "120"] if command == "simulate" else []
    status, out, err = run(capsys, command, *rpm, "--sample-rate", rate, "--out", str(out_csv))
    assert status == 2 and out == ""
    assert err.splitlines() == [f"error: duration_s * sample_rate_hz * areas is "
                                f"{10.0 * float(rate) * 3:.4g} samples, above the bound "
                                f"of {vib_model.MAX_SAMPLES}"]
    assert not out_csv.exists()


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory, params):
    """Eight recorded rates, rpm_<value>.csv, for sweep --from-dir: enough
    for the curve fit, which names the 960 rpm resonance."""
    directory = tmp_path_factory.mktemp("sweep_dir")
    for rpm in (240.0, 360.0, 480.0, 720.0, 960.0, 1200.0, 1600.0, 2000.0):
        scenario = vib_model.Scenario(rpm=rpm, duration_s=100.0, sample_rate_hz=200.0,
                                      noise_sigma_nm=0.0, harmonic_weights=(1.0,))
        write_trace_csv(directory / f"rpm_{rpm:.0f}.csv",
                        vib_model.simulate(scenario, params, seed=int(rpm)))
    return directory


@pytest.mark.parametrize("settings", [[], ["--seed", "4", "--duration", "99",
                                           "--sample-rate", "250", "--noise", "0.1"]],
                         ids=["plain", "simulation-settings"])
def test_sweep_from_dir_writes_the_ingested_report(tmp_path, capsys, params, sweep_dir,
                                                   settings):
    # The simulation settings are config keys shared by every command; the
    # files fix the data, so they change nothing here.
    out_csv = tmp_path / "sweep.csv"
    status, out, err = run(capsys, "sweep", "--from-dir", str(sweep_dir), *settings,
                           "--out", str(out_csv))
    assert status == 0 and err == ""
    report = sweep.ingest_sweep_dir(sweep_dir, params)
    assert out_csv.read_text() == sweep.report_csv_text(report)
    assert out == sweep.summary_text(report)


def test_sweep_from_dir_with_a_zero_rate_file_is_usage_error(tmp_path, capsys, sweep_dir):
    zero = tmp_path / "rpm_0.csv"
    zero.write_bytes((sweep_dir / "rpm_240.csv").read_bytes())
    out_csv = tmp_path / "sweep.csv"
    status, out, err = run(capsys, "sweep", "--from-dir", str(tmp_path), "--out", str(out_csv))
    assert status == 2 and out == ""
    assert err.splitlines() == [f"error: {zero}: the rate in the name must be positive, "
                                "got 0 rpm"]
    assert not out_csv.exists()


def test_sweep_from_dir_names_the_file_it_cannot_measure(tmp_path, capsys, sweep_dir):
    # 12000 rpm is 200 Hz, the sampling rate of the file, above its Nyquist.
    fast = tmp_path / "rpm_12000.csv"
    fast.write_bytes((sweep_dir / "rpm_240.csv").read_bytes())
    out_csv = tmp_path / "sweep.csv"
    status, out, err = run(capsys, "sweep", "--from-dir", str(tmp_path), "--out", str(out_csv))
    assert status == 2 and out == ""
    assert err.splitlines() == [f"error: {fast}: expected_fundamental_hz must lie in "
                                "(0, 100) Hz, got 200"]
    assert not out_csv.exists()


@pytest.mark.parametrize("grid", [["--preset", "paper"], ["--rpm-min", "100"],
                                  ["--rpm-max", "200"], ["--points", "12"]],
                         ids=["preset", "rpm-min", "rpm-max", "points"])
def test_sweep_from_dir_with_a_grid_option_is_usage_error(tmp_path, capsys, sweep_dir,
                                                          grid):
    out_csv = tmp_path / "sweep.csv"
    status, out, err = run(capsys, "sweep", "--from-dir", str(sweep_dir), *grid,
                           "--out", str(out_csv))
    assert status == 2 and out == ""
    assert err.splitlines() == [f"error: --from-dir takes its rpm grid from the files; "
                                f"drop {grid[0]}"]
    assert not out_csv.exists()


@pytest.mark.parametrize("command", ["analyze", "filter", "shape", "detect"])
def test_seed_is_refused_by_stages_without_random_numbers(tmp_path, capsys, command):
    trace = tmp_path / "t.csv"
    run(capsys, "simulate", "--rpm", "120", "--duration", "3", "--out", str(trace))
    out_file = tmp_path / "out.csv"
    extra = ["--rpm", "120"] if command == "filter" else []
    status, out, err = run(capsys, command, str(trace), *extra, "--seed", "5",
                           "--out", str(out_file))
    assert status == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "--seed" in err
    assert not out_file.exists()


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tool_velocity_rpm = 240\nduration_s = 4\nseed = 9\n")
    out_csv = tmp_path / "t.csv"
    status, _, _ = run(capsys, "simulate", "--config", str(cfg),
                       "--out", str(out_csv))
    assert status == 0
    trace = parse_trace_csv(out_csv)[0]
    assert trace.n_samples == 4000


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("velocity = 240\n")
    status, _, err = run(capsys, "simulate", "--config", str(cfg),
                         "--rpm", "100", "--out", str(tmp_path / "t.csv"))
    assert status == 2 and "unknown config key" in err


def test_failed_run_leaves_no_partial_output(tmp_path, capsys):
    target = tmp_path / "out.csv"
    status, _, _ = run(capsys, "simulate", "--rpm", "-5", "--out", str(target))
    assert status == 2
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_non_finite_times_are_usage_error(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text("time_s,fiber,aa,wavelength_nm\n"
                     + "".join(f"inf,0,{aa},1535.3\n" for aa in range(3)))
    status, _, err = run(capsys, "detect", str(trace), "--out",
                         str(tmp_path / "e.csv"))
    assert status == 2
    assert err.strip() == "error: line 2: time must be finite, got inf"


@pytest.mark.parametrize("flag", ["--duration", "--sample-rate", "--noise"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_simulate_number_is_usage_error(tmp_path, capsys, flag, value):
    target = tmp_path / "t.csv"
    status, _, err = run(capsys, "simulate", "--rpm", "120", flag, value,
                         "--out", str(target))
    assert status == 2
    assert len(err.strip().splitlines()) == 1
    assert "must be finite" in err
    assert not target.exists()


def test_non_finite_detector_window_is_usage_error(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    run(capsys, "simulate", "--rpm", "120", "--duration", "2", "--out", str(trace))
    status, _, err = run(capsys, "detect", str(trace), "--window", "nan",
                         "--out", str(tmp_path / "e.csv"))
    assert status == 2
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("flags", [("--rpm", "nan"), ("--fundamental", "nan"),
                                   ("--rpm", "inf"),
                                   ("--rpm", "240", "--bandwidth", "nan")])
def test_non_finite_filter_parameter_is_usage_error(tmp_path, capsys, flags):
    trace = tmp_path / "t.csv"
    run(capsys, "simulate", "--rpm", "120", "--duration", "2", "--out", str(trace))
    target = tmp_path / "f.csv"
    status, _, err = run(capsys, "filter", str(trace), *flags, "--out", str(target))
    assert status == 2
    assert len(err.strip().splitlines()) == 1 and "must be finite" in err
    assert not target.exists()


#: Every float-valued flag, per subcommand, with arguments that are valid otherwise.
FLOAT_FLAGS = {
    "simulate": (["--rpm", "--duration", "--sample-rate", "--noise", "--base"],
                 ["--rpm", "120", "--duration", "1"]),
    "analyze": (["--rpm-hint", "--max-freq", "--prominence"], ["t.csv"]),
    "filter": (["--fundamental", "--rpm", "--bandwidth"], ["t.csv", "--rpm", "120"]),
    "shape": (["--length", "--at-time"], ["t.csv"]),
    "detect": (["--threshold", "--drift", "--window"], ["t.csv"]),
    "sweep": (["--rpm-min", "--rpm-max", "--duration", "--sample-rate", "--noise"], []),
}


def test_float_flag_table_lists_every_float_flag():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    found = {name: sorted(a.option_strings[0] for a in sub._actions
                          if a.type not in (None, int, str))
             for name, sub in subparsers.choices.items()}
    assert found == {name: sorted(flags) for name, (flags, _) in FLOAT_FLAGS.items()}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command,flag", [(c, f) for c, (flags, _) in FLOAT_FLAGS.items()
                                          for f in flags])
def test_non_finite_float_flag_is_usage_error(tmp_path, capsys, monkeypatch,
                                              command, flag, value):
    monkeypatch.chdir(tmp_path)
    run(capsys, "simulate", "--rpm", "120", "--duration", "2", "--out", "t.csv")
    # "--flag=-inf": a separate "-inf" would read as an unknown option.
    status, out, err = run(capsys, command, *FLOAT_FLAGS[command][1], f"{flag}={value}",
                           "--out", "out.csv")
    assert status == 2 and out == ""
    assert err.splitlines() == [f"error: argument {flag}: must be finite, got {value!r}"]
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command,flags", [
    ("detect", ["t.csv", "--window", "1e308"]),
    ("simulate", ["--rpm", "120", "--duration", "1e308"]),
    ("simulate", ["--rpm", "120", "--sample-rate", "1e308"]),
    ("sweep", ["--duration", "1e308"]),
    ("shape", ["t.csv", "--length", "1e308"]),
    ("shape", ["t.csv", "--length", "1.7e308"]),
    ("shape", ["t.csv", "--at-time", "1e308"]),
], ids=["detect-window", "simulate-duration", "simulate-rate", "sweep-duration",
        "shape-length", "shape-length-midpoints", "shape-at-time"])
def test_a_finite_flag_whose_sample_count_overflows_is_usage_error(
        tmp_path, capsys, monkeypatch, recwarn, command, flags):
    # Only counts that overflow to infinity: a huge finite one would allocate.
    monkeypatch.chdir(tmp_path)
    run(capsys, "simulate", "--rpm", "120", "--duration", "2", "--out", "t.csv")
    status, out, err = run(capsys, command, *flags, "--out", "out.csv")
    assert status == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not recwarn.list
    assert not (tmp_path / "out.csv").exists()


def test_non_numeric_float_flag_keeps_its_message(capsys):
    status, _, err = run(capsys, "simulate", "--rpm", "fast", "--out", "x.csv")
    assert status == 2
    assert err.splitlines() == ["error: argument --rpm: invalid float value: 'fast'"]


@pytest.mark.parametrize("bend", ["pull=0.5,release=0.5,curvature_gain=inf",
                                  "pull=0.5,release=0.5,cable_speed=nan",
                                  "pull=nan", "slack_scale=-inf"])
def test_non_finite_bend_value_is_usage_error(tmp_path, capsys, bend):
    target = tmp_path / "t.csv"
    status, _, err = run(capsys, "simulate", "--rpm", "120", "--duration", "1",
                         "--bend", bend, "--out", str(target))
    assert status == 2
    assert len(err.splitlines()) == 1 and "must be finite" in err
    assert not target.exists()


@pytest.mark.parametrize("flags,config", [
    (["--base", "1600"], ""),
    (["--bend", "pull=0.5,release=0.5,curvature_gain=1e6"], ""),
    ([], "base_wavelength_nm = nan\n"),
    ([], "noise_sigma_nm = inf\n"),
])
def test_simulate_never_writes_a_trace_the_reader_rejects(tmp_path, capsys, flags, config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    target = tmp_path / "t.csv"
    status, _, err = run(capsys, "simulate", "--rpm", "120", "--duration", "1",
                         "--config", str(cfg), *flags, "--out", str(target))
    assert status == 2
    assert len(err.splitlines()) == 1
    assert not target.exists()


@pytest.mark.parametrize("rate", ["3", "7", "1024"])
def test_simulate_refuses_a_rate_its_times_cannot_carry(tmp_path, capsys, rate):
    target = tmp_path / "r.csv"
    status, _, err = run(capsys, "simulate", "--rpm", "10", "--sample-rate", rate,
                         "--duration", "20", "--out", str(target))
    assert status == 2
    assert len(err.splitlines()) == 1 and "6 decimals" in err
    assert not target.exists()


@pytest.mark.parametrize("line", ["min_prominence_nm = nan", "shape_cutoff_hz = inf",
                                  "max_freq_hz = -inf"])
def test_non_finite_config_value_is_usage_error(tmp_path, capsys, line):
    trace = tmp_path / "t.csv"
    run(capsys, "simulate", "--rpm", "240", "--duration", "10", "--out", str(trace))
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    status, out, err = run(capsys, "analyze", str(trace), "--rpm-hint", "240",
                           "--config", str(cfg))
    assert status == 2
    assert out == "" and len(err.splitlines()) == 1 and "line 1" in err


def test_config_restating_the_default_model_changes_nothing(tmp_path, capsys):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("natural_f1_hz = 0.4\nnatural_f2_hz = 16\n"
                   "mass_ratio = 0.1\ndamping_ratio = 0.05\n")
    plain, configured = tmp_path / "plain.csv", tmp_path / "configured.csv"
    for extra, path in (((), plain), (("--config", str(cfg)), configured)):
        status, _, _ = run(capsys, "simulate", "--rpm", "240", "--duration", "2",
                           *extra, "--out", str(path))
        assert status == 0
    assert plain.read_bytes() == configured.read_bytes()


def test_cli_import_defers_scipy_signal():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, fbgvib.cli; print('scipy.signal' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_filter_and_sweep_run_without_scipy_signal(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    trace, out = tmp_path / "t.csv", tmp_path / "out.csv"
    probe = (
        "import sys\n"
        "from fbgvib.cli import main\n"
        f"assert main(['simulate', '--rpm', '120', '--duration', '3', '--out', {str(trace)!r}]) == 0\n"
        f"assert main(['filter', {str(trace)!r}, '--rpm', '120', '--out', {str(out)!r}]) == 0\n"
        f"assert main(['sweep', '--rpm-min', '600', '--rpm-max', '2400', '--points', '10', "
        f"'--out', {str(out)!r}]) == 0\n"
        "print('scipy.signal' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip().splitlines()[-1] == "False"


@pytest.mark.parametrize("source", ["preset", "from-dir"])
def test_sweep_loads_no_scipy_module(tmp_path, sweep_dir, source):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    grid = ["--preset", "paper"] if source == "preset" else ["--from-dir", str(sweep_dir)]
    argv = ["sweep", *grid, "--out", str(tmp_path / "sweep.csv")]
    probe = ("import sys\nfrom fbgvib.cli import main\n"
             f"assert main({argv!r}) == 0\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert "detected peaks: " in result.stdout
    assert result.stdout.splitlines()[-1] == "[]"


def test_cli_stages_leave_scipy_linalg_signal_and_numpy_ma_unloaded(tmp_path):
    # Of scipy, only the top-level package and two compiled extensions may
    # load: the cascade (scipy.signal._sosfilt) and the prominence walk
    # (scipy.signal._peak_finding_utils).
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    trace, clean, out = (str(tmp_path / name) for name in ("t.csv", "clean.csv", "out.csv"))
    stages = [
        ["simulate", "--rpm", "120", "--duration", "3", "--bend", "pull=1.5,release=1.5",
         "--out", trace],
        ["analyze", trace, "--rpm-hint", "120", "--out", out],
        ["filter", trace, "--rpm", "120", "--out", clean],
        ["shape", clean, "--out", out, "--out-tips", str(tmp_path / "tips.csv")],
        ["detect", clean, "--out", out],
        ["sweep", "--rpm-min", "600", "--rpm-max", "2400", "--points", "10", "--out", out],
    ]
    probe = ("import sys\nfrom fbgvib.cli import main\n"
             + "".join(f"assert main({argv!r}) == 0\n" for argv in stages)
             + "print([m for m in ('scipy.linalg', 'scipy.signal', 'numpy.ma') "
               "if m in sys.modules])\n"
             + "print(sorted(m for m in sys.modules if m.startswith('scipy.signal.')))\n")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip().splitlines()[-2:] == [
        "[]", "['scipy.signal._peak_finding_utils', 'scipy.signal._sosfilt']"]


def test_analyze_transforms_channel_once(tmp_path, capsys, monkeypatch):
    trace = tmp_path / "t.csv"
    run(capsys, "simulate", "--rpm", "240", "--duration", "5", "--out", str(trace))
    calls = []
    original = np.fft.rfft

    def counting_fft(x, *args, **kwargs):
        calls.append(len(x))
        return original(x, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting_fft)
    status, out, _ = run(capsys, "analyze", str(trace), "--rpm-hint", "240",
                         "--out", str(tmp_path / "spectrum.csv"))
    assert status == 0 and "fundamental_hz=4.000000" in out
    assert calls == [5000]


def test_filter_writes_spec_file_once(tmp_path, capsys, monkeypatch):
    t = np.arange(2000) / 1000.0
    wl = 1535.3 + 0.1 * np.sin(2 * np.pi * 2.0 * t)
    channels = np.column_stack([wl, wl, wl])
    trace = tmp_path / "two_fibers.csv"
    write_trace_csv(trace, [
        WavelengthTrace(1000.0, channels, labels=((0, 0), (0, 1), (0, 2))),
        WavelengthTrace(1000.0, channels, labels=((1, 0), (1, 1), (1, 2)))])
    saved = []
    original = filtering.save_filter_spec

    def recording_save(path, spec):
        saved.append(path)
        original(path, spec)

    monkeypatch.setattr(filtering, "save_filter_spec", recording_save)
    specfile = tmp_path / "cascade.txt"
    status, out, _ = run(capsys, "filter", str(trace), "--rpm", "120",
                         "--save-spec", str(specfile), "--out",
                         str(tmp_path / "f.csv"))
    assert status == 0 and "filtered 2 fiber(s)" in out
    assert saved == [str(specfile)]
    assert len(specfile.read_text().splitlines()) == 3


def test_filter_writes_contiguous_channels(tmp_path, capsys, monkeypatch):
    trace = tmp_path / "t.csv"
    run(capsys, "simulate", "--rpm", "120", "--duration", "2", "--out", str(trace))
    written = []
    monkeypatch.setattr(dataio, "write_trace_csv", lambda path, traces: written.extend(traces))
    status, _, _ = run(capsys, "filter", str(trace), "--rpm", "120",
                       "--out", str(tmp_path / "f.csv"))
    assert status == 0 and len(written) == 1
    assert written[0].channels.shape == (2000, 3)
    assert all(written[0].channel(i).flags.c_contiguous for i in range(3))


MODEL_ROWS = [(None, "natural_f1_hz", None, 0.5, None),
              (None, "natural_f2_hz", None, 12.0, None),
              (None, "mass_ratio", None, 0.2, None),
              (None, "damping_ratio", None, 0.08, None)]

#: Only the two stages that draw random numbers take a seed.
SEED_ROW = ("--seed", "seed", "3", 9, 0)

#: Per subcommand: the arguments it needs, then each config key it reads as
#: (flag or None, key, flag text, config value, built-in default). A flag
#: resolves to its text read as the config value's type.
SETTINGS = {
    "simulate": (["--out", "t.csv"], [
        ("--rpm", "tool_velocity_rpm", "60", 240.0, None),
        ("--duration", "duration_s", "3", 4.0, 10.0),
        ("--sample-rate", "sample_rate_hz", "500", 250.0, 1000.0),
        ("--noise", "noise_sigma_nm", "0.001", 0.004, 0.002),
        ("--base", "base_wavelength_nm", "1540", 1550.0, 1535.3),
        SEED_ROW,
        *MODEL_ROWS,
        (None, "cable_speed_mm_s", None, 0.5, None),
        (None, "slack_amplitude_scale", None, 2.0, None),
        (None, "slack_threshold_mm", None, 2.0, None)]),
    "analyze": (["t.csv"], [
        ("--rpm-hint", "tool_velocity_rpm", "60", 240.0, None),
        ("--max-freq", "max_freq_hz", "30", 20.0, spectral.DEFAULT_MAX_FREQ_HZ),
        ("--prominence", "min_prominence_nm", "0.005", 0.02,
         spectral.DEFAULT_MIN_PROMINENCE_NM),
        (None, "shape_cutoff_hz", None, 0.2, spectral.DEFAULT_SHAPE_CUTOFF_HZ)]),
    "filter": (["t.csv", "--out", "f.csv"], [
        ("--rpm", "tool_velocity_rpm", "60", 240.0, None),
        ("--notch-harmonics", "notch_harmonics", "2", 4, filtering.DEFAULT_N_HARMONICS),
        ("--bandwidth", "bandwidth_hz", "0.3", 0.5, None)]),
    "shape": (["t.csv", "--out", "p.csv"], [
        ("--calibration", "calibration_file", "a.csv", "b.csv", None)]),
    "detect": (["t.csv", "--out", "e.csv"], [
        ("--threshold", "threshold_nm", "0.3", 0.1, events.DEFAULT_THRESHOLD_NM),
        ("--drift", "drift_nm", "0.03", 0.02, events.DEFAULT_DRIFT_NM),
        ("--window", "window_s", "0.2", 0.4, events.DEFAULT_WINDOW_S)]),
    "sweep": (["--out", "s.csv"], [
        ("--duration", "duration_s", "3", 4.0, 10.0),
        ("--sample-rate", "sample_rate_hz", "500", 250.0, 1000.0),
        ("--noise", "noise_sigma_nm", "0.001", 0.004, 0.0),
        SEED_ROW,
        *MODEL_ROWS]),
}
SETTING_CASES = [(command, row) for command, (_, rows) in SETTINGS.items()
                 for row in rows]
#: One value for every config key, from the table.
SAMPLE_CONFIG = {key: value for _, (_, key, _, value, _) in SETTING_CASES}


def resolved(command, config=None, *flags):
    """Every setting of one parse, the model and bend keys included."""
    args = build_parser(config).parse_args([command, *SETTINGS[command][0], *flags])
    return {**vars(args), **getattr(args, "model", {}),
            **getattr(args, "bend_defaults", {})}


@pytest.mark.parametrize("command,row", SETTING_CASES,
                         ids=[f"{c}-{row[1]}" for c, row in SETTING_CASES])
def test_flag_beats_config_beats_builtin_default(command, row):
    flag, key, text, value, default = row
    assert resolved(command).get(key) == default
    assert resolved(command, {key: value})[key] == value
    if flag:
        assert resolved(command, {}, flag, text)[key] == type(value)(text)
        assert resolved(command, {key: value}, flag, text)[key] == type(value)(text)


def test_every_config_key_is_read_by_some_command():
    assert sorted(SAMPLE_CONFIG) == sorted(CONFIG_KEYS)


@pytest.mark.parametrize("command", sorted(SETTINGS))
def test_a_command_reads_only_its_own_config_keys(command):
    plain = resolved(command)
    read = {key for key, value in SAMPLE_CONFIG.items()
            if resolved(command, {key: value}) != plain}
    assert read == {row[1] for row in SETTINGS[command][1]}
    ignored = {key: value for key, value in SAMPLE_CONFIG.items() if key not in read}
    assert resolved(command, ignored) == plain


def test_a_bad_flag_is_reported_before_a_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("tool_velocity_rpm 240\n")
    status, _, err = run(capsys, "simulate", "--config", str(cfg), "--rpm", "nan",
                         "--out", str(tmp_path / "t.csv"))
    assert status == 2
    assert err.splitlines() == ["error: argument --rpm: must be finite, got 'nan'"]


def simulate_bytes(tmp_path, capsys, bend, config=""):
    cfg, out = tmp_path / "run.cfg", tmp_path / "t.csv"
    cfg.write_text(config)
    extra = ["--bend", bend] if bend else []
    status, _, err = run(capsys, "simulate", "--rpm", "120", "--duration", "2",
                         "--config", str(cfg), *extra, "--out", str(out))
    assert status == 0, err
    return out.read_bytes()


BEND_CONFIG = "cable_speed_mm_s = 0.5\nslack_threshold_mm = 2\n"


def test_config_bend_keys_are_the_bend_entry_defaults(tmp_path, capsys):
    configured = simulate_bytes(tmp_path, capsys, "pull=1,release=1", BEND_CONFIG)
    assert configured != simulate_bytes(tmp_path, capsys, "pull=1,release=1")
    assert configured == simulate_bytes(
        tmp_path, capsys, "pull=1,release=1,cable_speed=0.5,slack_threshold=2")


def test_a_bend_entry_beats_the_config(tmp_path, capsys):
    config = BEND_CONFIG + "slack_amplitude_scale = 2\n"
    explicit = "pull=1,release=1,cable_speed=0.1,slack_scale=4,slack_threshold=0.5"
    assert (simulate_bytes(tmp_path, capsys, explicit, config)
            == simulate_bytes(tmp_path, capsys, "pull=1,release=1"))


def test_config_bend_keys_do_nothing_without_a_bend(tmp_path, capsys):
    assert (simulate_bytes(tmp_path, capsys, None, BEND_CONFIG)
            == simulate_bytes(tmp_path, capsys, None))


def test_a_bad_config_bend_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cable_speed_mm_s = -1\n")
    status, _, err = run(capsys, "simulate", "--rpm", "120", "--duration", "2",
                         "--config", str(cfg), "--bend", "pull=1,release=1",
                         "--out", str(tmp_path / "t.csv"))
    assert status == 2
    assert err.splitlines() == ["error: cable_speed_mm_s must be positive"]


def test_output_dir_is_no_longer_a_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("output_dir = out\n")
    status, out, err = run(capsys, "simulate", "--rpm", "120", "--config", str(cfg),
                           "--out", str(tmp_path / "t.csv"))
    assert status == 2 and out == ""
    assert err.splitlines() == ["error: unknown config key 'output_dir' (line 1)"]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_calibration_sensitivity_is_usage_error(tmp_path, capsys, value):
    trace, cal, poly = tmp_path / "t.csv", tmp_path / "cal.csv", tmp_path / "poly.csv"
    status, _, _ = run(capsys, "simulate", "--rpm", "120", "--duration", "3",
                       "--out", str(trace))
    assert status == 0
    cal.write_text("aa_index,base_wavelength_nm,sensitivity_nm_per_invm\n"
                   f"0,1535.3,{value}\n1,1535.3,0.1\n2,1535.3,0.1\n")
    status, out, err = run(capsys, "shape", str(trace), "--calibration", str(cal),
                           "--out", str(poly))
    assert status == 2
    assert out == "" and len(err.strip().splitlines()) == 1
    assert not poly.exists()


def test_a_calibration_that_turns_the_tip_more_than_once_is_usage_error(tmp_path, capsys):
    # 1e-300 nm per 1/m reads each shift as a curvature near 1e298 1/m; such a
    # file once printed a tip at the manipulator's base and exited 0.
    trace, cal = tmp_path / "t.csv", tmp_path / "cal.csv"
    poly, tips = tmp_path / "poly.csv", tmp_path / "tips.csv"
    run(capsys, "simulate", "--rpm", "120", "--duration", "3", "--out", str(trace))
    cal.write_text("aa_index,base_wavelength_nm,sensitivity_nm_per_invm\n"
                   "0,1535.3,1e-300\n1,1535.3,1e-300\n2,1535.3,1e-300\n")
    status, out, err = run(capsys, "shape", str(trace), "--calibration", str(cal),
                           "--out", str(poly), "--out-tips", str(tips))
    assert status == 2 and out == "" and not poly.exists() and not tips.exists()
    assert len(err.splitlines()) == 1
    assert err.startswith("error: the pose turns the tip ")
    assert err.endswith(" rad, over one full turn\n")


def area_trace(tmp_path, labels):
    """A 10 s trace whose area k carries a line at k + 2 Hz."""
    t = np.arange(10000) / 1000.0
    lines_hz = [aa + 2.0 for _, aa in labels]
    path = tmp_path / "areas.csv"
    write_trace_csv(path, WavelengthTrace(
        1000.0, 1535.3 + 0.05 * np.sin(2 * np.pi * np.outer(t, lines_hz)), labels=labels))
    return path


AREA_SETS = {"areas-0-2": ((0, 0), (0, 2)), "areas-0-1-2": ((0, 0), (0, 1), (0, 2))}


@pytest.mark.parametrize("aa,line", [("0", "2.000000"), ("2", "4.000000")])
def test_analyze_aa_is_the_area_label_not_the_column(tmp_path, capsys, aa, line):
    path = area_trace(tmp_path, AREA_SETS["areas-0-2"])
    status, out, _ = run(capsys, "analyze", str(path), "--aa", aa)
    assert status == 0 and f"fundamental_hz={line}" in out.splitlines()


def test_detect_aa_reads_the_labelled_area(tmp_path, capsys):
    path, out = area_trace(tmp_path, AREA_SETS["areas-0-2"]), tmp_path / "e.csv"
    status, _, _ = run(capsys, "detect", str(path), "--aa", "2", "--out", str(out))
    trace = parse_trace_csv(path)[0]
    report = events.detect_steps(trace.channel(1), sample_rate_hz=trace.sample_rate_hz)
    assert status == 0 and out.read_text() == events.events_csv_text(report)


@pytest.mark.parametrize("command", ["analyze", "detect"])
@pytest.mark.parametrize("areas,aa", [("areas-0-2", "1"), ("areas-0-2", "3"), ("areas-0-2", "-1"),
                                      ("areas-0-1-2", "3"), ("areas-0-1-2", "-1")])
def test_an_area_the_trace_lacks_is_usage_error(tmp_path, capsys, command, areas, aa):
    path, target = area_trace(tmp_path, AREA_SETS[areas]), tmp_path / "e.csv"
    outputs = ["--out", str(target)] if command == "detect" else []
    status, out, err = run(capsys, command, str(path), "--aa", aa, *outputs)
    assert status == 2 and out == "" and not target.exists()
    assert err.splitlines() == [f"error: no area {aa} of fiber 0 in {path}"]


def test_calibration_repeating_an_area_is_usage_error(tmp_path, capsys):
    trace, cal, poly = tmp_path / "t.csv", tmp_path / "cal.csv", tmp_path / "poly.csv"
    run(capsys, "simulate", "--rpm", "120", "--duration", "3", "--out", str(trace))
    cal.write_text("aa_index,base_wavelength_nm,sensitivity_nm_per_invm\n"
                   "0,1535.3,13\n1,1535.3,13\n2,1535.3,13\n0,1536.0,13\n")
    status, out, err = run(capsys, "shape", str(trace), "--calibration", str(cal),
                           "--out", str(poly))
    assert status == 2 and out == "" and not poly.exists()
    assert err.splitlines() == ["error: line 5: active area 0 is listed twice"]


def test_simulate_base_outside_the_band_is_refused_before_simulating(tmp_path, capsys,
                                                                     monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated")

    monkeypatch.setattr(vib_model, "simulate", no_simulation)
    target = tmp_path / "t.csv"
    status, out, err = run(capsys, "simulate", "--rpm", "120", "--base", "1600",
                           "--out", str(target))
    assert status == 2 and out == "" and not target.exists()
    assert err.splitlines() == ["error: base_wavelength_nm must lie within "
                                "(1510.0, 1590.0) nm"]


def test_analyze_snaps_to_the_config_tool_rate(tmp_path, capsys):
    trace, cfg = tmp_path / "t.csv", tmp_path / "run.cfg"
    run(capsys, "simulate", "--rpm", "121", "--duration", "10", "--out", str(trace))
    cfg.write_text("tool_velocity_rpm = 121\n")
    _, plain, _ = run(capsys, "analyze", str(trace))
    _, hinted, _ = run(capsys, "analyze", str(trace), "--rpm-hint", "121")
    status, configured, _ = run(capsys, "analyze", str(trace), "--config", str(cfg))
    assert "fundamental_hz=2.000000" in plain.splitlines()
    assert "fundamental_hz=2.016667" in hinted.splitlines()
    assert status == 0 and configured == hinted


@pytest.mark.parametrize("hint,status,line", [("-120", 2, None),
                                              ("0", 0, "fundamental_hz=2.000000")])
def test_a_negative_rpm_hint_is_usage_error(tmp_path, capsys, hint, status, line):
    trace = tmp_path / "t.csv"
    run(capsys, "simulate", "--rpm", "121", "--duration", "10", "--out", str(trace))
    code, out, err = run(capsys, "analyze", str(trace), "--rpm-hint", hint)
    assert code == status
    if line is None:
        assert out == "" and err.splitlines() == [
            "error: rpm_hint must be finite and non-negative, got -120.0"]
    else:  # a tool at rest: nothing to snap to
        assert line in out.splitlines() and err == ""


@pytest.mark.parametrize("argv", [
    ["analyze", "{dir}"],
    ["analyze", "{trace}", "--config", "{dir}"],
    ["shape", "{trace}", "--calibration", "{dir}", "--out", "{out}"],
    ["simulate", "--rpm", "120", "--duration", "2", "--out", "{dir}"],
    ["sweep", "--from-dir", "{trace}", "--out", "{out}"],
], ids=["analyze", "config", "calibration", "simulate-out", "from-dir"])
def test_a_path_of_the_wrong_kind_is_usage_error(tmp_path, capsys, argv):
    paths = {"dir": tmp_path / "d", "trace": tmp_path / "t.csv", "out": tmp_path / "o.csv"}
    paths["dir"].mkdir()
    write_trace_csv(paths["trace"], WavelengthTrace(1000.0, np.full((3000, 3), 1535.3)))
    before = sorted(tmp_path.rglob("*"))
    status, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert status == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert sorted(tmp_path.rglob("*")) == before  # no output, no temp file

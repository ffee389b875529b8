import numpy as np
import pytest

from fbgvib import (DataError, ParameterError, Scenario, analyze_sweep_points,
                    default_rpm_grid, frf_amplitude, ingest_sweep_dir,
                    output_response, run_sweep, simulate, steady_amplitude)
from fbgvib import sweep
from fbgvib.dataio import write_trace_csv
from fbgvib.filtering import apply_zero_phase, design_lowpass, transient_samples
from fbgvib.spectral import DEFAULT_SHAPE_CUTOFF_HZ
from fbgvib.sweep import (DEFAULT_DISCARD_FRACTION, SETTLE_TIME_CONSTANTS,
                          report_csv_text, summary_text)

from oracles import reference_simulate

FS = 1000.0


@pytest.fixture(scope="module")
def report(params):
    template = Scenario(rpm=10.0, duration_s=10.0, noise_sigma_nm=0.0)
    return run_sweep(default_rpm_grid(), template, params, seed=0)


# --- steady amplitude --------------------------------------------------------

def test_pure_sinusoid_amplitude():
    t = np.arange(120000) / FS
    x = 0.3 * np.sin(2 * np.pi * 2.0 * t)
    assert steady_amplitude(x, FS) == pytest.approx(0.3, abs=1e-6)


def test_zero_rpm_trace_measures_zero(params):
    trace = simulate(Scenario(rpm=0.0, duration_s=100.0, noise_sigma_nm=0.0),
                     params, seed=0)
    assert steady_amplitude(trace.channel(0), FS) == pytest.approx(0.0, abs=1e-9)


def test_960rpm_matches_gain_scaled_frf(params):
    scenario = Scenario(rpm=960.0, duration_s=120.0, noise_sigma_nm=0.0,
                        harmonic_weights=(1.0,))
    trace = simulate(scenario, params, seed=0)
    amp = steady_amplitude(trace.channel(0), FS, expected_fundamental_hz=16.0)
    assert amp == pytest.approx(abs(output_response(params, 16.0)), rel=0.02)


def test_too_few_periods_rejected():
    t = np.arange(30000) / FS
    x = np.sin(2 * np.pi * 0.05 * t)
    with pytest.raises(DataError):
        steady_amplitude(x, FS, expected_fundamental_hz=0.05)


# --- run_sweep ----------------------------------------------------------------

def test_unsorted_rpms_rejected(params):
    template = Scenario(rpm=10.0, duration_s=5.0)
    with pytest.raises(ParameterError):
        run_sweep([10, 30, 20, 40, 50, 60, 70, 80, 90, 100], template, params)


def test_duplicate_rpms_rejected(params):
    template = Scenario(rpm=10.0, duration_s=5.0)
    with pytest.raises(ParameterError):
        run_sweep([10, 20, 20, 40, 50, 60, 70, 80, 90, 100], template, params)


def test_too_few_points_rejected(params):
    template = Scenario(rpm=10.0, duration_s=5.0)
    with pytest.raises(ParameterError):
        run_sweep([10, 100, 1000], template, params)


def test_peak_next_to_zero_amplitude_keeps_its_grid_rpm(params, recwarn):
    report = analyze_sweep_points([(10, 0.0), (20, 1.0), (30, 0.5), (40, 0.4)], params)
    assert report.peak_rpms == (20.0,)
    assert report.avoid_bands_rpm[0][0] <= 20.0 <= report.avoid_bands_rpm[0][1]
    assert not recwarn.list


def test_exactly_two_peaks_at_known_resonances(report):
    assert len(report.peak_rpms) == 2
    low, high = report.peak_rpms
    assert abs(low - 24.0) <= 6.0
    assert abs(high - 960.0) <= 60.0


def test_attribution_tags(report):
    assert report.attribution == ("sensor-dominant", "manipulator-dominant")


def test_attribution_consistent_with_frf(report, params):
    low_hz, high_hz = report.natural_frequencies_hz
    x1, x2 = frf_amplitude(params, low_hz)
    assert x2 > x1
    x1, x2 = frf_amplitude(params, high_hz)
    assert x1 > x2


def test_amplitudes_track_frf_within_2pct(report, params):
    for rpm, amp in report.points:
        predicted = abs(output_response(params, rpm / 60.0))
        assert amp == pytest.approx(predicted, rel=0.02)


def test_avoid_bands_contain_peaks_and_not_presets(report):
    for rpm, band in zip(report.peak_rpms, report.avoid_bands_rpm):
        assert band[0] <= rpm <= band[1]
    for preset_rpm in (70.0, 2250.0):
        assert not any(lo <= preset_rpm <= hi for lo, hi in report.avoid_bands_rpm)
    assert any(lo <= 960.0 <= hi for lo, hi in report.avoid_bands_rpm)


def test_high_rpm_amplitude_below_quarter_of_240(report):
    amps = dict(report.points)
    near_240 = [a for r, a in report.points if abs(r - 240.0) <= 25.0][0]
    assert amps[2400.0] < 0.25 * near_240


def test_noisy_sweep_points_match_the_whole_array_path(params, monkeypatch):
    calls = []

    def recorded(scenario, p, seed=0):
        calls.append((scenario, seed))
        return simulate(scenario, p, seed=seed)

    monkeypatch.setattr(sweep, "simulate", recorded)
    template = Scenario(rpm=20.0, duration_s=10.0, noise_sigma_nm=0.01)
    report = run_sweep(default_rpm_grid(20.0, 2000.0, 10), template, params, seed=4)
    lowpass = design_lowpass(DEFAULT_SHAPE_CUTOFF_HZ, FS)
    settle = transient_samples(lowpass, n_time_constants=SETTLE_TIME_CONSTANTS)
    assert len(calls) == len(report.points) == 10
    for (rpm, amp), (scenario, seed) in zip(report.points, calls):
        x = reference_simulate(scenario, params, seed=seed).channel(0)
        y = x[int(round(DEFAULT_DISCARD_FRACTION * x.shape[0])):]
        residual = (y - apply_zero_phase(lowpass, y))[settle:-settle]
        assert scenario.rpm == rpm
        assert amp == float(0.5 * (residual.max() - residual.min()))


# --- ingestion ------------------------------------------------------------------

def test_ingest_directory_round_trip(tmp_path, params):
    rpms = [60.0, 120.0, 240.0, 480.0, 960.0, 1200.0, 1600.0, 2000.0, 2400.0]
    points = []
    for rpm in rpms:
        scenario = Scenario(rpm=rpm, duration_s=100.0, noise_sigma_nm=0.0,
                            sample_rate_hz=200.0, harmonic_weights=(1.0,))
        trace = simulate(scenario, params, seed=int(rpm))
        write_trace_csv(tmp_path / f"rpm_{rpm:.0f}.csv", trace)
        points.append(rpm)
    report = ingest_sweep_dir(tmp_path, params)
    assert [r for r, _ in report.points] == sorted(points)
    # Sparse 200 Hz sampling underestimates peak-to-peak at high rates, so
    # this checks the ingestion plumbing rather than estimator precision.
    for rpm, amp in report.points:
        assert amp == pytest.approx(abs(output_response(params, rpm / 60.0)), rel=0.2)


def test_ingest_empty_directory_rejected(tmp_path, params):
    with pytest.raises(DataError):
        ingest_sweep_dir(tmp_path, params)


# --- report text -----------------------------------------------------------------

def test_report_csv_prints_each_point_as_its_f_string(report):
    assert report_csv_text(report) == "rpm,amplitude_nm\n" + "".join(
        f"{rpm:.6f},{amp:.9f}\n" for rpm, amp in report.points)


def test_report_csv_and_summary(report):
    csv_lines = report_csv_text(report).strip().split("\n")
    assert csv_lines[0] == "rpm,amplitude_nm"
    assert len(csv_lines) == len(report.points) + 1
    text = summary_text(report)
    assert "detected peaks: 2" in text
    assert "sensor-dominant" in text and "manipulator-dominant" in text

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fbgvib import (DataError, ParameterError, ParseError, Scenario, analyze_sweep_points,
                    default_params, default_rpm_grid, frf_amplitude, ingest_sweep_dir,
                    output_response, run_sweep, simulate, steady_amplitude)
from fbgvib import sweep
from fbgvib.dataio import write_trace_csv
from fbgvib.sweep import DEFAULT_DISCARD_FRACTION, report_csv_text, summary_text

from oracles import reference_simulate, response_resonances, stacked_steady_amplitude

FS = 1000.0


@pytest.fixture(scope="module")
def report(params):
    template = Scenario(rpm=10.0, duration_s=10.0, noise_sigma_nm=0.0)
    return run_sweep(default_rpm_grid(), template, params, seed=0)


def test_the_paper_grid_has_one_owner():
    from fbgvib import cli, vib_model
    assert (sweep.PAPER_POINTS, vib_model.RPM_MAX) == (40, 2400.0)
    assert default_rpm_grid() == tuple(np.geomspace(10.0, 2400.0, 40).tolist())
    args = cli.build_parser(command="sweep").parse_args(["sweep", "--out", "x.csv"])
    assert args.points == sweep.PAPER_POINTS


def test_natural_frequencies_are_the_peak_rpms_over_60(report):
    assert len(report.peak_rpms) == 2
    assert report.natural_frequencies_hz == tuple(rpm / 60.0 for rpm in report.peak_rpms)
    fields = dict(points=report.points, peak_rpms=report.peak_rpms,
                  avoid_bands_rpm=report.avoid_bands_rpm, attribution=report.attribution)
    assert sweep.ResonanceReport(**fields) == report
    with pytest.raises(TypeError):
        sweep.ResonanceReport(**fields, natural_frequencies_hz=(1.0, 2.0))


# --- steady amplitude --------------------------------------------------------

def test_pure_sinusoid_amplitude():
    t = np.arange(120000) / FS
    x = 0.3 * np.sin(2 * np.pi * 2.0 * t)
    assert steady_amplitude(x, FS, expected_fundamental_hz=2.0) == pytest.approx(0.3, abs=1e-6)


def test_zero_rpm_trace_measures_zero(params):
    trace = simulate(Scenario(rpm=0.0, duration_s=100.0, noise_sigma_nm=0.0),
                     params, seed=0)
    assert steady_amplitude(trace.channel(0), FS,
                            expected_fundamental_hz=2.0) == pytest.approx(0.0, abs=1e-9)


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


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 40000), rate=st.sampled_from([250.0, 1000.0]) | st.floats(1.0, 1e4),
       share=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(n=2, rate=1000.0, share=0.0, seed=0)
@example(n=113 * 250, rate=250.0, share=0.0, seed=1)
def test_steady_amplitude_is_the_stacked_fit_bit_for_bit(n, rate, share, seed):
    kept = n - int(round(DEFAULT_DISCARD_FRACTION * n))
    low = 3.0 * rate / kept  # three periods in the kept record, the fewest taken
    f_hz = low + share * (0.5 * rate - low)
    if kept / rate < 3.0 / f_hz:  # the minimum rounded below three periods
        f_hz = np.nextafter(f_hz, np.inf)
    rng = np.random.default_rng(seed)
    x = 1535.0 + rng.uniform(-1.0, 1.0) * np.sin(2 * np.pi * f_hz * np.arange(n) / rate
                                                  + rng.uniform(0.0, 6.3))
    x += rng.normal(0.0, rng.uniform(0.0, 0.1), n)
    if not f_hz < 0.5 * rate:
        with pytest.raises(ParameterError):
            steady_amplitude(x, rate, expected_fundamental_hz=f_hz)
        return
    amp = steady_amplitude(x, rate, expected_fundamental_hz=f_hz)
    assert amp.hex() == stacked_steady_amplitude(x, rate, f_hz, DEFAULT_DISCARD_FRACTION).hex()


@pytest.mark.parametrize("f_hz", [0.0, -2.0, float("nan"), float("inf"), 500.0])
def test_frequency_outside_the_open_band_is_refused(f_hz):
    x = np.sin(2 * np.pi * 2.0 * np.arange(12000) / FS)
    with pytest.raises(ParameterError, match="expected_fundamental_hz must lie in"):
        steady_amplitude(x, FS, expected_fundamental_hz=f_hz)


@pytest.mark.parametrize("shape", [
    lambda t, d: 0.5 * np.sin(2 * np.pi * 0.02 * t),
    lambda t, d: 0.5 * np.sin(np.pi * t / d),
], ids=["0.02Hz-sinusoid", "half-sine"])
def test_a_slow_shape_leaves_the_amplitude_within_2pct(params, shape):
    # The model's 10 rpm tone at 250 Hz, sized as run_sweep sizes it, under
    # a 0.5 nm drift. The cubic reads within 1 %; a quadratic misses the
    # bound (+3.8 % and -6.9 %).
    f_hz = 10.0 / 60.0
    duration_s = 1.25 * 3.0 / f_hz / (1.0 - DEFAULT_DISCARD_FRACTION)
    scenario = Scenario(rpm=10.0, duration_s=duration_s, sample_rate_hz=250.0,
                        noise_sigma_nm=0.0, harmonic_weights=(1.0,))
    x = simulate(scenario, params).channel(0)
    x = x + shape(np.arange(x.shape[0]) / 250.0, duration_s)
    assert steady_amplitude(x, 250.0, expected_fundamental_hz=f_hz) == pytest.approx(
        abs(output_response(params, f_hz)), rel=0.02)


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
    assert len(calls) == len(report.points) == 10
    for (rpm, amp), (scenario, seed) in zip(report.points, calls):
        assert scenario.rpm == rpm and len(scenario.base_wavelength_nm) == 1
        x = reference_simulate(scenario, params, seed=seed).channel(0)
        y = x[int(round(DEFAULT_DISCARD_FRACTION * x.shape[0])):]
        phase = 2 * np.pi * rpm / 60.0 * np.arange(y.shape[0]) / FS
        u = np.linspace(-1.0, 1.0, y.shape[0])
        design = np.column_stack((np.sin(phase), np.cos(phase), np.ones_like(u), u, u ** 2,
                                  u ** 3))
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert amp == pytest.approx(np.hypot(coef[0], coef[1]), rel=1e-9)


@pytest.mark.parametrize("noise_nm,bound", [(0.002, 0.01), (0.05, 0.15)])
def test_noisy_paper_sweep_keeps_two_peaks_and_its_amplitudes(params, noise_nm, bound):
    template = Scenario(rpm=10.0, duration_s=10.0, noise_sigma_nm=noise_nm)
    report = run_sweep(default_rpm_grid(), template, params, seed=7)
    assert len(report.peak_rpms) == 2
    low, high = report.peak_rpms
    assert abs(low - 24.0) <= 6.0 and abs(high - 960.0) <= 60.0
    for rpm, amp in report.points:
        assert amp == pytest.approx(abs(output_response(params, rpm / 60.0)), rel=bound)


@pytest.fixture(scope="module")
def true_resonances(params):
    """(peak, low edge, high edge) rpm of the model's two resonances."""
    return response_resonances(params, 10.0, 2400.0)


def exact_points(params, rpms):
    return [(rpm, abs(output_response(params, rpm / 60.0))) for rpm in rpms]


@settings(max_examples=40, deadline=None)
@given(f1=st.floats(0.25, 1.0), f2=st.floats(8.0, 30.0), mass_ratio=st.floats(0.05, 0.5),
       damping=st.floats(0.02, 0.2))
# Unscaled, the fit's design had condition number 2.8e13 here and the low
# band's lower edge read 14.50962 rpm against 14.51147.
@example(f1=0.25, f2=8.0, mass_ratio=0.46816491897928314, damping=0.02)
def test_exact_curve_names_both_resonances_and_their_bands(f1, f2, mass_ratio, damping):
    params = default_params(f1, f2, mass_ratio, damping)
    report = analyze_sweep_points(exact_points(params, default_rpm_grid()), params)
    truth = response_resonances(params, 10.0, 2400.0)
    assert len(report.peak_rpms) == len(truth) == 2
    for rpm, band, expected in zip(report.peak_rpms, report.avoid_bands_rpm, truth):
        assert (rpm, *band) == pytest.approx(expected, rel=1e-4)


@pytest.mark.parametrize("noise_nm", [0.002, 0.05])
def test_noisy_paper_sweep_names_the_true_peaks_and_bands(params, true_resonances, noise_nm):
    template = Scenario(rpm=10.0, duration_s=10.0, noise_sigma_nm=noise_nm)
    report = run_sweep(default_rpm_grid(), template, params, seed=7)
    assert len(report.peak_rpms) == 2
    for rpm, band, (peak, low, high) in zip(report.peak_rpms, report.avoid_bands_rpm,
                                            true_resonances):
        assert rpm == pytest.approx(peak, rel=0.005)
        assert band == pytest.approx((low, high), rel=0.01)


def test_a_grid_above_the_low_mode_names_the_high_one(params, true_resonances):
    # The grid of acceptance criterion 9: 12 points from 60 to 2400 rpm.
    template = Scenario(rpm=60.0, duration_s=10.0, noise_sigma_nm=0.0)
    report = run_sweep(default_rpm_grid(60.0, 2400.0, 12), template, params, seed=2)
    assert report.peak_rpms == pytest.approx((true_resonances[1][0],), rel=0.001)
    assert report.attribution == ("manipulator-dominant",)


@pytest.mark.parametrize("n_points", [4, 5])
def test_five_points_or_fewer_report_no_peaks(params, n_points):
    # Around the high mode, where six exact points already name it.
    points = exact_points(params, default_rpm_grid()[30:30 + n_points])
    report = analyze_sweep_points(points, params)
    assert report.peak_rpms == report.avoid_bands_rpm == report.attribution == ()
    assert report.points == tuple(points)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_a_non_finite_amplitude_is_refused_with_its_rpm(params, bad):
    points = exact_points(params, default_rpm_grid())
    rpm = points[20][0]
    points[20] = (rpm, bad)
    with pytest.raises(DataError, match=f"sweep point at {rpm:g} rpm, amplitude {bad:g} nm"):
        analyze_sweep_points(points, params)


def test_a_third_resonance_is_refused(params):
    # A broad unbalance-driven mode at 300 rpm (damping 0.2) whose peak is
    # 5 % of the largest amplitude: the two-mode curve misses it.
    rpms = np.array(default_rpm_grid())
    amps = np.array([a for _, a in exact_points(params, rpms)])
    r = rpms / 300.0
    third = r ** 2 / np.abs(1.0 - r ** 2 + 0.4j * r)
    amps += 0.05 * amps.max() * third / third.max()
    with pytest.raises(DataError, match="relative RMS, above 0.25"):
        analyze_sweep_points(list(zip(rpms.tolist(), amps.tolist())), params)


def test_a_pole_inside_the_grid_is_refused(params):
    # Ten points from 20 rpm at 0.05 nm: the low mode falls between two points.
    template = Scenario(rpm=20.0, duration_s=10.0, noise_sigma_nm=0.05)
    with pytest.raises(DataError, match="the grid does not resolve the resonance near 23.9 rpm"):
        run_sweep(default_rpm_grid(20.0, 2000.0, 10), template, params, seed=0)


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
    # The fit reads the tone, not the sampled extremes: the nine printed
    # decimals bound the error, however sparse 200 Hz is at 40 Hz.
    for rpm, amp in report.points:
        assert amp == pytest.approx(abs(output_response(params, rpm / 60.0)), rel=1e-6)


def test_ingest_names_the_file_and_keeps_the_line_of_a_parse_error(tmp_path, params):
    path = tmp_path / "rpm_240.csv"
    path.write_text("time_s,fiber,aa,wavelength_nm\n0.000000,0,0,1535.3\nbad row\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 3: ") as caught:
        ingest_sweep_dir(tmp_path, params)
    assert caught.value.line == 3


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

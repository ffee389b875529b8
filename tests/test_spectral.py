import numpy as np
import pytest

from fbgvib import (DataError, ParameterError, Scenario, SpectralPeak, default_params,
                    features_from_spectrum, find_peaks, identify_features,
                    magnitude_spectrum, simulate, spectral)
from fbgvib.spectral import _window_values, fft_forward, spectrum_rows

from oracles import naive_dft, walk_find_peaks


# --- transform core -------------------------------------------------------

def test_empty_input_rejected():
    with pytest.raises(DataError):
        fft_forward([])


def test_unit_impulse_is_flat():
    bins = fft_forward([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(bins, np.ones(4), atol=1e-14)


def test_constant_input_is_dc_only():
    c = 3.7
    n = 100
    bins = fft_forward(np.full(n, c))
    assert abs(bins[0] - c * n) <= 1e-12 * c * n
    assert np.all(np.abs(bins[1:]) <= 1e-12 * c * n)


def test_on_bin_sine_1024_matches_naive():
    n = 1024
    fs = 1000.0
    f = 8 * fs / n
    x = np.sin(2 * np.pi * f * np.arange(n) / fs)
    bins = fft_forward(x)
    ref = naive_dft(x)
    assert np.linalg.norm(bins - ref) <= 1e-9 * np.linalg.norm(ref)
    k = 8
    assert abs(abs(bins[k]) - n / 2) < 1e-6
    assert abs(abs(bins[n - k]) - n / 2) < 1e-6
    others = np.delete(np.abs(bins), [k, n - k])
    assert others.max() < 1e-8 * n


def test_matches_naive_for_awkward_lengths():
    rng = np.random.default_rng(7)
    for n in [1, 2, 3, 5, 17, 31, 97, 120, 128, 255, 389, 512]:
        x = rng.normal(size=n)
        got = fft_forward(x)
        ref = naive_dft(x)
        assert np.linalg.norm(got - ref) <= 1e-9 * max(np.linalg.norm(ref), 1e-30)


def test_parseval():
    rng = np.random.default_rng(11)
    for n in [16, 91, 257]:
        x = rng.normal(size=n)
        bins = fft_forward(x)
        lhs = np.sum(x * x)
        rhs = np.sum(np.abs(bins) ** 2) / n
        assert abs(lhs - rhs) <= 1e-9 * lhs


def test_conjugate_symmetry_for_real_input():
    rng = np.random.default_rng(13)
    x = rng.normal(size=90)
    bins = fft_forward(x)
    scale = np.abs(bins).max()
    for k in range(1, 90):
        assert abs(bins[90 - k] - np.conj(bins[k])) <= 1e-12 * scale


def test_linearity():
    rng = np.random.default_rng(17)
    x, y = rng.normal(size=(2, 73))
    a, b = 2.5, -1.25
    lhs = fft_forward(a * x + b * y)
    rhs = a * fft_forward(x) + b * fft_forward(y)
    assert np.allclose(lhs, rhs, atol=1e-10 * np.abs(rhs).max())


def test_circular_shift_multiplies_by_phase_ramp():
    rng = np.random.default_rng(19)
    n, m = 64, 9
    x = rng.normal(size=n)
    shifted = np.roll(x, m)
    k = np.arange(n)
    expected = fft_forward(x) * np.exp(-2j * np.pi * k * m / n)
    assert np.allclose(fft_forward(shifted), expected, atol=1e-10 * n)


# --- magnitude spectrum ---------------------------------------------------

def test_axis_reaches_nyquist():
    freqs, _ = magnitude_spectrum(np.zeros(1000), 1000.0)
    assert freqs[0] == 0.0
    assert freqs[-1] == 500.0


def test_on_bin_unit_sine_reports_one():
    fs = 1000.0
    t = np.arange(10000) / fs
    x = np.sin(2 * np.pi * 2.0 * t)
    freqs, mags = magnitude_spectrum(x, fs, window="rectangular")
    k = np.argmax(mags)
    assert freqs[k] == pytest.approx(2.0, abs=1e-12)
    assert mags[k] == pytest.approx(1.0, abs=1e-6)
    # Hann normalization reports the same amplitude on a bin.
    _, mags_h = magnitude_spectrum(x, fs, window="hann")
    assert mags_h[k] == pytest.approx(1.0, rel=1e-6)


def test_simulated_120rpm_peak_near_2hz(params):
    trace = simulate(Scenario(rpm=120.0, duration_s=10.0), params, seed=5)
    x = trace.channel(0)
    freqs, mags = magnitude_spectrum(x - x.mean(), 1000.0)
    assert freqs[np.argmax(mags)] == pytest.approx(2.0, abs=0.1)


def test_spectrum_rows_format():
    text = spectrum_rows([0.0, 1.0], [0.5, 0.25])
    lines = text.strip().split("\n")
    assert lines[0] == "frequency_hz,magnitude_nm"
    assert len(lines) == 3


# --- peak finding ---------------------------------------------------------

def test_flat_spectrum_has_no_peaks():
    assert find_peaks(np.arange(10.0), np.ones(10), 0.01) == []


def test_two_tone_order():
    fs = 1000.0
    t = np.arange(20000) / fs
    x = 1.0 * np.sin(2 * np.pi * 2.0 * t) + 0.3 * np.sin(2 * np.pi * 4.0 * t)
    freqs, mags = magnitude_spectrum(x, fs)
    peaks = find_peaks(freqs, mags, 0.01)
    assert [round(p.frequency_hz, 6) for p in peaks] == [2.0, 4.0]


def test_min_prominence_must_be_positive():
    with pytest.raises(ParameterError):
        find_peaks([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], 0.0)


def test_max_freq_restriction():
    fs = 1000.0
    t = np.arange(20000) / fs
    x = np.sin(2 * np.pi * 2.0 * t) + np.sin(2 * np.pi * 60.0 * t)
    freqs, mags = magnitude_spectrum(x, fs)
    peaks = find_peaks(freqs, mags, 0.01, max_freq_hz=40.0)
    assert [round(p.frequency_hz, 6) for p in peaks] == [2.0]


@pytest.mark.parametrize("where", ["freqs", "mags"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_spectrum_is_a_data_error(where, bad):
    freqs, mags = np.arange(40) * 0.1, np.sin(np.arange(40.0)) ** 2
    {"freqs": freqs, "mags": mags}[where][7] = bad
    with pytest.raises(DataError, match="finite"):
        find_peaks(freqs, mags, 0.01)
    with pytest.raises(DataError):
        features_from_spectrum(freqs, mags)


@pytest.mark.parametrize("settings", [{"max_freq_hz": np.nan}, {"min_prominence": np.nan},
                                      {"min_prominence": np.inf}])
def test_nan_cut_or_non_finite_prominence_is_a_parameter_error(settings):
    freqs, mags = np.arange(40) * 0.1, np.sin(np.arange(40.0)) ** 2
    with pytest.raises(ParameterError):
        find_peaks(freqs, mags, **settings)
    with pytest.raises(ParameterError):
        features_from_spectrum(freqs, mags, **settings)


def test_pruned_walk_matches_the_full_walk_on_a_stepped_window(params, monkeypatch):
    # One monitor window: 10 s at 240 rpm with a 0.45 nm collision step.
    trace = simulate(Scenario(rpm=240.0, duration_s=10.0), params, seed=13)
    x = trace.channel(0) + 0.45 * (np.arange(trace.n_samples) >= 5200)
    freqs, mags = magnitude_spectrum(x - x.mean(), 1000.0, window="hann")
    peaks = find_peaks(freqs, mags)
    assert peaks == walk_find_peaks(freqs, mags, spectral.DEFAULT_MIN_PROMINENCE_NM,
                                    spectral.DEFAULT_MAX_FREQ_HZ)
    # Most maxima are pruned before the walk; a few pass.
    maxima = find_peaks(freqs, mags, min_prominence=1e-300, max_freq_hz=np.inf)
    assert 0 < len(peaks) < len(maxima) // 10
    features = identify_features(x, 1000.0, rpm_hint=240.0)
    monkeypatch.setattr(spectral, "find_peaks", walk_find_peaks)
    assert identify_features(x, 1000.0, rpm_hint=240.0) == features


def test_window_values_are_shared_and_read_only():
    w, total = _window_values("hann", 64)
    assert _window_values("hann", 64)[0] is w
    assert total == np.sum(w)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 1.0


def test_unknown_window_rejected():
    with pytest.raises(ParameterError, match="unknown window"):
        magnitude_spectrum(np.ones(8), 1000.0, window="hamming")


# --- feature identification ----------------------------------------------

def test_resolution_precondition():
    with pytest.raises(DataError):
        identify_features(np.zeros(1000), 1000.0)  # 1 s record


def test_constructed_harmonics():
    fs = 1000.0
    t = np.arange(30000) / fs
    x = (1.0 * np.sin(2 * np.pi * 3.0 * t)
         + 0.4 * np.sin(2 * np.pi * 6.0 * t)
         + 0.2 * np.sin(2 * np.pi * 9.0 * t))
    feats = identify_features(x, fs, min_prominence=0.05)
    assert feats.fundamental_hz == pytest.approx(3.0, abs=fs / 30000)
    assert [round(h) for h in feats.harmonics_hz] == [6, 9]


def test_a_one_bin_fundamental_takes_no_neighbouring_harmonic():
    # A 10 s window without a hint whose strongest line is bin 1 (0.1 Hz):
    # the peaks at 0.3 and 0.5 Hz are the third and fifth harmonics only.
    freqs = np.arange(501) / 10.0
    mags = np.full(501, 1e-4)
    mags[[1, 3, 5]] = 1.0, 0.5, 0.3
    feats = features_from_spectrum(freqs, mags)
    assert feats.fundamental_hz == pytest.approx(0.1)
    assert feats.harmonics_hz == (0.3, 0.5)


def test_features_from_spectrum_matches_identify_features():
    fs = 1000.0
    t = np.arange(10000) / fs
    x = 1535.3 + 0.3 * np.sin(2 * np.pi * 2.04 * t) + 0.1 * np.sin(2 * np.pi * 4.0 * t)
    freqs, mags = magnitude_spectrum(x - x.mean(), fs, window="hann")
    expected = identify_features(x, fs, rpm_hint=120.0, min_prominence=0.05)
    assert features_from_spectrum(freqs, mags, rpm_hint=120.0,
                                  min_prominence=0.05) == expected
    assert expected.harmonics_hz


def test_fundamental_snaps_to_rpm_hint():
    fs = 1000.0
    t = np.arange(10000) / fs
    x = np.sin(2 * np.pi * 2.04 * t)  # slightly off-bin
    feats = identify_features(x, fs, rpm_hint=120.0, min_prominence=0.05)
    assert feats.fundamental_hz == pytest.approx(2.0, abs=1e-12)


def test_rpm_hint_finds_the_tool_line_next_to_a_step(params):
    # A 10 s monitor window at 240 rpm with a 0.35 nm step at 5 s: the
    # step's leakage at 0.1 Hz is the strongest peak above the shape band.
    trace = simulate(Scenario(rpm=240.0, duration_s=10.0), params, seed=3)
    x = trace.channel(0) + 0.35 * (np.arange(trace.n_samples) >= 5000)
    assert identify_features(x, 1000.0, rpm_hint=240.0).fundamental_hz == 4.0
    # Without a hint, or with a tool at rest, the strongest peak stays.
    assert identify_features(x, 1000.0).fundamental_hz == pytest.approx(0.1)
    assert identify_features(x, 1000.0, rpm_hint=0.0).fundamental_hz == pytest.approx(0.1)


@pytest.mark.parametrize("hint", [-120.0, -1e-9, np.nan, np.inf])
def test_negative_or_non_finite_rpm_hint_is_a_parameter_error(hint):
    x = np.sin(2 * np.pi * 2.0 * np.arange(10000) / 1000.0)
    with pytest.raises(ParameterError, match="rpm_hint"):
        identify_features(x, 1000.0, rpm_hint=hint)


def test_rpm_zero_bending_trace_has_base_only(params):
    from fbgvib import BendProfile
    scenario = Scenario(rpm=0.0, duration_s=150.0, bend=BendProfile())
    trace = simulate(scenario, params, seed=2)
    feats = identify_features(trace.channel(0), 1000.0)
    assert feats.fundamental_hz is None
    assert feats.base_frequency_hz == pytest.approx(1.0 / 150.0, abs=2.0 / 150.0)


def test_frequency_lock_across_rpms(params):
    # Magnitude-spectrum argmax (DC excluded) within one bin of rpm/60.
    for rpm in (24.0, 120.0, 240.0, 960.0, 1800.0):
        scenario = Scenario(rpm=rpm, duration_s=10.0, noise_sigma_nm=0.0)
        trace = simulate(scenario, params, seed=1)
        x = trace.channel(0)
        freqs, mags = magnitude_spectrum(x - x.mean(), 1000.0)
        k = np.argmax(mags[1:]) + 1
        assert abs(freqs[k] - rpm / 60.0) <= 1000.0 / x.shape[0]

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fbgvib import (BendProfile, DataError, ParameterError, Scenario,
                    TwoDofParams, UndampedResonanceError, WavelengthTrace,
                    bend_curvature, default_params, frf_amplitude, output_response,
                    preset_scenario, simulate)
from fbgvib.dataio import CHUNK_ROWS

from oracles import ode_steady_amplitudes, reference_simulate, two_walk_bend_knots


# --- parameter validation -------------------------------------------------

def test_nonpositive_mass_rejected():
    with pytest.raises(ParameterError):
        TwoDofParams(m1=0.0, m2=0.1, k1=100.0, k2=1.0)


def test_negative_damper_rejected():
    with pytest.raises(ParameterError):
        TwoDofParams(m1=1.0, m2=0.1, k1=100.0, k2=1.0, c1=-0.1)


def test_degenerate_targets_rejected():
    with pytest.raises(ParameterError):
        default_params(2.0, 2.0, 0.1, 0.05)


def test_bad_mass_ratio_rejected():
    with pytest.raises(ParameterError):
        default_params(0.4, 16.0, 1.5, 0.05)


# --- calibration ----------------------------------------------------------

def test_default_targets_recovered():
    p = default_params(0.4, 16.0, 0.1, 0.05)
    f1, f2 = p.natural_frequencies_hz()
    assert f1 == pytest.approx(0.4, rel=1e-6)
    assert f2 == pytest.approx(16.0, rel=1e-6)


def test_eigenfrequencies_by_characteristic_polynomial():
    # Independent check: roots of det(K - lambda M) for (1, 2) Hz, zero damping.
    p = default_params(1.0, 2.0, 0.5, 0.0)
    coeffs = [p.m1 * p.m2,
              -(p.m1 * p.k2 + p.m2 * (p.k1 + p.k2)),
              p.k1 * p.k2]
    lam = np.sort(np.roots(coeffs))
    freqs = np.sqrt(lam) / (2 * np.pi)
    assert freqs[0] == pytest.approx(1.0, rel=1e-9)
    assert freqs[1] == pytest.approx(2.0, rel=1e-9)
    assert p.c1 == 0.0 and p.c2 == 0.0


# --- frequency response ---------------------------------------------------

def test_zero_forcing_gives_zero_response(params):
    assert frf_amplitude(params, 0.0) == (0.0, 0.0)


def test_negative_forcing_rejected(params):
    with pytest.raises(ParameterError):
        frf_amplitude(params, -1.0)


def test_undamped_resonance_raises():
    p = default_params(1.0, 2.0, 0.5, 0.0)
    with pytest.raises(UndampedResonanceError):
        frf_amplitude(p, 1.0)


def test_undamped_response_between_the_modes_has_phase_plus_pi():
    # Undamped, the phasor is a negative real number between the modes; its
    # imaginary zero must not carry a sign that turns the phase into -pi.
    params = default_params(damping_ratio=0.0)
    phases = {float(np.angle(output_response(params, m * rpm / 60.0)))
              for rpm in range(25, 320) for m in (1, 2, 3) if 0.5 < m * rpm / 60.0 < 15.0}
    assert phases == {np.pi}


def test_two_local_maxima_on_swept_output(params):
    freqs = np.geomspace(0.05, 40.0, 2000)
    amps = np.array([abs(output_response(params, f)) for f in freqs])
    peaks = [i for i in range(1, len(freqs) - 1)
             if amps[i] > amps[i - 1] and amps[i] > amps[i + 1]]
    assert len(peaks) == 2
    assert freqs[peaks[0]] == pytest.approx(0.4, abs=0.1)
    assert freqs[peaks[1]] == pytest.approx(16.0, abs=1.0)


def test_frf_matches_ode_oracle_at_4hz(params):
    a1, a2 = ode_steady_amplitudes(params, 4.0)
    p1, p2 = frf_amplitude(params, 4.0)
    assert a1 == pytest.approx(p1, rel=0.01)
    assert a2 == pytest.approx(p2, rel=0.01)


# --- bend profile ---------------------------------------------------------

def test_bend_initial_condition():
    assert bend_curvature(BendProfile(), 0.0) == (0.0, 0.0)


def test_pull_at_cable_speed():
    profile = BendProfile(segments=(("pull", 60.0),), cable_speed_mm_s=0.1)
    _, disp = bend_curvature(profile, 60.0)
    assert disp == pytest.approx(6.0, abs=1e-12)


def test_full_cycle_returns_to_zero():
    profile = BendProfile(segments=(("pull", 60.0), ("release", 60.0)))
    kappa, disp = bend_curvature(profile, 120.0)
    assert disp == pytest.approx(0.0, abs=1e-9)
    assert kappa == pytest.approx(0.0, abs=1e-9)


def test_time_outside_profile_rejected():
    with pytest.raises(DataError):
        bend_curvature(BendProfile(), 1e6)


def test_overdrawn_release_rejected():
    with pytest.raises(ParameterError):
        BendProfile(segments=(("pull", 10.0), ("release", 20.0)))


@pytest.mark.parametrize("field,value", [
    ("cable_speed_mm_s", float("nan")), ("curvature_gain", float("nan")),
    ("slack_threshold_mm", float("nan")), ("slack_amplitude_scale", float("inf")),
    ("segments", (("pull", float("nan")),)), ("segments", (("hold", float("inf")),))],
    ids=["cable-speed-nan", "gain-nan", "threshold-nan", "scale-inf", "duration-nan",
         "duration-inf"])
def test_non_finite_bend_value_rejected(field, value):
    with pytest.raises(ParameterError):
        BendProfile(**{field: value})


@pytest.mark.parametrize("kind", ["twist", "Pull", ["pull"], None, 1])
def test_unknown_bend_phase_rejected(kind):
    with pytest.raises(ParameterError, match="unknown bend phase"):
        BendProfile(segments=(("pull", 1.0), (kind, 1.0)))


def test_hold_keeps_displacement():
    profile = BendProfile(segments=(("pull", 10.0), ("hold", 5.0), ("release", 10.0)))
    _, d1 = bend_curvature(profile, 10.0)
    _, d2 = bend_curvature(profile, 15.0)
    assert d1 == d2 == pytest.approx(1.0)


def _ulps(x, k):
    """x moved k ulps up (k < 0: down)."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, np.inf if k > 0 else -np.inf))
    return x


def _bend_outcome(build):
    """The knots ``build`` gives as exact bytes, or the refusal's message."""
    try:
        return tuple(k.tobytes() for k in build())
    except ParameterError as exc:
        return str(exc)


def _assert_the_two_walks(segments, speed):
    want = _bend_outcome(lambda: two_walk_bend_knots(segments, speed))
    got = _bend_outcome(lambda: BendProfile(segments=segments, cable_speed_mm_s=speed).knots)
    assert got == want
    if not isinstance(want, str):
        total = BendProfile(segments=segments, cable_speed_mm_s=speed).total_duration_s
        assert total.hex() == float(sum(d for _, d in segments)).hex()
    return want


@settings(max_examples=300, deadline=None)
@given(data=st.data(), speed=st.floats(1e-3, 1e3), n=st.integers(1, 6))
def test_bend_knots_and_refusals_are_the_two_walks_bit_for_bit(data, speed, n):
    # A release either takes a free duration or one that puts the running
    # sum within a few ulps of -1e-12, where the refusal turns.
    segments, disp = [], 0.0
    for _ in range(n):
        kind = data.draw(st.sampled_from(["hold", "pull", "release"]), label="kind")
        duration = data.draw(st.floats(1e-3, 1e3), label="duration")
        if kind == "release" and data.draw(st.booleans(), label="near the edge"):
            edge = _ulps((disp + 1e-12) / speed, data.draw(st.integers(-3, 3), label="ulps"))
            duration = edge if edge > 0 else duration
        segments.append((kind, duration))
        disp += {"hold": 0.0, "pull": 1.0, "release": -1.0}[kind] * speed * duration
    _assert_the_two_walks(tuple(segments), speed)


def test_a_release_to_just_below_zero_is_refused_as_the_two_walks_refuse():
    # The running sum is 1 - d exactly here, so the durations step across
    # -1e-12 one ulp at a time: both outcomes occur, each as the oracle's.
    outcomes = [_assert_the_two_walks((("pull", 1.0), ("release", _ulps(1.0 + 1e-12, k))), 1.0)
                for k in range(-3, 4)]
    assert {isinstance(o, str) for o in outcomes} == {True, False}


def test_bend_knots_are_derived_and_not_settable():
    profile = BendProfile(segments=(("pull", 10.0), ("hold", 5.0), ("release", 4.0)))
    times, disps = profile.knots
    assert times.tolist() == [0.0, 10.0, 15.0, 19.0] and disps[-1] == pytest.approx(0.6)
    with pytest.raises(TypeError):
        BendProfile(knots=(times, disps))
    moved = dataclasses.replace(profile, cable_speed_mm_s=0.2)
    assert moved.knots[1][1] == 2.0 and moved != profile
    assert profile == BendProfile(segments=profile.segments) and "knots" not in repr(profile)
    assert hash(profile) == hash(BendProfile(segments=profile.segments))


# --- scenarios and simulation ----------------------------------------------

def test_nyquist_margin_enforced():
    with pytest.raises(ParameterError):
        Scenario(rpm=2400.0, duration_s=1.0, sample_rate_hz=200.0)


def test_rpm_range_enforced():
    with pytest.raises(ParameterError):
        Scenario(rpm=3000.0, duration_s=1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_non_finite_or_nonpositive_rate_and_duration_rejected(value):
    with pytest.raises(ParameterError):
        Scenario(rpm=120.0, duration_s=value)
    with pytest.raises(ParameterError):
        Scenario(rpm=120.0, duration_s=1.0, sample_rate_hz=value)
    with pytest.raises(ParameterError):
        WavelengthTrace(value, np.full((2, 3), 1535.3))


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
def test_non_finite_or_negative_noise_rejected(sigma):
    # `nan > 0` is false: a NaN sigma would simulate a noise-free trace.
    with pytest.raises(ParameterError):
        Scenario(rpm=120.0, duration_s=1.0, noise_sigma_nm=sigma)


@pytest.mark.parametrize("base", [float("nan"), float("inf"), 1509.9, 1600.0,
                                  (1535.3, float("nan"), 1535.3)])
def test_base_wavelength_outside_the_band_rejected(base):
    # A NaN base used to simulate all-NaN channels without an error.
    with pytest.raises(ParameterError, match="base_wavelength_nm"):
        Scenario(rpm=60.0, duration_s=1.0, base_wavelength_nm=base)


def test_base_wavelength_band_edges_accepted():
    assert Scenario(rpm=60.0, duration_s=1.0,
                    base_wavelength_nm=(1510.0, 1535.3, 1590.0)).base_wavelength_nm == (
                        1510.0, 1535.3, 1590.0)


@pytest.mark.parametrize("base", [(), (1535.3,) * 4])
def test_base_wavelength_count_is_one_to_three_areas(base):
    # Four values used to simulate an area labelled 3, which the writer
    # refuses; none simulated a trace with no channel.
    with pytest.raises(ParameterError, match="1 to 3 values"):
        Scenario(rpm=60.0, duration_s=1.0, base_wavelength_nm=base)


def test_one_base_wavelength_simulates_one_area(params):
    trace = simulate(Scenario(rpm=60.0, duration_s=1.0, base_wavelength_nm=(1540.0,)),
                     params, seed=1)
    assert trace.labels == ((0, 0),)


def test_unknown_preset_rejected():
    with pytest.raises(ParameterError):
        preset_scenario("soft-9000rpm")


def test_presets_cover_both_tools():
    assert preset_scenario("soft-70rpm").rpm == 70.0
    assert preset_scenario("hard-2250rpm").rpm == 2250.0


def test_zero_excitation_gives_constant_trace(params):
    scenario = Scenario(rpm=0.0, duration_s=2.0, noise_sigma_nm=0.0)
    trace = simulate(scenario, params, seed=0)
    assert np.all(trace.channels == 1535.3)


def test_determinism_bit_identical(params):
    scenario = Scenario(rpm=240.0, duration_s=3.0, bend=None)
    a = simulate(scenario, params, seed=42)
    b = simulate(scenario, params, seed=42)
    assert np.array_equal(a.channels, b.channels)
    c = simulate(scenario, params, seed=43)
    assert not np.array_equal(a.channels, c.channels)


def test_240rpm_oscillates_four_times_per_second(params):
    scenario = Scenario(rpm=240.0, duration_s=10.0, noise_sigma_nm=0.0)
    x = simulate(scenario, params, seed=0).channel(0)
    x = x - x.mean()
    # Count upward zero crossings per second.
    crossings = np.sum((x[:-1] < 0) & (x[1:] >= 0))
    assert crossings == pytest.approx(4.0 * 10.0, abs=1)


def test_bend_trace_peak_near_1536_6(params):
    scenario = Scenario(rpm=120.0, duration_s=150.0, bend=BendProfile())
    trace = simulate(scenario, params, seed=3)
    assert trace.channel(0).max() == pytest.approx(1536.6, abs=0.1)


def test_slack_scales_vibration_near_straight(params):
    scenario = Scenario(rpm=120.0, duration_s=150.0, bend=BendProfile(),
                        noise_sigma_nm=0.0)
    x = simulate(scenario, params, seed=0).channel(0)
    base = 1535.3 + 13.0 * bend_curvature(BendProfile(), np.arange(150000) / 1000.0)[0]
    resid = x - base
    slack_amp = 0.5 * (resid[1000:4000].max() - resid[1000:4000].min())
    mid_amp = 0.5 * (resid[70000:73000].max() - resid[70000:73000].min())
    assert slack_amp == pytest.approx(4.0 * mid_amp, rel=0.02)


def test_duration_beyond_bend_profile_rejected(params):
    with pytest.raises(ParameterError):
        simulate(Scenario(rpm=120.0, duration_s=1000.0, bend=BendProfile()),
                 params, seed=0)


# --- in-place assembly against the whole-array formula ----------------------

@pytest.mark.parametrize("n", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                               2 * CHUNK_ROWS + 3])
@pytest.mark.parametrize("bent", [False, True], ids=["straight", "bend"])
@settings(max_examples=12, deadline=None)
@given(rpm=st.one_of(st.just(0.0), st.floats(1.0, 2400.0)),
       bases=st.lists(st.floats(1510.0, 1590.0), min_size=1, max_size=3),
       weights=st.tuples(st.floats(0.1, 2.0), st.sampled_from([0.0, 0.15]),
                         st.sampled_from([0.0, 0.05])),
       noise=st.one_of(st.just(0.0), st.floats(1e-4, 0.05)),
       seed=st.integers(0, 2 ** 31 - 1))
@example(rpm=0.0, bases=[1535.3], weights=(1.0, 0.0, 0.0), noise=0.0, seed=0)
@example(rpm=120.0, bases=[1535.3] * 3, weights=(1.0, 0.0, 0.05), noise=0.002, seed=7)
def test_simulate_matches_the_whole_array_formula_bit_for_bit(params, n, bent, rpm, bases,
                                                              weights, noise, seed):
    fs = 250.0  # a bend of n / fs seconds leaves the slack zone within the record
    duration = n / fs
    bend = BendProfile(segments=(("pull", 0.4 * duration), ("hold", 0.2 * duration),
                                 ("release", 0.4 * duration))) if bent else None
    scenario = Scenario(rpm=rpm, duration_s=duration, sample_rate_hz=fs, bend=bend,
                        noise_sigma_nm=noise, base_wavelength_nm=tuple(bases),
                        harmonic_weights=weights)
    got = simulate(scenario, params, seed=seed)
    want = reference_simulate(scenario, params, seed=seed)
    assert got.channels.shape == want.channels.shape == (n, len(bases))
    assert np.array_equal(got.channels, want.channels)
    assert np.array_equal(np.signbit(got.channels), np.signbit(want.channels))
    assert got.labels == want.labels and got.sample_rate_hz == want.sample_rate_hz


@pytest.mark.parametrize("bent", [False, True], ids=["straight", "bend"])
@pytest.mark.parametrize("noise", [0.0, 0.002])
def test_simulate_holds_contiguous_channels_and_three_work_arrays_at_most(params, bent, noise):
    # numpy reports its buffers to tracemalloc. The whole-array formula peaks
    # at 9 to 12 arrays of n doubles for 3 areas; in place it is 4 to 5.4.
    scenario = Scenario(rpm=120.0, duration_s=100.0, noise_sigma_nm=noise,
                        bend=BendProfile(segments=(("pull", 50.0), ("release", 50.0)))
                        if bent else None)
    n, areas = 100_000, 3
    tracemalloc.start()
    try:
        trace = simulate(scenario, params, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.channels.shape == (n, areas)
    assert all(trace.channel(i).flags.c_contiguous for i in range(areas))
    assert peak <= (areas + 3) * n * 8

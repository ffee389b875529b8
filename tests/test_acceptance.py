"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured quantities (run with -s to see them all)."""

import numpy as np
import pytest

from fbgvib import (BendProfile, Scenario, apply_zero_phase, bend_curvature,
                    default_rpm_grid, design_bandstop, detect_steps, find_peaks,
                    frf_amplitude, identify_features, magnitude_spectrum,
                    run_sweep, simulate, steady_amplitude)
from fbgvib.cli import main as cli_main
from fbgvib.spectral import fft_forward

from oracles import naive_dft, ode_steady_amplitudes, rk4_frenet_tips

FS = 1000.0


def test_criterion_1_dft_oracle_and_parseval():
    rng = np.random.default_rng(2024)
    lengths = [1, 2, 3, 5, 7, 11, 13, 61, 127, 197, 241, 251, 257, 389, 509, 511, 512]
    lengths += list(rng.integers(1, 513, size=200 - len(lengths)))
    worst_norm = worst_parseval = 0.0
    for n in lengths:
        x = rng.normal(size=int(n))
        bins = fft_forward(x)
        ref = naive_dft(x)
        scale = max(np.linalg.norm(ref), 1e-30)
        worst_norm = max(worst_norm, np.linalg.norm(bins - ref) / scale)
        lhs = float(np.sum(x * x))
        rhs = float(np.sum(np.abs(bins) ** 2) / n)
        if lhs > 0:
            worst_parseval = max(worst_parseval, abs(lhs - rhs) / lhs)
    assert worst_norm <= 1e-9
    assert worst_parseval <= 1e-9
    print(f"\nPASS criterion 1: fast transform vs direct sum over "
          f"{len(lengths)} signals, worst relative norm {worst_norm:.2e}, "
          f"worst Parseval error {worst_parseval:.2e}")


def test_criterion_2_fundamental_identification(params):
    results = {}
    for rpm, expected in ((120.0, 2.0), (240.0, 4.0), (960.0, 16.0)):
        trace = simulate(Scenario(rpm=rpm, duration_s=10.0), params, seed=int(rpm))
        feats = identify_features(trace.channel(0), FS)
        assert feats.fundamental_hz is not None
        assert abs(feats.fundamental_hz - expected) <= 0.1
        results[rpm] = feats.fundamental_hz
    print(f"\nPASS criterion 2: fundamentals at 120/240/960 rpm = "
          f"{results[120.0]:.3f}/{results[240.0]:.3f}/{results[960.0]:.3f} Hz "
          f"(targets 2/4/16, tolerance 0.1 Hz)")


def test_criterion_3_resonance_sweep(params):
    template = Scenario(rpm=10.0, duration_s=10.0, noise_sigma_nm=0.0)
    report = run_sweep(default_rpm_grid(10.0, 2400.0, 40), template, params, seed=0)
    assert len(report.peak_rpms) == 2
    low, high = report.peak_rpms
    assert abs(low - 24.0) <= 6.0
    assert abs(high - 960.0) <= 60.0
    assert report.attribution == ("sensor-dominant", "manipulator-dominant")
    print(f"\nPASS criterion 3: exactly two sweep peaks at {low:.1f} rpm "
          f"(sensor-dominant) and {high:.1f} rpm (manipulator-dominant)")


def test_criterion_4_high_rpm_quiescence(params):
    bend = BendProfile()
    trace = simulate(Scenario(rpm=2400.0, duration_s=150.0, bend=bend),
                     params, seed=7)
    x = trace.channel(0)
    freqs, mags = magnitude_spectrum(x - x.mean(), FS, window="hann")
    peaks = find_peaks(freqs, mags, min_prominence=0.01, max_freq_hz=40.0)
    in_band = [p for p in peaks if 0.05 < p.frequency_hz < 40.0]
    assert in_band == []

    amps = {}
    for rpm in (240.0, 2400.0):
        straight = simulate(Scenario(rpm=rpm, duration_s=100.0,
                                     noise_sigma_nm=0.0), params, seed=1)
        amps[rpm] = steady_amplitude(straight.channel(0), FS,
                                     expected_fundamental_hz=rpm / 60.0)
    ratio = amps[2400.0] / amps[240.0]
    assert ratio < 0.25
    print(f"\nPASS criterion 4: 2400 rpm bending trace has no peak above "
          f"0.01 nm prominence in (0.05, 40) Hz; amplitude ratio "
          f"2400/240 rpm = {ratio:.3f} < 0.25")


def test_criterion_5_filtering_efficacy(params):
    spec = design_bandstop(2.0, 3, sample_rate_hz=FS)
    worst_notch_db = max(
        20.0 * np.log10(max(abs(spec.response(c)), 1e-300))
        for c, _ in spec.notches)
    assert worst_notch_db <= -40.0

    bend = BendProfile()
    trace = simulate(Scenario(rpm=120.0, duration_s=150.0, bend=bend),
                     params, seed=3)
    x = trace.channel(0)
    filtered = apply_zero_phase(spec, x)

    freqs, before = magnitude_spectrum(x - x.mean(), FS, window="hann")
    _, after = magnitude_spectrum(filtered - filtered.mean(), FS, window="hann")
    line_drops_db = []
    for center, _ in spec.notches:
        k = int(np.argmin(np.abs(freqs - center)))
        line_drops_db.append(20.0 * np.log10(before[k] / max(after[k], 1e-300)))
    energy_drop_db = min(line_drops_db)
    assert energy_drop_db >= 40.0

    truth = 1535.3 + 13.0 * bend_curvature(bend, trace.times())[0]
    rms = float(np.sqrt(np.mean((filtered - truth) ** 2)))
    assert rms <= 0.01

    axis, _ = magnitude_spectrum(np.zeros(1000), FS)
    assert axis[-1] == 500.0
    print(f"\nPASS criterion 5: single-pass notch response "
          f"{worst_notch_db:.1f} dB (<= -40), weakest tool-line drop "
          f"{energy_drop_db:.1f} dB, bend-waveform RMS error {rms:.4f} nm "
          f"(<= 0.01), axis reaches {axis[-1]:.0f} Hz")


def test_criterion_6_event_detection(params):
    bend = BendProfile()
    spec = design_bandstop(2.0, 3, sample_rate_hz=FS)
    detected = 0
    false_positives = 0
    min_spurious = None
    for seed in range(20):
        trace = simulate(Scenario(rpm=120.0, duration_s=150.0, bend=bend),
                         params, seed=seed)
        x = trace.channel(0).copy()
        step_index = 25000 + seed * 4500  # mid-record, away from slack ends
        x[step_index:] += 0.5

        raw_report = detect_steps(x, sample_rate_hz=FS)
        spurious = sum(1 for e in raw_report.events
                       if abs(e.index - step_index) > 500)
        min_spurious = spurious if min_spurious is None else min(min_spurious, spurious)

        filtered = apply_zero_phase(spec, x)
        report = detect_steps(filtered, sample_rate_hz=FS)
        hits = [e for e in report.events if abs(e.index - step_index) <= 500]
        detected += bool(hits)
        false_positives += len(report.events) - len(hits)
    assert detected == 20
    assert false_positives == 0
    assert min_spurious >= 5
    print(f"\nPASS criterion 6: 20/20 injected 0.5 nm steps recovered with "
          f"0 false positives on filtered traces; unfiltered traces raise "
          f">= {min_spurious} spurious events each")


def test_criterion_7_shape_oracle():
    from fbgvib import CmGeometry, reconstruct, tips_for_curvatures
    geometry = CmGeometry()
    length = geometry.length_mm
    rng = np.random.default_rng(99)
    kappas = rng.uniform(-30.0, 30.0, size=(1000, 3))
    oracle = rk4_frenet_tips(kappas, geometry.segment_lengths_mm())
    tips = tips_for_curvatures(kappas, geometry)
    worst = float(np.max(np.abs(tips - oracle)))
    assert worst <= 1e-6 * length

    straight = reconstruct([0.0, 0.0, 0.0], geometry)
    assert abs(straight.tip_mm[0]) <= 1e-9
    assert abs(straight.tip_mm[1] - length) <= 1e-9
    quarter = np.pi / (2.0 * length) * 1000.0
    arc = reconstruct([quarter] * 3, geometry)
    target = 2.0 * length / np.pi
    assert abs(arc.tip_mm[0] - target) <= 1e-9
    assert abs(arc.tip_mm[1] - target) <= 1e-9
    print(f"\nPASS criterion 7: 1000 random curvature triples match the "
          f"fine-step integration within {worst:.2e} mm (<= {1e-6 * length:.2e}); "
          f"straight and quarter-circle tips exact to 1e-9")


def test_criterion_8_frf_matches_time_stepping(params):
    worst = 0.0
    for f_hz in (0.2, 0.4, 1.0, 4.0, 16.0, 40.0):
        a1, a2 = ode_steady_amplitudes(params, f_hz)
        p1, p2 = frf_amplitude(params, f_hz)
        worst = max(worst, abs(a1 - p1) / p1, abs(a2 - p2) / p2)
    assert worst <= 0.01
    print(f"\nPASS criterion 8: closed-form response vs time-stepped steady "
          f"state within {100 * worst:.4f}% at six probe frequencies (<= 1%)")


def test_criterion_9_byte_identical_outputs(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        trace = tmp_path / f"trace_{tag}.csv"
        sweep_csv = tmp_path / f"sweep_{tag}.csv"
        spectrum = tmp_path / f"spec_{tag}.csv"
        assert cli_main(["simulate", "--rpm", "120", "--duration", "20",
                         "--seed", "5", "--bend", "pull=10,release=10",
                         "--out", str(trace)]) == 0
        assert cli_main(["analyze", str(trace), "--out", str(spectrum)]) == 0
        assert cli_main(["sweep", "--rpm-min", "60", "--rpm-max", "2400",
                         "--points", "12", "--seed", "2",
                         "--out", str(sweep_csv)]) == 0
        outputs.append((trace.read_bytes(), spectrum.read_bytes(),
                        sweep_csv.read_bytes()))
    assert outputs[0] == outputs[1]
    print("\nPASS criterion 9: simulate/analyze/sweep outputs byte-identical "
          "across two runs at fixed seed and configuration")

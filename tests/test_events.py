import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbgvib import (BendProfile, DataError, EventReport, ParameterError, Scenario, StepEvent,
                    design_bandstop, apply_zero_phase, detect_steps, simulate)
from fbgvib.events import events_csv_text

from oracles import max_cusum_detect_steps

FS = 1000.0


def test_bad_threshold_configuration_rejected():
    with pytest.raises(ParameterError):
        detect_steps(np.zeros(1000), threshold_nm=0.01, drift_nm=0.02)
    with pytest.raises(ParameterError):
        detect_steps(np.zeros(1000), threshold_nm=0.2, drift_nm=0.0)


def test_nan_sample_cannot_hide_a_step():
    # max(0.0, nan) is 0.0: a NaN would reset both accumulators and lose the step.
    x = np.full(5000, 1535.3)
    x[2500:] += 1.0
    assert len(detect_steps(x).events) == 1
    x[2550] = np.nan
    with pytest.raises(DataError, match="sample 2550"):
        detect_steps(x)


def test_report_refuses_events_out_of_time_order_or_below_threshold():
    first = StepEvent(index=99, time_s=0.1, magnitude_nm=0.3, direction="up")
    second = StepEvent(index=199, time_s=0.2, magnitude_nm=0.25, direction="down")
    assert EventReport(events=[first, second], threshold_nm=0.25).events == (first, second)
    with pytest.raises(DataError, match="ordered by time"):
        EventReport(events=(second, first), threshold_nm=0.25)
    with pytest.raises(DataError, match="threshold"):
        EventReport(events=(first, second), threshold_nm=0.26)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_window_or_rate_rejected(value):
    with pytest.raises(ParameterError):
        detect_steps(np.zeros(1000), window_s=value)
    with pytest.raises(ParameterError):
        detect_steps(np.zeros(1000), sample_rate_hz=value)


def test_constant_input_no_events():
    report = detect_steps(np.full(20000, 1535.3))
    assert report.events == ()


def test_slow_ramp_within_drift_no_events():
    t = np.arange(60000) / FS
    ramp = 1535.3 + 0.0175 * t  # just under the 0.02 nm/s allowance
    report = detect_steps(ramp)
    assert report.events == ()


def test_injected_step_on_ramp_found_once():
    rng = np.random.default_rng(0)
    t = np.arange(60000) / FS
    x = 1535.3 + 0.015 * t + rng.normal(0.0, 0.002, size=t.shape)
    x[30000:] += 0.5
    report = detect_steps(x, threshold_nm=0.2)
    assert len(report.events) == 1
    event = report.events[0]
    assert event.direction == "up"
    assert abs(event.index - 30000) <= 0.5 * FS  # within one window
    assert event.magnitude_nm == pytest.approx(0.5, abs=0.1)


@pytest.mark.parametrize("direction", [1.0, -1.0], ids=["up", "down"])
@pytest.mark.parametrize("offset", [0, 30, 50, 70])
def test_a_step_that_straddles_two_blocks_reads_once_and_whole(offset, direction):
    # 100-sample blocks: a step part way into one is seen in two of them.
    rng = np.random.default_rng(offset)
    x = 1535.3 + rng.normal(0.0, 0.005, size=5000)
    x[2500 + offset:] += direction * 0.5
    report = detect_steps(x, threshold_nm=0.2)
    assert len(report.events) == 1
    event = report.events[0]
    assert event.direction == ("up" if direction > 0 else "down")
    assert 2500 <= event.index < 2700
    assert event.magnitude_nm == pytest.approx(0.5, abs=0.005)


def test_downward_step_direction():
    x = np.full(30000, 1535.3)
    x[12000:] -= 0.6
    report = detect_steps(x)
    assert [e.direction for e in report.events] == ["down"]


def test_latency_within_window_for_2x_steps():
    for offset in (0, 17, 49, 80):  # arbitrary positions within blocks
        x = np.full(30000, 1535.3)
        pos = 9000 + offset
        x[pos:] += 0.4  # exactly 2x default threshold
        report = detect_steps(x)
        assert len(report.events) == 1
        assert report.events[0].index - pos <= 0.5 * FS


def test_magnitudes_never_below_threshold():
    rng = np.random.default_rng(5)
    x = np.cumsum(rng.normal(0.0, 0.01, size=50000))  # drifting walk
    report = detect_steps(x, threshold_nm=0.3, drift_nm=0.02)
    for event in report.events:
        assert event.magnitude_nm >= 0.3


@st.composite
def stepped_records(draw):
    """A level with random steps and a ramp, optionally noisy, at 1 kHz."""
    n = draw(st.integers(1000, 20000))  # two blocks of the longest window
    x = np.full(n, draw(st.floats(1500.0, 1600.0)))
    x += draw(st.floats(-0.05, 0.05)) * np.arange(n) / FS
    for _ in range(draw(st.integers(0, 6))):
        x[draw(st.integers(0, n - 1)):] += draw(st.floats(-2.0, 2.0))
    sigma = draw(st.sampled_from([0.0, 0.002, 0.02]))
    return x + np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(0.0, sigma, n)


@settings(max_examples=150, deadline=None)
@given(x=stepped_records(), threshold=st.floats(0.02, 1.0),
       drift_share=st.floats(0.01, 0.99), window_s=st.floats(0.01, 2.0))
def test_events_in_time_order_and_above_threshold(x, threshold, drift_share, window_s):
    report = detect_steps(x, threshold_nm=threshold, drift_nm=drift_share * threshold,
                          window_s=window_s, sample_rate_hz=FS)
    indices = [e.index for e in report.events]
    assert indices == sorted(set(indices))
    assert [e.time_s for e in report.events] == [i / FS for i in indices]
    assert all(e.magnitude_nm >= threshold for e in report.events)


def event_words(events):
    return [(e.index, e.time_s.hex(), e.magnitude_nm.hex(), e.direction) for e in events]


@settings(max_examples=300, deadline=None)
@given(x=stepped_records(), threshold=st.floats(0.02, 1.0),
       drift_share=st.floats(0.01, 0.99), window_s=st.floats(0.01, 2.0),
       t0=st.sampled_from([0.0, 12.5, -3.0]))
def test_matches_the_max_reset_detector_event_for_event(x, threshold, drift_share, window_s,
                                                         t0):
    # Each reset is a comparison, not max(0.0, g): the same float every time.
    drift = drift_share * threshold
    report = detect_steps(x, threshold_nm=threshold, drift_nm=drift, window_s=window_s,
                          sample_rate_hz=FS, t0=t0)
    assert event_words(report.events) == event_words(
        max_cusum_detect_steps(x, threshold, drift, window_s, FS, t0))


@settings(max_examples=100, deadline=None)
@given(level=st.floats(-1e6, 1e6), n=st.integers(1000, 20000),
       threshold=st.floats(1e-6, 1.0), window_s=st.floats(0.01, 2.0))
def test_constant_record_has_no_event(level, n, threshold, window_s):
    assert detect_steps(np.full(n, level), threshold_nm=threshold,
                        drift_nm=threshold / 2, window_s=window_s,
                        sample_rate_hz=FS).events == ()


def test_threshold_monotonicity():
    rng = np.random.default_rng(6)
    t = np.arange(80000) / FS
    x = (1535.3 + 0.3 * np.sin(2 * np.pi * 1.7 * t)
         + np.cumsum(rng.normal(0.0, 0.003, size=t.shape)))
    counts = [len(detect_steps(x, threshold_nm=th, drift_nm=0.01).events)
              for th in (0.05, 0.1, 0.2, 0.4, 0.8)]
    assert counts == sorted(counts, reverse=True)


def test_raw_vibration_triggers_spurious_events(params):
    scenario = Scenario(rpm=120.0, duration_s=150.0, bend=BendProfile())
    trace = simulate(scenario, params, seed=9)
    raw_report = detect_steps(trace.channel(0))
    assert len(raw_report.events) >= 5
    spec = design_bandstop(2.0, 3, sample_rate_hz=FS)
    filtered = apply_zero_phase(spec, trace.channel(0))
    assert detect_steps(filtered).events == ()


def test_csv_text():
    x = np.full(30000, 1535.3)
    x[12000:] += 0.5
    text = events_csv_text(detect_steps(x))
    lines = text.strip().split("\n")
    assert lines[0] == "time_s,magnitude_nm,direction"
    assert len(lines) == 2 and lines[1].endswith(",up")

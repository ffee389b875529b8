"""Step (collision surrogate) detection on vibration-filtered channels.

A two-sided cumulative-sum detector works on short block means: each block
mean is compared against the previous one (the running baseline), a drift
allowance absorbs slow cable-driven wavelength ramps, and the excess
accumulates until it crosses the configured level shift. Raw oscillating
data trips the detector constantly, which is exactly the failure mode that
motivates band-stop filtering first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError

DEFAULT_THRESHOLD_NM = 0.2
DEFAULT_DRIFT_NM = 0.01
DEFAULT_WINDOW_S = 0.5

#: Blocks per detection window; sets latency granularity.
BLOCKS_PER_WINDOW = 5


@dataclass(frozen=True)
class StepEvent:
    index: int
    time_s: float
    magnitude_nm: float
    direction: str  # "up" or "down"


@dataclass(frozen=True)
class EventReport:
    """Detected level shifts, each at least threshold_nm."""

    events: tuple
    threshold_nm: float

    def __post_init__(self):
        times = [e.time_s for e in self.events]
        if times != sorted(times):
            raise DataError("events must be ordered by time")
        if any(e.magnitude_nm < self.threshold_nm for e in self.events):
            raise DataError("event magnitudes must reach the configured threshold")
        object.__setattr__(self, "events", tuple(self.events))


def detect_steps(x, threshold_nm=DEFAULT_THRESHOLD_NM, drift_nm=DEFAULT_DRIFT_NM,
                 window_s=DEFAULT_WINDOW_S, sample_rate_hz=1000.0, t0=0.0):
    """Two-sided CUSUM over block means of one (filtered) channel.

    Block means are taken over window_s / BLOCKS_PER_WINDOW; consecutive
    differences minus the per-block drift allowance accumulate separately
    for upward and downward excursions, and an event fires when either
    accumulator reaches threshold_nm. The reported magnitude is the block
    mean change from the baseline to the further of the alarm block and the
    next, so at least the threshold. Both baselines restart at the next
    block: a step across two blocks reads once, whole, and a second step
    within one block of the first is missed. Steps of at least twice the
    threshold are caught within one window. A non-finite sample raises DataError.
    """
    if not (threshold_nm > drift_nm > 0):
        raise ParameterError("configuration must satisfy threshold_nm > drift_nm > 0")
    if not all(np.isfinite(v) and v > 0 for v in (window_s, sample_rate_hz)):
        raise ParameterError("window_s and sample_rate_hz must be finite and positive")
    if not np.isfinite(window_s * sample_rate_hz):
        raise ParameterError("window_s * sample_rate_hz overflows a sample count")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DataError("channel must be 1-D")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        # A NaN would reset both accumulators and hide a step.
        raise DataError(f"channel sample {bad[0]} is not finite ({x[bad[0]]})")
    window = max(int(round(window_s * sample_rate_hz)), BLOCKS_PER_WINDOW)
    block = max(window // BLOCKS_PER_WINDOW, 1)
    n_blocks = x.shape[0] // block
    if n_blocks < 2:
        raise DataError("record shorter than two detector blocks")
    # Python floats: the same IEEE arithmetic, without numpy scalar overhead.
    means = x[: n_blocks * block].reshape(n_blocks, block).mean(axis=1).tolist()

    allowance = drift_nm / BLOCKS_PER_WINDOW
    events = []
    g_up = g_down = 0.0
    start_up = start_down = 0  # baseline block index per accumulator
    after = 0  # the block after the last alarm: its difference is not counted
    for j in range(1, n_blocks):
        d = 0.0 if j == after else means[j] - means[j - 1]
        if g_up == 0.0:
            start_up = j - 1
        if g_down == 0.0:
            start_down = j - 1
        # The reset, as max(0.0, g) gives it (NaN and -0.0 too), without a call.
        g_up = g_up + d - allowance
        g_up = g_up if g_up > 0.0 else 0.0
        g_down = g_down - d - allowance
        g_down = g_down if g_down > 0.0 else 0.0
        if g_up >= threshold_nm:
            direction, magnitude = "up", max(means[j:j + 2]) - means[start_up]
        elif g_down >= threshold_nm:
            direction, magnitude = "down", means[start_down] - min(means[j:j + 2])
        else:
            continue
        index = (j + 1) * block - 1
        events.append(StepEvent(index=index, time_s=t0 + index / sample_rate_hz,
                                magnitude_nm=magnitude, direction=direction))
        g_up = g_down = 0.0
        after = j + 1
    return EventReport(events=tuple(events), threshold_nm=threshold_nm)


def events_csv_text(report):
    # Not dataio.csv_text: its columns are numbers, and direction is text.
    lines = ["time_s,magnitude_nm,direction"]
    for e in report.events:
        lines.append(f"{e.time_s:.6f},{e.magnitude_nm:.9f},{e.direction}")
    return "\n".join(lines) + "\n"

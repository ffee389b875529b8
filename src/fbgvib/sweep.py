"""Amplitude-vs-RPM sweeps and resonance identification.

One trace per tool rate (simulated, or ingested from per-rate CSV logs)
is reduced to the amplitude of its tone at that rate, fitted with a cubic
for the slow shape. The amplitude curve's peaks are the natural
frequencies: each is refined by a parabolic fit in log-rate, attributed to
the dominant coordinate through the model's frequency response, and
surrounded by an avoid band where the amplitude stays above half the peak.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dataio import csv_text, parse_trace_csv
from .errors import DataError, ParameterError
from .spectral import DEFAULT_SHAPE_CUTOFF_HZ, peak_prominences
from .vib_model import frf_amplitude, simulate

#: Leading share of each record dropped as the start-up transient.
DEFAULT_DISCARD_FRACTION = 0.2

#: A sweep peak must rise above this fraction of the largest amplitude.
PEAK_PROMINENCE_RATIO = 0.05
#: Avoid-band boundary relative to its peak amplitude.
AVOID_BAND_RATIO = 0.5

#: Fewest rpm points a sweep takes.
MIN_POINTS = 10

#: Read with DEFAULT_SHAPE_CUTOFF_HZ by perfbench's write_sweep_file; no sweep uses either.
SETTLE_TIME_CONSTANTS = 8.0

SENSOR_DOMINANT = "sensor-dominant"
MANIPULATOR_DOMINANT = "manipulator-dominant"


def steady_amplitude(x, sample_rate_hz, expected_fundamental_hz):
    """Amplitude (nm) of the tone at the expected fundamental.

    After the leading DEFAULT_DISCARD_FRACTION, which must leave three
    periods, one least-squares fit at that frequency of sin, cos, 1, u, u^2
    and u^3 (u from -1 to 1; the sine fit of IEEE Std 1057 with a cubic for
    the slow shape), solved by its normal equations, gives the tone's two
    coefficients. The amplitude is their hypot.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] < 2:
        raise DataError("channel must be 1-D with at least two samples")
    if not 0.0 < expected_fundamental_hz < 0.5 * sample_rate_hz:  # NaN fails too
        raise ParameterError(f"expected_fundamental_hz must lie in (0, {0.5 * sample_rate_hz:g})"
                             f" Hz, got {expected_fundamental_hz:g}")
    y = x[int(round(DEFAULT_DISCARD_FRACTION * x.shape[0])):]
    if y.shape[0] / sample_rate_hz < 3.0 / expected_fundamental_hz:
        raise DataError("record keeps fewer than three periods of the expected fundamental")
    phase = 2.0 * np.pi * expected_fundamental_hz / sample_rate_hz * np.arange(y.shape[0])
    u = np.linspace(-1.0, 1.0, y.shape[0])
    design = np.stack((np.sin(phase), np.cos(phase), np.ones_like(u), u, u * u, u * u * u))
    # One sample off first, so the base wavelength costs the fit no digits.
    coef = np.linalg.solve(design @ design.T, design @ (y - y[0]))
    return float(np.hypot(coef[0], coef[1]))


@dataclass(frozen=True)
class ResonanceReport:
    """Sweep points plus detected resonances and bands to avoid."""

    points: tuple  # (rpm, amplitude_nm), sorted by rpm
    natural_frequencies_hz: tuple
    peak_rpms: tuple
    avoid_bands_rpm: tuple  # (low, high) per detected peak
    attribution: tuple  # per peak: sensor- or manipulator-dominant

    def __post_init__(self):
        rpms = [r for r, _ in self.points]
        if rpms != sorted(rpms):
            raise DataError("sweep points must be sorted by rpm")
        if any(a < 0 for _, a in self.points):
            raise DataError("amplitudes must be non-negative")
        for rpm, (lo, hi) in zip(self.peak_rpms, self.avoid_bands_rpm):
            if not (lo <= rpm <= hi):
                raise DataError("each avoid band must contain its peak rpm")


def _refine_peak(rpms, amps, i):
    """Parabolic vertex through three points in (log rpm, log amplitude).

    A zero amplitude has no logarithm, so such a peak keeps its grid rpm.
    """
    if not np.all(amps[i - 1:i + 2] > 0):
        return float(rpms[i])
    x = np.log(rpms[i - 1:i + 2])
    y = np.log(amps[i - 1:i + 2])
    denom = y[0] - 2.0 * y[1] + y[2]
    if denom >= 0:
        return float(rpms[i])
    shift = float(np.clip((y[0] - y[2]) / (2.0 * denom), -0.5, 0.5))
    return float(np.exp(x[1] + shift * (x[1] - x[0])))


def _band_edge(rpms, amps, i_peak, level, direction):
    """RPM where the amplitude curve crosses the band level, interpolated."""
    j = i_peak
    while 0 <= j + direction < len(rpms) and amps[j + direction] > level:
        j += direction
    k = j + direction
    if k < 0 or k >= len(rpms):
        return rpms[j]
    # Linear crossing in log-rpm between the last point above and below.
    la, lb = math.log(rpms[j]), math.log(rpms[k])
    frac = (amps[j] - level) / (amps[j] - amps[k])
    return float(math.exp(la + frac * (lb - la)))


def analyze_sweep_points(points, params):
    """Build a ResonanceReport from (rpm, amplitude) pairs and model params."""
    rpms = np.array([r for r, _ in points], dtype=float)
    amps = np.array([a for _, a in points], dtype=float)
    if rpms.size < 3:
        raise DataError("at least three sweep points are required")
    idx, prom = peak_prominences(amps)
    peak_rpms, freqs, bands, tags = [], [], [], []
    for i in idx[prom >= PEAK_PROMINENCE_RATIO * amps.max()]:
        rpm_peak = _refine_peak(rpms, amps, i)
        level = AVOID_BAND_RATIO * amps[i]
        lo = _band_edge(rpms, amps, i, level, -1)
        hi = _band_edge(rpms, amps, i, level, +1)
        lo, hi = min(lo, rpm_peak), max(hi, rpm_peak)
        f_hz = rpm_peak / 60.0
        x1, x2 = frf_amplitude(params, f_hz)
        peak_rpms.append(rpm_peak)
        freqs.append(f_hz)
        bands.append((lo, hi))
        tags.append(SENSOR_DOMINANT if x2 > x1 else MANIPULATOR_DOMINANT)
    return ResonanceReport(points=tuple((float(r), float(a)) for r, a in points),
                           natural_frequencies_hz=tuple(freqs),
                           peak_rpms=tuple(peak_rpms),
                           avoid_bands_rpm=tuple(bands),
                           attribution=tuple(tags))


def default_rpm_grid(low=10.0, high=2400.0, n_points=40):
    if not (low > 0 and high > 0):
        raise ParameterError(f"rpm grid bounds must be positive, got {low} and {high}")
    return tuple(float(r) for r in np.geomspace(low, high, n_points))


def run_sweep(rpms, template, params, seed=0):
    """Simulate one trace per tool rate and identify the resonances.

    Each point lasts the template's duration, or longer so that three
    periods, with a quarter to spare, survive the transient discard. It
    simulates area 0 alone, the one read, and the fundamental alone, so the
    amplitude curve tracks the frequency response function. Results are
    keyed by rpm, so the report does not depend on evaluation order.
    """
    rpm_list = [float(r) for r in rpms]
    if len(rpm_list) < MIN_POINTS:
        raise ParameterError(f"a sweep needs at least {MIN_POINTS} rpm points")
    if any(b <= a for a, b in zip(rpm_list, rpm_list[1:])):
        raise ParameterError("rpm values must be strictly increasing")
    if rpm_list[0] <= 0:
        raise ParameterError("rpm values must be positive")
    points = []
    for i, rpm in enumerate(rpm_list):
        needed_s = 3.0 * (60.0 / rpm) / (1.0 - DEFAULT_DISCARD_FRACTION)
        scenario = replace(template, rpm=rpm,
                           duration_s=max(template.duration_s, 1.25 * needed_s),
                           base_wavelength_nm=template.base_wavelength_nm[:1],
                           harmonic_weights=(template.harmonic_weights[0],))
        trace = simulate(scenario, params, seed=seed + i)
        amp = steady_amplitude(trace.channel(0), scenario.sample_rate_hz,
                               expected_fundamental_hz=rpm / 60.0)
        points.append((rpm, amp))
    return analyze_sweep_points(points, params)


_RPM_FILE = re.compile(r"rpm_([0-9]+(?:\.[0-9]+)?)\.csv$")


def ingest_sweep_dir(directory, params):
    """Build a report from a directory of per-rate trace CSVs (rpm_<value>.csv)."""
    directory = Path(directory)
    entries = []
    for path in sorted(directory.iterdir()):
        match = _RPM_FILE.match(path.name)
        if match:
            entries.append((float(match.group(1)), path))
    if not entries:
        raise DataError(f"no rpm_<value>.csv files found in {directory}")
    entries.sort()
    points = []
    for rpm, path in entries:
        if rpm <= 0:
            raise DataError(f"{path}: the rate in the name must be positive, got {rpm:g} rpm")
        trace = parse_trace_csv(path)[0]
        amp = steady_amplitude(trace.channel(0), trace.sample_rate_hz,
                               expected_fundamental_hz=rpm / 60.0)
        points.append((rpm, amp))
    return analyze_sweep_points(points, params)


def report_csv_text(report):
    return csv_text("rpm,amplitude_nm", "{:.6f},{:.9f}\n",
                    np.reshape(report.points, (-1, 2)).T)


def summary_text(report):
    lines = [f"sweep points: {len(report.points)}",
             f"detected peaks: {len(report.peak_rpms)}"]
    for rpm, f_hz, (lo, hi), tag in zip(report.peak_rpms,
                                        report.natural_frequencies_hz,
                                        report.avoid_bands_rpm,
                                        report.attribution):
        lines.append(f"peak {rpm:.1f} rpm ({f_hz:.3f} Hz), {tag}, "
                     f"avoid {lo:.1f}-{hi:.1f} rpm")
    return "\n".join(lines) + "\n"

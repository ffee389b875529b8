"""Amplitude-vs-RPM sweeps and resonance identification.

One trace per tool rate (simulated, or ingested from per-rate CSV logs)
is reduced to the amplitude of its tone at that rate, fitted with a cubic
for the slow shape. The two-mode model's amplitude curve is fitted to all
the points at once by linear least squares; its maxima inside the grid
are the natural frequencies, each attributed to the dominant coordinate
through the model's frequency response and surrounded by an avoid band
where the curve stays above half the peak. A curve that misses the points,
or that has a pole inside the grid, is refused.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dataio import DEFAULT_SHAPE_CUTOFF_HZ, csv_text, parse_trace_csv
from .errors import DataError, ParameterError, SensingError
from .vib_model import RPM_MAX, frf_amplitude, simulate

#: Leading share of each record dropped as the start-up transient.
DEFAULT_DISCARD_FRACTION = 0.2

#: Largest relative RMS residual of the two-mode curve fit that names peaks.
MAX_FIT_RESIDUAL = 0.25
#: Avoid-band boundary relative to its peak amplitude.
AVOID_BAND_RATIO = 0.5

#: Fewest rpm points a sweep takes.
MIN_POINTS = 10
#: Points of the paper's grid: ``sweep --preset paper`` and the default of ``--points``.
PAPER_POINTS = 40

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
    # In place: the phase waits in the cos row for its sin; u is np.linspace(-1, 1)'s.
    sin, cos, one, u, u2, u3 = design = np.empty((6, y.shape[0]))
    k = np.arange(y.shape[0])
    np.sin(np.multiply(k, 2 * np.pi * expected_fundamental_hz / sample_rate_hz, out=cos), out=sin)
    np.cos(cos, out=cos)
    one.fill(1.0)
    np.subtract(np.multiply(k, 2.0 / (k.size - 1), out=u), 1.0, out=u)[-1] = 1.0
    np.multiply(np.multiply(u, u, out=u2), u, out=u3)
    # One sample off first, so the base wavelength costs the fit no digits.
    coef = np.linalg.solve(design @ design.T, design @ (y - y[0]))
    return float(np.hypot(coef[0], coef[1]))


@dataclass(frozen=True)
class ResonanceReport:
    """Sweep points plus detected resonances and bands to avoid."""

    points: tuple  # (rpm, amplitude_nm), sorted by rpm
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

    @property
    def natural_frequencies_hz(self):
        return tuple(rpm / 60.0 for rpm in self.peak_rpms)


def _roots_within(coef, lo, hi):
    """Real roots in [lo, hi], ascending, of a polynomial (highest power first)."""
    roots = np.roots(coef)
    roots = np.sort(roots[roots.imag == 0].real)
    return roots[(lo <= roots) & (roots <= hi)]


def _fit_resonances(rpms, amps):
    """(peak rpm, (low, high) avoid band) per resonance of the fitted curve.

    The model's amplitude is a = x / sqrt(Q(x)), x = (rpm / rpm_max)^2, Q a
    quartic (|det|^2 of the two-mode system). Each point gives the row
    (a / x)^2 Q(x) = 1, linear in Q, and one least-squares solve takes them
    all (Levy 1959), each residual a relative error. Peaks are the maxima
    of x^2 / Q inside the grid, roots of 2Q - xQ'; a band's edges are the
    nearest roots of x^2 = AVOID_BAND_RATIO^2 peak^2 Q(x), both in the grid.
    """
    if rpms.size <= 5:  # no more points than Q has coefficients
        return []
    rpm_max = float(rpms.max())
    x = (rpms / rpm_max) ** 2
    design = ((amps / x) ** 2)[:, None] * x[:, None] ** np.arange(4, -1, -1)
    norms = np.linalg.norm(design, axis=0)  # unit columns: x**4 reaches 1e-19 on a paper grid
    q = np.linalg.lstsq(design / norms, np.ones_like(x), rcond=None)[0] / norms
    residual = math.sqrt(np.mean((design @ q - 1.0) ** 2))
    if not residual <= MAX_FIT_RESIDUAL:
        raise DataError(f"the two-mode curve misses the sweep by {residual:.2f} relative RMS, "
                        f"above {MAX_FIT_RESIDUAL}")
    lo, hi = x.min(), x.max()
    poles = _roots_within(q, lo, hi)
    if poles.size:
        raise DataError(f"the grid does not resolve the resonance near "
                        f"{rpm_max * math.sqrt(poles[0]):.1f} rpm")
    slope = q * np.arange(-2.0, 3.0)  # 2Q - xQ'
    resonances = []
    for xp in _roots_within(slope, lo, hi):
        level = -(AVOID_BAND_RATIO * xp) ** 2 / np.polyval(q, xp) * q
        level[2] += 1.0
        edges = _roots_within(level, lo, hi)
        below, above = edges[edges < xp], edges[edges > xp]
        if np.polyval(np.polyder(slope), xp) < 0 and below.size and above.size:
            peak, low, high = (rpm_max * math.sqrt(v) for v in (xp, below[-1], above[0]))
            resonances.append((peak, (low, high)))
    return resonances


def analyze_sweep_points(points, params):
    """Build a ResonanceReport from (rpm, amplitude) pairs and model params.
    Five points or fewer, no more than the fit's unknowns, report no peaks."""
    rpms = np.array([r for r, _ in points], dtype=float)
    amps = np.array([a for _, a in points], dtype=float)
    bad = np.flatnonzero(~(np.isfinite(amps) & np.isfinite(rpms) & (rpms > 0)))
    if bad.size:
        raise DataError(f"sweep point at {rpms[bad[0]]:g} rpm, amplitude {amps[bad[0]]:g} nm: "
                        "each rate must be positive and each value finite")
    resonances = _fit_resonances(rpms, amps)
    tags = [SENSOR_DOMINANT if x2 > x1 else MANIPULATOR_DOMINANT
            for x1, x2 in (frf_amplitude(params, rpm / 60.0) for rpm, _ in resonances)]
    return ResonanceReport(points=tuple((float(r), float(a)) for r, a in points),
                           peak_rpms=tuple(rpm for rpm, _ in resonances),
                           avoid_bands_rpm=tuple(band for _, band in resonances),
                           attribution=tuple(tags))


def default_rpm_grid(low=10.0, high=RPM_MAX, n_points=PAPER_POINTS):
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
    matches = ((_RPM_FILE.match(path.name), path) for path in directory.iterdir())
    entries = sorted((float(match.group(1)), path) for match, path in matches if match)
    if not entries:
        raise DataError(f"no rpm_<value>.csv files found in {directory}")
    points = []
    for rpm, path in entries:
        if rpm <= 0:
            raise DataError(f"{path}: the rate in the name must be positive, got {rpm:g} rpm")
        try:
            trace = parse_trace_csv(path)[0]
            points.append((rpm, steady_amplitude(trace.channel(0), trace.sample_rate_hz,
                                                 expected_fundamental_hz=rpm / 60.0)))
        except SensingError as exc:
            exc.args = (f"{path}: {exc}",)  # keeps the type and a ParseError's line
            raise
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

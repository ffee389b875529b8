"""Discrete Fourier analysis of wavelength traces.

Transforms are numpy's FFT, which handles every length in O(N log N), so
records of arbitrary duration transform without truncation; real input,
every channel here, is transformed at half length. Magnitude spectra are
scaled to physical amplitude (a unit sinusoid on a bin reports 1.0).
Peaks are strict local maxima ranked by prominence, walked by scipy's
compiled prominence walk taken from its extension without ``scipy.signal``
(as ``filtering`` takes ``_sosfilt``).
Feature extraction separates the slow shape content from the tool-locked
line and its integer multiples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dataio import DEFAULT_SHAPE_CUTOFF_HZ, csv_text
from .errors import DataError, ParameterError
from .filtering import _scipy_kernel

WINDOWS = ("rectangular", "hann")

#: Tool-driven spectral content of interest does not extend past this (Hz).
DEFAULT_MAX_FREQ_HZ = 40.0
#: Minimum peak prominence (nm); five times the simulator noise floor.
DEFAULT_MIN_PROMINENCE_NM = 0.01
#: Highest integer multiple of the fundamental sought among the peaks.
MAX_HARMONIC = 5


def fft_forward(x):
    """Forward transform of a real or complex sequence, any length N >= 1.

    Returns all N bins as complex128, whatever the input's dtype.
    """
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] == 0:
        raise DataError("transform input must be a non-empty 1-D array")
    return np.fft.fft(x.astype(np.promote_types(x.dtype, np.float64), copy=False))


@functools.lru_cache(maxsize=4)
def _window_values(window, n):
    """The window's n samples, read-only, and their sum: equal calls share
    one array."""
    if window == "rectangular":
        w = np.ones(n)
    else:
        # Periodic form: integer-bin lines leak into adjacent bins only.
        w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    w.flags.writeable = False
    return w, np.sum(w)


def magnitude_spectrum(x, sample_rate_hz, window="rectangular"):
    """One-sided amplitude spectrum over [0, sample_rate_hz / 2].

    Amplitudes are scaled by the window's coherent gain so a unit sinusoid
    landing on a bin reports 1.0 for either window choice.

    Returns
    -------
    (frequencies_hz, magnitude) : two aligned 1-D arrays.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] == 0:
        raise DataError("channel must be a non-empty 1-D array")
    if window not in WINDOWS:
        raise ParameterError(f"unknown window {window!r}; expected one of {WINDOWS}")
    n = x.shape[0]
    w, total = _window_values(window, n)
    # Bins 0 to n // 2, the ones fft_forward computes before its mirror half.
    bins = np.fft.rfft(x * w)
    freqs = np.arange(bins.shape[0]) * (float(sample_rate_hz) / n)
    mags = np.abs(bins) * (2.0 / total)
    mags[0] *= 0.5
    if n % 2 == 0:
        mags[-1] *= 0.5
    return freqs, mags


@dataclass(frozen=True)
class SpectralPeak:
    frequency_hz: float
    amplitude: float
    prominence: float


def _local_maxima(a):
    inner = a[1:-1]
    return np.flatnonzero((inner > a[:-2]) & (inner > a[2:])) + 1


def _prominences(a, peaks):
    """Prominences of ``peaks``, any subset of the local maxima of ``a``.

    Each peak's walk is independent of the others, so a subset gets the
    values the full set would.
    """
    if peaks.size == 0:
        return np.empty(0)
    walk = _scipy_kernel("_peak_finding_utils", "_peak_prominences")
    # The walk takes contiguous doubles and intp indices; -1: no window.
    a = np.ascontiguousarray(a, dtype=np.float64)
    _, left, right = walk(a, np.ascontiguousarray(peaks, dtype=np.intp), -1)
    return a[peaks] - np.minimum(a[left], a[right])


def find_peaks(freqs, mags, min_prominence=DEFAULT_MIN_PROMINENCE_NM,
               max_freq_hz=DEFAULT_MAX_FREQ_HZ):
    """Strict local maxima of a magnitude spectrum, strongest first.

    A maximum's prominence is its height minus the lower of its two valley
    minima, each the lowest sample before the nearest strictly higher one
    or the edge, found by scipy's compiled walk at O(span) per peak. Peaks
    above max_freq_hz are dropped; an empty list is a valid result. Only the
    maxima that can pass are walked: a valley is never below the spectrum's
    minimum, so a peak less than min_prominence above that minimum cannot
    qualify. Non-finite data raise DataError; max_freq_hz may be +inf.
    """
    if not (math.isfinite(min_prominence) and min_prominence > 0):
        raise ParameterError("min_prominence must be finite and positive")
    if math.isnan(max_freq_hz):
        raise ParameterError("max_freq_hz must not be NaN")
    freqs = np.asarray(freqs, dtype=float)
    mags = np.asarray(mags, dtype=float)
    if not (np.isfinite(freqs).all() and np.isfinite(mags).all()):
        raise DataError("spectrum frequencies and magnitudes must be finite")
    idx = _local_maxima(mags)
    if idx.size:
        idx = idx[~(freqs[idx] > max_freq_hz)
                  & ~(mags[idx] - mags.min() < min_prominence)]
    prom = _prominences(mags, idx)
    keep = prom >= min_prominence
    idx, prom = idx[keep], prom[keep]
    order = np.argsort(-mags[idx], kind="stable")
    return [SpectralPeak(f, a, p) for f, a, p in
            zip(freqs[idx[order]].tolist(), mags[idx[order]].tolist(),
                prom[order].tolist())]


@dataclass(frozen=True)
class SpectralFeatures:
    """Shape-band line, tool-locked line, and its integer multiples."""

    base_frequency_hz: float | None = None
    fundamental_hz: float | None = None
    fundamental_amplitude_nm: float | None = None
    harmonics_hz: tuple = ()

    def __post_init__(self):
        if (self.base_frequency_hz is not None and self.fundamental_hz is not None
                and not self.base_frequency_hz < self.fundamental_hz):
            raise DataError("base frequency must lie below the fundamental")


def channel_spectrum(x, sample_rate_hz, window="hann"):
    """magnitude_spectrum of one channel with its mean removed, so the
    large static wavelength does not leak into the shape band."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] == 0:
        raise DataError("channel must be a non-empty 1-D array")
    return magnitude_spectrum(x - x.mean(), sample_rate_hz, window=window)


def identify_features(x, sample_rate_hz, **settings):
    """Base frequency, fundamental, and harmonics of one channel: its channel_spectrum
    through features_from_spectrum, with ``settings`` as the latter's keywords."""
    return features_from_spectrum(*channel_spectrum(x, sample_rate_hz), **settings)


def features_from_spectrum(freqs, mags, rpm_hint=None,
                           shape_cutoff_hz=DEFAULT_SHAPE_CUTOFF_HZ,
                           min_prominence=DEFAULT_MIN_PROMINENCE_NM,
                           max_freq_hz=DEFAULT_MAX_FREQ_HZ):
    """Features from a channel_spectrum.

    The base frequency is the strongest peak at or below shape_cutoff_hz;
    the fundamental is the strongest peak above it. With rpm_hint > 0 it is
    the strongest of those within two bins of rpm_hint / 60, snapped to that
    rate, when there is one; a hint of 0 (a tool at rest) snaps nothing. An
    absent fundamental signals vibration-free data. The bin spacing must be
    0.5 Hz or finer.
    """
    if rpm_hint is not None and not (math.isfinite(rpm_hint) and rpm_hint >= 0):
        raise ParameterError(f"rpm_hint must be finite and non-negative, got {rpm_hint}")
    freqs = np.asarray(freqs, dtype=float)
    # Bin 1 sits at sample_rate_hz / n; a one-sample record has no spacing.
    resolution = float(freqs[1]) if freqs.shape[0] > 1 else math.inf
    if resolution > 0.5:
        raise DataError(
            f"frequency resolution {resolution:.3f} Hz is coarser than 0.5 Hz; "
            "supply at least 2 s of data")
    peaks = find_peaks(freqs, mags, min_prominence=min_prominence,
                       max_freq_hz=max_freq_hz)

    base = next((p for p in peaks if p.frequency_hz <= shape_cutoff_hz), None)
    above = [p for p in peaks if p.frequency_hz > shape_cutoff_hz]
    hinted = rpm_hint / 60.0 if rpm_hint else None
    # A step's leakage near 0 Hz can outrank the tool line the hint names.
    near = [p for p in above if hinted and abs(p.frequency_hz - hinted) <= 2.0 * resolution]
    fund = next(iter(near or above), None)
    base_hz = base.frequency_hz if base else None
    if fund is None:
        return SpectralFeatures(base_frequency_hz=base_hz)

    f0 = hinted if near else fund.frequency_hz
    harmonics = []
    for m in range(2, MAX_HARMONIC + 1):
        target = m * f0
        # Within a bin and f0 / 2: a one-bin f0 must not take (m - 1) * f0.
        match = min((p for p in peaks if abs(p.frequency_hz - target) <= resolution
                     and abs(p.frequency_hz - target) < 0.5 * f0),
                    key=lambda p: abs(p.frequency_hz - target), default=None)
        if match is not None:
            harmonics.append(match.frequency_hz)
    return SpectralFeatures(base_frequency_hz=base_hz, fundamental_hz=f0,
                            fundamental_amplitude_nm=fund.amplitude,
                            harmonics_hz=tuple(harmonics))


def spectrum_rows(freqs, mags):
    """Rows for the two-column spectrum CSV (frequency_hz, magnitude_nm)."""
    return csv_text("frequency_hz,magnitude_nm", "{:.9f},{:.9g}\n", (freqs, mags))

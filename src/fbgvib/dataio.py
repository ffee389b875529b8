"""Interrogator-style CSV ingestion/emission and run configuration.

Trace files carry one row per (sample, active area) with the header
``time_s,fiber,aa,wavelength_nm``. Column names embed units to keep nm and
pm from being confused. All writers go through an atomic temp-file rename
so an error never leaves a partial output behind.
"""

from __future__ import annotations

import math
import os
import tempfile
import warnings

import numpy as np

from .errors import ParameterError, ParseError
from .shape import BAND_NM
from .vib_model import WavelengthTrace

TRACE_HEADER = "time_s,fiber,aa,wavelength_nm"

#: Assumed rate for single-instant files, where no spacing is observable.
FALLBACK_SAMPLE_RATE_HZ = 1000.0

RATE_TOLERANCE = 1e-6  # relative spread allowed between sample intervals


def atomic_write_text(path, text):
    """Write text to path via a temp file and atomic rename."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


#: Rows formatted per chunk by csv_text: bounds the Python floats held at once.
CHUNK_ROWS = 4096

_ROW_DTYPE = np.dtype([("time_s", np.float64), ("fiber", np.int64),
                       ("aa", np.int64), ("wavelength_nm", np.float64)])
FIBERS = (0, 1)
AREAS = (0, 1, 2)


def csv_text(header, row_format, columns):
    """The header line, then ``row_format.format(*row)`` for each row.

    ``columns`` are equal-length 1-D sequences of numbers; ``row_format``
    ends each row with a newline. Values are formatted as Python floats, a
    chunk of rows at a time, so only one chunk's values exist as Python
    objects at once.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    parts = [header + "\n"]
    for start in range(0, columns[0].shape[0], CHUNK_ROWS):
        chunk = [c[start:start + CHUNK_ROWS].tolist() for c in columns]
        parts.append("".join(map(row_format.format, *chunk)))
    return "".join(parts)


def trace_csv_text(traces):
    """CSV text for one trace or several (e.g. one per fiber).

    Multiple traces are interleaved by sample instant and must share the
    same time axis.
    """
    if isinstance(traces, WavelengthTrace):
        traces = [traces]
    first = traces[0]
    times = first.times()
    for other in traces[1:]:
        if other.n_samples != first.n_samples or not np.allclose(
                other.times(), times, rtol=0, atol=1e-9):
            raise ParameterError("traces written together must share sample instants")
    # One format call writes every row of a sample instant.
    labels = [label for trace in traces for label in trace.labels]
    instant = "".join(f"{{0:.6f}},{fiber},{aa},{{{k}:.9f}}\n"
                      for k, (fiber, aa) in enumerate(labels, start=1))
    channels = [trace.channels[:, col] for trace in traces
                for col in range(trace.channels.shape[1])]
    return csv_text(TRACE_HEADER, instant, [times] + channels)


def write_trace_csv(path, traces):
    atomic_write_text(path, trace_csv_text(traces))


def tips_csv_text(times, tips):
    """Tip time-series CSV: ``time_s,tip_x_mm,tip_z_mm``, one row per instant."""
    tips = np.asarray(tips, dtype=float)
    return csv_text("time_s,tip_x_mm,tip_z_mm", "{:.6f},{:.9f},{:.9f}\n",
                    (times, tips[:, 0], tips[:, 1]))


def _row_values(raw):
    """(time, fiber, aa, wavelength) of one data line, checked alone."""
    parts = raw.split(",")
    if len(parts) != 4:
        raise ParseError("expected 4 comma-separated fields")
    try:
        t = float(parts[0])
        fiber = int(parts[1])
        aa = int(parts[2])
        wl = float(parts[3])
    except ValueError:
        raise ParseError(f"malformed row {raw!r}") from None
    if fiber not in FIBERS:
        raise ParseError(f"fiber must be 0 or 1, got {fiber}")
    if aa not in AREAS:
        raise ParseError(f"aa must be 0, 1, or 2, got {aa}")
    if not (BAND_NM[0] <= wl <= BAND_NM[1]):
        raise ParseError(f"wavelength {wl} nm outside the band {BAND_NM}")
    if not math.isfinite(t):
        raise ParseError(f"time must be finite, got {t}")
    return t, fiber, aa, wl


def _scan_rows(path):
    """Check the data lines one by one; the first bad one raises ParseError.

    The slow path of parse_trace_csv, taken only when the bulk parse or its
    checks fail: it names the offending line, or returns the rows of a valid
    file the bulk parser could not read (e.g. one with whitespace-only lines).
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            row = _row_values(raw)
            if rows and row[0] < rows[-1][0]:
                raise ParseError("time must be non-decreasing")
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from None
        rows.append(row)
    return np.array(rows, dtype=_ROW_DTYPE)


def _rows_valid(rows):
    """Vectorised form of the per-line checks in _row_values and _scan_rows."""
    t, wl = rows["time_s"], rows["wavelength_nm"]
    return bool(np.all(np.isin(rows["fiber"], FIBERS))
                and np.all(np.isin(rows["aa"], AREAS))
                and np.all((BAND_NM[0] <= wl) & (wl <= BAND_NM[1]))
                and np.all(np.isfinite(t))
                and not np.any(t[1:] < t[:-1]))


def parse_trace_csv(path):
    """Parse a trace CSV into one WavelengthTrace per fiber.

    Rows sharing a timestamp are grouped into one sample instant. The
    sample rate is derived from the median spacing and every interval must
    agree with it within one part per million. Schema violations, including
    non-finite times, raise ParseError naming the offending line.
    """
    with open(path) as fh:
        header = fh.readline()
        if not header:
            raise ParseError("empty file", line=1)
        if header.strip() != TRACE_HEADER:
            raise ParseError(f"expected header {TRACE_HEADER!r}", line=1)
        try:
            with warnings.catch_warnings():
                # A header-only file is reported below, not warned about.
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, dtype=_ROW_DTYPE, delimiter=",",
                                  comments=None, ndmin=1)
        except ValueError:
            rows = None
    if rows is None or not _rows_valid(rows):
        rows = _scan_rows(path)
    if rows.shape[0] == 0:
        raise ParseError("file holds no samples", line=2)

    traces = []
    for fiber in FIBERS:
        in_fiber = rows[rows["fiber"] == fiber]
        aas = [aa for aa in AREAS if np.any(in_fiber["aa"] == aa)]
        if not aas:
            continue
        series = [in_fiber[in_fiber["aa"] == aa] for aa in aas]
        times0 = series[0]["time_s"]
        n = times0.shape[0]
        for aa, rows_aa in zip(aas, series):
            if not np.array_equal(rows_aa["time_s"], times0):
                raise ParseError(
                    f"fiber {fiber} area {aa} does not share the sample instants "
                    "of the other areas")
        if n > 1:
            deltas = np.diff(times0)
            dt = float(np.median(deltas))
            if dt <= 0:
                raise ParseError(f"fiber {fiber} repeats sample instants")
            if np.any(np.abs(deltas - dt) > RATE_TOLERANCE * dt):
                raise ParseError(
                    f"fiber {fiber} sample spacing varies by more than 1 ppm")
            rate = 1.0 / dt
        else:
            rate = FALLBACK_SAMPLE_RATE_HZ
        channels = np.column_stack([rows_aa["wavelength_nm"] for rows_aa in series])
        traces.append(WavelengthTrace(sample_rate_hz=rate, channels=channels,
                                      t0=float(times0[0]),
                                      labels=tuple((fiber, aa) for aa in aas)))
    return traces


# Run configuration: plain-text key = value, units embedded in key names.
CONFIG_KEYS = {
    "tool_velocity_rpm": float,
    "duration_s": float,
    "sample_rate_hz": float,
    "noise_sigma_nm": float,
    "base_wavelength_nm": float,
    "cable_speed_mm_s": float,
    "slack_amplitude_scale": float,
    "slack_threshold_mm": float,
    "natural_f1_hz": float,
    "natural_f2_hz": float,
    "mass_ratio": float,
    "damping_ratio": float,
    "threshold_nm": float,
    "drift_nm": float,
    "window_s": float,
    "notch_harmonics": int,
    "bandwidth_hz": float,
    "shape_cutoff_hz": float,
    "max_freq_hz": float,
    "min_prominence_nm": float,
    "seed": int,
    "calibration_file": str,
    "output_dir": str,
}


def parse_config(path):
    """Read a key = value configuration file; unknown keys are rejected."""
    config = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError("expected key = value", line=lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ParameterError(f"unknown config key {key!r} (line {lineno})")
            try:
                config[key] = CONFIG_KEYS[key](value)
            except ValueError:
                raise ParseError(f"bad value for {key}: {value!r}", line=lineno) from None
    return config

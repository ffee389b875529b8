"""Interrogator-style CSV ingestion/emission and run configuration.

Trace files carry one row per (sample, active area) with the header
``time_s,fiber,aa,wavelength_nm``. Column names embed units to keep nm and
pm from being confused. All writers go through an atomic temp-file rename
so an error never leaves a partial output behind.
"""

from __future__ import annotations

import functools
import math
import os
import re
import string
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


#: Rows formatted per chunk by csv_text: bounds the arrays (or Python floats)
#: that one chunk's formatting holds at once.
CHUNK_ROWS = 4096

_ROW_DTYPE = np.dtype([("time_s", np.float64), ("fiber", np.int64),
                       ("aa", np.int64), ("wavelength_nm", np.float64)])
FIBERS = (0, 1)
AREAS = (0, 1, 2)


#: |x| * 10**N below this is formatted by array arithmetic: the product's
#: spacing is at most 1/2 there, so its fraction shows every half-way case.
_EXACT_LIMIT = 2.0 ** 52
_MAX_DECIMALS = 15
_GROUP = 10 ** 4  # digits are written four at a time, as one uint32 word


def _fixed_template(row_format, n_columns):
    """``[(literal, column, decimals)]`` when every field is ``{:.Nf}``, else None.

    The last entry's column is None when the template ends in literal text.
    """
    try:
        parsed = list(string.Formatter().parse(row_format))
    except ValueError:
        return None
    pieces, auto, manual = [], 0, False
    for literal, name, spec, conversion in parsed:
        if "\0" in literal or not literal.isascii():
            return None
        if name is None:
            pieces.append((literal, None, 0))
            continue
        match = re.fullmatch(r"\.([0-9]+)f", spec)
        if conversion or not match or int(match[1]) > _MAX_DECIMALS:
            return None
        if name == "":
            column, auto = auto, auto + 1
        elif name.isascii() and name.isdigit():
            column, manual = int(name), True
        else:
            return None
        if column >= n_columns or (auto and manual):
            return None
        pieces.append((literal, column, int(match[1])))
    return pieces


@functools.cache
def _digit_groups():
    """Four ASCII bytes per uint32 word: 0000 to 9999; then the same numbers
    with leading zeros as byte 0 (zero keeps one digit); then four 0 bytes."""
    weights = 10 ** np.arange(3, -1, -1)
    values = np.arange(_GROUP)[:, None]
    padded = (values // weights % 10 + ord("0")).astype(np.uint8)
    leading = (values < weights) & (weights > 1)
    blanked = np.where(leading, np.uint8(0), padded)
    words = np.concatenate((padded, blanked, np.zeros((1, 4), np.uint8)))
    words.flags.writeable = False  # shared by every call
    return words.view(np.uint32).ravel()


def _product_error(a, b, p):
    """e with a * b == p + e exactly, for p = fl(a * b) (Dekker 1971)."""
    def split(v):  # Veltkamp: two halves of at most 26 significant bits
        high = v * (2.0 ** 27 + 1.0)
        high = high - (high - v)
        return high, v - high
    a_hi, a_lo = split(a)
    b_hi, b_lo = split(b)
    return ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _fixed_writes(x, decimals):
    """``f"{v:.{decimals}f}"`` of each value as writes into a byte matrix.

    Returns ``(width, writes)``: each write is ``(offset, values)``, one
    uint8 or one uint32 word of four ASCII bytes per row. Later writes go
    over earlier ones, and bytes left 0 are dropped from the text. None when
    a value is not finite or ``|v| * 10**decimals`` reaches 2**52.
    """
    a = np.abs(x)
    scale = 10.0 ** decimals
    with np.errstate(over="ignore"):
        p = a * scale
    if not np.all(p < _EXACT_LIMIT):
        return None
    k = np.floor(p)
    frac = p - k
    k += frac > 0.5
    tie = np.flatnonzero(frac == 0.5)
    if tie.size:  # half-way in p: decide on the exact product, half to even
        e = _product_error(a[tie], scale, p[tie])
        k[tie] += (e > 0) | ((e == 0) & (k[tie] % 2 == 1))
    k = k.astype(np.int64)
    whole = k // 10 ** decimals
    part = k - whole * 10 ** decimals
    table = _digit_groups()
    negative = np.signbit(x)
    signed = bool(negative.any())
    n_whole = -(-len(str(int(whole.max()))) // 4)
    point = signed + 4 * n_whole
    width = point + 1 + decimals if decimals else point
    writes = []
    # The fraction's top group may be short: its spare leading bytes land
    # on the point and the whole part, which are written after it.
    for i in range(-(-decimals // 4)):
        writes.append((width - 4 * i - 4, table[part // _GROUP ** i % _GROUP]))
    if decimals:
        writes.append((point, np.uint8(ord("."))))
    for j in range(n_whole):
        index = whole // _GROUP ** j % _GROUP
        index += _GROUP * (whole < _GROUP ** (j + 1))
        if j:
            index[whole < _GROUP ** j] = 2 * _GROUP
        writes.append((point - 4 * j - 4, table[index]))
    if signed:
        writes.append((0, negative.view(np.uint8) * np.uint8(ord("-"))))
    return width, writes


def _fixed_rows(pieces, chunk):
    """The chunk's rows under a ``{:.Nf}`` template, or None (see _fixed_writes)."""
    rendered = {}
    layout, width = [], 0
    for literal, column, decimals in pieces:
        text = literal.encode()
        layout.append((width, text))
        width += len(text)
        if column is not None:
            key = column, decimals
            if key not in rendered:
                rendered[key] = _fixed_writes(chunk[column], decimals)
                if rendered[key] is None:
                    return None
            layout.append((width, key))
            width += rendered[key][0]
    out = np.zeros((chunk[0].shape[0], width), np.uint8)
    for start, item in layout:
        if isinstance(item, bytes):
            out[:, start:start + len(item)] = np.frombuffer(item, np.uint8)
            continue
        for offset, values in rendered[item][1]:
            at = start + offset
            if values.dtype == np.uint32:
                out[:, at:at + 4].view(np.uint32)[:, 0] = values
            else:
                out[:, at] = values
    return out.tobytes().replace(b"\0", b"").decode("ascii")


def csv_text(header, row_format, columns):
    """The header line, then ``row_format.format(*row)`` for each row.

    ``columns`` are equal-length 1-D sequences of numbers; ``row_format``
    ends each row with a newline. Rows are formatted a chunk at a time.
    When every field is ``{:.Nf}``, a chunk is formatted with array
    arithmetic to the same bytes; other templates, and chunks holding
    non-finite or very large values, go through ``str.format`` on the
    chunk's values as Python floats.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    pieces = None
    if all(c.ndim == 1 and c.shape == columns[0].shape for c in columns):
        pieces = _fixed_template(row_format, len(columns))
    parts = [header + "\n"]
    for start in range(0, columns[0].shape[0], CHUNK_ROWS):
        chunk = [c[start:start + CHUNK_ROWS] for c in columns]
        text = _fixed_rows(pieces, chunk) if pieces else None
        if text is None:
            text = "".join(map(row_format.format, *(c.tolist() for c in chunk)))
        parts.append(text)
    return "".join(parts)


def trace_csv_text(traces):
    """CSV text for one trace or several (e.g. one per fiber).

    Multiple traces are interleaved by sample instant and must share the
    same time axis. What parse_trace_csv would reject raises ParameterError:
    non-finite times, labels outside FIBERS and AREAS, and wavelengths that
    are not finite or lie outside BAND_NM.
    """
    if isinstance(traces, WavelengthTrace):
        traces = [traces]
    first = traces[0]
    times = first.times()
    if not np.all(np.isfinite(times)):
        raise ParameterError("trace times must be finite")
    for trace in traces:
        if not all(f in FIBERS and aa in AREAS for f, aa in trace.labels):
            raise ParameterError(f"trace labels must be (fiber, aa) with fiber in "
                                 f"{FIBERS} and aa in {AREAS}, got {trace.labels}")
        ch = trace.channels
        if not np.all((BAND_NM[0] <= ch) & (ch <= BAND_NM[1])):
            raise ParameterError(
                f"trace wavelengths must be finite and inside the band {BAND_NM} nm")
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
    fiber, aa = rows["fiber"], rows["aa"]
    return bool(np.all((FIBERS[0] <= fiber) & (fiber <= FIBERS[-1]))
                and np.all((AREAS[0] <= aa) & (aa <= AREAS[-1]))
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

    # One stable sort by (fiber, area) keeps each series in time order.
    code = (rows["fiber"] * len(AREAS) + rows["aa"]).astype(np.uint8)
    order = np.argsort(code, kind="stable")
    counts = np.bincount(code, minlength=len(FIBERS) * len(AREAS))
    ends = np.cumsum(counts)
    times, wavelengths = rows["time_s"][order], rows["wavelength_nm"][order]
    traces = []
    for fiber in FIBERS:
        codes = [fiber * len(AREAS) + aa for aa in AREAS]
        aas = [aa for aa, c in zip(AREAS, codes) if counts[c]]
        if not aas:
            continue
        n = int(counts[codes[aas[0]]])
        start = ends[codes[aas[0]]] - n
        times0 = times[start:start + n]
        for aa in aas[1:]:
            c = codes[aa]
            if counts[c] != n or not np.array_equal(times[ends[c] - n:ends[c]], times0):
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
        block = wavelengths[start:start + n * len(aas)].reshape(len(aas), n)
        traces.append(WavelengthTrace(sample_rate_hz=rate,
                                      channels=np.ascontiguousarray(block.T),
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

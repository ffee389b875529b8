"""The wavelength trace, its interrogator-style CSV form, and run configuration.

Trace files carry one row per (sample, active area) with the header
``time_s,fiber,aa,wavelength_nm``. Column names embed units to keep nm and
pm from being confused. All writers go through an atomic temp-file rename
so an error never leaves a partial output behind.
"""

from __future__ import annotations

import io
import math
import os
import re
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, ParseError

TRACE_HEADER = "time_s,fiber,aa,wavelength_nm"

#: Interrogator wavelength band (nm).
BAND_NM = (1510.0, 1590.0)

#: Assumed rate for single-instant files, where no spacing is observable.
FALLBACK_SAMPLE_RATE_HZ = 1000.0

RATE_TOLERANCE = 1e-6  # relative spread allowed between sample intervals

TIME_DECIMALS = 6  # digits after the point of a trace file's times

_WRITE_CHARS = 1 << 20  # characters encoded and written at a time


@dataclass(frozen=True)
class WavelengthTrace:
    """Uniformly sampled Bragg wavelengths, one column per active area."""

    sample_rate_hz: float
    channels: np.ndarray  # (n_samples, n_channels), nm; producers here keep each column contiguous
    t0: float = 0.0
    labels: tuple = ((0, 0), (0, 1), (0, 2))  # (fiber, active area)

    def __post_init__(self):
        ch = np.asarray(self.channels, dtype=float)
        if ch.ndim != 2 or min(ch.shape) < 1:
            raise DataError("channels must be a 2-D array of at least one sample and channel")
        if len(self.labels) != ch.shape[1]:
            raise DataError("one (fiber, aa) label per channel is required")
        if not (np.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise ParameterError("sample_rate_hz must be finite and positive")
        object.__setattr__(self, "channels", ch)
        object.__setattr__(self, "labels", tuple((int(f), int(a)) for f, a in self.labels))

    @property
    def n_samples(self):
        return self.channels.shape[0]

    def times(self):
        return self.t0 + np.arange(self.n_samples) / self.sample_rate_hz

    def channel(self, index):
        return self.channels[:, index]


def atomic_write_text(path, text):
    """Write text to path via a temp file and atomic rename."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            # A slice at a time: the text and its encoding are never both
            # held whole.
            for start in range(0, len(text), _WRITE_CHARS):
                fh.write(text[start:start + _WRITE_CHARS])
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename2 is not None:
            # os.replace names the temp file, now removed: name the target only.
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


#: Rows formatted per chunk by csv_text: bounds the arrays (or Python floats)
#: that one chunk's formatting holds at once.
CHUNK_ROWS = 4096

FIBERS = (0, 1)
AREAS = (0, 1, 2)


#: |x| * 10**N below this is formatted by array arithmetic: the product's
#: spacing is at most 1/2 there, so its fraction shows every half-way case.
_EXACT_LIMIT = 2.0 ** 52
_MAX_DECIMALS = 15
#: The powers of ten a double holds exactly, 10**0 .. 10**22.
_POW10 = np.array([10.0 ** k for k in range(23)])


#: The one field form the array writer prints: ``{[column]:.N(f|g)}``.
_FIELD = re.compile(r"\{([0-9]*):\.([0-9]+)([fg])\}")


def _fixed_template(row_format, n_columns):
    """``[(literal, column, N, kind)]`` when every field is a _FIELD, all
    numbered or none, between ASCII text without braces or NUL bytes, else
    None. The last entry is the text after the last field, column None."""
    parts = _FIELD.split(row_format)  # literal, column, N, kind, ..., literal
    literals, names = parts[::4], parts[1::4]
    text = "".join(literals)
    if not text.isascii() or any(c in text for c in "{}\0") or len({*map(bool, names)}) > 1:
        return None
    pieces = [(literal, int(name) if name else i, int(n), kind) for i, (literal, name, n, kind)
              in enumerate(zip(literals, names, parts[2::4], parts[3::4]))]
    if any(column >= n_columns or not (kind == "g") <= n <= _MAX_DECIMALS
           for _, column, n, kind in pieces):
        return None
    return pieces + [(literals[-1], None, 0, "f")]


def _scaled_integers(x, decimals):
    """The integer ``f"{v:.{decimals}f}"`` spells without point and sign, for
    one or per-value decimals: |v| * 10**decimals rounded half to even on its
    exact value, as float64. None unless each product is finite and below 2**52."""
    a = np.abs(x)
    with np.errstate(over="ignore"):
        p = a * _POW10[decimals]
    if not np.all(p < _EXACT_LIMIT):
        return None
    k = np.floor(p)
    frac = p - k
    k += frac > 0.5
    tie = np.flatnonzero(frac == 0.5)
    if tie.size:  # half-way in p: str.format rounds the exact product
        places = np.broadcast_to(decimals, a.shape)[tie].tolist()
        k[tie] = [int(f"{v:.{d}f}".replace(".", "")) for v, d in zip(a[tie].tolist(), places)]
    return k


def _mantissas(x, digits):
    """``(k, e)``: ``f"{v:.{digits - 1}e}"`` as its digits' integer and its
    exponent, or None unless ``{:.{digits}g}`` prints every value so (e < -4)
    with 10**(digits - 1 - e) in _POW10. log10's e, one off near a power of
    ten, moves where the product leaves [10**(digits - 1), 10**digits), then
    where it rounds up."""
    a = np.abs(x)
    if not np.all((a > 0) & (a < np.inf)):
        return None
    least, limit = _POW10[digits - 1], _POW10[digits]
    e = np.clip(np.floor(np.log10(a)), digits - _POW10.size, digits - 1).astype(np.int64)
    p = a * _POW10[digits - 1 - e]
    e += p >= limit
    e -= p < least
    shift = digits - 1 - e
    k = _scaled_integers(a, shift) if 0 <= shift.min() <= shift.max() < _POW10.size else None
    if k is None:
        return None
    e += k == limit  # rounded up into the next decade
    k[k == limit] = least
    return (k, e) if e.max() < -4 else None


def _fixed_bytes(x, precision, kind):
    """``f"{v:.{precision}{kind}}"`` of each value as a ``(width, rows)``
    uint8 matrix, one column per value. Whole-part leading zeros, the sign
    of a value that has none and, under "g", trailing zeros of the fraction
    and a point they leave bare are byte 0, to be dropped from the text.
    None when a value needs str.format (see _scaled_integers, _mantissas).
    """
    k, exponent = (_mantissas(x, precision) or (None, None) if kind == "g"
                   else (_scaled_integers(x, precision), None))
    if k is None:
        return None
    decimals, tail = (precision, 0) if exponent is None else (precision - 1, 4)  # e-XX
    k = k.astype(np.uint64)
    n_digits = max(len(str(int(k.max()))), decimals + 1)
    negative = np.signbit(x)
    signed = bool(negative.any())
    out = np.empty((signed + n_digits + (decimals > 0) + tail, k.shape[0]), np.uint8)
    body = out[:out.shape[0] - tail]
    if decimals:
        body[-decimals - 1] = ord(".")
    for i in range(n_digits):  # lowest digit first, stepping over the point
        row = -1 - i - (0 < decimals <= i)
        q = np.floor_divide(k, 10)
        body[row] = k - 10 * q
        body[row] += ord("0")
        if i > decimals:  # a leading zero of the whole part
            body[row, k == 0] = 0
        k = q
    if tail:  # trailing zeros of the fraction, then a bare point; then e-XX
        end = body[-decimals - 1:][::-1]
        end[np.logical_and.accumulate((end == ord("0")) | (end == ord(".")))] = 0
        out[-4], out[-3] = ord("e"), ord("-")
        out[-2:] = np.divmod(-exponent, 10)
        out[-2:] += ord("0")
    if signed:
        out[0] = negative.view(np.uint8) * np.uint8(ord("-"))
    return out


def _fixed_rows(pieces, chunk):
    """The chunk's rows under a ``{:.Nf}`` or ``{:.Ng}`` template, or None (see _fixed_bytes)."""
    rows = chunk[0].shape[0]
    rendered, blocks = {}, []
    for literal, column, precision, kind in pieces:
        text = np.frombuffer(literal.encode(), np.uint8)
        blocks.append(np.broadcast_to(text[:, None], (text.size, rows)))
        if column is not None:
            key = column, precision, kind
            if key not in rendered:
                rendered[key] = _fixed_bytes(chunk[column], precision, kind)
                if rendered[key] is None:
                    return None
            blocks.append(rendered[key])
    return np.vstack(blocks).T.tobytes().replace(b"\0", b"").decode("ascii")


def csv_text(header, row_format, columns):
    """The header line, then ``row_format.format(*row)`` for each row.

    ``columns`` are equal-length 1-D sequences of numbers (else DataError);
    ``row_format`` ends each row with a newline. Rows are formatted a chunk
    at a time. When every field is ``{:.Nf}`` or ``{:.Ng}``, a chunk is
    formatted with array arithmetic to the same bytes; other templates, and
    chunks holding values it does not cover (see _fixed_bytes), go through
    ``str.format`` on the chunk's values as Python floats.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    if not all(c.ndim == 1 and c.shape == columns[0].shape for c in columns):
        raise DataError("columns must be 1-D and of equal length")
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
    a sample that breaks a row rule of _bad_row, and times that do not read
    back as they print: printed with TIME_DECIMALS decimals, their spacing
    must be uniform within RATE_TOLERANCE (so a period below 1 s must be a
    whole number of microseconds: 3 Hz and 1024 Hz are refused), and the
    start and rate read from them must give the same text again.
    """
    if isinstance(traces, WavelengthTrace):
        traces = [traces]
    first = traces[0]
    times = first.times()
    for trace in traces:
        for col, (fiber, aa) in enumerate(trace.labels):
            bad = _bad_row(times, np.broadcast_to(fiber, times.shape),
                           np.broadcast_to(aa, times.shape), trace.channels[:, col])
            if bad:
                raise ParameterError(f"area {aa} of fiber {fiber}, sample {bad[0]}: {bad[1]}")
    for other in traces[1:]:
        if other.n_samples != first.n_samples or not np.allclose(
                other.times(), times, rtol=0, atol=1e-9):
            raise ParameterError("traces written together must share sample instants")
    problem = _reread_problem(times)
    if problem:
        raise ParameterError(f"at {first.sample_rate_hz:g} Hz the times printed "
                             f"with {TIME_DECIMALS} decimals {problem}")
    # One format call writes every row of a sample instant.
    labels = [label for trace in traces for label in trace.labels]
    instant = "".join(f"{{0:.{TIME_DECIMALS}f}},{fiber},{aa},{{{k}:.9f}}\n"
                      for k, (fiber, aa) in enumerate(labels, start=1))
    channels = [trace.channels[:, col] for trace in traces
                for col in range(trace.channels.shape[1])]
    return csv_text(TRACE_HEADER, instant, [times] + channels)


def _printed(x, decimals):
    """``float(f"{v:.{decimals}f}")`` of each finite value: the digits' integer
    over an exact power of ten, one correctly rounded division."""
    k = _scaled_integers(x, decimals)
    if k is None:
        return np.array([float(f"{v:.{decimals}f}") for v in x.tolist()])
    return np.copysign(k / 10.0 ** decimals, x)


def _reread_problem(times):
    """Why parse_trace_csv would not read these times back as they print,
    or None: the printed times must pass its spacing check, and the start
    and rate it derives must print them again."""
    printed = _printed(times, TIME_DECIMALS)
    rate, problem = _rate(printed)
    if problem:
        return f"fail the reader's check: {problem}"
    again = _printed(printed[0] + np.arange(times.shape[0]) / rate, TIME_DECIMALS)
    if not (np.array_equal(again, printed)
            and np.array_equal(np.signbit(again), np.signbit(printed))):
        return "read back as other times"
    return None


def write_trace_csv(path, traces):
    atomic_write_text(path, trace_csv_text(traces))


def tips_csv_text(times, tips):
    """Tip time-series CSV: ``time_s,tip_x_mm,tip_z_mm``, one row per instant."""
    tips = np.asarray(tips, dtype=float)
    return csv_text("time_s,tip_x_mm,tip_z_mm", "{:.6f},{:.9f},{:.9f}\n",
                    (times, tips[:, 0], tips[:, 1]))


def _bad_row(t, fiber, aa, wl):
    """``(index, message)`` of the first row that breaks a trace file's rules,
    or None: fiber in FIBERS, aa in AREAS, wavelength inside BAND_NM, finite
    time, time not below the row before; a row breaking several reports the
    first. Every mask is built boolean: valid columns cost no float temporary."""
    def outside(x, low, high):  # NaN too
        return ~((low <= x) & (x <= high))
    decreasing = np.zeros(t.shape, bool)
    np.less(t[1:], t[:-1], out=decreasing[1:])
    rules = ((outside(fiber, FIBERS[0], FIBERS[-1]),
              lambda i: f"fiber must be 0 or 1, got {int(fiber[i])}"),
             (outside(aa, AREAS[0], AREAS[-1]),
              lambda i: f"aa must be 0, 1, or 2, got {int(aa[i])}"),
             (outside(wl, *BAND_NM),
              lambda i: f"wavelength {float(wl[i])} nm outside the band {BAND_NM}"),
             (~np.isfinite(t), lambda i: f"time must be finite, got {float(t[i])}"),
             (decreasing, lambda i: "time must be non-decreasing"))
    firsts = [int(mask.argmax()) if mask.any() else t.shape[0] for mask, _ in rules]
    i = min(firsts)
    return None if i == t.shape[0] else (i, rules[firsts.index(i)][1](i))


def _scan_rows(data):
    """Columns (time, fiber, aa, wavelength) of a file in any layout float()
    and int() read, one line of its text at a time (e.g. one with blank
    lines); the first line that is malformed or breaks a rule of _bad_row
    raises ParseError naming it. The slow path of parse_trace_csv."""
    lines = io.TextIOWrapper(io.BytesIO(data)).read().splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    if lines[0].strip() != TRACE_HEADER:
        raise ParseError(f"expected header {TRACE_HEADER!r}", line=1)
    rows, blanks, malformed = [], [], None
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            blanks.append(len(rows))  # a blank line before that row
            continue
        parts = raw.split(",")
        if len(parts) != 4:
            malformed = ParseError("expected 4 comma-separated fields", line=lineno)
            break
        try:
            rows.append((float(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])))
        except ValueError:
            malformed = ParseError(f"malformed row {raw!r}", line=lineno)
            break
    # Labels stay Python ints, so a message shows one of any size as read.
    t, fiber, aa, wl = np.array(rows, dtype=object).reshape(-1, 4).T
    t, wl = t.astype(float), wl.astype(float)
    bad = _bad_row(t, fiber, aa, wl)
    if bad:  # a row before the malformed line, if any
        raise ParseError(bad[1], line=bad[0] + 2 + sum(b <= bad[0] for b in blanks))
    if malformed:
        raise malformed
    return t, fiber, aa, wl


#: One data line as the trace writer prints it: time and wavelength as
#: ``[-]D+[.D+]``, the labels as one digit each.
_FIXED_LINE = re.compile(
    rb"(-?)([0-9]+)(?:\.([0-9]+))?,([0-9]),([0-9]),(-?)([0-9]+)(?:\.([0-9]+))?\n")
#: Runs of equal-length lines the fixed-layout reader takes: the writer's
#: time field widens at 10 s, 100 s, ..., so a file holds a handful.
_MAX_RUNS = 8
#: Digits in a time or wavelength: its integer is then below 10**15 < 2**53,
#: so the sum of its digits times their powers of ten is exact.
_MAX_DIGITS = 15
_BLOCK_BYTES = 1 << 16  # bytes of a run read per step


def _line_runs(data, start):
    """``[(offset, lines, width)]``: data[start:], which ends in a newline,
    cut into runs of consecutive lines of equal length, or None when there
    are more than _MAX_RUNS runs."""
    buf = np.frombuffer(data, np.uint8)
    runs = []
    while start < len(data) and len(runs) < _MAX_RUNS:
        end = data.find(b"\n", start)
        width = end + 1 - start
        ends = buf[end::width] == ord("\n")
        lines = ends.size if ends.all() else int(ends.argmin())
        runs.append((start, lines, width))
        start += lines * width
    return None if start < len(data) else runs


def _fixed_columns(data, start):
    """Columns (time, fiber, aa, wavelength) of the lines data[start:], or
    None unless every line has the fixed-decimal layout the writer prints.

    A run of equal-length lines is read a block at a time when its first
    line matches _FIXED_LINE with at most _MAX_DIGITS digits a number, and
    every line has a digit where the first line has one and its bytes
    elsewhere: one flat subtraction of the first line, tiled to the block,
    with "0" at its digits, leaves the digits' values and zero elsewhere,
    and one flat comparison checks it. A label is its digit, one byte. Time
    and wavelength are their integer mantissas, the float64 product of
    their digits with powers of ten (exact below 2**53), over 10**decimals,
    negated under a minus sign: one correctly rounded step from exact
    operands, the double float() gives (Clinger 1990).
    """
    runs = _line_runs(data, start)
    if not runs:
        return None
    n = sum(lines for _, lines, _ in runs)
    columns = np.empty(n), np.empty(n, np.uint8), np.empty(n, np.uint8), np.empty(n)
    buf = np.frombuffer(data, np.uint8)
    row = 0
    for offset, lines, width in runs:
        match = _FIXED_LINE.fullmatch(data[offset:offset + width])
        if not match:
            return None
        numbers = []  # of time and wavelength: bytes, their powers of ten, divisor
        for minus, whole, fraction in ((1, 2, 3), (6, 7, 8)):
            digits, places = len(match[whole]), len(match[fraction] or b"")
            if digits + places > _MAX_DIGITS:
                return None
            powers = np.array([10.0 ** (k - (k > places)) * (k != places)  # 0 at the point
                               for k in range(digits + places, -1, -1)])
            numbers.append((slice(match.start(whole), match.start(whole) + powers.size), powers,
                            (-1.0 if match[minus] else 1.0) * 10.0 ** places))
        first = buf[offset:offset + width]
        digit = (first >= ord("0")) & (first <= ord("9"))
        step = max(1, _BLOCK_BYTES // width)  # lines a block
        low, span, diff = np.empty((3, step * width), np.uint8)
        low.reshape(step, width)[:] = np.where(digit, np.uint8(ord("0")), first)
        span.reshape(step, width)[:] = digit * np.uint8(9)
        ok, real = np.empty(step * width, bool), np.empty(step * width)
        for at in range(0, lines, step):
            rows = min(step, lines - at)
            used, out = rows * width, slice(row + at, row + at + rows)
            values = np.subtract(buf[offset + at * width:offset + at * width + used],
                                 low[:used], out=diff[:used])
            if not np.less_equal(values, span[:used], out=ok[:used]).all():
                return None
            real[:used] = values
            for column, (cut, powers, _) in zip(columns[::3], numbers):
                np.matmul(real[:used].reshape(rows, width)[:, cut], powers, out=column[out])
            for column, label in zip(columns[1:3], (match.start(4), match.start(5))):
                column[out] = values[label::width]
        for column, (_, _, divisor) in zip(columns[::3], numbers):
            np.divide(column[row:row + lines], divisor, out=column[row:row + lines])
        row += lines
    return columns


def _median(x):
    """np.median of finite values, without the numpy.ma import (about 20 ms)
    its first call makes: the mean of the middle value or two of a sort (a
    trace's spacings sort about 3x faster than np.partition selects)."""
    return np.mean(np.sort(x)[(x.shape[0] - 1) // 2:x.shape[0] // 2 + 1])


def _rate(times):
    """``(rate, None)`` of sorted instants, one over their median spacing
    (FALLBACK_SAMPLE_RATE_HZ for a single instant), or ``(None, what is
    wrong)`` when they repeat or vary by more than RATE_TOLERANCE."""
    if times.shape[0] < 2:
        return FALLBACK_SAMPLE_RATE_HZ, None
    deltas = np.diff(times)
    dt = float(_median(deltas))
    if dt <= 0:
        return None, "repeats sample instants"
    # The largest |spacing - dt|, as its rounded difference is monotonic.
    if max(deltas.max() - dt, dt - deltas.min()) > RATE_TOLERANCE * dt:
        return None, "sample spacing varies by more than 1 ppm"
    return 1.0 / dt, None


def parse_trace_csv(path):
    """Parse a trace CSV into one WavelengthTrace per fiber.

    Rows sharing a timestamp are grouped into one sample instant. The
    sample rate is derived from the median spacing and every interval must
    agree with it within one part per million. Schema violations, including
    non-finite times, raise ParseError naming the offending line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data and b"\r" not in (lf := data.replace(b"\r\n", b"\n")):
        data = lf  # CRLF lines read as LF; a lone CR is left to the line walk
    if data and (not data.endswith(b"\n") or data.endswith(b"\n\n")):
        data = data.rstrip(b"\n") + b"\n"  # one newline ends the last line
    header = TRACE_HEADER.encode() + b"\n"
    fixed = _fixed_columns(data, len(header)) if data.startswith(header) else None
    columns = fixed or _scan_rows(data)  # the line walk names a bad line itself
    del data  # before the row check, which can then reuse its memory
    bad = fixed and _bad_row(*fixed)
    if bad:  # the writer's layout: one row per line, no blank lines
        raise ParseError(bad[1], line=bad[0] + 2)
    t, fiber, aa, wl = columns
    if t.shape[0] == 0:
        raise ParseError("file holds no samples", line=2)

    # One stable sort by (fiber, area) keeps each series in time order.
    code = (fiber * len(AREAS) + aa).astype(np.uint8)
    counts = np.bincount(code, minlength=len(FIBERS) * len(AREAS))
    ends = np.cumsum(counts)
    if max(counts) < code.shape[0]:  # rows of one series are in that order already
        order = np.argsort(code, kind="stable")
        t, wl = t[order], wl[order]
        del fixed, columns, order  # free the file's columns before the traces
    traces = []
    for fiber in FIBERS:
        codes = [fiber * len(AREAS) + aa for aa in AREAS]
        aas = [aa for aa, c in zip(AREAS, codes) if counts[c]]
        if not aas:
            continue
        n = int(counts[codes[aas[0]]])
        start = ends[codes[aas[0]]] - n
        times0 = t[start:start + n]
        for aa in aas[1:]:
            c = codes[aa]
            if counts[c] != n or not np.array_equal(t[ends[c] - n:ends[c]], times0):
                raise ParseError(
                    f"fiber {fiber} area {aa} does not share the sample instants "
                    "of the other areas")
        rate, problem = _rate(times0)
        if problem:
            raise ParseError(f"fiber {fiber} {problem}")
        block = wl[start:start + n * len(aas)].reshape(len(aas), n)
        traces.append(WavelengthTrace(sample_rate_hz=rate,
                                      channels=block.T,
                                      t0=float(times0[0]),
                                      labels=tuple((fiber, aa) for aa in aas)))
    return traces


#: Defaults of the shape-band cutoff (Hz) and of each area's calibration:
#: base wavelength (nm) and sensitivity (nm per 1/m).
DEFAULT_SHAPE_CUTOFF_HZ = 0.05
DEFAULT_BASE_NM = 1535.3
DEFAULT_SENSITIVITY_NM_PER_INVM = 13.0

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
            if isinstance(config[key], float) and not math.isfinite(config[key]):
                raise ParseError(f"{key} must be finite, got {value!r}", line=lineno)
    return config

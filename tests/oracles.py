"""Independent reference computations used only by the tests.

These deliberately avoid the library's own code paths: the transform
oracle evaluates the defining sum directly, the peak oracle walks to each
maximum's valleys one sample at a time, the resonance oracle brackets and
refines the model's response with scipy.optimize, the shape oracle
integrates the planar Frenet system with fixed-step RK4, the geometry oracle
splits a length at midpoints between listed area positions, the vibration oracle time-steps
the equations of motion to steady state, the bend oracle walks the cable
displacement twice, once unclipped to refuse and once clipped for the
knots, the tone-fit oracle stacks its
design from whole-array rows, the trace-file oracle walks
the CSV one line at a time, the zero-phase oracles run the whole
cascade forward and then backward, through scipy.signal, through a
long-double recursion one sample at a time, or through the compiled
kernel over the whole padded record both ways, the detector oracle resets
its accumulators with max(), and the simulation oracle
assembles a trace as whole-array expressions with one noise draw.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, minimize_scalar
from scipy.signal import sosfilt, sosfilt_zi
from scipy.signal._sosfilt import _sosfilt

from fbgvib import ParameterError, ParseError, StepEvent, WavelengthTrace
from fbgvib.dataio import FALLBACK_SAMPLE_RATE_HZ, RATE_TOLERANCE, TRACE_HEADER
from fbgvib.filtering import transient_samples
from fbgvib.shape import BAND_NM, DEFAULT_SENSITIVITY_NM_PER_INVM
from fbgvib.spectral import SpectralPeak
from fbgvib.vib_model import UNBALANCE_ME, bend_curvature, output_response


def naive_dft(x):
    """Direct evaluation of X[k] = sum_n x[n] exp(-2j pi k n / N)."""
    x = np.asarray(x, dtype=complex)
    n = x.shape[0]
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) @ x


def walk_find_peaks(freqs, mags, min_prominence, max_freq_hz):
    """Spectral peaks by a valley walk: the reference for spectral.find_peaks.

    Prominence is measured against the lower of the two adjacent valley
    minima (the spans until the next higher sample on each side).
    """
    if min_prominence <= 0:
        raise ParameterError("min_prominence must be positive")
    freqs = np.asarray(freqs, dtype=float)
    mags = np.asarray(mags, dtype=float)
    peaks = []
    for i in range(1, mags.shape[0] - 1):
        if not (mags[i] > mags[i - 1] and mags[i] > mags[i + 1]):
            continue
        if freqs[i] > max_freq_hz:
            continue
        j = i - 1
        while j > 0 and mags[j] <= mags[i]:
            j -= 1
        left_valley = mags[j:i].min()
        j = i + 1
        while j < mags.shape[0] - 1 and mags[j] <= mags[i]:
            j += 1
        right_valley = mags[i + 1: j + 1].min()
        prom = mags[i] - min(left_valley, right_valley)
        if prom >= min_prominence:
            peaks.append(SpectralPeak(float(freqs[i]), float(mags[i]), float(prom)))
    peaks.sort(key=lambda p: p.amplitude, reverse=True)
    return peaks


def response_resonances(params, rpm_lo, rpm_hi, ratio=0.5, n_grid=4001):
    """(peak rpm, low edge, high edge) per maximum of |output_response| in
    [rpm_lo, rpm_hi]: a dense log grid brackets each maximum, Brent's
    method refines it, and each edge is where the response crosses ratio
    times the peak, by root bracketing. A peak with no grid point at or
    below that level on either side is left out."""
    def amp(rpm):
        return abs(output_response(params, rpm / 60.0))

    grid = np.geomspace(rpm_lo, rpm_hi, n_grid)
    vals = np.array([amp(r) for r in grid])
    found = []
    for i in np.flatnonzero((vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])) + 1:
        peak = minimize_scalar(lambda r: -amp(r), bracket=tuple(grid[i - 1:i + 2]),
                               tol=1e-12).x
        level = ratio * amp(peak)
        below = np.flatnonzero(vals[:i] <= level)
        above = np.flatnonzero(vals[i:] <= level) + i
        if below.size and above.size:
            found.append((peak,
                          brentq(lambda r: amp(r) - level, grid[below[-1]], peak, xtol=1e-12),
                          brentq(lambda r: amp(r) - level, peak, grid[above[0]], xtol=1e-12)))
    return found


def rk4_frenet_tips(curvature_rows_inv_m, segment_lengths_mm, total_steps=10000):
    """Tip positions by RK4 integration of x' = sin(theta), z' = cos(theta).

    curvature_rows_inv_m: (n_cases, n_segments) in 1/m; lengths in mm.
    Integrates each constant-curvature segment separately so the
    discontinuous curvature never sits inside an RK4 step.
    """
    kappa = np.asarray(curvature_rows_inv_m, dtype=float) / 1000.0  # 1/mm
    n_cases, n_segments = kappa.shape
    steps_per_segment = max(1, total_steps // n_segments)
    x = np.zeros(n_cases)
    z = np.zeros(n_cases)
    theta = np.zeros(n_cases)
    for seg in range(n_segments):
        k = kappa[:, seg]
        h = segment_lengths_mm[seg] / steps_per_segment
        for _ in range(steps_per_segment):
            t1 = theta
            t2 = theta + 0.5 * h * k
            t4 = theta + h * k
            dx = (np.sin(t1) + 4.0 * np.sin(t2) + np.sin(t4)) / 6.0
            dz = (np.cos(t1) + 4.0 * np.cos(t2) + np.cos(t4)) / 6.0
            x = x + h * dx
            z = z + h * dz
            theta = t4
    return np.column_stack((x, z))


def quarter_point_segment_lengths(length_mm):
    """Segment lengths (mm) with the active areas listed at the quarter
    points and each boundary midway between two listed areas."""
    pos = tuple(float(p) for p in (0.25 * length_mm, 0.5 * length_mm, 0.75 * length_mm))
    bounds = [0.0]
    bounds += [0.5 * (a + b) for a, b in zip(pos, pos[1:])]
    bounds.append(length_mm)
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def two_walk_bend_knots(segments, cable_speed_mm_s):
    """(times, displacements) a bend profile interpolates, as two walks: the
    running sum of pulls less releases refuses a release that takes it below
    -1e-12 (ParameterError), then the knots add each phase clipped at zero."""
    disp = 0.0
    for kind, duration in segments:
        if kind == "pull":
            disp += cable_speed_mm_s * duration
        elif kind == "release":
            disp -= cable_speed_mm_s * duration
            if disp < -1e-12:
                raise ParameterError("release would drive cable displacement negative")
    times = [0.0]
    disps = [0.0]
    for kind, duration in segments:
        step = {"pull": 1.0, "release": -1.0, "hold": 0.0}[kind]
        times.append(times[-1] + duration)
        disps.append(max(0.0, disps[-1] + step * cable_speed_mm_s * duration))
    return np.array(times), np.array(disps)


def ode_steady_amplitudes(params, forcing_hz, settle_s=110.0, cycles=2):
    """Half peak-to-peak steady displacement of both coordinates (m).

    Integrates M x'' + C x' + K x = [me w^2 sin(w t), 0] from rest, waits
    out the transient, and measures over full forcing cycles.
    """
    m1, m2 = params.m1, params.m2
    k1, k2 = params.k1, params.k2
    c1, c2 = params.c1, params.c2
    me = UNBALANCE_ME
    w = 2.0 * np.pi * forcing_hz

    def rhs(t, y):
        x1, x2, v1, v2 = y
        f_t = me * w * w * np.sin(w * t)
        a1 = (f_t - c1 * v1 - (k1 + k2) * x1 + k2 * x2) / m1
        a2 = (-c2 * v2 - k2 * (x2 - x1)) / m2
        return (v1, v2, a1, a2)

    period = 1.0 / forcing_hz
    t_end = settle_s + cycles * period
    t_eval = np.linspace(settle_s, t_end, 4001)
    sol = solve_ivp(rhs, (0.0, t_end), np.zeros(4), t_eval=t_eval,
                    rtol=1e-9, atol=1e-16, method="DOP853")
    amp1 = 0.5 * (sol.y[0].max() - sol.y[0].min())
    amp2 = 0.5 * (sol.y[1].max() - sol.y[1].min())
    return amp1, amp2


def sine_amplitude(x, sample_rate_hz, frequency_hz):
    """Least-squares amplitude of one sinusoid in a record."""
    t = np.arange(len(x)) / sample_rate_hz
    design = np.column_stack((np.sin(2 * np.pi * frequency_hz * t),
                              np.cos(2 * np.pi * frequency_hz * t),
                              np.ones_like(t)))
    coef, *_ = np.linalg.lstsq(design, np.asarray(x, dtype=float), rcond=None)
    return float(np.hypot(coef[0], coef[1]))


def stacked_steady_amplitude(x, sample_rate_hz, expected_fundamental_hz, discard_fraction):
    """The tone fit with each row of its design a whole-array expression,
    stacked: the values sweep.steady_amplitude must give bit for bit (same
    rows, same normal equations)."""
    x = np.asarray(x, dtype=float)
    y = x[int(round(discard_fraction * x.shape[0])):]
    phase = 2.0 * np.pi * expected_fundamental_hz / sample_rate_hz * np.arange(y.shape[0])
    u = np.linspace(-1.0, 1.0, y.shape[0])
    design = np.stack((np.sin(phase), np.cos(phase), np.ones_like(u), u, u * u, u * u * u))
    coef = np.linalg.solve(design @ design.T, design @ (y - y[0]))
    return float(np.hypot(coef[0], coef[1]))


def line_walk_parse_trace_csv(path):
    """Trace CSV parsed row by row: the reference for dataio.parse_trace_csv.

    Same schema, messages and line numbers as the library, including the
    rejection of non-finite times.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    if lines[0].strip() != TRACE_HEADER:
        raise ParseError(f"expected header {TRACE_HEADER!r}", line=1)

    series = {}  # (fiber, aa) -> (times, wavelengths)
    last_time = None
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 4:
            raise ParseError("expected 4 comma-separated fields", line=lineno)
        try:
            t = float(parts[0])
            fiber = int(parts[1])
            aa = int(parts[2])
            wl = float(parts[3])
        except ValueError:
            raise ParseError(f"malformed row {raw!r}", line=lineno) from None
        if fiber not in (0, 1):
            raise ParseError(f"fiber must be 0 or 1, got {fiber}", line=lineno)
        if aa not in (0, 1, 2):
            raise ParseError(f"aa must be 0, 1, or 2, got {aa}", line=lineno)
        if not (BAND_NM[0] <= wl <= BAND_NM[1]):
            raise ParseError(
                f"wavelength {wl} nm outside the band {BAND_NM}", line=lineno)
        if not math.isfinite(t):
            raise ParseError(f"time must be finite, got {t}", line=lineno)
        if last_time is not None and t < last_time:
            raise ParseError("time must be non-decreasing", line=lineno)
        last_time = t
        series.setdefault((fiber, aa), ([], []))
        series[(fiber, aa)][0].append(t)
        series[(fiber, aa)][1].append(wl)
    if not series:
        raise ParseError("file holds no samples", line=2)

    traces = []
    for fiber in sorted({f for f, _ in series}):
        aas = sorted(a for f, a in series if f == fiber)
        times0 = np.array(series[(fiber, aas[0])][0])
        n = times0.shape[0]
        for aa in aas:
            t_aa, _ = series[(fiber, aa)]
            if len(t_aa) != n or not np.array_equal(np.array(t_aa), times0):
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
        channels = np.column_stack([series[(fiber, aa)][1] for aa in aas])
        traces.append(WavelengthTrace(sample_rate_hz=rate, channels=channels,
                                      t0=float(times0[0]),
                                      labels=tuple((fiber, aa) for aa in aas)))
    return traces


def _odd_reflect(spec, x):
    pad = min(transient_samples(spec), x.shape[0] - 1)
    left = 2 * x[0] - x[pad:0:-1]
    right = 2 * x[-1] - x[-2:-pad - 2:-1]
    return pad, np.concatenate((left, x, right))


def sosfilt_zero_phase(spec, x):
    """Zero-phase cascade by scipy.signal.sosfilt: the reference for
    filtering.apply_zero_phase (same padding, same order: the whole cascade
    forward, then the whole cascade backward).

    Each pass starts from sosfilt_zi's steady state scaled by the first
    sample, as if the cascade had run on that sample forever.
    """
    x = np.asarray(x, dtype=float)
    pad, y = _odd_reflect(spec, x)
    sos = np.array(spec.sos)
    zi = sosfilt_zi(sos)
    for _ in range(2):
        y, _ = sosfilt(sos, y, zi=zi * y[0])
        y = y[::-1]
    return y[pad:pad + x.shape[0]]


def longdouble_zero_phase(spec, x):
    """Zero-phase cascade by the direct recursion in long double.

    Each pass runs every section in turn, y[n] = b0 x[n] + b1 x[n-1] +
    b2 x[n-2] - a1 y[n-1] - a2 y[n-2] sample by sample, from the steady
    state of a record held at its first sample: inputs before the start
    equal that sample and outputs before the start equal it times the
    cascade's DC gain. The level is carried apart from the departure, so
    the rounding scales with the signal rather than with the ~1535 nm
    offset.
    """
    x = np.asarray(x, dtype=np.longdouble)
    pad, y = _odd_reflect(spec, x)
    sections = [tuple(np.longdouble(v) for v in row[[0, 1, 2, 4, 5]]) for row in spec.sos]
    gain = np.longdouble(1)
    for b0, b1, b2, a1, a2 in sections:
        gain *= (b0 + b1 + b2) / (1 + a1 + a2)
    for _ in range(2):
        level = y[0]
        d = y - level
        for b0, b1, b2, a1, a2 in sections:
            out = np.empty_like(d)
            x1 = x2 = y1 = y2 = np.longdouble(0)
            for n in range(d.shape[0]):
                v = b0 * d[n] + b1 * x1 + b2 * x2 - a1 * y1 - a2 * y2
                out[n] = v
                x2, x1 = x1, d[n]
                y2, y1 = y1, v
            d = out
        y = (gain * level + d)[::-1]
    return np.asarray(y[pad:pad + x.shape[0]], dtype=float)


def full_length_zero_phase(spec, x):
    """The step-matched zero-phase cascade with both passes over the whole
    padded record, the backward one through the reflected left edge too:
    the reference that filtering.apply_zero_phase, which stops its backward
    pass where the output ends, must equal bit for bit."""
    x = np.asarray(x, dtype=float)
    pad, y = _odd_reflect(spec, x)
    sos = spec.sos.copy()
    dc_gain = math.prod((b0 + b1 + b2) / (1.0 + a1 + a2)
                        for b0, b1, b2, _, a1, a2 in sos.tolist())
    d, f = np.empty((2, 1, y.shape[0]))
    for _ in range(2):
        np.subtract(y, y[0], out=d[0])
        np.copyto(f, d)
        _sosfilt(sos, f, np.zeros((1, sos.shape[0], 2)))
        f -= d
        f += (dc_gain - 1.0) * y[0]
        y += f[0]
        y = y[::-1]
    return y[pad:pad + x.shape[0]]


def max_cusum_detect_steps(x, threshold_nm, drift_nm, window_s, sample_rate_hz,
                           t0=0.0, blocks_per_window=5):
    """The events of events.detect_steps, from its block-mean CUSUM with
    each accumulator reset by max(0.0, g)."""
    window = max(int(round(window_s * sample_rate_hz)), blocks_per_window)
    block = max(window // blocks_per_window, 1)
    n_blocks = x.shape[0] // block
    means = x[: n_blocks * block].reshape(n_blocks, block).mean(axis=1).tolist()
    allowance = drift_nm / blocks_per_window
    events = []
    g_up = g_down = 0.0
    start_up = start_down = 0
    after = 0
    for j in range(1, n_blocks):
        d = 0.0 if j == after else means[j] - means[j - 1]
        if g_up == 0.0:
            start_up = j - 1
        if g_down == 0.0:
            start_down = j - 1
        g_up = max(0.0, g_up + d - allowance)
        g_down = max(0.0, g_down - d - allowance)
        fired = None
        if g_up >= threshold_nm:
            fired = ("up", max(means[j:j + 2]) - means[start_up])
        elif g_down >= threshold_nm:
            fired = ("down", means[start_down] - min(means[j:j + 2]))
        if fired is not None:
            direction, magnitude = fired
            index = (j + 1) * block - 1
            events.append(StepEvent(index=index, time_s=t0 + index / sample_rate_hz,
                                    magnitude_nm=magnitude, direction=direction))
            g_up = g_down = 0.0
            after = j + 1
    return events


def reference_simulate(scenario, params, seed=0):
    """The trace vib_model.simulate must give bit for bit: each term a
    whole-array expression, placeholder curvature and slack without a bend,
    the areas written as columns of an (n, areas) array and the noise drawn
    in one (n, areas) call."""
    fs = scenario.sample_rate_hz
    n = int(round(scenario.duration_s * fs))
    n_areas = len(scenario.base_wavelength_nm)
    t = np.arange(n) / fs
    if scenario.bend is not None:
        curvature, displacement = bend_curvature(scenario.bend, t)
        slack = np.where(displacement < scenario.bend.slack_threshold_mm,
                         scenario.bend.slack_amplitude_scale, 1.0)
    else:
        curvature = np.zeros(n)
        slack = np.ones(n)
    vibration = np.zeros(n)
    if scenario.rpm > 0:
        f0 = scenario.rpm / 60.0
        for m, weight in enumerate(scenario.harmonic_weights, start=1):
            if weight == 0.0:
                continue
            phasor = output_response(params, m * f0)
            vibration += weight * abs(phasor) * np.sin(
                2.0 * np.pi * m * f0 * t + np.angle(phasor))
    vibration *= slack
    rng = np.random.default_rng(seed)
    channels = np.empty((n, n_areas))
    shape_nm = DEFAULT_SENSITIVITY_NM_PER_INVM * curvature
    for i in range(n_areas):
        channels[:, i] = scenario.base_wavelength_nm[i] + shape_nm + vibration
    if scenario.noise_sigma_nm > 0:
        channels += rng.normal(0.0, scenario.noise_sigma_nm, size=channels.shape)
    return WavelengthTrace(sample_rate_hz=fs, channels=channels, t0=0.0,
                           labels=tuple((0, i) for i in range(n_areas)))

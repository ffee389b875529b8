"""Synthetic wavelength traces from a harmonically excited two-mass model.

A rotating tool with residual unbalance forces the manipulator tip (mass 1)
with amplitude proportional to the square of the rotation rate. The sensor
assembly (mass 2) sits loosely in its wall channel, coupled through a soft
spring, so the pair behaves as a two degree-of-freedom system with one low
and one high natural frequency. Generated traces superpose the quasi-static
shape response of a cable bend, the gain-scaled steady-state vibration at
the tool rate and its weak integer multiples, and interrogator noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataio import AREAS, BAND_NM, CHUNK_ROWS, WavelengthTrace
from .errors import DataError, ParameterError, UndampedResonanceError
from .shape import DEFAULT_BASE_NM, DEFAULT_SENSITIVITY_NM_PER_INVM

#: Tool rotation range covered by the bench hardware (rev/min).
RPM_MAX = 2400.0

#: Wavelength oscillation amplitude (nm) anchored between the two
#: resonances at the 240 rev/min operating point.
DEFAULT_PLATEAU_NM = 0.045

DEFAULT_UNBALANCE_ME = 1.0e-6  # kg*m

#: Most samples one scenario may hold over all its areas, checked before
#: anything is allocated: simulate holds a few arrays of this many doubles
#: (512 MiB each), about 150 times the canonical 150 s, 1 kHz, 3-area trace.
MAX_SAMPLES = 2 ** 26


@dataclass(frozen=True)
class TwoDofParams:
    """Lumped parameters of the manipulator-plus-sensor vibration model.

    The stiffness chain is ground --k1-- m1 --k2-- m2; each damper acts
    between its own coordinate and ground, which keeps the high-frequency
    transmission into the sensor governed by the soft coupling spring alone.
    gain2 converts sensor displacement (m) into wavelength shift (nm).
    """

    m1: float
    m2: float
    k1: float
    k2: float
    c1: float = 0.0
    c2: float = 0.0
    unbalance_me: float = DEFAULT_UNBALANCE_ME
    gain2: float = 1.0

    def __post_init__(self):
        if min(self.m1, self.m2, self.k1, self.k2) <= 0:
            raise ParameterError("masses and stiffnesses must be strictly positive")
        if self.c1 < 0 or self.c2 < 0:
            raise ParameterError("dampers must be non-negative")
        f1, f2 = self.natural_frequencies_hz()
        if not np.isfinite(f1) or not np.isfinite(f2) or (f2 - f1) <= 1e-9 * f2:
            raise ParameterError("undamped natural frequencies must be real and distinct")

    def natural_frequencies_hz(self):
        """Undamped natural frequencies, ascending (Hz)."""
        m1, m2 = self.m1, self.m2
        # Characteristic polynomial of det(K - lambda M) in lambda.
        a = m1 * m2
        b = -(m1 * self.k2 + m2 * (self.k1 + self.k2))
        c = self.k1 * self.k2
        disc = b * b - 4.0 * a * c
        if disc < 0:
            return np.nan, np.nan
        root = np.sqrt(disc)
        lam = np.array([(-b - root) / (2 * a), (-b + root) / (2 * a)])
        return tuple(np.sqrt(lam) / (2.0 * np.pi))


def frf_response(params, forcing_hz):
    """Complex steady-state displacement of both coordinates (m).

    Solves (K - w^2 M + j w C) X = F for unbalance forcing
    F = unbalance_me * w^2 applied to mass 1.
    """
    w = 2.0 * np.pi * float(forcing_hz)
    if forcing_hz < 0:
        raise ParameterError("forcing_hz must be non-negative")
    if w == 0.0:
        return 0.0 + 0.0j, 0.0 + 0.0j
    a11 = params.k1 + params.k2 - w * w * params.m1 + 1j * w * params.c1
    a12 = -params.k2
    a22 = params.k2 - w * w * params.m2 + 1j * w * params.c2
    det = a11 * a22 - a12 * a12
    f1 = params.unbalance_me * w * w
    scale = max(abs(a11), abs(a22), abs(a12)) ** 2
    if abs(det) <= 1e-12 * scale:
        raise UndampedResonanceError(
            f"system matrix is singular at {forcing_hz} Hz (undamped resonance)")
    x1 = a22 * f1 / det
    x2 = -a12 * f1 / det
    return x1, x2


def frf_amplitude(params, forcing_hz):
    """Steady-state displacement amplitude (|x1|, |x2|) in metres."""
    x1, x2 = frf_response(params, forcing_hz)
    return abs(x1), abs(x2)


def output_response(params, forcing_hz):
    """Complex wavelength-shift phasor gain2 * x2 (nm). Adding 0.0 turns an
    imaginary -0.0 into +0.0: an undamped negative phasor has phase +pi."""
    return params.gain2 * frf_response(params, forcing_hz)[1] + 0.0


def default_params(natural_f1_hz=0.4, natural_f2_hz=16.0, mass_ratio=0.1,
                   damping_ratio=0.05):
    """Calibrated model: modes at 0.4 and 16 Hz, plateau pinned at 240 rpm.

    With m1 = 1 kg and m2 = mass_ratio, the stiffnesses that put the
    undamped modes on the two targets follow from the sum and product of
    the characteristic-polynomial roots; the soft coupling branch (smaller
    k2) keeps the low mode in the sensor coordinate. Dampers give roughly
    damping_ratio on each mode. Whatever the four values, the gain is pinned
    so the sensor oscillates DEFAULT_PLATEAU_NM at 240 rpm (4 Hz). Raises
    ParameterError for targets not strictly ordered or with no
    positive-stiffness solution.
    """
    if not (0.0 < natural_f1_hz < natural_f2_hz):
        raise ParameterError("targets must satisfy 0 < f1_hz < f2_hz")
    if not (0.0 < mass_ratio < 1.0):
        raise ParameterError("mass_ratio must lie in (0, 1)")
    if not (0.0 <= damping_ratio < 1.0):
        raise ParameterError("damping_ratio must lie in [0, 1)")
    m1 = 1.0
    m2 = mass_ratio
    lam1 = (2.0 * np.pi * natural_f1_hz) ** 2
    lam2 = (2.0 * np.pi * natural_f2_hz) ** 2
    # (m1+m2) k2^2 - (lam1+lam2) m1 m2 k2 + m1 m2^2 lam1 lam2 = 0
    a = m1 + m2
    b = -(lam1 + lam2) * m1 * m2
    c = m1 * m2 * m2 * lam1 * lam2
    disc = b * b - 4.0 * a * c
    if disc <= 0:
        raise ParameterError("no positive-stiffness solution for these targets")
    k2 = (-b - np.sqrt(disc)) / (2.0 * a)
    if k2 <= 0:
        raise ParameterError("no positive-stiffness solution for these targets")
    k1 = lam1 * lam2 * m1 * m2 / k2
    c1 = 2.0 * damping_ratio * m1 * np.sqrt(lam2)
    c2 = 2.0 * damping_ratio * m2 * np.sqrt(lam1)
    p = TwoDofParams(m1=m1, m2=m2, k1=k1, k2=k2, c1=c1, c2=c2)
    _, x2 = frf_response(p, 4.0)
    return replace(p, gain2=DEFAULT_PLATEAU_NM / abs(x2))


BEND_PHASES = ("hold", "pull", "release")


@dataclass(frozen=True)
class BendProfile:
    """Piecewise-constant-rate cable actuation (pull / hold / release).

    slack_amplitude_scale multiplies the vibration amplitude while cable
    displacement sits below slack_threshold_mm: near the straight pose the
    loose cables stop constraining the oscillation.
    """

    segments: tuple = (("pull", 75.0), ("release", 75.0))
    cable_speed_mm_s: float = 0.1
    curvature_gain: float = 1.0 / 75.0  # (1/m) of curvature per mm of cable
    slack_amplitude_scale: float = 4.0
    slack_threshold_mm: float = 0.5

    def __post_init__(self):
        if not (np.isfinite(self.cable_speed_mm_s) and self.cable_speed_mm_s > 0):
            raise ParameterError("cable_speed_mm_s must be positive")
        if not (np.isfinite(self.curvature_gain) and self.curvature_gain >= 0):
            raise ParameterError("curvature_gain must be non-negative")
        if not (np.isfinite(self.slack_amplitude_scale) and self.slack_amplitude_scale > 1.0):
            raise ParameterError("slack_amplitude_scale must exceed 1")
        if not (np.isfinite(self.slack_threshold_mm) and self.slack_threshold_mm > 0):
            raise ParameterError("slack_threshold_mm must be positive")
        disp = 0.0
        for kind, duration in self.segments:
            if kind not in BEND_PHASES:
                raise ParameterError(f"unknown bend phase {kind!r}")
            if not (np.isfinite(duration) and duration > 0):
                raise ParameterError("phase durations must be finite and positive")
            if kind == "pull":
                disp += self.cable_speed_mm_s * duration
            elif kind == "release":
                disp -= self.cable_speed_mm_s * duration
                if disp < -1e-12:
                    raise ParameterError("release would drive cable displacement negative")
        object.__setattr__(self, "segments", tuple((k, float(d)) for k, d in self.segments))

    @property
    def total_duration_s(self):
        return sum(d for _, d in self.segments)

    def _knots(self):
        times = [0.0]
        disps = [0.0]
        for kind, duration in self.segments:
            step = {"pull": 1.0, "release": -1.0, "hold": 0.0}[kind]
            times.append(times[-1] + duration)
            disps.append(max(0.0, disps[-1] + step * self.cable_speed_mm_s * duration))
        return np.array(times), np.array(disps)


def bend_curvature(profile, t):
    """Curvature (1/m) and cable displacement (mm) at time(s) t.

    Displacement is piecewise linear in time; curvature is proportional to
    it. Raises DataError for t outside the profile duration.
    """
    t_arr = np.asarray(t, dtype=float)
    total = profile.total_duration_s
    if np.any(t_arr < 0) or np.any(t_arr > total + 1e-12):
        raise DataError(f"t outside the profile duration [0, {total}] s")
    times, disps = profile._knots()
    displacement = np.interp(t_arr, times, disps)
    curvature = profile.curvature_gain * displacement
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(curvature), float(displacement)
    return curvature, displacement


@dataclass(frozen=True)
class Scenario:
    """One simulated experiment: tool rate, duration, bend, and noise."""

    rpm: float
    duration_s: float
    sample_rate_hz: float = 1000.0
    bend: BendProfile | None = None
    noise_sigma_nm: float = 0.002
    base_wavelength_nm: tuple = (DEFAULT_BASE_NM,) * 3
    harmonic_weights: tuple = (1.0, 0.15, 0.05)

    def __post_init__(self):
        if not (0.0 <= self.rpm <= RPM_MAX):
            raise ParameterError(f"rpm must lie in [0, {RPM_MAX}]")
        if not (np.isfinite(self.duration_s) and self.duration_s > 0):
            raise ParameterError("duration_s must be finite and positive")
        if not (np.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise ParameterError("sample_rate_hz must be finite and positive")
        if not (np.isfinite(self.noise_sigma_nm) and self.noise_sigma_nm >= 0):
            raise ParameterError("noise_sigma_nm must be finite and non-negative")
        base = self.base_wavelength_nm
        if np.isscalar(base):
            base = (float(base),) * len(AREAS)
        base = tuple(float(b) for b in base)
        if not 1 <= len(base) <= len(AREAS):
            raise ParameterError(f"base_wavelength_nm takes 1 to {len(AREAS)} values, "
                                 "one per active area")
        if not all(BAND_NM[0] <= b <= BAND_NM[1] for b in base):
            raise ParameterError(f"base_wavelength_nm must lie within {BAND_NM} nm")
        object.__setattr__(self, "base_wavelength_nm", base)
        samples = self.duration_s * self.sample_rate_hz * len(base)
        if not samples <= MAX_SAMPLES:
            raise ParameterError(f"duration_s * sample_rate_hz * areas is {samples:.4g} "
                                 f"samples, above the bound of {MAX_SAMPLES}")
        if not self.harmonic_weights or self.harmonic_weights[0] <= 0:
            raise ParameterError("harmonic_weights must start with a positive fundamental weight")
        top = self.rpm / 60.0 * len(self.harmonic_weights)
        if self.sample_rate_hz <= 2.0 * top:
            raise ParameterError(
                f"sample_rate_hz={self.sample_rate_hz} violates the Nyquist margin for "
                f"{len(self.harmonic_weights)} modeled multiples of {self.rpm} rpm")


#: Operating points recommended for the two debriding tool families.
SCENARIO_PRESETS = {
    "soft-70rpm": {"rpm": 70.0},
    "hard-2250rpm": {"rpm": 2250.0},
}


def preset_scenario(name, duration_s=10.0, **overrides):
    if name not in SCENARIO_PRESETS:
        raise ParameterError(
            f"unknown preset {name!r}; expected one of {sorted(SCENARIO_PRESETS)}")
    kwargs = dict(SCENARIO_PRESETS[name])
    kwargs.update(overrides)
    return Scenario(duration_s=duration_s, **kwargs)


def simulate(scenario, params, seed=0):
    """Generate a wavelength trace for one scenario.

    Each channel is base wavelength + bend-induced shift (curvature times
    the shape module's default sensitivity) + steady-state vibration at
    the tool rate and its modeled multiples (scaled up while the cables
    are slack) + white noise. Deterministic for a fixed (scenario, params,
    seed). The channels are the transpose of one (areas, n) block, so each
    is contiguous.
    """
    fs = scenario.sample_rate_hz
    n = int(round(scenario.duration_s * fs))
    if n < 1:
        raise ParameterError("duration_s too short for one sample")
    bend = scenario.bend
    if bend is not None and scenario.duration_s > bend.total_duration_s + 1e-9:
        raise ParameterError("scenario duration exceeds the bend profile duration")
    t = np.arange(n, dtype=float)
    t /= fs

    # Each multiple is built in one work array by in-place ufuncs, then
    # summed from zero, as an expression would sum it.
    vibration = np.zeros(n)
    if scenario.rpm > 0:
        f0 = scenario.rpm / 60.0
        work = np.empty(n)
        for m, weight in enumerate(scenario.harmonic_weights, start=1):
            if weight == 0.0:
                continue
            phasor = output_response(params, m * f0)
            np.multiply(t, 2.0 * np.pi * m * f0, out=work)
            work += np.angle(phasor)
            np.sin(work, out=work)
            work *= weight * abs(phasor)
            vibration += work
        del work

    shape_nm = None
    if bend is not None:
        shape_nm, displacement = bend_curvature(bend, t)
        np.multiply(vibration, bend.slack_amplitude_scale, out=vibration,
                    where=displacement < bend.slack_threshold_mm)
        shape_nm *= DEFAULT_SENSITIVITY_NM_PER_INVM
        del displacement
    del t

    # Each row is (base + shape) + vibration; vibration + base without a bend.
    block = np.empty((len(scenario.base_wavelength_nm), n))
    for row, base in zip(block, scenario.base_wavelength_nm):
        if shape_nm is None:
            np.add(vibration, base, out=row)
        else:
            np.add(shape_nm, base, out=row)
            row += vibration
    channels = block.T
    if scenario.noise_sigma_nm > 0:
        # CHUNK_ROWS samples at a time draw the values of one (n, areas) draw.
        rng = np.random.default_rng(seed)
        for start in range(0, n, CHUNK_ROWS):
            rows = channels[start:start + CHUNK_ROWS]
            rows += rng.normal(0.0, scenario.noise_sigma_nm, size=rows.shape)
    labels = tuple((0, i) for i in range(block.shape[0]))
    return WavelengthTrace(sample_rate_hz=fs, channels=channels, t0=0.0, labels=labels)

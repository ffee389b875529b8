"""Band-stop cascades keyed to the tool rate, plus a low-pass shape filter.

Each notch is a single second-order section, the mean of one and a
second-order allpass (Regalia, Mitra & Vaidyanathan, Proc. IEEE 1988): its
zeros sit on the unit circle at the notch frequency, its -3 dB width is
the requested one, its DC gain is exactly one, and it gains nowhere. The
whole cascade runs forward and then backward, up to where the output ends,
so it has zero net phase: shape changes and collision transients keep their timing.

Each pass starts step-matched, as if the cascade had run on the first
sample forever: only the departure from that sample is filtered from rest,
so the recursion works on the small signal rather than on the ~1535 nm
level. A pass is one call of scipy's compiled ``_sosfilt`` (taken from its
extension without ``scipy.signal``, as ``spectral`` takes the prominence
walk) on the kernel matrix and DC gain the spec computed when it was built.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .dataio import atomic_write_text
from .errors import DataError, ParameterError

#: Cascade response required at every declared notch center.
NOTCH_FLOOR_DB = -40.0

#: Default notch width relative to the fundamental, with an absolute floor.
DEFAULT_BANDWIDTH_RATIO = 0.125
MIN_BANDWIDTH_HZ = 0.2

DEFAULT_N_HARMONICS = 3


@dataclass(frozen=True, eq=False)
class FilterSpec:
    """Immutable cascade of stable second-order sections.

    ``sos`` holds one row ``b0 b1 b2 1 a1 a2`` per section. It is checked,
    and its largest pole radius and DC gain found, once when the spec is
    built; it is read-only after that, so ``_sosfilt`` runs ``kernel_sos``,
    a writable copy. A spec compares and hashes by identity.
    """

    sos: np.ndarray
    sample_rate_hz: float
    notches: tuple = ()  # (center_hz, bandwidth_hz) per declared notch
    pole_radius: float = field(init=False, repr=False)
    dc_gain: float = field(init=False, repr=False)
    kernel_sos: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not _finite_positive(self.sample_rate_hz):
            raise ParameterError("sample_rate_hz must be finite and positive")
        sos = np.array(self.sos, dtype=float)
        if not np.isfinite(sos).all():
            raise ParameterError("section coefficients must be finite")
        if sos.ndim != 2 or sos.shape[1] != 6 or not (sos[:, 3] == 1.0).all():
            raise ParameterError("sos must hold one row b0 b1 b2 1 a1 a2 per section")
        radius = max((float(np.abs(np.roots(row[3:])).max(initial=0.0)) for row in sos),
                     default=0.0)
        if radius >= 1.0:
            raise ParameterError("unstable section: poles must lie inside the unit circle")
        object.__setattr__(self, "kernel_sos", sos.copy())
        sos.flags.writeable = False
        object.__setattr__(self, "sos", sos)
        object.__setattr__(self, "pole_radius", radius)
        object.__setattr__(self, "dc_gain", math.prod(
            (b0 + b1 + b2) / (1.0 + a1 + a2) for b0, b1, b2, _, a1, a2 in sos.tolist()))
        object.__setattr__(self, "notches", tuple(self.notches))
        for center, _ in self.notches:
            gain = abs(self.response(center))
            if gain > 10.0 ** (NOTCH_FLOOR_DB / 20.0):
                raise ParameterError(
                    f"cascade response at {center} Hz is above {NOTCH_FLOOR_DB} dB")

    def response(self, frequency_hz):
        """Complex single-pass response at frequencies (Hz), shaped like them."""
        f = np.asarray(frequency_hz, dtype=float)
        z_inv = np.exp(-2j * np.pi * f / self.sample_rate_hz)
        h = np.ones_like(z_inv, dtype=complex)
        for b0, b1, b2, _, a1, a2 in self.sos.tolist():
            h *= (b0 + b1 * z_inv + b2 * z_inv * z_inv) / (1.0 + a1 * z_inv + a2 * z_inv * z_inv)
        return h


def _finite_positive(value):
    return math.isfinite(value) and value > 0


def _notch_section(center_hz, bandwidth_hz, sample_rate_hz):
    if np.pi * bandwidth_hz >= sample_rate_hz:
        raise ParameterError("bandwidth too wide for this sample rate")
    # H = (1 + A) / 2, A = (a2 + a1 z^-1 + z^-2) / (1 + a1 z^-1 + a2 z^-2),
    # a2 = (1 - t) / (1 + t) with t = tan(pi bw / fs) for the -3 dB width.
    # k = (1 + a2) / 2 comes first, so b1 is a1 and the DC gain is exactly 1.
    k = 1.0 / (1.0 + np.tan(np.pi * bandwidth_hz / sample_rate_hz))
    b1 = -2.0 * k * np.cos(2.0 * np.pi * center_hz / sample_rate_hz)
    return (k, b1, k, 1.0, b1, 2.0 * k - 1.0)


def design_bandstop(fundamental_hz, n_harmonics=DEFAULT_N_HARMONICS,
                    bandwidth_hz=None, sample_rate_hz=1000.0):
    """Notch cascade at the fundamental and its integer multiples.

    One section per multiple m in 1..n_harmonics, centered at
    m * fundamental_hz with -3 dB width bandwidth_hz, exactly unit DC gain
    and a gain of at most one at every frequency. Raises ParameterError
    when any notch would sit at or above the Nyquist frequency, or when
    bandwidth_hz is sample_rate_hz / pi or wider. Equal arguments return
    the same frozen spec.
    """
    if not _finite_positive(fundamental_hz):
        raise ParameterError("fundamental_hz must be finite and positive")
    if not _finite_positive(sample_rate_hz):
        raise ParameterError("sample_rate_hz must be finite and positive")
    if n_harmonics < 1:
        raise ParameterError("n_harmonics must be at least 1")
    if bandwidth_hz is None:
        bandwidth_hz = max(DEFAULT_BANDWIDTH_RATIO * fundamental_hz, MIN_BANDWIDTH_HZ)
    if not _finite_positive(bandwidth_hz):
        raise ParameterError("bandwidth_hz must be finite and positive")
    nyquist = sample_rate_hz / 2.0
    centers = tuple(m * float(fundamental_hz) for m in range(1, n_harmonics + 1))
    if centers[-1] >= nyquist:
        raise ParameterError(
            f"notch at {centers[-1]} Hz is at or above the Nyquist frequency {nyquist} Hz")
    return _bandstop(centers, float(bandwidth_hz), float(sample_rate_hz))


@functools.lru_cache(maxsize=64)
def _bandstop(centers, bandwidth_hz, sample_rate_hz):
    """One frozen cascade, and one notch-floor check, per distinct design."""
    sos = [_notch_section(c, bandwidth_hz, sample_rate_hz) for c in centers]
    return FilterSpec(sos=sos, sample_rate_hz=sample_rate_hz,
                      notches=tuple((c, bandwidth_hz) for c in centers))


def design_lowpass(cutoff_hz, sample_rate_hz):
    """Second-order Butterworth low-pass (-3 dB at cutoff), bilinear form."""
    if not _finite_positive(sample_rate_hz):
        raise ParameterError("sample_rate_hz must be finite and positive")
    if not (0.0 < cutoff_hz < sample_rate_hz / 2.0):
        raise ParameterError("cutoff_hz must lie in (0, sample_rate_hz / 2)")
    k = np.tan(np.pi * cutoff_hz / sample_rate_hz)
    norm = 1.0 / (1.0 + np.sqrt(2.0) * k + k * k)
    a1 = 2.0 * (k * k - 1.0) * norm
    a2 = (1.0 - np.sqrt(2.0) * k + k * k) * norm
    # b0 + b1 + b2 == 1 + a1 + a2 in floating point: exactly unit DC gain.
    b0 = (1.0 + a1 + a2) / 4.0
    try:
        return FilterSpec(sos=[(b0, 2.0 * b0, b0, 1.0, a1, a2)],
                          sample_rate_hz=sample_rate_hz)
    except ParameterError:  # the coefficients are finite: the poles rounded
        raise ParameterError(f"a {cutoff_hz:g} Hz low-pass at {sample_rate_hz:g} Hz "
                             "rounds its poles onto the unit circle") from None


def transient_samples(spec, n_time_constants=3.0):
    """Edge-transient extent: n time constants of the slowest pole.

    Reads the spec's pole radius, which was found when it was built.
    """
    r = spec.pole_radius
    if r <= 0:
        return 12
    tau = -1.0 / np.log(r)
    return int(max(n_time_constants * tau, 12))


def _extension_path(name):
    """Path of the compiled extension ``scipy/signal/<name>``, or None.

    Finding the top-level ``scipy`` spec imports nothing.
    """
    spec = importlib.util.find_spec("scipy")
    paths = [os.path.join(root, "signal", name + suffix)
             for root in (spec and spec.submodule_search_locations) or ()
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    return next(filter(os.path.isfile, paths), None)


def _scipy_kernel(name, function):
    """``function`` of scipy's compiled ``scipy.signal.<name>``, without
    ``scipy.signal``.

    Running ``scipy/signal/__init__`` costs about a second per process; an
    extension module alone loads with top-level ``scipy`` in about 15 ms.
    It is registered under its own name, so a later ``import scipy.signal``
    reuses it instead of loading the file a second time, but does not bind
    it as an attribute of ``scipy.signal``: scipy's own ``from ._<name>
    import`` works, ``scipy.signal.<name>`` does not. Falls back to the
    package import when the file is not found or fails to load.
    """
    key = "scipy.signal." + name
    module = sys.modules.get(key)
    path = _extension_path(name) if module is None else None
    if path:
        spec = importlib.util.spec_from_file_location(key, path)
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[key] = module
        except (ImportError, OSError):
            module = None
    if module is None:
        module = importlib.import_module(key)
    return getattr(module, function)


def apply_zero_phase(spec, x):
    """The cascade forward, then backward; output length == input.

    The record is extended by odd reflection (three time constants of the
    slowest pole) so ramps cross the edges without startup transients. The
    effective magnitude response is the square of the cascade's and the net
    phase is zero. The backward pass stops where the output ends: a causal
    pass never reads ahead, and the left reflection it would end on is cut.
    """
    # Loaded on first use: only filter and sweep among the CLI stages get here.
    sosfilt = _scipy_kernel("_sosfilt", "_sosfilt")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DataError("channel must be 1-D")
    n = x.shape[0]
    if n <= 6 * max(spec.sos.shape[0], 1):
        raise DataError("record too short for the edge-transient margin")
    pad = min(transient_samples(spec), n - 1)
    # Odd reflection preserves slope continuity at both edges.
    y = np.empty(n + 2 * pad)
    np.subtract(2.0 * x[0], x[pad:0:-1], out=y[:pad])
    y[pad:pad + n] = x
    np.subtract(2.0 * x[-1], x[-2:-pad - 2:-1], out=y[pad + n:])
    # Work arrays reused by both passes: fresh ones would be page-faulted in.
    work = np.empty((2, 1, y.shape[0]))
    for end in (y.shape[0], n + pad):
        # Step-matched start: the cascade has run on y[0] forever, so y[0]
        # leaves scaled by the DC gain and only the departure d from it is
        # filtered from rest, every section per sample in one compiled loop.
        d, f = work[:, :, :end]
        np.subtract(y[:end], y[0], out=d[0])
        np.copyto(f, d)
        sosfilt(spec.kernel_sos, f, np.zeros((1, spec.sos.shape[0], 2)))
        # y += (f - d) + (G - 1) y[0]: the identity cascade returns y
        # exactly. Reversing is a view, for the next pass.
        f -= d
        f += (spec.dc_gain - 1.0) * y[0]
        y[:end] += f[0]
        y = y[::-1]
    return y[pad:pad + n]


def save_filter_spec(path, spec):
    """Write one section per line: b0 b1 b2 a1 a2 (full double precision)."""
    lines = [" ".join(f"{v:.17e}" for v in row)
             for row in spec.sos[:, [0, 1, 2, 4, 5]].tolist()]
    atomic_write_text(path, "\n".join(lines) + "\n")


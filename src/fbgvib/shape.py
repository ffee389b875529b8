"""Wavelength-to-curvature conversion and planar shape reconstruction.

Each active area reports a wavelength shift proportional to the local
curvature. The centerline is modeled as piecewise-constant curvature: one
circular arc per segment, with segment boundaries midway between active
areas. Arc increments are evaluated through a half-angle sinc form that is
exact for all curvatures and stable through the straight pose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import BAND_NM, DEFAULT_BASE_NM, DEFAULT_SENSITIVITY_NM_PER_INVM, csv_text
from .errors import DataError, ParameterError, ParseError

POLYLINE_STEP_MM = 0.1  # longest step of a reconstructed centerline
MAX_TURNING_RAD = 2.0 * math.pi  # a continuum manipulator turns at most once


@dataclass(frozen=True)
class CalibrationModel:
    """Per-area linear map: wavelength = base + sensitivity * curvature."""

    base_wavelengths_nm: tuple
    sensitivities_nm_per_invm: tuple

    def __post_init__(self):
        bases = tuple(float(b) for b in self.base_wavelengths_nm)
        sens = tuple(float(s) for s in self.sensitivities_nm_per_invm)
        if len(bases) != len(sens) or not bases:
            raise ParameterError("one (base, sensitivity) pair per active area")
        if not all(math.isfinite(s) and s != 0.0 for s in sens):
            raise ParameterError("sensitivity must be finite and nonzero for every active area")
        if any(not (BAND_NM[0] <= b <= BAND_NM[1]) for b in bases):
            raise ParameterError(f"base wavelengths must lie within {BAND_NM} nm")
        object.__setattr__(self, "base_wavelengths_nm", bases)
        object.__setattr__(self, "sensitivities_nm_per_invm", sens)

    @property
    def n_areas(self):
        return len(self.base_wavelengths_nm)


def default_calibration():
    return CalibrationModel((DEFAULT_BASE_NM,) * 3, (DEFAULT_SENSITIVITY_NM_PER_INVM,) * 3)


def wavelength_to_curvature(wavelengths_nm, calibration):
    """Curvature (1/m) per active area from measured wavelengths (nm).

    The last axis holds one wavelength per area: ``(areas,)`` for one
    instant, ``(n_samples, areas)`` for a record.
    """
    wl = np.asarray(wavelengths_nm, dtype=float)
    if wl.ndim == 0 or wl.shape[-1] != calibration.n_areas:
        raise DataError(f"expected {calibration.n_areas} wavelengths, got {wl.shape}")
    if np.any(wl < BAND_NM[0]) or np.any(wl > BAND_NM[1]):
        raise DataError(f"wavelength outside the interrogator band {BAND_NM} nm")
    base = np.array(calibration.base_wavelengths_nm)
    sens = np.array(calibration.sensitivities_nm_per_invm)
    return (wl - base) / sens


@dataclass(frozen=True)
class CmGeometry:
    """Flexible-segment length of the manipulator (mm). The three active
    areas sit at its quarter points."""

    length_mm: float = 35.0

    def __post_init__(self):
        if not (math.isfinite(self.length_mm) and self.length_mm > 0):
            raise ParameterError("length_mm must be finite and positive")

    def segment_lengths_mm(self):
        """Segment boundaries sit midway between adjacent active areas."""
        length = self.length_mm
        a, b, c = 0.25 * length, 0.5 * length, 0.75 * length
        bounds = (0.0, 0.5 * (a + b), 0.5 * (b + c), length)
        return tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]))


def _arc_step(x, z, theta, curvature_inv_mm, ds_mm):
    """Advance a planar pose along one constant-curvature arc (exact)."""
    h = curvature_inv_mm * ds_mm
    # sin(h/2) / (h/2), exact limit 1 at h = 0; no cancellation for small h.
    stretch = np.sinc(h / (2.0 * np.pi))
    x_new = x + ds_mm * stretch * np.sin(theta + 0.5 * h)
    z_new = z + ds_mm * stretch * np.cos(theta + 0.5 * h)
    return x_new, z_new, theta + h


@dataclass(frozen=True)
class ShapeEstimate:
    """Planar reconstruction: x is lateral deflection, z is along the axis."""

    centerline_mm: np.ndarray  # columns (s_mm, x_mm, z_mm)
    tip_mm: tuple  # (x_mm, z_mm)


def reconstruct(curvatures_inv_m, geometry=CmGeometry()):
    """Compose one circular arc per segment into a centerline and tip.

    The straight pose maps to tip (0, length_mm); curvature is exact in the
    arc sense so a uniform curvature pi/(2 L) lands on the quarter-circle
    point (2L/pi, 2L/pi). The pose is refused as in tips_for_curvatures.
    """
    kappa = np.asarray(curvatures_inv_m, dtype=float)
    seg_lengths = geometry.segment_lengths_mm()
    if kappa.shape != (len(seg_lengths),):
        raise DataError(f"expected {len(seg_lengths)} curvature values, got {kappa.shape}")
    if not all(math.isfinite(ell / POLYLINE_STEP_MM) for ell in seg_lengths):
        raise ParameterError("segment length overflows a polyline step count")
    tip = tuple(float(v) for v in tips_for_curvatures(kappa[None], geometry)[0])

    rows = [(0.0, 0.0, 0.0)]
    s = x = z = theta = 0.0
    for k, ell in zip(kappa / 1000.0, seg_lengths):
        n_steps = max(1, int(np.ceil(ell / POLYLINE_STEP_MM)))
        ds = ell / n_steps
        for _ in range(n_steps):
            x, z, theta = _arc_step(x, z, theta, k, ds)
            s += ds
            rows.append((s, x, z))
    return ShapeEstimate(centerline_mm=np.array(rows), tip_mm=tip)


def tips_for_curvatures(curvature_rows_inv_m, geometry=CmGeometry()):
    """Tip positions (x_mm, z_mm) for many curvature triples at once; a
    sample turning more than MAX_TURNING_RAD (sum of |curvature| * segment
    length) raises DataError naming the first."""
    kappa = np.asarray(curvature_rows_inv_m, dtype=float) / 1000.0
    seg_lengths = geometry.segment_lengths_mm()
    if kappa.ndim != 2 or kappa.shape[1] != len(seg_lengths):
        raise DataError(f"expected rows of {len(seg_lengths)} curvature values")
    turning = np.abs(kappa) @ np.array(seg_lengths)
    over = np.flatnonzero(turning > MAX_TURNING_RAD)
    if over.size:
        pose = f"sample {over[0]}" if kappa.shape[0] > 1 else "the pose"
        raise DataError(f"{pose} turns the tip {turning[over[0]]:.4g} rad, over one full turn")
    x = np.zeros(kappa.shape[0])
    z = np.zeros(kappa.shape[0])
    theta = np.zeros(kappa.shape[0])
    for col, ell in enumerate(seg_lengths):
        x, z, theta = _arc_step(x, z, theta, kappa[:, col], ell)
    return np.column_stack((x, z))


def shape_csv_text(estimate):
    return csv_text("s_mm,x_mm,z_mm", "{:.6f},{:.9f},{:.9f}\n", estimate.centerline_mm.T)


def load_calibration(path):
    """Read a calibration CSV: each area once, with finite values."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != "aa_index,base_wavelength_nm,sensitivity_nm_per_invm":
        raise ParseError("bad calibration header", line=1)
    bases, sens = {}, {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError("expected aa_index,base,sensitivity", line=lineno)
        try:
            idx, base, gain = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if idx in bases:
            raise ParseError(f"active area {idx} is listed twice", line=lineno)
        if not (math.isfinite(base) and math.isfinite(gain)):
            raise ParseError("base and sensitivity must be finite", line=lineno)
        bases[idx], sens[idx] = base, gain
    order = sorted(bases)
    if order != list(range(len(bases))):
        raise ParseError("active-area indices must be 0..n-1")
    return CalibrationModel(tuple(bases[i] for i in order),
                            tuple(sens[i] for i in order))

"""FBG shape sensing under rotating-tool vibration.

Simulates wavelength traces of a cable-driven continuum manipulator whose
embedded fiber sensor is harmonically excited by a rotating tool, analyzes
them in the frequency domain, removes the tool-locked lines with notch
cascades, reconstructs the planar shape, flags collision-like level
shifts, and identifies system resonances from rpm sweeps.
"""

from .dataio import WavelengthTrace
from .errors import (DataError, ParameterError, ParseError, SensingError,
                     UndampedResonanceError)
from .events import EventReport, StepEvent, detect_steps
from .filtering import (FilterSpec, apply_zero_phase, design_bandstop,
                        design_lowpass, save_filter_spec)
from .shape import (CalibrationModel, CmGeometry, ShapeEstimate,
                    default_calibration, load_calibration, reconstruct,
                    tips_for_curvatures, wavelength_to_curvature)
from .spectral import (SpectralFeatures, SpectralPeak, features_from_spectrum,
                       find_peaks, identify_features, magnitude_spectrum)
from .sweep import (ResonanceReport, analyze_sweep_points, default_rpm_grid,
                    ingest_sweep_dir, run_sweep, steady_amplitude)
from .vib_model import (BendProfile, Scenario, TwoDofParams, bend_curvature,
                        default_params, frf_amplitude, frf_response,
                        output_response, preset_scenario, simulate)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

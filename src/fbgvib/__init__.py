"""FBG shape sensing under rotating-tool vibration.

Simulates wavelength traces of a cable-driven continuum manipulator whose
embedded fiber sensor is harmonically excited by a rotating tool, analyzes
them in the frequency domain, removes the tool-locked lines with notch
cascades, reconstructs the planar shape, flags collision-like level
shifts, and identifies system resonances from rpm sweeps. The modules and
the names below load on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

#: Public name -> the module that defines it.
_HOMES = {name: module for module, names in {
    "dataio": "WavelengthTrace", "events": "EventReport StepEvent detect_steps",
    "errors": "DataError ParameterError ParseError SensingError UndampedResonanceError",
    "filtering": "FilterSpec apply_zero_phase design_bandstop design_lowpass save_filter_spec",
    "shape": "CalibrationModel CmGeometry ShapeEstimate default_calibration load_calibration "
             "reconstruct tips_for_curvatures wavelength_to_curvature",
    "spectral": "SpectralFeatures SpectralPeak features_from_spectrum find_peaks "
                "identify_features magnitude_spectrum",
    "sweep": "ResonanceReport analyze_sweep_points default_rpm_grid ingest_sweep_dir "
             "run_sweep steady_amplitude",
    "vib_model": "BendProfile Scenario TwoDofParams bend_curvature default_params "
                 "frf_amplitude frf_response output_response preset_scenario simulate",
}.items() for name in names.split()}

__all__ = sorted({*_HOMES, *_HOMES.values()})


def __getattr__(name):
    module = name if name in _HOMES.values() else _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")  # binds the module here
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})

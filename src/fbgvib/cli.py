"""Command-line pipeline: simulate, analyze, filter, shape, detect, sweep.

Usage errors (bad flags, missing inputs, config violations) exit with
status 2 and runtime failures with status 1; either way exactly one
diagnostic line goes to stderr. Outputs are written atomically and are
byte-identical for a fixed seed and configuration.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import dataio, events, filtering, spectral, shape, sweep, vib_model
from .errors import ParameterError, SensingError

USAGE_EXIT = 2
RUNTIME_EXIT = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParameterError(message)


def _finite_float(text):
    """argparse type for float flags: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _parse_bend(text):
    """Build a BendProfile from 'pull=60,release=60,cable_speed=0.1,...'."""
    segments = []
    kwargs = {}
    for item in text.split(","):
        if not item.strip():
            continue
        if "=" not in item:
            raise ParameterError(f"--bend entries must be key=value, got {item!r}")
        key, value = (p.strip() for p in item.split("=", 1))
        try:
            val = float(value)
        except ValueError:
            raise ParameterError(f"--bend value for {key!r} must be numeric") from None
        if not math.isfinite(val):
            raise ParameterError(f"--bend value for {key!r} must be finite, got {value!r}")
        if key in vib_model.BEND_PHASES:
            segments.append((key, val))
        elif key == "cable_speed":
            kwargs["cable_speed_mm_s"] = val
        elif key == "curvature_gain":
            kwargs["curvature_gain"] = val
        elif key == "slack_scale":
            kwargs["slack_amplitude_scale"] = val
        elif key == "slack_threshold":
            kwargs["slack_threshold_mm"] = val
        else:
            raise ParameterError(f"unknown --bend key {key!r}")
    if segments:
        kwargs["segments"] = tuple(segments)
    return vib_model.BendProfile(**kwargs)


def _load_config(args):
    if getattr(args, "config", None):
        return dataio.parse_config(args.config)
    return {}


def _pick(flag_value, config, key, default):
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return default


def _params_from_config(config):
    keys = ("natural_f1_hz", "natural_f2_hz", "mass_ratio", "damping_ratio")
    return vib_model.default_params(**{k: config[k] for k in keys if k in config})


def _scenario_from_args(args, config):
    rpm = _pick(args.rpm, config, "tool_velocity_rpm", None)
    bend = _parse_bend(args.bend) if args.bend else None
    if args.preset:
        return vib_model.preset_scenario(
            args.preset,
            duration_s=_pick(args.duration, config, "duration_s", 10.0),
            sample_rate_hz=_pick(args.sample_rate, config, "sample_rate_hz", 1000.0),
            bend=bend,
            noise_sigma_nm=_pick(args.noise, config, "noise_sigma_nm", 0.002),
            base_wavelength_nm=_pick(args.base, config, "base_wavelength_nm", 1535.3))
    if rpm is None:
        raise ParameterError("simulate requires --rpm or --preset")
    return vib_model.Scenario(
        rpm=rpm,
        duration_s=_pick(args.duration, config, "duration_s", 10.0),
        sample_rate_hz=_pick(args.sample_rate, config, "sample_rate_hz", 1000.0),
        bend=bend,
        noise_sigma_nm=_pick(args.noise, config, "noise_sigma_nm", 0.002),
        base_wavelength_nm=_pick(args.base, config, "base_wavelength_nm", 1535.3))


def _cmd_simulate(args):
    config = _load_config(args)
    scenario = _scenario_from_args(args, config)
    params = _params_from_config(config)
    seed = _pick(args.seed, config, "seed", 0)
    trace = vib_model.simulate(scenario, params, seed=seed)
    dataio.write_trace_csv(args.out, trace)
    print(f"wrote {trace.n_samples} samples x {len(trace.labels)} areas to {args.out}")
    return 0


def _single_fiber(path, fiber):
    traces = dataio.parse_trace_csv(path)
    for trace in traces:
        if trace.labels[0][0] == fiber:
            return trace
    raise ParameterError(f"no fiber {fiber} in {path}")


def _cmd_analyze(args):
    config = _load_config(args)
    trace = _single_fiber(args.trace, args.fiber)
    channel = trace.channel(args.aa)
    freqs, mags = spectral.magnitude_spectrum(
        channel - channel.mean(), trace.sample_rate_hz, window=args.window)
    features = spectral.features_from_spectrum(
        freqs, mags,
        rpm_hint=args.rpm_hint,
        shape_cutoff_hz=_pick(None, config, "shape_cutoff_hz",
                              spectral.DEFAULT_SHAPE_CUTOFF_HZ),
        min_prominence=_pick(args.prominence, config, "min_prominence_nm",
                             spectral.DEFAULT_MIN_PROMINENCE_NM),
        max_freq_hz=_pick(args.max_freq, config, "max_freq_hz",
                          spectral.DEFAULT_MAX_FREQ_HZ))
    if args.out:
        dataio.atomic_write_text(args.out, spectral.spectrum_rows(freqs, mags))

    def fmt(value):
        return "absent" if value is None else f"{value:.6f}"

    print(f"base_frequency_hz={fmt(features.base_frequency_hz)}")
    print(f"fundamental_hz={fmt(features.fundamental_hz)}")
    print(f"fundamental_amplitude_nm={fmt(features.fundamental_amplitude_nm)}")
    harmonics = ";".join(f"{h:.6f}" for h in features.harmonics_hz)
    print(f"harmonics_hz={harmonics or 'none'}")
    return 0


def _cmd_filter(args):
    config = _load_config(args)
    traces = dataio.parse_trace_csv(args.trace)
    fundamental = args.fundamental
    if fundamental is None and args.rpm is not None:
        fundamental = args.rpm / 60.0
    if fundamental is None and "tool_velocity_rpm" in config:
        fundamental = config["tool_velocity_rpm"] / 60.0
    if fundamental is None:
        raise ParameterError("filter requires --fundamental or --rpm")
    filtered = []
    for trace in traces:
        spec = filtering.design_bandstop(
            fundamental,
            n_harmonics=_pick(args.notch_harmonics, config, "notch_harmonics",
                              filtering.DEFAULT_N_HARMONICS),
            bandwidth_hz=_pick(args.bandwidth, config, "bandwidth_hz", None),
            sample_rate_hz=trace.sample_rate_hz)
        channels = np.column_stack([
            filtering.apply_zero_phase(spec, trace.channel(i))
            for i in range(trace.channels.shape[1])])
        filtered.append(vib_model.WavelengthTrace(
            sample_rate_hz=trace.sample_rate_hz, channels=channels,
            t0=trace.t0, labels=trace.labels))
    if args.save_spec:
        filtering.save_filter_spec(args.save_spec, spec)
    dataio.write_trace_csv(args.out, filtered)
    print(f"filtered {len(filtered)} fiber(s) at {fundamental:g} Hz "
          f"and multiples > {args.out}")
    return 0


def _cmd_shape(args):
    config = _load_config(args)
    trace = _single_fiber(args.trace, args.fiber)
    calib_path = args.calibration or config.get("calibration_file")
    calibration = (shape.load_calibration(calib_path) if calib_path
                   else shape.default_calibration())
    length = args.length
    geometry = shape.CmGeometry(
        length_mm=length,
        aa_positions_mm=(0.25 * length, 0.5 * length, 0.75 * length))
    index = trace.n_samples - 1
    if args.at_time is not None:
        index = int(round((args.at_time - trace.t0) * trace.sample_rate_hz))
        if not (0 <= index < trace.n_samples):
            raise ParameterError(f"--at-time {args.at_time} outside the record")
    curvatures = shape.wavelength_to_curvature(trace.channels[index], calibration)
    estimate = shape.reconstruct(curvatures, geometry)
    dataio.atomic_write_text(args.out, shape.shape_csv_text(estimate))
    if args.out_tips:
        kappas = shape.wavelength_to_curvature(trace.channels, calibration)
        tips = shape.tips_for_curvatures(kappas, geometry)
        dataio.atomic_write_text(args.out_tips,
                                 dataio.tips_csv_text(trace.times(), tips))
    tip = estimate.tip_mm
    print(f"tip_x_mm={tip[0]:.6f} tip_z_mm={tip[1]:.6f}")
    return 0


def _cmd_detect(args):
    config = _load_config(args)
    trace = _single_fiber(args.trace, args.fiber)
    report = events.detect_steps(
        trace.channel(args.aa),
        threshold_nm=_pick(args.threshold, config, "threshold_nm",
                           events.DEFAULT_THRESHOLD_NM),
        drift_nm=_pick(args.drift, config, "drift_nm", events.DEFAULT_DRIFT_NM),
        window_s=_pick(args.window, config, "window_s", events.DEFAULT_WINDOW_S),
        sample_rate_hz=trace.sample_rate_hz,
        t0=trace.t0)
    dataio.atomic_write_text(args.out, events.events_csv_text(report))
    print(f"events={len(report.events)}")
    return 0


def _cmd_sweep(args):
    config = _load_config(args)
    params = _params_from_config(config)
    if args.from_dir:
        report = sweep.ingest_sweep_dir(args.from_dir, params)
    else:
        if args.preset is not None and args.preset != "paper":
            raise ParameterError(f"unknown sweep preset {args.preset!r}")
        if args.preset == "paper" or (args.rpm_min is None and args.rpm_max is None):
            rpms = sweep.default_rpm_grid()
        else:
            if args.rpm_min is None or args.rpm_max is None:
                raise ParameterError("--rpm-min and --rpm-max go together")
            rpms = sweep.default_rpm_grid(args.rpm_min, args.rpm_max, args.points)
        template = vib_model.Scenario(
            rpm=rpms[0],
            duration_s=_pick(args.duration, config, "duration_s", 10.0),
            sample_rate_hz=_pick(args.sample_rate, config, "sample_rate_hz", 1000.0),
            noise_sigma_nm=_pick(args.noise, config, "noise_sigma_nm", 0.0))
        report = sweep.run_sweep(rpms, template, params,
                                 seed=_pick(args.seed, config, "seed", 0))
    dataio.atomic_write_text(args.out, sweep.report_csv_text(report))
    text = sweep.summary_text(report)
    if args.summary:
        dataio.atomic_write_text(args.summary, text)
    print(text, end="")
    return 0


def build_parser():
    parser = _Parser(prog="fbgvib",
                     description="FBG shape-sensing toolkit for rotating-tool vibration")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("simulate", help="generate a synthetic trace CSV")
    common(p)
    p.add_argument("--rpm", type=_finite_float, default=None)
    p.add_argument("--preset", choices=sorted(vib_model.SCENARIO_PRESETS))
    p.add_argument("--duration", type=_finite_float, default=None, help="seconds")
    p.add_argument("--sample-rate", type=_finite_float, default=None, help="Hz")
    p.add_argument("--noise", type=_finite_float, default=None, help="sigma, nm")
    p.add_argument("--base", type=_finite_float, default=None, help="base wavelength, nm")
    p.add_argument("--bend", help="e.g. pull=60,release=60,cable_speed=0.1")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="spectrum and spectral features")
    common(p)
    p.add_argument("trace")
    p.add_argument("--fiber", type=int, default=0)
    p.add_argument("--aa", type=int, default=0)
    p.add_argument("--window", choices=spectral.WINDOWS, default="hann")
    p.add_argument("--rpm-hint", type=_finite_float, default=None)
    p.add_argument("--max-freq", type=_finite_float, default=None)
    p.add_argument("--prominence", type=_finite_float, default=None)
    p.add_argument("--out", default=None, help="spectrum CSV path")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("filter", help="remove tool vibration with notches")
    common(p)
    p.add_argument("trace")
    p.add_argument("--fundamental", type=_finite_float, default=None, help="Hz")
    p.add_argument("--rpm", type=_finite_float, default=None)
    p.add_argument("--notch-harmonics", type=int, default=None)
    p.add_argument("--bandwidth", type=_finite_float, default=None, help="Hz")
    p.add_argument("--save-spec", default=None, help="coefficient file path")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("shape", help="reconstruct the centerline and tip")
    common(p)
    p.add_argument("trace")
    p.add_argument("--fiber", type=int, default=0)
    p.add_argument("--calibration", default=None, help="calibration CSV")
    p.add_argument("--length", type=_finite_float, default=35.0, help="mm")
    p.add_argument("--at-time", type=_finite_float, default=None, help="seconds")
    p.add_argument("--out", required=True, help="polyline CSV path")
    p.add_argument("--out-tips", default=None, help="tip time-series CSV")
    p.set_defaults(func=_cmd_shape)

    p = sub.add_parser("detect", help="flag sudden level shifts")
    common(p)
    p.add_argument("trace")
    p.add_argument("--fiber", type=int, default=0)
    p.add_argument("--aa", type=int, default=0)
    p.add_argument("--threshold", type=_finite_float, default=None, help="nm")
    p.add_argument("--drift", type=_finite_float, default=None, help="nm per window")
    p.add_argument("--window", type=_finite_float, default=None, help="seconds")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("sweep", help="amplitude vs rpm and resonances")
    common(p)
    p.add_argument("--preset", default=None, help="'paper' = 40-point log grid")
    p.add_argument("--rpm-min", type=_finite_float, default=None)
    p.add_argument("--rpm-max", type=_finite_float, default=None)
    p.add_argument("--points", type=int, default=40)
    p.add_argument("--duration", type=_finite_float, default=None)
    p.add_argument("--sample-rate", type=_finite_float, default=None)
    p.add_argument("--noise", type=_finite_float, default=None)
    p.add_argument("--from-dir", default=None, help="ingest rpm_<value>.csv files")
    p.add_argument("--summary", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (SensingError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except BrokenPipeError:
        return RUNTIME_EXIT
    except Exception as exc:  # runtime failures get a distinct status
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())

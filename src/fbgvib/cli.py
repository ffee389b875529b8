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

from . import dataio
from .errors import ParameterError, SensingError

#: The package: each command reaches its modules through it, loading only those.
fbgvib = sys.modules[__package__]

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


#: --bend entry -> BendProfile keyword; the config keys among the keywords
#: set the entries' defaults.
_BEND_ENTRIES = {"cable_speed": "cable_speed_mm_s", "curvature_gain": "curvature_gain",
                 "slack_scale": "slack_amplitude_scale",
                 "slack_threshold": "slack_threshold_mm"}


def _parse_bend(text, defaults):
    """Build a BendProfile from 'pull=60,release=60,cable_speed=0.1,...',
    over ``defaults`` (BendProfile keywords)."""
    segments = []
    kwargs = dict(defaults)
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
        if key in fbgvib.vib_model.BEND_PHASES:
            segments.append((key, val))
        elif key in _BEND_ENTRIES:
            kwargs[_BEND_ENTRIES[key]] = val
        else:
            raise ParameterError(f"unknown --bend key {key!r}")
    if segments:
        kwargs["segments"] = tuple(segments)
    return fbgvib.vib_model.BendProfile(**kwargs)


def _cmd_simulate(args):
    bend = _parse_bend(args.bend, args.bend_defaults) if args.bend else None
    settings = dict(duration_s=args.duration_s, sample_rate_hz=args.sample_rate_hz,
                    bend=bend, noise_sigma_nm=args.noise_sigma_nm,
                    base_wavelength_nm=args.base_wavelength_nm)
    if args.preset:
        scenario = fbgvib.vib_model.preset_scenario(args.preset, **settings)
    elif args.tool_velocity_rpm is None:
        raise ParameterError("simulate requires --rpm or --preset")
    else:
        scenario = fbgvib.vib_model.Scenario(rpm=args.tool_velocity_rpm, **settings)
    trace = fbgvib.vib_model.simulate(scenario, fbgvib.vib_model.default_params(**args.model),
                                      seed=args.seed)
    dataio.write_trace_csv(args.out, trace)
    print(f"wrote {trace.n_samples} samples x {len(trace.labels)} areas to {args.out}")
    return 0


def _single_fiber(path, fiber):
    for trace in dataio.parse_trace_csv(path):
        if trace.labels[0][0] == fiber:
            return trace
    raise ParameterError(f"no fiber {fiber} in {path}")


def _single_area(path, fiber, aa):
    """The trace of ``fiber`` and its channel labelled area ``aa``."""
    trace = _single_fiber(path, fiber)
    if (fiber, aa) not in trace.labels:
        raise ParameterError(f"no area {aa} of fiber {fiber} in {path}")
    return trace, trace.channel(trace.labels.index((fiber, aa)))


def _cmd_analyze(args):
    trace, channel = _single_area(args.trace, args.fiber, args.aa)
    freqs, mags = fbgvib.spectral.channel_spectrum(channel, trace.sample_rate_hz, args.window)
    features = fbgvib.spectral.features_from_spectrum(
        freqs, mags, rpm_hint=args.tool_velocity_rpm, shape_cutoff_hz=args.shape_cutoff_hz,
        min_prominence=args.min_prominence_nm, max_freq_hz=args.max_freq_hz)
    if args.out:
        dataio.atomic_write_text(args.out, fbgvib.spectral.spectrum_rows(freqs, mags))

    def fmt(value):
        return "absent" if value is None else f"{value:.6f}"

    print(f"base_frequency_hz={fmt(features.base_frequency_hz)}")
    print(f"fundamental_hz={fmt(features.fundamental_hz)}")
    print(f"fundamental_amplitude_nm={fmt(features.fundamental_amplitude_nm)}")
    harmonics = ";".join(f"{h:.6f}" for h in features.harmonics_hz)
    print(f"harmonics_hz={harmonics or 'none'}")
    return 0


def _cmd_filter(args):
    if args.fundamental is None and args.tool_velocity_rpm is None:
        raise ParameterError("filter requires --fundamental or --rpm")
    traces = dataio.parse_trace_csv(args.trace)
    fundamental = (args.tool_velocity_rpm / 60.0 if args.fundamental is None
                   else args.fundamental)
    filtered = []
    for trace in traces:
        spec = fbgvib.filtering.design_bandstop(
            fundamental, n_harmonics=args.notch_harmonics,
            bandwidth_hz=args.bandwidth_hz, sample_rate_hz=trace.sample_rate_hz)
        block = np.empty((trace.channels.shape[1], trace.n_samples))
        for i, row in enumerate(block):
            row[:] = fbgvib.filtering.apply_zero_phase(spec, trace.channel(i))
        filtered.append(dataio.WavelengthTrace(
            sample_rate_hz=trace.sample_rate_hz, channels=block.T,
            t0=trace.t0, labels=trace.labels))
    if args.save_spec:
        fbgvib.filtering.save_filter_spec(args.save_spec, spec)
    dataio.write_trace_csv(args.out, filtered)
    print(f"filtered {len(filtered)} fiber(s) at {fundamental:g} Hz "
          f"and multiples > {args.out}")
    return 0


def _cmd_shape(args):
    trace = _single_fiber(args.trace, args.fiber)
    calibration = (fbgvib.shape.load_calibration(args.calibration_file) if args.calibration_file
                   else fbgvib.shape.default_calibration())
    geometry = fbgvib.shape.CmGeometry(length_mm=args.length)
    index = trace.n_samples - 1
    if args.at_time is not None:
        position = (args.at_time - trace.t0) * trace.sample_rate_hz
        if not (math.isfinite(position) and 0 <= round(position) < trace.n_samples):
            raise ParameterError(f"--at-time {args.at_time} outside the record")
        index = int(round(position))
    curvatures = fbgvib.shape.wavelength_to_curvature(trace.channels[index], calibration)
    estimate = fbgvib.shape.reconstruct(curvatures, geometry)
    dataio.atomic_write_text(args.out, fbgvib.shape.shape_csv_text(estimate))
    if args.out_tips:
        kappas = fbgvib.shape.wavelength_to_curvature(trace.channels, calibration)
        tips = fbgvib.shape.tips_for_curvatures(kappas, geometry)
        dataio.atomic_write_text(args.out_tips,
                                 dataio.tips_csv_text(trace.times(), tips))
    tip = estimate.tip_mm
    print(f"tip_x_mm={tip[0]:.6f} tip_z_mm={tip[1]:.6f}")
    return 0


def _cmd_detect(args):
    trace, channel = _single_area(args.trace, args.fiber, args.aa)
    report = fbgvib.events.detect_steps(
        channel, threshold_nm=args.threshold_nm, drift_nm=args.drift_nm,
        window_s=args.window_s, sample_rate_hz=trace.sample_rate_hz, t0=trace.t0)
    dataio.atomic_write_text(args.out, fbgvib.events.events_csv_text(report))
    print(f"events={len(report.events)}")
    return 0


def _cmd_sweep(args):
    params, sweep = fbgvib.vib_model.default_params(**args.model), fbgvib.sweep
    if args.from_dir:
        # The files set the rpm grid; a grid option would be ignored.
        grid = [flag for flag, value, default in (
            ("--preset", args.preset, None), ("--rpm-min", args.rpm_min, None),
            ("--rpm-max", args.rpm_max, None), ("--points", args.points, sweep.PAPER_POINTS))
            if value != default]
        if grid:
            raise ParameterError(f"--from-dir takes its rpm grid from the files; "
                                 f"drop {', '.join(grid)}")
        report = sweep.ingest_sweep_dir(args.from_dir, params)
    else:
        if args.preset == "paper" and (args.points, args.rpm_min, args.rpm_max) != (
                sweep.PAPER_POINTS, None, None):
            raise ParameterError(f"--preset paper is the default {sweep.PAPER_POINTS}-point grid; "
                                 f"drop --points, --rpm-min and --rpm-max or the preset")
        if args.points < sweep.MIN_POINTS:
            raise ParameterError(f"--points must be at least {sweep.MIN_POINTS}")
        if args.rpm_min is None and args.rpm_max is None:
            rpms = sweep.default_rpm_grid(n_points=args.points)
        else:
            if args.rpm_min is None or args.rpm_max is None:
                raise ParameterError("--rpm-min and --rpm-max go together")
            rpms = sweep.default_rpm_grid(args.rpm_min, args.rpm_max, args.points)
        template = fbgvib.vib_model.Scenario(
            rpm=rpms[0], duration_s=args.duration_s, sample_rate_hz=args.sample_rate_hz,
            noise_sigma_nm=args.noise_sigma_nm)
        report = sweep.run_sweep(rpms, template, params, seed=args.seed)
    dataio.atomic_write_text(args.out, sweep.report_csv_text(report))
    text = sweep.summary_text(report)
    if args.summary:
        dataio.atomic_write_text(args.summary, text)
    print(text, end="")
    return 0


#: Config keys of the vibration model, which has no flags.
MODEL_KEYS = ("natural_f1_hz", "natural_f2_hz", "mass_ratio", "damping_ratio")


def build_parser(config=None, command=None):
    """The CLI parser; each config entry is the default of the setting it names.

    A flag with a config key stores into ``dest=<key>``, so a flag beats
    the config, which beats the built-in default. With ``command``, only
    that subcommand is built, so only its modules load; an unknown one, or
    None, builds them all.
    """
    config = config or {}
    model = {k: config[k] for k in MODEL_KEYS if k in config}
    bend = {k: config[k] for k in _BEND_ENTRIES.values() if k in config}

    parser = _Parser(prog="fbgvib",
                     description="FBG shape-sensing toolkit for rotating-tool vibration")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help):  # None when only another command is built
        if command not in (None, name):
            return None
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="key = value configuration file")
        return p

    def setting(p, flag, key, default=None, type=_finite_float, **kwargs):
        p.add_argument(flag, dest=key, type=type, default=config.get(key, default),
                       **kwargs)

    if p := add("simulate", "generate a synthetic trace CSV"):
        scenario = fbgvib.vib_model.Scenario
        setting(p, "--seed", "seed", 0, type=int)
        setting(p, "--rpm", "tool_velocity_rpm")
        p.add_argument("--preset", choices=sorted(fbgvib.vib_model.SCENARIO_PRESETS))
        setting(p, "--duration", "duration_s", scenario.duration_s, help="seconds")
        setting(p, "--sample-rate", "sample_rate_hz", scenario.sample_rate_hz, help="Hz")
        setting(p, "--noise", "noise_sigma_nm", scenario.noise_sigma_nm, help="sigma, nm")
        setting(p, "--base", "base_wavelength_nm", dataio.DEFAULT_BASE_NM,
                help="base wavelength, nm")
        p.add_argument("--bend", help="e.g. pull=60,release=60,cable_speed=0.1")
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_simulate, model=model, bend_defaults=bend)

    if p := add("analyze", "spectrum and spectral features"):
        p.add_argument("trace")
        p.add_argument("--fiber", type=int, default=0)
        p.add_argument("--aa", type=int, default=0)
        p.add_argument("--window", choices=fbgvib.spectral.WINDOWS, default="hann")
        setting(p, "--rpm-hint", "tool_velocity_rpm")
        setting(p, "--max-freq", "max_freq_hz", fbgvib.spectral.DEFAULT_MAX_FREQ_HZ)
        setting(p, "--prominence", "min_prominence_nm", fbgvib.spectral.DEFAULT_MIN_PROMINENCE_NM)
        p.add_argument("--out", default=None, help="spectrum CSV path")
        p.set_defaults(func=_cmd_analyze, shape_cutoff_hz=config.get(
            "shape_cutoff_hz", dataio.DEFAULT_SHAPE_CUTOFF_HZ))

    if p := add("filter", "remove tool vibration with notches"):
        p.add_argument("trace")
        p.add_argument("--fundamental", type=_finite_float, default=None, help="Hz")
        setting(p, "--rpm", "tool_velocity_rpm")
        setting(p, "--notch-harmonics", "notch_harmonics", fbgvib.filtering.DEFAULT_N_HARMONICS,
                type=int)
        setting(p, "--bandwidth", "bandwidth_hz", help="Hz")
        p.add_argument("--save-spec", default=None, help="coefficient file path")
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_filter)

    if p := add("shape", "reconstruct the centerline and tip"):
        p.add_argument("trace")
        p.add_argument("--fiber", type=int, default=0)
        setting(p, "--calibration", "calibration_file", type=None, help="calibration CSV")
        p.add_argument("--length", type=_finite_float, default=fbgvib.shape.CmGeometry.length_mm,
                       help="mm")
        p.add_argument("--at-time", type=_finite_float, default=None, help="seconds")
        p.add_argument("--out", required=True, help="polyline CSV path")
        p.add_argument("--out-tips", default=None, help="tip time-series CSV")
        p.set_defaults(func=_cmd_shape)

    if p := add("detect", "flag sudden level shifts"):
        p.add_argument("trace")
        p.add_argument("--fiber", type=int, default=0)
        p.add_argument("--aa", type=int, default=0)
        setting(p, "--threshold", "threshold_nm", fbgvib.events.DEFAULT_THRESHOLD_NM, help="nm")
        setting(p, "--drift", "drift_nm", fbgvib.events.DEFAULT_DRIFT_NM, help="nm per window")
        setting(p, "--window", "window_s", fbgvib.events.DEFAULT_WINDOW_S, help="seconds")
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_detect)

    if p := add("sweep", "amplitude vs rpm and resonances"):
        paper, scenario = fbgvib.sweep.PAPER_POINTS, fbgvib.vib_model.Scenario
        setting(p, "--seed", "seed", 0, type=int)
        p.add_argument("--preset", choices=("paper",), help=f"'paper' = {paper}-point log grid")
        p.add_argument("--rpm-min", type=_finite_float, default=None)
        p.add_argument("--rpm-max", type=_finite_float, default=None)
        p.add_argument("--points", type=int, default=paper)
        setting(p, "--duration", "duration_s", scenario.duration_s)
        setting(p, "--sample-rate", "sample_rate_hz", scenario.sample_rate_hz)
        setting(p, "--noise", "noise_sigma_nm", 0.0)  # noise-free, unlike simulate
        p.add_argument("--from-dir", default=None, help="ingest rpm_<value>.csv files")
        p.add_argument("--summary", default=None)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_sweep, model=model)
    return parser if sub.choices else build_parser(config)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv else None
    try:
        # Flags are checked before the config file is read; its entries
        # then become the defaults of a second parse.
        args = build_parser(command=command).parse_args(argv)
        if args.config:
            args = build_parser(dataio.parse_config(args.config), command).parse_args(argv)
        return args.func(args)
    except (SensingError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except BrokenPipeError:
        return RUNTIME_EXIT
    except Exception as exc:  # runtime failures get a distinct status
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counters around the benchmark's calls into fbgvib.

Nothing here touches the package's source: `install` swaps each listed
public function, in every fbgvib module that holds it, for a wrapper that
records a span (name, start, end, parent) and, for some functions, counts
work done at that boundary. `restore` puts the originals back. Spans stay
in memory; the caller summarises them when the run ends.

`layer_suite` calls every listed function once (cheap ones a few times)
on the same seed-generated inputs in every workload, so each per-layer
time is measured on every workload and compares across them.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import time
from collections import defaultdict

import numpy as np

MODULES = ("dataio", "spectral", "filtering", "shape", "events", "vib_model",
           "sweep", "cli")

WRAPPED = {
    "dataio": ("parse_trace_csv", "trace_csv_text", "atomic_write_text"),
    "spectral": ("fft_forward", "magnitude_spectrum", "find_peaks",
                 "identify_features", "spectrum_rows"),
    "filtering": ("design_bandstop", "design_lowpass", "apply_zero_phase",
                  "save_filter_spec"),
    "shape": ("wavelength_to_curvature", "reconstruct", "tips_for_curvatures",
              "shape_csv_text"),
    "events": ("detect_steps", "events_csv_text"),
    "vib_model": ("simulate", "default_params"),
    "sweep": ("run_sweep", "steady_amplitude", "ingest_sweep_dir",
              "analyze_sweep_points", "report_csv_text", "summary_text"),
}


class Tracer:
    """In-memory spans plus named counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self._stack = []
        self.counts = defaultdict(int)

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """Per span: (name, duration, self time, parent index)."""
        child_total = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_total[parent] += end - start
        return [(name, end - start, end - start - child_total[i], parent)
                for i, (name, start, end, parent) in enumerate(self.spans)]

    def self_times_by_name(self, parent=None):
        """name -> self times of the spans directly under span `parent`."""
        out = defaultdict(list)
        for name, _, own, up in self.self_times():
            if up == parent:
                out[name].append(own)
        return out

    def coverage(self, step_prefixes):
        """Per step span: share of its duration covered by its child spans."""
        covered = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = []
        for i, (name, start, end, _) in enumerate(self.spans):
            if name.startswith(step_prefixes) and end > start:
                out.append((name, covered[i] / (end - start)))
        return out


def _bound(original, args, kwargs):
    bound = inspect.signature(original).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_parse(a, result, counts):
    counts["dataio.bytes_read"] += os.path.getsize(a["path"])
    counts["dataio.rows_parsed"] += sum(t.channels.size for t in result)


def _count_write(a, result, counts):
    counts["dataio.bytes_written"] += len(a["text"])


def _count_find_peaks(a, result, counts):
    freqs = np.asarray(a["freqs"], dtype=float)
    mags = np.asarray(a["mags"], dtype=float)
    inner = mags[1:-1]
    candidates = ((inner > mags[:-2]) & (inner > mags[2:])
                  & (freqs[1:-1] <= a["max_freq_hz"]))
    counts["spectral.local_maxima"] += int(candidates.sum())
    counts["spectral.peaks_kept"] += len(result)


def _count_filtered(a, result, counts):
    counts["filtering.samples_filtered"] += len(a["x"])


def _count_detect(a, result, counts):
    # Block size as the detector derives it from its window and rate.
    window = max(int(round(a["window_s"] * a["sample_rate_hz"])), 5)
    counts["events.blocks"] += len(a["x"]) // max(window // 5, 1)
    counts["events.events_found"] += len(result.events)


def _count_simulate(a, result, counts):
    counts["vib_model.samples_generated"] += result.channels.size


def _count_points(a, result, counts):
    counts["sweep.points"] += len(result.points)


COUNTERS = {
    "dataio.parse_trace_csv": _count_parse,
    "dataio.atomic_write_text": _count_write,
    "spectral.find_peaks": _count_find_peaks,
    "filtering.apply_zero_phase": _count_filtered,
    "events.detect_steps": _count_detect,
    "vib_model.simulate": _count_simulate,
    "sweep.run_sweep": _count_points,
    "sweep.ingest_sweep_dir": _count_points,
}


def _wrap(tracer, name, original):
    counter = COUNTERS.get(name)

    def wrapper(*args, **kwargs):
        span_name = name
        if name == "spectral.fft_forward":
            span_name = f"{name}_n{np.shape(args[0] if args else kwargs['x'])[0]}"
        with tracer.span(span_name):
            result = original(*args, **kwargs)
        if counter is not None:
            counter(_bound(original, args, kwargs), result, tracer.counts)
        return result

    wrapper.__wrapped__ = original
    return wrapper


def install(tracer):
    """Route every listed fbgvib function through a span; returns restore()."""
    modules = [importlib.import_module("fbgvib")] + [
        importlib.import_module(f"fbgvib.{m}") for m in MODULES]
    swapped = []
    for mod_name, names in WRAPPED.items():
        home = importlib.import_module(f"fbgvib.{mod_name}")
        for func in names:
            original = getattr(home, func)
            wrapper = _wrap(tracer, f"{mod_name}.{func}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        swapped.append((module, attr, original))

    def restore():
        for module, attr, original in swapped:
            setattr(module, attr, original)

    return restore


def layer_suite(tracer, workdir, seed, sweep_dir):
    """Call each traced function directly on the seed's 150 s bend trace.

    Runs under one root span; per-layer times are the self times of the
    root's direct children. `sweep_dir` holds a few recorded sweep files.
    """
    from fbgvib import dataio, events, filtering, shape, spectral, sweep, vib_model

    params = vib_model.default_params()
    scenario = vib_model.Scenario(
        rpm=120.0, duration_s=150.0,
        bend=vib_model.BendProfile(segments=(("pull", 75.0), ("release", 75.0))))
    with tracer.span("suite"):
        trace = vib_model.simulate(scenario, params, seed=seed)
        path = os.path.join(workdir, "suite.csv")
        dataio.atomic_write_text(path, dataio.trace_csv_text(trace))
        parsed = dataio.parse_trace_csv(path)[0]
        fs = parsed.sample_rate_hz
        channel = parsed.channel(0)
        spectral.fft_forward(channel)
        for _ in range(5):
            spectral.fft_forward(channel[:10000])
        freqs, mags = spectral.magnitude_spectrum(channel - channel.mean(), fs,
                                                  window="hann")
        spectral.find_peaks(freqs, mags)
        spectral.identify_features(channel, fs, rpm_hint=120.0)
        spectral.spectrum_rows(freqs, mags)
        for _ in range(5):
            notch = filtering.design_bandstop(2.0, sample_rate_hz=fs)
        filtered = [filtering.apply_zero_phase(notch, parsed.channel(i))
                    for i in range(parsed.channels.shape[1])]
        calibration = shape.default_calibration()
        for _ in range(5):
            curvatures = shape.wavelength_to_curvature(parsed.channels[-1], calibration)
            shape.reconstruct(curvatures)
            events.detect_steps(filtered[0], sample_rate_hz=fs)
        base = np.array(calibration.base_wavelengths_nm)
        sens = np.array(calibration.sensitivities_nm_per_invm)
        shape.tips_for_curvatures((parsed.channels - base) / sens)
        sweep.steady_amplitude(channel, fs, expected_fundamental_hz=2.0)
        template = vib_model.Scenario(rpm=10.0, duration_s=10.0, noise_sigma_nm=0.0)
        report = sweep.run_sweep(sweep.default_rpm_grid(), template, params, seed=seed)
        sweep.analyze_sweep_points(report.points, params)
        sweep.ingest_sweep_dir(sweep_dir, params)
    return parsed.channels.size

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fbgvib import (DataError, FilterSpec, ParameterError, apply_zero_phase,
                    design_bandstop, design_lowpass, filtering, save_filter_spec)

from oracles import (full_length_zero_phase, longdouble_zero_phase, sine_amplitude,
                     sosfilt_zero_phase)

FS = 1000.0


def identity_spec():
    return FilterSpec(sos=[[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]], sample_rate_hz=FS)


# --- design ----------------------------------------------------------------

def test_three_harmonic_design():
    spec = design_bandstop(2.0, 3, 0.5, FS)
    assert [c for c, _ in spec.notches] == [2.0, 4.0, 6.0]
    for center, _ in spec.notches:
        gain = abs(spec.response(center))
        assert 20 * np.log10(max(gain, 1e-300)) <= -40.0


def test_dc_gain_is_unity():
    spec = design_bandstop(4.0, 1, 0.5, FS)
    assert abs(spec.response(0.0)) == pytest.approx(1.0, abs=1e-3)


def test_notch_at_nyquist_rejected():
    with pytest.raises(ParameterError):
        design_bandstop(300.0, 2, 1.0, FS)


def fresh_pole_radius(sos):
    """Largest pole magnitude of the rows b0 b1 b2 1 a1 a2, each found anew."""
    radii = [0.0]
    for _, _, _, _, a1, a2 in sos:
        poles = np.roots([1.0, a1, a2])
        if poles.size:
            radii.append(float(np.max(np.abs(poles))))
    return max(radii)


def test_sections_are_stable():
    spec = design_bandstop(2.0, 3, sample_rate_hz=FS)
    assert spec.sos.shape == (3, 6)
    assert 0.0 < spec.pole_radius == fresh_pole_radius(spec.sos) < 1.0


@pytest.mark.parametrize("sos,message", [
    ([[1.0, 0.0, 0.0, 1.0, -2.2, 1.21]], "unstable"),  # poles outside unit circle
    ([[1.0, 0.0, 0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0, 0.0, -1.0]], "unstable"),
    ([[1.0, 0.0, 0.0, 2.0, 0.0, 0.0]], "one row"),
    ([1.0, 0.0, 0.0, 1.0, 0.0, 0.0], "one row"),
    ([[1.0, 0.0, 0.0, 1.0, 0.0]], "one row"),
], ids=["unstable", "unstable-second-row", "a0", "flat", "five-columns"])
def test_unstable_or_malformed_section_rejected_at_construction(sos, message):
    with pytest.raises(ParameterError, match=message):
        FilterSpec(sos=sos, sample_rate_hz=FS)


@pytest.mark.parametrize("sample_rate_hz", [250.0, 1000.0, 4000.0])
def test_pole_radius_equals_a_fresh_root_finding_bit_for_bit(sample_rate_hz):
    specs = [design_lowpass(cutoff, sample_rate_hz) for cutoff in (0.05, 1.0, 20.0)]
    for rpm in (24.0, 240.0, 960.0, 2400.0):
        for bandwidth_hz in (None, 0.2, 1.5):
            spec = design_bandstop(rpm / 60.0, bandwidth_hz=bandwidth_hz,
                                   sample_rate_hz=sample_rate_hz)
            specs.append(spec)
            # Each notch alone: the radius of every row, not only the largest.
            specs += [FilterSpec(sos=row[None], sample_rate_hz=sample_rate_hz)
                      for row in spec.sos]
    for spec in specs:
        assert spec.pole_radius == fresh_pole_radius(spec.sos)
    assert identity_spec().pole_radius == 0.0 == fresh_pole_radius(identity_spec().sos)


def test_a_spec_owns_a_read_only_matrix_and_compares_by_identity():
    rows = np.array(design_bandstop(4.0, sample_rate_hz=FS).sos)
    spec = FilterSpec(sos=rows, sample_rate_hz=FS)
    rows[0, 0] = 2.0
    assert spec.sos[0, 0] != 2.0
    with pytest.raises(ValueError, match="read-only"):
        spec.sos[0, 0] = 2.0
    twin = FilterSpec(sos=spec.sos, sample_rate_hz=FS)
    assert spec == spec and spec != twin
    assert len({spec, twin, spec}) == 2


def test_filtering_finds_no_roots_once_the_spec_exists(monkeypatch):
    specs = [design_bandstop(4.0, sample_rate_hz=FS), design_lowpass(0.05, FS)]
    x = np.sin(np.arange(3000) * 0.02)
    expected = [apply_zero_phase(spec, x) for spec in specs]

    def no_roots(*args, **kwargs):
        raise AssertionError("np.roots called")

    monkeypatch.setattr(np, "roots", no_roots)
    for spec, y in zip(specs, expected):
        assert np.array_equal(apply_zero_phase(spec, x), y)


def test_equal_designs_share_their_sections():
    first = design_bandstop(4.0, sample_rate_hz=FS)
    again = design_bandstop(4.0, sample_rate_hz=FS)
    assert again is first
    assert again.sos is first.sos


@pytest.mark.parametrize("fundamental", [4.0, np.float64(4.0), np.array(4.0)],
                         ids=["float", "float64", "0-d array"])
def test_equal_designs_return_one_spec(fundamental):
    assert design_bandstop(fundamental, sample_rate_hz=FS) is design_bandstop(
        4.0, 3, None, FS)


@pytest.mark.parametrize("args", [(300.0, 2, 1.0, FS), (4.0, 0, 0.5, FS),
                                  (4.0, 3, -0.5, FS), (4.0, 3, 400.0, FS)],
                         ids=["nyquist", "no-harmonics", "negative-width", "too-wide"])
def test_a_cached_design_still_refuses_bad_arguments(args):
    design_bandstop(4.0, 3, 0.5, FS)
    for _ in range(2):
        with pytest.raises(ParameterError):
            design_bandstop(*args)


@settings(max_examples=200, deadline=None)
@given(fundamental=st.floats(0.01, 500.0), n_harmonics=st.integers(1, 5),
       bandwidth=st.one_of(st.none(), st.floats(1e-3, 400.0)),
       sample_rate=st.sampled_from([50.0, 250.0, 1000.0, 4000.0]))
@example(fundamental=10.0 / 60.0, n_harmonics=3, bandwidth=None, sample_rate=FS)
@example(fundamental=0.5, n_harmonics=1, bandwidth=5.0, sample_rate=FS)
def test_no_design_gains_anywhere(fundamental, n_harmonics, bandwidth, sample_rate):
    # A notch that amplifies its passband would amplify the noise it passes.
    try:
        spec = design_bandstop(fundamental, n_harmonics, bandwidth, sample_rate)
    except ParameterError:
        return
    assert fresh_pole_radius(spec.sos) < 1.0
    assert abs(spec.response(0.0) - 1.0) <= 1e-12
    grid = np.linspace(0.0, sample_rate / 2.0, 20001)
    assert np.abs(spec.response(grid)).max() <= 1.0 + 1e-12


def test_a_spec_built_directly_is_still_held_to_the_notch_floor():
    notch = design_bandstop(4.0, 1, 0.5, FS)
    with pytest.raises(ParameterError, match="-40.0 dB"):
        FilterSpec(sos=identity_spec().sos, sample_rate_hz=FS, notches=notch.notches)


@pytest.mark.parametrize("fundamental", [np.float64(4.0), np.array(4.0)],
                         ids=["float64", "0-d array"])
def test_numpy_scalar_fundamental_designs_the_same_cascade(fundamental):
    assert design_bandstop(fundamental, sample_rate_hz=FS) == design_bandstop(
        4.0, sample_rate_hz=FS)


def test_lowpass_minus_3db_at_cutoff():
    spec = design_lowpass(10.0, FS)
    assert abs(spec.response(10.0)) == pytest.approx(1 / np.sqrt(2), rel=1e-6)


def test_lowpass_bad_cutoff_rejected():
    with pytest.raises(ParameterError):
        design_lowpass(600.0, FS)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda v: design_bandstop(v, 3, 0.5, FS),
    lambda v: design_bandstop(2.0, 3, v, FS),
    lambda v: design_bandstop(2.0, 3, 0.5, v),
    lambda v: design_lowpass(v, FS),
    lambda v: design_lowpass(10.0, v),
    lambda v: FilterSpec(sos=identity_spec().sos, sample_rate_hz=v),
    lambda v: FilterSpec(sos=[[1.0, 0.0, 0.0, 1.0, v, 0.0]], sample_rate_hz=FS),
    lambda v: FilterSpec(sos=[[v, 0.0, 0.0, 1.0, 0.0, 0.0]], sample_rate_hz=FS),
], ids=["fundamental", "bandwidth", "bandstop-rate", "cutoff", "lowpass-rate",
        "spec-rate", "pole-coefficient", "zero-coefficient"])
def test_non_finite_parameter_rejected(call, bad):
    with pytest.raises(ParameterError, match="finite|cutoff_hz"):
        call(bad)


# --- zero-phase application -------------------------------------------------

def test_identity_spec_passes_input_exactly():
    x = np.random.default_rng(0).normal(size=400)
    assert np.array_equal(apply_zero_phase(identity_spec(), x), x)


def test_record_too_short_rejected():
    spec = design_bandstop(2.0, 3, sample_rate_hz=FS)
    with pytest.raises(DataError):
        apply_zero_phase(spec, np.zeros(10))


def test_notch_kills_its_sinusoid():
    spec = design_bandstop(2.0, 1, 0.5, FS)
    t = np.arange(20000) / FS
    y = apply_zero_phase(spec, np.sin(2 * np.pi * 2.0 * t))
    steady = y[5000:15000]
    assert 0.5 * (steady.max() - steady.min()) <= 0.01


def test_zero_phase_no_lag_in_passband():
    spec = design_bandstop(2.0, 3, sample_rate_hz=FS)
    t = np.arange(30000) / FS
    x = np.sin(2 * np.pi * 0.5 * t)
    y = apply_zero_phase(spec, x)
    xc, yc = x[5000:25000], y[5000:25000]
    lags = np.arange(-20, 21)
    corr = [np.dot(yc, np.roll(xc, k)) for k in lags]
    assert lags[int(np.argmax(corr))] == 0


def test_passband_amplitude_error_below_1pct():
    # Sinusoid at fundamental/4 through the default cascade, zero-phase.
    spec = design_bandstop(2.0, 3, sample_rate_hz=FS)
    t = np.arange(40000) / FS
    x = np.sin(2 * np.pi * 0.5 * t)
    y = apply_zero_phase(spec, x)
    amp = sine_amplitude(y[5000:35000], FS, 0.5)
    assert amp == pytest.approx(1.0, rel=0.01)


def test_linearity_of_filtering():
    spec = design_bandstop(2.0, 2, sample_rate_hz=FS)
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(2, 5000))
    a, b = 1.7, -0.6
    lhs = apply_zero_phase(spec, a * x + b * y)
    rhs = a * apply_zero_phase(spec, x) + b * apply_zero_phase(spec, y)
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)


def test_composition_with_spectrum_matches_squared_response():
    # Probe tones near a notch shoulder: measured ratio == |H|^2 within 10%.
    spec = design_bandstop(2.0, 1, 0.5, FS)
    t = np.arange(60000) / FS
    for f_probe in (1.75, 2.25, 3.0):
        x = np.sin(2 * np.pi * f_probe * t)
        y = apply_zero_phase(spec, x)
        measured = sine_amplitude(y[10000:50000], FS, f_probe)
        predicted = abs(spec.response(f_probe)) ** 2
        assert measured == pytest.approx(predicted, rel=0.10)


# --- against the references -------------------------------------------------

def line_record(sample_rate_hz, n=3000):
    rng = np.random.default_rng(1)
    t = np.arange(n) / sample_rate_hz
    return 1535.3 + 0.05 * np.sin(2 * np.pi * 4.0 * t) + rng.normal(0.0, 0.002, n)


def test_notch_within_1e_11_nm_of_long_double_recursion():
    # A 1535 nm record carrying a 4 Hz line. Filtering the level itself, as
    # sosfilt with a scaled initial state does, errs by about 5e-10 nm here.
    x = line_record(FS)
    spec = design_bandstop(4.0, sample_rate_hz=FS)
    assert np.max(np.abs(apply_zero_phase(spec, x) - longdouble_zero_phase(spec, x))) <= 1e-11


@pytest.mark.parametrize("sample_rate_hz", [FS, 250.0])
def test_sweep_lowpass_within_1e_10_nm_of_long_double_recursion(sample_rate_hz):
    # The sweep's 0.05 Hz shape remover, where sosfilt errs by up to 3e-6 nm.
    x = line_record(sample_rate_hz)
    spec = design_lowpass(0.05, sample_rate_hz)
    assert np.max(np.abs(apply_zero_phase(spec, x) - longdouble_zero_phase(spec, x))) <= 1e-10


@st.composite
def designs(draw):
    if draw(st.booleans()):
        spec = design_lowpass(draw(st.floats(0.05, 100.0)), FS)
    else:
        fundamental = draw(st.floats(0.5, 60.0))
        spec_args = dict(n_harmonics=draw(st.integers(1, 3)), sample_rate_hz=FS,
                         bandwidth_hz=draw(st.one_of(st.none(), st.floats(0.2, 5.0))))
        try:
            spec = design_bandstop(fundamental, **spec_args)
        except ParameterError:
            assume(False)
    # A coefficient file may hold sections whose DC gain is not one.
    k = draw(st.sampled_from([1.0, 0.5, 2.0]))
    return FilterSpec(sos=spec.sos * [k, k, k, 1.0, 1.0, 1.0], sample_rate_hz=FS)


@settings(max_examples=80, deadline=None)
@given(spec=designs(), data=st.data())
def test_matches_the_sosfilt_cascade(spec, data):
    n = data.draw(st.integers(6 * len(spec.sos) + 1, 4000))
    x = 1535.0 + data.draw(arrays(float, n, elements=st.floats(-1.0, 1.0)))
    got = apply_zero_phase(spec, x)
    ref = sosfilt_zero_phase(spec, x)
    tol = 1e-9 * np.max(np.abs(ref))
    if np.max(np.abs(got - ref)) > tol:
        # sosfilt carries the ~1535 nm level through the recursion, so on a
        # slow low-pass or a notch wider than its center it errs by more than
        # the bound itself (3e-6 nm at 0.05 Hz); the long-double one decides.
        ref = longdouble_zero_phase(spec, x)
    assert np.max(np.abs(got - ref)) <= tol


@settings(max_examples=150, deadline=None)
@given(spec=st.one_of(designs(), st.just(design_lowpass(0.05, 250.0))), data=st.data())
def test_equals_the_full_length_passes_bit_for_bit(spec, data):
    # The backward pass stops where the output ends; the sign of zero too.
    shortest = 6 * len(spec.sos) + 1
    short = max(shortest, filtering.transient_samples(spec) + 1)  # pad == n - 1 up to here
    n = data.draw(st.one_of(st.integers(shortest, short), st.integers(shortest, 4000)))
    columns = data.draw(st.integers(1, 3))
    values = data.draw(arrays(float, (n, columns),
                              elements=st.floats(-1.0, 1.0) | st.just(-0.0)))
    if data.draw(st.booleans()):
        values = values + 1535.0
    x = values[:, data.draw(st.integers(0, columns - 1))]  # a strided column view
    assert apply_zero_phase(spec, x).tobytes() == full_length_zero_phase(spec, x).tobytes()


@pytest.mark.parametrize("spec", [design_bandstop(4.0, sample_rate_hz=FS),
                                  design_lowpass(0.05, 250.0), identity_spec()],
                         ids=["notch", "slow-lowpass", "identity"])
def test_the_backward_pass_runs_only_to_the_output_end(monkeypatch, spec):
    lengths = []
    kernel = filtering._scipy_kernel("_sosfilt", "_sosfilt")

    def recording(sos, x, zi):
        lengths.append(x.shape[-1])
        return kernel(sos, x, zi)

    monkeypatch.setattr(filtering, "_scipy_kernel", lambda name, function: recording)
    transient = filtering.transient_samples(spec)
    for n in (6 * len(spec.sos) + 1, transient, transient + 1, transient + 2, 10000):
        lengths.clear()
        apply_zero_phase(spec, np.sin(np.arange(n) * 0.1))
        pad = min(transient, n - 1)
        assert lengths == [n + 2 * pad, n + pad]


# --- shape extraction -------------------------------------------------------

def test_dc_passthrough():
    x = np.full(5000, 2.5)
    y = apply_zero_phase(design_lowpass(0.2, FS), x)
    assert np.allclose(y, 2.5, atol=1e-9)


@pytest.mark.parametrize("sample_rate_hz", [250.0, 1000.0, 2000.0])
@pytest.mark.parametrize("cutoff_hz", [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0])
def test_lowpass_returns_a_constant_exactly(sample_rate_hz, cutoff_hz):
    for level in (1535.0, 1535.3, 1510.123456789):
        y = apply_zero_phase(design_lowpass(cutoff_hz, sample_rate_hz),
                             np.full(2000, level))
        assert np.all(y == level)


def test_two_tone_separation():
    t = np.arange(120000) / FS
    slow = np.sin(2 * np.pi * 0.01 * t)
    x = slow + np.sin(2 * np.pi * 2.0 * t)
    y = apply_zero_phase(design_lowpass(0.2, FS), x)
    # Residual fast content after extraction.
    assert sine_amplitude(y[20000:100000], FS, 2.0) <= 0.02
    # The slow line passes nearly unchanged (within 0.1 dB).
    slow_amp = sine_amplitude(y[20000:100000], FS, 0.01)
    assert slow_amp == pytest.approx(1.0, rel=0.012)


def test_step_is_smeared_over_cutoff_timescale():
    def rise_samples(cutoff):
        x = np.zeros(30000)
        x[15000:] = 1.0
        y = apply_zero_phase(design_lowpass(cutoff, FS), x)
        return np.flatnonzero(y > 0.9)[0] - np.flatnonzero(y > 0.1)[0]

    # A sharp edge (one sample) comes out spread over ~1/cutoff seconds,
    # which is what hides collision transients from a naive low-pass.
    rise = rise_samples(0.5)
    assert rise >= 0.35 / 0.5 * FS
    assert rise_samples(5.0) <= rise / 8  # smear scales with 1/cutoff


# --- serialization -----------------------------------------------------------

def test_coefficient_file_round_trip(tmp_path):
    spec = design_bandstop(2.0, 3, sample_rate_hz=FS)
    path = tmp_path / "cascade.txt"
    save_filter_spec(path, spec)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    for (b0, b1, b2, _, a1, a2), line in zip(spec.sos.tolist(), lines):
        assert tuple(float(v) for v in line.split()) == (b0, b1, b2, a1, a2)


def test_coefficient_file_written_atomically(tmp_path, monkeypatch):
    path = tmp_path / "cascade.txt"
    path.write_text("previous\n")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        save_filter_spec(path, design_bandstop(2.0, 3, sample_rate_hz=FS))
    monkeypatch.undo()
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cascade.txt"]


# --- kernel loader -----------------------------------------------------------

#: Each compiled scipy.signal extension the package loads by path: the
#: function taken from it, the scipy.signal module that imports that
#: function, and a check through scipy.signal's public API.
EXTENSIONS = {
    "_sosfilt": ("_sosfilt", "_signaltools",
                 "scipy.signal.sosfilt([[1, 0, 0, 1, 0, 0]], np.ones(3)).tolist() == [1, 1, 1]"),
    "_peak_finding_utils": ("_peak_prominences", "_peak_finding",
                            "scipy.signal.peak_prominences([0, 2, 0], [1])[0].tolist() == [2]"),
}

#: Filters one record with a notch cascade and with the sweep's low-pass,
#: and finds the record's maxima; ``digest()`` hashes the bytes of all three.
DIGEST_CODE = """\
import hashlib, sys
import numpy as np
from fbgvib import filtering, spectral

def digest():
    t = np.arange(20000) / 1000.0
    x = (1535.3 + 0.05 * np.sin(2 * np.pi * 2.0 * t) + 0.2 * (t > 9.0)
         + 1e-3 * np.cos(7.3 * t))
    notched = filtering.apply_zero_phase(
        filtering.design_bandstop(2.0, 3, sample_rate_hz=1000.0), x)
    low = filtering.apply_zero_phase(filtering.design_lowpass(0.05, 1000.0), x)
    peaks = [(p.frequency_hz, p.amplitude, p.prominence) for p in
             spectral.find_peaks(np.arange(notched.shape[0]), notched, 1e-9, np.inf)]
    return hashlib.sha256(notched.tobytes() + low.tobytes()
                          + np.array(peaks).tobytes()).hexdigest()
"""


def fresh_digests(code):
    """Run DIGEST_CODE then ``code`` in a new interpreter; its printed words."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", DIGEST_CODE + code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def in_process_digest():
    namespace = {}
    exec(DIGEST_CODE, namespace)
    return namespace["digest"]()


def test_kernel_loads_without_the_scipy_signal_package():
    digest, = fresh_digests(
        "result = digest()\n"
        "assert 'scipy.signal' not in sys.modules\n"
        + "".join(f"assert 'scipy.signal.{name}' in sys.modules\n" for name in EXTENSIONS)
        + "print(result)\n")
    assert digest == in_process_digest()


def test_a_later_scipy_signal_import_reuses_the_loaded_kernel():
    first, second = fresh_digests(
        "first = digest()\n"
        "modules = dict(sys.modules)\n"
        "import scipy.signal\n"
        + "".join(f"from scipy.signal import {user}\n"
                  f"assert sys.modules['scipy.signal.{name}'] is modules['scipy.signal.{name}']\n"
                  f"assert ({user}.{function} is filtering._scipy_kernel({name!r}, {function!r})"
                  f" is modules['scipy.signal.{name}'].{function})\n"
                  f"assert {public_check}\n"
                  for name, (function, user, public_check) in EXTENSIONS.items())
        + "print(first, digest())\n")
    assert first == second == in_process_digest()


@pytest.mark.parametrize("lookup", ["lambda name: None", "lambda name: {broken!r}"],
                         ids=["no-file", "broken-file"])
def test_kernel_loader_falls_back_to_the_package_import(tmp_path, lookup):
    broken = tmp_path / "_sosfilt.so"
    broken.write_text("not a shared object\n")
    digest, = fresh_digests(
        f"filtering._extension_path = {lookup.format(broken=str(broken))}\n"
        "result = digest()\n"
        "assert 'scipy.signal' in sys.modules\n"
        + "".join(f"from scipy.signal.{name} import {function}\n"
                  f"assert filtering._scipy_kernel({name!r}, {function!r}) is {function}\n"
                  for name, (function, _, _) in EXTENSIONS.items())
        + "print(result)\n")
    assert digest == in_process_digest()

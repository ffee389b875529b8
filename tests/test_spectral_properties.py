"""Property tests: the numpy transform and the peak finder against their
direct forms.

The references are `oracles.naive_dft` (the defining sum) and
`oracles.walk_find_peaks` (the sample-by-sample valley walk the spectral
module first used). Magnitudes are small integers times a scale, so ties,
plateaus and equal valleys occur often; they may be negative or of mixed
sign, which exercises find_peaks' pruning bound (height minus the array
minimum). Long arrays, with runs of equal samples, also come as strided and
reversed views and as float32 and integer arrays, since the compiled
prominence walk takes contiguous doubles only.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fbgvib import find_peaks
from fbgvib.spectral import fft_forward

from oracles import naive_dft, walk_find_peaks

PRIMES = (2, 3, 5, 7, 11, 13, 97, 101, 127, 211, 251, 257, 263, 293)
FINITE = dict(allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def quantised(draw, low=0):
    levels = draw(st.integers(1, 8))
    return draw(arrays(float, draw(st.integers(0, 80)),
                       elements=st.integers(low, low + levels).map(float)))


@settings(max_examples=300, deadline=None)
@given(levels=st.integers(-8, 0).flatmap(lambda low: quantised(low=low)),
       scale=st.sampled_from([1.0, 0.01]),
       prominence_steps=st.sampled_from([0.5, 1.0, 1.5, 2.5]),
       bin_hz=st.sampled_from([0.1, 0.5]),
       cut_bin=st.one_of(st.just(math.inf), st.integers(0, 80)))
def test_find_peaks_matches_the_valley_walk(levels, scale, prominence_steps,
                                            bin_hz, cut_bin):
    mags = levels * scale
    freqs = np.arange(mags.shape[0]) * bin_hz
    min_prominence = prominence_steps * scale
    max_freq_hz = cut_bin * bin_hz
    assert (find_peaks(freqs, mags, min_prominence, max_freq_hz)
            == walk_find_peaks(freqs, mags, min_prominence, max_freq_hz))


#: Views the spectral functions must read like any other array.
LAYOUTS = {"contiguous": lambda a: a, "strided": lambda a: a[::3],
           "reversed": lambda a: a[::-1]}
#: (dtype, scale) of the values: integers stay whole.
KINDS = [(np.float64, 0.01), (np.float32, 0.25), (np.int64, 1)]


@st.composite
def long_levels(draw):
    """6,000 to 12,000 samples of up to 1,000 levels in runs of 1 to 4 equal
    samples; a strided view keeps 2,000 or more. The oracle's walk costs the
    span per peak, so the levels are many enough to keep the spans short."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.integers(-draw(st.integers(0, 500)), draw(st.integers(20, 500)), size=4000)
    return np.repeat(levels, rng.integers(1, 5, size=levels.size))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("dtype, scale", KINDS, ids=["float64", "float32", "int64"])
@settings(max_examples=5, deadline=None)
@given(levels=long_levels(), prominence_steps=st.sampled_from([0.5, 3.5, 50.5]),
       cut_share=st.one_of(st.just(math.inf), st.floats(0.5, 1.0)))
def test_find_peaks_matches_the_valley_walk_on_long_arrays_and_views(levels, dtype, scale, layout,
                                                                     prominence_steps, cut_share):
    mags = LAYOUTS[layout]((levels * scale).astype(dtype))
    freqs = np.arange(mags.shape[0]) * 0.1
    min_prominence = prominence_steps * scale
    max_freq_hz = cut_share * freqs[-1]
    assert (find_peaks(freqs, mags, min_prominence, max_freq_hz)
            == walk_find_peaks(freqs, mags, min_prominence, max_freq_hz))


@settings(max_examples=120, deadline=None)
@given(data=st.data(),
       n=st.one_of(st.integers(1, 300), st.sampled_from(PRIMES)),
       dtype=st.sampled_from([np.float64, np.complex128, np.float32, np.int64]))
def test_fft_forward_matches_the_direct_sum(data, n, dtype):
    # float32 input is transformed in double precision all the same.
    real = st.floats(-1e3, 1e3, **FINITE)
    x = data.draw(arrays(float, n, elements=real))
    if dtype == np.complex128:
        x = x + 1j * data.draw(arrays(float, n, elements=real))
    x = x.astype(dtype)
    got = fft_forward(x)
    ref = naive_dft(x)
    assert got.dtype == np.complex128 and got.shape == (n,)
    assert np.linalg.norm(got - ref) <= 1e-9 * max(np.linalg.norm(ref), 1e-300)

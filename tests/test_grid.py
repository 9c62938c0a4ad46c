import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sispace.grid import (FrequencyGrid, GridError, SampledSignal,
                          SampledSpectrum, l2_norm, next_pow2, to_freq_domain,
                          to_time_domain)


def test_frequency_grid_basic():
    g = FrequencyGrid(64, 32)
    assert g.n_points == 4096
    assert g.spacing == 1.0 / 64
    assert g.xi[0] == -32.0
    assert g.xi[-1] == 32.0 - 1.0 / 64


def test_frequency_grid_rejects_non_pow2():
    with pytest.raises(GridError):
        FrequencyGrid(64, 33)


@pytest.mark.parametrize("S,Xi", [
    (1, 8), (0, 8), (64, 1),
    # fields are integral numbers, never truncated or coerced
    pytest.param(64.9, 32, id="fraction"), pytest.param(64, True, id="bool"),
    pytest.param("64", 32, id="string"), pytest.param(64, math.inf, id="inf"),
    pytest.param(64, math.nan, id="nan"),
])
def test_frequency_grid_rejects_bad_fields(S, Xi):
    with pytest.raises(GridError):
        FrequencyGrid(S, Xi)


@pytest.mark.parametrize("S,Xi", [(64.0, 32), (np.int64(64), np.float64(32.0))],
                         ids=["float", "numpy"])
def test_frequency_grid_keeps_integral_numbers_as_int(S, Xi):
    g = FrequencyGrid(S, Xi)
    assert (type(g.samples_per_unit), type(g.half_range)) == (int, int)
    assert g == FrequencyGrid(64, 32)


def test_index_of_exact():
    g = FrequencyGrid(64, 32)
    assert g.index_of(0.0) == 2048
    assert g.index_of(1.0) - g.index_of(0.0) == 64
    assert g.index_of(-32.0) == 0
    with pytest.raises(GridError):
        g.index_of(0.001)
    with pytest.raises(GridError):
        g.index_of(32.0)


def test_time_axis_duality():
    g = FrequencyGrid(64, 32)
    assert g.time_spacing == 1.0 / 64
    assert g.time_half_span == 32.0
    # time span times frequency span equals the point count
    assert (2 * g.time_half_span) * (2 * g.half_range) == g.n_points


def test_values_are_immutable():
    g = FrequencyGrid(16, 4)
    f = SampledSpectrum(grid=g, values=np.zeros(g.n_points))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_length_mismatch_rejected():
    g = FrequencyGrid(16, 4)
    with pytest.raises(GridError):
        SampledSpectrum(grid=g, values=np.zeros(g.n_points - 1))
    with pytest.raises(GridError):
        SampledSignal(grid=g, values=np.zeros(g.n_points + 3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_non_finite_spectrum_rejected(bad):
    g = FrequencyGrid(16, 4)
    values = np.zeros(g.n_points, dtype=type(bad))
    values[5] = bad
    with pytest.raises(GridError, match="must be finite"):
        SampledSpectrum(grid=g, values=values)


def test_shift_exactness(rng):
    g = FrequencyGrid(16, 8)
    values = np.zeros(g.n_points)
    inner = slice(g.n_points // 2 - 16, g.n_points // 2 + 16)
    values[inner] = rng.standard_normal(32)
    f = SampledSpectrum(grid=g, values=values)
    for k in (1, 3, -5, 7):
        back = f.shifted(k).shifted(-k)
        assert np.array_equal(back.values[inner], f.values[inner])


def test_shift_moves_support_to_zero():
    g = FrequencyGrid(16, 8)
    values = np.zeros(g.n_points)
    values[g.index_of(0.0)] = 1.0
    f = SampledSpectrum(grid=g, values=values)
    moved = f.shifted(3)
    assert moved.value_at(3.0) == 1.0
    assert moved.value_at(0.0) == 0.0


def test_indicator_transforms_to_sinc():
    g = FrequencyGrid(64, 32)
    values = np.zeros(g.n_points)
    center, half = g.n_points // 2, 32
    values[center - half + 1:center + half] = 1.0
    values[center - half] = 0.5
    values[center + half] = 0.5
    sig = to_time_domain(SampledSpectrum(grid=g, values=values))
    assert abs(sig.value_at(0.0) - 1.0) <= 2.0 / 64
    xs = g.x
    # compare against sinc away from the span edges where aliasing creeps in
    window = np.abs(xs) < 8
    assert_allclose(sig.values[window].real, np.sinc(xs[window]), atol=5e-3)
    assert np.max(np.abs(sig.values.imag)) < 1e-12


def test_zero_spectrum_transforms_to_zero():
    g = FrequencyGrid(16, 4)
    sig = to_time_domain(SampledSpectrum(grid=g, values=np.zeros(g.n_points)))
    assert np.all(sig.values == 0)


def test_round_trip_identity_on_random_hermitian(rng):
    g = FrequencyGrid(32, 16)
    n = g.n_points
    values = np.zeros(n, dtype=complex)
    # Hermitian-symmetric with margin-supported values
    k = 100
    center = n // 2
    re = rng.standard_normal(k)
    im = rng.standard_normal(k)
    values[center + 1:center + 1 + k] = re + 1j * im
    values[center - 1 - np.arange(k)] = re - 1j * im
    values[center] = rng.standard_normal()
    f = SampledSpectrum(grid=g, values=values)
    back = to_freq_domain(to_time_domain(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-10


def test_l2_norm_indicator_endpoint_convention():
    # with the 1/2 endpoint samples the quadrature mass is 1 - 1/(2S)
    g = FrequencyGrid(64, 32)
    values = np.zeros(g.n_points)
    center, half = g.n_points // 2, 32
    values[center - half + 1:center + half] = 1.0
    values[center - half] = 0.5
    values[center + half] = 0.5
    f = SampledSpectrum(grid=g, values=values)
    assert_allclose(l2_norm(f), np.sqrt(1.0 - 1.0 / 128), rtol=0, atol=1e-12)


def test_l2_norm_zero():
    g = FrequencyGrid(16, 4)
    assert l2_norm(SampledSpectrum(grid=g, values=np.zeros(g.n_points))) == 0.0


def test_l2_norm_rejects_other_types():
    with pytest.raises(TypeError):
        l2_norm(np.zeros(8))


def test_parseval_exact_for_margin_supported(rng):
    # smooth envelope so the time image decays within the span (rough
    # spectra push mass to the time-array edges, where the trapezoid
    # half-weights would show)
    from sispace.bumps import g0
    g = FrequencyGrid(32, 16)
    values = np.zeros(g.n_points, dtype=complex)
    inner = slice(g.n_points // 2 - 200, g.n_points // 2 + 200)
    u = np.linspace(-1, 1, 400)
    a, b, shift = rng.standard_normal(3)
    values[inner] = g0(u) * (a + b * np.exp(2j * np.pi * 3.0 * shift * u))
    f = SampledSpectrum(grid=g, values=values)
    sig = to_time_domain(f)
    assert abs(l2_norm(f) - l2_norm(sig)) / l2_norm(f) < 1e-12


def test_next_pow2():
    assert next_pow2(1) == 1
    assert next_pow2(5) == 8
    assert next_pow2(64) == 64


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def spectra(draw, kind):
    """A random spectrum on a small grid: ``real-even``, ``hermitian`` (complex,
    ``f(-xi) == conj(f(xi))`` exactly, the -Xi sample real) or ``general``."""
    g = FrequencyGrid(draw(st.sampled_from([2, 4, 8, 16])), draw(st.sampled_from([2, 4, 8])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, h = g.n_points, g.n_points // 2
    # uncentered: u[k] sits at xi = k/S, u[N-k] at -k/S
    u = rng.standard_normal(n) * draw(st.sampled_from([1e-300, 1e-3, 1.0, 1e200]))
    if kind != "real-even":
        u = u + 1j * rng.standard_normal(n) * np.abs(u).max()
    if kind != "general":
        u[:h:-1] = np.conj(u[1:h])
        u[[0, h]] = u[[0, h]].real
    return SampledSpectrum(grid=g, values=np.fft.fftshift(u))


def complex_route(f):
    return (np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(f.values)))
            * (2 * f.grid.half_range))


@PROPERTY
@given(st.one_of(spectra("real-even"), spectra("hermitian")))
def test_hermitian_spectrum_takes_the_real_route(f):
    sig = to_time_domain(f)
    assert sig.values.dtype == np.float64
    reference = complex_route(f).real
    assert np.max(np.abs(sig.values - reference)) <= 1e-15 * np.max(np.abs(reference))


@PROPERTY
@given(st.one_of(spectra("real-even"), spectra("hermitian"), spectra("general")))
def test_round_trip_is_the_identity_on_both_routes(f):
    back = to_freq_domain(to_time_domain(f))
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))


@PROPERTY
@given(st.one_of(spectra("real-even"), spectra("hermitian")), st.data())
def test_one_ulp_off_symmetry_takes_the_complex_route(f, data):
    n = f.grid.n_points
    u = np.fft.ifftshift(f.values)
    k = data.draw(st.integers(0, n - 1))
    if k in (0, n // 2):
        u = u.astype(complex)
        u[k] += 1j * np.nextafter(0.0, 1.0)
    elif np.iscomplexobj(u):
        u[k] = complex(np.nextafter(u[k].real, np.inf), u[k].imag)
    else:
        u[k] = np.nextafter(u[k], np.inf)
    off = SampledSpectrum(grid=f.grid, values=np.fft.fftshift(u))
    sig = to_time_domain(off)
    assert sig.values.dtype == np.complex128
    assert np.array_equal(sig.values, complex_route(off))


"""Shift-aligned uniform grids and the discrete transform between domains.

A :class:`FrequencyGrid` covers ``[-Xi, Xi)`` at spacing ``1/S`` so that an
integer frequency shift is an exact index shift by ``k*S``.  Its dual time
axis covers ``[-S/2, S/2)`` at spacing ``1/(2*Xi)``; both axes hold
``N = 2*Xi*S`` points and N is required to be a power of two.

Transform conventions (x and xi in integer-shift units):

    time(x)  = integral f(xi) exp(+2 pi i xi x) dxi      (inverse)
    freq(xi) = integral f(x)  exp(-2 pi i xi x) dx       (forward)

discretized with the grid spacings, so a round trip is the identity up to
floating error and the discrete Parseval identity is exact.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np


class GridError(ValueError):
    """Raised for invalid grid geometry or out-of-grid requests."""


def _is_pow2(n):
    return n > 0 and (n & (n - 1)) == 0


def next_pow2(n):
    """Smallest power of two >= n (n >= 1)."""
    p = 1
    while p < n:
        p <<= 1
    return p


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform frequency grid ``xi_i = i/S`` for ``i in [-Xi*S, Xi*S)``; both
    fields integral numbers, kept as ``int`` (GridError for 64.9, True, "64")."""

    samples_per_unit: int
    half_range: int

    def __post_init__(self):
        for name in ("samples_per_unit", "half_range"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
                    or isinstance(value, float) and value.is_integer()):
                raise GridError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        S, Xi = self.samples_per_unit, self.half_range
        if S < 2:
            raise GridError("samples_per_unit must be >= 2 (narrow transition bands "
                            "cannot be resolved otherwise)")
        if Xi < 2:
            raise GridError("half_range must be >= 2")
        if not _is_pow2(2 * Xi * S):
            raise GridError(f"point count N = 2*Xi*S = {2 * Xi * S} must be a power of two")

    @property
    def n_points(self):
        return 2 * self.half_range * self.samples_per_unit

    @property
    def spacing(self):
        return 1.0 / self.samples_per_unit

    @property
    def xi(self):
        """Frequency sample positions, ascending."""
        S, Xi = self.samples_per_unit, self.half_range
        return np.arange(-Xi * S, Xi * S) / S

    @property
    def time_spacing(self):
        return 1.0 / (2 * self.half_range)

    @property
    def time_half_span(self):
        return self.samples_per_unit / 2.0

    @property
    def x(self):
        """Time sample positions, ascending."""
        n_half = self.n_points // 2
        return np.arange(-n_half, n_half) / (2.0 * self.half_range)

    def index_of(self, xi):
        """Exact array index of an on-grid frequency; raises if off-grid."""
        i = round(xi * self.samples_per_unit)
        if abs(i - xi * self.samples_per_unit) > 1e-9:
            raise GridError(f"{xi} is not on the grid (spacing 1/{self.samples_per_unit})")
        pos = i + self.half_range * self.samples_per_unit
        if not 0 <= pos < self.n_points:
            raise GridError(f"{xi} lies outside [-{self.half_range}, {self.half_range})")
        return pos


def _freeze(a):
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SampledSpectrum:
    """Samples of a generator's Fourier transform on a :class:`FrequencyGrid`.

    ``meta`` carries builder-provided facts used by the analysis layer, e.g.
    ``exclusion_halfwidth`` (grid artifacts near half-integer frequencies)
    and ``blocks`` for the banded constructions.  Values must be finite:
    GridError otherwise.
    """

    grid: FrequencyGrid
    values: np.ndarray
    label: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        v = _freeze(self.values)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.n_points,):
            raise GridError(f"values length {v.shape} != grid point count {self.grid.n_points}")
        if not np.isfinite(v).all():
            raise GridError("spectrum values must be finite")

    def value_at(self, xi):
        return self.values[self.grid.index_of(xi)]

    def shifted(self, k):
        """Spectrum of the modulated generator: values moved by +k units.

        Samples shifted past the grid edge are dropped; vacated samples are
        zero (valid for margin-supported spectra).
        """
        k = int(k)
        out = np.zeros_like(self.values)
        step, n = k * self.grid.samples_per_unit, self.grid.n_points
        if 0 <= step < n:
            out[step:] = self.values[:n - step]
        elif -n < step < 0:
            out[:step] = self.values[-step:]
        return SampledSpectrum(self.grid, out, self.label, dict(self.meta))


@dataclass(frozen=True)
class SampledSignal:
    """Samples of a generator on the dual time axis of a :class:`FrequencyGrid`.

    Values are real float64 when they come from an exactly Hermitian spectrum
    (see :func:`to_time_domain`) or from a builder that samples a real
    generator; complex otherwise.
    """

    grid: FrequencyGrid
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        v = _freeze(self.values)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.n_points,):
            raise GridError(f"values length {v.shape} != grid point count {self.grid.n_points}")

    @property
    def time_spacing(self):
        return self.grid.time_spacing

    @property
    def half_span(self):
        return self.grid.time_half_span

    def value_at(self, x):
        m = round(x * 2 * self.grid.half_range)
        if abs(m - x * 2 * self.grid.half_range) > 1e-9:
            raise GridError(f"{x} is not on the time grid")
        pos = m + self.grid.n_points // 2
        if not 0 <= pos < self.grid.n_points:
            raise GridError(f"{x} lies outside the time span")
        return self.values[pos]


def _is_hermitian(u):
    """Whether the uncentered samples ``u`` (``u[0]`` at xi = 0) satisfy
    ``u[k] == conj(u[N-k])`` for 0 < k < N/2 exactly, with ``u[0]`` and
    ``u[N/2]`` real: then their inverse transform is real."""
    h = u.size // 2
    if not np.iscomplexobj(u):
        return np.array_equal(u[1:h], u[:h:-1])
    return (u[0].imag == 0 and u[h].imag == 0
            and np.array_equal(u[1:h], np.conj(u[:h:-1])))


def to_time_domain(f: SampledSpectrum) -> SampledSignal:
    """Discrete inverse transform; approximates values at x_m = m/(2*Xi).

    The values are real float64 when the samples are exactly Hermitian
    (``f(-xi) == conj(f(xi))`` at every grid pair, the sample at -Xi real),
    as the sinc, psi and B-spline spectra are; otherwise they are complex.
    """
    # Centered in, centered out: undo the centering, run the radix-2 inverse
    # transform, recenter.  Scaling N/S = 2*Xi turns the mean into the
    # Riemann sum with d(xi) = 1/S.
    u = np.fft.ifftshift(f.values)
    n = u.size
    if _is_hermitian(u):
        v = np.fft.irfft(u[:n // 2 + 1], n)
    else:
        v = np.fft.ifft(u)
    v = np.fft.fftshift(v)
    v *= 2 * f.grid.half_range
    return SampledSignal(grid=f.grid, values=v, label=f.label)


def to_freq_domain(sig: SampledSignal) -> SampledSpectrum:
    """Discrete forward transform, inverse of :func:`to_time_domain`."""
    v = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(sig.values))) / (2 * sig.grid.half_range)
    return SampledSpectrum(grid=sig.grid, values=v, label=sig.label)


def l2_norm(f) -> float:
    """Trapezoid-rule approximation of the continuum L2 norm.

    Accepts either container; both axes carry their own spacing.  For
    spectra/signals vanishing at the grid edges this matches the plain
    Riemann sum, under which the discrete transform is exactly unitary.
    """
    if isinstance(f, SampledSpectrum):
        dx = f.grid.spacing
    elif isinstance(f, SampledSignal):
        dx = f.grid.time_spacing
    else:
        raise TypeError("expected SampledSpectrum or SampledSignal")
    return float(np.sqrt(np.trapezoid(np.abs(f.values) ** 2, dx=dx)))

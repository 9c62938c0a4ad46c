"""Builders for the generator families: sinc, B-splines, and the banded family.

The banded family ``psi`` places scaled copies of the frequency blocks
``h_j`` (see :mod:`sispace.bumps`) at integer centers ``n*(gamma_j + l)``,
``l = 0..beta_j-1``, together with their mirror images, where

    beta_j  = ceil(2**(j*beta))          block count at depth j
    gamma_j = beta_0 + ... + beta_{j-1}  cumulative offset (gamma_0 = 0)

The resulting spectrum is real, even, supported in (-1/2, 1/2) + n*Z, and
its squared integer-periodization equals the block partition of unity away
from half-integer frequencies.  Two evaluation routes exist for the time
domain: the grid route (inverse transform of the sampled spectrum) and an
analytic route combining tabulated window transforms with closed-form
geometric phase sums.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bumps import g0, g1, h, h_support
from .grid import (FrequencyGrid, GridError, SampledSignal, SampledSpectrum,
                   make_grid, next_pow2)

MAX_BSPLINE_DEGREE = 25

# Auto-sizing policy: at least this many frequency samples across the
# narrowest block, subject to the overall point-count cap below.
BLOCK_SAMPLES_TARGET = 32
N_POINTS_CAP = 1 << 24


def _ceil_pow2_of(t):
    """ceil(2**t) robust against float representation of t (e.g. 5*0.4)."""
    v = 2.0 ** t
    r = round(v)
    if abs(v - r) <= 1e-9 * max(1.0, abs(r)):
        return int(r)
    return int(math.ceil(v))


@dataclass(frozen=True)
class PsiParams:
    """Parameters of the banded generator plus derived block bookkeeping."""

    alpha: float
    beta: float
    n: int
    J: int = 5

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ValueError("alpha and beta must be positive and finite")
        if int(self.n) != self.n or self.n < 2:
            raise ValueError("n must be an integer >= 2")
        if int(self.J) != self.J or self.J < 1:
            raise ValueError("J must be an integer >= 1")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "J", int(self.J))

    @property
    def block_counts(self):
        """(beta_0, ..., beta_J); strictly increasing from j = 1 on."""
        return tuple(_ceil_pow2_of(j * self.beta) for j in range(self.J + 1))

    @property
    def block_offsets(self):
        """(gamma_0, ..., gamma_{J+1}) with gamma_0 = 0."""
        counts = self.block_counts
        out = [0]
        for c in counts:
            out.append(out[-1] + c)
        return tuple(out)

    @property
    def required_half_range(self):
        """Smallest grid half-range that fits all blocks with 1 unit margin."""
        return self.n * self.block_offsets[self.J + 1] + 1

    @property
    def exclusion_halfwidth(self):
        """Half-width around half-integer frequencies where the truncated
        partition has not completed."""
        return 2.0 ** (-self.J * self.alpha) / 2.0

    def to_json(self):
        return {"alpha": self.alpha, "beta": self.beta, "n": self.n, "J": self.J}


@dataclass(frozen=True)
class GeneratorSpec:
    """Which generator to build: sinc, bspline(degree), psi(params), custom."""

    kind: str
    degree: int | None = None
    psi: PsiParams | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("sinc", "bspline", "psi", "custom"):
            raise ValueError(f"unknown generator variant {self.kind!r}")
        if self.kind == "bspline":
            if self.degree is None or self.degree < 0:
                raise ValueError("bspline requires a nonnegative degree")
            if self.degree > MAX_BSPLINE_DEGREE:
                raise ValueError(f"bspline degree capped at {MAX_BSPLINE_DEGREE}")
        if self.kind == "psi" and self.psi is None:
            raise ValueError("psi requires parameters")
        if self.kind == "custom" and self.path is None:
            raise ValueError("custom requires a path")

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, str):
            obj = json.loads(obj)
        variant = obj.get("variant")
        if variant == "sinc":
            return cls(kind="sinc")
        if variant == "bspline":
            return cls(kind="bspline", degree=int(obj["degree"]))
        if variant == "psi":
            params = PsiParams(alpha=float(obj["alpha"]), beta=float(obj["beta"]),
                               n=int(obj["n"]), J=int(obj.get("J", 5)))
            return cls(kind="psi", psi=params)
        if variant == "custom":
            return cls(kind="custom", path=str(obj["path"]))
        raise ValueError(f"unknown generator variant {variant!r}")

    def to_json(self):
        if self.kind == "sinc":
            return {"variant": "sinc"}
        if self.kind == "bspline":
            return {"variant": "bspline", "degree": self.degree}
        if self.kind == "psi":
            return {"variant": "psi", **self.psi.to_json()}
        return {"variant": "custom", "path": self.path}

    @property
    def label(self):
        if self.kind == "sinc":
            return "sinc"
        if self.kind == "bspline":
            return f"bspline{self.degree}"
        if self.kind == "psi":
            p = self.psi
            # no commas: labels land in CSV cells
            return f"psi(a={p.alpha:g} b={p.beta:g} n={p.n} J={p.J})"
        return f"custom:{self.path}"


def auto_grid(spec: GeneratorSpec):
    """Default grid sizing per generator; returns (grid, sizing_info).

    For the banded family: half-range fits every block with margin, and the
    per-unit sampling targets ``BLOCK_SAMPLES_TARGET`` samples across the
    narrowest block, capped so N never exceeds ``N_POINTS_CAP`` (the achieved
    sampling is reported either way).
    """
    if spec.kind == "sinc":
        # Long time span for the slowly decaying tail; 1 unit of spectrum.
        return make_grid(1024, 16), {"rule": "sinc-default"}
    if spec.kind == "bspline":
        # Wide half-range so the integer-periodization tail of the powerlaw
        # spectrum falls below 1e-11; compact time support needs little span.
        return make_grid(64, 1024), {"rule": "bspline-default"}
    if spec.kind == "psi":
        p = spec.psi
        Xi = next_pow2(p.n * p.block_offsets[p.J + 1] + 2)
        lo, hi = h_support(p.J, p.alpha)
        narrow = hi - lo
        S_requested = next_pow2(math.ceil(BLOCK_SAMPLES_TARGET / narrow))
        S_cap = max(64, N_POINTS_CAP // (2 * Xi))
        S = max(64, min(S_requested, S_cap))
        info = {
            "rule": "psi-auto",
            "required_half_range": p.required_half_range,
            "narrowest_block_width": narrow,
            "requested_samples_per_unit": S_requested,
            "narrowest_block_samples": S * narrow,
        }
        return make_grid(S, Xi), info
    raise ValueError("custom generators carry their own grid")


def build_sinc(grid: FrequencyGrid) -> SampledSpectrum:
    """Indicator of [-1/2, 1/2]; value 1/2 at the two endpoint samples.

    The symmetric endpoint convention leaves a measure-zero artifact in
    grid analyses exactly at half-integer frequencies, declared through
    ``meta['exclusion_halfwidth'] = 0.0``.
    """
    S = grid.samples_per_unit
    values = np.zeros(grid.n_points)
    center = grid.n_points // 2
    half = S // 2
    values[center - half + 1:center + half] = 1.0
    values[center - half] = 0.5
    values[center + half] = 0.5
    return SampledSpectrum(grid=grid, values=values, label="sinc", hermitian=True,
                           meta={"exclusion_halfwidth": 0.0})


def build_bspline(degree: int, grid: FrequencyGrid):
    """Cardinal B-spline of the given degree on [0, degree+1].

    Returns ``(signal, spectrum)``: the signal from iterated discrete
    convolution of the sampled unit indicator (trapezoid normalization),
    the spectrum from the closed form ``(exp(-pi i xi) sinc(xi))**(degree+1)``.
    The two agree under the discrete transform to quadrature accuracy.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if degree > MAX_BSPLINE_DEGREE:
        raise ValueError(f"degree capped at {MAX_BSPLINE_DEGREE} "
                         "(iterated convolution conditioning)")
    if grid.time_half_span < degree + 2:
        raise GridError(f"time span too short for degree {degree}; "
                        f"need samples_per_unit >= {2 * (degree + 2)}")

    dx = grid.time_spacing
    per_unit = 2 * grid.half_range
    # Unit indicator sampled on [0, 1] with midpoint values at the jumps.
    base = np.ones(per_unit + 1)
    base[0] = 0.5
    base[-1] = 0.5
    piece = base
    for _ in range(degree):
        piece = np.convolve(piece, base) * dx
    values = np.zeros(grid.n_points)
    start = grid.n_points // 2  # x = 0
    values[start:start + piece.size] = piece
    signal = SampledSignal(grid=grid, values=values, label=f"bspline{degree}")

    xi = grid.xi
    spectrum_values = (np.exp(-1j * np.pi * xi) * np.sinc(xi)) ** (degree + 1)
    spectrum = SampledSpectrum(grid=grid, values=spectrum_values,
                               label=f"bspline{degree}", hermitian=True,
                               meta={"degree": degree, "full_frequency_support": True})
    return signal, spectrum


def _block_layout(params: PsiParams):
    """Per-depth placement facts for the positive-frequency blocks."""
    counts = params.block_counts
    offsets = params.block_offsets
    layout = []
    for j in range(1, params.J + 1):
        lo, hi = h_support(j, params.alpha)
        layout.append({
            "j": j,
            "count": counts[j],
            "weight": counts[j] ** -0.5,
            "support_lo": lo,
            "support_hi": hi,
            "center_first": params.n * offsets[j],
            "center_step": params.n,
        })
    return layout


def build_psi_spectrum(params: PsiParams, grid: FrequencyGrid) -> SampledSpectrum:
    """Assemble the banded spectrum on the grid.

    Blocks are evaluated once per depth and written to pairwise-disjoint
    index ranges (asserted); the negative half is an exact mirror of the
    positive half, enforcing evenness bitwise.
    """
    need = params.required_half_range
    if grid.half_range < need:
        raise GridError(f"grid too small for these block parameters: "
                        f"need half_range >= {need}, have {grid.half_range}")
    S = grid.samples_per_unit
    N = grid.n_points
    center = N // 2
    values = np.zeros(N)
    written = np.zeros(N - center, dtype=bool)  # nonnegative-frequency half

    def paint(idx, vals):
        if written[idx].any():
            raise AssertionError("block supports overlap on the grid")
        written[idx] = True
        values[center + idx] = vals

    # central block
    lo0, hi0 = h_support(0, params.alpha)
    idx0 = np.arange(0, int(math.floor(hi0 * S)) + 1)
    paint(idx0, h(idx0 / S, 0, params.alpha))

    for blk in _block_layout(params):
        lo, hi = blk["support_lo"], blk["support_hi"]
        rel = np.arange(int(math.floor(lo * S)) + 1, int(math.ceil(hi * S)))
        samples = blk["weight"] * h(rel / S, blk["j"], params.alpha)
        for l in range(blk["count"]):
            base = (blk["center_first"] + l * blk["center_step"]) * S
            paint(base + rel, samples)

    # mirror: value at -xi equals value at +xi, sample by sample
    values[1:center] = values[center + 1:][::-1]
    values[0] = 0.0

    meta = {
        "psi": params.to_json(),
        "exclusion_halfwidth": params.exclusion_halfwidth,
        "blocks": _block_layout(params),
    }
    return SampledSpectrum(grid=grid, values=values,
                           label=GeneratorSpec(kind="psi", psi=params).label,
                           hermitian=True, meta=meta)


# ---------------------------------------------------------------------------
# analytic time-domain route
# ---------------------------------------------------------------------------

TABLE_X_MAX = 64.0
TABLE_X_SAMPLES = 4097   # spacing 1/32 over [-64, 64], includes 0
TABLE_QUAD_NODES = 8193


def _turns(coef, q):
    """``coef * q`` reduced mod 1 (a phase in turns) for an integer array ``q``.

    ``q`` stays an exact int64 until the product, so the only rounding is
    that of ``coef * q``; the reduction itself is exact.
    """
    return np.mod(coef * np.asarray(q, dtype=np.int64), 1.0)


def _inverse_transform_table(window_values, xi_nodes, x_nodes):
    """Trapezoid quadrature of integral w(xi) exp(2 pi i xi x) dxi at every x node.

    Both node sets are uniform, so the sum over xi is a chirp-z transform
    (Rabiner, Schafer & Rader 1969), evaluated with Bluestein's identity
    ``m*k = (m**2 + k**2 - (k - m)**2) / 2`` as one FFT convolution.  Every
    phase is reduced mod 1 before ``exp``: the chirp phases grow like
    ``q**2`` and, unreduced, would lose their low digits inside ``exp``.
    """
    M, K = xi_nodes.size, x_nodes.size
    xi0, x0 = xi_nodes[0], x_nodes[0]
    dxi = (xi_nodes[-1] - xi0) / (M - 1)
    dx = (x_nodes[-1] - x0) / (K - 1)
    weights = np.full(M, dxi)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    m, k = np.arange(M), np.arange(K)
    half_c = dxi * dx / 2.0   # exp(2 pi i dxi dx m k) = chirp(m) chirp(k) / chirp(k - m)
    a = window_values * weights * np.exp(2j * np.pi * (_turns(x0 * dxi, m)
                                                       + _turns(half_c, m * m)))
    L = 1 << (M + K - 2).bit_length()   # >= M + K - 1: no circular wrap into [0, K)
    q = np.arange(L)
    q = np.where(q < K, q, q - L)
    chirp = np.exp(-2j * np.pi * _turns(half_c, q * q))
    conv = np.fft.ifft(np.fft.fft(a, L) * np.fft.fft(chirp))[:K]
    post = _turns(xi0 * dx, k) + _turns(half_c, k * k) + _turns(xi0 * x0, 1)
    return conv * np.exp(2j * np.pi * post)


class WindowTables:
    """Tabulated inverse transforms of ``g0`` and ``g1`` with cubic interpolation.

    Values beyond ``|x| = TABLE_X_MAX`` evaluate to 0; ``tail_bound`` records the
    largest magnitude seen on the outer 2% of each table, which bounds the
    truncation error committed by that convention.  ``g0_inv``/``g1_inv``
    take arbitrary x; ``g0_inv_ascending``/``g1_inv_ascending`` take x in
    ascending order and give bitwise the same values without a per-point
    interval search.
    """

    def __init__(self, alpha):
        # scipy is imported here, not at module level: it is most of the
        # package's import time, and only the analytic route needs it
        from scipy.interpolate import CubicSpline

        self.alpha = alpha
        x_nodes = np.linspace(-TABLE_X_MAX, TABLE_X_MAX, TABLE_X_SAMPLES)

        xi0 = np.linspace(-1.0, 1.0, TABLE_QUAD_NODES)
        g0_inv = _inverse_transform_table(g0(xi0), xi0, x_nodes)
        xi1 = np.linspace(-1.0, 2.0 ** (-alpha), TABLE_QUAD_NODES)
        g1_inv = _inverse_transform_table(g1(xi1, alpha), xi1, x_nodes)

        self._g0 = CubicSpline(x_nodes, g0_inv.real)
        self._g1 = CubicSpline(x_nodes, g1_inv)
        # per-interval cubic coefficients, highest power first, as PPoly holds them
        self._knots = x_nodes
        self._g0_coeffs = self._g0.c
        self._g1_coeffs = (np.ascontiguousarray(self._g1.c.real),
                           np.ascontiguousarray(self._g1.c.imag))
        edge = x_nodes.size // 50
        self.tail_bound = float(max(np.abs(g0_inv[:edge]).max(),
                                    np.abs(g0_inv[-edge:]).max(),
                                    np.abs(g1_inv[:edge]).max(),
                                    np.abs(g1_inv[-edge:]).max()))

    def g0_inv(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        ok = np.abs(x) <= TABLE_X_MAX
        out[ok] = self._g0(x[ok])
        return out

    def g1_inv(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        ok = np.abs(x) <= TABLE_X_MAX
        out[ok] = self._g1(x[ok])
        return out

    def g0_inv_ascending(self, x):
        """:meth:`g0_inv` for a 1-D ascending ``x``."""
        return self._interval_runs(x, self._g0_coeffs)[0]

    def g1_inv_ascending(self, x):
        """:meth:`g1_inv` for a 1-D ascending ``x``, as ``(real, imag)``."""
        return self._interval_runs(x, *self._g1_coeffs)

    def _interval_runs(self, x, *coeffs):
        """Each spline of ``coeffs`` at an ascending ``x``, one knot interval at a time.

        The points of one interval form a contiguous run of ``x``; each run
        is evaluated with its interval's coefficients in PPoly's order,
        ``c3 + c2 s + c1 s**2 + c0 s**3`` with ``s`` the offset from the
        interval's left knot, so every value is bitwise the spline's own.
        Points outside the table stay 0.
        """
        knots = self._knots
        outs = [np.zeros(x.shape) for _ in coeffs]
        first = np.searchsorted(x, knots[0], "left")
        last = np.searchsorted(x, knots[-1], "right")
        if first >= last:
            return outs
        # a point on an inner knot opens that knot's interval; the last knot
        # closes the last interval
        top = knots.size - 2
        lo = min(int(np.searchsorted(knots, x[first], "right")) - 1, top)
        hi = min(int(np.searchsorted(knots, x[last - 1], "right")) - 1, top)
        bounds = [first, *np.searchsorted(x, knots[lo + 1:hi + 1], "left").tolist(), last]
        scratch = np.empty(x.shape)
        for i, a, b in zip(range(lo, hi + 1), bounds, bounds[1:]):
            if a == b:
                continue
            s = x[a:b] - knots[i]
            s2 = s * s
            s3 = s2 * s
            term = scratch[a:b]
            for c, out in zip(coeffs, outs):
                # c3 + c2 s + c1 s**2 + c0 s**3, summed left to right in place
                value = out[a:b]
                np.multiply(s, c[2, i], out=value)
                value += c[3, i]
                value += np.multiply(s2, c[1, i], out=term)
                value += np.multiply(s3, c[0, i], out=term)
        return outs


@lru_cache(maxsize=8)
def window_tables(alpha):
    return WindowTables(alpha)


def dirichlet_ratio(u, count):
    """``sin(count*pi*u) / sin(pi*u)``, the closed form of the ``count``-term
    geometric phase sum magnitude (signed).

    Reduced to the nearest-integer residue r, where the ratio of the two
    sines is accurate to rounding for every r != 0; the removable
    singularity r == 0 takes the limit value ``count``.
    """
    u = np.asarray(u, dtype=float)
    m = np.round(u)
    r = u - m
    sign = np.where((m.astype(np.int64) * (count - 1)) % 2 == 0, 1.0, -1.0)
    den = np.sin(np.pi * r)
    ratio = np.divide(np.sin(count * np.pi * r), den,
                      out=np.full(r.shape, float(count)), where=den != 0)
    return sign * ratio


# Cap on the Dirichlet tables of one lattice (J tables of 2**(e+1) floats):
# 2.5 MiB at e = 15, J = 5, and 12 MiB at e = 17, J = 6.
DIRICHLET_TABLE_BYTES = 16 << 20
CARRIER_SPLIT_BITS = 10   # lattice carrier: k = k_hi * 2**10 + k_lo

_per_thread = threading.local()


def _dirichlet_tables(counts, exponent):
    """``T[q] = dirichlet_ratio(q * 2**-exponent, count)`` for ``q < 2**(exponent+1)``,
    one table per count.

    ``dirichlet_ratio(u, count)`` has period 2 in u, so on the lattice
    ``u = n*k*2**-exponent`` it equals ``T[(n*k) mod 2**(exponent+1)]``
    bitwise.  Each thread keeps the last set it built: the chunks of one
    lattice pass share it, and concurrent passes never evict each other.
    """
    key = (counts, exponent)
    cached = getattr(_per_thread, "dirichlet", None)
    if cached is None or cached[0] != key:
        q = np.arange(2 << exponent) * 2.0 ** -exponent
        cached = key, tuple(dirichlet_ratio(q, count) for count in counts)
        _per_thread.dirichlet = cached
    return cached[1]


@dataclass(frozen=True)
class DyadicLattice:
    """The ascending points ``k * 2**-exponent`` for ``k = start .. stop-1``.

    ``np.asarray(lattice)`` gives them as float64, each exact.
    :func:`evaluate_psi_time` recognises the type and takes each factor of
    its sum from tables built on the lattice's dyadic structure.
    """

    start: int
    stop: int
    exponent: int

    def __post_init__(self):
        if not (self.start <= self.stop and self.exponent >= 0):
            raise ValueError("a lattice needs start <= stop and exponent >= 0")

    @property
    def size(self):
        return self.stop - self.start

    @property
    def k(self):
        return np.arange(self.start, self.stop)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a DyadicLattice has no array to view; it is built on request")
        return (self.k * 2.0 ** -self.exponent).astype(dtype or float, copy=False)


class _PointFactors:
    """The factors of the analytic sum at arbitrary points ``x``."""

    def __init__(self, x, params, windows):
        self.x, self.n, self.windows = x, params.n, windows

    def central(self, scale):
        return self.windows.g0_inv(scale * self.x)

    def envelope(self, scale):
        env = self.windows.g1_inv(scale * self.x)
        return env.real, env.imag

    def dirichlet(self, j, count):
        return dirichlet_ratio(self.n * self.x, count)

    def carrier(self, freq):
        angle = 2.0 * np.pi * np.mod(freq * self.x, 1.0)
        return np.cos(angle), np.sin(angle)


class _LatticeFactors(_PointFactors):
    """The same factors on a :class:`DyadicLattice`.

    * windows: one run of points per spline interval
      (:meth:`WindowTables.g0_inv_ascending`), bitwise equal;
    * Dirichlet ratio: gathered from :func:`_dirichlet_tables` while one
      lattice's tables fit in ``DIRICHLET_TABLE_BYTES``, else computed
      directly; bitwise equal either way;
    * carrier: ``E(k) = E_hi(k_hi) * E_lo(k_lo)`` for
      ``k = k_hi * 2**CARRIER_SPLIT_BITS + k_lo``, each factor's phase
      reduced as the point route reduces ``freq * x``, so the one new
      rounding is that complex product.
    """

    def __init__(self, lattice, params, windows):
        super().__init__(np.asarray(lattice), params, windows)
        e = lattice.exponent
        self.dirichlet_tables = None
        if params.J * (2 << e) * 8 <= DIRICHLET_TABLE_BYTES:
            self.dirichlet_tables = _dirichlet_tables(params.block_counts[1:], e)
            self.q = (params.n * lattice.k) & ((2 << e) - 1)
        bits = CARRIER_SPLIT_BITS
        hi = np.arange(lattice.start >> bits, ((lattice.stop - 1) >> bits) + 1) << bits
        self.x_hi = hi * 2.0 ** -e
        self.x_lo = np.arange(1 << bits) * 2.0 ** -e
        self.span = slice(lattice.start - hi[0], lattice.start - hi[0] + lattice.size)

    def central(self, scale):
        return self.windows.g0_inv_ascending(scale * self.x)

    def envelope(self, scale):
        return self.windows.g1_inv_ascending(scale * self.x)

    def dirichlet(self, j, count):
        if self.dirichlet_tables is None:
            return super().dirichlet(j, count)
        return self.dirichlet_tables[j - 1].take(self.q)

    def carrier(self, freq):
        angle_hi = 2.0 * np.pi * np.mod(freq * self.x_hi, 1.0)
        angle_lo = 2.0 * np.pi * np.mod(freq * self.x_lo, 1.0)
        cos_hi, sin_hi = np.cos(angle_hi)[:, None], np.sin(angle_hi)[:, None]
        cos_lo, sin_lo = np.cos(angle_lo), np.sin(angle_lo)
        # the complex product written out (numpy's own may fuse multiply-adds)
        cos = cos_hi * cos_lo
        cos -= sin_hi * sin_lo
        sin = cos_hi * sin_lo
        sin += sin_hi * cos_lo
        return cos.ravel()[self.span], sin.ravel()[self.span]


def evaluate_psi_time(x, params: PsiParams):
    """Time-domain values of the banded generator by the analytic route.

    Sums the inverse transforms of the individual blocks: a central window
    term plus, per depth j, an envelope ``g1_inv`` at the block scale, a
    carrier phase at the block center frequency, and the closed-form
    geometric sum over the ``beta_j`` copies (Dirichlet ratio).  The window
    ``g1`` is real, so each mirror term is the complex conjugate of its
    direct term and the pair sums to ``2 Re``; the values returned are real,
    for every x.

    ``x`` is any array of points, or a :class:`DyadicLattice`.  Both run the
    one sum below; on a lattice each factor comes from tables instead of
    per-point work (see :class:`_LatticeFactors`): windows and Dirichlet
    ratios are bitwise those of the same points given as an array, the
    carrier differs by the rounding of one complex product.
    """
    windows = window_tables(params.alpha)
    if isinstance(x, DyadicLattice):
        scalar, factors = False, _LatticeFactors(x, params, windows)
    else:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        factors = _PointFactors(np.atleast_1d(x), params, windows)

    a = params.alpha
    counts = params.block_counts
    offsets = params.block_offsets
    s0 = (1.0 - 2.0 ** (-a)) / 2.0
    out = s0 * factors.central(s0)

    for j in range(1, params.J + 1):
        bj = counts[j]
        cj = (2.0 ** a - 1.0) / 2.0 ** (j * a + 1)
        pref = (2.0 ** a - 1.0) / 2.0 * bj ** -0.5 * 2.0 ** (-j * a)
        # carrier at the block scale and the comb's center frequency, in turns
        freq = (1.0 - 2.0 ** (-j * a)) / 2.0 + params.n * (offsets[j] + (bj - 1) / 2.0)
        env_re, env_im = factors.envelope(cj)
        cos, sin = factors.carrier(freq)
        # out += 2 pref D (env_re cos - env_im sin), in place, in that order
        term = env_re * cos
        term -= env_im * sin
        term *= 2.0 * pref * factors.dirichlet(j, bj)
        out += term
    return out[0] if scalar else out


class PsiTimeEvaluator:
    """Callable analytic route with its sampling metadata.

    ``max_frequency`` is the largest carrier present (outermost copy plus
    half a block width); quadrature lattices for localization probes are
    sized from it.  ``valid_span`` is how far in x the window tables reach
    given the block scalings.
    """

    def __init__(self, params: PsiParams):
        self.params = params
        self.max_frequency = params.n * (params.block_offsets[params.J + 1] - 1) + 0.5
        scales = [(1.0 - 2.0 ** (-params.alpha)) / 2.0]
        scales += [(2.0 ** params.alpha - 1.0) / 2.0 ** (j * params.alpha + 1)
                   for j in range(1, params.J + 1)]
        self.valid_span = TABLE_X_MAX / max(scales)

    def __call__(self, x):
        return evaluate_psi_time(x, self.params)

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

import itertools
import json
import math
import numbers
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .bumps import g0, g1, g1_support, h, h_support
from .grid import (FrequencyGrid, GridError, SampledSignal, SampledSpectrum,
                   next_pow2)

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


def _integer(value, key):
    """``value`` as an int; ValueError unless it is an integral real number (never
    a bool, a string or NaN), OverflowError for an infinite one."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or value != value or int(value) != value):
        raise ValueError(f"{key} must be an integer, got {json.dumps(value)}")
    return int(value)


def _number(value, key):
    """``value`` as a float; ValueError unless it is a real number (never a bool
    or a string)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key} must be a number, got {json.dumps(value)}")
    return float(value)


@dataclass(frozen=True)
class PsiParams:
    """Parameters of the banded generator plus derived block bookkeeping."""

    alpha: float
    beta: float
    n: int
    J: int = 5

    def __post_init__(self):
        for name, read in (("alpha", _number), ("beta", _number), ("n", _integer),
                           ("J", _integer)):
            object.__setattr__(self, name, read(getattr(self, name), name))
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ValueError("alpha and beta must be positive and finite")
        if self.n < 2:
            raise ValueError("n must be an integer >= 2")
        if self.J < 1:
            raise ValueError("J must be an integer >= 1")
        try:   # every block count, time scale and the narrowest block width
            lo, hi = h_support(self.J, self.alpha)
            ok = all(0 < v < math.inf for v in (*self.block_counts, *self.time_scales, hi - lo))
        except OverflowError:   # 2.0 ** t beyond float range
            ok = False
        if not ok:
            raise ValueError(f"alpha = {self.alpha:g}, beta = {self.beta:g} and J = {self.J} "
                             "put the block table out of float range")

    @property
    def block_counts(self):
        """(beta_0, ..., beta_J); strictly increasing from j = 1 on."""
        return tuple(_ceil_pow2_of(j * self.beta) for j in range(self.J + 1))

    @property
    def block_offsets(self):
        """(gamma_0, ..., gamma_{J+1}) with gamma_0 = 0."""
        return tuple(itertools.accumulate(self.block_counts, initial=0))

    @property
    def blocks(self):
        """One dict per depth j = 1..J: ``count`` copies of ``h_j`` (open support
        ``support_lo..support_hi``), weighted ``weight``, at the centers
        ``center_first + l*center_step``.  The builder writes this list into
        ``meta["blocks"]``, so a re-ingested spectrum carries it too."""
        counts, offsets = self.block_counts, self.block_offsets
        return [{"j": j, "count": counts[j], "weight": counts[j] ** -0.5,
                 "support_lo": lo, "support_hi": hi,
                 "center_first": self.n * offsets[j], "center_step": self.n}
                for j in range(1, self.J + 1) for lo, hi in [h_support(j, self.alpha)]]

    @property
    def time_scales(self):
        """(s_0, c_1, ..., c_J): the x-scale of the central window and of
        each depth's envelope on the analytic time route."""
        a = self.alpha
        return ((1.0 - 2.0 ** (-a)) / 2.0,
                *((2.0 ** a - 1.0) / 2.0 ** (j * a + 1) for j in range(1, self.J + 1)))

    @property
    def max_frequency(self):
        """The largest carrier present: the outermost copy's center plus half
        a block width.  The probe lattices are sized from it."""
        last = self.blocks[-1]
        return last["center_first"] + last["center_step"] * (last["count"] - 1) + 0.5

    @property
    def valid_span(self):
        """How far in x the analytic route's window tables reach, given the
        block scalings."""
        return TABLE_X_MAX / max(self.time_scales)

    @property
    def required_half_range(self):
        """Smallest grid half-range that fits all blocks with 1 unit margin."""
        return self.n * self.block_offsets[self.J + 1] + 1

    @property
    def exclusion_halfwidth(self):
        """Half-width around half-integer frequencies where the truncated
        partition has not completed."""
        return 2.0 ** (-self.J * self.alpha) / 2.0

    @property
    def label(self):
        # no commas: labels land in CSV cells
        return f"psi(a={self.alpha:g} b={self.beta:g} n={self.n} J={self.J})"

    def to_json(self):
        return asdict(self)


# the fields each generator variant takes besides its kind
VARIANT_FIELDS = {"sinc": (), "bspline": ("degree",), "psi": ("psi",), "custom": ("path",)}


@dataclass(frozen=True)
class GeneratorSpec:
    """Which generator to build: sinc, bspline(degree), psi(params), custom(path)."""

    kind: str
    degree: int | None = None
    psi: PsiParams | None = None
    path: str | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in VARIANT_FIELDS:
            raise ValueError(f"unknown generator variant {self.kind!r}")
        for field in ("degree", "psi", "path"):
            given = getattr(self, field) is not None
            if given != (field in VARIANT_FIELDS[self.kind]):
                raise ValueError(f"{self.kind} {'takes no' if given else 'requires a'} {field}")
        if self.kind == "bspline":
            object.__setattr__(self, "degree", _integer(self.degree, "degree"))
            if not 0 <= self.degree <= MAX_BSPLINE_DEGREE:
                raise ValueError(f"bspline degree must lie in [0, {MAX_BSPLINE_DEGREE}]")
        if self.kind == "custom" and not isinstance(self.path, str):
            raise ValueError(f"path must be a string, got {json.dumps(self.path)}")

    @classmethod
    def from_json(cls, obj):
        """The spec of a JSON object, given parsed or as its text: ``variant``
        names the kind and the other keys are its fields (of :class:`PsiParams`
        for psi); ValueError or TypeError unless the constructors take them.
        """
        if isinstance(obj, str):
            try:
                obj = json.loads(obj)
            except RecursionError as e:
                raise ValueError("JSON nested too deeply") from e
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
        fields = dict(obj)
        variant = fields.pop("variant", None)
        try:
            if variant == "psi":
                return cls(kind="psi", psi=PsiParams(**fields))
            return cls(kind=variant, **fields)
        except OverflowError as e:   # int() of an infinite float, float() of a huge int
            raise ValueError(str(e)) from e

    def to_json(self):
        """What :meth:`from_json` reads: the variant, then its fields, psi's flattened."""
        fields = {field: getattr(self, field) for field in VARIANT_FIELDS[self.kind]}
        return {"variant": self.kind, **(self.psi.to_json() if self.psi else fields)}


def auto_grid(spec: GeneratorSpec):
    """Default grid sizing per generator; returns (grid, sizing_info).

    For the banded family: half-range fits every block with margin, and the
    per-unit sampling targets ``BLOCK_SAMPLES_TARGET`` samples across the
    narrowest block, capped at ``max(64, N_POINTS_CAP // (2 * Xi))`` per unit
    (the achieved sampling is reported either way).  The cap is on the
    sampling only, so N exceeds ``N_POINTS_CAP`` once the half-range passes
    ``N_POINTS_CAP / 128``: 2**25 points at the README family's J = 8.
    """
    if spec.kind == "sinc":
        # Long time span for the slowly decaying tail; 1 unit of spectrum.
        return FrequencyGrid(1024, 16), {"rule": "sinc-default"}
    if spec.kind == "bspline":
        # Wide half-range so the integer-periodization tail of the powerlaw
        # spectrum falls below 1e-11; compact time support needs little span.
        return FrequencyGrid(64, 1024), {"rule": "bspline-default"}
    if spec.kind == "psi":
        p = spec.psi
        Xi = next_pow2(p.required_half_range + 1)
        last = p.blocks[-1]
        narrow = last["support_hi"] - last["support_lo"]
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
        return FrequencyGrid(S, Xi), info
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
    return SampledSpectrum(grid=grid, values=values, label="sinc",
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
    # np.sinc is ~1e-17, not 0, at a nonzero integer; exact zeros there keep
    # the spectrum exactly Hermitian (the -Xi sample real)
    sinc = np.sinc(xi)
    sinc[(xi == np.rint(xi)) & (xi != 0)] = 0.0
    spectrum_values = (np.exp(-1j * np.pi * xi) * sinc) ** (degree + 1)
    spectrum = SampledSpectrum(grid=grid, values=spectrum_values,
                               label=f"bspline{degree}",
                               meta={"degree": degree, "full_frequency_support": True})
    return signal, spectrum


def _block_copies(blk, S):
    """The offsets ``rel`` of the samples inside a block's open support, at
    ``S`` per unit, and ``idx[l]``, copy l's sample indices counted from xi = 0."""
    rel = np.arange(math.floor(blk["support_lo"] * S) + 1, math.ceil(blk["support_hi"] * S))
    bases = (blk["center_first"] + blk["center_step"] * np.arange(blk["count"])) * S
    return rel, bases[:, None] + rel


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
    idx0 = np.arange(0, math.floor(h_support(0, params.alpha)[1] * S) + 1)
    paint(idx0, h(idx0 / S, 0, params.alpha))

    blocks = params.blocks
    for blk in blocks:
        rel, idx = _block_copies(blk, S)
        samples = blk["weight"] * h(rel / S, blk["j"], params.alpha)
        for copy in idx:
            paint(copy, samples)

    # mirror: value at -xi equals value at +xi, sample by sample
    values[1:center] = values[center + 1:][::-1]
    values[0] = 0.0

    meta = {
        "psi": params.to_json(),
        "exclusion_halfwidth": params.exclusion_halfwidth,
        "blocks": blocks,
    }
    return SampledSpectrum(grid=grid, values=values,
                           label=params.label, meta=meta)


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


def _tridiagonal_solve(dl, d, du, b):
    """Solve the tridiagonal system with sub-, main and super-diagonal ``dl``,
    ``d``, ``du`` (float arrays) for the real right-hand side ``b``.

    Forward elimination and back substitution (the Thomas algorithm), in
    Python floats, operation for operation as LAPACK ``dgtsv`` computes when
    it swaps no rows, so the solution is bitwise ``dgtsv``'s, signed zeros
    included.  ``dgtsv`` swaps rows where ``|d_i| < |dl_i|`` at step ``i``;
    there, or on a zero pivot, this raises ValueError instead of answering
    differently.
    """
    dl, d, du, b = dl.tolist(), d.tolist(), du.tolist(), b.tolist()
    n = len(d)
    for i in range(n - 1):
        if not (abs(d[i]) >= abs(dl[i]) and d[i] != 0):
            raise ValueError(f"tridiagonal solve needs a row swap or meets a zero "
                             f"pivot at row {i}")
        f = dl[i] / d[i]
        d[i + 1] -= f * du[i]
        b[i + 1] -= f * b[i]
    if d[-1] == 0:
        raise ValueError(f"tridiagonal solve meets a zero pivot at row {n - 1}")
    b[-1] /= d[-1]
    b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
    # gtsv also subtracts its row-swap fill-in times b[i + 2]; without swaps
    # that entry is 0.0, but subtracting 0.0 * b[i + 2] still turns a -0.0
    # into +0.0 where b[i + 2] is negative, so the term stays
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - 0.0 * b[i + 2]) / d[i]
    return np.array(b)


def _not_a_knot(x, y):
    """Coefficients of the not-a-knot cubic spline through real ``(x, y)``, on
    at least four knots ``x``.

    The end condition asks the third derivative to be continuous across the
    second and the second-to-last knot (de Boor, *A Practical Guide to
    Splines*, ch. IV).  The knot slopes solve one tridiagonal system, set up
    row by row as the tests' oracle ``CubicSpline`` sets it up and solved by
    :func:`_tridiagonal_solve`, so every coefficient is bitwise the one that
    class holds.  Returns ``c`` of shape ``(4, x.size - 1)``, highest power
    first: interval ``i`` is ``c[0, i] s**3 + c[1, i] s**2 + c[2, i] s +
    c[3, i]`` with ``s = t - x[i]``.
    """
    n = x.size
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d = np.empty(n)
    du = np.empty(n - 1)
    dl = np.empty(n - 1)
    b = np.empty(n)
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    du[1:] = dx[:-1]
    dl[:-1] = dx[1:]
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    span = x[2] - x[0]
    d[0] = dx[1]
    du[0] = span
    b[0] = ((dx[0] + 2 * span) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / span
    span = x[-1] - x[-3]
    d[-1] = dx[-2]
    dl[-1] = span
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * span + dx[-1]) * dx[-2] * slope[-1]) / span
    s = _tridiagonal_solve(dl, d, du, b)
    # the cubic Hermite form of each interval from its end values and slopes
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


def _cubic(s, coeffs, i, outs, term):
    """``c3 + c2 s + c1 s**2 + c0 s**3`` of interval ``i`` (one index) for each
    ``c`` of ``coeffs``, into ``outs``.

    The terms are summed left to right in place; ``term`` is scratch of
    ``s``'s shape.  Every window-spline value of :class:`WindowTables` is
    computed here, each from its own point alone.
    """
    s2 = s * s
    s3 = s2 * s
    for c, out in zip(coeffs, outs):
        np.multiply(s, c[2, i], out=out)
        out += c[3, i]
        out += np.multiply(s2, c[1, i], out=term)
        out += np.multiply(s3, c[0, i], out=term)


def _in_order(x, evaluate):
    """``evaluate`` at an ``x`` of any shape and order, called once: on the
    flattened points, stably sorted (NaN last).  Each value goes back to its
    point's place, in ``x``'s shape."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, axis=None, kind="stable")
    values = evaluate(x.ravel()[order])
    out = np.empty_like(values)
    out[order] = values
    return out.reshape(x.shape)


class WindowTables:
    """Tabulated inverse transforms of ``g0`` and ``g1`` with cubic interpolation.

    The tables are interpolated by real not-a-knot cubic splines
    (:func:`_not_a_knot`) whose per-interval coefficients are all that is
    kept: one for ``g0``'s real table, and one each for the real and
    imaginary parts of ``g1``'s complex one.  Values beyond ``|x| = TABLE_X_MAX``
    evaluate to 0; ``tail_bound`` records the largest magnitude seen on the
    outer 2% of each table, which bounds the truncation error committed by
    that convention.  One path evaluates the splines,
    :meth:`_interval_runs`, which takes ascending points one knot interval at
    a time; ``g0_inv``/``g1_inv`` take x of any shape and order through
    :func:`_in_order`, so a value depends on its point alone.
    """

    def __init__(self, alpha):
        x_nodes = np.linspace(-TABLE_X_MAX, TABLE_X_MAX, TABLE_X_SAMPLES)

        xi0 = np.linspace(-1.0, 1.0, TABLE_QUAD_NODES)
        g0_inv = _inverse_transform_table(g0(xi0), xi0, x_nodes)
        xi1 = np.linspace(*g1_support(alpha), TABLE_QUAD_NODES)
        g1_inv = _inverse_transform_table(g1(xi1, alpha), xi1, x_nodes)

        # per-interval cubic coefficients, highest power first
        self._knots = x_nodes
        self._g0_coeffs = _not_a_knot(x_nodes, g0_inv.real)
        self._g1_coeffs = (_not_a_knot(x_nodes, g1_inv.real), _not_a_knot(x_nodes, g1_inv.imag))
        edge = x_nodes.size // 50
        self.tail_bound = max(float(np.abs(table[ends]).max()) for table in (g0_inv, g1_inv)
                              for ends in (slice(None, edge), slice(-edge, None)))

    def g0_inv(self, x):
        return _in_order(x, lambda x: self._interval_runs(x, self._g0_coeffs)[0])

    def g1_inv(self, x):
        def runs(x):
            out = np.empty(x.shape, dtype=complex)
            out.real, out.imag = self._interval_runs(x, *self._g1_coeffs)
            return out
        return _in_order(x, runs)

    def _interval_runs(self, x, *coeffs):
        """Each spline of ``coeffs`` at an ascending ``x``, one knot interval at a time.

        The points of one interval form a contiguous run of ``x``; each run
        is evaluated by :func:`_cubic` with its interval's coefficients.  The
        first and last interval and the runs' bounds are found by search: an
        inner knot opens its interval, the last knot closes the last.  Points
        outside the table (NaN and +-inf too) stay 0.
        """
        knots = self._knots
        outs = [np.zeros(x.shape) for _ in coeffs]
        first = np.searchsorted(x, knots[0], "left")
        last = np.searchsorted(x, knots[-1], "right")
        if first >= last:
            return outs
        ends = np.searchsorted(knots, x[[first, last - 1]], "right") - 1
        lo, hi = np.minimum(ends, knots.size - 2).tolist()
        bounds = [first, *np.searchsorted(x, knots[lo + 1:hi + 1], "left").tolist(), last]
        scratch = np.empty(x.shape)
        for i, a, b in zip(range(lo, hi + 1), bounds, bounds[1:]):
            if a < b:
                _cubic(x[a:b] - knots[i], coeffs, i, [out[a:b] for out in outs],
                       scratch[a:b])
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
    return next(_dirichlet_ratios(u, (count,)))[()]   # [()]: a scalar u gives a scalar


def _dirichlet_ratios(u, counts):
    """:func:`dirichlet_ratio` of ``u`` for each of ``counts`` in turn, from one
    pass over the residues: yields one ratio per count.

    The rounding to the nearest integer m, the residue r = u - m, the parity
    of m and sin(pi*r) are computed once, before the first ratio.  Per count
    remain the numerator, its divide by sin(pi*r) where that is nonzero (the
    limit ``count`` elsewhere) and, for an even count, the sign (-1)**m.
    """
    u = np.asarray(u, dtype=float)
    m = np.round(u)
    r = u - m
    odd = np.fmod(m, 2) != 0   # exact for any float m, beyond int64 too
    den = np.sin(np.pi * r)
    nonzero = den != 0
    numerator = np.empty(r.shape)
    for count in counts:
        np.sin(np.multiply(count * np.pi, r, out=numerator), out=numerator)
        ratio = np.full(r.shape, float(count))
        np.divide(numerator, den, out=ratio, where=nonzero)
        if count % 2 == 0:
            np.negative(ratio, out=ratio, where=odd)
        yield ratio


def _carrier(freq, x):
    """Cosine and sine of the carrier phase ``freq * x``, reduced mod 1 turn
    before the angle is formed."""
    angle = 2.0 * np.pi * np.mod(freq * x, 1.0)
    return np.cos(angle), np.sin(angle)


def _carrier_frequency(blk, alpha):
    """The carrier of one depth: at the block scale and the comb's center
    frequency, in turns; the comb center is exact, so the sum rounds once."""
    center = blk["center_first"] + blk["center_step"] * (blk["count"] - 1) / 2
    return (1.0 - 2.0 ** (-blk["j"] * alpha)) / 2.0 + center


# Cap on the Dirichlet tables of one lattice (J tables of 2**e + 1 floats):
# 1.25 MiB at e = 15, J = 5, and 6 MiB at e = 17, J = 6.
DIRICHLET_TABLE_BYTES = 16 << 20
CARRIER_SPLIT_BITS = 10   # lattice carrier: k = k_hi * 2**10 + k_lo


class _PointFactors:
    """The factors of the analytic sum at ascending points ``x``: the windows
    from :meth:`WindowTables._interval_runs`, and the Dirichlet ratios of every
    depth from one :func:`_dirichlet_ratios` pass."""

    def __init__(self, x, params, windows):
        self.x, self.n, self.windows = x, params.n, windows

    def central(self, scale):
        return self.windows._interval_runs(scale * self.x, self.windows._g0_coeffs)[0]

    def envelope(self, scale):
        return self.windows._interval_runs(scale * self.x, *self.windows._g1_coeffs)

    def dirichlets(self, counts):
        return _dirichlet_ratios(self.n * self.x, counts)

    def carrier(self, j, freq):
        return _carrier(freq, self.x)


class _LatticeFactors(_PointFactors):
    """The same factors at the ascending points ``k * 2**-e``, ``k = start ..
    stop-1``, of a :class:`_LatticeEvaluator`'s lattice, from its tables:

    * windows: the point route's, bitwise equal;
    * Dirichlet ratios: gathered from the evaluator's tables, one depth at a
      time, while they fit in ``DIRICHLET_TABLE_BYTES``, else the point
      route's one pass; bitwise equal either way;
    * carrier: ``E(k) = E_hi(k_hi) * E_lo(k_lo)`` for
      ``k = k_hi * 2**CARRIER_SPLIT_BITS + k_lo``, each factor's phase
      reduced as the point route reduces ``freq * x``, so the one new
      rounding is that complex product.  ``E_lo`` is the evaluator's table.

    Every factor is a function of its point alone, so a lattice split into
    consecutive pieces gives bitwise the values of the whole.  As an array
    it is its points, which :func:`evaluate_psi_time` is given.
    """

    def __init__(self, start, stop, lattice):
        e = lattice.exponent
        k = np.arange(start, stop)
        super().__init__(k * 2.0 ** -e, lattice.params, lattice.windows)
        self.dirichlet_tables, self.carrier_lo = lattice.dirichlet, lattice.carrier_lo
        if self.dirichlet_tables is not None:
            q = (self.n * k) & ((2 << e) - 1)
            self.q = np.minimum(q, (2 << e) - q)   # the ratio is even about u = 1
        bits = CARRIER_SPLIT_BITS
        first = start >> bits << bits
        self.x_hi = np.arange(first, stop, 1 << bits) * 2.0 ** -e
        self.span = slice(start - first, stop - first)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.x, dtype=dtype, copy=copy)

    def dirichlets(self, counts):
        if self.dirichlet_tables is None:
            return super().dirichlets(counts)
        return (table.take(self.q) for table in self.dirichlet_tables)

    def carrier(self, j, freq):
        cos_hi, sin_hi = (t[:, None] for t in _carrier(freq, self.x_hi))
        cos_lo, sin_lo = self.carrier_lo[j - 1]
        # the complex product written out (numpy's own may fuse multiply-adds)
        cos = cos_hi * cos_lo
        cos -= sin_hi * sin_lo
        sin = cos_hi * sin_lo
        sin += sin_hi * cos_lo
        return cos.ravel()[self.span], sin.ravel()[self.span]


class _LatticeEvaluator:
    """The banded generator on the lattice ``k * 2**-exponent``, evaluated
    piece by piece: ``evaluator(start, stop)`` gives the values at
    ``k = start .. stop-1``, through :func:`evaluate_psi_time`.

    The tables are built once, here, and live as long as the evaluator:

    * ``dirichlet[j-1][q] = dirichlet_ratio(q * 2**-exponent, count_j)`` for
      ``q <= 2**exponent``, all J tables from one :func:`_dirichlet_ratios`
      pass over the residues; None when they would exceed
      ``DIRICHLET_TABLE_BYTES``.  The ratio has period 2 in u and is even
      about u = 1 bit for bit (u -> 2 - u keeps the nearest integer's parity
      and negates the residue exactly), so on the lattice
      ``u = n*k*2**-exponent`` it is ``T[min(q, 2**(exponent+1) - q)]``,
      ``q = (n*k) mod 2**(exponent+1)``;
    * ``carrier_lo[j-1]``, depth j's carrier low table: :func:`_carrier` at
      the ``2**CARRIER_SPLIT_BITS`` points ``k_lo * 2**-exponent``.
    """

    def __init__(self, params, exponent):
        self.params, self.exponent = params, exponent
        self.windows = window_tables(params.alpha)
        blocks = params.blocks
        self.dirichlet = None
        if params.J * ((1 << exponent) + 1) * 8 <= DIRICHLET_TABLE_BYTES:
            residues = np.arange((1 << exponent) + 1) * 2.0 ** -exponent
            self.dirichlet = tuple(_dirichlet_ratios(residues, [blk["count"] for blk in blocks]))
        x_lo = np.arange(1 << CARRIER_SPLIT_BITS) * 2.0 ** -exponent
        self.carrier_lo = tuple(_carrier(_carrier_frequency(blk, params.alpha), x_lo)
                                for blk in blocks)

    def __call__(self, start, stop):
        return evaluate_psi_time(_LatticeFactors(start, stop, self), self.params)


def _psi_sum(factors, params):
    """The analytic sum of both routes from its factors (see
    :func:`evaluate_psi_time`)."""
    a = params.alpha
    s0, *envelope_scales = params.time_scales
    out = s0 * factors.central(s0)

    blocks = params.blocks
    ratios = factors.dirichlets([blk["count"] for blk in blocks])
    for blk, cj in zip(blocks, envelope_scales):
        j = blk["j"]
        pref = (2.0 ** a - 1.0) / 2.0 * blk["weight"] * 2.0 ** (-j * a)
        env_re, env_im = factors.envelope(cj)
        cos, sin = factors.carrier(j, _carrier_frequency(blk, a))
        # out += 2 pref D (env_re cos - env_im sin), in place, in that order;
        # D is drawn only where it is multiplied in: the sum holds no ratio
        # across a depth's envelope and carrier work
        term = env_re * cos
        term -= env_im * sin
        term *= 2.0 * pref * next(ratios)
        out += term
    return out


def evaluate_psi_time(x, params: PsiParams):
    """Time-domain values of the banded generator by the analytic route, at
    any array of points ``x``.

    Sums the inverse transforms of the individual blocks: a central window
    term plus, per depth j, an envelope ``g1_inv`` at the block scale, a
    carrier phase at the block center frequency, and the closed-form
    geometric sum over the ``beta_j`` copies (Dirichlet ratio).  The window
    ``g1`` is real, so each mirror term is the complex conjugate of its
    direct term and the pair sums to ``2 Re``; the values returned are real,
    for every x.

    The points are sorted once (:func:`_in_order`) and summed as
    :class:`_PointFactors`, so a value depends on its point alone; a scalar
    ``x`` gives a scalar.  The probe pass runs the same sum on its dyadic
    lattice: its ``_LatticeEvaluator`` gives each piece here as a
    ``_LatticeFactors``, whose Dirichlet ratios and carrier come from the
    evaluator's tables instead of per-point work.  Windows and Dirichlet
    ratios are bitwise those of the same points given as an array; the
    carrier differs by the rounding of one complex product.  Where even the
    deepest envelope's ``|min(time_scales) * x|`` passes ``TABLE_X_MAX`` (+-inf
    too), every window is 0 and the value is +0.0, unsummed; NaN gives NaN.
    """
    if isinstance(x, _LatticeFactors):
        return _psi_sum(x, params)
    windows = window_tables(params.alpha)
    reach = min(params.time_scales)

    def psi_sum(x):
        out, inside = np.where(np.isnan(x), x, 0.0), np.abs(reach * x) <= TABLE_X_MAX
        out[inside] = _psi_sum(_PointFactors(x[inside], params, windows), params)
        return out
    return _in_order(x, psi_sum)[()]

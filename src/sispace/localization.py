"""Time- and frequency-localization probes and their verdict policy.

Divergence of an integral cannot be proven numerically.  The probes here
compute windowed partial integrals W(T) over an increasing window list and
classify the trend of the tail increments W(T_{i+1}) - W(T_i):

* ``diverging``    -- increments non-decreasing (within ``DEFAULT_REL_TOL``)
                      across the last three windows;
* ``converging``   -- increments shrink monotonically (within
                      ``DEFAULT_REL_TOL``), fall to at most half their
                      initial size over the run, and the last increment is
                      below ``DEFAULT_REL_TOL`` of the last partial;
* ``inconclusive`` -- anything else, including the deliberately
                      unclassified critical exponent (p = 2, weight 1).

Both sides probe a sampled signal or spectrum, or a banded generator's own
:class:`~sispace.generators.PsiParams` (the analytic route).  That route is
trusted only while the windows stay inside the last block's envelope scale;
deepen the truncation via :func:`truncation_depth_for_span` before probing
wide windows, otherwise the probe reports the truncation, not the object.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import forks
from .bumps import h, h_support
from .generators import PsiParams, _LatticeEvaluator, _block_copies, _integer, _number
from .grid import GridError, SampledSignal, SampledSpectrum, next_pow2

DEFAULT_WINDOWS = (4.0, 8.0, 16.0, 32.0, 64.0)
DEFAULT_REL_TOL = 0.05
LATTICE_OVERSAMPLE = 8
MIN_PROBE_WINDOWS = 4
PROBE_CHUNK = 1 << 16        # most lattice points in one trapezoid segment (analytic route)
EVAL_PIECE = 1 << 14         # most lattice points per evaluation inside a segment
LATTICE_POINTS_CAP = 1 << 30  # most points of one half lattice (the README J = 8 probe: 1.3e8)
BLOCK_QUAD_NODES = 2049      # per-block nodes of the frequency-norm quadrature
POINTWISE_NODES = 4097       # per-block nodes of the scaled-sup search
ENVELOPE_MIN_OFFSET = 2      # first unit interval fitted by the envelope exponent


def truncation_depth_for_span(alpha, span):
    """Smallest truncation depth whose last-block envelope reaches ``span``.

    The depth-j envelope lives on the scale ``2**(j*alpha) / (2**alpha - 1)``;
    probing windows beyond that scale sees the truncation tail instead of
    the object's trend.  ValueError unless both are positive and finite.
    """
    for name, value in (("alpha", alpha), ("span", span)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    need = span * (2.0 ** alpha - 1.0)
    return max(1, math.ceil(math.log2(need) / alpha))


def _windows(value, key):
    """``value`` as a list of floats; ValueError unless it is a list or tuple of
    numbers."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} must be a list of numbers, got {json.dumps(value)}")
    return [_number(T, f"each of {key}") for T in value]


class Parameter(NamedTuple):
    """An analysis parameter: default, converter ``convert(value, name)``, range
    test (written so that NaN fails it) and the rule the test states."""

    default: object
    convert: Callable
    ok: Callable
    rule: str

    def read(self, value, name):
        """``value`` converted and range-checked; ValueError(rule) out of range."""
        value = self.convert(value, name)
        if not self.ok(value):
            raise ValueError(self.rule)
        return value


# every analysis parameter of a run: "eps" sets the 1 +- eps pair of the
# second-moment probes, "s" the pointwise frequency scaling,
# "n_max" the largest 1/n invariance step tested, "K" the largest Gram
# coefficient index, "windows" the decay probes' windows
PARAMETERS = {
    "eps": Parameter(0.5, _number, lambda v: v > 0, "must be > 0"),
    "gamma": Parameter(0.0, _number, lambda v: v >= 0, "must be >= 0"),
    "delta": Parameter(0.2, _number, lambda v: v > 0, "must be > 0"),
    "p": Parameter(1.0, _number, lambda v: 1 <= v < 2, "must lie in [1, 2)"),
    "q": Parameter(1.0, _number, lambda v: v >= 1, "must be >= 1"),
    "n_max": Parameter(8, _integer, lambda v: v >= 2, "must be >= 2"),
    "K": Parameter(8, _integer, lambda v: v >= 0, "must be >= 0"),
    "s": Parameter(0.5, _number, lambda v: v >= 0, "must be >= 0"),
    "windows": Parameter(
        DEFAULT_WINDOWS, _windows,
        lambda v: (len(v) >= MIN_PROBE_WINDOWS and all(0 < T < math.inf for T in v)
                   and all(b > a for a, b in zip(v, v[1:]))),
        f"need at least {MIN_PROBE_WINDOWS} windows, finite, positive and strictly increasing"),
}


def _lattice_exponent(params: PsiParams):
    """e of the probe lattice step ``dx = 2**-e``."""
    return next_pow2(int(max(256, LATTICE_OVERSAMPLE * params.max_frequency))).bit_length() - 1


def _probe_samples(windows, dx, last=math.inf):
    """``k = round(T/dx)`` for each window ``T``, at most ``last``; GridError
    unless they strictly increase, since windows that share a probe sample
    would give equal partials."""
    ks = [min(int(round(T / dx)), last) for T in windows]
    for (T, a), (U, b) in zip(zip(windows, ks), zip(windows[1:], ks[1:])):
        if b <= a:
            raise GridError(f"windows {T:g} and {U:g} share the probe sample k = {b} "
                            f"at step {dx:g}")
    return ks


def _window_partials(source, exponents, windows):
    """Trapezoid partials of |f(x)|**p (1+|x|)**w over |x| <= T.

    One row per ``(p, w)`` in ``exponents``, one column per window (checked
    by the caller).  ``source`` is a :class:`~sispace.grid.SampledSignal`
    (the grid route, on its own samples inside the widest window) or the
    :class:`~sispace.generators.PsiParams` of the generator itself (the
    analytic route, at a truncation depth that covers the windows: see
    :func:`truncation_depth_for_span`).  f is even, so the analytic route
    walks only the half lattice x = k*dx, k = 0..round(T_max/dx), dx = 2**-e,
    and a partial is twice its half-lattice trapezoid.  Returns
    ``(partials, route)``.

    The walk is cut three times.  Trapezoid segments of at most
    ``PROBE_CHUNK`` + 1 points end at every window seam; each segment's
    trapezoid is summed once per ``(p, w)`` (``|f|**p`` once per distinct p,
    see :func:`_weighted`) and added to the window it lies in, in segment
    order, so the partials depend on the segments alone.  A segment's |f| is
    filled by evaluation pieces of at most ``EVAL_PIECE`` + 1 points from one
    ``generators._LatticeEvaluator``, created here for the pass: each value
    is a function of its point alone, so the pieces change no bit.  Each
    piece allocates its scratch once, about ten arrays of its own size (see
    ``generators._LatticeFactors``), and frees it when it returns.
    :func:`sispace.forks.split` cuts the segments into ranges of about equal
    point count, and :func:`sispace.forks.run_ranges` sums them, the first
    range here and each further one in a forked child that shares the
    evaluator's tables; each range sends back only its segments' sums, which
    are added here in the same order whatever the split, so the partials are
    bitwise those of one worker.  The tables go with the evaluator when the
    pass returns.  Windows that share a probe sample (see
    :func:`_probe_samples`), and a lattice of more than
    ``LATTICE_POINTS_CAP`` points, are a GridError, raised before the
    evaluator is built.
    """
    if any(p < 1 for p, _ in exponents):
        raise ValueError("p must be >= 1")
    if isinstance(source, SampledSignal):
        dx, span = source.grid.time_spacing, source.grid.time_half_span
        if windows[-1] > span + 1e-9:
            raise GridError(f"window {windows[-1]} exceeds the sampled span {span}")
        mid = source.grid.n_points // 2
        ks = _probe_samples(windows, dx, mid)
        top = max(ks)
        lo, hi = mid - top, min(mid + top + 1, source.values.size)
        values = np.abs(source.values[lo:hi])
        weight = 1.0 + np.abs(np.arange(lo, hi) - mid) * dx
        partials = _weighted(values, weight, exponents, lambda integrand: [
            np.trapezoid(integrand[top - k:top + k + 1], dx=dx) for k in ks])
        return np.array(partials), "grid"
    if not isinstance(source, PsiParams):
        raise TypeError("expected SampledSignal or PsiParams")
    exponent = _lattice_exponent(source)
    dx = 2.0 ** -exponent
    if windows[-1] > source.valid_span:
        raise GridError(f"window {windows[-1]} exceeds the analytic route's "
                        f"table validity {source.valid_span}")
    ks = _probe_samples(windows, dx)
    if ks[-1] + 1 > LATTICE_POINTS_CAP:
        raise GridError(f"the probe lattice at step 2^-{exponent} holds {ks[-1] + 1:.3g} points, "
                        f"more than the cap 2^{LATTICE_POINTS_CAP.bit_length() - 1}")
    evaluate = _LatticeEvaluator(source, exponent)
    stops = sorted({0, *ks, *range(0, ks[-1], PROBE_CHUNK)})

    def trapezoids(first, last):   # segments first..last-1, one row of (p, w) sums each
        out = np.empty((last - first, len(exponents)))
        for i in range(first, last):
            a, b = stops[i], stops[i + 1]
            values = np.empty(b + 1 - a)
            for c in range(a, b, EVAL_PIECE):
                # a last piece of one point would cost a whole call: it joins the one before
                stop = c + EVAL_PIECE if c + EVAL_PIECE < b else b + 1
                values[c - a:stop - a] = evaluate(c, stop)
            np.abs(values, out=values)
            weight = 1.0 + np.arange(a, b + 1) * dx
            out[i - first] = _weighted(values, weight, exponents,
                                       lambda integrand: np.trapezoid(integrand, dx=dx))
        return out

    segments = np.zeros((len(exponents), len(windows)))
    sums = np.concatenate(forks.run_ranges(trapezoids, forks.split(stops)))
    for b, row in zip(stops[1:], sums):
        segments[:, bisect.bisect_left(ks, b)] += row
    return 2.0 * np.cumsum(segments, axis=1), "analytic"


def _weighted(values, weight, exponents, reduce):
    """``reduce(values**p * weight**w)`` for each ``(p, w)`` of ``exponents``, in
    order; ``values`` is spent.

    ``values**p`` is computed once for each distinct p and shared by its
    rows, the last p's in place in ``values``, and each p's last row
    multiplies the power itself: besides ``values`` and ``weight``, at most
    one power and one integrand are held at once.  Each integrand is bitwise
    ``values**p * weight**w`` computed for its row alone.
    """
    out = [None] * len(exponents)
    powers = list(dict.fromkeys(p for p, _ in exponents))
    for p in powers:
        if p == powers[-1]:
            values **= p
            powered = values
        else:
            powered = values ** p
        *rows, (last, w) = [(row, w) for row, (q, w) in enumerate(exponents) if q == p]
        for row, v in rows:
            integrand = weight ** v
            integrand *= powered
            out[row] = reduce(integrand)
        powered *= weight ** w
        out[last] = reduce(powered)
    return out


@dataclass(frozen=True)
class GrowthVerdict:
    """Windowed partials with the classified tail trend."""

    windows: tuple
    partials: tuple
    tail_increments: tuple
    fitted_slope: float
    verdict: str
    rel_tol: float
    route: str
    note: str | None = None


def _classify(partials):
    inc = np.diff(partials)
    atol = 1e-12 * max(abs(partials[-1]), 1.0)
    tail = inc[-3:]
    if np.all(tail <= atol):
        return "converging", "tail increments vanish"
    ratios = tail[1:] / np.maximum(tail[:-1], atol)
    diverging = inc[-1] > atol and np.all(ratios >= 1.0 - DEFAULT_REL_TOL)
    all_ratios = inc[1:] / np.maximum(inc[:-1], atol)
    converging = (inc[-1] < DEFAULT_REL_TOL * partials[-1]
                  and np.all(all_ratios <= 1.0 + DEFAULT_REL_TOL)
                  and inc[-1] <= 0.5 * inc[0])
    if diverging and not converging:
        return "diverging", None
    if converging and not diverging:
        return "converging", None
    return "inconclusive", None


def divergence_probes(source, exponents, windows):
    """Classify the growth of the windowed weighted norm for each ``(p, w)``.

    All exponents share one pass over the probe lattice (see
    :func:`_window_partials`); returns one :class:`GrowthVerdict` per pair,
    in order.  ``fitted_slope`` is the least-squares slope of W(T) against
    log T.  At the critical exponent (p = 2, w = 1) the verdict is pinned to
    ``inconclusive``: the boundary case is deliberately not classified.
    """
    windows = PARAMETERS["windows"].read(list(windows), "windows")
    partials, route = _window_partials(source, exponents, windows)
    verdicts = []
    for (p, w), row in zip(exponents, partials):
        if p == 2 and w == 1.0:
            verdict, note = "inconclusive", "critical exponent (p=2, weight 1): not classified"
        else:
            verdict, note = _classify(row)
        verdicts.append(GrowthVerdict(
            windows=tuple(windows), partials=tuple(row), tail_increments=tuple(np.diff(row)),
            fitted_slope=float(np.polyfit(np.log(windows), row, 1)[0]), verdict=verdict,
            rel_tol=DEFAULT_REL_TOL, route=route, note=note))
    return tuple(verdicts)


# ---------------------------------------------------------------------------
# frequency side
# ---------------------------------------------------------------------------

def weighted_freq_norm(f: SampledSpectrum, q, delta, window=None) -> float:
    """Trapezoid approximation of integral_{|xi|<=window} |f|**q (1+|xi|)**delta."""
    if q < 1:
        raise ValueError("q must be >= 1")
    Xi = f.grid.half_range
    if window is None:
        window = Xi
    if window > Xi:
        raise GridError(f"window {window} exceeds half_range {Xi}")
    xi = f.grid.xi
    keep = np.abs(xi) <= window
    integrand = np.abs(f.values[keep]) ** q * (1.0 + np.abs(xi[keep])) ** delta
    return float(np.trapezoid(integrand, dx=f.grid.spacing))


def _block_nodes(params: PsiParams, j, n_nodes):
    """``n_nodes`` points spanning the support of ``h_j`` and ``|h_j|`` on them."""
    u = np.linspace(*h_support(j, params.alpha), n_nodes)
    return u, np.abs(h(u, j, params.alpha))


def psi_block_freq_contributions(params: PsiParams, q, delta):
    """Per-depth contributions to the weighted frequency norm, analytically.

    Depth j contributes ``2 * beta_j**(-q/2) * sum_l integral |h_j|**q
    (1+|xi|)**delta`` over its copies at centers ``n*(gamma_j+l)`` (factor 2
    for the mirror side).  Uses local quadrature per block shape, so any
    depth is reachable without a global grid.  Returns
    ``(central_term, [(j, contribution), ...])``.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    u, shape = _block_nodes(params, 0, BLOCK_QUAD_NODES)
    central = float(np.trapezoid(shape ** q * (1 + np.abs(u)) ** delta, u))
    out = []
    for blk in params.blocks:
        u, shape = _block_nodes(params, blk["j"], BLOCK_QUAD_NODES)
        shape_q = shape ** q
        # float64 centers: exact below 2**53, and a huge n neither overflows int64
        centers = blk["center_first"] + blk["center_step"] * np.arange(blk["count"], dtype=float)
        weights = (1.0 + centers[:, None] + u[None, :]) ** delta
        total = np.trapezoid(shape_q[None, :] * weights, u, axis=1).sum()
        out.append((blk["j"], float(2.0 * blk["count"] ** (-q / 2.0) * total)))
    return central, out


@dataclass(frozen=True)
class PointwiseDecay:
    """sup of |f(xi)| (1+|xi|)**s with the per-depth peaks for banded spectra."""

    s: float
    sup_scaled: float
    per_block_peaks: tuple   # ((j, peak), ...); empty for non-banded spectra


def pointwise_freq_decay(f, s) -> PointwiseDecay:
    """Scaled sup of the spectrum magnitude.

    Accepts a sampled spectrum (sup over its grid, block peaks when the
    builder declared the band layout) or banded-generator parameters
    (analytic local evaluation; any truncation depth is cheap).
    """
    if isinstance(f, PsiParams):
        u, shape = _block_nodes(f, 0, POINTWISE_NODES)
        sup = float(np.max(shape * (1 + np.abs(u)) ** s))
        peaks = []
        for blk in f.blocks:
            u, shape = _block_nodes(f, blk["j"], POINTWISE_NODES)
            shape = shape * blk["weight"]
            # the weight is monotone in the copy center: the extreme copies bound all
            peak = 0.0
            for l in (0, blk["count"] - 1):
                c = blk["center_first"] + blk["center_step"] * l
                peak = max(peak, float(np.max(shape * (1 + np.abs(c + u)) ** s)))
            peaks.append((blk["j"], peak))
            sup = max(sup, peak)
        return PointwiseDecay(s=s, sup_scaled=sup, per_block_peaks=tuple(peaks))

    if not isinstance(f, SampledSpectrum):
        raise TypeError("expected SampledSpectrum or PsiParams")
    xi = f.grid.xi
    scaled = np.abs(f.values) * (1 + np.abs(xi)) ** s
    sup = float(scaled.max())
    peaks = []
    S = f.grid.samples_per_unit
    center = f.grid.n_points // 2
    for blk in f.meta.get("blocks", ()):
        _, idx = _block_copies(blk, S)
        peaks.append((blk["j"], float(scaled[center + idx].max())))
    return PointwiseDecay(s=s, sup_scaled=sup, per_block_peaks=tuple(peaks))


def spectrum_envelope_exponent(f: SampledSpectrum):
    """Fitted decay exponent of per-unit-interval peaks of |f| (log-log slope) from
    offset ``ENVELOPE_MIN_OFFSET`` on; GridError unless two peaks there are nonzero."""
    mags = np.abs(f.values).reshape(2 * f.grid.half_range, f.grid.samples_per_unit)
    offsets = np.arange(2 * f.grid.half_range) - f.grid.half_range
    keep = offsets >= ENVELOPE_MIN_OFFSET
    peaks = mags[keep].max(axis=1)
    centers = offsets[keep] + 0.5
    good = peaks > 0
    if np.count_nonzero(good) < 2:
        raise GridError(f"the envelope exponent needs two nonzero unit-interval peaks from "
                        f"offset {ENVELOPE_MIN_OFFSET} on, so half_range >= "
                        f"{ENVELOPE_MIN_OFFSET + 2}; have {f.grid.half_range}")
    return float(np.polyfit(np.log(centers[good]), np.log(peaks[good]), 1)[0])


# ---------------------------------------------------------------------------
# parameter gates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateReport:
    """Evaluated gate inequalities, decided in exact arithmetic on the exponents."""

    time_lp_ok: bool          # beta(1/p - 1/2) + alpha(p - 1 - gamma)/p > 0
    freq_lq_ok: bool          # alpha > beta(1 + delta - q/2)
    joint_ok: bool            # 1 + delta - q/2 < 1/(2 gamma); vacuous at gamma = 0
    joint_unbounded: bool
    time_lp_margin: float
    freq_lq_margin: float


def feasibility_gates(alpha, beta, gamma=PARAMETERS["gamma"].default,
                      delta=PARAMETERS["delta"].default, p=PARAMETERS["p"].default,
                      q=PARAMETERS["q"].default) -> GateReport:
    """The three exponent inequalities gating time/frequency decay; ``gamma``,
    ``delta``, ``p`` and ``q`` take their defaults and ranges from ``PARAMETERS``.
    Each exponent is the shortest decimal that prints it (1.25 is 5/4), so each
    ``*_ok`` is an exact sign, false at the paper's zero margins, and each
    margin the float nearest the exact one (OverflowError past float range)."""
    from fractions import Fraction   # not at the top: it loads decimal, 0.2 MB in every run
    if not (alpha > 0 and beta > 0):
        raise ValueError("alpha and beta must be positive")
    exponents = {"gamma": gamma, "delta": delta, "p": p, "q": q}
    for name, value in exponents.items():
        if not PARAMETERS[name].ok(value):
            raise ValueError(f"{name} {PARAMETERS[name].rule}")
    if not all(math.isfinite(v) for v in (alpha, beta, *exponents.values())):
        raise ValueError("the gate exponents must be finite")
    a, b, g, d, p, q = (Fraction(repr(float(v))) for v in (alpha, beta, *exponents.values()))
    t_margin = b * (1 / p - Fraction(1, 2)) + a * (p - 1 - g) / p
    f_margin = a - b * (1 + d - q / 2)
    unbounded = g == 0
    return GateReport(time_lp_ok=t_margin > 0, freq_lq_ok=f_margin > 0,
                      joint_ok=unbounded or 1 + d - q / 2 < 1 / (2 * g),
                      joint_unbounded=unbounded, time_lp_margin=float(t_margin),
                      freq_lq_margin=float(f_margin))

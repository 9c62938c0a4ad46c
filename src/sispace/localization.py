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

For the banded generators the analytic route is trusted only while the
windows stay inside the last block's envelope scale; callers should deepen
the truncation via :func:`truncation_depth_for_span` before probing wide
windows, otherwise the probe reports the truncation, not the object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bumps import h, h_support
from .generators import DyadicLattice, PsiParams, PsiTimeEvaluator
from .grid import GridError, SampledSignal, SampledSpectrum, next_pow2

DEFAULT_WINDOWS = (4.0, 8.0, 16.0, 32.0, 64.0)
DEFAULT_REL_TOL = 0.05
LATTICE_OVERSAMPLE = 8
MIN_PROBE_WINDOWS = 4
PROBE_CHUNK = 1 << 16        # lattice points evaluated at once by the analytic route
BLOCK_QUAD_NODES = 2049      # per-block nodes of the frequency-norm quadrature
POINTWISE_NODES = 4097       # per-block nodes of the scaled-sup search
ENVELOPE_MIN_OFFSET = 2      # first unit interval fitted by the envelope exponent


def truncation_depth_for_span(alpha, span):
    """Smallest truncation depth whose last-block envelope reaches ``span``.

    The depth-j envelope lives on the scale ``2**(j*alpha) / (2**alpha - 1)``;
    probing windows beyond that scale sees the truncation tail instead of
    the object's trend.
    """
    need = span * (2.0 ** alpha - 1.0)
    return max(1, math.ceil(math.log2(need) / alpha))


def check_windows(windows):
    """``windows`` as floats; ValueError unless there are at least
    ``MIN_PROBE_WINDOWS`` of them and they are finite, positive and strictly increasing."""
    windows = [float(T) for T in windows]
    if len(windows) < MIN_PROBE_WINDOWS:
        raise ValueError(f"need at least {MIN_PROBE_WINDOWS} windows")
    if not (all(0 < T < math.inf for T in windows)
            and all(b > a for a, b in zip(windows, windows[1:]))):
        raise ValueError("windows must be finite, positive and strictly increasing")
    return windows


def _as_time_source(source):
    if isinstance(source, PsiParams):
        return PsiTimeEvaluator(source)
    return source


def _lattice_exponent(evaluator: PsiTimeEvaluator):
    """e of the probe lattice step ``dx = 2**-e``."""
    return next_pow2(int(max(256, LATTICE_OVERSAMPLE * evaluator.max_frequency))).bit_length() - 1


def _lattice_step(evaluator: PsiTimeEvaluator):
    return 2.0 ** -_lattice_exponent(evaluator)


def _window_partials(source, exponents, windows):
    """Trapezoid partials of |f(x)|**p (1+|x|)**w over |x| <= T.

    One row per ``(p, w)`` in ``exponents``, one column per window (checked
    by the caller).  The analytic route walks the half lattice
    x = k*dx, k = 0..round(T_max/dx), dx = 2**-e, once, in pieces of at most
    ``PROBE_CHUNK`` points that end at every window seam; each piece is
    evaluated once, as a :class:`~sispace.generators.DyadicLattice`, and adds
    its trapezoid to the window segment it lies in.  f is even, so a partial
    is twice its half-lattice trapezoid.  Returns ``(partials, route)``.

    On a lattice piece :func:`~sispace.generators.evaluate_psi_time` takes
    the Dirichlet factor from one table per depth indexed by
    (n*k) mod 2**(e+1) (built once per lattice while the tables stay under
    ``generators.DIRICHLET_TABLE_BYTES`` = 16 MiB, computed directly above), the
    window values one spline interval at a time over the ascending points,
    and the carrier as a product of two small tables over the high and low
    bits of k.  A piece of 2**16 points keeps its few 512 KiB temporaries
    in a core's L2 cache.
    """
    if any(p < 1 for p, _ in exponents):
        raise ValueError("p must be >= 1")
    source = _as_time_source(source)
    if isinstance(source, SampledSignal):
        dx = source.time_spacing
        if windows[-1] > source.half_span + 1e-9:
            raise GridError(f"window {windows[-1]} exceeds the sampled span "
                            f"{source.half_span}")
        values = np.abs(source.values)
        mid = source.grid.n_points // 2
        xs_abs = np.abs(np.arange(values.size) - mid) * dx
        ks = [min(int(round(T / dx)), mid) for T in windows]
        partials = np.empty((len(exponents), len(windows)))
        for row, (p, w) in enumerate(exponents):
            integrand = values ** p * (1.0 + xs_abs) ** w
            partials[row] = [np.trapezoid(integrand[mid - k:mid + k + 1], dx=dx) for k in ks]
        return partials, "grid"
    if not isinstance(source, PsiTimeEvaluator):
        raise TypeError("expected SampledSignal, PsiTimeEvaluator or PsiParams")
    exponent = _lattice_exponent(source)
    dx = 2.0 ** -exponent
    if windows[-1] > source.valid_span:
        raise GridError(f"window {windows[-1]} exceeds the analytic route's "
                        f"table validity {source.valid_span}")
    ks = [int(round(T / dx)) for T in windows]
    segments = np.zeros((len(exponents), len(windows)))
    stops = sorted({0, *ks, *range(0, ks[-1], PROBE_CHUNK)})
    for a, b in zip(stops, stops[1:]):
        lattice = DyadicLattice(a, b + 1, exponent)
        values = np.abs(source(lattice))
        xs = np.asarray(lattice)
        seg = next(i for i, k in enumerate(ks) if k >= b)
        for row, (p, w) in enumerate(exponents):
            segments[row, seg] += np.trapezoid(values ** p * (1.0 + xs) ** w, dx=dx)
    return 2.0 * np.cumsum(segments, axis=1), "analytic"


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
    windows = list(windows)
    partials, route = _window_partials(source, exponents, check_windows(windows))
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


def divergence_probe(source, p, w, windows=DEFAULT_WINDOWS) -> GrowthVerdict:
    """:func:`divergence_probes` for the single pair ``(p, w)``."""
    return divergence_probes(source, [(p, w)], windows)[0]


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
    counts, offsets = params.block_counts, params.block_offsets
    for j in range(1, params.J + 1):
        u, shape = _block_nodes(params, j, BLOCK_QUAD_NODES)
        shape_q = shape ** q
        centers = params.n * (offsets[j] + np.arange(counts[j]))
        weights = (1.0 + centers[:, None] + u[None, :]) ** delta
        total = np.trapezoid(shape_q[None, :] * weights, u, axis=1).sum()
        out.append((j, float(2.0 * counts[j] ** (-q / 2.0) * total)))
    return central, out


@dataclass(frozen=True)
class PointwiseDecay:
    """sup of |f(xi)| (1+|xi|)**s with the per-depth peaks for banded spectra."""

    s: float
    sup_value: float
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
        counts, offsets = f.block_counts, f.block_offsets
        for j in range(1, f.J + 1):
            u, shape = _block_nodes(f, j, POINTWISE_NODES)
            shape = shape * counts[j] ** -0.5
            # the weight is monotone in the copy center: the extreme copies bound all
            peak = 0.0
            for l in (0, counts[j] - 1):
                c = f.n * (offsets[j] + l)
                peak = max(peak, float(np.max(shape * (1 + np.abs(c + u)) ** s)))
            peaks.append((j, peak))
            sup = max(sup, peak)
        return PointwiseDecay(s=s, sup_value=sup, per_block_peaks=tuple(peaks))

    if not isinstance(f, SampledSpectrum):
        raise TypeError("expected SampledSpectrum or PsiParams")
    xi = f.grid.xi
    scaled = np.abs(f.values) * (1 + np.abs(xi)) ** s
    sup = float(scaled.max())
    peaks = []
    S = f.grid.samples_per_unit
    center = f.grid.n_points // 2
    for blk in f.meta.get("blocks", ()):
        rel = np.arange(int(math.floor(blk["support_lo"] * S)) + 1,
                        int(math.ceil(blk["support_hi"] * S)))
        bases = (blk["center_first"]
                 + blk["center_step"] * np.arange(blk["count"])) * S
        idx = (bases[:, None] + rel[None, :]).ravel() + center
        peaks.append((blk["j"], float(scaled[idx].max())))
    return PointwiseDecay(s=s, sup_value=sup, per_block_peaks=tuple(peaks))


def spectrum_envelope_exponent(f: SampledSpectrum):
    """Fitted decay exponent of per-unit-interval peaks of |f| (log-log slope)."""
    mags = np.abs(f.values).reshape(2 * f.grid.half_range, f.grid.samples_per_unit)
    offsets = np.arange(2 * f.grid.half_range) - f.grid.half_range
    keep = offsets >= ENVELOPE_MIN_OFFSET
    peaks = mags[keep].max(axis=1)
    centers = offsets[keep] + 0.5
    good = peaks > 0
    return float(np.polyfit(np.log(centers[good]), np.log(peaks[good]), 1)[0])


# ---------------------------------------------------------------------------
# parameter gates
# ---------------------------------------------------------------------------

# allowed range of each gate exponent, each test written so that NaN fails
# it; FeasibilityGate checks its fields and the CLI its config against it
GATE_RANGES = {
    "gamma": (lambda v: v >= 0, "must be >= 0"),
    "delta": (lambda v: v > 0, "must be > 0"),
    "p": (lambda v: 1 <= v < 2, "must lie in [1, 2)"),
    "q": (lambda v: v >= 1, "must be >= 1"),
    "epsilon": (lambda v: v > 0, "must be > 0"),
}


@dataclass(frozen=True)
class FeasibilityGate:
    """Exponent bundle for the localization trade-off inequalities."""

    alpha: float
    beta: float
    gamma: float = 0.0
    delta: float = 0.2
    p: float = 1.0
    q: float = 1.0
    epsilon: float = 0.5

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        for name, (ok, rule) in GATE_RANGES.items():
            if not ok(getattr(self, name)):
                raise ValueError(f"{name} {rule}")


@dataclass(frozen=True)
class GateReport:
    """Evaluated gate inequalities (exact arithmetic on the exponents)."""

    time_lp_ok: bool          # beta(1/p - 1/2) + alpha(p - 1 - gamma)/p > 0
    freq_lq_ok: bool          # alpha > beta(1 + delta - q/2)
    joint_ok: bool            # 1 + delta - q/2 < 1/(2 gamma); vacuous at gamma = 0
    time_lp_margin: float
    freq_lq_margin: float
    joint_unbounded: bool


def feasibility_gates(gate: FeasibilityGate) -> GateReport:
    """Evaluate the three exponent inequalities gating time/frequency decay."""
    t_margin = gate.beta * (1.0 / gate.p - 0.5) + gate.alpha * (gate.p - 1.0 - gate.gamma) / gate.p
    f_margin = gate.alpha - gate.beta * (1.0 + gate.delta - gate.q / 2.0)
    if gate.gamma == 0.0:
        joint_ok, unbounded = True, True
    else:
        joint_ok, unbounded = (1.0 + gate.delta - gate.q / 2.0) < 1.0 / (2.0 * gate.gamma), False
    return GateReport(time_lp_ok=t_margin > 0, freq_lq_ok=f_margin > 0,
                      joint_ok=joint_ok, time_lp_margin=t_margin,
                      freq_lq_margin=f_margin, joint_unbounded=unbounded)

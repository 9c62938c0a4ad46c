import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sispace import forks, generators, localization
from sispace.generators import (GeneratorSpec, PsiParams, build_bspline,
                                build_psi_spectrum, evaluate_psi_time)
from sispace.grid import FrequencyGrid, GridError, to_time_domain
from sispace.localization import (PARAMETERS, divergence_probes, feasibility_gates,
                                  pointwise_freq_decay,
                                  psi_block_freq_contributions,
                                  spectrum_envelope_exponent,
                                  truncation_depth_for_span,
                                  weighted_freq_norm)
from sispace.pipeline import ConfigError, run_witness_suite
from sispace.report import read_spectrum_csv, write_spectrum_csv

LOG2_INCREMENT = 4 / np.pi ** 2 * np.log(2)  # per-doubling growth of the sinc tail


def sinc_tail_quadrature(a, b):
    """Independent fine-grained quadrature of |sin(pi x)/(pi x)| on [a, b]."""
    xs = np.linspace(a, b, int((b - a) * 4000) + 1)
    return np.trapezoid(np.abs(np.sinc(xs)), xs)


# ---------------------------------------------------------- windowed partials

def test_compact_support_partial_constant_in_T(bspline1):
    sig, _ = bspline1
    vals = divergence_probes(sig, [(2, 3.0)], [4, 8, 16, 32])[0].partials
    assert_allclose(vals, vals[0], rtol=0, atol=1e-15)


def test_bspline1_squared_mass_closed_form(bspline1):
    # integral over [0, 2] of the hat squared is exactly 2/3
    sig, _ = bspline1
    mass = divergence_probes(sig, [(2, 0.0)], [0.5, 1.0, 1.5, 2.0])[0].partials[-1]
    assert abs(mass - 2.0 / 3.0) < 1e-6


def test_partial_monotone_in_T_and_w(sinc_spectrum):
    sig = to_time_domain(sinc_spectrum)
    ts = [2.0, 4.0, 8.0, 16.0]
    partials = divergence_probes(sig, [(2, 0.0)], ts)[0].partials
    assert all(b >= a for a, b in zip(partials, partials[1:]))
    low, high = divergence_probes(sig, [(2, 0.25), (2, 0.75)], [1.0, 2.0, 4.0, 8.0])
    assert high.partials[-1] >= low.partials[-1]


def test_partial_rejects_T_beyond_span(bspline1):
    sig, _ = bspline1
    with pytest.raises(GridError):
        divergence_probes(sig, [(1, 0.0)], [1, 2, 3, sig.grid.time_half_span + 1])


def test_partial_agrees_between_routes(psi_small):
    # the grid route resolves the squared-signal oscillation more coarsely
    # than the analytic lattice, so agreement is at quadrature accuracy
    params, _, spec = psi_small
    sig = to_time_domain(spec)
    exponents, windows = [(2, 0.0), (2, 1.0)], [1.0, 2.0, 4.0, 8.0]
    for grid_route, analytic in zip(divergence_probes(sig, exponents, windows),
                                    divergence_probes(params, exponents, windows)):
        grid_partial, analytic_partial = grid_route.partials[-1], analytic.partials[-1]
        assert abs(grid_partial - analytic_partial) / grid_partial < 1e-3


def test_streamed_partials_match_symmetric_lattice(psi_small, monkeypatch):
    # 1000-point chunks put a chunk seam inside every window segment
    monkeypatch.setattr(localization, "PROBE_CHUNK", 1000)
    params, _, _ = psi_small
    windows = [1.0, 2.0, 3.0, 4.0]
    exponents = [(1, 0.0), (2, 1.5), (2, 0.5)]
    verdicts = divergence_probes(params, exponents, windows)
    dx = 2.0 ** -localization._lattice_exponent(params)
    M = round(windows[-1] / dx)
    assert M > 4 * 1000
    xs = np.arange(-M, M + 1) * dx
    values = np.abs(evaluate_psi_time(xs, params))
    for (p, w), verdict in zip(exponents, verdicts):
        integrand = values ** p * (1.0 + np.abs(xs)) ** w
        for T, partial in zip(windows, verdict.partials):
            k = round(T / dx)
            reference = np.trapezoid(integrand[M - k:M + k + 1], dx=dx)
            assert abs(partial - reference) <= 1e-12 * reference


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("windows", [
    [0.3, 0.7, 1.1, 2.9],          # 9 segments, seams off the 1000-point chunks
    [1e-5, 5e-4, 1e-3, 1.5e-3],    # 3 segments, k = 0, 1, 2, 3 at dx = 2**-11
    [5e-4, 1e-3, 1.5e-3, 2e-3],    # 4 one-step segments, k = 1, 2, 3, 4
], ids=["seams-off-chunks", "three-segments", "one-step-segments"])
def test_split_partials_are_bitwise_those_of_one_worker(psi_small, monkeypatch, windows):
    monkeypatch.setattr(localization, "PROBE_CHUNK", 1000)
    params = psi_small[0]
    exponents = [(1, 0.0), (2, 1.5), (2, 0.5)]
    partials = {}
    # 6 workers: more than the short lattices' segments, so fewer ranges than workers
    for workers in (1, 2, 3, 6):
        monkeypatch.setattr(forks, "workers", lambda: workers)
        partials[workers], route = localization._window_partials(params, exponents, windows)
        assert route == "analytic"
        assert_no_child_left()
    assert partials[1].shape == (len(exponents), len(windows))
    for workers in (2, 3, 6):
        assert partials[workers].tobytes() == partials[1].tobytes()
    # without Dirichlet tables every piece takes the per-point ratios' one pass
    monkeypatch.setattr(generators, "DIRICHLET_TABLE_BYTES", 0)
    without_tables, _ = localization._window_partials(params, exponents, windows)
    assert_no_child_left()
    assert without_tables.tobytes() == partials[1].tobytes()


def test_benchmark_shape_partials_are_bitwise_those_of_one_worker(monkeypatch):
    # psi(1, 2, 3, 4) probed to T = 32 runs at J = 5 and step 2**-15: five depths
    # over full probe pieces, 2**20 + 1 half-lattice points
    params = PsiParams(1.0, 2.0, 3, 5)
    windows = [2.0, 4.0, 8.0, 16.0, 32.0]
    assert localization.truncation_depth_for_span(1.0, windows[-1]) == params.J
    assert localization._lattice_exponent(params) == 15
    exponents = [(1, 0.0), (2, 1.5), (2, 0.5)]
    partials = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(forks, "workers", lambda: workers)
        partials[workers], _ = localization._window_partials(params, exponents, windows)
        assert_no_child_left()
    assert partials[2].tobytes() == partials[1].tobytes()
    assert partials[3].tobytes() == partials[1].tobytes()


@pytest.mark.parametrize("failing, raised", [
    ({"child"}, "child"), ({"here"}, "here"), ({"child", "here"}, "here")],
    ids=["child", "this-process", "both"])
def test_a_failing_range_surfaces_as_itself_and_leaves_no_process(psi_small, monkeypatch,
                                                                  failing, raised):
    # 3 workers: this process evaluates the first range, two children the others;
    # when this process fails, its failure wins over any child's
    parent = os.getpid()
    evaluate = generators._LatticeEvaluator.__call__

    def failing_evaluate(self, start, stop):
        where = "here" if os.getpid() == parent else "child"
        if where in failing:
            raise FloatingPointError(where)
        return evaluate(self, start, stop)

    monkeypatch.setattr(forks, "workers", lambda: 3)
    monkeypatch.setattr(generators._LatticeEvaluator, "__call__", failing_evaluate)
    with pytest.raises(FloatingPointError) as error:
        localization._window_partials(psi_small[0], [(1, 0.0)], [1.0, 2.0, 3.0, 4.0])
    assert str(error.value) == raised
    assert_no_child_left()


def test_probe_memory_does_not_grow_with_the_lattice(psi_small, monkeypatch):
    monkeypatch.setattr(localization, "PROBE_CHUNK", 1 << 12)
    params = psi_small[0]
    exponents = [(1, 0.0), (2, 1.5), (2, 0.5)]

    def traced_peak(windows):
        tracemalloc.start()
        try:
            divergence_probes(params, exponents, windows)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak([2, 4, 8, 16])   # window tables and first-call allocations
    base = traced_peak([2, 4, 8, 16])
    assert traced_peak([2, 4, 8, 32]) < 1.1 * base


def test_lattice_pass_peak_memory():
    # psi(1, 2, 3, J=5) to T = 32: 2**20 + 1 half-lattice points at dx = 2**-15
    # and 1.25 MiB of Dirichlet tables (half a period each); the pass peaks at
    # 3.7-3.9 MiB, and at 7.3 MiB evaluating whole 2**16-point segments;
    # full-period tables would add 1.25 MiB
    params = PsiParams(1.0, 2.0, 3, 5)
    generators.window_tables(1.0)   # built once per process, not per pass
    tracemalloc.start()
    try:
        divergence_probes(params, [(1, 0.0), (2, 1.5), (2, 0.5)], [2, 4, 8, 16, 32])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20


@pytest.mark.parametrize("J, points", [(8, 134217729), (10, 2147483649)])
def test_probe_lattice_size_against_the_cap(J, points):
    # the README family probed to T = 64: J = 8 walks 1.3e8 points and runs,
    # J = 10 2.1e9 and is refused (the pass itself is not run here)
    params = PsiParams(1.0, 2.0, 2, J)
    assert round(64 * 2 ** localization._lattice_exponent(params)) + 1 == points
    assert (points <= localization.LATTICE_POINTS_CAP) == (J == 8)


def test_lattice_above_the_cap_is_refused_before_the_evaluator():
    # "n": 1e300 at J = 3 and windows to 8: a step of 2**-1006, 2**1009 + 1 points
    params = PsiParams(1.0, 2.0, int(1e300), 3)
    with mock.patch.object(localization, "_LatticeEvaluator") as evaluator:
        with pytest.raises(GridError, match="holds 5.49e\\+303 points, more than the cap 2\\^30"):
            localization._window_partials(params, [(1, 0.0)], [1.0, 2.0, 4.0, 8.0])
    evaluator.assert_not_called()


def test_no_lattice_table_outlives_its_evaluation(psi_small):
    # ten points at step 2**-18 of psi(1, 2, 2, J=5) build 10 MiB of Dirichlet
    # tables (five of 2**18 + 1 floats); they go with their evaluator, as the
    # tables of a whole probe pass go when the pass returns
    generators.window_tables(1.0)   # built once per process, not per pass
    divergence_probes(psi_small[0], [(1, 0.0)], [1.0, 2.0, 3.0, 4.0])   # first-call allocations
    tracemalloc.start()
    try:
        generators._LatticeEvaluator(PsiParams(1.0, 2.0, 2, 5), 18)(0, 10)
        after_evaluation, peak = tracemalloc.get_traced_memory()
        divergence_probes(psi_small[0], [(1, 0.0)], [1.0, 2.0, 3.0, 4.0])
        after_pass = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak > 10 << 20
    assert after_evaluation < 64 << 10 and after_pass < 64 << 10


def _whole_array_partials(signal, exponents, windows):
    """The grid-route partials with |f|**p (1+|x|)**w formed on every sample."""
    dx = signal.grid.time_spacing
    values = np.abs(signal.values)
    mid = signal.grid.n_points // 2
    xs_abs = np.abs(np.arange(values.size) - mid) * dx
    ks = [min(int(round(T / dx)), mid) for T in windows]
    return [[np.trapezoid((values ** p * (1.0 + xs_abs) ** w)[mid - k:mid + k + 1], dx=dx)
             for k in ks] for p, w in exponents]


def test_grid_partials_are_the_whole_array_formula(sinc_spectrum, bspline_grid, tmp_path):
    write_spectrum_csv(tmp_path / "s.csv",
                       build_psi_spectrum(PsiParams(1.0, 2.0, 2, 2), FrequencyGrid(64, 64)))
    signals = [to_time_domain(sinc_spectrum), build_bspline(3, bspline_grid)[0],
               to_time_domain(read_spectrum_csv(tmp_path / "s.csv"))]
    exponents = [(1, 0.0), (2, 1.5), (2, 0.5)]
    for signal in signals:
        span = signal.grid.time_half_span
        for windows in ([span / 64, span / 32, span / 16, span / 8], [1.0, 2.0, 4.0, span]):
            partials, route = localization._window_partials(signal, exponents, windows)
            assert route == "grid"
            reference = np.array(_whole_array_partials(signal, exponents, windows))
            assert partials.tobytes() == reference.tobytes()


# ------------------------------------------------------------ divergence probe

def test_sinc_probe_diverging_with_log_increments(sinc_spectrum):
    sig = to_time_domain(sinc_spectrum)
    verdict = divergence_probes(sig, [(1, 0.0)], [8, 16, 32, 64, 128])[0]
    assert verdict.verdict == "diverging"
    for inc in verdict.tail_increments:
        assert abs(inc - LOG2_INCREMENT) / LOG2_INCREMENT < 0.15
    # independent quadrature oracle confirms the increment level
    oracle = 2 * sinc_tail_quadrature(8, 16)
    assert abs(verdict.tail_increments[0] - oracle) / oracle < 0.02


def test_compact_support_probe_converging(bspline1):
    sig, _ = bspline1
    verdict = divergence_probes(sig, [(2, 3.0)], [4, 8, 16, 32])[0]
    assert verdict.verdict == "converging"
    assert verdict.note == "tail increments vanish"


def test_probe_requires_four_windows(bspline1):
    sig, _ = bspline1
    with pytest.raises(ValueError):
        divergence_probes(sig, [(2, 0.0)], [4, 8, 16])


def test_probe_requires_p_at_least_one(bspline1):
    sig, _ = bspline1
    with pytest.raises(ValueError, match="p must be >= 1"):
        divergence_probes(sig, [(0.5, 0.0)], [4, 8, 16, 32])


@pytest.mark.parametrize("windows", [[-4, 8, 16, 32], [4, 4, 8, 16], [8, 4, 16, 32]])
def test_probe_rejects_bad_windows(bspline1, windows):
    sig, _ = bspline1
    with pytest.raises(ValueError, match="strictly increasing"):
        divergence_probes(sig, [(1, 0.0)], windows)


def test_critical_exponent_not_classified(psi_small):
    params, _, _ = psi_small
    verdict, = divergence_probes(params, [(2, 1.0)], [4, 8, 16, 32])
    assert verdict.verdict == "inconclusive"
    assert "critical" in verdict.note


def test_psi_probe_pair_verdicts():
    # truncation deepened so the window span stays inside the last envelope;
    # the wider 1 +- 0.75 pair keeps the trend decisive on short windows
    # (the 1 +- 0.5 pair at full windows runs in the acceptance suite)
    depth = truncation_depth_for_span(1.0, 32.0)
    params = PsiParams(1.0, 2.0, 2, depth)
    heavy, light = divergence_probes(params, [(2, 1.75), (2, 0.25)], [4, 8, 16, 32])
    assert heavy.verdict == "diverging"
    assert light.verdict == "converging"
    assert heavy.route == "analytic" and light.route == "analytic"


def test_verdict_stability_under_grid_and_window_refinement(bspline1):
    # denser sampling and denser windows do not flip the verdicts
    sig_c, _ = bspline1
    for windows in ([4, 8, 16, 32], [4, 5.66, 8, 11.3, 16, 22.6, 32]):
        assert divergence_probes(sig_c, [(2, 3.0)], windows)[0].verdict == "converging"

    from sispace.generators import build_sinc
    for S in (1024, 2048):
        g = FrequencyGrid(S, 16)
        sig = to_time_domain(build_sinc(g))
        for windows in ([8, 16, 32, 64, 128],
                        [8, 11.3, 16, 22.6, 32, 45.25, 64, 90.5, 128]):
            assert divergence_probes(sig, [(1, 0.0)], windows)[0].verdict == "diverging"


def test_probe_slope_fit_log(sinc_spectrum):
    sig = to_time_domain(sinc_spectrum)
    verdict = divergence_probes(sig, [(1, 0.0)], [8, 16, 32, 64, 128])[0]
    # logarithmic growth: slope against log T matches increment / log 2
    assert abs(verdict.fitted_slope - LOG2_INCREMENT / np.log(2)) < 0.05


# --------------------------------------------------------- weighted freq norm

def test_freq_norm_sinc_unit_mass(sinc_spectrum):
    total = weighted_freq_norm(sinc_spectrum, 2, 0.0)
    S = sinc_spectrum.grid.samples_per_unit
    assert_allclose(total, 1.0 - 1.0 / (2 * S), rtol=0, atol=1e-12)


def test_freq_norm_window_validation(sinc_spectrum):
    with pytest.raises(GridError):
        weighted_freq_norm(sinc_spectrum, 2, 0.0, window=100)


def test_block_contribution_scaling_summable():
    _, blocks = psi_block_freq_contributions(PsiParams(3.0, 1.0, 2, 6), 1.0, 0.2)
    vals = [c for _, c in blocks]
    predicted = 2.0 ** (1.0 * (1 + 0.2 - 0.5) - 3.0)
    for j in range(2, len(vals)):
        ratio = vals[j] / vals[j - 1]
        assert abs(ratio - predicted) / predicted < 0.15
        assert ratio < 1 / 1.5


def test_block_contribution_scaling_divergent():
    _, blocks = psi_block_freq_contributions(PsiParams(1.0, 2.0, 2, 6), 1.0, 0.2)
    vals = [c for _, c in blocks]
    predicted = 2.0 ** (2.0 * (1 + 0.2 - 0.5) - 1.0)
    for j in range(2, len(vals)):
        ratio = vals[j] / vals[j - 1]
        assert abs(ratio - predicted) / predicted < 0.15
        assert ratio > 1


def test_block_contributions_match_grid_norm(psi_small):
    params, _, spec = psi_small
    central, blocks = psi_block_freq_contributions(params, 1.0, 0.2)
    analytic = central + sum(c for _, c in blocks)
    grid_norm = weighted_freq_norm(spec, 1.0, 0.2)
    assert abs(analytic - grid_norm) / analytic < 1e-5


# ------------------------------------------------------------- pointwise decay

def test_sinc_pointwise_sup_at_support_edge(sinc_spectrum):
    # sup sits at the last full-height sample inside the support edge
    # (the edge sample itself carries the half-value convention)
    S = sinc_spectrum.grid.samples_per_unit
    for s in (0.5, 1.0):
        decay = pointwise_freq_decay(sinc_spectrum, s)
        assert_allclose(decay.sup_scaled, (1.5 - 1.0 / S) ** s, rtol=1e-12)
        assert_allclose(decay.sup_scaled, 1.5 ** s, rtol=2.0 / S)
        assert decay.per_block_peaks == ()


def test_psi_peaks_bounded_at_half():
    peaks = {J: pointwise_freq_decay(PsiParams(1.0, 2.0, 2, J), 0.5).per_block_peaks
             for J in (4, 6)}
    last4 = peaks[4][-1][1]
    last6 = peaks[6][-1][1]
    assert abs(last6 - last4) / last4 < 0.25


def test_psi_peaks_grow_above_half():
    last = [pointwise_freq_decay(PsiParams(1.0, 2.0, 2, J), 0.6).per_block_peaks[-1][1]
            for J in (4, 5, 6)]
    assert last[0] < last[1] < last[2]


def test_pointwise_routes_agree(psi_small):
    params, _, spec = psi_small
    analytic = pointwise_freq_decay(params, 0.5)
    gridded = pointwise_freq_decay(spec, 0.5)
    for (ja, pa), (jg, pg) in zip(analytic.per_block_peaks, gridded.per_block_peaks):
        assert ja == jg
        assert abs(pa - pg) / pa < 1e-3


def test_bspline_envelope_exponent(bspline1):
    _, spec = bspline1
    assert abs(spectrum_envelope_exponent(spec) - (-2.0)) < 0.1


# ---------------------------------------------------------------------- gates

def test_gate_examples():
    g = feasibility_gates(3, 1, gamma=0.0, delta=0.2, p=1, q=1)
    assert g.time_lp_ok and g.freq_lq_ok and g.joint_ok and g.joint_unbounded
    assert_allclose(g.time_lp_margin, 0.5)
    assert_allclose(g.freq_lq_margin, 3 - 0.7)

    g2 = feasibility_gates(1, 2, gamma=0.0, delta=0.2, p=1, q=1)
    assert not g2.freq_lq_ok

    g3 = feasibility_gates(3, 1, gamma=1.0, delta=0.2, p=1, q=1)
    assert not g3.joint_ok
    g4 = feasibility_gates(3, 1, gamma=0.5, delta=0.2, p=1, q=1)
    assert g4.joint_ok and not g4.joint_unbounded


def test_gate_validation():
    with pytest.raises(ValueError):
        feasibility_gates(1, 1, p=2.0)
    with pytest.raises(ValueError):
        feasibility_gates(1, 1, gamma=-1)
    with pytest.raises(ValueError):
        feasibility_gates(1, 1, delta=0.0)
    with pytest.raises(ValueError, match="q must be >= 1"):
        feasibility_gates(1, 1, q=float("nan"))
    with pytest.raises(ValueError, match="alpha and beta must be positive"):
        feasibility_gates(float("nan"), 1)
    with pytest.raises(ValueError, match="alpha and beta must be positive"):
        feasibility_gates(1, float("nan"))
    with pytest.raises(ValueError, match="must be finite"):
        feasibility_gates(1, 1, delta=math.inf)


def test_gate_defaults_are_the_parameters_defaults():
    defaults = {name: PARAMETERS[name].default for name in ("gamma", "delta", "p", "q")}
    assert feasibility_gates(1, 2) == feasibility_gates(1, 2, **defaults)


@pytest.mark.parametrize("exponents, field", [
    # beta (1/p - 1/2) + alpha (p - 1 - gamma) / p = 2 (3/10) + (-3/4)(4/5) = 0
    ({"alpha": 1, "beta": 2, "p": 1.25, "gamma": 1}, "time_lp_ok"),
    # alpha - beta (1 + delta - q/2) = 1/2 - (1 + 2/5 - 9/10) = 0
    ({"alpha": 0.5, "beta": 1, "delta": 0.4, "q": 1.8}, "freq_lq_ok"),
    # 1 + delta - q/2 = 1 = 1/(2 gamma)
    ({"alpha": 1, "beta": 1, "gamma": 0.5, "delta": 0.9, "q": 1.8}, "joint_ok"),
])
def test_gate_at_a_zero_margin_is_false(exponents, field):
    # the paper's bounds are sharp: a margin that is exactly zero is no margin,
    # though float arithmetic on these decimals leaves 1.1e-16
    gates = feasibility_gates(**exponents)
    assert getattr(gates, field) is False
    if field != "joint_ok":
        margin = gates.time_lp_margin if field == "time_lp_ok" else gates.freq_lq_margin
        assert margin == 0.0 and math.copysign(1.0, margin) == 1.0


def test_gate_margin_is_the_nearest_float_to_the_exact_margin():
    # 1 - 2 (1 + 1/5 - 1/2) = -2/5, which float arithmetic gives as -0.39999999999999991
    assert feasibility_gates(1, 2).freq_lq_margin == -0.4
    # 3 - (1 + 1/5 - 1/2) = 23/10
    assert feasibility_gates(3, 1).freq_lq_margin == 2.3


def test_gate_consistency_with_block_numerics():
    # gate true with margin: contributions shrink by >= 1.5x from depth 3 on;
    # gate false with margin: contributions grow
    ok_gate = feasibility_gates(3, 1, delta=0.2, q=1)
    assert ok_gate.freq_lq_ok and ok_gate.freq_lq_margin > 0.3
    _, blocks = psi_block_freq_contributions(PsiParams(3.0, 1.0, 2, 6), 1.0, 0.2)
    vals = [c for _, c in blocks]
    for j in range(2, len(vals)):
        assert vals[j] < vals[j - 1] / 1.5

    bad_gate = feasibility_gates(1, 2, delta=0.2, q=1)
    assert not bad_gate.freq_lq_ok and bad_gate.freq_lq_margin < -0.3
    _, blocks = psi_block_freq_contributions(PsiParams(1.0, 2.0, 2, 6), 1.0, 0.2)
    vals = [c for _, c in blocks]
    for j in range(2, len(vals)):
        assert vals[j] > vals[j - 1]


# ---------------------------------------------------------------------- suite

def test_truncation_depth_rule():
    assert truncation_depth_for_span(1.0, 64.0) == 6
    assert truncation_depth_for_span(1.0, 32.0) == 5
    assert truncation_depth_for_span(3.0, 64.0) == 3


@pytest.mark.parametrize("alpha, span, name", [
    (1.0, 0.0, "span"), (1.0, -1.0, "span"), (1.0, math.inf, "span"), (1.0, math.nan, "span"),
    (0.0, 64.0, "alpha"), (-1.0, 64.0, "alpha"), (math.inf, 64.0, "alpha"),
    (math.nan, 64.0, "alpha"),
])
def test_truncation_depth_refuses_a_span_or_alpha_out_of_range(alpha, span, name):
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got "):
        truncation_depth_for_span(alpha, span)


def test_suite_sinc():
    report = run_witness_suite(GeneratorSpec(kind="sinc"), windows=(4, 8, 16, 32, 64))
    assert report["invariance"]["invariance_group"] == "R-candidate"
    assert report["decay"]["integrability"]["verdict"] == "diverging"
    assert report["periodization"]["orthonormality_defect"] == 0.0


def test_suite_bspline():
    report = run_witness_suite(GeneratorSpec(kind="bspline", degree=3))
    assert report["invariance"]["invariance_group"] == "Z"
    assert report["decay"]["integrability"]["verdict"] == "converging"
    assert abs(report["pointwise"]["envelope_exponent"] + 4.0) < 0.2


def test_suite_psi_small():
    # default windows reach 64 so the slowly decaying tails resolve; the
    # probes deepen the truncation to match and share one sampled lattice
    spec = GeneratorSpec(kind="psi", psi=PsiParams(1.0, 2.0, 2, 2))
    report = run_witness_suite(spec, eps=0.5)
    assert report["invariance"]["invariance_group"] == "(1/2)Z"
    assert report["periodization"]["orthonormality_defect"] < 1e-12
    assert report["decay"]["second_moment_heavy"]["verdict"] == "diverging"
    assert report["decay"]["second_moment_light"]["verdict"] == "converging"
    assert report["decay"]["integrability"]["verdict"] == "converging"
    assert report["decay"]["probe_truncation"] == 6
    assert report["gates"]["freq_lq_ok"] is False


def test_suite_takes_every_parameter():
    spec = GeneratorSpec(kind="psi", psi=PsiParams(1.0, 2.0, 2, 2))
    report = run_witness_suite(spec, s=1.0, delta=0.5, windows=[2, 4, 8, 16])
    assert report["pointwise"]["s"] == 1.0
    # alpha - beta (1 + delta - q/2) at alpha = 1, beta = 2, q = 1
    assert report["gates"]["freq_lq_margin"] == -1.0
    assert report["decay"]["windows"] == [2.0, 4.0, 8.0, 16.0]


@pytest.mark.parametrize("parameters, message", [
    ({"eps": float("nan")}, "bad parameter eps = nan: must be > 0"),
    ({"n_max": 1}, "bad parameter n_max = 1: must be >= 2"),
    ({"windows": [2, 4, 8]}, "bad parameter windows = [2, 4, 8]: need at least 4 windows"),
])
def test_suite_checks_its_parameters(parameters, message):
    # the library entry reads its parameters by the same table as the CLI
    with pytest.raises(ConfigError) as info:
        run_witness_suite(GeneratorSpec(kind="sinc"), **parameters)
    assert str(info.value).startswith(message)

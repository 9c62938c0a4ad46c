import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sispace.bumps import g0, g1, h_support
from sispace.generators import (GeneratorSpec, PsiParams, PsiTimeEvaluator,
                                _inverse_transform_table, auto_grid,
                                build_bspline, build_psi_spectrum,
                                dirichlet_ratio, evaluate_psi_time,
                                window_tables)
from sispace.grid import (GridError, l2_norm, make_grid, to_freq_domain,
                          to_time_domain)


# ---------------------------------------------------------------- parameters

def test_block_sequences_beta2():
    p = PsiParams(1.0, 2.0, 2, 3)
    assert p.block_counts == (1, 4, 16, 64)
    assert p.block_offsets == (0, 1, 5, 21, 85)


def test_block_sequences_beta2_deeper():
    p = PsiParams(1.0, 2.0, 2, 2)
    # beta_j = ceil(2**(2j)), gamma as cumulative sums
    assert p.block_counts[:3] == (1, 4, 16)
    assert p.block_offsets[1] == 1 and p.block_offsets[2] == 5 and p.block_offsets[3] == 21


def test_block_counts_ceiling_robust_to_float_noise():
    # 5 * 0.4 = 2.0000000000000004 in float; the ceiling must still give 4
    p = PsiParams(1.0, 0.4, 2, 5)
    assert p.block_counts[5] == 4


def test_block_counts_monotone():
    # ceil(2**(j*beta)) repeats values for beta < 1 (e.g. 2, 2, 3, ...) and
    # is strictly increasing from j = 1 once beta >= 1
    for beta in (0.5, 1.0, 2.0):
        p = PsiParams(1.0, beta, 2, 6)
        c = p.block_counts
        assert all(c[j + 1] >= c[j] for j in range(6))
        if beta >= 1.0:
            assert all(c[j + 1] > c[j] for j in range(1, 6))
        g = p.block_offsets
        assert all(g[j + 1] > g[j] for j in range(len(g) - 1))


def test_params_validation():
    with pytest.raises(ValueError):
        PsiParams(0.0, 2.0, 2, 3)
    with pytest.raises(ValueError):
        PsiParams(1.0, -1.0, 2, 3)
    with pytest.raises(ValueError):
        PsiParams(1.0, 2.0, 1, 3)
    with pytest.raises(ValueError):
        PsiParams(1.0, 2.0, 2, 0)


def test_spec_json_round_trip():
    for obj in ({"variant": "sinc"},
                {"variant": "bspline", "degree": 3},
                {"variant": "psi", "alpha": 1.0, "beta": 2.0, "n": 2, "J": 5},
                {"variant": "custom", "path": "spec.csv"}):
        spec = GeneratorSpec.from_json(obj)
        assert GeneratorSpec.from_json(json.dumps(obj)) == spec
        assert spec.to_json() == obj


def test_spec_rejects_bad_degree():
    with pytest.raises(ValueError):
        GeneratorSpec.from_json({"variant": "bspline", "degree": 30})
    with pytest.raises(ValueError):
        GeneratorSpec.from_json({"variant": "warblet"})


# ---------------------------------------------------------------------- sinc

def test_sinc_values(sinc_spectrum):
    assert sinc_spectrum.value_at(0.0) == 1.0
    assert sinc_spectrum.value_at(0.75) == 0.0
    assert sinc_spectrum.value_at(0.5) == 0.5
    assert sinc_spectrum.value_at(-0.5) == 0.5
    assert sinc_spectrum.meta["exclusion_halfwidth"] == 0.0


def test_sinc_endpoints_are_the_only_half_values(sinc_spectrum):
    assert np.count_nonzero(sinc_spectrum.values == 0.5) == 2


# ------------------------------------------------------------------- bspline

def test_bspline_degree0_interior(bspline_grid):
    sig, _ = build_bspline(0, bspline_grid)
    assert sig.value_at(0.5) == 1.0


def test_bspline_degree1_peak(bspline_grid):
    sig, _ = build_bspline(1, bspline_grid)
    # hat peak at x=1; discrete convolution of jump-sampled indicators is
    # first-order accurate at the kink
    assert abs(sig.value_at(1.0) - 1.0) < 1.0 / (2 * bspline_grid.half_range)


def test_bspline_degree1_spectrum_modulus(bspline1):
    _, spec = bspline1
    assert_allclose(abs(spec.value_at(0.5)), 4 / np.pi ** 2, rtol=1e-12)


def test_bspline_degree_cap(bspline_grid):
    with pytest.raises(ValueError):
        build_bspline(26, bspline_grid)
    with pytest.raises(ValueError):
        build_bspline(-1, bspline_grid)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_bspline_route_consistency(bspline_grid, degree):
    # convolution route, transformed, matches the closed-form spectrum
    sig, spec = build_bspline(degree, bspline_grid)
    transformed = to_freq_domain(sig)
    err = np.abs(transformed.values - spec.values)
    assert err.max() < 1e-6


def test_bspline_degree0_route_consistency_inner_window(bspline_grid):
    # the jump indicator aliases at first order: agreement holds on the
    # inner window; the error grows ~ pi*xi/(12*Xi^2) further out
    sig, spec = build_bspline(0, bspline_grid)
    transformed = to_freq_domain(sig)
    xi = bspline_grid.xi
    window = np.abs(xi) <= 4.0
    err = np.abs(transformed.values[window] - spec.values[window])
    assert err.max() < 1e-6


def test_bspline_time_support(bspline_grid):
    sig, _ = build_bspline(3, bspline_grid)
    xs = bspline_grid.x
    outside = (xs < -1e-9) | (xs > 4.0 + 1e-9)
    assert np.all(sig.values[outside] == 0.0)


# ----------------------------------------------------------------- psi build

def test_psi_spectrum_center_value(psi_small):
    _, _, spec = psi_small
    assert spec.value_at(0.0) == 1.0


def test_psi_spectrum_even_bitwise(psi_small):
    _, grid, spec = psi_small
    n = grid.n_points
    assert np.array_equal(spec.values[1:n // 2], spec.values[n // 2 + 1:][::-1])


def test_psi_block_supports_disjoint(psi_small):
    params, _, _ = psi_small
    intervals = [h_support(0, params.alpha)]
    counts, offsets = params.block_counts, params.block_offsets
    for j in range(1, params.J + 1):
        lo, hi = h_support(j, params.alpha)
        for l in range(counts[j]):
            c = params.n * (offsets[j] + l)
            intervals.append((c + lo, c + hi))
    intervals.sort()
    for (_, a_hi), (b_lo, _) in zip(intervals, intervals[1:]):
        assert b_lo >= a_hi - 1e-12


def test_psi_grid_too_small_names_requirement():
    params = PsiParams(1.0, 2.0, 2, 4)
    with pytest.raises(GridError, match=str(params.required_half_range)):
        build_psi_spectrum(params, make_grid(64, 32))


def test_psi_support_inside_band_structure(psi_small):
    params, grid, spec = psi_small
    # every nonzero sample sits within distance 1/2 of an integer multiple of n
    idx = np.nonzero(spec.values)[0]
    xi = grid.xi[idx]
    frac = np.abs(xi - params.n * np.round(xi / params.n))
    assert frac.max() < 0.5


def test_psi_auto_grid_sizing(psi_small):
    params, grid, _ = psi_small
    assert grid.half_range >= params.required_half_range
    _, info = auto_grid(GeneratorSpec(kind="psi", psi=params))
    assert info["narrowest_block_samples"] >= 32


def test_psi_parseval_two_routes(psi_small):
    _, _, spec = psi_small
    sig = to_time_domain(spec)
    a, b = l2_norm(spec), l2_norm(sig)
    assert abs(a - b) / a < 1e-6


# ----------------------------------------------------------- dirichlet ratio

def test_dirichlet_at_integers_gives_count():
    assert dirichlet_ratio(0.0, 7) == 7.0
    # the ratio is signed; its magnitude takes the limit value, and the
    # full phase-sum factor exp(i pi u (M-1)) * ratio equals M exactly
    u = np.array([1.0, 2.0, -3.0])
    for count in (4, 7):
        ratio = dirichlet_ratio(u, count)
        assert_allclose(np.abs(ratio), count, rtol=0, atol=1e-9)
        full = np.exp(1j * np.pi * u * (count - 1)) * ratio
        assert_allclose(full, count, rtol=0, atol=1e-9)


@pytest.mark.parametrize("count", [2, 5, 16, 4096])
def test_dirichlet_matches_direct_geometric_sum(count, rng):
    u = rng.uniform(-20, 20, 300)
    u = u[np.abs(u - np.round(u)) > 1e-3]
    # near-integer residues, where the ratio of the two sines is smallest
    near = np.logspace(-9, -6, 16) * rng.choice([-1.0, 1.0], 16)
    u = np.concatenate((u, rng.integers(-20, 21, 16) + near))
    # phase u*k in turns with its integer part round(u)*k dropped exactly
    phase = np.mod(np.outer(u - np.round(u), np.arange(count)), 1.0)
    direct = np.abs(np.exp(2j * np.pi * phase).sum(axis=1))
    assert np.max(np.abs(np.abs(dirichlet_ratio(u, count)) - direct)) < 1e-9


def test_dirichlet_near_singularity_continuous():
    eps = np.array([1e-12, 1e-9, 1e-8, 1e-7, 1e-6])
    vals = dirichlet_ratio(3.0 + eps, 9)
    assert_allclose(vals, 9.0, rtol=1e-6)


# ----------------------------------------------------------- analytic route

def test_window_tables_tail_reported():
    t = window_tables(1.0)
    assert t.tail_bound < 1e-6
    assert t.g0_inv(np.array([100.0]))[0] == 0.0


def test_g0_inverse_at_zero_is_window_mass():
    # value at x=0 equals the window integral
    t = window_tables(1.0)
    from sispace.bumps import g0
    xi = np.linspace(-1, 1, 1 << 15)
    assert_allclose(t.g0_inv(np.array([0.0]))[0], np.trapezoid(g0(xi), xi), rtol=1e-10)


def dense_inverse_transform_table(window_values, xi_nodes, x_nodes):
    """Reference: the trapezoid sum of w(xi) exp(2 pi i xi x) as a dense matrix product."""
    weights = np.full(xi_nodes.size, xi_nodes[1] - xi_nodes[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return np.exp(2j * np.pi * np.outer(x_nodes, xi_nodes)) @ (window_values * weights)


@pytest.mark.parametrize("alpha", [0.5, 0.7, 1.0, 2.0])
def test_chirp_z_table_matches_dense_quadrature(alpha):
    # alpha = 0.7 gives a g1 node spacing that is not dyadic
    x = np.linspace(-64.0, 64.0, 257)
    xi0 = np.linspace(-1.0, 1.0, 513)
    xi1 = np.linspace(-1.0, 2.0 ** (-alpha), 513)
    for values, xi in ((g0(xi0), xi0), (g1(xi1, alpha), xi1)):
        got = _inverse_transform_table(values, xi, x)
        ref = dense_inverse_transform_table(values, xi, x)
        assert np.max(np.abs(got - ref)) < 1e-12


def test_route_cross_check_small(psi_small, rng):
    params, grid, spec = psi_small
    sig = to_time_domain(spec)
    m = rng.integers(-8 * 2 * grid.half_range, 8 * 2 * grid.half_range, 100)
    xs = m / (2 * grid.half_range)
    ana = evaluate_psi_time(xs, params)
    ref = sig.values[m + grid.n_points // 2]
    assert np.max(np.abs(ana - ref)) < 1e-6
    assert np.max(np.abs(ana.imag)) < 1e-10


def test_evaluate_real_and_even(psi_small, rng):
    params, _, _ = psi_small
    xs = rng.uniform(-30.0, 30.0, 500)
    vals = evaluate_psi_time(xs, params)
    assert vals.dtype == np.float64
    assert np.max(np.abs(evaluate_psi_time(-xs, params) - vals)) < 1e-13


def test_evaluate_scalar_input(psi_small):
    params, _, _ = psi_small
    v = evaluate_psi_time(0.25, params)
    assert np.ndim(v) == 0


def test_evaluator_metadata(psi_small):
    params, _, _ = psi_small
    ev = PsiTimeEvaluator(params)
    assert ev.max_frequency == params.n * (params.block_offsets[params.J + 1] - 1) + 0.5
    assert ev.valid_span >= 128.0

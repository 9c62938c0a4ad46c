"""Property tests of the analytic time route over small banded generators.

* The grid route (inverse FFT of the sampled spectrum) and the analytic
  route agree within 1e-6 at grid points inside both routes' reach.  The
  grid samples each unit of frequency twice as densely as ``auto_grid``
  does: at the auto grid's 32 samples across the narrowest block the grid
  route itself is off by up to ~5e-5 once alpha >= 1.5 (its time span
  aliases the slowly decaying tail), while at twice that the two routes
  meet at ~2e-7, the analytic route's own accuracy.
* On a :class:`DyadicLattice` the evaluator takes every factor from tables;
  the window and Dirichlet factors must equal those of the same points
  given as an array bitwise, and the whole value within 1e-13 of max|f| =
  f(0) (the spectrum is nonnegative), with the Dirichlet tables in use and
  with them switched off by a zero size cap.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sispace import generators
from sispace.generators import (TABLE_X_MAX, TABLE_X_SAMPLES, DyadicLattice,
                                GeneratorSpec, PsiParams, PsiTimeEvaluator,
                                auto_grid, build_psi_spectrum,
                                evaluate_psi_time, window_tables)
from sispace.grid import make_grid, to_time_domain

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

small_params = st.builds(PsiParams,
                         alpha=st.floats(0.5, 2.0), beta=st.floats(0.5, 2.5),
                         n=st.sampled_from([2, 3]), J=st.integers(1, 2))


@PROPERTY
@given(params=small_params, seed=st.integers(0, 2 ** 32 - 1))
def test_time_routes_agree(params, seed):
    auto, _ = auto_grid(GeneratorSpec(kind="psi", psi=params))
    grid = make_grid(2 * auto.samples_per_unit, auto.half_range)
    signal = to_time_domain(build_psi_spectrum(params, grid))
    span = min(PsiTimeEvaluator(params).valid_span, grid.time_half_span)
    reach = int(span * 2 * grid.half_range)
    m = np.random.default_rng(seed).integers(-reach, reach, 64)
    analytic = evaluate_psi_time(m * grid.time_spacing, params)
    assert np.max(np.abs(analytic - signal.values[m + grid.n_points // 2])) < 1e-6


@st.composite
def lattices(draw):
    exponent = draw(st.integers(8, 14))
    start = draw(st.integers(-8 << exponent, 40 << exponent))
    return DyadicLattice(start, start + draw(st.integers(1, 5000)), exponent)


@pytest.mark.parametrize("table_cap", [0, generators.DIRICHLET_TABLE_BYTES])
@PROPERTY
@given(params=small_params, lattice=lattices())
def test_lattice_route_matches_point_route(table_cap, params, lattice):
    with mock.patch.object(generators, "DIRICHLET_TABLE_BYTES", table_cap):
        windows = window_tables(params.alpha)
        x = np.asarray(lattice)
        on_lattice = generators._LatticeFactors(lattice, params, windows)
        at_points = generators._PointFactors(x, params, windows)
        assert (on_lattice.dirichlet_tables is None) == (table_cap == 0)
        a = params.alpha
        scales = [(1.0 - 2.0 ** -a) / 2.0] + [(2.0 ** a - 1.0) / 2.0 ** (j * a + 1)
                                              for j in range(1, params.J + 1)]
        for scale in scales:
            assert np.array_equal(on_lattice.central(scale), at_points.central(scale))
            for got, want in zip(on_lattice.envelope(scale), at_points.envelope(scale)):
                assert np.array_equal(got, want)
        for j, count in enumerate(params.block_counts[1:], 1):
            assert np.array_equal(on_lattice.dirichlet(j, count), at_points.dirichlet(j, count))
        values = evaluate_psi_time(lattice, params)
        reference = evaluate_psi_time(x, params)
    assert values.shape == (lattice.size,)
    assert np.max(np.abs(values - reference)) <= 1e-13 * evaluate_psi_time(0.0, params)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_interval_runs_match_the_spline_on_every_knot_and_beyond(alpha):
    # each knot, the points just either side of it, every interval's midpoint,
    # and points beyond both table ends, where the values are 0
    knots = np.linspace(-TABLE_X_MAX, TABLE_X_MAX, TABLE_X_SAMPLES)
    x = np.sort(np.concatenate([
        knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
        (knots[1:] + knots[:-1]) / 2, [-80.0, -64.5, 64.5, 80.0]]))
    windows = window_tables(alpha)
    assert np.array_equal(windows.g0_inv_ascending(x), windows.g0_inv(x))
    reference = windows.g1_inv(x)
    re, im = windows.g1_inv_ascending(x)
    assert np.array_equal(re, reference.real) and np.array_equal(im, reference.imag)
    assert windows.g0_inv_ascending(x[-2:]).tolist() == [0.0, 0.0]


def test_dyadic_lattice_as_array():
    lattice = DyadicLattice(-3, 5, 2)
    assert lattice.size == np.size(lattice) == 8
    assert np.array_equal(np.asarray(lattice), np.arange(-3, 5) / 4.0)
    assert np.array(lattice, dtype=np.float32).dtype == np.float32
    with pytest.raises(ValueError):
        np.asarray(lattice, copy=False)
    with pytest.raises(ValueError):
        DyadicLattice(5, 4, 2)

"""Property tests of the analytic time route over small banded generators.

* The grid route (inverse FFT of the sampled spectrum) and the analytic
  route agree within 1e-6 at grid points inside both routes' reach.  The
  grid samples each unit of frequency twice as densely as ``auto_grid``
  does: at the auto grid's 32 samples across the narrowest block the grid
  route itself is off by up to ~5e-5 once alpha >= 1.5 (its time span
  aliases the slowly decaying tail), while at twice that the two routes
  meet at ~2e-7, the analytic route's own accuracy.
* On a dyadic lattice the probe pass's evaluator takes every factor from
  tables; the window and Dirichlet factors must equal those of the same
  points given as an array bitwise, and the whole value within 1e-13 of
  max|f| = f(0) (the spectrum is nonnegative), with the Dirichlet tables in
  use and with them switched off by a zero size cap.
* Points given as an array are sorted once: any order, shape or repetition
  of them gets bitwise the values of the ascending points.  Past the deepest
  envelope's table reach the value is +0.0 without a sum, however large x.
* A lattice cut into consecutive pieces evaluates bitwise as the whole, so
  the probe pass may size its pieces freely; and the Dirichlet tables, built
  for all depths in one pass, are bitwise the per-count ratio.
* The window splines' in-repo tridiagonal sweep gives bitwise the
  coefficients of scipy's ``CubicSpline`` (the oracle, imported by the tests
  only) on uniform knots, for random real values; on any system that needs
  no row swap it is bitwise LAPACK ``dgtsv``, signed zeros included.  Each
  window table is real (``g1``'s as its real and imaginary parts), so the
  oracle solves with ``dgtsv`` too.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sispace import generators
from sispace.generators import (TABLE_X_MAX, TABLE_X_SAMPLES, GeneratorSpec,
                                PsiParams, auto_grid, build_psi_spectrum,
                                dirichlet_ratio, evaluate_psi_time, window_tables)
from sispace.grid import FrequencyGrid, to_time_domain

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

small_params = st.builds(PsiParams,
                         alpha=st.floats(0.5, 2.0), beta=st.floats(0.5, 2.5),
                         n=st.sampled_from([2, 3]), J=st.integers(1, 2))


@PROPERTY
@given(params=small_params, seed=st.integers(0, 2 ** 32 - 1))
def test_time_routes_agree(params, seed):
    auto, _ = auto_grid(GeneratorSpec(kind="psi", psi=params))
    grid = FrequencyGrid(2 * auto.samples_per_unit, auto.half_range)
    signal = to_time_domain(build_psi_spectrum(params, grid))
    span = min(params.valid_span, grid.time_half_span)
    reach = int(span * 2 * grid.half_range)
    m = np.random.default_rng(seed).integers(-reach, reach, 64)
    analytic = evaluate_psi_time(m * grid.time_spacing, params)
    assert np.max(np.abs(analytic - signal.values[m + grid.n_points // 2])) < 1e-6


@st.composite
def lattices(draw):
    """``(exponent, start, stop)``: the points ``k * 2**-exponent``, ``k = start .. stop-1``."""
    exponent = draw(st.integers(8, 14))
    start = draw(st.integers(-8 << exponent, 40 << exponent))
    return exponent, start, start + draw(st.integers(1, 5000))


@pytest.mark.parametrize("table_cap", [0, generators.DIRICHLET_TABLE_BYTES])
@PROPERTY
@given(params=small_params, lattice=lattices())
def test_lattice_route_matches_point_route(table_cap, params, lattice):
    exponent, start, stop = lattice
    with mock.patch.object(generators, "DIRICHLET_TABLE_BYTES", table_cap):
        evaluate = generators._LatticeEvaluator(params, exponent)
    x = np.arange(start, stop) * 2.0 ** -exponent
    on_lattice = generators._LatticeFactors(start, stop, evaluate)
    at_points = generators._PointFactors(x, params, window_tables(params.alpha))
    assert (evaluate.dirichlet is None) == (table_cap == 0)
    a = params.alpha
    scales = [(1.0 - 2.0 ** -a) / 2.0] + [(2.0 ** a - 1.0) / 2.0 ** (j * a + 1)
                                          for j in range(1, params.J + 1)]
    for scale in scales:
        assert np.array_equal(on_lattice.central(scale), at_points.central(scale))
        for got, want in zip(on_lattice.envelope(scale), at_points.envelope(scale)):
            assert np.array_equal(got, want)
    counts = params.block_counts[1:]
    for got, want in zip(on_lattice.dirichlets(counts), at_points.dirichlets(counts),
                         strict=True):
        assert _bits(got).tobytes() == _bits(want).tobytes()
    values = evaluate(start, stop)
    reference = evaluate_psi_time(x, params)
    assert values.shape == (stop - start,)
    assert np.max(np.abs(values - reference)) <= 1e-13 * evaluate_psi_time(0.0, params)


@st.composite
def split_lattices(draw):
    """A lattice and up to four cuts strictly inside it, each anywhere or at
    or next to a carrier-table row boundary (a multiple of
    ``2**CARRIER_SPLIT_BITS``)."""
    exponent, start, stop = draw(lattices().filter(lambda lattice: lattice[2] - lattice[1] >= 2))
    row = 1 << generators.CARRIER_SPLIT_BITS
    picks = draw(st.lists(st.tuples(st.integers(start + 1, stop - 1),
                                    st.sampled_from([None, -1, 0, 1])), max_size=4))
    cuts = {k if near is None else k - k % row + near for k, near in picks}
    return (exponent, start, stop), sorted(k for k in cuts if start < k < stop)


@pytest.mark.parametrize("table_cap", [0, generators.DIRICHLET_TABLE_BYTES])
@PROPERTY
@given(params=small_params, split=split_lattices())
def test_lattice_pieces_evaluate_as_the_whole(table_cap, params, split):
    (exponent, start, stop), cuts = split
    bounds = [start, *cuts, stop]
    with mock.patch.object(generators, "DIRICHLET_TABLE_BYTES", table_cap):
        evaluate = generators._LatticeEvaluator(params, exponent)
    whole = evaluate(start, stop)
    pieces = [evaluate(a, b) for a, b in zip(bounds, bounds[1:])]
    assert _bits(np.concatenate(pieces)).tobytes() == _bits(whole).tobytes()


def _dirichlet_per_count(u, count):
    """The ratio computed for one count on its own: the sign from the parity
    of ``m*(count - 1)``, applied by a multiplication."""
    m = np.round(u)
    r = u - m
    sign = np.where((m.astype(np.int64) * (count - 1)) % 2 == 0, 1.0, -1.0)
    den = np.sin(np.pi * r)
    ratio = np.divide(np.sin(count * np.pi * r), den,
                      out=np.full(r.shape, float(count)), where=den != 0)
    return sign * ratio


@pytest.mark.parametrize("exponent", [8, 11, 15])
def test_shared_dirichlet_tables_are_the_per_count_ratio(exponent):
    params = PsiParams(1.0, 1.5, 2, 4)
    counts = params.block_counts[1:]
    assert {count % 2 for count in counts} == {0, 1}
    evaluate = generators._LatticeEvaluator(params, exponent)
    tables, carrier = evaluate.dirichlet, evaluate.carrier_lo
    assert len(tables) == len(carrier) == params.J
    # each table covers half a period, q <= 2**exponent: the ratio is even about u = 1
    period = 2 << exponent
    q = np.arange(period)
    u = q * 2.0 ** -exponent
    for table, count in zip(tables, counts, strict=True):
        assert table.size == (1 << exponent) + 1
        gathered = table[np.minimum(q, period - q)]
        assert _bits(gathered).tobytes() == _bits(dirichlet_ratio(u, count)).tobytes()
        assert _bits(gathered).tobytes() == _bits(_dirichlet_per_count(u, count)).tobytes()


def _knot_probes():
    """Each knot, the points just either side of it, every interval's midpoint,
    and points beyond both table ends, where the values are 0; ascending."""
    knots = np.linspace(-TABLE_X_MAX, TABLE_X_MAX, TABLE_X_SAMPLES)
    return np.sort(np.concatenate([
        knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
        (knots[1:] + knots[:-1]) / 2, [-80.0, -64.5, 64.5, 80.0]]))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0, 1.5, 1.77, 2.0])
def test_window_splines_are_scipy_not_a_knot_splines(alpha):
    # the oracle: scipy's CubicSpline (not-a-knot by default) on the same
    # real tables; scipy.interpolate is imported here only, never by the package
    from scipy.interpolate import CubicSpline

    tables = []
    fit = generators._not_a_knot

    def recording_fit(x, y):
        tables.append((x, y))
        return fit(x, y)

    with mock.patch.object(generators, "_not_a_knot", recording_fit):
        windows = generators.WindowTables(alpha)
    # g0's table, then g1's real and imaginary parts
    assert len(tables) == 3 and not any(np.iscomplexobj(y) for _, y in tables)
    g0_spline, g1_re_spline, g1_im_spline = (CubicSpline(x, y) for x, y in tables)
    coeffs = [windows._g0_coeffs, *windows._g1_coeffs]
    assert all(c.dtype == np.float64 for c in coeffs)
    for c, spline in zip(coeffs, (g0_spline, g1_re_spline, g1_im_spline)):
        assert np.array_equal(_bits(c), _bits(spline.c))
    # the interval is found by arithmetic: signed zeros, subnormals and non-finite points too
    x = np.concatenate([_knot_probes(), [-0.0, -5e-324, 5e-324, np.nan, -np.inf, np.inf]])
    inside = np.abs(x) <= TABLE_X_MAX
    g1 = windows.g1_inv(x)
    assert np.array_equal(_bits(windows.g0_inv(x)), _bits(np.where(inside, g0_spline(x), 0.0)))
    assert np.array_equal(_bits(g1.real), _bits(np.where(inside, g1_re_spline(x), 0.0)))
    assert np.array_equal(_bits(g1.imag), _bits(np.where(inside, g1_im_spline(x), 0.0)))


@settings(derandomize=True, database=None, deadline=None)
@given(data=st.data(), n=st.integers(4, 64) | st.just(TABLE_X_SAMPLES))
def test_not_a_knot_sweep_is_scipy_cubic_spline(data, n):
    from scipy.interpolate import CubicSpline

    x = np.arange(n) / 32 - 64   # the window tables' knots, or their first n
    y = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
    c, expected = generators._not_a_knot(x, y), CubicSpline(x, y).c
    assert c.dtype == expected.dtype == np.float64
    assert np.array_equal(_bits(c), _bits(expected))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(data=st.data(), n=st.integers(3, 8))
def test_tridiagonal_sweep_is_lapack_gtsv(data, n):
    # |d| >= 4 against |dl| <= 1 keeps every pivot ahead of the entry below
    # it, so gtsv swaps no rows; the small value sets make signed zeros common
    from scipy.linalg import solve_banded

    def draw(values, size):
        return np.array(data.draw(st.lists(st.sampled_from(values), min_size=size,
                                           max_size=size)))

    d = draw([4.0, 5.0, -4.0], n)
    dl, du = draw([1.0, -1.0, 0.0, -0.0], n - 1), draw([1.0, -1.0, 0.0, -0.0], n - 1)
    b = draw([-0.0, 0.0, -1.0, 1.0, 2.0, -3.0], n)
    banded = np.array([np.r_[0.0, du], d, np.r_[dl, 0.0]])
    expected = solve_banded((1, 1), banded, b, check_finite=False)
    assert np.array_equal(_bits(generators._tridiagonal_solve(dl, d, du, b)), _bits(expected))


def test_not_a_knot_sweep_refuses_a_row_swap():
    # after the first step the pivot is dx[0] + dx[1] = 2 and the sub-diagonal
    # entry below it dx[2] = 10: gtsv would swap rows 1 and 2
    x = np.array([0.0, 1.0, 2.0, 12.0, 13.0])
    with pytest.raises(ValueError, match="row swap"):
        generators._not_a_knot(x, np.arange(5.0))


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_interval_runs_match_the_spline_on_every_knot_and_beyond(alpha):
    # on ascending points g0_inv/g1_inv give bitwise the interval runs' values,
    # and past the last knot both windows are zero
    x = _knot_probes()
    windows = window_tables(alpha)
    g0 = windows._interval_runs(x, windows._g0_coeffs)[0]
    re, im = windows._interval_runs(x, *windows._g1_coeffs)
    assert g0[-2:].tolist() == re[-2:].tolist() == im[-2:].tolist() == [0.0, 0.0]
    g1 = windows.g1_inv(x)
    assert np.array_equal(_bits(windows.g0_inv(x)), _bits(g0))
    assert np.array_equal(_bits(g1.real), _bits(re))
    assert np.array_equal(_bits(g1.imag), _bits(im))


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_window_splines_at_any_order_and_shape_match_the_ascending_evaluation(alpha):
    # g0_inv/g1_inv sort their points for the interval runs and put each
    # value back: shuffled, reshaped or repeated points get bitwise the values
    # the ascending points get
    x = _knot_probes()
    windows = window_tables(alpha)
    g0 = windows._interval_runs(x, windows._g0_coeffs)[0]
    re, im = windows._interval_runs(x, *windows._g1_coeffs)
    shuffle = np.random.default_rng(3).permutation(x.size)
    repeats = np.repeat(shuffle, 3)
    for index in (shuffle, shuffle[1:].reshape(-1, 2), repeats):
        g1 = windows.g1_inv(x[index])
        assert g1.shape == index.shape
        assert np.array_equal(_bits(windows.g0_inv(x[index])), _bits(g0[index]))
        assert np.array_equal(_bits(g1.real), _bits(re[index]))
        assert np.array_equal(_bits(g1.imag), _bits(im[index]))


@pytest.mark.parametrize("params", [PsiParams(1.0, 2.0, 2, 3), PsiParams(0.75, 1.5, 3, 2)])
def test_point_route_at_any_order_and_shape_matches_the_ascending_evaluation(params):
    # evaluate_psi_time sorts its points once for the sum and puts each value
    # back: shuffled, reshaped or repeated points, signed zeros and non-finite
    # points get bitwise the values the ascending points (NaN last) get; every
    # window is 0 at +-inf, and so is the value, with no floating-point warning
    rng = np.random.default_rng(4)
    x = np.sort(np.concatenate([rng.uniform(-80.0, 80.0, 994),
                                [-0.0, 0.0, -np.inf, np.inf, np.nan, 0.25]]))
    shuffle = rng.permutation(x.size)
    ascending = evaluate_psi_time(x, params)
    assert ascending[0] == ascending[-2] == 0.0 and np.isnan(ascending[-1])
    assert _bits(ascending[1:-2]).tobytes() == _bits(evaluate_psi_time(x[1:-2], params)).tobytes()
    for index in (shuffle, shuffle.reshape(25, 40), np.repeat(shuffle, 3)):
        values = evaluate_psi_time(x[index], params)
        assert values.dtype == np.float64 and values.shape == index.shape
        assert _bits(values).tobytes() == _bits(ascending[index]).tobytes()
    at = int(np.flatnonzero(x == 0.25)[0])
    for scalar in (0.25, np.array(0.25)):
        value = evaluate_psi_time(scalar, params)
        assert type(value) is np.float64
        assert _bits(value).tobytes() == _bits(ascending[at]).tobytes()
    for empty in (np.array([]), np.zeros((2, 0))):
        values = evaluate_psi_time(empty, params)
        assert values.dtype == np.float64 and values.shape == empty.shape


@pytest.mark.parametrize("params", [PsiParams(1.0, 2.0, 2, 3), PsiParams(2.0, 1.0, 2, 4),
                                    PsiParams(0.75, 2.0, 3, 5)])
def test_point_route_past_the_deepest_envelope_is_zero_with_no_floating_point_error(params):
    # where |min(time_scales) * x| > TABLE_X_MAX every window is 0: the value is
    # +0.0 with no residue cast past int64 and no carrier phase overflow, and
    # the points in reach keep bitwise the values they get alone
    edge = TABLE_X_MAX / min(params.time_scales)
    inside = np.concatenate([np.random.default_rng(6).uniform(-edge, edge, 500),
                             [-edge, edge, np.nextafter(edge, np.inf)]])
    huge = np.array([5e18, -1e19, 1e300, 1e306])
    window_tables(params.alpha)   # the tables, built outside the errstate
    with np.errstate(all="raise"):
        values = evaluate_psi_time(np.concatenate([huge, inside]), params)
        alone = evaluate_psi_time(inside, params)
    assert _bits(values[:huge.size]).tobytes() == _bits(np.zeros(huge.size)).tobytes()
    assert _bits(values[huge.size:]).tobytes() == _bits(alone).tobytes()


def test_point_route_reach_is_the_scaled_point_not_x_alone():
    # the first float past 64 / c_J still scales to exactly 64, inside the table
    params = PsiParams(2.0, 1.0, 2, 4)
    x = np.nextafter(TABLE_X_MAX / min(params.time_scales), np.inf)
    assert min(params.time_scales) * x == TABLE_X_MAX
    assert evaluate_psi_time(x, params) != 0.0


@pytest.mark.parametrize("n", [10**12, 10**305])
def test_point_route_refuses_a_carrier_phase_of_2_to_the_52_turns(n):
    # x = 100 is in reach (c_3 * 100 = 6.25), where the carrier phase passes 2^52
    # turns and its reduction mod 1 keeps no fraction of a turn; the check runs
    # in Python floats, so 8.4e306 * 100 overflows to inf with no warning
    params = PsiParams(1.0, 2.0, n, 3)
    assert min(params.time_scales) * 100.0 <= TABLE_X_MAX
    with np.errstate(all="raise"), pytest.raises(ValueError, match=r"reaches 2\^52 turns"):
        evaluate_psi_time(np.array([0.5, 100.0]), params)


def test_carrier_guard_passes_every_point_in_reach_to_the_sum():
    # psi(1, 2, 2, 6) reaches |x| = 8192, a carrier phase of 1.1e8 turns: every
    # point in reach is summed, bitwise as the unguarded sum gives it
    params = PsiParams(1.0, 2.0, 2, 6)
    edge = TABLE_X_MAX / min(params.time_scales)
    x = np.sort(np.concatenate([np.random.default_rng(7).uniform(-edge, edge, 2000),
                                [-edge, 0.0, edge]]))
    unguarded = generators._psi_sum(
        generators._PointFactors(x, params, window_tables(params.alpha)), params)
    assert _bits(evaluate_psi_time(x, params)).tobytes() == _bits(unguarded).tobytes()


@pytest.mark.parametrize("table_cap", [0, generators.DIRICHLET_TABLE_BYTES])
@pytest.mark.parametrize("start", [0, 5, 1024])   # 0 and 1024 start a carrier row
def test_empty_lattice_evaluates_to_an_empty_array(start, table_cap):
    with mock.patch.object(generators, "DIRICHLET_TABLE_BYTES", table_cap):
        evaluate = generators._LatticeEvaluator(PsiParams(1.0, 2.0, 2, 2), 10)
    values = evaluate(start, start)
    assert values.dtype == np.float64 and values.shape == (0,)


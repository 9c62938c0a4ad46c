from dataclasses import dataclass

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sispace.bumps import (g0, g1, g1_support, h, h_support, partition_defect,
                           smooth_step)

# magnitudes below this count as outside the support; exp(-1/x) underflows
# smoothly through this level
SUPPORT_EPS = 1e-14


@dataclass(frozen=True)
class SmoothStepTable:
    """Precomputed samples of ``g`` on [0, 1].

    Endpoint samples are exactly 0 and 1 by construction of ``smooth_step``.
    """

    resolution: int
    x: np.ndarray
    values: np.ndarray

    @classmethod
    def build(cls, resolution):
        if resolution < 2:
            raise ValueError("resolution must be >= 2")
        x = np.linspace(0.0, 1.0, resolution + 1)
        vals = smooth_step(x)
        x.setflags(write=False)
        vals.setflags(write=False)
        return cls(resolution=resolution, x=x, values=vals)

    def max_partition_error(self):
        """max |g(x)**2 + g(1-x)**2 - 1| over the table points."""
        other = smooth_step(1.0 - self.x)
        return float(np.max(np.abs(self.values ** 2 + other ** 2 - 1.0)))


def test_step_boundary_values():
    assert smooth_step(0.0) == 0.0
    assert smooth_step(1.0) == 1.0
    assert smooth_step(-3.0) == 0.0
    assert smooth_step(7.0) == 1.0


def test_step_midpoint_is_sqrt_half():
    # symmetry forces t(1/2) = 1/2, hence g = sin(pi/4)
    assert_allclose(smooth_step(0.5), np.sqrt(2) / 2, rtol=1e-15)


def test_step_monotone_and_continuous():
    x = np.linspace(-0.2, 1.2, 20001)
    vals = smooth_step(x)
    assert np.all(np.diff(vals) >= 0)
    assert np.max(np.abs(np.diff(vals))) < 1e-2


def test_quadratic_partition_identity():
    x = np.linspace(0.0, 1.0, 10001)
    err = np.abs(smooth_step(x) ** 2 + smooth_step(1.0 - x) ** 2 - 1.0)
    assert err.max() < 1e-12


def test_endpoint_flatness():
    # derivative proxies vanish to machine precision at refined samples
    for x0 in (0.0, 1.0):
        for eps in (1e-3, 1e-4, 1e-5):
            d = (smooth_step(x0 + eps) - smooth_step(x0 - eps)) / (2 * eps)
            assert abs(d - (0.0 if x0 == 0.0 else 0.0)) < 1e-8


def test_second_differences_bounded():
    x = np.linspace(0, 1, 4097)
    v = smooth_step(x)
    d2 = np.diff(v, 2) / (x[1] - x[0]) ** 2
    assert np.max(np.abs(d2)) < 50.0


def test_g0_values_and_support():
    assert g0(0.0) == 1.0
    assert g0(1.0) == 0.0
    assert g0(-1.0) == 0.0
    x = np.linspace(-0.999, 0.999, 997)
    assert np.all(g0(x) > 0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_g1_support(alpha):
    lo, hi = g1_support(alpha)
    assert lo == -1.0
    assert hi == 2.0 ** (-alpha)
    assert g1(lo, alpha) == 0.0
    assert g1(hi, alpha) == 0.0
    assert g1(0.0, alpha) == 1.0
    interior = np.linspace(lo + 1e-6, hi - 1e-6, 101)
    assert np.all(g1(interior, alpha) > 0)


def test_g1_support_alpha_one_is_half():
    assert g1_support(1.0) == (-1.0, 0.5)


def test_h0_peak():
    assert h(0.0, 0, 1.0) == 1.0


def test_h1_support_alpha_one():
    lo, hi = h_support(1, 1.0)
    assert_allclose((lo, hi), (0.0, 3.0 / 8.0), rtol=0, atol=1e-15)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("j", [0, 1, 2, 4])
def test_h_vanishes_outside_half(alpha, j):
    xi = np.concatenate([np.linspace(-4, -0.5, 101), np.linspace(0.5, 4, 101)])
    assert np.all(h(xi, j, alpha) == 0.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("j", [0, 1, 2, 3])
def test_support_tiling_matches_closed_form(alpha, j):
    lo, hi = h_support(j, alpha)
    xi = np.linspace(-0.5, 0.5, 1 << 14)
    vals = h(xi, j, alpha)
    live = xi[np.abs(vals) > SUPPORT_EPS]
    spacing = xi[1] - xi[0]
    assert live.min() >= lo - spacing
    assert live.max() <= hi + spacing
    # interior populated up to the smooth underflow skin near the edges
    skin = 0.05 * (hi - lo)
    assert live.min() <= lo + skin + 2 * spacing
    assert live.max() >= hi - skin - 2 * spacing


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("j", [0, 1, 2, 5])
def test_adjacent_block_identity(alpha, j):
    # on the overlap of consecutive blocks the squares sum to exactly 1
    lo = (1.0 - 2.0 ** (-j * alpha)) / 2.0
    hi = (1.0 - 2.0 ** (-(j + 1) * alpha)) / 2.0
    xi = np.linspace(lo, hi, 2001)
    total = h(xi, j, alpha) ** 2 + h(xi, j + 1, alpha) ** 2
    assert np.max(np.abs(total - 1.0)) < 1e-10


@pytest.mark.parametrize("alpha,J,excl", [
    (1.0, 5, 2.0 ** -5 / 2),
    (2.0, 3, 2.0 ** -6),
    (0.5, 5, 2.0 ** -2.5 / 2),
])
def test_partition_defect_small_with_exclusion(alpha, J, excl):
    assert partition_defect(alpha, J, excl) < 1e-10


def test_partition_defect_large_without_exclusion():
    # missing tail blocks leave a full gap next to +-1/2
    assert partition_defect(1.0, 5, 0.0) > 0.999


def test_partition_defect_validation():
    with pytest.raises(ValueError):
        partition_defect(1.0, 0, 0.0)
    with pytest.raises(ValueError):
        partition_defect(1.0, 3, -0.1)


def test_smooth_step_table():
    table = SmoothStepTable.build(4096)
    assert table.values[0] == 0.0
    assert table.values[-1] == 1.0
    assert table.max_partition_error() < 1e-12
    with pytest.raises(ValueError):
        SmoothStepTable.build(1)

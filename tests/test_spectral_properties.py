"""Property tests: the three grid criteria against pure-Python brute force,
and two invariances of the criteria.

Each example is a small random spectrum (S, Xi powers of two up to 32) with
a random support density, an overall scale that may put |f|**2 near the
magnitude threshold, and optionally an excluded band around the
half-integer residue.  The reference loops index the flat sample array
directly: sample i sits at xi = i/S - Xi, integer offset i // S - Xi and
residue i % S.  The banded generators are built on grids of at most 2^18
points.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sispace.generators import PsiParams, build_psi_spectrum
from sispace.grid import FrequencyGrid, SampledSpectrum, next_pow2
from sispace.spectral import MAGNITUDE_THRESHOLD, grid_criteria

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

@st.composite
def spectra(draw):
    S = 2 ** draw(st.integers(1, 5))
    Xi = 2 ** draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    N = 2 * Xi * S
    values = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) * draw(
        st.sampled_from([1.0, 1e-6, 1e-7]))
    values[rng.random(N) >= draw(st.sampled_from([0.02, 0.1, 0.5, 1.0]))] = 0.0
    hw = draw(st.sampled_from([None, 0.0, 0.2]))
    meta = {} if hw is None else {"exclusion_halfwidth": hw}
    return SampledSpectrum(FrequencyGrid(S, Xi), values, meta=meta)


def columns(f):
    """|f|**2 of each residue column as ``{residue: [(offset, value), ...]}``."""
    S, Xi = f.grid.samples_per_unit, f.grid.half_range
    cols = {r: [] for r in range(S)}
    for i, v in enumerate(f.values.tolist()):
        cols[i % S].append((i // S - Xi, abs(v) ** 2))
    return cols


def kept_residues(f):
    S = f.grid.samples_per_unit
    hw = f.meta.get("exclusion_halfwidth")
    return [r for r in range(S) if hw is None or abs(r / S - 0.5) > hw + 1e-12]


@PROPERTY
@given(spectra())
def test_periodization_matches_brute_force(f):
    cols = columns(f)
    expected = [math.fsum(v for _, v in cols[r]) for r in range(f.grid.samples_per_unit)]
    np.testing.assert_allclose(grid_criteria(f, 1).profile.values, expected, rtol=1e-12, atol=0)


@PROPERTY
@given(spectra())
def test_translation_defect_matches_brute_force(f):
    cols = columns(f)
    products = []
    for r in kept_residues(f):
        first, second = sorted((math.sqrt(v) for _, v in cols[r]), reverse=True)[:2]
        products.append(first * second)
    expected = max(products, default=0.0)
    assert grid_criteria(f, 1).translation[0] == pytest.approx(expected, rel=1e-12, abs=0)


@PROPERTY
@given(spectra(), st.integers(2, 16))
def test_n_invariance_matches_brute_force(f, n):
    n = min(n, f.grid.half_range // 2)
    assume(n >= 2)
    cols = columns(f)
    kept = kept_residues(f)
    violations = 0
    for r in kept:
        norms = [math.fsum(v for k, v in cols[r] if k % n == m) for m in range(n)]
        active = sum(norm > MAGNITUDE_THRESHOLD for norm in norms)
        total = math.fsum(norms)
        violations += active >= 2 or (active == 0 and total > MAGNITUDE_THRESHOLD)
    fraction = violations / len(kept) if kept else 0.0
    report = grid_criteria(f, n).per_n[-1]
    assert report.violation_fraction == fraction
    assert report.passed == (fraction == 0.0)


@st.composite
def inside_margin(draw):
    """A spectrum from :func:`spectra` cut to the integer offsets of rows
    [lo, hi), and a shift k that keeps those rows inside the grid."""
    f = draw(spectra())
    S, rows = f.grid.samples_per_unit, 2 * f.grid.half_range
    lo = draw(st.integers(0, rows - 1))
    hi = draw(st.integers(lo + 1, rows))
    values = np.zeros_like(f.values)
    values[lo * S:hi * S] = f.values[lo * S:hi * S]
    return replace(f, values=values), draw(st.integers(-lo, rows - hi))


@PROPERTY
@given(inside_margin())
def test_periodization_is_unchanged_by_integer_shifts(case):
    # the shift only moves all-zero rows from one end of the sum to the other
    f, k = case
    assert np.array_equal(grid_criteria(f.shifted(k), 1).profile.values,
                          grid_criteria(f, 1).profile.values)


@settings(PROPERTY, max_examples=30)
@given(st.floats(0.5, 2.5), st.floats(0.5, 2.5), st.integers(2, 12), st.integers(1, 3))
def test_psi_passes_the_criterion_of_every_divisor_of_n(alpha, beta, n, J):
    # the support lies in (-1/2, 1/2) + nZ, so at every residue the active
    # integer offsets share one class mod n, hence one class mod each d | n
    params = PsiParams(alpha, beta, n, J)
    Xi = next_pow2(params.required_half_range + 1)
    assume(Xi <= 2 ** 12)
    f = build_psi_spectrum(params, FrequencyGrid(2 ** 17 // Xi, Xi))
    for report in grid_criteria(f, n).per_n:
        if n % report.n == 0:
            assert report.passed, report.n

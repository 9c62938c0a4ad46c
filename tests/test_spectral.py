import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sispace import spectral
from sispace.generators import build_sinc
from sispace.grid import FrequencyGrid, GridError, SampledSpectrum
from sispace.spectral import (gram_coefficients, grid_criteria, is_riesz_generator,
                              orthonormality_defect)


def bspline1_periodization_oracle(residues, terms=10_000):
    """Direct summation of sinc(xi+k)**4 over |k| <= terms plus the quartic
    tail estimate -- independent of the grid/reshape machinery."""
    out = np.empty(residues.size)
    ks = np.arange(-terms, terms + 1)
    for i, r in enumerate(residues):
        out[i] = np.sum(np.sinc(r + ks) ** 4)
    # tail: sum_{|k|>terms} (pi(k+r))^-4 ~ 2/(3 pi^4 K^3)
    out += 2.0 / (3.0 * np.pi ** 4 * terms ** 3)
    return out


# ------------------------------------------------------------- periodization

def test_periodization_matches_bruteforce_shifts(psi_small):
    _, grid, spec = psi_small
    prof = grid_criteria(spec, 1).profile
    S, Xi = grid.samples_per_unit, grid.half_range
    brute = np.zeros(S)
    for k in range(-Xi, Xi):
        chunk = spec.shifted(-k).values[Xi * S:Xi * S + S]
        brute += np.abs(chunk) ** 2
    assert_allclose(prof.values, brute, rtol=0, atol=1e-15)


def test_sinc_periodization_identity(sinc_spectrum):
    prof = grid_criteria(sinc_spectrum, 1).profile
    assert prof.m == 1.0 and prof.M == 1.0
    assert orthonormality_defect(prof) == 0.0
    # the endpoint convention leaves G = 1/2 exactly at the half-integer residue
    half_idx = sinc_spectrum.grid.samples_per_unit // 2
    assert prof.values[half_idx] == 0.5
    assert prof.excluded[half_idx]
    assert prof.excluded.sum() == 1


def test_bspline1_periodization_vs_oracle(bspline1):
    _, spec = bspline1
    prof = grid_criteria(spec, 1).profile
    oracle = bspline1_periodization_oracle(prof.residues)
    assert np.max(np.abs(prof.values - oracle)) < 1e-10


def test_bspline1_closed_form_extremes(bspline1):
    _, spec = bspline1
    prof = grid_criteria(spec, 1).profile
    assert_allclose(prof.m, 1.0 / 3.0, atol=1e-10)
    assert_allclose(prof.M, 1.0, atol=1e-10)
    S = spec.grid.samples_per_unit
    assert_allclose(prof.values[S // 2], 1.0 / 3.0, atol=1e-10)
    expected = (2.0 + np.cos(2 * np.pi * prof.residues)) / 3.0
    assert np.max(np.abs(prof.values - expected)) < 1e-10


def test_riesz_verdicts(bspline1, sinc_spectrum):
    _, spec = bspline1
    assert is_riesz_generator(grid_criteria(spec, 1).profile)
    assert is_riesz_generator(grid_criteria(sinc_spectrum, 1).profile)
    g = FrequencyGrid(16, 8)
    zero = SampledSpectrum(grid=g, values=np.zeros(g.n_points))
    prof = grid_criteria(zero, 1).profile
    assert (prof.m, prof.M) == (0.0, 0.0)
    assert not is_riesz_generator(prof)


def test_orthonormality_defect_bspline(bspline1):
    _, spec = bspline1
    prof = grid_criteria(spec, 1).profile
    assert_allclose(orthonormality_defect(prof), 2.0 / 3.0, atol=1e-10)


def test_psi_periodization_identity(psi_small):
    params, _, spec = psi_small
    prof = grid_criteria(spec, 1).profile
    assert orthonormality_defect(prof) < 1e-12
    assert prof.excluded.any()
    lo, hi = prof.excluded_band
    assert_allclose(hi - lo, 2 ** (-params.J * params.alpha), rtol=1e-12)


# ---------------------------------------------------------------------- gram

def test_gram_sinc_is_delta(sinc_spectrum):
    ks, a = gram_coefficients(grid_criteria(sinc_spectrum, 1).profile, 5)
    target = (ks == 0).astype(float)
    assert np.max(np.abs(a - target)) < 1e-12


def test_gram_bspline1(bspline1):
    _, spec = bspline1
    ks, a = gram_coefficients(grid_criteria(spec, 1).profile, 4)
    expected = {0: 2 / 3, 1: 1 / 6, -1: 1 / 6}
    for k, val in zip(ks, a):
        assert abs(val - expected.get(int(k), 0.0)) < 1e-9
        assert abs(val.imag) < 1e-12


def test_gram_psi_close_to_delta(psi_small):
    _, _, spec = psi_small
    ks, a = gram_coefficients(grid_criteria(spec, 1).profile, 8)
    assert np.max(np.abs(a - (ks == 0))) < 2e-3


def test_gram_rejects_aliasing_K(bspline1):
    _, spec = bspline1
    prof = grid_criteria(spec, 1).profile
    with pytest.raises(ValueError):
        gram_coefficients(prof, spec.grid.samples_per_unit // 2)


# ------------------------------------------------------ translation criterion

def test_sinc_translation_defect_zero(sinc_spectrum):
    defect, witness = grid_criteria(sinc_spectrum, 1).translation
    assert defect < 1e-14
    assert witness is None


def test_bspline_translation_defect_large(bspline1):
    _, spec = bspline1
    defect, witness = grid_criteria(spec, 1).translation
    assert defect > 0.1
    assert witness is not None
    # lower bound from one explicit pair: sinc^2(1/4) * sinc^2(-3/4)
    pair = np.sinc(0.25) ** 2 * np.sinc(-0.75) ** 2
    assert defect >= pair - 1e-12


def test_psi_translation_defect_positive(psi_small):
    params, _, spec = psi_small
    defect, _ = grid_criteria(spec, 1).translation
    assert defect > 0
    # copies of the first block family share a residue at distinct integers,
    # so the defect reaches the squared family weight
    assert_allclose(defect, 1.0 / params.block_counts[1], rtol=1e-6)


@pytest.mark.parametrize("block", [1, 4, 12, 1 << 18])
def test_translation_defect_with_tied_column_maxima(monkeypatch, block):
    # values from {0, 1, 2, 3}: most columns tie at their maximum, within a
    # row block and across blocks (block = fold values per block, S = 4)
    monkeypatch.setattr(spectral, "TOP2_BLOCK", block)
    rng = np.random.default_rng(7)
    g = FrequencyGrid(4, 8)
    for _ in range(20):
        f = SampledSpectrum(grid=g, values=rng.integers(0, 4, g.n_points).astype(float))
        sq = np.sort((f.values ** 2).reshape(16, 4), axis=0)
        products = np.sqrt(sq[-2]) * np.sqrt(sq[-1])
        i = int(np.argmax(products))
        assert grid_criteria(f, 1).translation == (products[i], i / 4)


def test_translation_defect_adds_no_full_grid_array():
    # the top-2 works in row blocks: nothing beyond the fold grows with the grid
    g = FrequencyGrid(512, 1024)
    f = build_sinc(g)
    tracemalloc.start()
    try:
        grid_criteria(f, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.n_points * 8 + (1 << 20)


# ---------------------------------------------------------- class invariance

def test_psi_invariance_passes(psi_small):
    _, _, spec = psi_small
    rep, = grid_criteria(spec, 2).per_n
    assert rep.passed
    assert rep.violation_fraction == 0.0


def test_bspline_invariance_fails_all(bspline1):
    _, spec = bspline1
    for n, rep in zip((2, 3, 4), grid_criteria(spec, 4).per_n):
        assert rep.n == n
        assert not rep.passed
        assert rep.violation_fraction > 0.5


def test_sinc_invariance_passes_any_n(sinc_spectrum):
    per_n = grid_criteria(sinc_spectrum, 5).per_n
    for n in (2, 3, 5):
        assert per_n[n - 2].n == n and per_n[n - 2].passed


def test_class_partition_sums_to_periodization(psi_small, sinc_spectrum):
    for spec in (psi_small[2], sinc_spectrum):
        prof = grid_criteria(spec, 1).profile
        for n in (2, 3):
            sq = (np.abs(spec.values) ** 2).reshape(2 * spec.grid.half_range,
                                                    spec.grid.samples_per_unit)
            offsets = np.arange(2 * spec.grid.half_range) - spec.grid.half_range
            total = np.zeros(spec.grid.samples_per_unit)
            for m in range(n):
                total += sq[offsets % n == m].sum(axis=0)
            assert np.max(np.abs(total - prof.values)) < 1e-12


def test_translation_pass_implies_all_n_pass(sinc_spectrum):
    criteria = grid_criteria(sinc_spectrum, 7)
    defect, _ = criteria.translation
    assert defect < 1e-14
    assert [r.n for r in criteria.per_n] == list(range(2, 8))
    for rep in criteria.per_n:
        assert rep.passed


def test_invariance_preconditions(sinc_spectrum):
    with pytest.raises(GridError):
        grid_criteria(sinc_spectrum, sinc_spectrum.grid.half_range)


# -------------------------------------------------------------- group verdict

def test_detect_group_sinc(sinc_spectrum):
    group = grid_criteria(sinc_spectrum, 8).group
    assert group.kind == "R-candidate"
    assert group.describe() == "R-candidate"


def test_detect_group_bspline(bspline1):
    _, spec = bspline1
    group = grid_criteria(spec, 8).group
    assert group.kind == "integer"
    assert group.describe() == "Z"


def test_detect_group_psi(psi_small):
    _, _, spec = psi_small
    group = grid_criteria(spec, 8).group
    assert group.kind == "fractional"
    assert group.passing_n == (2,)
    assert group.describe() == "(1/2)Z"


def test_detect_group_divisor_structure():
    from sispace.generators import GeneratorSpec, PsiParams, auto_grid, build_psi_spectrum
    params = PsiParams(1.0, 2.0, 4, 3)
    grid, _ = auto_grid(GeneratorSpec(kind="psi", psi=params))
    spec = build_psi_spectrum(params, grid)
    group = grid_criteria(spec, 8).group
    assert group.passing_n == (2, 4)
    assert group.maximal_n == 4
    assert not grid_criteria(spec, 8).per_n[3 - 2].passed


def test_gram_reads_the_grid_criteria_profile(sinc_spectrum):
    ks, a = gram_coefficients(grid_criteria(sinc_spectrum, 8).profile, 3)
    assert np.max(np.abs(a - (ks == 0))) < 1e-12

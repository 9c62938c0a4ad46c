import numpy as np
import pytest
from numpy.testing import assert_allclose

from sispace.grid import GridError, SampledSpectrum, make_grid
from sispace.spectral import (detect_invariance_group, gram_coefficients,
                              is_riesz_generator, n_invariance_report,
                              orthonormality_defect, periodization,
                              translation_invariance_defect)


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
    prof = periodization(spec)
    S, Xi = grid.samples_per_unit, grid.half_range
    brute = np.zeros(S)
    for k in range(-Xi, Xi):
        chunk = spec.shifted(-k).values[Xi * S:Xi * S + S]
        brute += np.abs(chunk) ** 2
    assert_allclose(prof.values, brute, rtol=0, atol=1e-15)


def test_sinc_periodization_identity(sinc_spectrum):
    prof = periodization(sinc_spectrum)
    assert prof.m == 1.0 and prof.M == 1.0
    assert orthonormality_defect(prof) == 0.0
    # the endpoint convention leaves G = 1/2 exactly at the half-integer residue
    half_idx = sinc_spectrum.grid.samples_per_unit // 2
    assert prof.values[half_idx] == 0.5
    assert prof.excluded[half_idx]
    assert prof.excluded.sum() == 1


def test_bspline1_periodization_vs_oracle(bspline1):
    _, spec = bspline1
    prof = periodization(spec)
    oracle = bspline1_periodization_oracle(prof.residues)
    assert np.max(np.abs(prof.values - oracle)) < 1e-10


def test_bspline1_closed_form_extremes(bspline1):
    _, spec = bspline1
    prof = periodization(spec)
    assert_allclose(prof.m, 1.0 / 3.0, atol=1e-10)
    assert_allclose(prof.M, 1.0, atol=1e-10)
    S = spec.grid.samples_per_unit
    assert_allclose(prof.values[S // 2], 1.0 / 3.0, atol=1e-10)
    expected = (2.0 + np.cos(2 * np.pi * prof.residues)) / 3.0
    assert np.max(np.abs(prof.values - expected)) < 1e-10


def test_riesz_verdicts(bspline1, sinc_spectrum):
    _, spec = bspline1
    assert is_riesz_generator(periodization(spec))
    assert is_riesz_generator(periodization(sinc_spectrum))
    g = make_grid(16, 8)
    zero = SampledSpectrum(grid=g, values=np.zeros(g.n_points))
    prof = periodization(zero)
    assert (prof.m, prof.M) == (0.0, 0.0)
    assert not is_riesz_generator(prof)


def test_orthonormality_defect_bspline(bspline1):
    _, spec = bspline1
    assert_allclose(orthonormality_defect(periodization(spec)), 2.0 / 3.0, atol=1e-10)


def test_psi_periodization_identity(psi_small):
    params, _, spec = psi_small
    prof = periodization(spec)
    assert orthonormality_defect(prof) < 1e-12
    assert prof.excluded.any()
    lo, hi = prof.excluded_band
    assert_allclose(hi - lo, 2 ** (-params.J * params.alpha), rtol=1e-12)


# ---------------------------------------------------------------------- gram

def test_gram_sinc_is_delta(sinc_spectrum):
    ks, a = gram_coefficients(periodization(sinc_spectrum), 5)
    target = (ks == 0).astype(float)
    assert np.max(np.abs(a - target)) < 1e-12


def test_gram_bspline1(bspline1):
    _, spec = bspline1
    ks, a = gram_coefficients(periodization(spec), 4)
    expected = {0: 2 / 3, 1: 1 / 6, -1: 1 / 6}
    for k, val in zip(ks, a):
        assert abs(val - expected.get(int(k), 0.0)) < 1e-9
        assert abs(val.imag) < 1e-12


def test_gram_psi_close_to_delta(psi_small):
    _, _, spec = psi_small
    ks, a = gram_coefficients(periodization(spec), 8)
    assert np.max(np.abs(a - (ks == 0))) < 2e-3


def test_gram_rejects_aliasing_K(bspline1):
    _, spec = bspline1
    prof = periodization(spec)
    with pytest.raises(ValueError):
        gram_coefficients(prof, spec.grid.samples_per_unit // 2)


# ------------------------------------------------------ translation criterion

def test_sinc_translation_defect_zero(sinc_spectrum):
    defect, witness = translation_invariance_defect(sinc_spectrum)
    assert defect < 1e-14
    assert witness is None


def test_bspline_translation_defect_large(bspline1):
    _, spec = bspline1
    defect, witness = translation_invariance_defect(spec)
    assert defect > 0.1
    assert witness is not None
    # lower bound from one explicit pair: sinc^2(1/4) * sinc^2(-3/4)
    pair = np.sinc(0.25) ** 2 * np.sinc(-0.75) ** 2
    assert defect >= pair - 1e-12


def test_psi_translation_defect_positive(psi_small):
    params, _, spec = psi_small
    defect, _ = translation_invariance_defect(spec)
    assert defect > 0
    # copies of the first block family share a residue at distinct integers,
    # so the defect reaches the squared family weight
    assert_allclose(defect, 1.0 / params.block_counts[1], rtol=1e-6)


# ---------------------------------------------------------- class invariance

def test_psi_invariance_passes(psi_small):
    _, _, spec = psi_small
    rep = n_invariance_report(spec, 2)
    assert rep.passed
    assert rep.violation_fraction == 0.0


def test_bspline_invariance_fails_all(bspline1):
    _, spec = bspline1
    for n in (2, 3, 4):
        rep = n_invariance_report(spec, n)
        assert not rep.passed
        assert rep.violation_fraction > 0.5


def test_sinc_invariance_passes_any_n(sinc_spectrum):
    for n in (2, 3, 5):
        assert n_invariance_report(sinc_spectrum, n).passed


def test_class_partition_sums_to_periodization(psi_small, sinc_spectrum):
    for spec in (psi_small[2], sinc_spectrum):
        prof = periodization(spec)
        for n in (2, 3):
            sq = (np.abs(spec.values) ** 2).reshape(2 * spec.grid.half_range,
                                                    spec.grid.samples_per_unit)
            offsets = np.arange(2 * spec.grid.half_range) - spec.grid.half_range
            total = np.zeros(spec.grid.samples_per_unit)
            for m in range(n):
                total += sq[offsets % n == m].sum(axis=0)
            assert np.max(np.abs(total - prof.values)) < 1e-12


def test_translation_pass_implies_all_n_pass(sinc_spectrum):
    defect, _ = translation_invariance_defect(sinc_spectrum)
    assert defect < 1e-14
    for n in range(2, 8):
        assert n_invariance_report(sinc_spectrum, n).passed


def test_invariance_preconditions(sinc_spectrum):
    with pytest.raises(ValueError):
        n_invariance_report(sinc_spectrum, 1)
    with pytest.raises(GridError):
        n_invariance_report(sinc_spectrum, sinc_spectrum.grid.half_range)


# -------------------------------------------------------------- group verdict

def test_detect_group_sinc(sinc_spectrum):
    group = detect_invariance_group(sinc_spectrum, 8)
    assert group.kind == "R-candidate"
    assert group.describe() == "R-candidate"


def test_detect_group_bspline(bspline1):
    _, spec = bspline1
    group = detect_invariance_group(spec, 8)
    assert group.kind == "integer"
    assert group.describe() == "Z"


def test_detect_group_psi(psi_small):
    _, _, spec = psi_small
    group = detect_invariance_group(spec, 8)
    assert group.kind == "fractional"
    assert group.passing_n == (2,)
    assert group.describe() == "(1/2)Z"


def test_detect_group_divisor_structure():
    from sispace.generators import GeneratorSpec, PsiParams, auto_grid, build_psi_spectrum
    params = PsiParams(1.0, 2.0, 4, 3)
    grid, _ = auto_grid(GeneratorSpec(kind="psi", psi=params))
    spec = build_psi_spectrum(params, grid)
    group = detect_invariance_group(spec, 8)
    assert group.passing_n == (2, 4)
    assert group.maximal_n == 4
    assert not n_invariance_report(spec, 3).passed


def test_gram_accepts_spectrum_directly(sinc_spectrum):
    ks, a = gram_coefficients(sinc_spectrum, 3)
    assert np.max(np.abs(a - (ks == 0))) < 1e-12

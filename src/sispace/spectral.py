"""Grid criteria for Riesz bounds, orthonormality, and extra invariance.

Everything here works on the integer-periodization structure of a sampled
spectrum: the grid is shift-aligned, so collecting the samples of
``|f(xi + k)|**2`` over integer k is an exact reshape, never quadrature.

Almost-everywhere statements become per-grid-point checks with a magnitude
threshold (``MAGNITUDE_THRESHOLD``) and documented exclusions: builders
declare the residues where a finite truncation or an endpoint convention
leaves a measure-zero artifact, and the min/max/defect statistics skip them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridError, SampledSpectrum

MAGNITUDE_THRESHOLD = 1e-12
RIESZ_THRESHOLD = 1e-6       # lower Riesz bound m above which a generator is stable
DEFECT_TOLERANCE = 1e-12     # translation defect at or below which R-invariance is a candidate


def _folded(f: SampledSpectrum):
    """|values|**2 arranged as (integer offset, residue) with exact indexing."""
    S = f.grid.samples_per_unit
    return (np.abs(f.values) ** 2).reshape(2 * f.grid.half_range, S)


def _excluded_mask(f: SampledSpectrum):
    """Residue columns declared unreliable by the builder.

    ``meta['exclusion_halfwidth'] = hw`` marks residues within ``hw`` of the
    half-integer point; ``hw = 0`` marks exactly that sample.
    """
    S = f.grid.samples_per_unit
    hw = f.meta.get("exclusion_halfwidth")
    if hw is None:
        return np.zeros(S, dtype=bool)
    residues = np.arange(S) / S
    return np.abs(residues - 0.5) <= hw + 1e-12


@dataclass(frozen=True)
class PeriodizationProfile:
    """G(xi) = sum_k |f(xi+k)|**2 on the residue grid [0, 1)."""

    residues: np.ndarray
    values: np.ndarray
    excluded: np.ndarray
    exclusion_halfwidth: float | None
    m: float
    M: float

    @property
    def excluded_band(self):
        if self.exclusion_halfwidth is None:
            return None
        return (0.5 - self.exclusion_halfwidth, 0.5 + self.exclusion_halfwidth)

    def infilled(self):
        """Profile values with excluded residues in-filled by interpolation
        across the gap (periodic), restoring the truncation-free object."""
        if not self.excluded.any():
            return self.values
        S = self.values.size
        idx = np.arange(S, dtype=float)
        good = ~self.excluded
        # periodic linear interpolation over index space
        out = self.values.copy()
        out[self.excluded] = np.interp(idx[self.excluded], idx[good],
                                       self.values[good], period=S)
        return out


def periodization(f: SampledSpectrum) -> PeriodizationProfile:
    """Integer periodization of |f|**2 by exact index folding."""
    S = f.grid.samples_per_unit
    g_values = _folded(f).sum(axis=0)
    excluded = _excluded_mask(f)
    kept = g_values[~excluded] if (~excluded).any() else g_values
    return PeriodizationProfile(
        residues=np.arange(S) / S,
        values=g_values,
        excluded=excluded,
        exclusion_halfwidth=f.meta.get("exclusion_halfwidth"),
        m=float(kept.min()),
        M=float(kept.max()),
    )


def is_riesz_generator(profile: PeriodizationProfile) -> bool:
    """Lower Riesz bound ``m`` (over non-excluded residues) above ``RIESZ_THRESHOLD``."""
    return profile.m > RIESZ_THRESHOLD


def orthonormality_defect(profile: PeriodizationProfile) -> float:
    """max |G - 1| over non-excluded residues; 0 characterizes orthonormality."""
    kept = profile.values[~profile.excluded]
    return float(np.max(np.abs(kept - 1.0)))


def gram_coefficients(f, K: int):
    """Shift inner products a(k), |k| <= K: Fourier coefficients of G.

    Accepts a spectrum or an already computed profile.  Excluded residues
    are in-filled by interpolation across the gap before the transform, so
    the coefficients estimate the truncation-free object (an orthonormal
    generator gives a(k) ~ delta_{k,0}).  Returns ``(ks, coefficients)``
    with ks running -K..K.
    """
    profile = periodization(f) if isinstance(f, SampledSpectrum) else f
    S = profile.values.size
    if K >= S / 2:
        raise ValueError(f"K = {K} aliases on a profile with {S} samples; need K < S/2")
    g = profile.infilled()
    ks = np.arange(-K, K + 1)
    phases = np.exp(-2j * np.pi * np.outer(ks, np.arange(S)) / S)
    return ks, phases @ g / S


def translation_invariance_defect(f: SampledSpectrum):
    """Largest product of two spectrum magnitudes one integer apart or more.

    Zero (below threshold) at every residue is the grid form of the
    translation-invariance criterion: no two integer translates of the
    support overlap.  Returns ``(defect, witness_residue_or_None)``.
    """
    sq = _folded(f)
    S = f.grid.samples_per_unit
    # the two largest |f|**2 per residue column, in the last two rows
    top2 = np.partition(sq, sq.shape[0] - 2, axis=0)[-2:]
    products = np.sqrt(top2[0]) * np.sqrt(top2[1])
    products[_excluded_mask(f)] = 0.0
    i = int(np.argmax(products))
    defect = float(products[i])
    witness = i / S if defect > MAGNITUDE_THRESHOLD ** 2 else None
    return defect, witness


@dataclass(frozen=True)
class InvarianceReport:
    """Residue-class activity for one candidate refinement n."""

    n: int
    violation_fraction: float
    passed: bool


def n_invariance_report(f: SampledSpectrum, n: int) -> InvarianceReport:
    """Check the refinement criterion for translates by 1/n.

    For each residue xi the integer offsets split into n classes mod n; the
    criterion demands exactly one class carry energy.  A residue where no
    class is active counts as a violation only if the total periodization
    there exceeds the threshold (an all-zero residue carries no information).
    Excluded residues are skipped.
    """
    if int(n) != n or n < 2:
        raise ValueError("n must be an integer >= 2")
    n = int(n)
    if n > f.grid.half_range / 2:
        raise GridError(f"n = {n} too large for half_range {f.grid.half_range}")
    sq = _folded(f)
    Xi = f.grid.half_range
    # row i holds integer offset i - Xi, so class m starts at row (m + Xi) mod n
    class_norms = np.stack([sq[(m + Xi) % n::n].sum(axis=0) for m in range(n)])
    counts = (class_norms > MAGNITUDE_THRESHOLD).sum(axis=0)
    total = class_norms.sum(axis=0)
    violating = (counts >= 2) | ((counts == 0) & (total > MAGNITUDE_THRESHOLD))
    kept = ~_excluded_mask(f)
    fraction = float(violating[kept].mean()) if kept.any() else 0.0
    return InvarianceReport(n=n, violation_fraction=fraction, passed=fraction == 0.0)


@dataclass(frozen=True)
class InvarianceGroup:
    """Grid classification of the invariance group of the generated space."""

    kind: str                 # "R-candidate" | "fractional" | "integer"
    translation_defect: float
    passing_n: tuple
    maximal_n: int | None

    @classmethod
    def classify(cls, translation_defect, passing_n):
        """Classify from the translation defect and the refinements n that pass.

        A passing translation criterion reports only a candidate: full
        invariance cannot be certified on a grid.  ``passing_n`` is read
        only when that criterion fails, so it may be a lazy iterable.
        """
        if translation_defect <= DEFECT_TOLERANCE:
            return cls("R-candidate", translation_defect, (), None)
        passing = tuple(passing_n)
        return cls("fractional" if passing else "integer", translation_defect, passing,
                   max(passing) if passing else None)

    def describe(self):
        if self.kind == "R-candidate":
            return "R-candidate"
        if self.kind == "fractional":
            return f"(1/{self.maximal_n})Z"
        return "Z"


def detect_invariance_group(f: SampledSpectrum, n_max: int) -> InvarianceGroup:
    """Classify the invariance group of ``f`` with refinements n <= n_max
    (see :meth:`InvarianceGroup.classify`)."""
    if n_max > f.grid.half_range / 2:
        raise GridError(f"n_max = {n_max} too large for half_range {f.grid.half_range}")
    defect, _ = translation_invariance_defect(f)
    passing = (n for n in range(2, n_max + 1) if n_invariance_report(f, n).passed)
    return InvarianceGroup.classify(defect, passing)

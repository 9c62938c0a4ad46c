"""Grid criteria for Riesz bounds, orthonormality, and extra invariance.

Everything here works on the integer-periodization structure of a sampled
spectrum: the grid is shift-aligned, so collecting the samples of
``|f(xi + k)|**2`` over integer k is an exact reshape, never quadrature.
:func:`grid_criteria` forms that array once and reads every criterion from
it; each other criterion function is a whole pass of it, so to read several
criteria or loop over n, call ``grid_criteria(f, n_max)`` once.

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
    """Integer periodization of |f|**2: a whole :func:`grid_criteria` pass."""
    return grid_criteria(f, 1).profile


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
    support overlap.  Returns ``(defect, witness_residue_or_None)`` from a
    whole :func:`grid_criteria` pass.
    """
    return grid_criteria(f, 1).translation


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
    Excluded residues are skipped.  A whole :func:`grid_criteria` pass, which
    sums the classes of every n' <= n: loops over n read its ``per_n``.
    """
    if int(n) != n or n < 2:
        raise ValueError("n must be an integer >= 2")
    return grid_criteria(f, int(n)).per_n[-1]


@dataclass(frozen=True)
class InvarianceGroup:
    """Grid classification of the invariance group of the generated space."""

    kind: str                 # "R-candidate" | "fractional" | "integer"
    translation_defect: float
    passing_n: tuple
    maximal_n: int | None

    @classmethod
    def classify(cls, translation_defect, passing_n):
        """Classify from the translation defect and the tuple of refinements n
        that pass, in increasing order.

        A passing translation criterion reports only a candidate: full
        invariance cannot be certified on a grid, and ``passing_n`` is then
        left out of the group.
        """
        if translation_defect <= DEFECT_TOLERANCE:
            return cls("R-candidate", translation_defect, (), None)
        return cls("fractional" if passing_n else "integer", translation_defect, passing_n,
                   max(passing_n) if passing_n else None)

    def describe(self):
        if self.kind == "R-candidate":
            return "R-candidate"
        if self.kind == "fractional":
            return f"(1/{self.maximal_n})Z"
        return "Z"


def detect_invariance_group(f: SampledSpectrum, n_max: int) -> InvarianceGroup:
    """Classify the invariance group of ``f`` with refinements n <= n_max
    (see :meth:`InvarianceGroup.classify`)."""
    return grid_criteria(f, n_max).group


@dataclass(frozen=True)
class GridCriteria:
    """Every grid criterion of one spectrum, read from one fold of |f|**2."""

    profile: PeriodizationProfile
    translation: tuple        # (defect, witness residue or None)
    per_n: tuple              # InvarianceReport for n = 2..n_max
    group: InvarianceGroup


def grid_criteria(f: SampledSpectrum, n_max: int) -> GridCriteria:
    """G, the translation defect and the 1/n reports for n = 2..n_max (none
    when n_max < 2), all read from one array of |f|**2 by (integer offset,
    residue), squared in place and dropped on return.

    The builder's ``meta['exclusion_halfwidth'] = hw`` excludes the residues
    within ``hw`` of the half-integer point (``hw = 0``: exactly that sample).
    """
    S, Xi = f.grid.samples_per_unit, f.grid.half_range
    if n_max > Xi / 2:
        raise GridError(f"n_max = {n_max} too large for half_range {Xi}")
    sq = np.abs(f.values).reshape(2 * Xi, S)
    np.square(sq, out=sq)
    hw = f.meta.get("exclusion_halfwidth")
    residues = np.arange(S) / S
    excluded = (np.zeros(S, dtype=bool) if hw is None
                else np.abs(residues - 0.5) <= hw + 1e-12)
    kept = ~excluded

    g_values = sq.sum(axis=0)
    g_kept = g_values[kept] if kept.any() else g_values
    profile = PeriodizationProfile(residues=residues, values=g_values, excluded=excluded,
                                   exclusion_halfwidth=hw,
                                   m=float(g_kept.min()), M=float(g_kept.max()))

    per_n = []
    for n in range(2, n_max + 1):
        # row i holds integer offset i - Xi, so class m starts at row (m + Xi) mod n
        class_norms = np.stack([sq[(m + Xi) % n::n].sum(axis=0) for m in range(n)])
        counts = (class_norms > MAGNITUDE_THRESHOLD).sum(axis=0)
        total = class_norms.sum(axis=0)
        violating = (counts >= 2) | ((counts == 0) & (total > MAGNITUDE_THRESHOLD))
        fraction = float(violating[kept].mean()) if kept.any() else 0.0
        per_n.append(InvarianceReport(n=n, violation_fraction=fraction,
                                      passed=fraction == 0.0))

    # the two largest |f|**2 per residue: the column maximum, then the maximum
    # again once one occurrence of it is set to zero (every entry is >= 0)
    first = sq.max(axis=0)
    sq[(sq == first).argmax(axis=0), np.arange(S)] = 0.0
    products = np.sqrt(sq.max(axis=0)) * np.sqrt(first)
    products[excluded] = 0.0
    i = int(np.argmax(products))
    defect = float(products[i])
    witness = i / S if defect > MAGNITUDE_THRESHOLD ** 2 else None
    group = InvarianceGroup.classify(defect, tuple(r.n for r in per_n if r.passed))
    return GridCriteria(profile, (defect, witness), tuple(per_n), group)

"""Grid criteria for Riesz bounds, orthonormality, and extra invariance.

Everything here works on the integer-periodization structure of a sampled
spectrum: the grid is shift-aligned, so collecting the samples of
``|f(xi + k)|**2`` over integer k is an exact reshape, never quadrature.
:func:`grid_criteria` forms that array once and reads every criterion from
it: ``.profile`` (G), ``.translation``, ``.per_n`` (n = 2..n_max) and
``.group``.  :func:`is_riesz_generator`, :func:`orthonormality_defect` and
:func:`gram_coefficients` read the profile.

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
TOP2_BLOCK = 1 << 18         # fold values per row block of the running top-2


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


def is_riesz_generator(profile: PeriodizationProfile) -> bool:
    """Lower Riesz bound ``m`` (over non-excluded residues) above ``RIESZ_THRESHOLD``."""
    return profile.m > RIESZ_THRESHOLD


def orthonormality_defect(profile: PeriodizationProfile) -> float:
    """max |G - 1| over non-excluded residues; 0 characterizes orthonormality."""
    kept = profile.values[~profile.excluded]
    return float(np.max(np.abs(kept - 1.0)))


def gram_coefficients(profile: PeriodizationProfile, K: int):
    """Shift inner products a(k), |k| <= K: Fourier coefficients of G.

    ``profile`` is ``grid_criteria(f, n_max).profile``.  Excluded residues
    are in-filled by interpolation across the gap before the transform, so
    the coefficients estimate the truncation-free object (an orthonormal
    generator gives a(k) ~ delta_{k,0}).  Returns ``(ks, coefficients)``
    with ks running -K..K.
    """
    S = profile.values.size
    if K >= S / 2:
        raise ValueError(f"K = {K} aliases on a profile with {S} samples; need K < S/2")
    g = profile.infilled()
    ks = np.arange(-K, K + 1)
    phases = np.exp(-2j * np.pi * np.outer(ks, np.arange(S)) / S)
    return ks, phases @ g / S


@dataclass(frozen=True)
class InvarianceReport:
    """Residue-class activity for one candidate refinement n.

    At each residue the integer offsets split into n classes mod n; the
    criterion for translates by 1/n demands exactly one class carry energy.
    A residue where no class is active counts as a violation only if the
    total periodization there exceeds the threshold (an all-zero residue
    carries no information).  Excluded residues are skipped.
    """

    n: int
    violation_fraction: float
    passed: bool


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


@dataclass(frozen=True)
class GridCriteria:
    """Every grid criterion of one spectrum, read from one fold of |f|**2."""

    profile: PeriodizationProfile
    # (defect, witness residue or None): the largest product of two spectrum
    # magnitudes one integer or more apart; at or below DEFECT_TOLERANCE no two
    # integer translates of the support overlap (the translation criterion)
    translation: tuple
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

    # the two largest |f|**2 per residue, kept over blocks of rows: a block's
    # column maximum, then its maximum again once one occurrence of the first
    # is set to zero (every entry is >= 0), merged into the running pair
    first, second = np.zeros(S), np.zeros(S)
    cols = np.arange(S)
    step = max(1, TOP2_BLOCK // S)
    for start in range(0, 2 * Xi, step):
        block = sq[start:start + step]
        b1 = block.max(axis=0)
        block[(block == b1).argmax(axis=0), cols] = 0.0
        b2 = block.max(axis=0)
        second = np.maximum(np.maximum(np.minimum(first, b1), second), b2)
        first = np.maximum(first, b1)
    products = np.sqrt(second) * np.sqrt(first)
    products[excluded] = 0.0
    i = int(np.argmax(products))
    defect = float(products[i])
    witness = i / S if defect > MAGNITUDE_THRESHOLD ** 2 else None
    group = InvarianceGroup.classify(defect, tuple(r.n for r in per_n if r.passed))
    return GridCriteria(profile, (defect, witness), tuple(per_n), group)

"""Numerical toolkit for generators of principal shift-invariant spaces."""

__version__ = "0.1.0"

from .bumps import g0, g1, h, h_support, partition_defect, smooth_step
from .generators import (GeneratorSpec, PsiParams, auto_grid, build_bspline,
                         build_psi_spectrum, build_sinc, dirichlet_ratio,
                         evaluate_psi_time, window_tables)
from .grid import (FrequencyGrid, GridError, SampledSignal, SampledSpectrum,
                   l2_norm, next_pow2, to_freq_domain, to_time_domain)
from .localization import (FeasibilityGate, GateReport, GrowthVerdict,
                           PointwiseDecay, divergence_probes,
                           feasibility_gates, pointwise_freq_decay,
                           psi_block_freq_contributions,
                           spectrum_envelope_exponent,
                           truncation_depth_for_span, weighted_freq_norm)
from .pipeline import run_witness_suite
from .spectral import (GridCriteria, InvarianceGroup, InvarianceReport,
                       PeriodizationProfile, gram_coefficients, grid_criteria,
                       is_riesz_generator, orthonormality_defect)

__all__ = [
    "__version__",
    "smooth_step", "g0", "g1", "h", "h_support", "partition_defect",
    "GeneratorSpec", "PsiParams", "auto_grid",
    "build_bspline", "build_psi_spectrum", "build_sinc", "dirichlet_ratio",
    "evaluate_psi_time", "window_tables",
    "FrequencyGrid", "GridError", "SampledSignal", "SampledSpectrum",
    "l2_norm", "next_pow2", "to_freq_domain", "to_time_domain",
    "FeasibilityGate", "GateReport", "GrowthVerdict", "PointwiseDecay",
    "divergence_probes", "feasibility_gates",
    "pointwise_freq_decay", "psi_block_freq_contributions", "run_witness_suite",
    "spectrum_envelope_exponent", "truncation_depth_for_span",
    "weighted_freq_norm",
    "GridCriteria", "InvarianceGroup", "InvarianceReport", "PeriodizationProfile",
    "gram_coefficients", "grid_criteria", "is_riesz_generator", "orthonormality_defect",
]

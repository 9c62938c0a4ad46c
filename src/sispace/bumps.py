"""Smooth quadratic-partition step and the compactly supported windows built from it.

The step ``g`` rises from 0 to 1 on [0, 1] and satisfies the exact identity
``g(x)**2 + g(1-x)**2 == 1``.  Products of shifted/scaled copies give the
windows ``g0`` and ``g1``, and from those the family ``h_j`` of frequency
blocks: ``h_0`` sits symmetrically around 0, while ``h_j`` for j >= 1 tiles
the approach to 1/2 in geometrically shrinking steps controlled by ``alpha``.
All functions here are pure and accept scalars or numpy arrays.
"""

from __future__ import annotations

import numpy as np

_EXP_CLIP = 700.0  # exp argument beyond which float64 saturates anyway


def smooth_step(x):
    """Infinitely differentiable step: 0 for x <= 0, 1 for x >= 1.

    Realized as ``g(x) = sin(pi/2 * t(x))`` with
    ``t(x) = e(x) / (e(x) + e(1-x))`` and ``e(x) = exp(-1/x)``,
    so that ``g(x)**2 + g(1-x)**2 = sin**2 + cos**2 = 1`` identically.
    Endpoint values are pinned exactly (no rounding residue).
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    out[x <= 0.0] = 0.0
    out[x >= 1.0] = 1.0
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    # t = 1 / (1 + exp(1/x - 1/(1-x))), written to avoid overflow at the ends
    u = np.clip(1.0 / xi - 1.0 / (1.0 - xi), -_EXP_CLIP, _EXP_CLIP)
    t = 1.0 / (1.0 + np.exp(u))
    out[inside] = np.sin(0.5 * np.pi * t)
    return float(out[0]) if scalar else out


def g0(x):
    """Even window ``g(x+1) * g(-x+1)``: supported on (-1, 1) with g0(0) = 1."""
    x = np.asarray(x, dtype=float)
    return smooth_step(x + 1.0) * smooth_step(1.0 - x)


def g1(x, alpha):
    """Asymmetric window ``g(x+1) * g(-2**alpha x + 1)``.

    Supported on (-1, 2**-alpha) with g1(0) = 1; the right flank steepens
    as ``alpha`` grows.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = np.asarray(x, dtype=float)
    return smooth_step(x + 1.0) * smooth_step(1.0 - (2.0 ** alpha) * x)


def g1_support(alpha):
    """Open support interval of ``g1(., alpha)``."""
    return (-1.0, 2.0 ** (-alpha))


def h(xi, j, alpha):
    """Frequency block ``h_j`` at points ``xi``.

    ``h_0`` is ``g0`` rescaled to (-(1-2**-alpha)/2, (1-2**-alpha)/2);
    for j >= 1, ``h_j`` is ``g1`` mapped affinely onto
    ((1-2**-(j-1)alpha)/2, (1-2**-(j+1)alpha)/2).  Every block vanishes
    outside (-1/2, 1/2).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if j < 0:
        raise ValueError("j must be >= 0")
    xi = np.asarray(xi, dtype=float)
    if j == 0:
        return g0(2.0 * xi / (1.0 - 2.0 ** (-alpha)))
    scale = 2.0 ** (j * alpha)
    return g1(scale * (2.0 * xi - 1.0 + 2.0 ** (-j * alpha)) / (2.0 ** alpha - 1.0), alpha)


def h_support(j, alpha):
    """Closed-form open support interval of ``h_j``."""
    if j == 0:
        half = (1.0 - 2.0 ** (-alpha)) / 2.0
        return (-half, half)
    lo = (1.0 - 2.0 ** (-(j - 1) * alpha)) / 2.0
    hi = (1.0 - 2.0 ** (-(j + 1) * alpha)) / 2.0
    return (lo, hi)


def partition_defect(alpha, J, exclusion_halfwidth, resolution=1 << 15):
    """Worst deviation of the truncated block partition from 1.

    Evaluates ``H_J = h_0**2 + sum_{j=1..J} (h_j(xi)**2 + h_j(-xi)**2)``
    on a uniform grid over (-1/2, 1/2) and returns
    ``max |H_J - 1|`` over grid points with
    ``|xi| < 1/2 - exclusion_halfwidth``.  With the exclusion covering the
    unfinished last half-block (halfwidth ``2**(-J*alpha)/2``), the paired
    flanks make ``H_J`` exactly 1 and the defect sits at rounding level.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    if exclusion_halfwidth < 0:
        raise ValueError("exclusion_halfwidth must be >= 0")
    xi = np.linspace(-0.5, 0.5, resolution, endpoint=False)[1:]
    keep = np.abs(xi) < 0.5 - exclusion_halfwidth
    xi = xi[keep]
    total = h(xi, 0, alpha) ** 2
    for j in range(1, J + 1):
        total += h(xi, j, alpha) ** 2 + h(-xi, j, alpha) ** 2
    return float(np.max(np.abs(total - 1.0)))

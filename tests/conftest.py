import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from sispace import (FrequencyGrid, GeneratorSpec, PsiParams, auto_grid,
                     build_bspline, build_psi_spectrum, build_sinc)


def pytest_configure(config):
    """Hypothesis caches constants read from the local sources in ./.hypothesis;
    keep that cache under pytest's own cache directory instead."""
    if getattr(config, "cache", None) is not None:
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


@pytest.fixture(scope="session")
def sinc_grid():
    return FrequencyGrid(1024, 16)


@pytest.fixture(scope="session")
def sinc_spectrum(sinc_grid):
    return build_sinc(sinc_grid)


@pytest.fixture(scope="session")
def bspline_grid():
    return FrequencyGrid(64, 1024)


@pytest.fixture(scope="session")
def bspline1(bspline_grid):
    return build_bspline(1, bspline_grid)


@pytest.fixture(scope="session")
def psi_small():
    """Banded generator at a desk-tiny truncation (J=3) with its auto grid."""
    params = PsiParams(1.0, 2.0, 2, 3)
    grid, _ = auto_grid(GeneratorSpec(kind="psi", psi=params))
    return params, grid, build_psi_spectrum(params, grid)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)

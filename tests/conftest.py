import numpy as np
import pytest

from lclab import (DifferencePipeline, Domain1D, Domain2D, Grid1D, PolarGrid,
                   eigen_spectrum, trace_map_norm)

DISK_LAM = 1e3


@pytest.fixture(scope="session")
def domain1d():
    return Domain1D(length=1.0, a1=5 / 16, a2=11 / 16)


@pytest.fixture(scope="session")
def grid1d(domain1d):
    return Grid1D(domain1d, 1024)


@pytest.fixture(scope="session")
def disk_domain():
    return Domain2D(lx=4.0, ly=4.0, center=(2.0, 2.0), radius=1.0)


@pytest.fixture(scope="session")
def polar_grid(disk_domain):
    return PolarGrid(disk_domain, nr_ext=32, ntheta=64)


@pytest.fixture(scope="session")
def disk_spectrum(polar_grid):
    """Nonzero spectrum of the resolvent difference at lam = 1e3: the
    |Gamma| eigenvalues z_k^T W z_k / z_k[Gamma] of the angular modes,
    with z_k the radial block of mode k solved against a unit load on the
    interface ring (see ``eigen_spectrum``), with the power-iteration norm
    (an independent check of the top) and the per-mode trace-map norm
    beside it."""
    pipe = DifferencePipeline(polar_grid)
    eigs = eigen_spectrum(polar_grid, DISK_LAM)
    return {"eigs": eigs, "pipe": pipe, "lam": DISK_LAM,
            "norm": pipe.norm(DISK_LAM),
            "s_norm": trace_map_norm(polar_grid)}


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)

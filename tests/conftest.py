import numpy as np
import pytest
import scipy.sparse as sp

from lclab import (DifferencePipeline, Domain1D, Domain2D, Grid1D, PolarGrid,
                   eigen_spectrum, trace_map_norm)

DISK_LAM = 1e3


def gamma1_matrix(grid, side):
    """Oracle: ``grid.gamma1_stencil`` as a sparse |Gamma| x n_nodes
    matrix.  Each row keeps the stencil's order (interface node first), so
    a product sums the three terms in the order of the formula."""
    coeffs, nodes = grid.gamma1_stencil(side)
    m = nodes.shape[0]
    return sp.csr_matrix((np.tile(coeffs, m), nodes.ravel(),
                          np.arange(0, 3 * m + 1, 3)),
                         shape=(m, grid.n_nodes))


@pytest.fixture(scope="session")
def domain1d():
    return Domain1D(length=1.0, a1=5 / 16, a2=11 / 16)


@pytest.fixture(scope="session")
def grid1d(domain1d):
    return Grid1D(domain1d, 1024)


@pytest.fixture(scope="session")
def disk_domain():
    return Domain2D(radius=1.0, outer_radius=2.0)


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

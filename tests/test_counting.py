import numpy as np
import pytest

from lclab import (DifferencePipeline, DomainError, Grid1D, PolarGrid,
                   ResourceLimitError, birman_disk_check,
                   birman_synthetic_check, circle_difference_eigenvalue,
                   counting_circle, counting_function, dense_eigen,
                   eigen_spectrum)
from lclab.counting import CIRCLE_MODE_CAP
from lclab.runner import TOLERANCES, default_config, run_experiment

LAM = 1e3


def densified_spectrum(grid, lam):
    """Oracle: the full spectrum of E_lam, densified one exterior basis
    vector at a time in the weighted inner product (two solves a column)."""
    pipe = DifferencePipeline(grid)
    sq = np.sqrt(grid.w_ext)
    dim = sq.size
    cols = np.empty((dim, dim))
    for j in range(dim):
        basis = np.zeros(dim)
        basis[j] = 1.0 / sq[j]
        cols[:, j] = sq * pipe.apply(lam, basis)
    return dense_eigen(0.5 * (cols + cols.T))


@pytest.mark.parametrize("make_grid", [
    lambda d1, d2: PolarGrid(d2, nr_ext=8, ntheta=16),
    lambda d1, d2: Grid1D(d1, 64),
], ids=["polar-8x16", "grid1d-64"])
def test_eigen_spectrum_matches_densified_oracle(make_grid, domain1d,
                                                 disk_domain):
    grid = make_grid(domain1d, disk_domain)
    eigs = eigen_spectrum(grid, LAM)
    oracle = densified_spectrum(grid, LAM)
    rank = grid.interface_idx.size
    assert eigs.shape == (rank,)
    assert np.all(np.diff(eigs) >= 0)
    top = np.abs(oracle).max()
    assert np.abs(eigs - oracle[-rank:]).max() <= 1e-10 * top
    # everything the reduction leaves out is zero in the oracle
    assert np.abs(oracle[:-rank]).max() <= 1e-10 * top


def test_disk_spectrum_positive_and_bounded_by_norm(disk_spectrum,
                                                    polar_grid):
    eigs = disk_spectrum["eigs"]
    assert eigs.size == polar_grid.interface_idx.size
    assert np.all(eigs > 0)
    assert abs(eigs.max() - disk_spectrum["norm"]) \
        <= 1e-6 * disk_spectrum["norm"]


def test_disk_spectrum_satisfies_birman_inequality(disk_spectrum):
    eigs = disk_spectrum["eigs"]
    top = float(eigs.max())
    mu_grid = np.geomspace(top / 100.0, top, 20)[::-1]
    rows = birman_disk_check(eigs, disk_spectrum["s_norm"], 1.0,
                             disk_spectrum["lam"], mu_grid,
                             slack=TOLERANCES["birman_disk_slack"])
    assert len(rows) == 20
    assert all(row["holds"] for row in rows)


@pytest.mark.parametrize("radius, lam, mu", [
    (1.0, 1e3, 1e-2), (1.0, 1e3, 1e-3), (2.5, 1e2, 4e-3), (0.5, 1.0, 0.3),
    (1.0, 1e3, 0.1),
])
def test_counting_circle_matches_enumeration(radius, lam, mu):
    k_max = 10 * int(radius / mu) + 10
    brute = sum(circle_difference_eigenvalue(radius, lam, k) > mu
                for k in range(-k_max, k_max + 1))
    assert counting_circle(radius, lam, mu) == brute


def test_counting_circle_refuses_to_truncate():
    # R (1/mu - lam mu) / 2 = 5e7 modes to enumerate, above the cap
    assert CIRCLE_MODE_CAP < 5 * 10 ** 7
    with pytest.raises(ResourceLimitError):
        counting_circle(1.0, 1e3, 1e-8)


def test_counting_function_is_strict_and_needs_positive_mu():
    assert counting_function([0.5, 1.0, 2.0], 1.0) == 1
    with pytest.raises(DomainError):
        counting_function([1.0], 0.0)


def test_birman_synthetic_check_finds_no_violation():
    assert birman_synthetic_check() == 0


def test_weyl_artifacts_are_byte_identical(tmp_path):
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        status, _ = run_experiment(default_config("weyl"), out_dir=out)
        assert status == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["summary.json", "weyl.csv"]
        digests.append({name: (out / name).read_bytes() for name in names})
    assert digests[0] == digests[1]

import math

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from scipy.special import iv

from lclab import (ContractError, Domain1D, Domain2D, DomainError, Grid1D,
                   PolarGrid)
from lclab.kernels import require_symmetric

from conftest import gamma1_matrix


def _loop_assemble(n_nodes, links):
    """Stiffness from a list of (i, j, c) links, one link at a time."""
    rows, cols, vals = [], [], []
    for i, j, c in links:
        rows += [i, j, i, j]
        cols += [i, j, j, i]
        vals += [c, c, -c, -c]
    return sp.coo_matrix((vals, (rows, cols)), shape=(n_nodes, n_nodes)).tocsr()


def _loop_reference(grid):
    """Links of the whole grid and of the closed inclusion, and the
    inclusion's cell measures, built by the original per-link loops."""
    if grid.dim == 1:
        full = [(i, i + 1, 1.0 / grid.h) for i in range(grid.n)]
        n_loc = grid.int_idx.size
        interior = [(i, i + 1, 1.0 / grid.h) for i in range(n_loc - 1)]
        w = np.full(n_loc, grid.h)
        w[0] = w[-1] = grid.h / 2
        return full, interior, w
    nth, hr, ht = grid.ntheta, grid.hr, grid.htheta

    def node(ring, j):
        return 0 if ring == 0 else 1 + (ring - 1) * nth + (j % nth)

    full = [(0, node(1, j), ht / 2.0) for j in range(nth)]
    for ring in range(1, grid.ntot):
        coeff = (ring + 0.5) * hr * ht / hr
        full += [(node(ring, j), node(ring + 1, j), coeff) for j in range(nth)]
    for ring in range(1, grid.ntot + 1):
        extent = hr if ring < grid.ntot else hr / 2.0
        coeff = extent / (ring * hr * ht)
        full += [(node(ring, j), node(ring, j + 1), coeff) for j in range(nth)]

    local = {g: l for l, g in enumerate(grid.int_idx)}
    interior = [(0, local[node(1, j)], ht / 2.0) for j in range(nth)]
    for ring in range(1, grid.nr_int):
        coeff = (ring + 0.5) * hr * ht / hr
        interior += [(local[node(ring, j)], local[node(ring + 1, j)], coeff)
                     for j in range(nth)]
    for ring in range(1, grid.nr_int + 1):
        # interface ring cells are halved on the inclusion side
        extent = hr if ring < grid.nr_int else hr / 2.0
        coeff = extent / (ring * hr * ht)
        interior += [(local[node(ring, j)], local[node(ring, j + 1)], coeff)
                     for j in range(nth)]
    w = grid.w_full[grid.int_idx].copy()
    r = grid.r_inc
    w[-nth:] = (r ** 2 - (r - hr / 2) ** 2) / 2.0 * ht
    return full, interior, w


def _same_csr(a, b):
    return (np.array_equal(a.data, b.data)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.indptr, b.indptr))


def _stencil_formula(grid, u, side):
    """gamma1 written out as the one-sided (3, -4, 1) / (2 h) formula."""
    if grid.dim == 1:
        i1, i2, h = grid.i1, grid.i2, grid.h
        if side == "exterior":
            left = (3 * u[i1] - 4 * u[i1 - 1] + u[i1 - 2]) / (2 * h)
            right = (3 * u[i2] - 4 * u[i2 + 1] + u[i2 + 2]) / (2 * h)
        else:
            left = (-3 * u[i1] + 4 * u[i1 + 1] - u[i1 + 2]) / (2 * h)
            right = -(3 * u[i2] - 4 * u[i2 - 1] + u[i2 - 2]) / (2 * h)
        return np.array([left, right])
    rings = u[1:].reshape(grid.ntot, grid.ntheta)
    k = grid.nr_int - 1
    step = 1 if side == "exterior" else -1
    u0, u1, u2 = rings[k], rings[k + step], rings[k + 2 * step]
    return step * (3 * u0 - 4 * u1 + u2) / (2 * grid.hr)


def test_interface_must_sit_on_nodes(domain1d):
    with pytest.raises(DomainError):
        Grid1D(domain1d, 500)  # 5/16 * 500 is not an integer
    grid = Grid1D(domain1d, 512)
    assert grid.x[grid.i1] == domain1d.a1 and grid.x[grid.i2] == domain1d.a2


def test_coupled_operator_matches_hand_assembly():
    # L = 1, h = 1/8, inclusion (1/4, 3/4), lam = 1: the three interior
    # nodes gain +1, the two interface nodes gain their half-cell +1/2,
    # and the outer nodes carry the mirror closure.  Two exterior cells
    # per side, as the gamma1 stencils need.
    grid = Grid1D(Domain1D(1.0, 0.25, 0.75), 8)
    op = grid.assemble_coupled(1.0)
    dense = np.diag(1.0 / op.mass) @ op.matrix.toarray()
    h2 = 64.0
    expected = np.array([
        [2 * h2, -2 * h2, 0, 0, 0, 0, 0, 0, 0],
        [-h2, 2 * h2, -h2, 0, 0, 0, 0, 0, 0],
        [0, -h2, 2 * h2 + 0.5, -h2, 0, 0, 0, 0, 0],
        [0, 0, -h2, 2 * h2 + 1.0, -h2, 0, 0, 0, 0],
        [0, 0, 0, -h2, 2 * h2 + 1.0, -h2, 0, 0, 0],
        [0, 0, 0, 0, -h2, 2 * h2 + 1.0, -h2, 0, 0],
        [0, 0, 0, 0, 0, -h2, 2 * h2 + 0.5, -h2, 0],
        [0, 0, 0, 0, 0, 0, -h2, 2 * h2, -h2],
        [0, 0, 0, 0, 0, 0, 0, -2 * h2, 2 * h2],
    ])
    assert np.allclose(dense, expected)


def test_coupled_rejects_nonpositive_coupling(grid1d):
    with pytest.raises(DomainError):
        grid1d.assemble_coupled(0.0)


def test_quadratic_form_is_gradient_plus_potential(grid1d, rng):
    lam = 7.0
    op = grid1d.assemble_coupled(lam)
    u = rng.standard_normal(grid1d.n_nodes)
    grad = np.diff(u) / grid1d.h
    expected = np.sum(grad ** 2 * grid1d.h) \
        + lam * np.sum(grid1d.pot_measure * u * u)
    assert op.quadratic_form(u) == pytest.approx(expected, rel=1e-12)
    assert op.quadratic_form(u) >= 0


def test_traced_methods_stay_on_each_grid_class():
    # bench/tracing.py wraps __init__ and assemble_* from vars() of each
    # concrete grid class; a method only inherited from _Grid escapes it
    for cls in (Grid1D, PolarGrid):
        for name in ("__init__", "assemble_coupled", "assemble_exterior"):
            assert name in vars(cls), (cls.__name__, name)


def test_array_links_match_loop_assembly(grid1d, polar_grid, disk_domain):
    lam = 5.0
    for grid in (PolarGrid(disk_domain, nr_ext=8, ntheta=16), polar_grid,
                 grid1d):
        full, interior, w_int = _loop_reference(grid)
        assert _same_csr(grid._stiffness, _loop_assemble(grid.n_nodes, full))
        op = grid.assemble_interior_neumann(lam)
        expected = (_loop_assemble(grid.int_idx.size, interior)
                    + sp.diags(lam * w_int)).tocsr()
        assert _same_csr(op.matrix, expected)
        assert np.array_equal(op.mass, w_int)


def test_gamma1_matrix_is_the_one_sided_stencil(grid1d, polar_grid, rng):
    # h and hr are powers of two here, so the scaled coefficients are exact
    # and the matrix rows sum in the formula's order: equal bit for bit
    for grid in (grid1d, polar_grid):
        u = rng.standard_normal(grid.n_nodes)
        for side in ("exterior", "interior"):
            mat = gamma1_matrix(grid, side)
            assert mat.shape == (grid.interface_idx.size, grid.n_nodes)
            assert np.all(np.diff(mat.indptr) == 3)
            formula = _stencil_formula(grid, u, side)
            assert np.array_equal(mat @ u, formula)
            assert np.array_equal(grid.trace_gamma1(u, side), formula)
            # leading axes batch
            batch = grid.trace_gamma1(np.stack([u, 2 * u]), side)
            assert np.array_equal(batch, np.stack([formula, 2 * formula]))


BAND_GRIDS = pytest.mark.parametrize("make_grid", [
    lambda d1, d2: Grid1D(d1, 64),
    lambda d1, d2: PolarGrid(d2, nr_ext=8, ntheta=16),
    lambda d1, d2: PolarGrid(d2, nr_ext=12, ntheta=15),  # odd: no Nyquist
], ids=["grid1d", "polar-8x16", "polar-12x15"])


@BAND_GRIDS
def test_band_products_are_the_sparse_operators(make_grid, domain1d,
                                                disk_domain, rng):
    grid = make_grid(domain1d, disk_domain)
    u = rng.standard_normal((2, grid.n_nodes))
    assert np.allclose(grid.from_modes(grid.to_modes(u)), u,
                       rtol=0.0, atol=1e-14)
    coupled, exterior = grid.assemble_coupled(5.0), grid.assemble_exterior()
    v = grid.restrict(u)
    au = grid.apply_coupled(5.0, u)
    # on exterior rows the coupled operator acts on extend(v) as the
    # exterior operator on v
    bv = grid.restrict(grid.apply_coupled(5.0, grid.extend(v)))
    for b in range(2):
        assert np.allclose(au[b], coupled.apply(u[b]), rtol=1e-12, atol=1e-10)
        assert np.allclose(bv[b], exterior.apply(v[b]), rtol=1e-12, atol=1e-10)


@BAND_GRIDS
def test_cached_bands_are_read_only_and_match_a_fresh_build(
        make_grid, domain1d, disk_domain):
    grid = make_grid(domain1d, disk_domain)
    lower, diag, upper = grid.mode_bands(1e3)
    for band in (lower, upper, *grid._bands):
        with pytest.raises(ValueError):
            band[..., 0] = 1.0
    diag[...] = 0.0  # each call's diag belongs to its caller
    for lam in (1e3, 10.0):
        cached = grid.mode_bands(lam)
        assert cached[0] is lower and cached[2] is upper
        fresh = make_grid(domain1d, disk_domain).mode_bands(lam)
        for got, want in zip(cached, fresh):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@BAND_GRIDS
def test_interface_layout_locates_gamma_in_the_blocks(make_grid, domain1d,
                                                      disk_domain, rng):
    grid = make_grid(domain1d, disk_domain)
    assert grid.mode_multiplicity.sum() == (
        1 if isinstance(grid, Grid1D) else grid.ntheta)
    u, v = rng.standard_normal((2, grid.n_nodes))
    cu, cv = grid.to_modes(u), grid.to_modes(v)
    # row_measure and mode_multiplicity give the weighted inner product
    per_block = np.sum(grid.row_measure * cu * np.conj(cv), axis=-1).real
    assert per_block @ grid.mode_multiplicity == pytest.approx(
        grid.inner_full(u, v), rel=1e-12)
    # exterior fields live on ext_rows
    rows = np.flatnonzero(np.abs(grid.to_modes(grid.extend(
        grid.restrict(u)))).max(axis=0) > 0.0)
    assert np.array_equal(rows, grid.ext_rows)
    # gamma_rows names the nodes of the exterior gamma1 stencil: the
    # stencil applied to the block rows is the trace in the blocks
    coeffs = grid.gamma1_stencil("exterior")[0]
    trace = np.zeros(grid.n_nodes)
    trace[grid.interface_idx] = grid.trace_gamma1(u, "exterior")
    want = grid.to_modes(trace)[..., grid.gamma_rows[:, 0]]
    got = cu[..., grid.gamma_rows] @ coeffs
    assert np.allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())


def test_gamma1_needs_two_layers_per_side(disk_domain):
    # a grid without two node layers behind Gamma on some side is
    # rejected when it is built, before any consumer indexes a layer
    for build in (
            # one ring a side
            lambda: PolarGrid(disk_domain, nr_ext=1, ntheta=8),
            # R / hr = 2: the second interior layer would be the origin
            lambda: PolarGrid(disk_domain, nr_ext=2, ntheta=8),
            # one exterior cell a side
            lambda: Grid1D(Domain1D(1.0, 0.25, 0.75), 4)):
        with pytest.raises(DomainError, match="two layers"):
            build()
    # the coarsest grids that fit: three rings, two exterior cells a side
    for grid in (PolarGrid(disk_domain, nr_ext=3, ntheta=8),
                 Grid1D(Domain1D(1.0, 0.25, 0.75), 8)):
        for side in ("exterior", "interior"):
            assert np.all(grid.trace_gamma1(np.zeros(grid.n_nodes), side) == 0)


def test_assemblies_are_symmetric(grid1d, polar_grid):
    for op in (grid1d.assemble_coupled(5.0), grid1d.assemble_exterior(),
               grid1d.assemble_interior_neumann(5.0),
               polar_grid.assemble_coupled(5.0),
               polar_grid.assemble_exterior(),
               polar_grid.assemble_interior_neumann(5.0)):
        require_symmetric(op.matrix, tol=1e-14)


def test_exterior_operator_eigenvalue_oracle(domain1d):
    # smallest eigenvalue of the mixed problem on (a2, L) is (pi/(2 len))^2
    exact = (np.pi / (2 * (1.0 - domain1d.a2))) ** 2
    errors = {}
    for n in (256, 512):
        grid = Grid1D(domain1d, n)
        op = grid.assemble_exterior()
        w = np.diag(1.0 / np.sqrt(grid.w_ext))
        vals = np.linalg.eigvalsh(w @ op.matrix.toarray() @ w)
        errors[n] = abs(vals[0] - exact) / exact
    assert errors[256] / errors[512] == pytest.approx(4.0, abs=0.6)
    assert errors[512] < 1e-4


def test_exterior_operator_has_no_constant_kernel(grid1d, polar_grid):
    for grid in (grid1d, polar_grid):
        op = grid.assemble_exterior()
        ones = np.ones(grid.ext_idx.size)
        assert np.abs(op.apply(ones)).max() > 1.0


def test_interior_screened_constant_source(grid1d, polar_grid):
    # (-Lap + lam) w = 1 with zero flux data has the exact solution 1/lam
    lam = 100.0
    for grid in (grid1d, polar_grid):
        op = grid.assemble_interior_neumann(lam)
        w = op.solve(np.ones(grid.int_idx.size))
        assert np.abs(w - 1.0 / lam).max() < 1e-10


def test_interior_screened_monotone_in_coupling(grid1d, polar_grid, rng):
    for grid in (grid1d, polar_grid):
        f = rng.uniform(0.5, 1.0, size=grid.int_idx.size)
        n1 = np.linalg.norm(grid.assemble_interior_neumann(10.0).solve(f))
        n2 = np.linalg.norm(grid.assemble_interior_neumann(100.0).solve(f))
        assert n2 < n1


@pytest.mark.parametrize("lam", [np.nan, np.inf, 0.5])
def test_interior_assembly_rejects_a_coupling_outside_one_to_inf(
        grid1d, polar_grid, lam):
    # a NaN passes a plain lam < 1 test and assembled an operator of NaNs
    for grid in (grid1d, polar_grid):
        with pytest.raises(DomainError, match="1 <= lam < inf"):
            grid.assemble_interior_neumann(lam)


def test_restrict_extend_roundtrip_and_adjointness(grid1d, polar_grid, rng):
    for grid in (grid1d, polar_grid):
        g = rng.standard_normal(grid.ext_idx.size)
        assert np.array_equal(grid.restrict(grid.extend(g)), g)
        full = grid.extend(g)
        assert np.abs(full[grid.interface_idx]).max() == 0.0
        assert np.abs(full[grid.int_idx]).max() == 0.0 if grid.dim == 1 \
            else np.abs(full[: grid.interface_idx[0]]).max() == 0.0
        f = rng.standard_normal(grid.n_nodes)
        lhs = grid.inner_ext(grid.restrict(f), g)
        rhs = grid.inner_full(f, grid.extend(g))
        assert abs(lhs - rhs) <= 1e-14 * max(abs(lhs), 1.0)


def test_restrict_shape_contract(grid1d):
    with pytest.raises(ContractError):
        grid1d.restrict(np.zeros(3))
    with pytest.raises(ContractError):
        grid1d.extend(np.zeros(grid1d.n_nodes))


def test_traces_of_constants_and_linears(grid1d):
    c = np.full(grid1d.n_nodes, 3.25)
    assert np.allclose(grid1d.trace_gamma0(c), 3.25)
    for side in ("interior", "exterior"):
        assert np.abs(grid1d.trace_gamma1(c, side)).max() < 1e-12
    # field = x is linear, so the one-sided stencils are exact: the trace
    # normal points into the inclusion (+1 at a1, -1 at a2)
    x = grid1d.x.copy()
    assert np.allclose(grid1d.trace_gamma1(x, "exterior"), [1.0, -1.0])
    assert np.allclose(grid1d.trace_gamma1(x, "interior"), [1.0, -1.0])


def test_trace_side_validation(grid1d):
    with pytest.raises(DomainError):
        grid1d.trace_gamma1(np.zeros(grid1d.n_nodes), "above")


def test_polar_radial_trace_oracle(disk_domain):
    # field r^2: d/dr = 2R on the ring, normal -r, so gamma1 = -2R exactly
    # up to the O(h^2) stencil error
    errors = []
    for nr in (16, 32):
        grid = PolarGrid(disk_domain, nr_ext=nr, ntheta=16)
        rings = np.concatenate([[0.0], np.repeat(grid.radii, grid.ntheta)])
        field = rings ** 2
        for side in ("exterior", "interior"):
            got = grid.trace_gamma1(field, side)
            errors.append(np.abs(got + 2 * grid.r_inc).max())
    assert max(errors) < 1e-10  # quadratic field: 3-point stencil is exact


def test_polar_weights_tile_the_disk(polar_grid):
    total = polar_grid.w_full.sum()
    assert total == pytest.approx(np.pi * polar_grid.r_out ** 2, rel=1e-12)
    inclusion = polar_grid.pot_measure.sum()
    assert inclusion == pytest.approx(np.pi * polar_grid.r_inc ** 2, rel=1e-12)


def test_polar_interface_is_grid_ring(disk_domain):
    grid = PolarGrid(disk_domain, nr_ext=8, ntheta=16)
    assert grid.nr_int * grid.hr == pytest.approx(grid.r_inc)
    with pytest.raises(DomainError):
        # R = 0.7, hr = (2 - 0.7) / 8: R / hr = 4.3 is not an integer
        PolarGrid(Domain2D(0.7, 2.0), nr_ext=8, ntheta=16)


def test_screened_extension_matches_closed_form(domain1d, disk_domain):
    # oracle: w = c1 cosh(k(x - a1)) + c2 sinh(k(x - a1)) fitted to the
    # flux data in the into-inclusion orientation
    lam, phi = 400.0, np.array([0.8, -0.3])
    k = math.sqrt(lam)
    ell = domain1d.inclusion_length
    c2 = phi[0] / k
    c1 = (-phi[1] / k - c2 * math.cosh(k * ell)) / math.sinh(k * ell)
    errors = {}
    for n in (256, 512):
        grid = Grid1D(domain1d, n)
        w = grid.screened_extension(lam, phi)
        xs = grid.x[grid.int_idx] - domain1d.a1
        exact = c1 * np.cosh(k * xs) + c2 * np.sinh(k * xs)
        errors[n] = np.abs(w[grid.int_idx] - exact).max() / np.abs(exact).max()
    assert errors[256] / errors[512] == pytest.approx(4.0, abs=0.8)
    assert errors[512] < 5e-4

    # disk, constant flux c on the ring: w = A I0(k r) with -A k I1(k R) = c
    lam, c = 9.0, 0.7
    k = math.sqrt(lam)
    errors = {}
    for nr in (16, 32):
        grid = PolarGrid(disk_domain, nr_ext=nr, ntheta=16)
        w = grid.screened_extension(lam, np.full(grid.ntheta, c))
        r = np.concatenate([[0.0], np.repeat(grid.radii, grid.ntheta)])
        exact = -c / (k * iv(1, k * grid.r_inc)) * iv(0, k * r[grid.int_idx])
        errors[nr] = np.abs(w[grid.int_idx] - exact).max() / np.abs(exact).max()
    assert errors[16] / errors[32] == pytest.approx(4.0, abs=0.8)
    assert errors[32] < 2e-3


def test_screened_extension_zero_data(grid1d, polar_grid):
    for grid in (grid1d, polar_grid):
        phi = np.zeros(grid.interface_idx.size)
        assert np.abs(grid.screened_extension(9.0, phi)).max() == 0.0


def test_screened_extension_boundary_layer_decay(domain1d):
    lam = 1e4
    grid = Grid1D(domain1d, 1024)
    w = grid.screened_extension(lam, np.array([1.0, 0.0]))
    vals = np.abs(w[grid.i1:grid.i1 + 40])
    ratios = vals[1:] / vals[:-1]
    # discrete decay rate approximates exp(-sqrt(lam) h)
    expected = math.exp(-math.sqrt(lam) * grid.h)
    assert np.allclose(ratios[5:30], expected, rtol=0.05)


def test_transmission_zero_source(grid1d):
    assert np.abs(grid1d.solve_coupled(50.0, np.zeros(grid1d.n_nodes))
                  ).max() == 0.0


def test_transmission_trace_agreement(grid1d):
    f = np.zeros(grid1d.n_nodes)
    mask = grid1d.x < grid1d.domain.a1
    f[mask] = np.sin(np.pi * grid1d.x[mask] / grid1d.domain.a1)
    u = grid1d.solve_coupled(1e3, f)
    # the gamma0 traces agree by construction: the interface nodes are shared
    g1_ext = grid1d.trace_gamma1(u, "exterior")
    g1_int = grid1d.trace_gamma1(u, "interior")
    assert np.abs(g1_ext - g1_int).max() < 5e-3 * np.abs(g1_ext).max()


def test_transmission_monotone_in_coupling(grid1d):
    f = np.zeros(grid1d.n_nodes)
    mask = (grid1d.x > 0.75) & (grid1d.x < 0.9)
    f[mask] = 1.0
    u1 = grid1d.solve_coupled(10.0, f)
    u2 = grid1d.solve_coupled(1000.0, f)
    assert u2.min() >= -1e-12
    assert np.all(u1 - u2 >= -1e-12)


def test_matrix_export_roundtrip(grid1d, tmp_path):
    op = grid1d.assemble_exterior()
    path = tmp_path / "matrix.mtx"
    op.export_matrix_market(path)
    rebuilt = scipy.io.mmread(path)
    assert np.array_equal(rebuilt.toarray(), op.matrix.toarray())

"""Edge-element mesh/assembly tests: counting identities, a quadrature
oracle for the mass matrix, structural (de Rham) identities, and
interpolation/error-norm behavior."""

import numpy as np
import pytest

from hnmaxwell.fem import (
    MaxwellMesh,
    _edge_grids,
    assemble,
    assemble_cell_load,
    assemble_edge_load,
    interpolate_E,
    interpolate_H,
    l2_error,
)
from hnmaxwell.stepper import exact_E

GAUSS_X = np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
GAUSS_W = np.array([5.0, 8.0, 5.0]) / 9.0

# reference edge basis on the unit cell, order: bottom, top, left, right
BASIS = [
    lambda xh, yh: (1.0 - yh, 0.0 * xh),
    lambda xh, yh: (yh, 0.0 * xh),
    lambda xh, yh: (0.0 * xh, 1.0 - xh),
    lambda xh, yh: (0.0 * xh, xh),
]


def mass_matrix_by_quadrature(mesh):
    """Dense edge mass matrix assembled from 3x3 Gauss products (oracle)."""
    m = np.zeros((mesh.n_edges, mesh.n_edges))
    ce = mesh.cell_edges
    locs = [ce["bottom"], ce["top"], ce["left"], ce["right"]]
    jac = 0.25 * mesh.hx * mesh.hy
    for a in range(4):
        for b in range(4):
            val = 0.0
            for p in range(3):
                for q in range(3):
                    xh, yh = 0.5 * (GAUSS_X[p] + 1.0), 0.5 * (GAUSS_X[q] + 1.0)
                    ax, ay = BASIS[a](xh, yh)
                    bx, by = BASIS[b](xh, yh)
                    val += GAUSS_W[p] * GAUSS_W[q] * (ax * bx + ay * by)
            for cell in range(mesh.n_cells):
                m[locs[a][cell], locs[b][cell]] += jac * val
    return m


def dofs_as_closure(mesh, dofs):
    """Evaluate the discrete edge field at arbitrary interior points."""
    e_x, e_y = _edge_grids(mesh, dofs)

    def field(x, y, t):
        ix = np.clip(np.floor(np.asarray(x) / mesh.hx).astype(int), 0, mesh.nx - 1)
        iy = np.clip(np.floor(np.asarray(y) / mesh.hy).astype(int), 0, mesh.ny - 1)
        xh = np.asarray(x) / mesh.hx - ix
        yh = np.asarray(y) / mesh.hy - iy
        e1 = e_x[iy, ix] * (1.0 - yh) + e_x[iy + 1, ix] * yh
        e2 = e_y[iy, ix] * (1.0 - xh) + e_y[iy, ix + 1] * xh
        return e1, e2

    return field


LAYOUT_MESHES = [(1, 1), (1, 4), (4, 1), (3, 2), (5, 7)]


def horizontal_dof(mesh, ix, iy):
    return iy * mesh.nx + ix


def vertical_dof(mesh, ix, iy):
    return mesh.nx * (mesh.ny + 1) + iy * (mesh.nx + 1) + ix


class TestMeshCounts:
    def test_unit_mesh_fully_constrained(self):
        mesh = MaxwellMesh(1, 1)
        assert mesh.n_edges == 4
        assert mesh.n_cells == 1
        assert mesh.free_edges.size == 0
        assert mesh.boundary_edges.size == 4

    def test_two_by_one(self):
        mesh = MaxwellMesh(2, 1)
        assert mesh.n_edges == 2 * 2 + 3 * 1 == 7
        assert mesh.n_cells == 2

    def test_large_counts(self):
        mesh = MaxwellMesh(100, 100)
        assert mesh.n_edges == 20200
        assert mesh.n_cells == 10000

    def test_invalid(self):
        with pytest.raises(ValueError):
            MaxwellMesh(0, 3)


class TestEdgeLayout:
    """The flat edge numbering, written out: horizontal edge (ix, iy) is
    iy nx + ix, vertical edge (ix, iy) is nx (ny+1) + iy (nx+1) + ix."""

    @pytest.mark.parametrize("nx,ny", LAYOUT_MESHES)
    def test_index_tables_follow_the_flat_numbering(self, nx, ny):
        mesh = MaxwellMesh(nx, ny)
        cells = [(ix, iy) for iy in range(ny) for ix in range(nx)]
        ce = mesh.cell_edges
        assert ce["bottom"].tolist() == [horizontal_dof(mesh, ix, iy) for ix, iy in cells]
        assert ce["top"].tolist() == [horizontal_dof(mesh, ix, iy + 1) for ix, iy in cells]
        assert ce["left"].tolist() == [vertical_dof(mesh, ix, iy) for ix, iy in cells]
        assert ce["right"].tolist() == [vertical_dof(mesh, ix + 1, iy) for ix, iy in cells]
        boundary = {horizontal_dof(mesh, ix, iy) for ix in range(nx) for iy in (0, ny)}
        boundary |= {vertical_dof(mesh, ix, iy) for ix in (0, nx) for iy in range(ny)}
        assert mesh.boundary_edges.tolist() == sorted(boundary)
        assert mesh.free_edges.tolist() == sorted(set(range(mesh.n_edges)) - boundary)

    @pytest.mark.parametrize("nx,ny", LAYOUT_MESHES)
    def test_interpolant_puts_each_midpoint_value_on_its_dof(self, nx, ny):
        mesh = MaxwellMesh(nx, ny)

        def field(x, y, t):
            return 1.0 + 2.0 * x + 3.0 * y, -5.0 + 7.0 * x - 11.0 * y

        hx, hy = mesh.hx, mesh.hy
        want = np.full(mesh.n_edges, np.nan)
        for iy in range(ny + 1):
            for ix in range(nx):
                want[horizontal_dof(mesh, ix, iy)] = field((ix + 0.5) * hx, iy * hy, 0.0)[0]
        for iy in range(ny):
            for ix in range(nx + 1):
                want[vertical_dof(mesh, ix, iy)] = field(ix * hx, (iy + 0.5) * hy, 0.0)[1]
        assert np.array_equal(interpolate_E(mesh, field), want)


class TestAssembly:
    def test_mass_matrix_matches_quadrature_oracle(self):
        mesh = MaxwellMesh(2, 2)
        ops = assemble(mesh)
        oracle = mass_matrix_by_quadrature(mesh)
        assert np.max(np.abs(ops.m_e_full - oracle)) < 1e-14

    def test_curl_of_gradient_vanishes_exactly(self):
        ops = assemble(MaxwellMesh(5, 4))
        # products rounded one by one, as in a sparse product (no fused multiply-add)
        cg = (ops.c_full[:, :, None] * ops.grad_full).sum(axis=1)
        assert np.max(np.abs(cg)) == 0.0

    def test_mass_positive_definite(self):
        rng = np.random.default_rng(11)
        for n in (4, 16, 32):
            mesh = MaxwellMesh(n, n)
            m_e = assemble(mesh).m_e_full[mesh.free_edges][:, mesh.free_edges]
            for _ in range(5):
                x = rng.normal(size=m_e.shape[0])
                assert x @ (m_e @ x) > 0.0

    def test_mass_symmetric(self):
        mesh = MaxwellMesh(8, 8)
        m_e = assemble(mesh).m_e_full[mesh.free_edges][:, mesh.free_edges]
        assert np.max(np.abs(m_e - m_e.T)) < 1e-15

    def test_curl_row_is_circulation(self):
        mesh = MaxwellMesh(3, 2)
        ops = assemble(mesh)
        rng = np.random.default_rng(5)
        e = rng.normal(size=mesh.n_edges)
        ce = mesh.cell_edges
        circ = (
            mesh.hx * (e[ce["bottom"]] - e[ce["top"]])
            + mesh.hy * (e[ce["right"]] - e[ce["left"]])
        )
        assert np.allclose(ops.c_full @ e, circ, rtol=1e-14, atol=1e-16)

    def test_constant_fields_in_curl_kernel(self):
        mesh = MaxwellMesh(6, 5)
        ops = assemble(mesh)
        e = interpolate_E(mesh, lambda x, y, t: (3.0 + 0.0 * x, -2.0 + 0.0 * y), 0.0)
        assert np.max(np.abs(ops.c_full @ e)) == 0.0

    def test_cell_mass_diagonal(self):
        mesh = MaxwellMesh(4, 7)
        ops = assemble(mesh)
        assert np.allclose(ops.m_h_diag, mesh.hx * mesh.hy)


class TestModalNorms:
    @pytest.mark.parametrize("nx,ny", [(32, 32), (5, 7), (1, 4), (4, 1)])
    def test_parseval_norms_match_mass_matrices(self, nx, ny):
        # squared norms of modal H equal h^T M_H h of its dofs (the E side is
        # checked in the step basis, tests/test_stepper.py::TestStepBasis)
        mesh = MaxwellMesh(nx, ny)
        ops, modes = assemble(mesh), mesh.modes
        rng = np.random.default_rng(nx * 100 + ny)
        for _ in range(3):
            h = rng.normal(size=mesh.n_cells)
            want_h = h @ (ops.m_h_diag * h)
            assert modes.cell_norm_sq(modes.cells_to_modes(h)) == pytest.approx(want_h, rel=1e-13)


class TestInterpolation:
    def test_zero_field(self):
        mesh = MaxwellMesh(3, 3)
        dofs = interpolate_E(mesh, lambda x, y, t: (0.0 * x, 0.0 * y), 0.0)
        assert np.array_equal(dofs, np.zeros(mesh.n_edges))

    def test_gradient_commutes(self):
        # interpolant of grad(xy) equals G applied to the nodal values of xy
        mesh = MaxwellMesh(4, 3)
        ops = assemble(mesh)
        ix, iy = np.meshgrid(np.arange(mesh.nx + 1), np.arange(mesh.ny + 1))
        nodal = (ix * mesh.hx * iy * mesh.hy).ravel()  # nodes are row-major
        via_grad = ops.grad_full @ nodal
        direct = interpolate_E(mesh, lambda x, y, t: (y, x), 0.0)
        assert np.allclose(via_grad, direct, atol=1e-14)

    def test_interpolate_H_center_values(self):
        mesh = MaxwellMesh(2, 2)
        h = interpolate_H(mesh, lambda x, y, t: x + 10.0 * y, 0.0)
        assert h[0] == pytest.approx(0.25 + 2.5)
        assert h[3] == pytest.approx(0.75 + 7.5)


class TestL2Error:
    def test_zero_against_zero(self):
        mesh = MaxwellMesh(3, 3)
        assert l2_error(mesh, np.zeros(mesh.n_edges), lambda x, y, t: (0 * x, 0 * y), 0.0, "edge") == 0.0

    def test_constant_cell_field_reproduced(self):
        mesh = MaxwellMesh(5, 5)
        h = interpolate_H(mesh, lambda x, y, t: 2.5 + 0.0 * x, 0.0)
        assert l2_error(mesh, h, lambda x, y, t: 2.5 + 0.0 * x, 0.0, "cell") < 1e-14

    def test_interpolation_first_order(self):
        errs = []
        for n in (8, 16, 32):
            mesh = MaxwellMesh(n, n)
            dofs = interpolate_E(mesh, exact_E, 1.0)
            errs.append(l2_error(mesh, dofs, exact_E, 1.0, "edge"))
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine == pytest.approx(2.0, abs=0.25)

    def test_unknown_kind(self):
        mesh = MaxwellMesh(2, 2)
        with pytest.raises(ValueError):
            l2_error(mesh, np.zeros(mesh.n_cells), lambda x, y, t: 0 * x, 0.0, "node")


class TestLoads:
    def test_edge_load_consistent_with_mass(self):
        # for f in the discrete space, (f, phi_i) must equal (M e)_i exactly
        mesh = MaxwellMesh(4, 5)
        ops = assemble(mesh)
        rng = np.random.default_rng(2)
        e = rng.normal(size=mesh.n_edges)
        load = assemble_edge_load(mesh, dofs_as_closure(mesh, e), 0.0)
        assert np.allclose(load, ops.m_e_full @ e, atol=1e-14)

    def test_cell_load_consistent_with_mass(self):
        mesh = MaxwellMesh(6, 3)
        ops = assemble(mesh)
        rng = np.random.default_rng(8)
        h = rng.normal(size=mesh.n_cells)

        def field(x, y, t):
            ix = np.clip(np.floor(x / mesh.hx).astype(int), 0, mesh.nx - 1)
            iy = np.clip(np.floor(y / mesh.hy).astype(int), 0, mesh.ny - 1)
            return h[iy * mesh.nx + ix]

        load = assemble_cell_load(mesh, field, 0.0)
        assert np.allclose(load, ops.m_h_diag * h, atol=1e-15)

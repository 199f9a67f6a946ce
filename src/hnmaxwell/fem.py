"""Lowest-order rectangular edge elements on the unit square.

Mesh and spaces
---------------
Uniform nx-by-ny grid on (0,1)^2.  The electric field E and polarization P
live in the curl-conforming edge space: horizontal edges carry the
x-component dof, vertical edges the y-component dof, each the tangential
value at the edge midpoint.  On a cell the x-component is constant in x and
a linear hat in y (and symmetrically for the y-component).  The magnetic
field H is piecewise constant, one dof per cell.

An edge-dof vector is two x-fastest grids, rows y and columns x (the one
definition of the layout is :func:`_edge_grids`): E_x on the (ny+1, nx)
horizontal edges, then E_y on the (ny, nx+1) vertical edges.  Cell (iy, ix)
has bottom and top edges E_x[iy, ix] and E_x[iy+1, ix], left and right edges
E_y[iy, ix] and E_y[iy, ix+1].  Cells, (ny, nx), and nodes, (ny+1, nx+1),
are likewise row-major, and fields are evaluated on such (rows, cols) grids.

The perfect-conductor condition (vanishing tangential trace) constrains the
first and last rows of E_x and the first and last columns of E_y
(``MaxwellMesh.boundary_edges``); those dofs stay exactly zero.

On this uniform grid both mass matrices and the curl are diagonal in a
sine/cosine basis, :attr:`MaxwellMesh.modes`, in which the stepper runs;
:func:`assemble` builds the matrices themselves, densely, as the definition
and the tests' oracle.

2D curl conventions: for a scalar field, curl H = (dH/dy, -dH/dx); for a
vector field, curl E = dE2/dx - dE1/dy.  The curl matrix C maps edge dofs to
cell dofs with entries integral_K curl(phi_j), i.e. the counterclockwise
circulation (+hx bottom, -hx top, -hy left, +hy right).

All integrals that are not closed form use a 3x3 Gauss rule per cell, exact
for every polynomial integrand that appears at this order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "MaxwellMesh",
    "MeshModes",
    "FieldVectors",
    "AssembledOperators",
    "assemble",
    "interpolate_E",
    "interpolate_H",
    "l2_error",
    "assemble_edge_load",
    "assemble_cell_load",
]

# 3-point Gauss-Legendre on [-1, 1]
_GAUSS_X = np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
_GAUSS_W = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])

VectorField = Callable[[np.ndarray, np.ndarray, float], tuple[np.ndarray, np.ndarray]]
ScalarField = Callable[[np.ndarray, np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class MaxwellMesh:
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"cell counts must be >= 1, got {self.nx}x{self.ny}")

    @property
    def hx(self) -> float:
        return 1.0 / self.nx

    @property
    def hy(self) -> float:
        return 1.0 / self.ny

    @property
    def n_edges(self) -> int:
        return self.nx * (self.ny + 1) + (self.nx + 1) * self.ny

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @cached_property
    def cell_edges(self) -> dict[str, np.ndarray]:
        """Bottom/top/left/right edge index per cell, row-major over cells."""
        e_x, e_y = _edge_grids(self, np.arange(self.n_edges))
        return {
            "bottom": e_x[:-1].ravel(),
            "top": e_x[1:].ravel(),
            "left": e_y[:, :-1].ravel(),
            "right": e_y[:, 1:].ravel(),
        }

    @cached_property
    def boundary_edges(self) -> np.ndarray:
        """Edges with constrained (tangential) dofs, sorted."""
        e_x, e_y = _edge_grids(self, np.arange(self.n_edges))
        return np.unique(np.concatenate([e_x[[0, -1]].ravel(), e_y[:, [0, -1]].ravel()]))

    @cached_property
    def free_edges(self) -> np.ndarray:
        return np.setdiff1d(np.arange(self.n_edges), self.boundary_edges)

    @cached_property
    def modes(self) -> "MeshModes":
        """The sine/cosine eigenbasis of the mesh, built once."""
        nx, ny = self.nx, self.ny
        area = self.hx * self.hy
        ky, kx = np.arange(ny)[:, None], np.arange(nx)[None, :]
        mass_x = np.broadcast_to(area * (2.0 + np.cos(np.pi * ky / ny)) / 3.0, (ny, nx))
        mass_y = np.broadcast_to(area * (2.0 + np.cos(np.pi * kx / nx)) / 3.0, (ny, nx))
        curl_x = np.broadcast_to(-2.0 * self.hx * np.sin(0.5 * np.pi * ky / ny), (ny, nx))
        curl_y = np.broadcast_to(2.0 * self.hy * np.sin(0.5 * np.pi * kx / nx), (ny, nx))
        return MeshModes(
            mesh=self,
            dct_x=_dct2(nx),
            dct_y=_dct2(ny),
            dst_x=_dst1(nx),
            dst_y=_dst1(ny),
            mass=np.stack([mass_x, mass_y]),
            curl=np.stack([curl_x, curl_y]),
            area=area,
        )


def _edge_grids(mesh: MaxwellMesh, dofs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edge-dof vector as views of its two grids: E_x, (ny+1, nx), on the
    horizontal edges, then E_y, (ny, nx+1), on the vertical edges."""
    split = mesh.nx * (mesh.ny + 1)
    return dofs[:split].reshape(mesh.ny + 1, mesh.nx), dofs[split:].reshape(mesh.ny, mesh.nx + 1)


def _cell_corners(mesh: MaxwellMesh) -> list[np.ndarray]:
    """x and y of every cell's lower-left corner, as (ny, nx) grids."""
    return np.meshgrid(np.arange(mesh.nx) * mesh.hx, np.arange(mesh.ny) * mesh.hy)


def _dct2(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix, rows = modes k, columns = cells i."""
    k, i = np.arange(n)[:, None], np.arange(n)[None, :]
    # reduce the angle pi k (2i+1) / (2n) exactly before taking the cosine
    matrix = np.sqrt(2.0 / n) * np.cos(np.pi * ((k * (2 * i + 1)) % (4 * n)) / (2 * n))
    matrix[0] = np.sqrt(1.0 / n)
    return matrix


def _dst1(n: int) -> np.ndarray:
    """Orthonormal DST-I matrix over the n-1 interior nodes, zero-padded to
    rows = modes 0..n-1 (mode 0 empty) and columns = nodes 0..n (ends empty)."""
    k = np.arange(1, n)[:, None]
    matrix = np.zeros((n, n + 1))
    matrix[1:, 1:n] = np.sqrt(2.0 / n) * np.sin(np.pi * ((k * k.T) % (2 * n)) / n)
    return matrix


@dataclass(frozen=True)
class MeshModes:
    """The sine/cosine eigenbasis of the mesh (Strang, SIAM Review 41 (1999)
    135-147): orthonormal DCT-II over cells and DST-I over interior nodes,
    E_x by DST-I in y and DCT-II in x, E_y by DCT-II in y and DST-I in x, H by
    DCT-II in both.

    Modal E is a (2, ny, nx) array [E_x, E_y] indexed (k_y, k_x), with row
    k_y = 0 of E_x and column k_x = 0 of E_y zero (no sine mode 0); modal H is
    (ny, nx).  In this basis the edge mass matrix is ``mass``, the cell mass
    matrix is ``area``, and the curl maps modal E to modal H as
    ``(curl * e).sum(axis=0)``, all elementwise:

        mass  = area (2 + cos(pi k / n)) / 3,   k, n of the sine direction
        curl  = -2 hx sin(pi k_y / 2 ny)  (E_x),   +2 hy sin(pi k_x / 2 nx)  (E_y).
    """

    mesh: MaxwellMesh
    dct_x: np.ndarray
    dct_y: np.ndarray
    dst_x: np.ndarray
    dst_y: np.ndarray
    mass: np.ndarray
    curl: np.ndarray
    area: float

    def edges_to_modes(self, e: np.ndarray) -> np.ndarray:
        """Modal E of an edge-dof vector (constrained entries are dropped)."""
        e_x, e_y = _edge_grids(self.mesh, e)
        return np.stack([self.dst_y @ e_x @ self.dct_x.T, self.dct_y @ e_y @ self.dst_x.T])

    def modes_to_edges(self, e_hat: np.ndarray) -> np.ndarray:
        """Edge-dof vector of modal E, exactly zero on constrained edges."""
        e = np.empty(self.mesh.n_edges)
        e_x, e_y = _edge_grids(self.mesh, e)
        e_x[...] = self.dst_y.T @ e_hat[0] @ self.dct_x
        e_y[...] = self.dct_y.T @ e_hat[1] @ self.dst_x
        return e

    def cells_to_modes(self, h: np.ndarray) -> np.ndarray:
        """Modal H of a cell-dof vector."""
        return self.dct_y @ h.reshape(self.mesh.ny, self.mesh.nx) @ self.dct_x.T

    def modes_to_cells(self, h_hat: np.ndarray) -> np.ndarray:
        """Cell-dof vector of modal H."""
        return (self.dct_y.T @ h_hat @ self.dct_x).ravel()

    def cell_norm_sq(self, h_hat: np.ndarray) -> float:
        """Squared L2 norm of modal H."""
        return self.area * float(np.vdot(h_hat, h_hat))


@dataclass
class FieldVectors:
    """Full-length dof vectors for E, P (edges) and H (cells).

    Constrained boundary entries of e and p stay exactly zero throughout.
    """

    e: np.ndarray
    p: np.ndarray
    h: np.ndarray


@dataclass(frozen=True)
class AssembledOperators:
    """Mass, curl and gradient matrices of the edge/cell pair of spaces, dense.

    They act on all edges and define the discretization; the reduced system
    is their restriction to ``mesh.free_edges``.  The stepper uses their
    eigenbasis, :attr:`MaxwellMesh.modes`, instead, so only the structure
    check and the tests assemble them (about 70 MB on a 32 x 32 mesh).
    """

    mesh: MaxwellMesh
    m_e_full: np.ndarray
    m_h_diag: np.ndarray
    c_full: np.ndarray
    grad_full: np.ndarray


def assemble(mesh: MaxwellMesh) -> AssembledOperators:
    """Assemble dense mass, curl and discrete-gradient matrices for the mesh."""
    area = mesh.hx * mesh.hy
    ce = mesh.cell_edges
    bot, top, left, right = ce["bottom"], ce["top"], ce["left"], ce["right"]

    # Edge mass: per cell, the two parallel-edge hats couple as
    # area * [[1/3, 1/6], [1/6, 1/3]]; perpendicular components are L2-orthogonal.
    m_e_full = np.zeros((mesh.n_edges, mesh.n_edges))
    for a, b in ((bot, top), (left, right)):
        np.add.at(m_e_full, (np.concatenate([a, b]), np.concatenate([a, b])), area / 3.0)
        np.add.at(m_e_full, (np.concatenate([a, b]), np.concatenate([b, a])), area / 6.0)

    # Curl matrix: row per cell, counterclockwise circulation of the edge dofs.
    cells = np.arange(mesh.n_cells)
    c_full = np.zeros((mesh.n_cells, mesh.n_edges))
    for edges, value in ((bot, mesh.hx), (top, -mesh.hx), (left, -mesh.hy), (right, mesh.hy)):
        np.add.at(c_full, (cells, edges), value)

    # Node-to-edge gradient: tangential slope along each edge.
    e_x, e_y = _edge_grids(mesh, np.arange(mesh.n_edges))
    nodes = np.arange(mesh.n_nodes).reshape(mesh.ny + 1, mesh.nx + 1)
    grad_full = np.zeros((mesh.n_edges, mesh.n_nodes))
    grad_full[e_x, nodes[:, 1:]] = 1.0 / mesh.hx
    grad_full[e_x, nodes[:, :-1]] = -1.0 / mesh.hx
    grad_full[e_y, nodes[1:]] = 1.0 / mesh.hy
    grad_full[e_y, nodes[:-1]] = -1.0 / mesh.hy

    return AssembledOperators(
        mesh=mesh,
        m_e_full=m_e_full,
        m_h_diag=np.full(mesh.n_cells, area),
        c_full=c_full,
        grad_full=grad_full,
    )


def interpolate_E(mesh: MaxwellMesh, field: VectorField, t: float = 0.0) -> np.ndarray:
    """Edge interpolant: tangential component of the field at edge midpoints."""
    dofs = np.empty(mesh.n_edges)
    e_x, e_y = _edge_grids(mesh, dofs)
    x_node, y_node = np.arange(mesh.nx + 1) * mesh.hx, np.arange(mesh.ny + 1) * mesh.hy
    x_mid, y_mid = (np.arange(mesh.nx) + 0.5) * mesh.hx, (np.arange(mesh.ny) + 0.5) * mesh.hy
    e_x[...] = field(*np.meshgrid(x_mid, y_node), t)[0]
    e_y[...] = field(*np.meshgrid(x_node, y_mid), t)[1]
    return dofs


def interpolate_H(mesh: MaxwellMesh, field: ScalarField, t: float = 0.0) -> np.ndarray:
    """Cell interpolant: field value at cell centers."""
    x0, y0 = _cell_corners(mesh)
    vals = field(x0 + 0.5 * mesh.hx, y0 + 0.5 * mesh.hy, t)
    return np.broadcast_to(np.asarray(vals, dtype=float), x0.shape).flatten()


def _gauss_points(mesh: MaxwellMesh):
    """Yield (x, y, xhat, yhat, weight) per Gauss point; x, y are (ny, nx) cell grids."""
    x0, y0 = _cell_corners(mesh)
    for p in range(3):
        xhat = 0.5 * (_GAUSS_X[p] + 1.0)
        for q in range(3):
            yhat = 0.5 * (_GAUSS_X[q] + 1.0)
            w = _GAUSS_W[p] * _GAUSS_W[q]
            yield x0 + xhat * mesh.hx, y0 + yhat * mesh.hy, xhat, yhat, w


def l2_error(
    mesh: MaxwellMesh,
    dofs: np.ndarray,
    exact,
    t: float,
    kind: str,
) -> float:
    """L2 distance between a discrete field and an exact closure at time t.

    ``kind`` selects the space: "edge" for E/P vector fields, "cell" for H.
    """
    jac = 0.25 * mesh.hx * mesh.hy
    acc = np.zeros((mesh.ny, mesh.nx))
    if kind == "edge":
        e_x, e_y = _edge_grids(mesh, dofs)
        for x, y, xhat, yhat, w in _gauss_points(mesh):
            ex, ey = exact(x, y, t)
            d1 = e_x[:-1] * (1.0 - yhat) + e_x[1:] * yhat
            d2 = e_y[:, :-1] * (1.0 - xhat) + e_y[:, 1:] * xhat
            acc += w * ((ex - d1) ** 2 + (ey - d2) ** 2)
    elif kind == "cell":
        h = dofs.reshape(acc.shape)
        for x, y, _, _, w in _gauss_points(mesh):
            acc += w * (exact(x, y, t) - h) ** 2
    else:
        raise ValueError(f"kind must be 'edge' or 'cell', got {kind!r}")
    return float(np.sqrt(jac * acc.sum()))


def assemble_edge_load(mesh: MaxwellMesh, field: VectorField, t: float) -> np.ndarray:
    """Load vector (f, phi_i) against every edge basis function."""
    jac = 0.25 * mesh.hx * mesh.hy
    load = np.zeros(mesh.n_edges)
    l_x, l_y = _edge_grids(mesh, load)
    for x, y, xhat, yhat, w in _gauss_points(mesh):
        fx, fy = field(x, y, t)
        l_x[:-1] += jac * w * fx * (1.0 - yhat)
        l_x[1:] += jac * w * fx * yhat
        l_y[:, :-1] += jac * w * fy * (1.0 - xhat)
        l_y[:, 1:] += jac * w * fy * xhat
    return load


def assemble_cell_load(mesh: MaxwellMesh, field: ScalarField, t: float) -> np.ndarray:
    """Load vector (f, psi_K) against the piecewise-constant cell basis."""
    jac = 0.25 * mesh.hx * mesh.hy
    load = np.zeros((mesh.ny, mesh.nx))
    for x, y, _, _, w in _gauss_points(mesh):
        load += jac * w * field(x, y, t)
    return load.ravel()

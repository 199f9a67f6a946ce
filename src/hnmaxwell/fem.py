"""Lowest-order rectangular edge elements on the unit square.

Mesh and spaces
---------------
Uniform nx-by-ny grid on (0,1)^2.  The electric field E and polarization P
live in the curl-conforming edge space: horizontal edges carry the
x-component dof, vertical edges the y-component dof, each the tangential
value at the edge midpoint.  On a cell the x-component is constant in x and
a linear hat in y (and symmetrically for the y-component).  The magnetic
field H is piecewise constant, one dof per cell.

Enumeration is deterministic and x-fastest: horizontal edges first
(ix + iy*nx, iy = 0..ny), then vertical edges (ix + iy*(nx+1), iy = 0..ny-1)
after an offset of nx*(ny+1).  Cells and nodes are likewise row-major.

The perfect-conductor condition (vanishing tangential trace) constrains the
horizontal edges on y in {0,1} and the vertical edges on x in {0,1}; those
rows/columns are eliminated symmetrically, keeping the reduced edge mass
matrix symmetric positive definite.

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
    def n_horizontal(self) -> int:
        return self.nx * (self.ny + 1)

    @property
    def n_edges(self) -> int:
        return self.nx * (self.ny + 1) + (self.nx + 1) * self.ny

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    def horizontal_edge(self, ix, iy):
        return iy * self.nx + ix

    def vertical_edge(self, ix, iy):
        return self.n_horizontal + iy * (self.nx + 1) + ix

    def node(self, ix, iy):
        return iy * (self.nx + 1) + ix

    @cached_property
    def cell_edges(self) -> dict[str, np.ndarray]:
        """Bottom/top/left/right edge index per cell, row-major over cells."""
        ix, iy = np.meshgrid(np.arange(self.nx), np.arange(self.ny), indexing="xy")
        ix, iy = ix.ravel(), iy.ravel()
        return {
            "bottom": self.horizontal_edge(ix, iy),
            "top": self.horizontal_edge(ix, iy + 1),
            "left": self.vertical_edge(ix, iy),
            "right": self.vertical_edge(ix + 1, iy),
        }

    @cached_property
    def cell_origin(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower-left corner coordinates of every cell."""
        ix, iy = np.meshgrid(np.arange(self.nx), np.arange(self.ny), indexing="xy")
        return ix.ravel() * self.hx, iy.ravel() * self.hy

    @cached_property
    def boundary_edges(self) -> np.ndarray:
        """Edges with constrained (tangential) dofs, sorted."""
        idx = []
        ix = np.arange(self.nx)
        idx.append(self.horizontal_edge(ix, 0))
        idx.append(self.horizontal_edge(ix, self.ny))
        iy = np.arange(self.ny)
        idx.append(self.vertical_edge(0, iy))
        idx.append(self.vertical_edge(self.nx, iy))
        return np.unique(np.concatenate(idx))

    @cached_property
    def free_edges(self) -> np.ndarray:
        mask = np.ones(self.n_edges, dtype=bool)
        mask[self.boundary_edges] = False
        return np.flatnonzero(mask)

    @cached_property
    def edge_midpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Midpoint coordinates of every edge, horizontal block first."""
        x = np.empty(self.n_edges)
        y = np.empty(self.n_edges)
        ix, iy = np.meshgrid(np.arange(self.nx), np.arange(self.ny + 1), indexing="xy")
        h = self.horizontal_edge(ix.ravel(), iy.ravel())
        x[h] = (ix.ravel() + 0.5) * self.hx
        y[h] = iy.ravel() * self.hy
        ix, iy = np.meshgrid(np.arange(self.nx + 1), np.arange(self.ny), indexing="xy")
        v = self.vertical_edge(ix.ravel(), iy.ravel())
        x[v] = ix.ravel() * self.hx
        y[v] = (iy.ravel() + 0.5) * self.hy
        return x, y

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
            dct_x=_dct2(nx),
            dct_y=_dct2(ny),
            dst_x=_dst1(nx),
            dst_y=_dst1(ny),
            mass=np.stack([mass_x, mass_y]),
            curl=np.stack([curl_x, curl_y]),
            area=area,
        )


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

    dct_x: np.ndarray
    dct_y: np.ndarray
    dst_x: np.ndarray
    dst_y: np.ndarray
    mass: np.ndarray
    curl: np.ndarray
    area: float

    def edges_to_modes(self, e: np.ndarray) -> np.ndarray:
        """Modal E of an edge-dof vector (constrained entries are dropped)."""
        ny, nx = self.mass.shape[1:]
        n_horizontal = nx * (ny + 1)
        e_x = e[:n_horizontal].reshape(ny + 1, nx)
        e_y = e[n_horizontal:].reshape(ny, nx + 1)
        return np.stack([self.dst_y @ e_x @ self.dct_x.T, self.dct_y @ e_y @ self.dst_x.T])

    def modes_to_edges(self, e_hat: np.ndarray) -> np.ndarray:
        """Edge-dof vector of modal E, exactly zero on constrained edges."""
        e_x = self.dst_y.T @ e_hat[0] @ self.dct_x
        e_y = self.dct_y.T @ e_hat[1] @ self.dst_x
        return np.concatenate([e_x.ravel(), e_y.ravel()])

    def cells_to_modes(self, h: np.ndarray) -> np.ndarray:
        """Modal H of a cell-dof vector."""
        return self.dct_y @ h.reshape(self.mass.shape[1:]) @ self.dct_x.T

    def modes_to_cells(self, h_hat: np.ndarray) -> np.ndarray:
        """Cell-dof vector of modal H."""
        return (self.dct_y.T @ h_hat @ self.dct_x).ravel()

    def edge_norm_sq(self, e_hat: np.ndarray) -> float:
        """Squared L2 norm of modal E (Parseval: e^T M_E e of its edge dofs)."""
        return float(np.vdot(e_hat, self.mass * e_hat))

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
    grad_full = np.zeros((mesh.n_edges, mesh.n_nodes))
    ix, iy = np.meshgrid(np.arange(mesh.nx), np.arange(mesh.ny + 1), indexing="xy")
    ix, iy = ix.ravel(), iy.ravel()
    edges = mesh.horizontal_edge(ix, iy)
    np.add.at(grad_full, (edges, mesh.node(ix + 1, iy)), 1.0 / mesh.hx)
    np.add.at(grad_full, (edges, mesh.node(ix, iy)), -1.0 / mesh.hx)
    ix, iy = np.meshgrid(np.arange(mesh.nx + 1), np.arange(mesh.ny), indexing="xy")
    ix, iy = ix.ravel(), iy.ravel()
    edges = mesh.vertical_edge(ix, iy)
    np.add.at(grad_full, (edges, mesh.node(ix, iy + 1)), 1.0 / mesh.hy)
    np.add.at(grad_full, (edges, mesh.node(ix, iy)), -1.0 / mesh.hy)

    return AssembledOperators(
        mesh=mesh,
        m_e_full=m_e_full,
        m_h_diag=np.full(mesh.n_cells, area),
        c_full=c_full,
        grad_full=grad_full,
    )


def interpolate_E(mesh: MaxwellMesh, field: VectorField, t: float = 0.0) -> np.ndarray:
    """Edge interpolant: tangential component of the field at edge midpoints."""
    x, y = mesh.edge_midpoints
    fx, fy = field(x, y, t)
    dofs = np.empty(mesh.n_edges)
    nh = mesh.n_horizontal
    dofs[:nh] = np.broadcast_to(fx, (mesh.n_edges,))[:nh]
    dofs[nh:] = np.broadcast_to(fy, (mesh.n_edges,))[nh:]
    return dofs


def interpolate_H(mesh: MaxwellMesh, field: ScalarField, t: float = 0.0) -> np.ndarray:
    """Cell interpolant: field value at cell centers."""
    x0, y0 = mesh.cell_origin
    vals = field(x0 + 0.5 * mesh.hx, y0 + 0.5 * mesh.hy, t)
    return np.broadcast_to(np.asarray(vals, dtype=float), (mesh.n_cells,)).copy()


def _gauss_points(mesh: MaxwellMesh):
    """Yield (x, y, xhat, yhat, weight) per Gauss point; x, y span all cells."""
    x0, y0 = mesh.cell_origin
    for p in range(3):
        xhat = 0.5 * (_GAUSS_X[p] + 1.0)
        for q in range(3):
            yhat = 0.5 * (_GAUSS_X[q] + 1.0)
            yield (
                x0 + xhat * mesh.hx,
                y0 + yhat * mesh.hy,
                xhat,
                yhat,
                _GAUSS_W[p] * _GAUSS_W[q],
            )


def _edge_values_at(mesh: MaxwellMesh, dofs: np.ndarray, xhat: float, yhat: float):
    """Per-cell (E1, E2) of an edge-dof field at a fixed reference point."""
    ce = mesh.cell_edges
    e1 = dofs[ce["bottom"]] * (1.0 - yhat) + dofs[ce["top"]] * yhat
    e2 = dofs[ce["left"]] * (1.0 - xhat) + dofs[ce["right"]] * xhat
    return e1, e2


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
    acc = np.zeros(mesh.n_cells)
    if kind == "edge":
        for x, y, xhat, yhat, w in _gauss_points(mesh):
            ex, ey = exact(x, y, t)
            d1, d2 = _edge_values_at(mesh, dofs, xhat, yhat)
            acc += w * ((ex - d1) ** 2 + (ey - d2) ** 2)
    elif kind == "cell":
        for x, y, _, _, w in _gauss_points(mesh):
            acc += w * (exact(x, y, t) - dofs) ** 2
    else:
        raise ValueError(f"kind must be 'edge' or 'cell', got {kind!r}")
    return float(np.sqrt(jac * acc.sum()))


def assemble_edge_load(mesh: MaxwellMesh, field: VectorField, t: float) -> np.ndarray:
    """Load vector (f, phi_i) against every edge basis function."""
    ce = mesh.cell_edges
    jac = 0.25 * mesh.hx * mesh.hy
    load = np.zeros(mesh.n_edges)
    for x, y, xhat, yhat, w in _gauss_points(mesh):
        fx, fy = field(x, y, t)
        fx = np.broadcast_to(fx, (mesh.n_cells,))
        fy = np.broadcast_to(fy, (mesh.n_cells,))
        np.add.at(load, ce["bottom"], jac * w * fx * (1.0 - yhat))
        np.add.at(load, ce["top"], jac * w * fx * yhat)
        np.add.at(load, ce["left"], jac * w * fy * (1.0 - xhat))
        np.add.at(load, ce["right"], jac * w * fy * xhat)
    return load


def assemble_cell_load(mesh: MaxwellMesh, field: ScalarField, t: float) -> np.ndarray:
    """Load vector (f, psi_K) against the piecewise-constant cell basis."""
    jac = 0.25 * mesh.hx * mesh.hy
    load = np.zeros(mesh.n_cells)
    for x, y, _, _, w in _gauss_points(mesh):
        load += jac * w * np.broadcast_to(field(x, y, t), (mesh.n_cells,))
    return load

"""Energy-decay time stepping for Maxwell's equations in a Havriliak-Negami
medium.

The fields advance with midpoint (Crank-Nicolson) differencing in E and H
while the polarization P is closed by the discrete convolution

    (P^n, phi) = delta_eps * sum_{k=0}^n w_{n-k} (E^k, phi) + (g3(t_n), phi).

The weights are a positive exponential sum w_j = sum_l c_l r_l^j (c_l > 0,
0 < r_l < 1) fitted once per trajectory to the quadrature table of
:mod:`hnmaxwell.quadrature`, which refuses tables that are not completely
monotone.  The memory is then L accumulators instead of the whole history:
A_l^n = sum_{k<=n} r_l^{n-k} e^k and B_l^n = sum_{k<=n} r_l^{n-k} ||E^k||^2,
so a step costs O(L * dofs) whatever n is.  A step reads the history through
one product, the sum S^m = sum_{k<m} w_{m-k} e^k = sum_l c_l r_l A_l^{m-1}:
it closes the step and gives P^m = delta_eps (w0 e^m + S^m) + M_E^{-1} g3(t_m),
which the state keeps for the next step.  B_l is updated at every level.
A_l is updated in blocks of ``BLOCK`` = K levels, the near/far split of fast
convolution (Lubich & Schaedle, SIAM J. Sci. Comput. 24 (2002) 161-182): the
state holds A^b of the last block boundary b, the fields e^{b+1..n} of the
open block ("near"), and the part of the next K history sums that comes from
A^b ("far").  With j = n - b,

    S^{n+1} = far_j + sum_{i=1}^{j} w_hat_{j+1-i} e^{b+i},
    far_k = sum_l c_l r_l^{k+1} A_l^b,   w_hat_k = sum_l c_l r_l^k,

so a step reads j + 1 field rows instead of L.  When the block is full,
A^{b+K} = r^K A^b + sum_i r^{K-i} e^{b+i} and the next far are one matrix
product each.  The fold buffer is ``far`` itself, which the closing block no
longer reads: the near part of A is formed K accumulator rows at a time in
it, so the fold allocates nothing.  In exact arithmetic this is the
per-level update A_l <- r_l A_l + e^n.  Power-table entries below
``POWER_FLOOR`` are set to zero, so no product in the update falls into the
subnormal range.
Eliminating H and P from the step leaves one linear system per step,

    A e^m = rhs,   A = ((eps_inf + delta_eps*w0)/tau) M_E + (tau/4) C^T M_H^{-1} C,

with w0 = sum_l c_l and the memory term M_E (P^{m-1} - delta_eps S^m)/tau -
g3(t_m)/tau in rhs.  P is recomputed from S at every level, never
accumulated, so rounding made at earlier levels stays damped by r_l < 1.
The whole trajectory runs in the mesh's sine/cosine eigenbasis
(:attr:`hnmaxwell.fem.MaxwellMesh.modes`), where M_E and M_H are diagonal and
C maps each E mode onto one H mode: A is diagonal plus rank one on the at
most two E modes of each H mode and is solved in closed form
(Sherman-Morrison), M_E^{-1} is a division, H follows explicitly, and the
norms are sums over modes weighted by the diagonal masses (Parseval,
:meth:`hnmaxwell.fem.MeshModes.edge_norm_sq`).  This relies on the uniform
tensor mesh that :mod:`hnmaxwell.fem` builds; a non-uniform mesh would need a
sparse solve.  No matrix is assembled: the state is built from the mesh,
and ``step(state)`` reads nothing else.
With zero sources the discrete energy

    E^n = eps_inf ||E^n||^2 + ||H^n||^2 + delta_eps * sum_{k<=n} w_{n-k} ||E^k||^2

(its memory part is delta_eps sum_l c_l B_l) is nonincreasing on the smooth
standing data of the energy checks at the step sizes they use, tau = 0.01
and tau = 0.5.  The level-0 polarization is taken from the n = 0 convolution
relation (it vanishes whenever E^0 = 0 and g3(0) = 0), which is what makes
the decay inequality hold already at the first step.  It is not a Lyapunov
function of the scheme: the step change at m = 1 is
-delta_eps * w_1 * (E^1, E^0), positive whenever E changes sign across the
step (rough fields, large tau), and on the standing data it rises from about
tau = 1 on (+1.5 % of E^0 at tau = 2, alpha = beta = 0.5).

Each source g1 (Ampere), g2 (Faraday) and g3 is separable, sum_i f_i(t) s_i(x, y);
:meth:`SourceSet.assemble` turns every s_i into a load vector L_i once, and a
step forms G(t_m) = sum_i f_i(t_m) L_i once, all in modal form.  g1 and g2
enter as endpoint averages (G(t_m) + G(t_{m-1}))/2, so the state keeps them
for the next step; g3 enters the step and P^m as M_E^{-1} G(t_m), formed once
per level, and its value at t_{m-1} is inside P^{m-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fem import (
    FieldVectors,
    MaxwellMesh,
    assemble_cell_load,
    assemble_edge_load,
    interpolate_E,
    interpolate_H,
    l2_error,
)
from .prabhakar import check_orders, prabhakar_integral_monomial
from .quadrature import ExpSum, fit_exp_sum, generate_weights

__all__ = [
    "HNParams",
    "Separable",
    "SourceSet",
    "AssembledSource",
    "SourceLoads",
    "StepOperator",
    "StepperState",
    "EnergyTrace",
    "ErrorReport",
    "init_state",
    "step",
    "energy",
    "energy_components",
    "manufactured_sources",
    "exact_E",
    "exact_P",
    "exact_H",
    "decay_initial_E",
    "decay_initial_H",
    "run_energy",
    "run_convergence",
    "observed_rates",
]

TimeFactor = Callable[[float], float]

# Levels per block of the memory update (K above).  A step reads up to K field
# rows and a full block costs two L x K x dofs products; K = 8..32 time alike
# on 32x32 and 64x64 meshes at L = 44-53 and at L = 30-35, K = 4 is slower.
BLOCK = 16
# Power-table entries r_l^k below this are exact zeros; that changes a weight
# by less than POWER_FLOOR * c_l and keeps the update out of subnormal numbers.
POWER_FLOOR = 1e-100


@dataclass(frozen=True)
class HNParams:
    """Physical parameters of the dispersive medium.

    delta_eps = 0 switches dispersion off entirely (plain Crank-Nicolson
    Maxwell), which serves as a conservation regression oracle.
    """

    eps_inf: float
    delta_eps: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not 1.0 <= self.eps_inf < math.inf:
            raise ValueError(f"eps_inf must be finite and >= 1, got {self.eps_inf}")
        if not 0.0 <= self.delta_eps < math.inf:
            raise ValueError(f"delta_eps must be finite and >= 0, got {self.delta_eps}")
        check_orders(self.alpha, self.beta)


@dataclass(frozen=True)
class Separable:
    """Source sum_i f_i(t) * s_i(x, y): scalar time factors f_i times fixed
    spatial fields s_i, all vector-valued or all scalar-valued.

    Called as ``g(x, y, t)`` it sums the terms pointwise, so it also serves
    as a VectorField or ScalarField.
    """

    terms: tuple[tuple[TimeFactor, Callable], ...]

    def __call__(self, x, y, t):
        return sum(f(t) * np.asarray(s(x, y)) for f, s in self.terms)


@dataclass(frozen=True)
class AssembledSource:
    """A separable source on the mesh: its load at t is sum_i f_i(t) loads[i]."""

    factors: tuple[TimeFactor, ...]
    loads: np.ndarray

    def __call__(self, t: float) -> np.ndarray:
        load = np.array([f(t) for f in self.factors]) @ _rows(self.loads)
        return load.reshape(self.loads.shape[1:])


@dataclass(frozen=True)
class SourceLoads:
    """A :class:`SourceSet` assembled on one mesh, in modal form: g1 and g3 as
    modal E, g2 as modal H; None means identically zero."""

    g1: AssembledSource | None = None
    g2: AssembledSource | None = None
    g3: AssembledSource | None = None

    def at(self, t: float) -> tuple[np.ndarray | None, ...]:
        """Modal (g1, g2, g3) at t, None for a zero source."""
        return tuple(None if g is None else g(t) for g in (self.g1, self.g2, self.g3))


@dataclass(frozen=True)
class SourceSet:
    """Separable sources of the three equations; None means identically zero."""

    g1: Separable | None = None
    g2: Separable | None = None
    g3: Separable | None = None

    def assemble(self, mesh: MaxwellMesh) -> SourceLoads:
        """Modal load of every spatial field, each assembled and transformed once."""
        modes = mesh.modes

        def assembled(g, assemble_load, to_modes):
            if g is None:
                return None
            loads = [
                to_modes(assemble_load(mesh, lambda x, y, t, s=s: s(x, y), 0.0))
                for _, s in g.terms
            ]
            return AssembledSource(tuple(f for f, _ in g.terms), np.array(loads))

        return SourceLoads(
            g1=assembled(self.g1, assemble_edge_load, modes.edges_to_modes),
            g2=assembled(self.g2, assemble_cell_load, modes.cells_to_modes),
            g3=assembled(self.g3, assemble_edge_load, modes.edges_to_modes),
        )


class StepOperator:
    """The step matrix and the edge mass matrix in the mesh's eigenbasis.

    Per H mode the step matrix is diag(d) + s c c^T on its (E_x, E_y) modes,
    with d = ((eps_inf + delta_eps*w0)/tau) * mass, c the curl factors and
    s = tau / (4 area); Sherman-Morrison inverts it in closed form.  The
    operator also holds the constants :func:`step` scales by: M_E / tau, s,
    and the curl factors times s and 2 s.
    """

    def __init__(self, mesh: MaxwellMesh, params: HNParams, tau: float, w0: float):
        if w0 <= 0.0:
            raise ValueError(f"leading weight w0 must be positive, got {w0}")
        modes = mesh.modes
        self._mass = modes.mass
        diag = ((params.eps_inf + params.delta_eps * w0) / tau) * modes.mass
        self._inv_diag = 1.0 / diag
        self._u = modes.curl / diag
        s = 0.25 * tau / modes.area
        self._gain = s / (1.0 + s * (modes.curl * self._u).sum(axis=0))
        self._mass_over_tau = modes.mass / tau
        self._quarter = s
        self._curl_quarter = s * modes.curl
        self._curl_half = (2.0 * s) * modes.curl

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the step system for a modal E right-hand side, in place (the
        solution overwrites ``rhs`` and is returned)."""
        u = self._u
        coupling = u[0] * rhs[0]
        coupling += u[1] * rhs[1]
        coupling *= self._gain
        rhs *= self._inv_diag
        rhs -= u * coupling
        return rhs

    def solve_mass(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the inverse of the edge mass matrix to modal E (or a stack of them)."""
        return rhs / self._mass


@dataclass(frozen=True)
class BlockTables:
    """Power tables of an exponential sum for the blocked memory update, with
    p_kl = r_l^k (k = 0..K) set to zero below ``POWER_FLOOR``:

    - ``fold_old[l]`` = p_Kl and ``fold_new[l, i]`` = p_{K-1-i,l}, so a full
      block folds into A^{b+K} = fold_old * A^b + fold_new @ near;
    - ``far_weights[k, l]`` = c_l p_{k+1,l}, so far = far_weights @ A^b;
    - ``near_weights[K-1-k]`` = w_hat_{k+1} = sum_l far_weights[k, l], reversed
      so that the last j entries weight near_0 .. near_{j-1}.
    """

    fold_old: np.ndarray
    fold_new: np.ndarray
    far_weights: np.ndarray
    near_weights: np.ndarray

    @classmethod
    def build(cls, memory: ExpSum) -> "BlockTables":
        powers = memory.rates ** np.arange(BLOCK + 1)[:, None]
        powers[powers < POWER_FLOOR] = 0.0
        far_weights = memory.coeffs * powers[1:]
        return cls(
            fold_old=powers[BLOCK],
            fold_new=np.ascontiguousarray(powers[BLOCK - 1 :: -1].T),
            far_weights=far_weights,
            near_weights=far_weights.sum(axis=1)[::-1].copy(),
        )


def _rows(a: np.ndarray) -> np.ndarray:
    """A stack of modal fields as a (rows, dofs) view."""
    return a.reshape(a.shape[0], -1)


@dataclass
class StepperState:
    """Mutable run state in modal form: E, H and P at level n, the memory
    accumulators, the source values at t_n, and everything a step reads.

    ``e``, ``h`` and ``p`` are modal E, H and P (see
    :class:`hnmaxwell.fem.MeshModes`); ``p`` is set once per level from the
    history sum S of that level's step, the one history product a step forms.
    The E memory is kept in blocks of ``BLOCK`` = K levels, b being the last
    block boundary (b = -1 before the first, with A^{-1} = 0):

    - row l of ``acc_e`` holds the modal A_l^b = sum_{k<=b} r_l^{b-k} e^k;
    - row i of ``near`` holds e^{b+1+i} for the j = n - b levels of the open
      block (i < j; later rows are stale);
    - row k of ``far`` holds sum_l c_l r_l^{k+1} A_l^b, the part of the
      history sum S of step b+k+1 that comes from A^b; while a full block
      is folded it is the product buffer of the fold.

    Entry l of ``acc_norm_sq`` holds B_l = sum_{k<=n} r_l^{n-k} ||E^k||^2,
    updated at every level, and ``e_norm_sq`` is ||E^n||^2.  Every update
    multiplies the old sums by powers of r_l < 1, so rounding errors made at
    earlier levels are damped, not grown.  ``tables`` holds the power tables
    of ``memory`` the blocked update reads.  ``g1`` and ``g2`` are the modal
    sources at t_n (None where ``sources`` has none), so each source is
    evaluated once per level.  The fit holds for levels up to
    ``memory.order``, which bounds the run.
    """

    memory: ExpSum
    mesh: MaxwellMesh
    params: HNParams
    operator: StepOperator
    sources: SourceLoads
    n: int
    e: np.ndarray
    h: np.ndarray
    p: np.ndarray
    acc_e: np.ndarray
    near: np.ndarray
    far: np.ndarray
    acc_norm_sq: np.ndarray
    tables: BlockTables
    e_norm_sq: float = 0.0
    g1: np.ndarray | None = None
    g2: np.ndarray | None = None

    @property
    def fields(self) -> FieldVectors:
        """E, P and H at level n as dof vectors."""
        modes = self.mesh.modes
        return FieldVectors(
            e=modes.modes_to_edges(self.e),
            p=modes.modes_to_edges(self.p),
            h=modes.modes_to_cells(self.h),
        )

    @property
    def block_start(self) -> int:
        """The last block boundary b <= n (A^b is in ``acc_e``)."""
        return self.n - (self.n + 1) % BLOCK

    @property
    def tau(self) -> float:
        return self.memory.tau

    @property
    def capacity(self) -> int:
        return self.memory.order


def init_state(
    mesh: MaxwellMesh,
    params: HNParams,
    memory: ExpSum,
    e0: np.ndarray,
    h0: np.ndarray,
    sources: SourceLoads = SourceLoads(),
) -> StepperState:
    """Set up level 0 from the E/H dof vectors (constrained E entries are
    ignored), with the convolution-consistent P."""
    modes = mesh.modes
    e = modes.edges_to_modes(np.asarray(e0, dtype=float))
    g1, g2, g3 = sources.at(0.0)
    n_rates = memory.rates.size
    state = StepperState(
        memory=memory,
        mesh=mesh,
        params=params,
        operator=StepOperator(mesh, params, memory.tau, memory.w0),
        sources=sources,
        n=0,
        e=e,
        h=modes.cells_to_modes(np.asarray(h0, dtype=float)),
        p=e,  # placeholder, set by _close_level
        acc_e=np.zeros((n_rates, *e.shape)),
        near=np.zeros((BLOCK, *e.shape)),
        far=np.zeros((BLOCK, *e.shape)),
        acc_norm_sq=np.zeros(n_rates),
        tables=BlockTables.build(memory),
        g1=g1,
        g2=g2,
    )
    _close_level(state, 0.0, None if g3 is None else state.operator.solve_mass(g3))
    return state


def step(state: StepperState) -> StepperState:
    """Advance the state from level n to n+1 in place (and return it)."""
    m = state.n + 1
    if m > state.capacity:
        raise ValueError(f"state capacity {state.capacity} exhausted at step {m}")
    params, op = state.params, state.operator
    e_prev, h_prev = state.e, state.h
    g1, g2, g3 = state.sources.at(m * state.tau)
    source_p = None if g3 is None else op.solve_mass(g3)  # M_E^{-1} g3(t_m), the source part of P^m

    # delta_eps times the history sum S = sum_{k<m} w_{m-k} e^k = sum_l c_l r_l A_l^{m-1}
    j = m - 1 - state.block_start
    history = state.tables.near_weights[BLOCK - j :] @ _rows(state.near)[:j]
    history = history.reshape(e_prev.shape)
    history += state.far[j]
    history *= params.delta_eps
    # M_E (eps_inf e^{m-1} + P^{m-1} - delta_eps S - M_E^{-1} g3(t_m)) / tau
    rhs = params.eps_inf * e_prev
    rhs += state.p
    rhs -= history
    if source_p is not None:
        rhs -= source_p
    rhs *= op._mass_over_tau
    # C^T (h - (tau/4) M_H^{-1} C e), plus (tau/2) M_H^{-1} times the g2 average inside the bracket
    h_part = op._curl_quarter[0] * e_prev[0]
    h_part += op._curl_quarter[1] * e_prev[1]
    np.subtract(h_prev, h_part, out=h_part)
    if g2 is not None:
        g2_sum = g2 + state.g2
        g2_sum *= op._quarter
        h_part += g2_sum
    rhs += state.mesh.modes.curl * h_part
    if g1 is not None:
        g1_sum = g1 + state.g1
        g1_sum *= 0.5
        rhs += g1_sum

    # H^m = h - (tau/2) M_H^{-1} C (e^m + e^{m-1}), plus (tau) M_H^{-1} times the g2 average
    e = op.solve(rhs)
    e_sum = e + e_prev
    h = op._curl_half[0] * e_sum[0]
    h += op._curl_half[1] * e_sum[1]
    np.subtract(h_prev, h, out=h)
    if g2 is not None:
        h += g2_sum
        h += g2_sum
    state.e, state.h, state.n = e, h, m
    state.g1, state.g2 = g1, g2
    _close_level(state, history, source_p)
    return state


def _close_level(
    state: StepperState, history: np.ndarray | float, source_p: np.ndarray | None
) -> None:
    """Set P^n = delta_eps (w0 e^n + S) + M_E^{-1} g3(t_n) from ``history`` =
    delta_eps S of level n and ``source_p`` = M_E^{-1} g3(t_n), and add e^n
    and ||E^n||^2 to the memory; a full block is folded into A and the next
    far part, with ``far`` as the product buffer of the fold."""
    p = (state.params.delta_eps * state.memory.w0) * state.e
    p += history
    if source_p is not None:
        p += source_p
    state.p = p
    state.e_norm_sq = state.mesh.modes.edge_norm_sq(state.e)
    state.acc_norm_sq = state.memory.rates * state.acc_norm_sq + state.e_norm_sq
    row = state.n % BLOCK
    state.near[row] = state.e
    if row == BLOCK - 1:
        t, acc, near, far = state.tables, _rows(state.acc_e), _rows(state.near), _rows(state.far)
        acc *= t.fold_old[:, None]
        # far is read no more in this block: it takes the near part of BLOCK rows of A at a time
        for start in range(0, len(acc), BLOCK):
            rows = acc[start : start + BLOCK]
            part = far[: len(rows)]
            np.matmul(t.fold_new[start : start + BLOCK], near, out=part)
            rows += part
        np.matmul(t.far_weights, acc, out=far)


@dataclass(frozen=True)
class EnergyTrace:
    """Discrete energy and its three components per time level."""

    n: np.ndarray
    t: np.ndarray
    total: np.ndarray
    term_e: np.ndarray
    term_h: np.ndarray
    term_hist: np.ndarray


def energy_components(state: StepperState) -> tuple[float, float, float]:
    """(eps_inf ||E^n||^2, ||H^n||^2, delta_eps sum_k w_{n-k} ||E^k||^2)."""
    params = state.params
    term_e = params.eps_inf * state.e_norm_sq
    term_h = state.mesh.modes.cell_norm_sq(state.h)
    term_hist = params.delta_eps * float(state.memory.coeffs @ state.acc_norm_sq)
    return term_e, term_h, term_hist


def energy(state: StepperState) -> float:
    """Discrete energy at the current level."""
    return sum(energy_components(state))


# --- manufactured solution -------------------------------------------------
#
# E = t^3 * Ehat,  P = (1 - e^-t) * Phat,  H = e^-t * Hhat  with
# Ehat = ((x^2+1) sin(pi y), sin(pi x)(y - 1/2)),
# Phat = ((x^2+1) y(y-1),    x(x-1)(y - 1/2)),
# Hhat = (x^3+1)(y^3+1).
# All fields have vanishing tangential trace on the unit square.


def _e_hat(x, y):
    return (x**2 + 1.0) * np.sin(np.pi * y), np.sin(np.pi * x) * (y - 0.5)


def _p_hat(x, y):
    return (x**2 + 1.0) * y * (y - 1.0), x * (x - 1.0) * (y - 0.5)


def _h_hat(x, y):
    return (x**3 + 1.0) * (y**3 + 1.0)


def _curl_e_hat(x, y):
    return np.pi * (np.cos(np.pi * x) * (y - 0.5) - (x**2 + 1.0) * np.cos(np.pi * y))


def _p_hat_minus_curl_h_hat(x, y):
    px, py = _p_hat(x, y)
    return px - 3.0 * y**2 * (x**3 + 1.0), py + 3.0 * x**2 * (y**3 + 1.0)


def exact_E(x, y, t):
    ex, ey = _e_hat(x, y)
    return t**3 * ex, t**3 * ey


def exact_P(x, y, t):
    px, py = _p_hat(x, y)
    f = 1.0 - math.exp(-t)
    return f * px, f * py


def exact_H(x, y, t):
    return math.exp(-t) * _h_hat(x, y)


def decay_initial_E(x, y, t=0.0):
    return _e_hat(x, y)


def decay_initial_H(x, y, t=0.0):
    return _h_hat(x, y)


def manufactured_sources(params: HNParams) -> SourceSet:
    """Sources that make the manufactured fields solve the dispersive system.

    g1 = eps_inf dE/dt + dP/dt - curl H,  g2 = dH/dt + curl E  and
    g3 = P - delta_eps * (kernel * E), two separable terms each.  The kernel
    convolution of the t^3 time factor of E has the exact monomial form of
    :func:`hnmaxwell.prabhakar.prabhakar_integral_monomial`.
    """
    eps_inf, delta_eps = params.eps_inf, params.delta_eps
    alpha, beta = params.alpha, params.beta
    decay = lambda t: math.exp(-t)
    minus_conv = lambda t: -delta_eps * prabhakar_integral_monomial(alpha, beta, 3, t)
    return SourceSet(
        g1=Separable(((lambda t: eps_inf * 3.0 * t**2, _e_hat), (decay, _p_hat_minus_curl_h_hat))),
        g2=Separable(((lambda t: -decay(t), _h_hat), (lambda t: t**3, _curl_e_hat))),
        g3=Separable(((lambda t: 1.0 - decay(t), _p_hat), (minus_conv, _e_hat))),
    )


# --- experiment drivers ------------------------------------------------------


def _integrate(
    mesh: MaxwellMesh,
    params: HNParams,
    tau: float,
    t_final: float,
    scheme: str,
    initial: tuple[Callable, Callable],
    sources: SourceLoads,
    observe: Callable[[StepperState], None],
) -> None:
    """Run the scheme from the interpolants of the ``initial`` (E, H) fields,
    calling ``observe(state)`` at level 0 and after every step."""
    n_steps = _step_count(t_final, tau)
    memory = fit_exp_sum(generate_weights(scheme, params.alpha, params.beta, tau, n_steps))
    e0, h0 = interpolate_E(mesh, initial[0], 0.0), interpolate_H(mesh, initial[1], 0.0)
    state = init_state(mesh, params, memory, e0, h0, sources)
    observe(state)
    for _ in range(n_steps):
        observe(step(state))


def run_energy(
    mesh: MaxwellMesh,
    params: HNParams,
    tau: float,
    t_final: float = 1.0,
    scheme: str = "cm2",
) -> EnergyTrace:
    """Zero-source evolution from the standing initial data; returns the
    per-level discrete energy decomposition."""
    comps = []
    record = lambda state: comps.append(energy_components(state))
    initial = (decay_initial_E, decay_initial_H)
    _integrate(mesh, params, tau, t_final, scheme, initial, SourceLoads(), record)
    comps = np.array(comps)
    levels = np.arange(len(comps))
    return EnergyTrace(
        n=levels,
        t=levels * tau,
        total=comps.sum(axis=1),
        term_e=comps[:, 0],
        term_h=comps[:, 1],
        term_hist=comps[:, 2],
    )


@dataclass(frozen=True)
class ErrorReport:
    """Max-over-time L2 errors per field and the observed reduction rates."""

    taus: np.ndarray
    err_e: np.ndarray
    err_h: np.ndarray
    err_p: np.ndarray
    rate_e: np.ndarray
    rate_h: np.ndarray
    rate_p: np.ndarray
    mode: str
    tau_ref: float | None = None


def observed_rates(errors: Sequence[tuple[float, float]]) -> list[float]:
    """log2 error-reduction rates for a tau-halving error sequence."""
    taus = [tau for tau, _ in errors]
    errs = [err for _, err in errors]
    _check_halving(taus)
    if any(e <= 0.0 for e in errs):
        raise ValueError("errors must be positive to form rates")
    return [math.log2(errs[i - 1] / errs[i]) for i in range(1, len(errs))]


def run_convergence(
    mesh: MaxwellMesh,
    params: HNParams,
    tau_list: Sequence[float],
    mode: str = "vs_reference",
    tau_ref: float | None = None,
    t_final: float = 1.0,
    scheme: str = "cm2",
) -> ErrorReport:
    """Temporal-refinement study on the manufactured solution.

    "vs_exact" measures against the analytic fields (contains the spatial
    floor of the lowest-order elements); "vs_reference" measures against a
    fine-step trajectory on the same mesh, isolating the time error.  Its step
    ``tau_ref`` must divide the smallest tau and defaults to an eighth of it;
    "vs_exact" refuses a ``tau_ref``.  Every step size is checked before the
    first step is taken.
    """
    taus = sorted(float(t) for t in tau_list)[::-1]
    _check_halving(taus)
    for tau in taus:
        _step_count(t_final, tau)
    if mode not in ("vs_exact", "vs_reference"):
        raise ValueError(f"mode must be 'vs_exact' or 'vs_reference', got {mode!r}")
    if mode == "vs_exact" and tau_ref is not None:
        raise ValueError(f"tau_ref={tau_ref} is used only by mode 'vs_reference'")
    modes = mesh.modes
    sources = manufactured_sources(params).assemble(mesh)

    def run(tau: float, observe: Callable[[StepperState], None]) -> None:
        _integrate(mesh, params, tau, t_final, scheme, (exact_E, exact_H), sources, observe)

    if mode == "vs_reference":
        if tau_ref is None:
            tau_ref = min(taus) / 8.0
        if not tau_ref > 0.0:
            raise ValueError(f"tau_ref={tau_ref} must be positive")
        stride = min(taus) / tau_ref
        if abs(stride - round(stride)) > 1e-9 or round(stride) < 1:
            raise ValueError(f"tau_ref={tau_ref} must divide the smallest tau={min(taus)}")
        stride = round(stride)
        # modal (e, h, p) reference snapshots at multiples of the smallest tau
        reference = {}

        def keep(state: StepperState) -> None:
            if state.n % stride == 0:
                reference[state.n // stride] = (state.e.copy(), state.h.copy(), state.p)

        run(tau_ref, keep)

    # each coarse level is compared as it is reached, none is kept
    errs = np.zeros((len(taus), 3))
    for i, tau in enumerate(taus):

        def measure(state: StepperState) -> None:
            n, e, h, p = state.n, state.e, state.h, state.p
            if mode == "vs_exact":
                t = n * tau
                err = (
                    l2_error(mesh, modes.modes_to_edges(e), exact_E, t, "edge"),
                    l2_error(mesh, modes.modes_to_cells(h), exact_H, t, "cell"),
                    l2_error(mesh, modes.modes_to_edges(p), exact_P, t, "edge"),
                )
            else:
                re, rh, rp = reference[n * round(tau / min(taus))]
                err = (
                    math.sqrt(modes.edge_norm_sq(e - re)),
                    math.sqrt(modes.cell_norm_sq(h - rh)),
                    math.sqrt(modes.edge_norm_sq(p - rp)),
                )
            errs[i] = np.maximum(errs[i], err)

        run(tau, measure)

    rates = [np.array(observed_rates(list(zip(taus, col)))) for col in errs.T]
    return ErrorReport(
        taus=np.array(taus),
        err_e=errs[:, 0],
        err_h=errs[:, 1],
        err_p=errs[:, 2],
        rate_e=rates[0],
        rate_h=rates[1],
        rate_p=rates[2],
        mode=mode,
        tau_ref=tau_ref,
    )


def _step_count(t_final: float, tau: float) -> int:
    for name, value in (("tau", tau), ("final time", t_final)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    n = t_final / tau
    if not n < math.inf or abs(n - round(n)) > 1e-9 or round(n) < 1:
        raise ValueError(f"final time {t_final} must be an integer multiple of tau={tau}")
    return round(n)


def _check_halving(taus: Sequence[float]) -> None:
    if len(taus) < 1:
        raise ValueError("need at least one step size")
    for a, b in zip(taus, taus[1:]):
        if not math.isclose(a, 2.0 * b, rel_tol=1e-9):
            raise ValueError(f"step sizes must halve: {a} followed by {b}")

"""Time-stepper tests: conservation/decay structure, history bookkeeping,
manufactured sources against quadrature oracles, and temporal convergence."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hnmaxwell import fem, stepper
from hnmaxwell.fem import (
    MaxwellMesh,
    assemble,
    assemble_cell_load,
    assemble_edge_load,
    interpolate_E,
    interpolate_H,
)
from hnmaxwell.quadrature import ExpSum, cm2_weights, fit_exp_sum
from hnmaxwell.stepper import (
    BLOCK,
    HNParams,
    Separable,
    SourceLoads,
    SourceSet,
    StepOperator,
    decay_initial_E,
    decay_initial_H,
    energy_components,
    exact_E,
    exact_H,
    exact_P,
    init_state,
    manufactured_sources,
    observed_rates,
    run_convergence,
    run_energy,
    step,
)

# 50-digit oracle: x-component of g3 at (0.5, 0.5), t = 1, alpha = beta = 0.5
G3X_AT_CENTER = -0.934914225071529793


def default_params(**kw):
    base = dict(eps_inf=1.0, delta_eps=1.0, alpha=0.5, beta=0.5)
    base.update(kw)
    return HNParams(**base)


def cm2_memory(alpha, beta, tau, n):
    return fit_exp_sum(cm2_weights(alpha, beta, tau, n))


def reduced_matrices(ops, params, tau, w0):
    """The step matrix and the edge mass matrix on the free edge dofs, as
    sparse matrices built from the assembled ones."""
    free = ops.mesh.free_edges
    m_e = sp.csr_matrix(ops.m_e_full[free][:, free])
    c = sp.csr_matrix(ops.c_full[:, free])
    curlcurl = c.T @ sp.diags(1.0 / ops.m_h_diag) @ c
    step_matrix = ((params.eps_inf + params.delta_eps * w0) / tau) * m_e + 0.25 * tau * curlcurl
    return step_matrix.tocsc(), m_e.tocsc()


class TestStepOperator:
    @pytest.mark.parametrize("nx,ny", [(32, 32), (5, 7), (1, 4), (4, 1), (1, 1)])
    def test_modal_solves_match_sparse_matrices(self, nx, ny):
        mesh = MaxwellMesh(nx, ny)
        ops = assemble(mesh)
        params = default_params(eps_inf=1.5, delta_eps=2.0)
        op = StepOperator(mesh, params, 0.05, 0.3)
        step_matrix, m_e = reduced_matrices(ops, params, 0.05, 0.3)
        free, modes = mesh.free_edges, mesh.modes
        rng = np.random.default_rng(nx * 100 + ny)
        # a load enters the step basis by the mass solve; op.solve inverts tau times the step matrix
        step_solve = lambda load: op.solve(op.solve_mass(load))
        for solve, matrix in ((step_solve, 0.05 * step_matrix), (op.solve_mass, m_e)):
            for _ in range(3):
                b = np.zeros(mesh.n_edges)
                b[free] = rng.normal(size=free.size)
                x = modes.modes_to_edges(op.to_modes(solve(modes.edges_to_modes(b))))
                assert np.array_equal(x[mesh.boundary_edges], np.zeros(mesh.boundary_edges.size))
                residual = np.linalg.norm(matrix @ x[free] - b[free])
                assert residual <= 1e-12 * np.linalg.norm(b[free])

    def test_empty_interior_mesh(self):
        # 1x1 mesh: every edge dof constrained, modal E is all padding
        op = StepOperator(MaxwellMesh(1, 1), default_params(), 0.1, 0.5)
        assert np.array_equal(op.solve(np.zeros((2, 1, 1))), np.zeros((2, 1, 1)))

    def test_positive_leading_weight_required(self):
        with pytest.raises(ValueError):
            StepOperator(MaxwellMesh(2, 2), default_params(), 0.1, 0.0)


class TestStepBasis:
    MESHES = [(32, 32), (5, 7), (1, 4), (4, 1), (1, 1)]

    @pytest.mark.parametrize("nx,ny", MESHES)
    def test_basis_is_mass_orthonormal_and_diagonalizes_the_curl(self, nx, ny):
        # sum of squared basis coordinates = e^T M_E e, and C e = sigma q
        mesh = MaxwellMesh(nx, ny)
        ops, modes = assemble(mesh), mesh.modes
        op = StepOperator(mesh, default_params(), 0.05, 0.3)
        rng = np.random.default_rng(nx * 100 + ny)
        for _ in range(3):
            e = np.zeros(mesh.n_edges)
            e[mesh.free_edges] = rng.normal(size=mesh.free_edges.size)
            x = op.to_basis(modes.edges_to_modes(e))
            assert np.vdot(x, x) == pytest.approx(e @ (ops.m_e_full @ e), rel=1e-13)
            curl = modes.cells_to_modes(ops.c_full @ e)
            assert np.linalg.norm(op.sigma * x[0] - curl) <= 1e-13 * np.linalg.norm(curl)
            assert np.array_equal(modes.modes_to_edges(op.to_modes(x))[mesh.boundary_edges],
                                  np.zeros(mesh.boundary_edges.size))
            assert np.allclose(modes.modes_to_edges(op.to_modes(x)), e, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("nx,ny", MESHES)
    def test_padding_slots_stay_zero_in_sourced_run(self, nx, ny):
        # modal E_x at k_y = 0 and E_y at k_x = 0 are no sine modes: E and P
        # mapped back from the step basis keep them exactly 0
        mesh = MaxwellMesh(nx, ny)
        params = default_params(eps_inf=1.5, delta_eps=2.0, alpha=0.3, beta=0.8)
        memory = cm2_memory(0.3, 0.8, 0.1, 10)
        sources = manufactured_sources(params).assemble(mesh)
        e0, h0 = interpolate_E(mesh, exact_E, 0.5), interpolate_H(mesh, exact_H, 0.0)
        state = init_state(mesh, params, memory, e0, h0, sources)
        for level in range(11):
            if level > 0:
                step(state)
            for field in (state.e, state.p):
                modal = state.operator.to_modes(field)
                assert np.array_equal(modal[0, 0], np.zeros(nx))
                assert np.array_equal(modal[1, :, 0], np.zeros(ny))


@pytest.mark.parametrize(
    "field,value",
    [("eps_inf", 0.5), ("delta_eps", -1.0), ("eps_inf", math.inf), ("eps_inf", math.nan),
     ("delta_eps", math.inf), ("delta_eps", math.nan)],
    ids=["eps_inf-0.5", "delta_eps-neg", "eps_inf-inf", "eps_inf-nan", "delta_eps-inf",
         "delta_eps-nan"],
)
def test_params_refuse_nonphysical_medium(field, value):
    with pytest.raises(ValueError, match=field):
        default_params(**{field: value})


class TestStepBasics:
    def test_zero_data_stays_zero(self):
        mesh = MaxwellMesh(4, 4)
        params = default_params()
        w = cm2_memory(0.5, 0.5, 0.1, 5)
        state = init_state(mesh, params, w, np.zeros(mesh.n_edges), np.zeros(mesh.n_cells))
        for _ in range(5):
            step(state)
        assert np.array_equal(state.fields.e, np.zeros(mesh.n_edges))
        assert np.array_equal(state.fields.h, np.zeros(mesh.n_cells))
        assert np.array_equal(state.fields.p, np.zeros(mesh.n_edges))

    def test_one_by_one_mesh_runs(self):
        mesh = MaxwellMesh(1, 1)
        params = default_params()
        w = cm2_memory(0.5, 0.5, 0.25, 4)
        state = init_state(mesh, params, w, np.zeros(4), np.ones(1))
        for _ in range(4):
            step(state)
        # no interior E dofs: H cannot change
        assert np.allclose(state.fields.h, 1.0)

    def test_capacity_guard(self):
        mesh = MaxwellMesh(2, 2)
        params = default_params()
        w = cm2_memory(0.5, 0.5, 0.5, 2)
        state = init_state(mesh, params, w, np.zeros(mesh.n_edges), np.zeros(mesh.n_cells))
        step(state)
        step(state)
        with pytest.raises(ValueError):
            step(state)

    def test_boundary_dofs_stay_zero(self):
        mesh = MaxwellMesh(6, 6)
        params = default_params(alpha=0.3, beta=0.9)
        w = cm2_memory(0.3, 0.9, 0.1, 10)
        e0, h0 = interpolate_E(mesh, decay_initial_E), interpolate_H(mesh, decay_initial_H)
        state = init_state(mesh, params, w, e0, h0)
        for _ in range(10):
            step(state)
            assert np.array_equal(state.fields.e[mesh.boundary_edges], np.zeros(24))
            assert np.array_equal(state.fields.p[mesh.boundary_edges], np.zeros(24))

    def test_linearity(self):
        mesh = MaxwellMesh(8, 8)
        params = default_params(alpha=0.7, beta=0.4)
        e0 = interpolate_E(mesh, decay_initial_E)
        h0 = interpolate_H(mesh, decay_initial_H)
        runs = []
        for scale in (1.0, 2.0):
            w = cm2_memory(0.7, 0.4, 0.1, 10)
            state = init_state(mesh, params, w, scale * e0, scale * h0)
            for _ in range(10):
                step(state)
            runs.append(state.fields)
        assert np.allclose(2.0 * runs[0].e, runs[1].e, rtol=1e-12, atol=1e-14)
        assert np.allclose(2.0 * runs[0].h, runs[1].h, rtol=1e-12, atol=1e-14)
        assert np.allclose(2.0 * runs[0].p, runs[1].p, rtol=1e-12, atol=1e-14)


class TestEnergy:
    def test_zero_fields_zero_energy(self):
        mesh = MaxwellMesh(3, 3)
        params = default_params()
        w = cm2_memory(0.5, 0.5, 0.1, 2)
        state = init_state(mesh, params, w, np.zeros(mesh.n_edges), np.zeros(mesh.n_cells))
        assert sum(energy_components(state)) == 0.0

    def test_level_zero_formula(self):
        mesh = MaxwellMesh(6, 6)
        ops = assemble(mesh)
        params = default_params(eps_inf=1.5, delta_eps=2.0)
        w = cm2_memory(0.5, 0.5, 0.1, 3)
        e0 = interpolate_E(mesh, decay_initial_E)
        h0 = interpolate_H(mesh, decay_initial_H)
        state = init_state(mesh, params, w, e0, h0)
        e0c = e0.copy()
        e0c[mesh.boundary_edges] = 0.0
        ee = e0c @ (ops.m_e_full @ e0c)
        hh = h0 @ (ops.m_h_diag * h0)
        expected = 1.5 * ee + hh + 2.0 * w.w0 * ee
        assert sum(energy_components(state)) == pytest.approx(expected, rel=1e-14)

    def test_decay_zero_sources(self):
        mesh = MaxwellMesh(16, 16)
        for alpha, beta in [(0.3, 0.6), (0.7, 1.0)]:
            params = default_params(alpha=alpha, beta=beta)
            tr = run_energy(mesh, params, tau=0.05, t_final=1.0)
            assert ((tr.total[1:] - tr.total[:-1]) <= 1e-10 * tr.total[0]).all()
            assert (tr.term_e >= 0).all() and (tr.term_h >= 0).all() and (tr.term_hist >= 0).all()

    @pytest.mark.xfail(
        strict=True,
        reason="the energy functional rises when E flips sign between steps: its step change "
        "is -delta_eps*w_1*(E^1, E^0) at m = 1, positive for rough data and large tau "
        "(1x2 mesh, tau = 1, random fields: +7.5% of E^0)",
    )
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        nx=st.integers(1, 8),
        ny=st.integers(1, 8),
        tau=st.floats(1e-3, 2.0),
        alpha=st.floats(0.05, 0.95),
        beta=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(nx=1, ny=2, tau=1.0, alpha=0.5, beta=1.0, seed=0)  # the known rise, found first
    def test_decay_random_data(self, nx, ny, tau, alpha, beta, seed):
        # zero sources: no rise beyond roundoff for any step size and initial fields
        mesh = MaxwellMesh(nx, ny)
        params = default_params(alpha=alpha, beta=beta)
        n_steps = 8
        w = cm2_memory(alpha, beta, tau, n_steps)
        rng = np.random.default_rng(seed)
        e0, h0 = rng.normal(size=mesh.n_edges), rng.normal(size=mesh.n_cells)
        state = init_state(mesh, params, w, e0, h0)
        totals = [sum(energy_components(state))]
        for _ in range(n_steps):
            totals.append(sum(energy_components(step(state))))
        assert (np.diff(totals) <= 1e-10 * totals[0]).all()

    @pytest.mark.xfail(
        strict=True,
        reason="on the standing data too the functional rises at large tau: 8x8 mesh, "
        "tau = 2, +1.4% of E^0 at step 4",
    )
    def test_decay_standing_data_large_tau(self):
        tr = run_energy(MaxwellMesh(8, 8), default_params(), tau=2.0, t_final=16.0)
        assert (np.diff(tr.total) <= 1e-10 * tr.total[0]).all()

    def test_crank_nicolson_conservation(self):
        # delta_eps = 0 removes dispersion; midpoint scheme conserves energy
        mesh = MaxwellMesh(8, 8)
        params = default_params(delta_eps=0.0)
        tr = run_energy(mesh, params, tau=0.02, t_final=1.0)
        assert np.max(np.abs(tr.total - tr.total[0])) <= 1e-12 * tr.total[0]

    def test_history_recomputation_matches(self):
        mesh = MaxwellMesh(6, 6)
        ops = assemble(mesh)
        params = default_params(alpha=0.4, beta=0.8)
        n_steps = 12
        w = cm2_memory(0.4, 0.8, 0.05, n_steps)
        e0, h0 = interpolate_E(mesh, decay_initial_E), interpolate_H(mesh, decay_initial_H)
        state = init_state(mesh, params, w, e0, h0)
        levels = [state.fields.e.copy()]
        for _ in range(n_steps):
            step(state)
            levels.append(state.fields.e.copy())
        # from-scratch convolution of the E levels seen while stepping, with the
        # materialized weights of the fitted exponential sum
        w_hat = w.weights()
        conv = sum(w_hat[n_steps - k] * (ops.m_e_full @ levels[k]) for k in range(n_steps + 1))
        assert np.allclose(params.delta_eps * conv, ops.m_e_full @ state.fields.p, rtol=1e-12, atol=1e-15)
        hist = sum(
            w_hat[n_steps - k] * levels[k] @ (ops.m_e_full @ levels[k])
            for k in range(n_steps + 1)
        )
        _, _, term_hist = energy_components(state)
        assert term_hist == pytest.approx(params.delta_eps * hist, rel=1e-12)


def dense_history_run(mesh, params, memory, sources, e0, h0):
    """The dense-history stepper on the materialized weights w_hat, in the
    mesh's eigenbasis: every level stores modal M_E e^k and ||E^k||^2, the step
    convolves the whole stored history and solves the 2x2 system of each H
    mode, and P is recovered by a mass division.  Yields (e, h, p, energy) per
    level, fields as dof vectors."""
    modes = mesh.modes
    w = memory.weights()
    tau, n_steps = memory.tau, memory.order
    me_hist = np.zeros((n_steps + 1, *modes.mass.shape))
    norm_sq = np.zeros(n_steps + 1)
    e, h = modes.edges_to_modes(e0), modes.cells_to_modes(h0)
    curl = lambda e: (modes.curl * e).sum(axis=0)
    # per H mode: ((eps_inf + delta_eps w0)/tau) diag(mass) + (tau / (4 area)) c c^T
    c = np.moveaxis(modes.curl, 0, -1)
    blocks = (0.25 * tau / modes.area) * c[..., :, None] * c[..., None, :]
    blocks += ((params.eps_inf + params.delta_eps * w[0]) / tau) * (
        np.moveaxis(modes.mass, 0, -1)[..., None] * np.eye(2)
    )
    solve = lambda rhs: np.moveaxis(
        np.linalg.solve(blocks, np.moveaxis(rhs, 0, -1)[..., None])[..., 0], -1, 0
    )

    def close(n):
        me_hist[n] = modes.mass * e
        norm_sq[n] = np.vdot(e, me_hist[n])
        p = (
            params.delta_eps * np.tensordot(w[n::-1], me_hist[: n + 1], axes=1)
            + sources.g3(n * tau)
        ) / modes.mass
        total = (
            params.eps_inf * norm_sq[n]
            + modes.area * np.vdot(h, h)
            + params.delta_eps * (w[n::-1] @ norm_sq[: n + 1])
        )
        return modes.modes_to_edges(e), modes.modes_to_cells(h), modes.modes_to_edges(p), total

    yield close(0)
    for m in range(1, n_steps + 1):
        t_m, t_prev = m * tau, (m - 1) * tau
        dw = w[m:0:-1] - w[m - 1 :: -1]
        rhs = (params.eps_inf / tau) * me_hist[m - 1]
        rhs -= (params.delta_eps / tau) * np.tensordot(dw, me_hist[:m], axes=1)
        b2 = 0.5 * (sources.g2(t_m) + sources.g2(t_prev))
        rhs += modes.curl * (h - 0.25 * tau * curl(e) / modes.area + 0.5 * tau * b2 / modes.area)
        rhs += 0.5 * (sources.g1(t_m) + sources.g1(t_prev))
        rhs -= (sources.g3(t_m) - sources.g3(t_prev)) / tau
        e_new = solve(rhs)
        h = h - 0.5 * tau * curl(e_new + e) / modes.area + tau * b2 / modes.area
        e = e_new
        yield close(m)


def sparse_reference_run(ops, params, memory, sources, e0, h0):
    """An independent dense-history stepper on the sparse matrices restricted
    to the free edge dofs: one spsolve per step and per P recovery, and the
    manufactured loads assembled pointwise at every level.  Yields (e, h, p)
    per level as dof vectors."""
    mesh, m_h = ops.mesh, ops.m_h_diag
    free = mesh.free_edges
    w = memory.weights()
    tau, n_steps = memory.tau, memory.order
    step_matrix, m_e = reduced_matrices(ops, params, tau, w[0])
    c = sp.csr_matrix(ops.c_full[:, free])
    edge_load = lambda g, t: assemble_edge_load(mesh, g, t)[free]
    e, h = e0[free], h0.copy()
    me_hist = []

    def expand(field):
        full = np.zeros(mesh.n_edges)
        full[free] = field
        return full

    def close(n):
        me_hist.append(m_e @ e)
        conv = sum(w[n - k] * me_hist[k] for k in range(n + 1))
        p = spla.spsolve(m_e, params.delta_eps * conv + edge_load(sources.g3, n * tau))
        return expand(e), h, expand(p)

    yield close(0)
    for m in range(1, n_steps + 1):
        t_m, t_prev = m * tau, (m - 1) * tau
        increment = sum((w[m - k] - w[m - 1 - k]) * me_hist[k] for k in range(m))
        b2 = 0.5 * (
            assemble_cell_load(mesh, sources.g2, t_m) + assemble_cell_load(mesh, sources.g2, t_prev)
        )
        rhs = (params.eps_inf / tau) * (m_e @ e) - (params.delta_eps / tau) * increment
        rhs += c.T @ h - 0.25 * tau * (c.T @ ((c @ e) / m_h)) + 0.5 * tau * (c.T @ (b2 / m_h))
        rhs += 0.5 * (edge_load(sources.g1, t_m) + edge_load(sources.g1, t_prev))
        rhs -= (edge_load(sources.g3, t_m) - edge_load(sources.g3, t_prev)) / tau
        e_new = spla.spsolve(step_matrix, rhs)
        h = h - 0.5 * tau * (c @ (e_new + e)) / m_h + tau * b2 / m_h
        e = e_new
        yield close(m)


def assert_matches_dense_history(mesh, params, memory, inspect=lambda state: None):
    """Step the manufactured problem to ``memory.order`` and compare E, H, P
    (read at every level, so also inside open memory blocks) and the energy
    with the dense-history oracle, each within 1e-12 relative; calls
    ``inspect(state)`` at every level."""
    sources = manufactured_sources(params).assemble(mesh)
    e0, h0 = interpolate_E(mesh, exact_E, 0.0), interpolate_H(mesh, exact_H, 0.0)
    state = init_state(mesh, params, memory, e0, h0, sources)
    for level, (e, h, p, total) in enumerate(
        dense_history_run(mesh, params, memory, sources, e0, h0)
    ):
        if level > 0:
            step(state)
        for got, want in ((state.fields.e, e), (state.fields.h, h), (state.fields.p, p)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert sum(energy_components(state)) == pytest.approx(total, rel=1e-12)
        inspect(state)
    assert state.n == memory.order


class TestDenseHistoryOracle:
    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (0.3, 1.0)])
    def test_accumulators_match_dense_history(self, alpha, beta):
        params = default_params(eps_inf=1.5, delta_eps=2.0, alpha=alpha, beta=beta)
        n_steps = 200
        memory = cm2_memory(alpha, beta, 1.0 / n_steps, n_steps)
        assert_matches_dense_history(MaxwellMesh(8, 8), params, memory)

    @pytest.mark.parametrize(
        "n_steps", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5, 10], ids=lambda n: f"{n}steps"
    )
    def test_block_edges_match_dense_history(self, n_steps):
        # runs ending before, at and after a full memory block, and the
        # 10-step coarse run of the convergence studies
        params = default_params(eps_inf=1.5, delta_eps=2.0, alpha=0.3, beta=0.8)
        memory = cm2_memory(0.3, 0.8, 0.1, n_steps)
        starts = []
        assert_matches_dense_history(
            MaxwellMesh(5, 7), params, memory, lambda state: starts.append(state.block_start)
        )
        assert starts == [n - (n + 1) % BLOCK for n in range(n_steps + 1)]

    def test_block_fold_makes_no_accumulator_sized_temporary(self):
        # the step that closes a block folds L x dofs accumulators; at 32x32
        # with a tau = 1/64 fit that is L > BLOCK rows, and the step allocates
        # less than one copy of them
        mesh = MaxwellMesh(32, 32)
        memory = cm2_memory(0.5, 0.5, 1 / 64, 64)
        assert memory.rates.size > BLOCK
        e0, h0 = interpolate_E(mesh, decay_initial_E), interpolate_H(mesh, decay_initial_H)
        state = init_state(mesh, default_params(), memory, e0, h0)
        for _ in range(BLOCK - 2):
            step(state)
        tracemalloc.start()
        try:
            step(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.n % BLOCK == BLOCK - 1
        assert peak < state.acc_e.nbytes

    def test_vanishing_rates_leave_no_subnormals(self):
        # r = 1e-20 has a subnormal r^16; r = e^-400 is the smallest candidate
        # rate of the fit.  Their power-table entries below POWER_FLOOR are
        # zero, so neither the tables nor the buffers hold subnormal numbers.
        memory = ExpSum(
            tau=0.05,
            order=3 * BLOCK + 5,
            coeffs=np.array([0.2, 0.3, 0.4, 0.5]),
            rates=np.array([0.9, 0.5, 1e-20, math.exp(-400.0)]),
            miss=0.0,
        )
        params = default_params(eps_inf=1.5, delta_eps=2.0, alpha=0.3, beta=0.8)

        def no_subnormals(state):
            for buffer in (state.acc_e, state.near, state.far, *vars(state.tables).values()):
                assert not ((buffer != 0.0) & (np.abs(buffer) < np.finfo(float).tiny)).any()

        assert_matches_dense_history(MaxwellMesh(6, 6), params, memory, no_subnormals)

    @pytest.mark.parametrize("nx,ny", [(8, 8), (5, 7), (1, 4), (3, 1)])
    def test_trajectory_matches_sparse_reference(self, nx, ny):
        mesh = MaxwellMesh(nx, ny)
        ops = assemble(mesh)
        params = default_params(eps_inf=1.5, delta_eps=2.0, alpha=0.3, beta=0.8)
        n_steps = 40
        memory = cm2_memory(0.3, 0.8, 1.0 / n_steps, n_steps)
        source_set = manufactured_sources(params)
        e0, h0 = interpolate_E(mesh, exact_E, 0.0), interpolate_H(mesh, exact_H, 0.0)
        state = init_state(mesh, params, memory, e0, h0, source_set.assemble(mesh))
        diffs, sizes = np.zeros((n_steps + 1, 3)), np.zeros((n_steps + 1, 3))
        for level, want in enumerate(sparse_reference_run(ops, params, memory, source_set, e0, h0)):
            if level > 0:
                step(state)
            got = state.fields
            for i, (g, r) in enumerate(zip((got.e, got.h, got.p), want)):
                diffs[level, i] = np.linalg.norm(g - r)
                sizes[level, i] = np.linalg.norm(r)
        # E starts at 0, so compare with each field's largest size over the run
        assert (diffs.max(axis=0) <= 1e-12 * sizes.max(axis=0)).all()

    def test_zero_g3_needs_no_mass_solve(self, monkeypatch):
        # zero sources: P comes from the accumulators alone
        mesh = MaxwellMesh(4, 4)
        memory = cm2_memory(0.5, 0.5, 0.1, 4)
        monkeypatch.setattr(StepOperator, "solve_mass", lambda self, rhs: pytest.fail("mass solve"))
        e0, h0 = interpolate_E(mesh, decay_initial_E), interpolate_H(mesh, decay_initial_H)
        state = init_state(mesh, default_params(), memory, e0, h0, SourceLoads())
        for _ in range(4):
            step(state)
        assert np.linalg.norm(state.fields.p) > 0.0


class TestSourceEvaluation:
    @pytest.mark.parametrize("which", ["g1", "g2", "g3"])
    def test_each_source_evaluated_once_per_level(self, which):
        # n steps visit n + 1 levels; each needs its source at t_n exactly once
        mesh = MaxwellMesh(4, 3)
        calls = []

        def factor(t):
            calls.append(t)
            return 1.0 + t

        spatial = _h_field if which == "g2" else _e_field
        loads = SourceSet(**{which: Separable(((factor, spatial),))}).assemble(mesh)
        n_steps = 6
        memory = cm2_memory(0.5, 0.5, 0.1, n_steps)
        e0 = interpolate_E(mesh, decay_initial_E)
        state = init_state(mesh, default_params(), memory, e0, np.zeros(mesh.n_cells), loads)
        for _ in range(n_steps):
            step(state)
        assert len(calls) == n_steps + 1
        assert calls == pytest.approx([0.1 * n for n in range(n_steps + 1)], rel=1e-15)

    def test_drivers_need_no_sparse_assembly(self, monkeypatch):
        def fail(mesh):
            raise AssertionError("sparse assembly")

        for module in (fem, stepper):
            monkeypatch.setattr(module, "assemble", fail, raising=False)
        mesh = MaxwellMesh(4, 4)
        trace = run_energy(mesh, default_params(), tau=0.25, t_final=1.0)
        assert trace.total.size == 5
        for mode in ("vs_exact", "vs_reference"):
            report = run_convergence(mesh, default_params(), (1 / 2, 1 / 4), mode=mode)
            assert (report.err_e > 0).all() and (report.err_p > 0).all()


def _e_field(x, y):
    return x * (1.0 - x) * y, np.sin(np.pi * x) + 0.0 * y


def _h_field(x, y):
    return x + y**2


class TestManufacturedSources:
    def test_g2_at_time_zero(self):
        src = manufactured_sources(default_params())
        x = np.array([0.3, 0.8])
        y = np.array([0.2, 0.6])
        assert np.allclose(src.g2(x, y, 0.0), -(x**3 + 1) * (y**3 + 1), rtol=1e-15)

    def test_g3_zero_at_time_zero(self):
        src = manufactured_sources(default_params())
        x, y = np.array([0.25]), np.array([0.75])
        gx, gy = src.g3(x, y, 0.0)
        assert np.allclose(gx, 0.0) and np.allclose(gy, 0.0)

    def test_g3_frozen_center_value(self):
        src = manufactured_sources(default_params())
        gx, gy = src.g3(np.array([0.5]), np.array([0.5]), 1.0)
        assert gx[0] == pytest.approx(G3X_AT_CENTER, rel=1e-13)
        assert gy[0] == pytest.approx(0.0, abs=1e-15)

    def test_g1_at_time_zero(self):
        # E-terms vanish (t^3, t^2 factors); g1(0) = Phat - curl H(0)
        src = manufactured_sources(default_params(eps_inf=2.0))
        x, y = np.array([0.4]), np.array([0.7])
        gx, gy = src.g1(x, y, 0.0)
        px, py = (x**2 + 1) * y * (y - 1), x * (x - 1) * (y - 0.5)
        assert gx[0] == pytest.approx(px[0] - 3 * y[0] ** 2 * (x[0] ** 3 + 1), rel=1e-14)
        assert gy[0] == pytest.approx(py[0] + 3 * x[0] ** 2 * (y[0] ** 3 + 1), rel=1e-14)

    def test_assembled_loads_match_pointwise_sum(self):
        mesh = MaxwellMesh(7, 5)
        src = manufactured_sources(default_params(eps_inf=1.5, delta_eps=2.0, alpha=0.3, beta=0.8))
        loads = src.assemble(mesh)
        modes = mesh.modes
        for t in np.random.default_rng(3).uniform(0.0, 2.0, size=4):
            t = float(t)
            for got, want in (
                (loads.g1(t), modes.edges_to_modes(assemble_edge_load(mesh, src.g1, t))),
                (loads.g2(t), modes.cells_to_modes(assemble_cell_load(mesh, src.g2, t))),
                (loads.g3(t), modes.edges_to_modes(assemble_edge_load(mesh, src.g3, t))),
            ):
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


class TestSchemeConsistency:
    """Interpolants of the exact solution nearly satisfy the discrete
    equations, with residual dual norms shrinking under joint h, tau
    refinement."""

    @staticmethod
    def _residuals(n_cells, n_steps):
        mesh = MaxwellMesh(n_cells, n_cells)
        ops = assemble(mesh)
        params = default_params()
        tau = 1.0 / n_steps
        src = manufactured_sources(params)
        w = cm2_weights(params.alpha, params.beta, tau, n_steps).weights
        free = mesh.free_edges
        m = n_steps  # probe the final level, t = 1
        t_m, t_prev = m * tau, (m - 1) * tau
        eI = [interpolate_E(mesh, exact_E, k * tau) for k in range(m + 1)]
        pI_m = interpolate_E(mesh, exact_P, t_m)
        pI_prev = interpolate_E(mesh, exact_P, t_prev)
        hI_m = interpolate_H(mesh, exact_H, t_m)
        hI_prev = interpolate_H(mesh, exact_H, t_prev)

        b1 = 0.5 * (
            assemble_edge_load(mesh, src.g1, t_m) + assemble_edge_load(mesh, src.g1, t_prev)
        )
        b2 = 0.5 * (
            assemble_cell_load(mesh, src.g2, t_m) + assemble_cell_load(mesh, src.g2, t_prev)
        )
        b3 = assemble_edge_load(mesh, src.g3, t_m)

        me = ops.m_e_full
        # curl pairing (H, curl phi) with piecewise-constant H is simply C^T h
        r1 = (
            params.eps_inf * (me @ (eI[m] - eI[m - 1])) / tau
            + (me @ (pI_m - pI_prev)) / tau
            - 0.5 * (ops.c_full.T @ (hI_m + hI_prev))
            - b1
        )[free]
        r2 = (
            ops.m_h_diag * (hI_m - hI_prev) / tau
            + 0.5 * (ops.c_full @ (eI[m] + eI[m - 1]))
            - b2
        )
        conv = sum(w[m - k] * (me @ eI[k]) for k in range(m + 1))
        r3 = ((me @ pI_m) - params.delta_eps * conv - b3)[free]

        mass_lu = spla.splu(sp.csc_matrix(ops.m_e_full[free][:, free]))
        dual_e = lambda r: math.sqrt(max(r @ mass_lu.solve(r), 0.0))
        dual_h = math.sqrt(r2 @ (r2 / ops.m_h_diag))
        return dual_e(r1), dual_h, dual_e(r3)

    def test_residuals_shrink_under_refinement(self):
        coarse = self._residuals(8, 8)
        fine = self._residuals(16, 16)
        for rc, rf in zip(coarse, fine):
            assert rf < rc / 1.5


class TestConvergence:
    def test_vs_reference_second_order(self):
        mesh = MaxwellMesh(16, 16)
        report = run_convergence(
            mesh, default_params(), (1 / 10, 1 / 20, 1 / 40), mode="vs_reference", tau_ref=1 / 320
        )
        assert (report.rate_e > 1.7).all() and (report.rate_e < 2.3).all()
        assert (report.rate_h > 1.6).all() and (report.rate_h < 2.4).all()
        assert (np.diff(report.err_e) < 0).all()

    def test_vs_exact_errors_finite_and_bounded(self):
        mesh = MaxwellMesh(16, 16)
        report = run_convergence(mesh, default_params(), (1 / 5, 1 / 10), mode="vs_exact")
        assert (report.err_e > 0).all() and (report.err_e < 0.1).all()
        assert (report.err_h > 0).all() and (report.err_h < 0.1).all()
        assert (report.err_p > 0).all() and (report.err_p < 0.1).all()

    def test_tau_list_validation(self):
        mesh = MaxwellMesh(4, 4)
        with pytest.raises(ValueError):
            run_convergence(mesh, default_params(), (1 / 10, 1 / 30))
        with pytest.raises(ValueError, match="at least one step size"):
            run_convergence(mesh, default_params(), [])
        with pytest.raises(ValueError):
            run_convergence(mesh, default_params(), (1 / 10, 1 / 20), mode="bogus")
        with pytest.raises(ValueError):
            run_convergence(
                mesh, default_params(), (1 / 10, 1 / 20), mode="vs_reference", tau_ref=1 / 50
            )
        with pytest.raises(ValueError, match="tau_ref"):
            run_convergence(
                mesh, default_params(), (1 / 10, 1 / 20), mode="vs_exact", tau_ref=1 / 80
            )

    def test_coarse_step_refused_before_any_step(self, monkeypatch):
        # T = 0.75 is 3 steps of 0.25 but not whole steps of 0.5: refused before
        # the reference run takes its first step
        calls = []
        monkeypatch.setattr(stepper, "step", lambda state: calls.append(state.n))
        with pytest.raises(ValueError, match="multiple of tau=0.5"):
            run_convergence(MaxwellMesh(2, 2), default_params(), (0.5, 0.25), t_final=0.75)
        assert calls == []

    def test_observed_rates(self):
        assert observed_rates([(0.1, 1e-2), (0.05, 2.5e-3)]) == [2.0]
        assert observed_rates([(0.1, 1e-3), (0.05, 1e-3)]) == [0.0]
        # published-style error triple reproduces its printed rates
        rates = observed_rates([(0.2, 4.4878e-3), (0.1, 1.1275e-3), (0.05, 2.8143e-4)])
        assert [round(r, 2) for r in rates] == [1.99, 2.0]
        with pytest.raises(ValueError):
            observed_rates([(0.1, 1e-2), (0.03, 1e-3)])
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                observed_rates([(0.1, 1e-2), (0.05, bad)])

    def test_step_count_validation(self):
        mesh = MaxwellMesh(4, 4)
        with pytest.raises(ValueError):
            run_energy(mesh, default_params(), tau=0.3, t_final=1.0)
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            run_energy(mesh, default_params(), tau=0.0, t_final=1.0)
        with pytest.raises(ValueError, match="final time must be positive and finite"):
            run_energy(mesh, default_params(), tau=0.25, t_final=math.inf)
        with pytest.raises(ValueError, match="integer multiple"):  # T / tau overflows
            run_energy(mesh, default_params(), tau=1e-300, t_final=1e300)
        # whole step counts that no array can hold
        with pytest.raises(ValueError, match="step count 1e\\+300 of final time 1.0"):
            run_energy(mesh, default_params(), tau=1e-300, t_final=1.0)
        with pytest.raises(ValueError, match="step count 1.25e\\+299 of smallest tau 0.125"):
            run_convergence(mesh, default_params(), (0.25, 0.125), tau_ref=1e-300)
        # a long but holdable reference run stays allowed
        assert stepper._step_count(0.125, 1e-7, ("smallest tau", "tau_ref")) == 1_250_000

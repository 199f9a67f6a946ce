"""Alternating-difference checks and the (alpha, beta) sweep machinery."""

import concurrent.futures

import numpy as np
import pytest

from hnmaxwell import monotonicity
from hnmaxwell.monotonicity import (
    alternating_diff,
    default_grid,
    index_k,
    indicator_rho,
    sweep_grid,
)
from hnmaxwell.quadrature import bdf_cq_weights, cm2_weights

# 50-digit Miller-recurrence oracle: (I-S)^3 w_0 for cm2(0.5, 0.5, 0.01, N=10)
THIRD_DIFF_AT_0 = 0.127994375142175736


def test_zeroth_difference_is_value():
    w = np.array([3.0, 2.0, 1.0])
    assert alternating_diff(w, 0, 1) == 2.0


def test_first_difference():
    w = np.array([3.0, 2.0, 1.0])
    assert alternating_diff(w, 1, 0) == 1.0


def test_third_difference_extended_precision_oracle():
    val = alternating_diff(cm2_weights(0.5, 0.5, 0.01, 10).weights, 3, 0)
    assert val == pytest.approx(THIRD_DIFF_AT_0, rel=1e-13)
    assert val >= 0.0


def test_recursive_consistency():
    # (I-S)^k w_j equals (I-S)^{k-1} applied to the first-difference sequence
    rng = np.random.default_rng(3)
    for w in (rng.uniform(size=30), cm2_weights(0.3, 0.8, 0.05, 29).weights):
        dw = w[:-1] - w[1:]
        for k in (1, 2, 3, 4):
            for j in (0, 5, 20):
                assert alternating_diff(w, k, j) == pytest.approx(
                    alternating_diff(dw, k - 1, j), abs=1e-12
                )


def test_out_of_range_difference():
    w = np.ones(5)
    with pytest.raises(IndexError):
        alternating_diff(w, 3, 2)
    with pytest.raises(IndexError):
        alternating_diff(w, 0, 5)


def test_index_constant_sequence():
    assert index_k(np.ones(50), 1, 49) == 0.0


def test_index_window_validation():
    w = np.ones(10)
    with pytest.raises(ValueError):
        index_k(w, 1, 10)
    with pytest.raises(ValueError):
        index_k(w, 5, 4)
    with pytest.raises(ValueError):
        index_k(w, -1, 9)


def test_cm2_indices_nonnegative():
    w = cm2_weights(0.5, 0.5, 0.01, 1000).weights
    for k in range(4):
        assert index_k(w, k, 1000) >= -1e-13


def test_bdf2_indices_negative():
    w = bdf_cq_weights(2, 0.9, 0.9, 0.01, 1000).weights
    assert any(index_k(w, k, 1000) < 0.0 for k in (1, 2, 3))


def test_indicator_rho():
    assert indicator_rho(1.0) == 1
    assert indicator_rho(0.0) == 1
    assert indicator_rho(-1e-300) == 0


def test_default_grid():
    g = default_grid(0.05)
    assert g.size == 19
    assert g[0] == pytest.approx(0.05) and g[-1] == pytest.approx(0.95)
    for step in (0.0, 1.0):
        with pytest.raises(ValueError, match="grid step"):
            default_grid(step)


def test_sweep_single_point_matches_direct():
    rows = sweep_grid("cm2", [0.5], [0.5], 0.01, 200, 3, threads=1)
    assert len(rows) == 1
    alpha, beta, indices = rows[0]
    w = cm2_weights(0.5, 0.5, 0.01, 200).weights
    for k in range(4):
        assert indices[k] == pytest.approx(index_k(w, k, 200), abs=1e-16)


def test_sweep_parallel_matches_serial():
    grid = [0.2, 0.5, 0.8]
    serial = sweep_grid("bdf2", grid, grid, 0.01, 300, 3, threads=1)
    parallel = sweep_grid("bdf2", grid, grid, 0.01, 300, 3, threads=2)
    assert [(a, b) for a, b, _ in serial] == [(a, b) for a, b, _ in parallel]
    for (_, _, rs), (_, _, rp) in zip(serial, parallel):
        assert np.array_equal(rs, rp)


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        sweep_grid("cm2", [], [0.5], 0.01, 100, 3)


@pytest.mark.parametrize("k_max", [-1, 101], ids=["kmax-negative", "kmax-above-J"])
def test_sweep_window_rejected_before_any_table(monkeypatch, k_max):
    def fail(*args):
        raise AssertionError("a weight table was generated")

    monkeypatch.setattr(monotonicity, "generate_weights", fail)
    with pytest.raises(ValueError, match="k_max"):
        sweep_grid("cm2", [0.5], [0.5], 0.01, 100, k_max, threads=1)


def test_threads_below_one_rejected():
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads"):
            sweep_grid("cm2", [0.5], [0.5], 0.01, 100, 3, threads=threads)


def test_bdf1_full_grid_monotone():
    # Euler CQ keeps complete monotonicity on the whole parameter grid
    grid = default_grid(0.05)
    rows = sweep_grid("bdf1", grid, grid, 0.01, 1000, 3)
    worst = min(float(indices.min()) for _, _, indices in rows)
    assert worst >= -1e-13


def test_sweep_pool_never_exceeds_cells_or_cpus(monkeypatch):
    # a stand-in pool records its size and runs the cells in-process, so no
    # process is started whatever --threads asks for
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    grid = [0.3, 0.5, 0.7]
    serial = sweep_grid("cm2", grid, grid, 0.01, 20, 2, threads=1)
    for cpus, cells, want in ((64, 2, 4), (3, 3, 3), (None, 3, None)):
        sizes.clear()
        monkeypatch.setattr(monotonicity.os, "cpu_count", lambda: cpus)
        rows = sweep_grid("cm2", grid[:cells], grid[:cells], 0.01, 20, 2, threads=1000)
        assert sizes == ([] if want is None else [want])
        assert [r[2].tolist() for r in rows] == [
            r[2].tolist() for r in serial if r[0] in grid[:cells] and r[1] in grid[:cells]
        ]

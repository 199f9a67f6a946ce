"""Complete-monotonicity verification for weight sequences.

A sequence (w_0, w_1, ...) is completely monotonic when every order of
alternating forward difference is nonnegative:

    (I - S)^k w_j = sum_{n=0..k} (-1)^n C(k, n) w_{n+j} >= 0   for all k, j,

with S the backshift operator.  On a finite window the certificate is

    index_k(w, J) = min_{0 <= j <= J-k} (I - S)^k w_j,

nonnegative (up to roundoff) for every k up to the inspected order.  The
sweep driver evaluates the certificate over an (alpha, beta) grid for a
chosen quadrature scheme, in parallel when asked to.

(I - S)^k w is formed by differencing k times, d <- d[:-1] - d[1:], one
pass per order.  A subtraction x - y is exact in floating point when
y/2 <= x <= 2y (Sterbenz), and the differences of a CM sequence are CM
again, so log-convex: their ratio d_{j+1}/d_j grows with j.  Every entry but
the first few is therefore differenced without rounding, and those first
ones are large and subtract without cancellation.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from .quadrature import generate_weights

__all__ = [
    "alternating_diff",
    "index_k",
    "indicator_rho",
    "sweep_grid",
    "default_grid",
]


def _differences(w: np.ndarray, k_max: int) -> list[np.ndarray]:
    """[(I-S)^k w for k = 0..k_max], each over every admissible offset j."""
    diffs = [w]
    for _ in range(k_max):
        diffs.append(diffs[-1][:-1] - diffs[-1][1:])
    return diffs


def alternating_diff(w: np.ndarray, k: int, j: int) -> float:
    """k-th alternating forward difference of w at offset j."""
    w = np.asarray(w, dtype=float)
    if k < 0 or j < 0 or j + k >= w.size:
        raise IndexError(f"difference (k={k}, j={j}) out of range for {w.size} weights")
    return float(_differences(w[j : j + k + 1], k)[k][0])


def index_k(w: np.ndarray, k: int, j_max: int) -> float:
    """Minimum of the k-th alternating difference over j in [0, j_max - k]."""
    w = np.asarray(w, dtype=float)
    if j_max >= w.size:
        raise ValueError(f"window J={j_max} needs at least J+1 weights, got {w.size}")
    if not 0 <= k <= j_max:
        raise ValueError(f"difference order k={k} must lie in [0, J={j_max}]")
    return float(_differences(w[: j_max + 1], k)[k].min())


def indicator_rho(x: float) -> int:
    """Exact threshold indicator: 1 for x >= 0, 0 for x < 0."""
    return 1 if x >= 0 else 0


def default_grid(step: float = 0.05) -> np.ndarray:
    """Interior grid over (0, 1): step, 2*step, ..., up to but excluding 1."""
    if not 0.0 < step < 1.0:
        raise ValueError(f"grid step {step:g} must lie in (0, 1)")
    n = int(round(1.0 / step)) - 1
    return np.round(np.arange(1, n + 1) * step, 12)


def _sweep_point(args) -> tuple[float, float, np.ndarray]:
    scheme, alpha, beta, tau, j_max, k_max = args
    w = generate_weights(scheme, alpha, beta, tau, j_max).weights
    return alpha, beta, np.array([d.min() for d in _differences(w[: j_max + 1], k_max)])


def sweep_grid(
    scheme: str,
    alpha_grid: Sequence[float],
    beta_grid: Sequence[float],
    tau: float,
    j_max: int,
    k_max: int,
    threads: int | None = None,
) -> list[tuple[float, float, np.ndarray]]:
    """index_k for k = 0..k_max at every (alpha, beta) of the grid, as
    (alpha, beta, indices) rows.

    Rows come row-major over the grid (alpha outer, beta inner) regardless of
    worker scheduling.  The pool never holds more processes than there are
    cells or CPUs, whatever ``threads`` asks for; ``threads`` below 1 and a
    ``k_max`` outside [0, ``j_max``] are refused before any table is made.
    """
    if len(alpha_grid) == 0 or len(beta_grid) == 0:
        raise ValueError("alpha and beta grids must be nonempty")
    if not 0 <= k_max <= j_max:
        raise ValueError(f"difference order k_max={k_max} must lie in [0, J={j_max}]")
    if threads is not None and threads < 1:
        raise ValueError(f"threads={threads} must be at least 1")
    jobs = [(scheme, float(a), float(b), tau, j_max, k_max) for a in alpha_grid for b in beta_grid]
    cpus = os.cpu_count() or 1
    workers = min(cpus if threads is None else threads, len(jobs), cpus)
    if workers <= 1 or len(jobs) < 4:
        return [_sweep_point(job) for job in jobs]
    # imported here: the process pool costs every other run about 30 ms of imports
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(jobs) // (4 * workers))
        return list(pool.map(_sweep_point, jobs, chunksize=chunk))

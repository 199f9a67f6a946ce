"""Complete-monotonicity verification for weight sequences.

A sequence (w_0, w_1, ...) is completely monotonic when every order of
alternating forward difference is nonnegative:

    (I - S)^k w_j = sum_{n=0..k} (-1)^n C(k, n) w_{n+j} >= 0   for all k, j,

with S the backshift operator.  On a finite window the certificate is

    index_k(w, J) = min_{0 <= j <= J-k} (I - S)^k w_j,

nonnegative (up to roundoff) for every k up to the inspected order.  The
sweep driver evaluates the certificate over an (alpha, beta) grid for a
chosen quadrature scheme, in parallel.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .quadrature import generate_weights

__all__ = [
    "IndexReport",
    "alternating_diff",
    "index_k",
    "indicator_rho",
    "sweep_grid",
    "default_grid",
]


@dataclass(frozen=True)
class IndexReport:
    """Minimum alternating differences of one weight sequence.

    indices[k] = index_k over the window j in [0, J-k]; argmin_j[k] records
    where the minimum is attained.
    """

    k_max: int
    j_max: int
    indices: np.ndarray
    argmin_j: np.ndarray


def alternating_diff(w: np.ndarray, k: int, j: int) -> float:
    """k-th alternating forward difference of w at offset j."""
    w = np.asarray(w, dtype=float)
    if k < 0 or j < 0 or j + k >= w.size:
        raise IndexError(f"difference (k={k}, j={j}) out of range for {w.size} weights")
    return float(_diff_all(w[j : j + k + 1], k)[0])


def _diff_all(w: np.ndarray, k: int) -> np.ndarray:
    """Vector of (I-S)^k w_j for every admissible j, computed columnwise.

    The binomial-weighted sum is accumulated with Kahan compensation: third
    differences of small weights sit near the double-precision noise floor.
    """
    coeffs = np.array([(-1.0) ** n * math.comb(k, n) for n in range(k + 1)])
    m = w.size - k
    total = np.zeros(m)
    comp = np.zeros(m)
    for n in range(k + 1):
        y = coeffs[n] * w[n : n + m] - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def index_k(w: np.ndarray, k: int, j_max: int) -> float:
    """Minimum of the k-th alternating difference over j in [0, j_max - k]."""
    w = np.asarray(w, dtype=float)
    if j_max >= w.size:
        raise ValueError(f"window J={j_max} needs at least J+1 weights, got {w.size}")
    if k > j_max:
        raise ValueError(f"difference order k={k} exceeds window J={j_max}")
    return float(_diff_all(w[: j_max + 1], k).min())


def indicator_rho(x: float) -> int:
    """Exact threshold indicator: 1 for x >= 0, 0 for x < 0."""
    return 1 if x >= 0 else 0


def default_grid(step: float = 0.05) -> np.ndarray:
    """Interior grid over (0, 1): step, 2*step, ..., up to but excluding 1."""
    n = int(round(1.0 / step)) - 1
    return np.round(np.arange(1, n + 1) * step, 12)


def _sweep_point(args) -> tuple[float, float, IndexReport]:
    scheme, alpha, beta, tau, j_max, k_max = args
    w = generate_weights(scheme, alpha, beta, tau, j_max).weights
    indices = np.empty(k_max + 1)
    argmins = np.empty(k_max + 1, dtype=int)
    for k in range(k_max + 1):
        diffs = _diff_all(w[: j_max + 1], k)
        argmins[k] = int(np.argmin(diffs))
        indices[k] = diffs[argmins[k]]
    return alpha, beta, IndexReport(k_max=k_max, j_max=j_max, indices=indices, argmin_j=argmins)


def sweep_grid(
    scheme: str,
    alpha_grid: Sequence[float],
    beta_grid: Sequence[float],
    tau: float,
    j_max: int,
    k_max: int,
    threads: int | None = None,
) -> list[tuple[float, float, IndexReport]]:
    """Evaluate index_k for k <= k_max over the (alpha, beta) grid.

    Results are returned row-major over the grid (alpha outer, beta inner)
    regardless of worker scheduling.  The pool never holds more processes than
    there are cells or CPUs, whatever ``threads`` asks for.
    """
    if len(alpha_grid) == 0 or len(beta_grid) == 0:
        raise ValueError("alpha and beta grids must be nonempty")
    jobs = [(scheme, float(a), float(b), tau, j_max, k_max) for a in alpha_grid for b in beta_grid]
    cpus = os.cpu_count() or 1
    workers = min(cpus if threads is None else threads, len(jobs), cpus)
    if workers <= 1 or len(jobs) < 4:
        return [_sweep_point(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(jobs) // (4 * workers))
        return list(pool.map(_sweep_point, jobs, chunksize=chunk))

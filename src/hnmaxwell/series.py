"""Truncated formal power series: the coefficient engine behind the
quadrature-weight generating functions.

A series is a plain non-empty 1-d coefficient vector c[0..N] of finite
floats; arithmetic never changes the truncation order and mixing orders is an
error.  Each builder refuses any other input, and a non-finite exponent or
scale, with one ValueError before it does any arithmetic.  Fractional powers
use the J.C.P. Miller recurrence, which only needs a positive constant term.

The recurrence is a lower-triangular Toeplitz-like system in the unknown
coefficients, so ``series_pow`` solves it in blocks of ``BLOCK`` rows (Hairer,
Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532-541): the
contribution of the finished coefficients to a block is two ``np.convolve``
calls, which keeps the O(N^2) work in compiled code instead of one Python
iteration per coefficient.  Only the first block is LU-factorized.  Every
later block is solved in closed form by a Toeplitz identity, from the heads
of c^gamma and c^(-gamma-1): two BLOCK x BLOCK matrix-vector products in
place of an O(BLOCK^3) factorization (derivation in ``series_pow``).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = ["binom_series", "series_mul", "series_pow"]

# Rows of the Miller recurrence solved per block in series_pow.
BLOCK = 64
# Relative size below which series_mul drops a coefficient of its second factor.
TAIL_FLOOR = 1e-100


def _coefficients(c, name: str) -> np.ndarray:
    """c as a float array, refused unless it is a non-empty 1-d vector of
    finite numbers."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d coefficient vector, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError(f"{name} has non-finite coefficients")
    return c


def binom_series(exponent: float, scale: float, n: int) -> np.ndarray:
    """Expansion of (1 - scale*z)^exponent to order n.

    c0 = 1 and c_j = c_{j-1} * scale * (j - 1 - exponent) / j.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"truncation order must be an integer >= 0, got {n!r}")
    if not (math.isfinite(exponent) and math.isfinite(scale)):
        raise ValueError(f"exponent and scale must be finite, got {exponent} and {scale}")
    j = np.arange(1, n + 1, dtype=float)
    factors = scale * (j - 1.0 - exponent) / j
    return np.concatenate(([1.0], np.cumprod(factors)))


def series_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product truncated at the common order.

    Coefficients of b below ``TAIL_FLOOR`` times its largest are taken as
    zero.  That changes a term by less than TAIL_FLOOR * max|b| * sum_i |a_i|,
    far below its last bit for the quadrature factors, and keeps the products
    with the underflowing tail of a geometric factor (1 - d z)^e out of slow
    subnormal arithmetic.
    """
    a, b = _coefficients(a, "first factor"), _coefficients(b, "second factor")
    if a.size != b.size:
        raise ValueError(f"truncation orders differ: {a.size - 1} != {b.size - 1}")
    y = np.where(np.abs(b) < TAIL_FLOOR * np.abs(b).max(), 0.0, b)
    return np.convolve(a, y)[: a.size]


def _toeplitz(v: np.ndarray) -> np.ndarray:
    """Lower-triangular Toeplitz matrix T[n, m] = v[n - m], zero above the diagonal."""
    lag = np.subtract.outer(np.arange(v.size), np.arange(v.size))
    return np.concatenate((np.zeros(v.size), v))[v.size + lag]


def _miller_head(c: np.ndarray, gamma: float, t_c: np.ndarray, t_kc: np.ndarray) -> np.ndarray:
    """h_0..h_rows of c^gamma: the first Miller block, rows 1..rows, by one
    LU solve.  t_c and t_kc are the rows x rows Toeplitz matrices of c_k and
    k*c_k.

    The rows are sum_{1<=m<=n} (m - gamma*(n-m)) * c_{n-m} * h_m
    = gamma * n * c_n * h_0.  Reversed, the system is upper triangular with
    diagonal n*c0 > 0, so the LU needs no pivoting and is never singular.
    """
    rows = t_c.shape[0]
    n = np.arange(1, rows + 1)
    h = np.empty(rows + 1)
    h[0] = c[0] ** gamma
    system = t_c * n - gamma * t_kc
    h[1:] = np.linalg.solve(system[::-1, ::-1], (gamma * n * c[1 : rows + 1] * h[0])[::-1])[::-1]
    return h


def series_pow(c: np.ndarray, gamma: float) -> np.ndarray:
    """Raise a series with positive constant term to a real power.

    Miller recurrence: h0 = c0^gamma and, for n >= 1,

        n*c0*h_n = sum_{m<n} (gamma*(n-m) - m) * c_{n-m} * h_m,

    i.e. sum_{m<=n} (m*c_{n-m} - g_{n-m}) * h_m = 0 with g_k = gamma*k*c_k.
    Rows a <= n < b form a block.  The finished coefficients m < a enter
    through the convolutions of h and m*h_m with g and c, r_n = sum_{m<a}
    (g_{n-m} - m*c_{n-m}) * h_m, and the block's own unknowns x_i = h_{a+i}
    solve (C*D_a - gamma*K) x = r.  C and K are the lower-triangular Toeplitz
    matrices of c_k and k*c_k, and D_a = diag(a, ..., b-1).

    The first block (rows 1..BLOCK) is LU-factorized by ``_miller_head``.
    Every later block is solved in closed form.  On series, D_a acts as
    a + zD with zD = z*d/dz, and C^{-1} K is the Toeplitz matrix of
    z*(log c)'.  So the block reads c * (a + zD - gamma*z*(log c)') x = r, and

        zD(c^gamma * u) = c^gamma * zD u + gamma * z*(log c)' * c^gamma * u,
        (a + zD - gamma*z*(log c)')(c^gamma * u) = c^gamma * (a + zD) u,
        x = c^gamma * u with (a + zD) u = c^(-gamma-1) * r.

    All products are of lower-triangular Toeplitz matrices, so the identity
    holds exactly for the block's first coefficients, and

        x = T(c^gamma) * diag(1/a, ..., 1/(b-1)) * T(c^(-gamma-1)) * r,

    with T(v) the lower Toeplitz matrix of v's first ``BLOCK`` coefficients:
    two matrix-vector products per block in place of an O(BLOCK^3) LU.  The
    head of c^gamma is the first block itself; the head of c^(-gamma-1)
    costs one more ``_miller_head``, so a power of any length makes at most
    two ``np.linalg.solve`` calls.

    Accuracy, against the recurrence summed one row at a time (the oracle
    of ``tests/test_series.py``): h_n is within 1e-13 of the size of its
    row, sum_{m<n} |(gamma*(n-m) - m) * c_{n-m} * h_m| / (n*c0).  On a scan
    of 2100 cm2, bdf1 and bdf2 weight symbols (alpha 0.05..0.999, tau
    3e-4..1, gamma -1..1, N 65..1100) the closed form alone reached 7.4e-14
    for gamma <= 0, the weights' case (an LU per block: 7.5e-14), but
    3.7e-13 for gamma > 0.  So for gamma > 0 each block gets one residual
    correction with its block matrix, which brings the worst to 5.2e-14.
    """
    c = _coefficients(c, "series")
    if not math.isfinite(gamma):
        raise ValueError(f"exponent must be finite, got {gamma}")
    c0 = c[0]
    if c0 <= 0.0:
        raise ValueError(f"constant term must be positive for real powers, got {c0}")
    n_max = c.size - 1
    size = min(BLOCK, n_max)
    k = np.arange(n_max + 1)
    t_c, t_kc = _toeplitz(c[:size]), _toeplitz(k[:size] * c[:size])
    head = _miller_head(c, gamma, t_c, t_kc)
    if n_max <= BLOCK:
        return head
    t_pow = _toeplitz(head[:BLOCK])
    t_inv = _toeplitz(_miller_head(c, -gamma - 1.0, t_c[:-1, :-1], t_kc[:-1, :-1]))

    def closed_form(r: np.ndarray, n: np.ndarray) -> np.ndarray:
        rows = r.size
        return t_pow[:rows, :rows] @ ((t_inv[:rows, :rows] @ r) / n)

    h = np.empty(n_max + 1)
    h[: BLOCK + 1] = head
    g = gamma * k * c
    for a in range(BLOCK + 1, n_max + 1, BLOCK):
        b = min(a + BLOCK, n_max + 1)
        n = k[a:b]
        done = np.convolve(h[:a], g[1:b], "valid") - np.convolve(k[:a] * h[:a], c[1:b], "valid")
        x = closed_form(done, n)
        if gamma > 0.0:  # one residual correction, see the accuracy note
            rows = b - a
            x += closed_form(done - t_c[:rows, :rows] @ (n * x) + gamma * (t_kc[:rows, :rows] @ x), n)
        h[a:b] = x
    return h

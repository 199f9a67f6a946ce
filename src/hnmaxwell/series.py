"""Truncated formal power series: the coefficient engine behind the
quadrature-weight generating functions.

A series is a plain 1-d coefficient vector c[0..N]; arithmetic never changes
the truncation order and mixing orders is an error.  Fractional powers use the
J.C.P. Miller recurrence, which only needs a positive constant term.

The recurrence is a lower-triangular Toeplitz-like system in the unknown
coefficients, so it is solved in blocks of ``BLOCK`` rows (Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532-541): the contribution of
the finished coefficients to a block is two ``np.convolve`` calls, and the
block itself is one dense solve of its reversed, upper-triangular form, which
LU factorizes without pivoting.  That keeps the O(N^2) work in compiled code
instead of one Python iteration per coefficient.  numpy has no triangular
solve, so each block also pays an O(BLOCK^3) factorization whose multipliers
are all zero; the substitution after it, and so every coefficient, is the
one LAPACK's dtrtrs computes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["binom_series", "series_mul", "series_pow"]

# Rows of the Miller recurrence solved per triangular block in series_pow.
BLOCK = 64
# Relative size below which series_mul drops a coefficient of its second factor.
TAIL_FLOOR = 1e-100


def binom_series(exponent: float, scale: float, n: int) -> np.ndarray:
    """Expansion of (1 - scale*z)^exponent to order n.

    c0 = 1 and c_j = c_{j-1} * scale * (j - 1 - exponent) / j.
    """
    if n < 0:
        raise ValueError("truncation order must be >= 0")
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
    if a.size != b.size:
        raise ValueError(f"truncation orders differ: {a.size - 1} != {b.size - 1}")
    y = np.where(np.abs(b) < TAIL_FLOOR * np.abs(b).max(), 0.0, b)
    return np.convolve(a, y)[: a.size]


def series_pow(c: np.ndarray, gamma: float) -> np.ndarray:
    """Raise a series with positive constant term to a real power.

    Miller recurrence: h0 = c0^gamma and, for n >= 1,

        n*c0*h_n = sum_{m<n} (gamma*(n-m) - m) * c_{n-m} * h_m,

    i.e. sum_{m<=n} (m*c_{n-m} - g_{n-m}) * h_m = 0 with g_k = gamma*k*c_k.
    Rows a <= n < b form a block: the finished coefficients m < a enter
    through the convolutions of h and m*h_m with g and c, and the block is the
    lower-triangular system T[n, m] = m*c_{n-m} - g_{n-m} (diagonal n*c0).
    Every block has the same Toeplitz factors c_{n-m} and g_{n-m}; only the
    column weights m move with the block.
    """
    c0 = c[0]
    if c0 <= 0.0:
        raise ValueError(f"constant term must be positive for real powers, got {c0}")
    n_max = c.size - 1
    h = np.empty(n_max + 1)
    h[0] = c0**gamma
    g = gamma * np.arange(n_max + 1) * c
    size = min(BLOCK, n_max)
    lag = np.subtract.outer(np.arange(size), np.arange(size))  # n - m; negative above the diagonal
    c_block, g_block = np.tril(c[lag]), np.tril(g[lag])
    for a in range(1, n_max + 1, BLOCK):
        b = min(a + BLOCK, n_max + 1)
        rows = b - a
        done = np.convolve(h[:a], g[1:b], "valid") - np.convolve(np.arange(a) * h[:a], c[1:b], "valid")
        system = c_block[:rows, :rows] * np.arange(a, b) - g_block[:rows, :rows]
        # reversed, the system is upper triangular with diagonal n*c0 > 0: no pivoting, never singular
        h[a:b] = np.linalg.solve(system[::-1, ::-1], done[::-1])[::-1]
    return h

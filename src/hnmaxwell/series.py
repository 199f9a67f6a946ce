"""Truncated formal power series: the coefficient engine behind the
quadrature-weight generating functions.

A series is a plain coefficient vector c[0..N]; arithmetic never changes the
truncation order and mixing orders is an error.  Fractional powers use the
J.C.P. Miller recurrence, which only needs a positive constant term.

The recurrence is a lower-triangular Toeplitz-like system in the unknown
coefficients, so it is solved in blocks of ``BLOCK`` rows (Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532-541): the contribution of
the finished coefficients to a block is two ``np.convolve`` calls, and the
block itself is one LAPACK triangular solve.  That keeps the O(N^2) work in
compiled code instead of one Python iteration per coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack, toeplitz

__all__ = ["TruncatedSeries", "binom_series", "series_mul", "series_pow"]

# Rows of the Miller recurrence solved per triangular block in series_pow.
BLOCK = 64
# Relative size below which series_mul drops a coefficient of its second factor.
TAIL_FLOOR = 1e-100


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c[0..N] of a formal power series truncated at order N."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coefficient vector must be 1-d with length >= 1")
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def add_scalar(self, x: float) -> "TruncatedSeries":
        c = self.coeffs.copy()
        c[0] += x
        return TruncatedSeries(c)

    def scale(self, x: float) -> "TruncatedSeries":
        return TruncatedSeries(x * self.coeffs)


def binom_series(exponent: float, scale: float, n: int) -> TruncatedSeries:
    """Expansion of (1 - scale*z)^exponent to order n.

    c0 = 1 and c_j = c_{j-1} * scale * (j - 1 - exponent) / j.
    """
    if n < 0:
        raise ValueError("truncation order must be >= 0")
    j = np.arange(1, n + 1, dtype=float)
    factors = scale * (j - 1.0 - exponent) / j
    return TruncatedSeries(np.concatenate(([1.0], np.cumprod(factors))))


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order.

    Coefficients of b below ``TAIL_FLOOR`` times its largest are taken as
    zero.  That changes a term by less than TAIL_FLOOR * max|b| * sum_i |a_i|,
    far below its last bit for the quadrature factors, and keeps the products
    with the underflowing tail of a geometric factor (1 - d z)^e out of slow
    subnormal arithmetic.
    """
    if a.order != b.order:
        raise ValueError(f"truncation orders differ: {a.order} != {b.order}")
    y = b.coeffs
    y = np.where(np.abs(y) < TAIL_FLOOR * np.abs(y).max(), 0.0, y)
    return TruncatedSeries(np.convolve(a.coeffs, y)[: a.order + 1])


def series_pow(f: TruncatedSeries, gamma: float) -> TruncatedSeries:
    """Raise a series with positive constant term to a real power.

    Miller recurrence: h0 = f0^gamma and, for n >= 1,

        n*f0*h_n = sum_{m<n} (gamma*(n-m) - m) * f_{n-m} * h_m,

    i.e. sum_{m<=n} (m*f_{n-m} - g_{n-m}) * h_m = 0 with g_k = gamma*k*f_k.
    Rows a <= n < b form a block: the finished coefficients m < a enter
    through the convolutions of h and m*h_m with g and f, and the block is the
    lower-triangular system T[n, m] = m*f_{n-m} - g_{n-m} (diagonal n*f0).
    Every block has the same Toeplitz factors f_{n-m} and g_{n-m}; only the
    column weights m move with the block.
    """
    c = f.coeffs
    f0 = c[0]
    if f0 <= 0.0:
        raise ValueError(f"constant term must be positive for real powers, got {f0}")
    n_max = f.order
    h = np.empty(n_max + 1)
    h[0] = f0**gamma
    g = gamma * np.arange(n_max + 1) * c
    size = min(BLOCK, n_max)
    f_block = toeplitz(c[:size], np.zeros(size))  # f_{n-m}, zero above the diagonal
    g_block = toeplitz(g[:size], np.zeros(size))
    for a in range(1, n_max + 1, BLOCK):
        b = min(a + BLOCK, n_max + 1)
        rows = b - a
        done = np.convolve(h[:a], g[1:b], "valid") - np.convolve(np.arange(a) * h[:a], c[1:b], "valid")
        system = f_block[:rows, :rows] * np.arange(a, b) - g_block[:rows, :rows]
        h[a:b] = lapack.dtrtrs(system, done, lower=1)[0]  # diagonal n*f0 > 0: never singular
    return TruncatedSeries(h)

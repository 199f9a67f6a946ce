"""Convolution-quadrature weight generation for the Havriliak-Negami kernel.

Three schemes, named in ``SCHEMES``, each built by
``generate_weights(scheme, alpha, beta, tau, n)``:

* "cm2" - the completely-monotone second-order weights (also
  ``cm2_weights``).  Their generating function is

      w(z) = [1 + ((1-z)/tau)^alpha * (c*(1 - d*z))^(1-alpha)]^(-beta),
      c = (2-alpha)/(2-2*alpha),  d = alpha/(2-alpha),

  whose Taylor coefficients give a nonnegative, completely monotonic weight
  sequence while retaining second-order quadrature accuracy.

* "bdf1" and "bdf2" - classical CQ built on the BDF-1/BDF-2 generating
  polynomials, w(z) = (1 + (delta(z)/tau)^alpha)^(-beta).  BDF-2 weights are
  second order but lose complete monotonicity; they exist here as the
  counterexample baseline.

Both BDF symbols factor over (1-z), delta_1 = 1-z and
delta_2 = (3/2)(1-z)(1-z/3), so delta^alpha is a product of two closed-form
binomial series, as in cm2.  All three schemes therefore share one form,

      w(z) = [1 + s * (1-z)^alpha * (1 - d*z)^e]^(-beta),

with (s, d, e) = (tau^-alpha c^(1-alpha), d, 1-alpha) for cm2,
(tau^-alpha, 0, 0) for bdf1 and ((3/(2 tau))^alpha, 1/3, alpha) for bdf2
(``_symbol``).  ``generate_weights`` is the one builder: it validates the
orders and the step, and makes one call of the Miller recurrence
(``series_pow``) per table.  An independent FFT/Cauchy-integral oracle lives
in the tests.

``fit_exp_sum`` compresses a table into a positive exponential sum
w_hat_j = sum_l c_l r_l^j (c_l > 0, 0 < r_l < 1).  Such a sum is a Hausdorff
moment sequence, hence completely monotone by construction, whatever its
miss; the fit therefore stops at the first positive sum that misses the
table by at most ``FIT_TARGET`` relative (L grows like log(1/FIT_TARGET),
Beylkin & Monzon, ACHA 19 (2005) 17-48), and otherwise returns the best one.
It refuses (:class:`NotCompletelyMonotoneError`) when that misses the table
by more than ``FIT_TOL`` relative, which is what happens to tables that are
not CM.

The fit never forms its (N+1) x C matrix a_jl = r_l^j / w_j (C, about 200,
candidate rates).  It generates ``_FIT_BLOCK`` rows of [a | 1] at a time
and folds each block into the triangular factor [r | d] by one Householder
QR of [r | d] stacked on the block (TSQR: Demmel, Grigori, Hoemmen &
Langou, SIAM J. Sci. Comput. 34 (2012) A206-A239).  The solver scales the
columns of r to unit norm afterwards (Householder QR commutes with column
scaling, and the column norms of r are those of a) and draws single
columns of a from a generator.  It keeps only its passive columns, L of
them, and the fitted sum is evaluated block by block, so a fit holds
O(_FIT_BLOCK * C + C^2 + N * L) floats, not O(N * C).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .prabhakar import check_orders
from .series import binom_series, series_mul, series_pow

__all__ = [
    "CQWeights",
    "ExpSum",
    "NotCompletelyMonotoneError",
    "FIT_TOL",
    "FIT_TARGET",
    "fit_exp_sum",
    "cm2_weights",
    "generate_weights",
    "delta_consistency_residual",
    "SCHEMES",
]

SCHEMES = ("cm2", "bdf1", "bdf2")

# Largest relative miss max_j |w_hat_j / w_j - 1| a fitted exponential sum may have.
FIT_TOL = 1e-8
# Relative miss at which the fit stops adding exponentials.  Any positive sum
# is CM, so the target sets only how closely the memory follows the table and
# how many accumulators (L) the stepper carries.
FIT_TARGET = 1e-10
# Candidate rates of the fit: _LOG_RATES rates e^{-s}, s log-spaced on
# [1e-2/N, 400], plus _CLUSTER_OFFSETS relative offsets on each side of every
# singular rate (see _candidate_rates).
_LOG_RATES = 140
_CLUSTER_OFFSETS = 16
# Rows of the fit matrix generated and folded into its triangular factor at a
# time, and rows of a fitted sum evaluated at a time.
_FIT_BLOCK = 512


@dataclass(frozen=True)
class CQWeights:
    """A quadrature weight sequence w[0..N] with its provenance.

    The discrete convolution  sum_{k=0..n} w[n-k] * u(t_k)  approximates
    int_0^{t_n} hn_kernel(alpha, beta, t_n - s) u(s) ds  on the uniform grid
    t_k = k * tau.
    """

    scheme: str
    alpha: float
    beta: float
    tau: float
    weights: np.ndarray

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))

    @property
    def order(self) -> int:
        return self.weights.size - 1


class NotCompletelyMonotoneError(ValueError):
    """No positive exponential sum matches a weight table to ``FIT_TOL``."""


@dataclass(frozen=True)
class ExpSum:
    """Positive exponential sum w_hat_j = sum_l coeffs[l] * rates[l]**j that
    matches a weight table of step ``tau`` for j <= ``order`` to the relative
    ``miss``; every coefficient is positive and every rate lies in (0, 1).
    Anything else, or a ``tau`` that is not finite and > 0, a ``miss`` that
    is not finite and >= 0 or an ``order`` that is not an integer >= 0, is
    refused with ValueError.

    :func:`fit_exp_sum` stops at ``FIT_TARGET``, so ``miss`` is mostly of
    that size rather than at rounding level; the sum is completely monotone
    whatever the miss."""

    tau: float
    order: int
    coeffs: np.ndarray
    rates: np.ndarray
    miss: float

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        rates = np.asarray(self.rates, dtype=float)
        if not (coeffs.ndim == rates.ndim == 1 and 0 < coeffs.size == rates.size):
            raise ValueError(
                f"coeffs and rates must be non-empty 1-d arrays of equal length, "
                f"got shapes {coeffs.shape} and {rates.shape}"
            )
        if not (np.isfinite(coeffs) & (coeffs > 0.0)).all():
            raise ValueError(f"coeffs must be finite and positive, got {coeffs}")
        if not ((rates > 0.0) & (rates < 1.0)).all():
            raise ValueError(f"rates must lie in (0, 1), got {rates}")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not (isinstance(self.order, numbers.Integral) and self.order >= 0):
            raise ValueError(f"order must be an integer >= 0, got {self.order!r}")
        if not 0.0 <= self.miss < math.inf:
            raise ValueError(f"miss must be finite and >= 0, got {self.miss}")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "rates", rates)

    @functools.cached_property  # read once per time level by the stepper
    def w0(self) -> float:
        return float(self.coeffs.sum())

    def weights(self) -> np.ndarray:
        """The materialized w_hat_0 .. w_hat_order."""
        return _sum_powers(self.coeffs, self.rates, self.order)


def fit_exp_sum(w: CQWeights) -> ExpSum:
    """Nonnegative least-squares fit of the relative misfit w_hat_j / w_j - 1
    over fixed candidate rates, stopped at the first positive sum whose
    largest relative miss over j <= N is at most ``FIT_TARGET``; raises
    NotCompletelyMonotoneError when the miss exceeds ``FIT_TOL``.

    The fit matrix [a | b], a_jl = r_l^j / w_j and b = 1, is never formed:
    ``_fit_factor`` folds it into its triangular factor ``_FIT_BLOCK`` rows
    at a time, ``_nnls`` draws the single columns it needs from ``column``,
    and the miss is taken from the sum evaluated block by block.  Besides the
    table, a fit holds O(_FIT_BLOCK * C + C^2 + N * L) floats for C candidate
    rates and L fitted ones."""
    table = w.weights
    label = f"{w.scheme} weights (alpha={w.alpha:g}, beta={w.beta:g}, tau={w.tau:g}, N={w.order})"
    if not (table > 0.0).all():
        j = int(np.argmax(table <= 0.0))
        raise NotCompletelyMonotoneError(
            f"{label} are not completely monotone: w_{j} = {table[j]:.3e} is not positive"
        )
    rates = _candidate_rates(w.scheme, w.alpha, w.tau, w.order)
    rows, log_rates = np.arange(table.size), np.log(rates)

    def column(l: int) -> np.ndarray:  # column l of [a | b], as _powers makes it
        return np.exp(rows * log_rates[l]) / table if l < rates.size else np.ones(table.size)

    x = _nnls(_fit_factor(rates, table), column, FIT_TARGET)
    keep = x > 0.0
    coeffs, rates = x[keep], rates[keep]
    miss = float(np.max(np.abs(_sum_powers(coeffs, rates, w.order) / table - 1.0)))
    if not miss <= FIT_TOL:
        raise NotCompletelyMonotoneError(
            f"{label}: the best positive exponential sum misses them by {miss:.2e} relative, "
            f"above {FIT_TOL:g}; the table is not completely monotone"
        )
    return ExpSum(tau=w.tau, order=w.order, coeffs=coeffs, rates=rates, miss=miss)


def _cm2_constants(alpha: float) -> tuple[float, float]:
    """(c, d) of the completely-monotone second-order generating function."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    return (2.0 - alpha) / (2.0 - 2.0 * alpha), alpha / (2.0 - alpha)


def cm2_weights(alpha: float, beta: float, tau: float, n: int) -> CQWeights:
    """Completely-monotone second-order quadrature weights w[0..n].

    Requires 0 < alpha < 1 (alpha = 1 has no finite constants; route that
    case to ``generate_weights("bdf1", ...)``).  beta = 1 is accepted for the
    Cole-Cole special case; 0 < beta < 1 is the generic range.
    """
    return generate_weights("cm2", alpha, beta, tau, n)


def _symbol(scheme: str, alpha: float, tau: float) -> tuple[float, float, float]:
    """(s, d, e) of the scheme's symbol s * (1-z)^alpha * (1-d*z)^e."""
    if scheme == "cm2":
        c, d = _cm2_constants(alpha)
        return tau ** (-alpha) * c ** (1.0 - alpha), d, 1.0 - alpha
    if scheme == "bdf1":  # delta_1 = 1 - z
        return tau ** (-alpha), 0.0, 0.0
    if scheme == "bdf2":  # delta_2 = (1-z) + (1-z)^2/2 = (3/2)(1-z)(1-z/3)
        return (1.5 / tau) ** alpha, 1.0 / 3.0, alpha
    raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")


def generate_weights(scheme: str, alpha: float, beta: float, tau: float, n: int) -> CQWeights:
    """Weights w[0..n] of the scheme "cm2", "bdf1" or "bdf2": the Taylor
    coefficients of [1 + s * (1-z)^alpha * (1-d*z)^e]^(-beta)."""
    check_orders(alpha, beta)
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    try:
        s, d, e = _symbol(scheme, alpha, tau)
    except OverflowError:  # tau ** (-alpha) of a subnormal tau
        s = math.inf
    if not math.isfinite(s):
        raise ValueError(f"{scheme} symbol scale at alpha={alpha}, tau={tau} overflows a float")
    b = s * series_mul(binom_series(alpha, 1.0, n), binom_series(e, d, n))
    b[0] += 1.0
    return CQWeights(scheme=scheme, alpha=alpha, beta=beta, tau=tau, weights=series_pow(b, -beta))


def delta_consistency_residual(alpha: float, tau: float) -> float:
    """Residual r(tau) - 1 of the second-order consistency condition.

    r(tau) = (1 - e^-tau)/tau * (c*(1 - d*e^-tau))^((1-alpha)/alpha) must
    equal 1 + O(tau^2); the returned residual decays quadratically in tau.
    """
    c, d = _cm2_constants(alpha)
    z = math.exp(-tau)
    r = (1.0 - z) / tau * (c * (1.0 - d * z)) ** ((1.0 - alpha) / alpha)
    return r - 1.0


# --- exponential-sum fit ------------------------------------------------------


def _powers(rates: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Matrix of rates[l] ** j, j = start..stop-1."""
    return np.exp(np.outer(np.arange(start, stop), np.log(rates)))


def _sum_powers(coeffs: np.ndarray, rates: np.ndarray, n: int) -> np.ndarray:
    """sum_l coeffs[l] * rates[l] ** j for j = 0..n, ``_FIT_BLOCK`` rows at a time."""
    out = np.empty(n + 1)
    for start in range(0, n + 1, _FIT_BLOCK):
        stop = min(start + _FIT_BLOCK, n + 1)
        out[start:stop] = _powers(rates, start, stop) @ coeffs
    return out


def _fit_factor(rates: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Triangular factor [r | d] of [a | b], a_jl = rates[l]**j / table[j] and
    b = 1, folded from row blocks: each block of ``_FIT_BLOCK`` rows is
    generated below the factor so far and the stack is reduced by one QR.
    Holds O((_FIT_BLOCK + C) * C) floats for C rates, whatever the table
    length."""
    rd = np.empty((0, rates.size + 1))
    for start in range(0, table.size, _FIT_BLOCK):
        stop = min(start + _FIT_BLOCK, table.size)
        stack = np.empty((rd.shape[0] + stop - start, rates.size + 1))
        stack[: rd.shape[0]] = rd
        block = stack[rd.shape[0] :]
        block[:, :-1] = _powers(rates, start, stop)
        block[:, :-1] /= table[start:stop, None]
        block[:, -1] = 1.0
        rd = np.linalg.qr(stack, mode="r")
    return rd


def _candidate_rates(scheme: str, alpha: float, tau: float, n: int) -> np.ndarray:
    """Log-spaced rates plus clusters around the rates 1/z where the
    measure of the weights is singular or sharply peaked.

    With alpha = 1 the measure ends at the pole 1/z of the generating
    function, so the log-spaced grid is shifted to start there instead.
    """
    s = np.geomspace(1e-2 / max(n, 1), 400.0, _LOG_RATES)
    points = _singular_points(scheme, alpha, tau)
    if alpha == 1.0 and points:
        return np.exp(-math.log(points[0]) - np.concatenate([[0.0], s]))
    offsets = np.geomspace(1e-2 / max(n, 1), 0.5, _CLUSTER_OFFSETS)
    spread = np.concatenate([1.0 - offsets, [1.0], 1.0 + offsets])
    rates = np.concatenate([np.exp(-s)] + [spread / z for z in points])
    return rates[rates < 1.0]


def _singular_points(scheme: str, alpha: float, tau: float) -> list[float]:
    """The z > 1 where the generating function w(z) = (1 + phi(z))^(-beta)
    is singular or nearly so: |phi(z)| = 1.

    For cm2 that is the root beyond 1/d, where phi = -1 exactly (a pole for
    beta = 1, an integrable singularity of the measure otherwise), and the
    root nearest 1, where phi = e^{i pi alpha} approaches -1 as alpha -> 1.
    For bdf1 and bdf2 it is the root nearest 1 (a pole when alpha = 1).
    """
    if scheme == "bdf1":
        return [1.0 + tau]
    if scheme == "bdf2":
        # |delta(z)| = (z - 1)(3 - z)/2 = tau on (1, 3)
        return [2.0 - math.sqrt(1.0 - 2.0 * tau)] if tau < 0.5 else []
    c, d = _cm2_constants(alpha)
    modulus = lambda z: ((z - 1.0) / tau) ** alpha * (c * abs(1.0 - d * z)) ** (1.0 - alpha)
    hi = 2.0 / d
    while modulus(hi) < 1.0:
        hi *= 2.0
    points = [_bisect(modulus, 1.0 / d, hi)]
    z_peak = (alpha + (1.0 - alpha) * d) / d  # maximum of the modulus on (1, 1/d)
    if modulus(z_peak) > 1.0:
        points.insert(0, _bisect(modulus, 1.0, z_peak))
    return points


def _bisect(modulus, lo: float, hi: float) -> float:
    """The z in (lo, hi) where ``modulus`` crosses 1, one end below and one above."""
    below = modulus(lo) < 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (modulus(mid) < 1.0) == below:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _nnls(rd: np.ndarray, column, target: float) -> np.ndarray:
    """The first positive passive solution x of the Lawson-Hanson active-set
    method for argmin ||a x - b|| over x >= 0 whose residual max |a x - b| is
    at most ``target``, else the minimizer itself (``target`` 0 asks for it).

    The problem comes as the triangular factor ``rd`` = [r | d] of [a | b]
    (any number of rows; overwritten) and ``column(l)``, which returns column
    l of [a | b] (l = n for b).  The columns of r are scaled to unit norm in
    place: they have the norms of the columns of a, and Householder QR
    commutes with column scaling, so r becomes the factor of a with unit
    columns, the problem the method solves.  The passive columns keep a
    full QR factorization Q R that is updated in place, not recomputed, as
    columns enter and leave (Golub & Van Loan, Matrix Computations, 4th ed.,
    6.5): an entering column costs one Householder reflector on rows k: and a
    leaving one a Givens rotation per later passive column.  Q is not stored:
    every reflector and rotation is applied to the rows of [r | d] themselves,
    which then hold Q^T r, with R in the passive columns, and Q^T d.  The
    gradient is formed from the residual's component outside their span, rows
    k: of Q^T d: with nearly dependent columns that keeps its relative
    accuracy, where the plain residual d - R x would drown it in rounding.
    The stop test reads a x - b itself: the scaled passive columns of a are
    kept in a list that grows and shrinks with the passive set, so the solver
    holds O(n^2 + m k) floats for k passive columns of length m.  Returns the
    current feasible point after 10 n inner iterations.
    """
    n = rd.shape[1] - 1
    r, d = rd[:, :n], rd[:, n]
    scale = np.linalg.norm(r, axis=0)
    r /= scale
    b = column(n)
    passive_a: list[np.ndarray] = []  # the scaled columns of a, in passive order
    x = np.zeros(n)
    passive: list[int] = []
    iterations = 0
    while iterations < 10 * n:
        k = len(passive)
        grad = d[k:] @ r[k:]  # exactly 0 for the passive columns: they are 0 below row k
        while True:  # entering column: largest gradient among those independent of the passive ones
            j = int(np.argmax(grad))
            if grad[j] <= 0.0:
                return x / scale
            head, tail = r[:k, j], r[k:, j]
            unorm = math.sqrt(head @ head)
            if unorm + 0.01 * math.sqrt(tail @ tail) > unorm and tail @ d[k:] > 0.0:
                break
            grad[j] = -np.inf
        # the reflector I - v v^T maps the tail to (alpha, 0, ..., 0)
        v = tail.copy()
        alpha = -math.copysign(math.sqrt(v @ v), v[0])
        v[0] -= alpha
        v /= math.sqrt(-alpha * v[0])
        rd[k:] -= np.einsum("i,j->ij", v, v @ rd[k:])
        rd[k, j], rd[k + 1 :, j] = alpha, 0.0
        passive.append(j)
        passive_a.append(column(j) / scale[j])
        while iterations < 10 * n:  # move towards the passive solution until it is positive
            iterations += 1
            k, cols = len(passive), np.array(passive)
            s = np.linalg.solve(r[:k, cols], d[:k])  # upper triangular: LU does not pivot
            if s.min() > 0.0:
                x[cols] = s
                if np.max(np.abs(s @ np.array(passive_a) - b)) <= target:
                    return x / scale
                break
            xp = x[cols]
            step = xp - s
            ratio = np.divide(xp, step, out=np.zeros(k), where=step > 0.0)
            blocking = np.flatnonzero(s <= 0.0)
            first = blocking[np.argmin(ratio[blocking])]
            xp += ratio[first] * (s - xp)
            xp[first] = 0.0
            x[cols] = xp
            for i in np.flatnonzero(xp <= 0.0)[::-1]:
                x[passive.pop(i)] = 0.0
                del passive_a[i]
                for p, col in enumerate(passive[i:], start=i):  # clear the subdiagonal (p + 1, p)
                    c, sn = rd[p : p + 2, col].tolist()
                    h = math.hypot(c, sn)
                    rd[p : p + 2] = np.array([[c / h, sn / h], [-sn / h, c / h]]) @ rd[p : p + 2]
                    rd[p + 1, col] = 0.0
    return x / scale

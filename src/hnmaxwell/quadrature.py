"""Convolution-quadrature weight generation for the Havriliak-Negami kernel.

Two families are provided:

* ``cm2_weights`` - the completely-monotone second-order weights.  Their
  generating function is

      w(z) = [1 + ((1-z)/tau)^alpha * (c*(1 - d*z))^(1-alpha)]^(-beta),
      c = (2-alpha)/(2-2*alpha),  d = alpha/(2-alpha),

  whose Taylor coefficients give a nonnegative, completely monotonic weight
  sequence while retaining second-order quadrature accuracy.

* ``bdf_cq_weights`` - classical CQ built on BDF-1/BDF-2 generating
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
(``series_pow``) per table; ``cm2_weights`` and ``bdf_cq_weights`` route into
it.  An independent FFT/Cauchy-integral oracle lives in the tests.

``fit_exp_sum`` compresses a table into a positive exponential sum
w_hat_j = sum_l c_l r_l^j (c_l > 0, 0 < r_l < 1).  Such a sum is a Hausdorff
moment sequence, hence completely monotone by construction, whatever its
miss; the fit therefore stops at the first positive sum that misses the
table by at most ``FIT_TARGET`` relative (L grows like log(1/FIT_TARGET),
Beylkin & Monzon, ACHA 19 (2005) 17-48), and otherwise returns the best one.
It refuses (:class:`NotCompletelyMonotoneError`) when that misses the table
by more than ``FIT_TOL`` relative, which is what happens to tables that are
not CM.
"""

from __future__ import annotations

import functools
import math
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
    "CM2Constants",
    "cm2_weights",
    "bdf_cq_weights",
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

    :func:`fit_exp_sum` stops at ``FIT_TARGET``, so ``miss`` is mostly of
    that size rather than at rounding level; the sum is completely monotone
    whatever the miss."""

    tau: float
    order: int
    coeffs: np.ndarray
    rates: np.ndarray
    miss: float

    @functools.cached_property  # read once per time level by the stepper
    def w0(self) -> float:
        return float(self.coeffs.sum())

    def weights(self) -> np.ndarray:
        """The materialized w_hat_0 .. w_hat_order."""
        return _powers(self.rates, self.order) @ self.coeffs


def fit_exp_sum(w: CQWeights) -> ExpSum:
    """Nonnegative least-squares fit of the relative misfit w_hat_j / w_j - 1
    over fixed candidate rates, stopped at the first positive sum whose
    largest relative miss over j <= N is at most ``FIT_TARGET``; raises
    NotCompletelyMonotoneError when the miss exceeds ``FIT_TOL``."""
    table = w.weights
    label = f"{w.scheme} weights (alpha={w.alpha:g}, beta={w.beta:g}, tau={w.tau:g}, N={w.order})"
    if not (table > 0.0).all():
        j = int(np.argmax(table <= 0.0))
        raise NotCompletelyMonotoneError(
            f"{label} are not completely monotone: w_{j} = {table[j]:.3e} is not positive"
        )
    rates = _candidate_rates(w.scheme, w.alpha, w.tau, w.order)
    x = _nnls(_powers(rates, w.order) / table[:, None], np.ones(table.size), FIT_TARGET)
    keep = x > 0.0
    coeffs, rates = x[keep], rates[keep]
    miss = float(np.max(np.abs(_powers(rates, w.order) @ coeffs / table - 1.0)))
    if not miss <= FIT_TOL:
        raise NotCompletelyMonotoneError(
            f"{label}: the best positive exponential sum misses them by {miss:.2e} relative, "
            f"above {FIT_TOL:g}; the table is not completely monotone"
        )
    return ExpSum(tau=w.tau, order=w.order, coeffs=coeffs, rates=rates, miss=miss)


@dataclass(frozen=True)
class CM2Constants:
    """Constants of the completely-monotone second-order generating function."""

    c: float
    d: float
    gamma0: float
    gamma1: float

    @classmethod
    def from_alpha(cls, alpha: float) -> "CM2Constants":
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
        c = (2.0 - alpha) / (2.0 - 2.0 * alpha)
        d = alpha / (2.0 - alpha)
        return cls(c=c, d=d, gamma0=-c, gamma1=alpha / (2.0 - 2.0 * alpha))


def cm2_weights(alpha: float, beta: float, tau: float, n: int) -> CQWeights:
    """Completely-monotone second-order quadrature weights w[0..n].

    Requires 0 < alpha < 1 (alpha = 1 has no finite constants; route that
    case to ``bdf_cq_weights`` order 1).  beta = 1 is accepted for the
    Cole-Cole special case; 0 < beta < 1 is the generic range.
    """
    return generate_weights("cm2", alpha, beta, tau, n)


def bdf_cq_weights(order: int, alpha: float, beta: float, tau: float, n: int) -> CQWeights:
    """Classical CQ weights from the BDF-1 or BDF-2 generating polynomial."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    return generate_weights(f"bdf{order}", alpha, beta, tau, n)


def _symbol(scheme: str, alpha: float, tau: float) -> tuple[float, float, float]:
    """(s, d, e) of the scheme's symbol s * (1-z)^alpha * (1-d*z)^e."""
    if scheme == "cm2":
        k = CM2Constants.from_alpha(alpha)
        return tau ** (-alpha) * k.c ** (1.0 - alpha), k.d, 1.0 - alpha
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
    s, d, e = _symbol(scheme, alpha, tau)
    b = s * series_mul(binom_series(alpha, 1.0, n), binom_series(e, d, n))
    b[0] += 1.0
    return CQWeights(scheme=scheme, alpha=alpha, beta=beta, tau=tau, weights=series_pow(b, -beta))


def delta_consistency_residual(alpha: float, tau: float) -> float:
    """Residual r(tau) - 1 of the second-order consistency condition.

    r(tau) = (1 - e^-tau)/tau * (c*(1 - d*e^-tau))^((1-alpha)/alpha) must
    equal 1 + O(tau^2); the returned residual decays quadratically in tau.
    """
    consts = CM2Constants.from_alpha(alpha)
    z = math.exp(-tau)
    r = (1.0 - z) / tau * (consts.c * (1.0 - consts.d * z)) ** ((1.0 - alpha) / alpha)
    return r - 1.0


# --- exponential-sum fit ------------------------------------------------------


def _powers(rates: np.ndarray, n: int) -> np.ndarray:
    """Matrix of rates[l] ** j, j = 0..n."""
    return np.exp(np.outer(np.arange(n + 1), np.log(rates)))


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
    k = CM2Constants.from_alpha(alpha)
    modulus = lambda z: ((z - 1.0) / tau) ** alpha * (k.c * abs(1.0 - k.d * z)) ** (1.0 - alpha)
    hi = 2.0 / k.d
    while modulus(hi) < 1.0:
        hi *= 2.0
    points = [_bisect(modulus, 1.0 / k.d, hi)]
    z_peak = (alpha + (1.0 - alpha) * k.d) / k.d  # maximum of the modulus on (1, 1/d)
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


def _nnls(a: np.ndarray, b: np.ndarray, target: float | None = None) -> np.ndarray:
    """argmin ||a x - b|| over x >= 0, by the Lawson-Hanson active-set method,
    or with a ``target`` the first positive passive solution x whose residual
    max |a x - b| is at most ``target``.

    The columns are scaled to unit norm and the problem is reduced to the
    triangular factor [r | d] of [a | b].  The passive columns keep a full QR
    factorization Q R that is updated in place, not recomputed, as columns
    enter and leave (Golub & Van Loan, Matrix Computations, 4th ed., 6.5): an
    entering column costs one Householder reflector on rows k: and a leaving
    one a Givens rotation per later passive column.  Q is not stored: every
    reflector and rotation is applied to the rows of [r | d] themselves, which
    then hold Q^T r, with R in the passive columns, and Q^T d.  The gradient
    is formed from the residual's component outside their span, rows k: of
    Q^T d: with nearly dependent columns that keeps its relative accuracy,
    where the plain residual d - R x would drown it in rounding.  Returns the
    current feasible point after 10 n inner iterations.
    """
    n = a.shape[1]
    scale = np.linalg.norm(a, axis=0)
    rd = np.linalg.qr(np.column_stack([a / scale, b]), mode="r")
    r, d = rd[:, :n], rd[:, n]
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
        while iterations < 10 * n:  # move towards the passive solution until it is positive
            iterations += 1
            k, cols = len(passive), np.array(passive)
            s = np.linalg.solve(r[:k, cols], d[:k])  # upper triangular: LU does not pivot
            if s.min() > 0.0:
                x[cols] = s
                if target is not None:
                    residual = a[:, cols] @ (s / scale[cols]) - b
                    if np.max(np.abs(residual)) <= target:
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
                for p, col in enumerate(passive[i:], start=i):  # clear the subdiagonal (p + 1, p)
                    c, sn = rd[p : p + 2, col].tolist()
                    h = math.hypot(c, sn)
                    rd[p : p + 2] = np.array([[c / h, sn / h], [-sn / h, c / h]]) @ rd[p : p + 2]
                    rd[p + 1, col] = 0.0
    return x / scale

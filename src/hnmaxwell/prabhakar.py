"""Three-parameter Mittag-Leffler (Prabhakar) function and the Havriliak-Negami
time-domain kernel.

The workhorse is the series

    ml3(rho, mu, gamma; z) = sum_{k>=0} Gamma(k+gamma) / (Gamma(gamma) Gamma(rho k + mu)) * z^k / k!

evaluated by a term-ratio recurrence (no Gamma of large arguments) with
compensated summation.  The H-N relaxation kernel is the scaled instance

    hn_kernel(alpha, beta; t) = t^(alpha*beta - 1) * ml3(alpha, alpha*beta, beta; -t^alpha),

the inverse Laplace transform of (1 + s^alpha)^(-beta).  Convolutions of the
kernel against monomials have the closed form provided by
``prabhakar_integral_monomial``; they serve as exact oracles for the
quadrature and the manufactured-solution sources.

All functions are pure and intended for desk-scale arguments (|z| <= ~10);
there is no large-argument asymptotic branch, out-of-range requests fail
loudly instead of losing accuracy: the series raises when it exhausts its
term cap, and when its largest term is so much larger than the sum that
rounding in the terms alone exceeds ``CANCELLATION_TOL`` relative to the sum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

__all__ = [
    "PrabhakarParams",
    "SeriesConvergenceError",
    "check_orders",
    "ml3",
    "hn_kernel",
    "prabhakar_integral_monomial",
]

REL_TOL = 1e-16
# sized for |z| up to ~10^rho with rho down to 0.1 (the slowest-converging
# desk-scale case needs ~550 terms); genuinely out-of-scale arguments still
# exhaust the cap and fail loudly
MAX_TERMS = 800
# the sum keeps a relative accuracy of about EPS * max|term| / |sum|; that is
# 1.3e-8 at the edge of the default kernel range (alpha = 1, t = 10)
EPS = 2.2e-16
CANCELLATION_TOL = 1e-7
# term ratios are computed and cached per parameter set in blocks of this many
_RATIO_BLOCK = 64


class SeriesConvergenceError(RuntimeError):
    """Series did not reach the termination tolerance within the term cap, or
    lost its accuracy to cancellation between its terms."""

    def __init__(self, message: str, last_term: float):
        super().__init__(message)
        self.last_term = last_term


@dataclass(frozen=True)
class PrabhakarParams:
    """Parameters (rho, mu, gamma) of the three-parameter Mittag-Leffler series."""

    rho: float
    mu: float
    gamma: float

    def validate(self) -> None:
        if not (self.rho > 0 and self.mu > 0 and self.gamma > 0):
            raise ValueError(
                f"require rho > 0, mu > 0, gamma > 0, got "
                f"rho={self.rho}, mu={self.mu}, gamma={self.gamma}"
            )


def ml3(params: PrabhakarParams, z: float) -> float:
    """Evaluate the three-parameter Mittag-Leffler function at ``z``.

    Terms are built by the ratio recurrence

        term_{k+1} / term_k = (k + gamma) / (k + 1) * exp(lgamma(rho k + mu) - lgamma(rho k + rho + mu)) * z

    and summed with Kahan compensation until |term| < 1e-16 * (1 + |sum|),
    capped at ``MAX_TERMS``.  The ratios without the factor z depend on the
    parameters alone and are computed once per parameter set
    (``_term_ratios``).  Raises :class:`SeriesConvergenceError` when the cap
    is reached or when EPS * max|term| > CANCELLATION_TOL * |sum|.
    """
    params.validate()
    rho, mu, gamma = params.rho, params.mu, params.gamma

    term = 1.0 / math.gamma(mu)  # k = 0
    total = term
    largest = abs(term)
    comp = 0.0
    ratios = ()
    for k in range(MAX_TERMS):
        if abs(term) < REL_TOL * (1.0 + abs(total)):
            if EPS * largest > CANCELLATION_TOL * abs(total):
                raise SeriesConvergenceError(
                    f"Prabhakar series cancels (rho={rho}, mu={mu}, gamma={gamma}, z={z}): "
                    f"largest term {largest:.3e}, sum {total:.3e}",
                    last_term=abs(term),
                )
            return total
        if k % _RATIO_BLOCK == 0:
            ratios = _term_ratios(rho, mu, gamma, k // _RATIO_BLOCK)
        term = term * ratios[k % _RATIO_BLOCK] * z
        largest = max(largest, abs(term))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    raise SeriesConvergenceError(
        f"Prabhakar series did not converge within {MAX_TERMS} terms "
        f"(rho={rho}, mu={mu}, gamma={gamma}, z={z}); last term {term:.3e}",
        last_term=abs(term),
    )


@functools.lru_cache(maxsize=256)
def _term_ratios(rho: float, mu: float, gamma: float, block: int) -> tuple[float, ...]:
    """term_{k+1} / (term_k z) of the ml3 series for the ``_RATIO_BLOCK`` terms
    k of block ``block``."""
    start = block * _RATIO_BLOCK
    return tuple(
        (k + gamma)
        / (k + 1.0)
        * math.exp(math.lgamma(rho * k + mu) - math.lgamma(rho * (k + 1) + mu))
        for k in range(start, start + _RATIO_BLOCK)
    )


def hn_kernel(alpha: float, beta: float, t: float) -> float:
    """Havriliak-Negami relaxation kernel at time t > 0.

    Singular like t^(alpha*beta - 1) at the origin when alpha*beta < 1;
    reduces to exp(-t) in the Debye limit alpha = beta = 1.
    """
    check_orders(alpha, beta)
    if t <= 0.0:
        raise ValueError(f"kernel argument t must be positive, got {t}")
    params = PrabhakarParams(alpha, alpha * beta, beta)
    return t ** (params.mu - 1.0) * ml3(params, -t**alpha)


def prabhakar_integral_monomial(alpha: float, beta: float, k: int, t: float) -> float:
    """Exact convolution of the H-N kernel against the monomial s^k:

        int_0^t hn_kernel(alpha, beta, t - s) * s^k ds
            = k! * t^(alpha*beta + k) * ml3(alpha, alpha*beta + k + 1, beta; -t^alpha).

    Returns 0 for t = 0 (empty integral).
    """
    check_orders(alpha, beta)
    if k < 0:
        raise ValueError(f"monomial degree k must be >= 0, got {k}")
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return 0.0
    params = PrabhakarParams(alpha, alpha * beta + k + 1.0, beta)
    return math.factorial(k) * (t ** (params.mu - 1.0) * ml3(params, -t**alpha))


def check_orders(alpha: float, beta: float) -> None:
    """Refuse H-N orders outside (0, 1], where the kernel is completely monotone."""
    if not (0.0 < alpha <= 1.0 and 0.0 < beta <= 1.0):
        raise ValueError(f"fractional orders must lie in (0, 1], got alpha={alpha}, beta={beta}")

"""Special-function tests: series against brute-force/quadrature oracles.

Frozen expected values were produced by a 200-term compensated summation of
the defining series at 50 significant digits (mpmath); the quadrature oracle
integrates the kernel convolution directly with an algebraic-endpoint rule.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from hnmaxwell.prabhakar import (
    MAX_TERMS,
    REL_TOL,
    PrabhakarParams,
    SeriesConvergenceError,
    hn_kernel,
    ml3,
    prabhakar_integral_monomial,
)

# 50-digit mpmath oracle values
ML3_HALF_QUARTER_HALF_AT_M03 = 0.18310143053138510563
HN_KERNEL_HALF_HALF_AT_1 = 0.086968857385326082957
MONOMIAL3_HALF_HALF_AT_1 = 0.58990124035008441518


def kernel_convolution_oracle(alpha: float, beta: float, k: int, t: float) -> float:
    """Adaptive quadrature of int_0^t omega(u) (t-u)^k du.

    The substitution v = u^(alpha*beta) removes the endpoint singularity
    exactly, leaving (1/(alpha*beta)) * int_0^(t^ab) E(-v^(1/beta)) (t - v^(1/ab))^k dv.
    """
    ab = alpha * beta
    params = PrabhakarParams(alpha, ab, beta)

    def regular(v):
        return ml3(params, -(v ** (1.0 / beta))) * (t - v ** (1.0 / ab)) ** k / ab

    val, est = quad(regular, 0.0, t**ab, epsabs=1e-13, epsrel=1e-12, limit=300)
    assert est < 1e-10
    return val


class TestMl3:
    def test_exponential_point(self):
        assert ml3(PrabhakarParams(1.0, 1.0, 1.0), 1.0) == pytest.approx(math.e, rel=1e-14)

    def test_zero_argument_keeps_leading_term(self):
        # only the k = 0 term survives: 1 / Gamma(mu)
        assert ml3(PrabhakarParams(1.0, 2.0, 1.0), 0.0) == 1.0
        assert ml3(PrabhakarParams(0.7, 0.5, 0.3), 0.0) == pytest.approx(
            1.0 / math.gamma(0.5), rel=1e-15
        )

    def test_frozen_series_oracle(self):
        val = ml3(PrabhakarParams(0.5, 0.25, 0.5), -0.3)
        assert val == pytest.approx(ML3_HALF_QUARTER_HALF_AT_M03, rel=1e-14)

    def test_matches_exp_over_interval(self):
        params = PrabhakarParams(1.0, 1.0, 1.0)
        for z in np.linspace(-2.0, 2.0, 41):
            assert ml3(params, float(z)) == pytest.approx(math.exp(z), rel=1e-12)

    def test_invalid_parameters_rejected(self):
        for bad in [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)]:
            with pytest.raises(ValueError):
                ml3(PrabhakarParams(*bad), 0.5)

    def test_nonconvergence_reports_last_term(self):
        # rho = 0.1 needs ~z^10 terms to turn over; z = 50 cannot converge
        with pytest.raises(SeriesConvergenceError) as exc:
            ml3(PrabhakarParams(0.1, 0.5, 0.9), 50.0)
        assert exc.value.last_term > 0.0

    @pytest.mark.parametrize(
        "rho,mu,gamma,z",
        [
            (0.5, 0.25, 0.5, -0.3),
            (0.5, 4.25, 0.5, -1.0),
            (0.1, 0.5, 0.9, 0.5),
            (0.5, 0.5, 0.5, 6.0),
        ],
    )
    def test_cached_ratios_keep_every_bit(self, rho, mu, gamma, z):
        # the inline term-ratio recurrence, ratios recomputed at every call;
        # the last case needs more terms than one cached block of ratios
        term = total = 1.0 / math.gamma(mu)
        comp = 0.0
        for k in range(MAX_TERMS):
            if abs(term) < REL_TOL * (1.0 + abs(total)):
                break
            ratio = (
                (k + gamma)
                / (k + 1.0)
                * math.exp(math.lgamma(rho * k + mu) - math.lgamma(rho * (k + 1) + mu))
            )
            term = term * ratio * z
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
        params = PrabhakarParams(rho, mu, gamma)
        assert ml3(params, z) == total
        assert ml3(params, z) == total  # again, from the cached ratios

    @pytest.mark.parametrize("alpha,beta,t", [(0.9, 0.5, 30.0), (0.5, 0.5, 100.0)])
    def test_cancellation_refused(self, alpha, beta, t):
        # the alternating series cancels to garbage here (hn_kernel would
        # return -2.6e-3 and 7.7e27); it must raise instead
        with pytest.raises(SeriesConvergenceError):
            hn_kernel(alpha, beta, t)


class TestHnKernel:
    def test_debye_limit(self):
        assert hn_kernel(1.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-13)
        for t in np.linspace(0.1, 5.0, 50):
            assert hn_kernel(1.0, 1.0, float(t)) == pytest.approx(math.exp(-t), abs=1e-12)

    def test_small_time_singularity(self):
        # leading series term: t^(ab-1) / Gamma(ab) for alpha=0.5, beta=1
        t = 1e-8
        lead = t**-0.5 / math.gamma(0.5)
        assert hn_kernel(0.5, 1.0, t) == pytest.approx(lead, rel=1e-3)

    def test_frozen_value(self):
        assert hn_kernel(0.5, 0.5, 1.0) == pytest.approx(HN_KERNEL_HALF_HALF_AT_1, rel=1e-14)

    def test_positive_and_decreasing(self):
        # complete monotonicity implies both, on a log grid over [1e-3, 10]
        t = np.geomspace(1e-3, 10.0, 30)
        for alpha in np.round(np.arange(1, 11) * 0.1, 12):
            for beta in np.round(np.arange(1, 11) * 0.1, 12):
                vals = np.array([hn_kernel(float(alpha), float(beta), float(ti)) for ti in t])
                assert (vals > 0.0).all(), (alpha, beta)
                assert (np.diff(vals) < 0.0).all(), (alpha, beta)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hn_kernel(0.5, 0.5, 0.0)
        with pytest.raises(ValueError):
            hn_kernel(0.5, 0.5, -1.0)
        with pytest.raises(ValueError):
            hn_kernel(1.5, 0.5, 1.0)


class TestPrabhakarIntegralMonomial:
    def test_debye_k0(self):
        # int_0^1 e^{-(1-s)} ds = 1 - e^{-1}
        val = prabhakar_integral_monomial(1.0, 1.0, 0, 1.0)
        assert val == pytest.approx(1.0 - math.exp(-1.0), rel=1e-13)

    def test_empty_integral(self):
        assert prabhakar_integral_monomial(0.3, 0.8, 2, 0.0) == 0.0
        assert prabhakar_integral_monomial(0.9, 0.1, 0, 0.0) == 0.0

    def test_frozen_value_and_quadrature_oracle(self):
        val = prabhakar_integral_monomial(0.5, 0.5, 3, 1.0)
        assert val == pytest.approx(MONOMIAL3_HALF_HALF_AT_1, rel=1e-14)
        assert val == pytest.approx(kernel_convolution_oracle(0.5, 0.5, 3, 1.0), rel=1e-11)

    @pytest.mark.parametrize("alpha,beta,k", [(0.2, 0.9, 0), (0.7, 0.3, 1), (0.9, 0.9, 3)])
    def test_quadrature_oracle_other_params(self, alpha, beta, k):
        val = prabhakar_integral_monomial(alpha, beta, k, 0.8)
        assert val == pytest.approx(kernel_convolution_oracle(alpha, beta, k, 0.8), rel=1e-10)

    def test_nondecreasing_in_time(self):
        # CM kernel is nonnegative, so the integral grows with t
        for alpha, beta, k in [(0.3, 0.4, 0), (0.8, 0.6, 2)]:
            t = np.linspace(0.05, 2.0, 40)
            vals = [prabhakar_integral_monomial(alpha, beta, k, float(ti)) for ti in t]
            assert (np.diff(vals) >= 0.0).all()

    def test_time_derivative_matches_kernel(self):
        # d/dt int_0^t omega(t-s) ds = omega(t); central differences are O(h^2)
        alpha, beta, t = 0.6, 0.7, 1.0
        exact = hn_kernel(alpha, beta, t)
        errs = []
        for h in (1e-2, 5e-3):
            fd = (
                prabhakar_integral_monomial(alpha, beta, 0, t + h)
                - prabhakar_integral_monomial(alpha, beta, 0, t - h)
            ) / (2 * h)
            errs.append(abs(fd - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.7)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            prabhakar_integral_monomial(0.5, 0.5, -1, 1.0)
        with pytest.raises(ValueError, match="t must be nonnegative"):
            prabhakar_integral_monomial(0.5, 0.5, 3, -1.0)

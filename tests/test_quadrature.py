"""Quadrature-weight tests: closed-form identities, an independent
FFT/Cauchy-integral coefficient oracle, and the second-order property
checked against the exact kernel integrals."""

import math
import tracemalloc
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hnmaxwell import quadrature
from hnmaxwell.prabhakar import prabhakar_integral_monomial
from hnmaxwell.quadrature import (
    FIT_TARGET,
    FIT_TOL,
    SCHEMES,
    CQWeights,
    ExpSum,
    NotCompletelyMonotoneError,
    _cm2_constants,
    _nnls,
    cm2_weights,
    delta_consistency_residual,
    fit_exp_sum,
    generate_weights,
)
from hnmaxwell.series import series_pow

# 40-digit oracle values for the consistency residual at alpha = 0.5
RESID_A05_T01 = -3.09459532928e-3
RESID_A05_T005 = -8.02799668965e-4


def cauchy_coefficient_oracle(alpha, beta, tau, n, radius=0.5):
    """Taylor coefficients of the closed-form generating function, extracted
    by a Cauchy integral over a circle of the given radius with 4n sample
    points (independent of the series engine).

    Dividing by radius^j amplifies sample roundoff by 2^j at radius 0.5, so
    samples and the Fourier sums run in mpmath with enough digits to keep
    every extracted coefficient accurate to well below 1e-12.
    """

    def genfun(z):
        a = mp.mpf(alpha)
        c = (2 - a) / (2 - 2 * a)
        d = a / (2 - a)
        return (1 + ((1 - z) / tau) ** a * (c * (1 - d * z)) ** (1 - a)) ** (-mp.mpf(beta))

    return _cauchy_dft(genfun, n, radius)


def cauchy_coefficient_oracle_bdf(order, alpha, beta, tau, n, radius=0.5):
    def genfun(z):
        delta = (1 - z) if order == 1 else (1 - z) + (1 - z) ** 2 / 2
        return (1 + (delta / tau) ** mp.mpf(alpha)) ** (-mp.mpf(beta))

    return _cauchy_dft(genfun, n, radius)


def bdf2_recurrence_oracle(alpha, beta, tau, n, digits=40):
    """bdf2 weights by the Miller recurrence in ``digits``-digit arithmetic,
    composed as the polynomial route: (delta_2/tau)^alpha from the three
    coefficients of delta_2 = 3/2 - 2z + z^2/2, then (1 + .)^(-beta)."""

    def miller(f, gamma):
        h = [f[0] ** gamma]
        for m in range(1, len(f)):
            terms = (((gamma + 1) * k - m) * f[k] * h[m - k] for k in range(1, m + 1) if f[k])
            h.append(mp.fsum(terms) / (m * f[0]))
        return h

    with mp.workdps(digits):
        t = mp.mpf(tau)
        delta = ([mp.mpf(3) / 2 / t, -2 / t, 1 / (2 * t)] + [mp.mpf(0)] * n)[: n + 1]
        inner = miller(delta, mp.mpf(alpha))
        inner[0] += 1
        return np.array([float(x) for x in miller(inner, -mp.mpf(beta))])


def _cauchy_dft(genfun, n, radius):
    m_pts = 4 * max(n, 1)
    if m_pts & (m_pts - 1):
        raise ValueError(f"4n = {m_pts} sample points must be a power of two")
    digits = int(n * math.log10(1.0 / radius)) + 30
    with mp.workdps(digits):
        r = mp.mpf(radius)
        twiddle = [mp.expjpi(mp.mpf(2 * k) / m_pts) for k in range(m_pts)]
        # real Taylor coefficients: the lower half circle mirrors the upper one
        upper = [genfun(r * twiddle[m]) for m in range(m_pts // 2 + 1)]
        samples = upper + [mp.conj(v) for v in upper[-2:0:-1]]
        spectrum = _fft(samples, twiddle)
        out = np.empty(n + 1)
        for j in range(n + 1):
            out[j] = float(mp.re(spectrum[j]) / (m_pts * r**j))
    return out


def _fft(x, twiddle):
    """sum_m x[m] twiddle[-j m mod M] for j < len(x), by recursive radix-2
    decimation in time; ``twiddle`` holds the M-th roots of unity, M a power
    of two that len(x) divides."""
    size = len(x)
    if size == 1:
        return list(x)
    even, odd = _fft(x[0::2], twiddle), _fft(x[1::2], twiddle)
    stride = len(twiddle) // size
    half = size // 2
    out = [None] * size
    for j in range(half):
        t = twiddle[(-j * stride) % len(twiddle)] * odd[j]
        out[j] = even[j] + t
        out[j + half] = even[j] - t
    return out


class TestConstants:
    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.8, 0.95])
    def test_identities(self, alpha):
        c, d = _cm2_constants(alpha)
        # c*(1 - d*z) == -gamma1*z - gamma0 with gamma0 + gamma1 = -1: the factor is 1 at z = 1
        assert c * (1.0 - d) == pytest.approx(1.0, abs=1e-14)
        assert c > 0.0 and 0.0 < d < 1.0

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            _cm2_constants(1.0)


class TestCm2Weights:
    def test_leading_weight_closed_form(self):
        for alpha, beta, tau in [(0.1, 0.9, 0.01), (0.5, 0.5, 0.1), (0.9, 0.2, 1.0)]:
            c = (2.0 - alpha) / (2.0 - 2.0 * alpha)
            expected = (1.0 + tau**-alpha * c ** (1.0 - alpha)) ** (-beta)
            w = cm2_weights(alpha, beta, tau, 5).weights
            assert w[0] == pytest.approx(expected, abs=1e-13)

    def test_single_weight(self):
        w = cm2_weights(0.3, 0.7, 0.25, 0)
        c = (2.0 - 0.3) / (2.0 - 0.6)
        assert w.weights.shape == (1,)
        assert w.weights[0] == pytest.approx((1.0 + 0.25**-0.3 * c**0.7) ** (-0.7), rel=1e-14)

    def test_frozen_cole_cole_expansion(self):
        # beta = 1, tau = 1, alpha = 0.5: hand-composed series at 50 digits
        w = cm2_weights(0.5, 1.0, 1.0, 2).weights
        expected = [0.449489742783178098, 0.164965809277260327, 0.0742907308379088723]
        assert np.allclose(w, expected, rtol=1e-14)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_matches_cauchy_oracle(self, n):
        for alpha, beta, tau in [(0.3, 0.6, 0.01), (0.5, 0.5, 0.1), (0.9, 0.9, 0.05)]:
            mine = cm2_weights(alpha, beta, tau, n).weights
            oracle = cauchy_coefficient_oracle(alpha, beta, tau, n)
            assert np.max(np.abs(mine - oracle)) < 1e-10

    def test_nonnegative_decreasing_convex(self):
        w = cm2_weights(0.5, 0.5, 0.01, 400).weights
        assert (w >= 0.0).all()
        assert (np.diff(w) <= 0.0).all()
        assert (w[:-2] - 2.0 * w[1:-1] + w[2:] >= 0.0).all()

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            cm2_weights(1.0, 0.5, 0.1, 4)  # alpha = 1 routes to bdf1
        with pytest.raises(ValueError):
            cm2_weights(0.5, 1.1, 0.1, 4)
        with pytest.raises(ValueError):
            cm2_weights(0.5, 0.5, 0.0, 4)


class TestBdfWeights:
    def test_geometric_series(self):
        # order 1, alpha = beta = 1, tau = 1: coefficients of (2 - z)^{-1}
        w = generate_weights("bdf1", 1.0, 1.0, 1.0, 2).weights
        assert np.allclose(w, [0.5, 0.25, 0.125], rtol=1e-15)

    def test_single_weight(self):
        w = generate_weights("bdf1", 0.4, 0.8, 0.2, 0).weights
        assert w[0] == pytest.approx((1.0 + 0.2**-0.4) ** (-0.8), rel=1e-14)

    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_cauchy_oracle(self, order):
        mine = generate_weights(f"bdf{order}", 0.7, 0.4, 0.05, 128).weights
        oracle = cauchy_coefficient_oracle_bdf(order, 0.7, 0.4, 0.05, 128)
        assert np.max(np.abs(mine - oracle)) < 1e-10

    @pytest.mark.parametrize("alpha, beta", [(0.95, 0.05), (0.5, 0.5)])
    def test_bdf2_matches_high_precision_recurrence(self, alpha, beta):
        # the closed-form symbol (3/2)^alpha (1-z)^alpha (1-z/3)^alpha keeps every
        # weight within 1e-13 relative; the polynomial route delta_2^alpha by a
        # second recurrence was off by 2.2e-13 at alpha = 0.95
        tau, n = 2.0**-10, 400
        mine = generate_weights("bdf2", alpha, beta, tau, n).weights
        oracle = bdf2_recurrence_oracle(alpha, beta, tau, n)
        assert np.max(np.abs(mine / oracle - 1.0)) < 1e-13

    def test_alpha_one_matches_plain_pipeline(self):
        # at alpha = 1 the generating function degenerates to (1 + (1-z)/tau)^-beta
        beta, tau, n = 0.6, 0.1, 30
        delta = np.zeros(n + 1)
        delta[0], delta[1] = 1.0 / tau, -1.0 / tau
        delta[0] += 1.0
        plain = series_pow(delta, -beta)
        w = generate_weights("bdf1", 1.0, beta, tau, n).weights
        assert np.allclose(w, plain, rtol=1e-13)

    def test_order_validation(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            generate_weights("bdf3", 0.5, 0.5, 0.1, 4)


class TestSchemeDispatch:
    def test_routes(self):
        for scheme in SCHEMES:
            assert generate_weights(scheme, 0.5, 0.5, 0.1, 3).scheme == scheme
            # orders outside (0, 1] and a step not positive and finite are refused by every scheme
            for alpha, beta, tau in [(0.0, 0.5, 0.1), (1.1, 0.5, 0.1), (0.5, 0.0, 0.1),
                                     (0.5, 1.1, 0.1), (0.5, 0.5, 0.0), (0.5, 0.5, -1.0),
                                     (0.5, 0.5, math.inf), (0.5, 0.5, math.nan)]:
                with pytest.raises(ValueError):
                    generate_weights(scheme, alpha, beta, tau, 3)
        with pytest.raises(ValueError, match="unknown scheme"):
            generate_weights("rk", 0.5, 0.5, 0.1, 3)
        with pytest.raises(ValueError, match="unknown scheme"):
            CQWeights("rk", 0.5, 0.5, 0.1, [1.0])

    @pytest.mark.parametrize("scheme,alpha", [("cm2", 0.999), ("bdf1", 1.0), ("bdf2", 0.5)])
    def test_step_whose_symbol_scale_overflows_is_refused(self, scheme, alpha):
        # cm2 and bdf1 raise OverflowError in tau ** (-alpha); bdf2's (1.5 / tau) ** alpha is inf
        with pytest.raises(ValueError, match=f"{scheme} symbol scale at alpha={alpha}, tau=5e-324"):
            generate_weights(scheme, alpha, 0.5, 5e-324, 3)
        # the smallest normal step still gives a finite table
        smallest_normal = np.finfo(float).tiny
        assert np.all(np.isfinite(generate_weights(scheme, alpha, 0.5, smallest_normal, 3).weights))


class TestConsistencyResidual:
    def test_frozen_values(self):
        assert delta_consistency_residual(0.5, 0.1) == pytest.approx(RESID_A05_T01, rel=1e-10)
        assert delta_consistency_residual(0.5, 0.05) == pytest.approx(RESID_A05_T005, rel=1e-10)
        ratio = abs(RESID_A05_T01) / abs(RESID_A05_T005)
        assert ratio == pytest.approx(3.854754117, abs=1e-8)

    def test_vanishes_with_tau(self):
        for alpha in (0.2, 0.5, 0.8):
            assert abs(delta_consistency_residual(alpha, 1e-4)) < 1e-6

    def test_second_order_decay(self):
        # asymptotic halving ratio approaches 4 for every alpha
        for alpha in np.round(np.arange(1, 10) * 0.1, 12):
            r1 = delta_consistency_residual(float(alpha), 0.0125)
            r2 = delta_consistency_residual(float(alpha), 0.00625)
            assert abs(r1) / abs(r2) == pytest.approx(4.0, abs=0.15)


class TestQuadratureOrder:
    """Discrete convolution of s^3 versus the exact kernel integral.

    The asymptotic regime (tau <= 1/20) shows clean second order for all
    parameter pairs; at tau = 1/10 the pair (0.9, 0.9) is still
    pre-asymptotic (ratio 3.18), mirroring the coarse-step rate drift the
    full scheme exhibits near alpha, beta -> 1.
    """

    @staticmethod
    def _error(alpha, beta, tau):
        n = round(1.0 / tau)
        w = cm2_weights(alpha, beta, tau, n).weights
        t = np.arange(n + 1) * tau
        exact = prabhakar_integral_monomial(alpha, beta, 3, 1.0)
        return abs(float(w[::-1] @ t**3) - exact)

    @pytest.mark.parametrize("alpha,beta", [(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)])
    def test_second_order_in_asymptotic_regime(self, alpha, beta):
        errs = [self._error(alpha, beta, tau) for tau in (1 / 20, 1 / 40, 1 / 80)]
        for ratio in (errs[0] / errs[1], errs[1] / errs[2]):
            assert 3.4 <= ratio <= 4.6

    def test_error_decreases_monotonically(self):
        errs = [self._error(0.9, 0.9, tau) for tau in (1 / 10, 1 / 20, 1 / 40, 1 / 80)]
        assert all(a > b for a, b in zip(errs, errs[1:]))


class TestExpSumFit:
    """Positive exponential sums fitted to the weight tables: positive
    coefficients, rates in (0, 1), relative miss within FIT_TARGET, or, where
    no sum over the candidate rates reaches it, the best sum within FIT_TOL."""

    @staticmethod
    def _check(w):
        fit = fit_exp_sum(w)
        assert (fit.coeffs > 0.0).all()
        assert ((fit.rates > 0.0) & (fit.rates < 1.0)).all()
        assert FIT_TARGET < FIT_TOL and fit.miss <= FIT_TOL
        if fit.miss > FIT_TARGET:
            # the fit did not stop early: it is the fit that runs to the optimum
            with mock.patch.object(quadrature, "FIT_TARGET", 0.0):
                best = fit_exp_sum(w)
            assert np.array_equal(best.coeffs, fit.coeffs)
            assert np.array_equal(best.rates, fit.rates)
        # the reported miss is the one of the materialized sum
        assert np.max(np.abs(fit.weights() / w.weights - 1.0)) == pytest.approx(fit.miss, abs=1e-16)
        assert fit.w0 == pytest.approx(fit.weights()[0], rel=1e-15)
        return fit

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        alpha=st.floats(0.05, 0.95),
        beta=st.floats(0.05, 1.0),
        tau=st.floats(1e-3, 0.5),
        n=st.integers(0, 1024),
    )
    @example(alpha=0.5, beta=1.0, tau=1 / 1024, n=1024)
    @example(alpha=0.9, beta=1.0, tau=0.5, n=1024)
    @example(alpha=0.999, beta=1.0, tau=1e-3, n=1024)
    @example(alpha=0.999, beta=0.05, tau=0.5, n=1024)
    @example(alpha=0.5, beta=0.5, tau=10.0, n=1024)  # the root search widens its bracket
    def test_cm2(self, alpha, beta, tau, n):
        self._check(cm2_weights(alpha, beta, tau, n))

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(beta=st.floats(0.05, 1.0), tau=st.floats(1e-3, 0.5), n=st.integers(0, 1024))
    @example(beta=1.0, tau=0.5, n=1024)
    @example(beta=0.05, tau=0.5, n=1024)
    def test_cm2_alpha_near_one(self, beta, tau, n):
        self._check(cm2_weights(0.999, beta, tau, n))

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(beta=st.floats(0.05, 1.0), tau=st.floats(1e-3, 0.5), n=st.integers(0, 1024))
    @example(beta=1.0, tau=0.1, n=64)
    @example(beta=0.05, tau=0.5, n=1024)
    def test_bdf1_alpha_one(self, beta, tau, n):
        self._check(generate_weights("bdf1", 1.0, beta, tau, n))

    def test_fit_stops_at_the_target(self):
        # the reference table of the convergence study: the fit that runs to
        # the optimum needs more exponentials than the one that stops at the target
        w = cm2_weights(0.5, 0.5, 1 / 320, 320)
        fit = self._check(w)
        with mock.patch.object(quadrature, "FIT_TARGET", 0.0):
            best = fit_exp_sum(w)
        assert best.miss < fit.miss <= FIT_TARGET
        assert fit.rates.size < best.rates.size

    def test_bdf1_debye_is_one_exponential(self):
        # alpha = beta = 1: w_j = tau/(1+tau) * (1+tau)^-j exactly
        fit = self._check(generate_weights("bdf1", 1.0, 1.0, 0.1, 10))
        assert fit.rates.size == 1
        assert fit.rates[0] == pytest.approx(1.0 / 1.1, rel=1e-15)
        assert fit.coeffs[0] == pytest.approx(0.1 / 1.1, rel=1e-14)

    def test_bdf2_fits_where_completely_monotone(self):
        self._check(generate_weights("bdf2", 0.5, 0.5, 0.1, 10))

    def test_non_cm_table_refused(self):
        with pytest.raises(NotCompletelyMonotoneError) as info:
            fit_exp_sum(generate_weights("bdf2", 0.9, 0.9, 0.1, 10))
        message = str(info.value)
        for part in ("bdf2", "alpha=0.9", "beta=0.9", "tau=0.1", "N=10"):
            assert part in message
        # the best positive sum misses this table by about 7e-2
        miss = float(message.split("misses them by ")[1].split()[0])
        assert 0.05 < miss < 0.1

    def test_nonpositive_weight_refused(self):
        # bdf2 weights change sign at coarse steps near alpha = 1
        w = generate_weights("bdf2", 0.95, 0.95, 2.0, 20)
        assert (w.weights <= 0.0).any()
        with pytest.raises(NotCompletelyMonotoneError, match="not positive"):
            fit_exp_sum(w)


def one_shot_fit(w):
    """fit_exp_sum with the fit matrix formed whole: its columns scaled to unit
    norm, then one QR of [a | b] for the triangular factor _nnls starts from."""
    table = w.weights
    rates = quadrature._candidate_rates(w.scheme, w.alpha, w.tau, w.order)
    a = quadrature._powers(rates, 0, table.size) / table[:, None]
    scale = np.linalg.norm(a, axis=0)
    ab = np.column_stack([a / scale, np.ones(table.size)])
    x = _nnls(np.linalg.qr(ab, mode="r"), lambda l: ab[:, l], FIT_TARGET) / scale
    keep = x > 0.0
    return rates[keep], a[:, keep] @ x[keep] * table


class TestBlockedFit:
    """The fit folded from row blocks against the one-shot factor."""

    # largest relative change of w_hat against one_shot_fit over the cases
    # below was 2.3e-14 (1 or 2 BLAS threads); over 147 scanned tables, the
    # largest change against the fit that formed the whole matrix was 3.4e-14
    W_HAT_BOUND = 1e-13

    @pytest.mark.parametrize(
        "n",
        [
            100,  # fewer rows than candidate columns
            quadrature._FIT_BLOCK - 1,  # one block
            quadrature._FIT_BLOCK,  # one block plus one row
            3 * quadrature._FIT_BLOCK + 100,  # several blocks
        ],
    )
    @pytest.mark.parametrize(
        "scheme,alpha,beta,tau",
        [("cm2", 0.5, 0.5, 1 / 64), ("bdf1", 1.0, 0.7, 0.1), ("bdf2", 0.5, 0.5, 0.01)],
    )
    def test_matches_one_shot_factor(self, scheme, alpha, beta, tau, n):
        w = generate_weights(scheme, alpha, beta, tau, n)
        self._assert_matches(fit_exp_sum(w), w)

    def test_blocks_of_fewer_rows_than_columns(self):
        # 8-row blocks: the factor has fewer rows than columns for 25 folds
        w = generate_weights("cm2", 0.5, 0.5, 1 / 64, 200)
        with mock.patch.object(quadrature, "_FIT_BLOCK", 8):
            fit = fit_exp_sum(w)
        self._assert_matches(fit, w)

    def _assert_matches(self, fit, w):
        rates, w_hat = one_shot_fit(w)
        assert fit.rates.size == rates.size
        # a candidate rate r below 1e-12 gives a column that agrees with
        # e_0 / w_0 to about r w_0 / w_1, far below what the fit resolves, so
        # rounding picks among such rates
        assert np.array_equal(fit.rates[fit.rates > 1e-12], rates[rates > 1e-12])
        assert np.max(np.abs(fit.weights() / w_hat - 1.0)) <= self.W_HAT_BOUND

    def test_fit_holds_less_than_one_fit_matrix(self):
        # the one-shot fit held about three (N+1) x (C+1) arrays at its QR
        w = cm2_weights(0.5, 0.5, 1 / 4096, 4096)
        columns = quadrature._candidate_rates("cm2", 0.5, 1 / 4096, 4096).size + 1
        tracemalloc.start()
        try:
            fit_exp_sum(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < w.weights.size * columns * 8


class TestExpSumRefuses:
    """ExpSum holds what its docstring states, or refuses with ValueError."""

    VALID = dict(tau=0.1, order=4, coeffs=[0.5, 0.25], rates=[0.9, 0.5], miss=0.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            pytest.param("coeffs", [2.0, -1.0], id="negative-coeff"),
            pytest.param("coeffs", [2.0, 0.0], id="zero-coeff"),
            pytest.param("coeffs", [2.0, math.inf], id="infinite-coeff"),
            pytest.param("coeffs", [2.0, math.nan], id="nan-coeff"),
            pytest.param("rates", [0.5, 1.5], id="rate-above-one"),
            pytest.param("rates", [0.5, 1.0], id="rate-one"),
            pytest.param("rates", [0.5, 0.0], id="rate-zero"),
            pytest.param("rates", [0.5, math.nan], id="nan-rate"),
            pytest.param("rates", [0.5], id="unequal-lengths"),
            pytest.param("rates", [[0.9, 0.5]], id="2-d"),
            pytest.param("tau", 0.0, id="zero-tau"),
            pytest.param("tau", math.inf, id="infinite-tau"),
            pytest.param("tau", math.nan, id="nan-tau"),
            pytest.param("order", -1, id="negative-order"),
            pytest.param("order", 4.0, id="float-order"),
            pytest.param("miss", -1e-12, id="negative-miss"),
            pytest.param("miss", math.inf, id="infinite-miss"),
            pytest.param("miss", math.nan, id="nan-miss"),
        ],
    )
    def test_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExpSum(**{**self.VALID, field: value})

    def test_empty_refused(self):
        with pytest.raises(ValueError, match="non-empty"):
            ExpSum(**{**self.VALID, "coeffs": [], "rates": []})

    def test_valid_sum_is_kept_as_float_arrays(self):
        memory = ExpSum(**self.VALID)
        assert memory.coeffs.dtype == memory.rates.dtype == float
        assert memory.weights() == pytest.approx(0.5 * 0.9 ** np.arange(5) + 0.25 * 0.5 ** np.arange(5))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=st.integers(1, 8), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_nnls_kkt(m, n, seed):
    # optimality conditions of min ||a x - b||, x >= 0: x >= 0, the gradient
    # a^T (b - a x) vanishes on the support and is <= 0 off it
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(m, n)), rng.normal(size=m)
    ab = np.column_stack([a, b])
    x = _nnls(np.linalg.qr(ab, mode="r"), lambda l: ab[:, l], 0.0)
    grad = a.T @ (b - a @ x)
    scale = np.linalg.norm(a) * np.linalg.norm(b)
    assert (x >= 0.0).all()
    assert np.all(np.abs(grad[x > 0.0]) <= 1e-10 * scale)
    assert np.all(grad[x == 0.0] <= 1e-10 * scale)

"""Truncated-series arithmetic against hand expansions, a long-division
reciprocal oracle and the per-coefficient Miller recurrence."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hnmaxwell import series
from hnmaxwell.series import BLOCK, binom_series, series_mul, series_pow


def reciprocal_by_long_division(coeffs: np.ndarray) -> np.ndarray:
    """Independent oracle: synthetic division of 1 by the series."""
    out = np.empty_like(coeffs)
    out[0] = 1.0 / coeffs[0]
    for n in range(1, coeffs.size):
        out[n] = -np.dot(coeffs[1 : n + 1], out[:n][::-1]) / coeffs[0]
    return out


def miller_by_rows(coeffs: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: the Miller recurrence one coefficient at a time,

        h_n = (1 / (n*f0)) * sum_{k=1..n} (gamma*k - (n - k)) * f_k * h_{n-k},

    and the size of each row, sum_k (|gamma|*k + n - k) * |f_k * h_{n-k}| / (n*f0),
    which is |h_n| itself when the row does not cancel (gamma < 0 and one-signed
    f_k * h_{n-k}, as for the cm2 weights).  The factor is written
    gamma*k - (n - k), not (gamma + 1)*k - n, which would lose gamma to
    rounding when |gamma| is small."""
    f0 = coeffs[0]
    h = np.empty_like(coeffs)
    size = np.empty_like(coeffs)
    h[0] = size[0] = f0**gamma
    for n in range(1, coeffs.size):
        k = np.arange(1, n + 1)
        fh = coeffs[1 : n + 1] * h[n - k]
        h[n] = ((gamma * k - (n - k)) * fh).sum() / (n * f0)
        size[n] = ((abs(gamma) * k + (n - k)) * np.abs(fh)).sum() / (n * f0)
    return h, size


def symbol_series(shape: str, alpha: float, tau: float, n: int) -> np.ndarray:
    """1 + s (1-z)^alpha (1-dz)^e of the cm2, bdf1 or bdf2 weights."""
    if shape == "cm2":
        c, d = (2.0 - alpha) / (2.0 - 2.0 * alpha), alpha / (2.0 - alpha)
        s, e = tau**-alpha * c ** (1.0 - alpha), 1.0 - alpha
    elif shape == "bdf1":
        s, d, e = tau**-alpha, 0.0, 0.0
    else:
        s, d, e = (1.5 / tau) ** alpha, 1.0 / 3.0, alpha
    b = s * series_mul(binom_series(alpha, 1.0, n), binom_series(e, d, n))
    b[0] += 1.0
    return b


BLOCK_EDGES = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from(["cm2", "bdf1", "bdf2"]),
    alpha=st.floats(0.05, 0.999),
    tau=st.floats(-3.5, 0.0).map(lambda x: 10.0**x),
    # |gamma| < 1e-100 would push h_n (about gamma * (log f)_n) toward subnormal numbers
    gamma=st.floats(-1.0, 1.0).filter(lambda g: g == 0.0 or abs(g) >= 1e-100),
    n=st.sampled_from(BLOCK_EDGES) | st.integers(0, 1100),
)
@example(shape="bdf1", alpha=1.0, tau=0.1, gamma=-0.6, n=BLOCK + 1)
@example(shape="bdf2", alpha=0.95, tau=2.0**-10, gamma=-0.05, n=1100)
@example(shape="cm2", alpha=0.999, tau=1e-3, gamma=-1.0, n=2 * BLOCK)
@example(shape="bdf2", alpha=0.78, tau=2e-3, gamma=0.81, n=475)
# gamma > 0 corners where the closed-form blocks alone miss the bound by up to
# 3.7x; the residual correction brings them under it
@example(shape="bdf2", alpha=0.999, tau=1e-3, gamma=0.9, n=1100)
@example(shape="cm2", alpha=0.999, tau=3e-4, gamma=0.9, n=1100)
@example(shape="bdf1", alpha=0.999, tau=1e-3, gamma=0.81, n=1000)
# the worst gamma < 0 corner of a scan of the three symbols, 18 closed-form blocks
@example(shape="bdf1", alpha=0.999, tau=1e-3, gamma=-0.05, n=1100)
def test_pow_blocked_matches_rows(shape, alpha, tau, gamma, n):
    # the blocked solve reorders the sums only: agreement to roundoff of each row
    f = symbol_series(shape, alpha, tau, n)
    want, size = miller_by_rows(f, gamma)
    got = series_pow(f, gamma)
    assert got.shape == want.shape
    assert (np.abs(got - want) <= 1e-13 * size).all()


@pytest.mark.parametrize("n", BLOCK_EDGES + [1000, 1100])
def test_pow_block_edges_relative(n):
    # cm2 weights: positive rows without cancellation, so plain relative agreement
    f = symbol_series("cm2", 0.5, 0.01, n)
    want, _ = miller_by_rows(f, -0.5)
    got = series_pow(f, -0.5)
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def test_binom_linear():
    s = binom_series(1.0, 1.0, 3)
    assert np.allclose(s, [1.0, -1.0, 0.0, 0.0], atol=1e-16)


def test_binom_sqrt():
    s = binom_series(0.5, 1.0, 2)
    assert np.allclose(s, [1.0, -0.5, -0.125], rtol=1e-15)


def test_binom_scaled_sqrt():
    s = binom_series(0.5, 1.0 / 3.0, 2)
    assert np.allclose(s, [1.0, -1.0 / 6.0, -1.0 / 72.0], rtol=1e-15)


def test_mul_truncates():
    a = np.array([1.0, -1.0])
    assert np.allclose(series_mul(a, a), [1.0, -2.0])


def test_mul_shift():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    assert np.allclose(series_mul(a, b), [0.0, 1.0, 0.0])


def test_mul_hand_expansion():
    prod = series_mul(binom_series(0.5, 1.0, 2), binom_series(0.5, 1.0 / 3.0, 2))
    assert np.allclose(prod, [1.0, -2.0 / 3.0, -1.0 / 18.0], rtol=1e-14)


@pytest.mark.parametrize("size", [1, 2, 65, 1025])
def test_mul_matches_full_convolution(size):
    # within a few ulp of each term's sum_i |a_i b_{n-i}|; the binomial pair's
    # (1 - z/3)^0.5 factor underflows into subnormals and zeros beyond n ~ 650
    rng = np.random.default_rng(size)
    pairs = [
        (rng.standard_normal(size), rng.standard_normal(size)),
        (binom_series(0.5, 1.0, size - 1), binom_series(0.5, 1.0 / 3.0, size - 1)),
    ]
    for a, b in pairs:
        got = series_mul(a, b)
        want = np.convolve(a, b)[:size]
        scale = np.convolve(np.abs(a), np.abs(b))[:size]
        assert (np.abs(got - want) <= 4.0 * np.finfo(float).eps * scale).all()


@pytest.mark.parametrize("scheme", ["cm2", "bdf2"])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_mul_symbol_factors_bit_identical(scheme, alpha):
    # (1-z)^alpha (1-dz)^e of the weight symbols: the dropped tail of the
    # second factor lies below the last bit of every kept term
    e, d = (1.0 - alpha, alpha / (2.0 - alpha)) if scheme == "cm2" else (alpha, 1.0 / 3.0)
    a, b = binom_series(alpha, 1.0, 1024), binom_series(e, d, 1024)
    assert np.array_equal(series_mul(a, b), np.convolve(a, b)[:1025])


def test_mul_order_mismatch():
    with pytest.raises(ValueError):
        series_mul(binom_series(1.0, 1.0, 2), binom_series(1.0, 1.0, 3))


def test_pow_square_truncated():
    f = np.array([1.0, 1.0])
    assert np.allclose(series_pow(f, 2.0), [1.0, 2.0])


def test_pow_constant_series():
    f = np.array([4.0, 0.0, 0.0])
    assert np.allclose(series_pow(f, 0.5), [2.0, 0.0, 0.0])


def test_pow_reciprocal_vs_long_division():
    coeffs = np.array([2.2247449, -0.8164966, -0.0680414])
    got = series_pow(coeffs, -1.0)
    assert np.allclose(got, reciprocal_by_long_division(coeffs), rtol=1e-13)
    assert np.allclose(got, [0.4494897, 0.1649659, 0.0742908], atol=5e-7)


def test_pow_reciprocal_random_vs_long_division():
    rng = np.random.default_rng(7)
    for _ in range(10):
        coeffs = rng.normal(size=12)
        coeffs[0] = rng.uniform(0.5, 3.0)
        got = series_pow(coeffs, -1.0)
        assert np.allclose(got, reciprocal_by_long_division(coeffs), rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("gamma", [0.5, -0.7, 2.0, -1.3])
def test_pow_round_trip(gamma):
    rng = np.random.default_rng(42)
    for _ in range(5):
        coeffs = rng.normal(size=20) / np.arange(1, 21)
        coeffs[0] = rng.uniform(0.5, 2.0)
        back = series_pow(series_pow(coeffs, gamma), 1.0 / gamma)
        assert np.allclose(back, coeffs, rtol=1e-10, atol=1e-10)


def test_pow_solves_two_heads_only(monkeypatch):
    # one LU for the head of c^gamma, one for the head of c^(-gamma-1); the
    # later blocks are closed-form, and the heads do not re-enter series_pow
    solves, powers = [], []
    solve, pow_ = np.linalg.solve, series.series_pow
    monkeypatch.setattr(series.np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
    monkeypatch.setattr(series, "series_pow", lambda *a: powers.append(1) or pow_(*a))
    for gamma in (-0.5, 0.5):
        solves.clear()
        powers.clear()
        series.series_pow(symbol_series("cm2", 0.5, 0.01, 1000), gamma)
        assert len(solves) <= 2 and len(powers) == 1


def test_pow_requires_positive_constant_term():
    with pytest.raises(ValueError):
        series_pow(np.array([0.0, 1.0]), 0.5)
    with pytest.raises(ValueError):
        series_pow(np.array([-1.0, 1.0]), 2.0)


def test_series_validation():
    with pytest.raises(ValueError):
        binom_series(1.0, 1.0, -1)


@pytest.mark.parametrize(
    ("build", "message"),
    [
        pytest.param(lambda: binom_series(1.0, 1.0, 2.5), "truncation order", id="binom-fractional-order"),
        pytest.param(lambda: binom_series(math.nan, 1.0, 3), "must be finite", id="binom-nan-exponent"),
        pytest.param(lambda: binom_series(0.5, math.inf, 3), "must be finite", id="binom-inf-scale"),
        pytest.param(lambda: series_mul(np.array([1.0, math.nan]), np.ones(2)), "non-finite", id="mul-nan"),
        pytest.param(lambda: series_mul(np.ones((2, 2)), np.ones((2, 2))), "1-d", id="mul-2d"),
        pytest.param(
            lambda: series_pow(np.array([math.nan, 1.0, 2.0]), 0.5), "non-finite", id="pow-nan-coefficient"
        ),
        pytest.param(
            lambda: series_pow(np.array([1.0, 1.0, 2.0]), math.nan), "exponent must be finite", id="pow-nan-exponent"
        ),
        pytest.param(lambda: series_pow(np.array([]), 0.5), "non-empty", id="pow-empty"),
        pytest.param(lambda: series_pow(np.ones((2, 2)), 0.5), "1-d", id="pow-2d"),
    ],
)
def test_series_builders_refuse_bad_input(build, message, monkeypatch):
    # refused by the builder's own check, before any convolution or solve
    def no_work(*args, **kwargs):
        raise AssertionError("bad input reached the arithmetic")

    monkeypatch.setattr(series.np, "convolve", no_work)
    monkeypatch.setattr(series.np.linalg, "solve", no_work)
    monkeypatch.setattr(series.np, "cumprod", no_work)
    with pytest.raises(ValueError, match=message):
        build()

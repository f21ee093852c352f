"""Quadrature, discrete derivative, and propagator kernel checks."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diracmono.errors import DomainError
from diracmono.numerics import (
    apply_derivative,
    derivative_weights,
    expm_traceless_2x2,
    simpson_weights,
)

coef = st.floats(-3, 3, allow_nan=False)


@given(c0=coef, c1=coef, c2=coef, c3=coef)
def test_simpson_exact_for_cubics_uniform(c0, c1, c2, c3):
    # on equal interval pairs Simpson picks up cubics exactly (symmetry)
    r = np.linspace(0.0, 4.0, 13)
    w = simpson_weights(r)
    f = c0 + c1 * r + c2 * r**2 + c3 * r**3
    exact = c0 * 4.0 + c1 * 8.0 + c2 * 64.0 / 3.0 + c3 * 64.0
    assert np.dot(w, f) == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_simpson_quadratic_exact_nonuniform():
    rng = np.random.default_rng(7)
    r = np.sort(rng.uniform(0, 5, 41))
    w = simpson_weights(r)
    f = 2.0 - 0.7 * r + 0.31 * r**2
    exact = 2.0 * (r[-1] - r[0]) - 0.35 * (r[-1] ** 2 - r[0] ** 2) + (0.31 / 3) * (r[-1] ** 3 - r[0] ** 3)
    assert np.dot(w, f) == pytest.approx(exact, rel=1e-13)


def test_simpson_fourth_order_convergence():
    # Richardson slope on a smooth decaying integrand
    def err(n):
        r = np.linspace(0.0, 12.0, n)
        w = simpson_weights(r)
        f = np.exp(-r) * np.sin(2 * r)
        exact = 2.0 / 5.0 - math.exp(-12.0) * (math.sin(24.0) + 2 * math.cos(24.0)) / 5.0
        return abs(np.dot(w, f) - exact)

    e1, e2 = err(201), err(401)
    order = math.log2(e1 / e2)
    assert order > 3.6


def test_simpson_trapezoid_fallback_even_points():
    # even point count -> odd segment count -> trapezoid on the last cell
    r = np.linspace(0, 1, 8)
    w = simpson_weights(r)
    assert np.dot(w, np.ones_like(r)) == pytest.approx(1.0, rel=1e-14)
    assert np.dot(w, r) == pytest.approx(0.5, rel=1e-13)


def _simpson_loop(r):
    """Reference: one Python iteration per interval pair."""
    w = np.zeros(r.size)
    for i in range(0, r.size - 2, 2):
        h1, h2 = r[i + 1] - r[i], r[i + 2] - r[i + 1]
        s = h1 + h2
        w[i] += s * (2.0 * h1 - h2) / (6.0 * h1)
        w[i + 1] += s**3 / (6.0 * h1 * h2)
        w[i + 2] += s * (2.0 * h2 - h1) / (6.0 * h2)
    if (r.size - 1) % 2 == 1:
        w[-2:] += 0.5 * (r[-1] - r[-2])
    return w


@pytest.mark.parametrize("n", [2, 3, 4, 41, 4000, 4001])
def test_simpson_matches_pairwise_loop(n):
    r = np.sort(np.random.default_rng(n).uniform(0, 5, n))
    np.testing.assert_allclose(simpson_weights(r), _simpson_loop(r),
                               rtol=4 * np.finfo(float).eps, atol=0)


def test_simpson_rejects_bad_grids():
    with pytest.raises(DomainError):
        simpson_weights(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(DomainError):
        simpson_weights(np.array([1.0]))


def test_derivative_rejects_short_grid():
    with pytest.raises(DomainError):
        derivative_weights(np.linspace(0.0, 1.0, 4))


@given(st.floats(0.2, 2.0), st.floats(-1.5, 1.5))
def test_derivative_exact_for_quartics(scale, tilt):
    # a short grid, and one shaped like the solver's output grids (4000
    # geometric points over 20 e-folds)
    for grid in (np.geomspace(0.1, 3.0, 31),
                 np.geomspace(1e-7, 1e-7 * math.exp(20.0), 4000)):
        r = grid * scale
        f = 0.3 * r**4 - r**3 + tilt * r**2 + 2 * r - 1
        df = 1.2 * r**3 - 3 * r**2 + 2 * tilt * r + 2
        tab = derivative_weights(r)
        got = apply_derivative(tab, f)
        assert np.max(np.abs(got - df)) < 1e-7 * max(1.0, np.max(np.abs(df)))


def test_derivative_fourth_order_on_sin():
    def err(n):
        r = np.linspace(0, 3, n)
        tab = derivative_weights(r)
        got = apply_derivative(tab, np.sin(r))
        return np.max(np.abs(got - np.cos(r))[3:-3])

    order = math.log2(err(101) / err(201))
    assert order > 3.6


def test_expm_identity_at_zero():
    m11, m12, m21, m22, logf = expm_traceless_2x2(0.0, 0.0, 0.0)
    assert (m11, m12, m21, m22, logf) == (1.0, 0.0, 0.0, 1.0, 0.0)
    # zeros of either sign, as a zero-length step forms them, in a batch
    zeros = np.array(list(itertools.product((0.0, -0.0), repeat=3))).T
    for got, want in zip(expm_traceless_2x2(*zeros), (1.0, 0.0, 0.0, 1.0, 0.0)):
        assert np.all(got == want)


def test_expm_batch_is_elementwise():
    # each element of a batch, of either kind (q > 0 or q <= 0) and in any
    # memory layout, gets bitwise what it gets alone
    rng = np.random.default_rng(7)
    oa, ob, oc = rng.uniform(-2.0, 2.0, (3, 40, 7))
    oc[:, ::3] = 0.0                   # q = oa^2 >= 0
    oa[::2, 1] = ob[::2, 1] = 0.0      # q = 0
    for batch in ((oa, ob, oc), tuple(a.T for a in (oa, ob, oc))):
        got = expm_traceless_2x2(*batch)
        for i in np.ndindex(batch[0].shape):
            alone = expm_traceless_2x2(*(a[i] for a in batch))
            assert all(g[i] == v for g, v in zip(got, alone))


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
def test_expm_det_is_one(a, b, c):
    # det exp(traceless) = 1; the scaled form carries exp(2*logf)
    m11, m12, m21, m22, logf = expm_traceless_2x2(a, b, c)
    det = m11 * m22 - m12 * m21
    assert det * math.exp(2 * logf) == pytest.approx(1.0, rel=1e-10)


def _assert_matches_series(a, b, c):
    # brute-force oracle: scaling-and-squaring of the Taylor series
    mat = np.array([[a, b], [c, -a]])
    n = 40
    small = mat / 2.0**12
    acc = np.eye(2)
    term = np.eye(2)
    for k in range(1, n):
        term = term @ small / k
        acc = acc + term
    for _ in range(12):
        acc = acc @ acc
    m11, m12, m21, m22, logf = expm_traceless_2x2(a, b, c)
    got = math.exp(logf) * np.array([[m11, m12], [m21, m22]])
    assert np.allclose(got, acc, rtol=5e-9, atol=1e-12)


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
def test_expm_matches_series(a, b, c):
    _assert_matches_series(a, b, c)


@pytest.mark.parametrize("q", [0.0, 1e-300, -1e-300, 1e-12, -1e-12,
                               1e-7, -1e-7, 1e-6, -1e-6])
def test_expm_matches_series_near_q_zero(q):
    # q = a^2 + b c near 0, where the two closed forms meet; hypothesis
    # almost never draws these
    _assert_matches_series(0.0, q, 1.0)
    _assert_matches_series(0.0, 1.0, q)
    if q >= 0:
        _assert_matches_series(math.sqrt(q), 0.0, 0.0)
    if q == 0:
        _assert_matches_series(0.5, 0.25, -1.0)  # nilpotent: exp = I + M


def test_expm_no_overflow_long_step():
    # 400 e-folds in one step: the scaled entries stay O(1)
    m11, m12, m21, m22, logf = expm_traceless_2x2(0.0, 400.0, 400.0)
    assert logf == pytest.approx(400.0)
    for v in (m11, m12, m21, m22):
        assert abs(v) <= 1.0 + 1e-12

"""Low-level numerical kernels: quadrature, discrete derivatives, 2x2 propagator.

Everything here is plain numpy on arrays; no physics. The solver and the
verification layer build on these three pieces:

* composite Simpson weights on arbitrary strictly increasing grids
  (trapezoid fallback for the last cell when the segment count is odd),
* 4th-order finite-difference weights on arbitrary grids (Fornberg's
  recursion, 5-point stencils, one-sided at the ends),
* the exactly-known exponential of a traceless 2x2 matrix, returned in a
  scaled form so that steps with huge exponential growth never overflow.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "simpson_weights",
    "derivative_weights",
    "apply_derivative",
    "expm_traceless_2x2",
]


def simpson_weights(r: np.ndarray) -> np.ndarray:
    """Quadrature weights w with sum(w*f) ~ integral of f over [r[0], r[-1]].

    Composite Simpson on consecutive interval pairs, exact for quadratics on
    each pair even when the two intervals differ in length. If the number of
    intervals is odd the final cell is closed with a trapezoid.
    """
    r = np.asarray(r, dtype=float)
    n = r.size
    if n < 2:
        raise ValueError("quadrature grid needs at least 2 points")
    if np.any(np.diff(r) <= 0):
        raise ValueError("quadrature grid must be strictly increasing")
    w = np.zeros(n)
    n_seg = n - 1
    pairs = n_seg // 2
    for p in range(pairs):
        i = 2 * p
        h1 = r[i + 1] - r[i]
        h2 = r[i + 2] - r[i + 1]
        s = h1 + h2
        # quadratic through (r_i, r_i+1, r_i+2), integrated exactly
        w[i] += s * (2.0 * h1 - h2) / (6.0 * h1)
        w[i + 1] += s**3 / (6.0 * h1 * h2)
        w[i + 2] += s * (2.0 * h2 - h1) / (6.0 * h2)
    if n_seg % 2 == 1:
        h = r[-1] - r[-2]
        w[-2] += 0.5 * h
        w[-1] += 0.5 * h
    return w


def _fornberg(x: np.ndarray, x0: float, m: int) -> np.ndarray:
    """Weights of the m-th derivative at x0 from samples at points x.

    Classic Fornberg recursion; returns weights for derivatives 0..m, of which
    the caller typically wants the last row.
    """
    n = x.size
    c = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = x[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def derivative_weights(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-derivative stencil table on an arbitrary strictly increasing grid.

    Returns (weights, offsets): weights[i, :] applied to f[offsets[i, :]] gives
    df/dr at r[i]. Centered 5-point stencils in the interior (4th order),
    one-sided 5-point stencils at the two ends. Interior rows use the closed
    Lagrange-derivative form (vectorized); boundary rows fall back to the
    Fornberg recursion.
    """
    r = np.asarray(r, dtype=float)
    n = r.size
    if n < 5:
        raise ValueError("grid too short for a 5-point stencil")
    weights = np.empty((n, 5))
    offsets = (np.clip(np.arange(n), 2, n - 3)[:, None]
               + np.arange(-2, 3)[None, :]).astype(np.intp)
    # interior rows: derivative of the Lagrange basis at the center node
    xc = r[2:-2]
    d = np.stack([xc - r[0:n - 4], xc - r[1:n - 3], xc - r[3:n - 1], xc - r[4:n]],
                 axis=1)  # x_i - x_{i+o}, o in (-2, -1, 1, 2)
    col = {-2: 0, -1: 1, 1: 2, 2: 3}
    for slot, oj in zip((0, 1, 3, 4), (-2, -1, 1, 2)):
        num = np.ones_like(xc)
        den = -d[:, col[oj]]
        for ok in (-2, -1, 1, 2):
            if ok == oj:
                continue
            num = num * d[:, col[ok]]
            den = den * (d[:, col[ok]] - d[:, col[oj]])
        weights[2:-2, slot] = num / den
    weights[2:-2, 2] = np.sum(1.0 / d, axis=1)
    for i in (0, 1, n - 2, n - 1):
        idx = offsets[i]
        weights[i] = _fornberg(r[idx], r[i], 1)
    return weights, offsets


def apply_derivative(table: tuple[np.ndarray, np.ndarray], f: np.ndarray) -> np.ndarray:
    """Apply a derivative_weights table to samples f."""
    weights, offsets = table
    return np.sum(weights * np.asarray(f, dtype=float)[offsets], axis=1)


# Series for cosh(sqrt(q)) and sinh(sqrt(q))/sqrt(q) as entire functions of q,
# used near q = 0 where the direct branches lose accuracy.
_Q_SERIES_CUT = 1e-6


def expm_traceless_2x2(oa, ob, oc):
    """Scaled exponential of the traceless matrix [[oa, ob], [oc, -oa]].

    Returns (m11, m12, m21, m22, logscale) with

        exp([[oa, ob], [oc, -oa]]) = exp(logscale) * [[m11, m12], [m21, m22]].

    The entries m* are O(1) even when the true exponential is astronomically
    large (hyperbolic regime), which is what lets the propagator take long
    steps through classically forbidden regions without overflow. All inputs
    may be arrays of a common shape.
    """
    oa = np.asarray(oa, dtype=float)
    ob = np.asarray(ob, dtype=float)
    oc = np.asarray(oc, dtype=float)
    q = oa * oa + ob * oc

    hyp = q >= _Q_SERIES_CUT
    osc = q <= -_Q_SERIES_CUT

    # hyperbolic branch, scaled by exp(-s): cosh, sinh/s -> (1+e^-2s)/2, (1-e^-2s)/(2s)
    s = np.sqrt(np.where(hyp, q, 1.0))
    e2 = np.exp(-2.0 * s)
    ch_h = 0.5 * (1.0 + e2)
    sh_h = 0.5 * (1.0 - e2) / s

    # oscillatory branch: cos, sin/w (no scaling needed)
    w = np.sqrt(np.where(osc, -q, 1.0))
    ch_o = np.cos(w)
    sh_o = np.sin(w) / w

    # |q| small: entire-function series, error ~ q^4/8! relative
    ch_s = 1.0 + q * (0.5 + q * (1.0 / 24.0 + q / 720.0))
    sh_s = 1.0 + q * (1.0 / 6.0 + q * (1.0 / 120.0 + q / 5040.0))

    ch = np.where(hyp, ch_h, np.where(osc, ch_o, ch_s))
    sh = np.where(hyp, sh_h, np.where(osc, sh_o, sh_s))
    logscale = np.where(hyp, s, 0.0)

    m11 = ch + sh * oa
    m22 = ch - sh * oa
    m12 = sh * ob
    m21 = sh * oc
    return m11, m12, m21, m22, logscale

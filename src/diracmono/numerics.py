"""Low-level numerical kernels: quadrature, discrete derivatives, 2x2 propagator.

Everything here is plain numpy on arrays; no physics. The solver and the
verification layer build on these three pieces, each one closed form over
whole arrays:

* composite Simpson weights on arbitrary strictly increasing grids
  (trapezoid for the last cell when the segment count is odd),
* 4th-order first-derivative weights on arbitrary grids: the derivative of
  the 5-point Lagrange interpolant, centred in the interior and one-sided at
  the ends,
* the exactly-known exponential of a traceless 2x2 matrix, returned in a
  scaled form so that steps with huge exponential growth never overflow.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

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
        raise DomainError("quadrature grid needs at least 2 points")
    h = np.diff(r)
    if np.any(h <= 0):
        raise DomainError("quadrature grid must be strictly increasing")
    w = np.zeros(n)
    end = n - 1 - (n - 1) % 2  # last node of the interval pairs
    h1, h2 = h[0:end:2], h[1:end:2]
    s = h1 + h2
    # quadratic through (r_i, r_i+1, r_i+2), integrated exactly
    w[0:end:2] += s * (2.0 * h1 - h2) / (6.0 * h1)
    w[1:end:2] += s**3 / (6.0 * h1 * h2)
    w[2:end + 1:2] += s * (2.0 * h2 - h1) / (6.0 * h2)
    if end < n - 1:
        w[-2:] += 0.5 * h[-1]
    return w


def derivative_weights(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-derivative stencil table on an arbitrary strictly increasing grid.

    Returns (weights, offsets): weights[i, :] applied to f[offsets[i, :]] gives
    df/dr at r[i]. Every row is the derivative at x_p = r[i] of the Lagrange
    interpolant through its 5 stencil nodes x_0..x_4 (4th order): centred in
    the interior, one-sided for the two rows at each end. With p the slot of
    r[i] in its stencil,

        w_j = prod_{k != j, p} (x_p - x_k) / prod_{k != j} (x_j - x_k),  j != p,
        w_p = sum_{k != p} 1 / (x_p - x_k).
    """
    r = np.asarray(r, dtype=float)
    n = r.size
    if n < 5:
        raise DomainError("grid too short for a 5-point stencil")
    rows = np.arange(n)
    offsets = (np.clip(rows, 2, n - 3)[:, None] + np.arange(-2, 3)).astype(np.intp)
    p = rows - offsets[:, 0]
    x = r[offsets.T]  # x[k]: the node in slot k of every row
    d = r - x  # x_p - x_k
    d[p, rows] = 1.0  # drops k = p from the products below
    weights = np.empty((n, 5))
    for j in range(5):  # the slot-p entries are replaced below
        num = den = 1.0
        for k in range(5):
            if k != j:
                num = num * d[k]
                den = den * (x[j] - x[k])
        weights[:, j] = num / den
    inv = 1.0 / d
    inv[p, rows] = 0.0
    weights[rows, p] = np.sum(inv, axis=0)
    return weights, offsets


def apply_derivative(table: tuple[np.ndarray, np.ndarray], f: np.ndarray) -> np.ndarray:
    """Apply a derivative_weights table to samples f."""
    weights, offsets = table
    return np.sum(weights * np.asarray(f, dtype=float)[offsets], axis=1)


def expm_traceless_2x2(oa, ob, oc, out=None):
    """Scaled exponential of the traceless matrix [[oa, ob], [oc, -oa]].

    Returns (m11, m12, m21, m22, logscale) with

        exp([[oa, ob], [oc, -oa]]) = exp(logscale) * [[m11, m12], [m21, m22]].

    With q = oa^2 + ob oc and s = sqrt(|q|) it is ch + sh * matrix: for
    q > 0, ch = 1 + em1/2 and sh = -em1/(2s) with em1 = expm1(-2s), which are
    e^-s cosh s and e^-s sinh(s)/s, and logscale = s; for q <= 0, ch = cos s
    and sh = sin(s)/s (np.sinc, 1 at q = 0). Each element is evaluated by its
    own closed form only: the elements of each kind are gathered, computed
    and scattered back. The entries m* are O(1) even when the true
    exponential is astronomically large, which is what lets the propagator
    take long steps through classically forbidden regions without overflow.
    All inputs may be arrays of a common shape.

    With out, five arrays of that shape, the results are written there and
    only one more array of the shape is allocated; oa, ob and oc may be
    out[0], out[1] and out[2] themselves, which are then overwritten.
    """
    oa, ob, oc = (np.asarray(o, dtype=float) for o in (oa, ob, oc))
    if out is None:
        shape = np.broadcast_shapes(oa.shape, ob.shape, oc.shape)
        out = [np.empty(shape) for _ in range(5)]
    m11, m12, m21, m22, s = out
    np.multiply(oa, oa, out=s)       # q, then s, then the logscale
    s += np.multiply(ob, oc, out=m22)
    hyp = s > 0
    np.sqrt(np.abs(s, out=s), out=s)
    ch, sh = m22, np.empty_like(s)
    sk = s[hyp]
    em1 = np.expm1(-2.0 * sk)
    sh[hyp] = np.divide(-0.5 * em1, sk, out=sk)
    em1 *= 0.5
    ch[hyp] = np.add(1.0, em1, out=em1)
    trig = ~hyp
    sk = s[trig]
    ch[trig] = np.cos(sk)
    sh[trig] = np.sinc(sk / np.pi)
    s[trig] = 0.0
    np.multiply(sh, ob, out=m12)
    np.multiply(sh, oc, out=m21)
    t = np.multiply(sh, oa, out=sh)
    np.add(ch, t, out=m11)
    np.subtract(ch, t, out=m22)
    return m11, m12, m21, m22, s

"""Batched propagation engine for the coupled first-order radial system.

The radial equations are linear in (psi1, psi2), so a whole batch of energies
(and of potential-family variants) is advanced through the same radial step
sequence with vectorized numpy arithmetic. Each step applies a 4th-order
Magnus propagator (two-point Gauss quadrature of the coefficient matrix plus
its commutator correction), evaluated in closed form through the traceless
2x2 exponential. The step matrices do not depend on each other, so all of
them are formed in one vectorized pass; only their ordered product is
sequential, and since it is associative it is evaluated as a blocked prefix
scan rather than one step at a time. Propagator entries, partial products
and node states are kept max-normalized with their scales carried as
logarithms, so traversing hundreds of exponential e-folds is overflow-free.

Radial steps are parametrized either in x = ln r ("log", used for d > 1,
where the 1/r channel term becomes a constant and the origin power-law layer
costs a handful of steps) or in x = r ("lin", used on the d = 1 half-line).

Nothing in this module knows about eigenvalue search policy; it provides
match values, batched bisection, and recorded two-sided sweeps that the
solver layer assembles into bound states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .numerics import expm_traceless_2x2

_SQRT3 = np.sqrt(3.0)
_TINY = 1e-300
_SCAN_ELEMENTS = 1 << 17  # step x batch entries formed at once by the numpy scan


# ---------------------------------------------------------------------------
# step tables
# ---------------------------------------------------------------------------

@dataclass
class StepTable:
    """Precomputed per-step data for one radial grid and a family batch.

    r_nodes has S+1 entries; step i advances from r_nodes[i] to r_nodes[i+1].
    w[i, g, f] = (dr/dx at gauss node g) * V_f(r at gauss node g), the only
    family-dependent ingredient of the coefficient matrix.
    """

    k: float
    m: float
    r_nodes: np.ndarray     # (S+1,)
    h: np.ndarray           # (S,)
    rmul: np.ndarray        # (S, 2) dr/dx at the two gauss nodes
    w: np.ndarray           # (S, 2, F)
    i_match: int

    @property
    def n_steps(self) -> int:
        return self.h.size


def march_nodes(x_lo: float, x_hi: float, h_of_x, x_breaks=()) -> np.ndarray:
    """Step-size-controlled node positions covering [x_lo, x_hi].

    h_of_x(x) proposes a local step; nodes are marched and then each segment
    between consecutive break points (always including the endpoints) is
    rescaled so breaks land exactly on nodes.
    """
    breaks = sorted({float(x_lo), float(x_hi), *map(float, x_breaks)})
    nodes = [breaks[0]]
    for left, right in zip(breaks[:-1], breaks[1:]):
        xs = [left]
        x = left
        while x < right:
            x = x + max(h_of_x(x), 1e-12)
            xs.append(min(x, right))
        # rescale interior spacing so the segment end is hit exactly
        xs = np.asarray(xs)
        if xs.size > 2 and xs[-1] - xs[-2] < 0.25 * (xs[-2] - xs[-3]):
            xs = np.delete(xs, -2)  # avoid a sliver step at the end
        span = right - left
        rel = (xs - left) / (xs[-1] - left)
        nodes.extend((left + rel[1:] * span).tolist())
    return np.asarray(nodes)


def uniform_nodes(x_lo: float, x_hi: float, n_total: int, x_breaks=()) -> np.ndarray:
    """Piecewise-uniform nodes with n_total points, breaks landing on nodes."""
    breaks = sorted({float(x_lo), float(x_hi), *map(float, x_breaks)})
    span = breaks[-1] - breaks[0]
    nodes = [breaks[0]]
    remaining = n_total - 1
    for seg, (left, right) in enumerate(zip(breaks[:-1], breaks[1:])):
        if seg == len(breaks) - 2:
            n_seg = remaining
        else:
            n_seg = max(2, round((n_total - 1) * (right - left) / span))
            remaining -= n_seg
        nodes.extend(np.linspace(left, right, n_seg + 1)[1:].tolist())
    return np.asarray(nodes)


def build_step_table(param: str, k: float, m: float, families,
                     x_nodes: np.ndarray, i_match: int) -> StepTable:
    """Evaluate the family potentials at the Gauss nodes of every step."""
    x_nodes = np.asarray(x_nodes, dtype=float)
    if np.any(np.diff(x_nodes) <= 0):
        raise ValueError("step nodes must be strictly increasing")
    if param == "log":
        r_nodes = np.exp(x_nodes)
    elif param == "lin":
        r_nodes = x_nodes
        if k != 0.0:
            raise ValueError("linear parametrization requires k = 0")
    else:
        raise ValueError(f"unknown parametrization {param!r}")

    h = np.diff(x_nodes)
    off = h * (0.5 / _SQRT3)
    xc = 0.5 * (x_nodes[:-1] + x_nodes[1:])
    xg = np.stack([xc - off, xc + off], axis=1)      # (S, 2)
    if param == "log":
        rg = np.exp(xg)
        rmul = rg
    else:
        rg = xg
        rmul = np.ones_like(rg)

    w = np.empty((h.size, 2, len(families)))
    flat = rg.reshape(-1)
    for f, fam in enumerate(families):
        w[:, :, f] = (rmul * fam.evaluate(flat).reshape(rg.shape))
    return StepTable(k=float(k), m=float(m), r_nodes=r_nodes, h=h, rmul=rmul,
                     w=w, i_match=int(i_match))


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _step_omega(table: StepTable, steps, fam_idx, em, me):
    """Magnus matrix entries (oa, ob, oc) for the given steps and batch energies.

    steps is an index array of length S; em = E + m and me = m - E have the
    batch shape. fam_idx maps batch elements to table families, or is None
    for the (F, nE) scan layout, where each family's potential is broadcast
    over its row of energies. Returns arrays of shape (S, *batch).
    """
    pad = (1,) * em.ndim

    def per_step(a):
        return a.reshape(a.shape + pad)

    h = per_step(table.h[steps])
    r1 = per_step(table.rmul[steps, 0])
    r2 = per_step(table.rmul[steps, 1])
    w = table.w[steps]                              # (S, 2, F)
    if fam_idx is None:
        w1, w2 = w[:, 0, :, None], w[:, 1, :, None]
    else:
        w1, w2 = w[:, 0][:, fam_idx], w[:, 1][:, fam_idx]
    b1 = r1 * em - w1
    b2 = r2 * em - w2
    c1 = w1 + r1 * me
    c2 = w2 + r2 * me
    cc = _SQRT3 * h * h / 12.0
    k = table.k
    oa = (-k) * h - cc * (b1 * c2 - b2 * c1)
    ob = 0.5 * h * (b1 + b2) + cc * (2.0 * k) * (b2 - b1)
    oc = 0.5 * h * (c1 + c2) + cc * (2.0 * k) * (c1 - c2)
    return oa, ob, oc


def _wrap_pi(x):
    """Map angles to [-pi, pi)."""
    return (x + np.pi) % (2.0 * np.pi) - np.pi


def propagate(table: StepTable, fam_idx, E, y0, i_from: int, i_to: int,
              record: bool = False, phase: bool = False):
    """Advance y0 from node i_from to node i_to (either direction).

    E is the batch of energies; fam_idx maps batch elements to table families
    (None means the (F, nE) scan layout). The state is renormalized after
    every step. With record=True, returns the per-node history and the
    accumulated log-magnitudes needed to undo the renormalization.

    With phase=True, additionally tracks the continuous polar angle
    theta = atan2(psi2, psi1) of the solution direction along the traversal.
    For attractive potentials the coefficient of psi2 in psi1' is positive
    throughout the gap, so the direction crosses the psi1 = 0 axis only
    clockwise along increasing r (counter-clockwise along the inward
    traversal); each step rotates by less than pi beyond its axis crossings,
    which makes the per-step unwrapping exact. This angle is what eigenvalue
    counting is built on.

    The steps are evaluated as a step-parallel scan: the step matrices of a
    whole segment of steps at once, then a blocked prefix scan for its node
    states (see _scan_states). Segments hold at most _SCAN_ELEMENTS
    step-batch pairs, which bounds the memory of very large batches; they are
    taken in traversal order, each starting from the last state of the one
    before. The test suite checks the scan against a sequential step-by-step
    reference (tests/reference_propagator.py).
    """
    if record and phase:
        raise ValueError("record and phase modes are mutually exclusive")
    E = np.asarray(E, dtype=float)
    outward = i_to >= i_from
    steps = (np.arange(i_from, i_to) if outward
             else np.arange(i_from - 1, i_to - 1, -1))
    em, me = E + table.m, table.m - E
    y1 = np.array(np.broadcast_to(y0[0], E.shape), dtype=float)
    y2 = np.array(np.broadcast_to(y0[1], E.shape), dtype=float)
    log0 = np.zeros(E.shape)
    history = [(y1[None], y2[None], log0[None])]
    th_cont = np.arctan2(y2, y1)
    per_segment = max(1, _SCAN_ELEMENTS // max(E.size, 1))

    for start in range(0, steps.size, per_segment):
        seg = steps[start:start + per_segment]
        oa, ob, oc = _step_omega(table, seg, fam_idx, em, me)
        if not outward:
            oa, ob, oc = -oa, -ob, -oc
        if phase:
            _check_rotation(seg, oa, ob, oc)
        *mat, logf = expm_traceless_2x2(oa, ob, oc)
        Y1, Y2, L = _scan_states(mat, logf, y1, y2)
        if phase:
            th_cont = _unwrap(th_cont, Y1, Y2, outward)
        if record:
            history.append((Y1[1:], Y2[1:], log0 + L[1:]))
        y1, y2, log0 = Y1[-1], Y2[-1], log0 + L[-1]

    if record:
        rec1, rec2, logs = (np.concatenate(h) for h in zip(*history))
        if not outward:
            rec1, rec2, logs = rec1[::-1], rec2[::-1], logs[::-1]
        return (y1, y2), rec1, rec2, logs
    if phase:
        return (y1, y2), th_cont
    return y1, y2


def _check_rotation(steps, oa, ob, oc):
    """Refuse the first step, in traversal order, that rotates some batch
    element too far for the crossing-based phase unwrapping."""
    wosc = np.max(-(oa * oa + ob * oc), axis=tuple(range(1, oa.ndim)),
                  initial=-np.inf)
    bad = np.nonzero(wosc > 8.7)[0]  # 2.95^2: a step rotated too far to unwrap
    if bad.size:
        j = bad[0]
        raise NumericalError(
            f"step {steps[j]} rotates the solution too fast for phase "
            f"tracking (w^2 = {wosc[j]:.3f}); the step rule is too coarse"
        )


def _unwrap(th_cont, Y1, Y2, outward):
    """Continue the continuous polar angle th_cont (at node 0) along the node
    states (Y1, Y2), accumulating the per-step increments in traversal order.

    The direction crosses psi1 = 0 only one way (clockwise outward), so a
    sign change of psi1 across a step pins its rotation to that side.
    """
    th = np.arctan2(Y2, Y1)
    corr = np.where(Y1[:-1] * Y1[1:] < 0.0, np.pi if outward else -np.pi, 0.0)
    dth = _wrap_pi(th[1:] - th[:-1] + corr) - corr
    return np.cumsum(np.concatenate([th_cont[None], dth]), axis=0)[-1]


def _scan_states(mat, logf, y1, y2):
    """Node states of y_{j+1} = M_j y_j for all j, by a two-level blocked scan.

    mat = (m11, m12, m21, m22) and logf hold the scaled step matrices,
    M_j = exp(logf[j]) * [[m11[j], m12[j]], [m21[j], m22[j]]], each of shape
    (S, *batch). Returns (Y1, Y2, L) of shape (S+1, *batch): node j is
    exp(L[j]) * (Y1[j], Y2[j]), with (Y1[0], Y2[0]) = (y1, y2), L[0] = 0, and
    every later node max-normalized.

    The S steps are cut into about sqrt(S) blocks of about sqrt(S) steps:
    (1) inclusive prefix products inside every block, all blocks at once;
    (2) the state at each block start, one block total after another;
    (3) every node as its in-block prefix applied to its block-start state.
    Products and states are max-normalized as they are formed, with the
    dropped scale carried in log form, (A, la)(B, lb) = (AB/|AB|,
    la + lb + log|AB|), so no range of growth or decay overflows. The work is
    O(S * batch) in about 2 sqrt(S) sequential rounds of batched arithmetic,
    and the association order depends only on S, so repeated runs are
    bitwise reproducible.
    """
    n_steps = logf.shape[0]
    bs = math.isqrt(max(n_steps - 1, 0)) + 1   # ceil(sqrt(S)), at least 1
    nb = -(-n_steps // bs)
    fill = nb * bs - n_steps
    batch = logf.shape[1:]

    def blocked(a, pad_value):
        pad = np.full((fill, *batch), pad_value)
        return np.concatenate([a, pad]).reshape(nb, bs, *batch)

    a11, a12, a21, a22 = (blocked(a, v) for a, v in zip(mat, (1.0, 0.0, 0.0, 1.0)))
    la = blocked(logf, 0.0)

    # (1) in-block prefix products P[:, t] = M[:, t] ... M[:, 0]
    p11, p12, p21, p22, lp = (np.empty_like(a11) for _ in range(5))
    p11[:, 0], p12[:, 0], p21[:, 0], p22[:, 0] = a11[:, 0], a12[:, 0], a21[:, 0], a22[:, 0]
    lp[:, 0] = la[:, 0]
    for t in range(1, bs):
        n11 = a11[:, t] * p11[:, t - 1] + a12[:, t] * p21[:, t - 1]
        n12 = a11[:, t] * p12[:, t - 1] + a12[:, t] * p22[:, t - 1]
        n21 = a21[:, t] * p11[:, t - 1] + a22[:, t] * p21[:, t - 1]
        n22 = a21[:, t] * p12[:, t - 1] + a22[:, t] * p22[:, t - 1]
        nrm = np.maximum(np.maximum(np.abs(n11), np.abs(n12)),
                         np.maximum(np.abs(n21), np.abs(n22)))
        nrm = np.maximum(nrm, _TINY)
        p11[:, t], p12[:, t], p21[:, t], p22[:, t] = n11 / nrm, n12 / nrm, n21 / nrm, n22 / nrm
        lp[:, t] = lp[:, t - 1] + la[:, t] + np.log(nrm)

    # (2) block-start states s[b] = P[b - 1, -1] s[b - 1]
    s1 = np.empty((nb + 1, *batch))
    s2 = np.empty((nb + 1, *batch))
    ls = np.empty((nb + 1, *batch))
    s1[0], s2[0], ls[0] = y1, y2, 0.0
    for b in range(nb):
        t1 = p11[b, -1] * s1[b] + p12[b, -1] * s2[b]
        t2 = p21[b, -1] * s1[b] + p22[b, -1] * s2[b]
        nrm = np.maximum(np.maximum(np.abs(t1), np.abs(t2)), _TINY)
        s1[b + 1], s2[b + 1] = t1 / nrm, t2 / nrm
        ls[b + 1] = ls[b] + lp[b, -1] + np.log(nrm)

    # (3) node states inside each block
    z1 = p11 * s1[:-1, None] + p12 * s2[:-1, None]
    z2 = p21 * s1[:-1, None] + p22 * s2[:-1, None]
    nrm = np.maximum(np.maximum(np.abs(z1), np.abs(z2)), _TINY)
    lz = ls[:-1, None] + lp + np.log(nrm)

    def nodes(start, inner):
        return np.concatenate([start[None], inner.reshape(nb * bs, *batch)[:n_steps]])

    return nodes(y1, z1 / nrm), nodes(y2, z2 / nrm), nodes(np.zeros(batch), lz)


def match_values(table: StepTable, fam_idx, E, seed_origin, seed_tail,
                 phase: bool = False):
    """Scale-invariant mismatch of the two-sided shooting at the match node.

    seed_origin/seed_tail are callables (E, fam_idx) -> (y1, y2) producing
    start values for the energy batch. The mismatch is the cross product of
    the two unit directions, so it lies in [-2, 2] and vanishes exactly at
    eigenvalues.

    With phase=True also returns the matching angle
    theta_out(r_match) - theta_in(r_match), continuous and strictly
    decreasing in E; it passes a multiple of pi exactly at each eigenvalue,
    which is what makes eigenvalue indexing alias-free.
    """
    y0 = seed_origin(E, fam_idx)
    yt = seed_tail(E, fam_idx)
    if phase:
        (o1, o2), th_out = propagate(table, fam_idx, E, y0, 0, table.i_match,
                                     phase=True)
        (t1, t2), th_in = propagate(table, fam_idx, E, yt, table.n_steps,
                                    table.i_match, phase=True)
    else:
        o1, o2 = propagate(table, fam_idx, E, y0, 0, table.i_match)
        t1, t2 = propagate(table, fam_idx, E, yt, table.n_steps, table.i_match)
    no = np.sqrt(o1 * o1 + o2 * o2)
    ni = np.sqrt(t1 * t1 + t2 * t2)
    mval = (o1 * t2 - o2 * t1) / np.maximum(no * ni, _TINY)
    if phase:
        return mval, th_out - th_in
    return mval


def count_below(dtheta, dtheta_bottom):
    """Number of eigenvalues between the reference energy and E.

    dtheta is the matching angle at E, dtheta_bottom at the bottom reference
    energy; the count is the number of pi-multiples the (monotone) matching
    angle crossed in between.
    """
    return (np.floor(dtheta_bottom / np.pi) - np.floor(dtheta / np.pi)).astype(int)


def count_bisect(table: StepTable, fam_idx, lo, hi, targets, dtheta_bottom,
                 tol: float, seed_origin, seed_tail, max_iter: int = 200):
    """Locate the eigenvalue of index targets[b] within the bracket [lo, hi].

    Preconditions (checked by the caller): count(lo) <= target and
    count(hi) >= target + 1. The eigenvalue is the unique point in the
    bracket where the matching angle crosses K*pi with
    K = floor(dtheta_bottom/pi) - target; since the angle is smooth and
    strictly decreasing, the bracket is narrowed by regula falsi with the
    Illinois weighting, falling back to plain midpoints whenever the bracket
    is slow to shrink. The bracket is maintained at every iteration, so the
    search is as safe as pure bisection. Returns (E, |M|, final width).
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    targets = np.asarray(targets)
    k_pi = (np.floor(dtheta_bottom / np.pi) - targets) * np.pi

    def g_at(e):
        m_val, dth = match_values(table, fam_idx, e, seed_origin, seed_tail,
                                  phase=True)
        return m_val, dth - k_pi

    _, g_lo = g_at(lo)
    _, g_hi = g_at(hi)
    m_mid = np.zeros_like(lo)
    stale_lo = np.zeros(lo.shape, dtype=int)
    stale_hi = np.zeros(lo.shape, dtype=int)
    for it in range(max_iter):
        width = hi - lo
        if float(np.max(width)) <= tol:
            break
        denom = g_lo - g_hi
        frac = np.where(np.abs(denom) > 0, g_lo / np.where(denom == 0, 1.0, denom), 0.5)
        mid = lo + np.clip(frac, 0.12, 0.88) * width
        if it % 4 == 3:  # periodic plain bisection keeps worst-case logarithmic
            mid = 0.5 * (lo + hi)
        m_mid, g_mid = g_at(mid)
        up = g_mid > 0  # still above the target multiple: move lo
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
        # Illinois weighting: halve the retained endpoint value when the same
        # side survives twice, which forces the secant to cross over
        stale_hi = np.where(up, stale_hi + 1, 0)
        stale_lo = np.where(up, 0, stale_lo + 1)
        g_lo = np.where(up, g_mid, np.where(stale_lo >= 2, 0.5 * g_lo, g_lo))
        g_hi = np.where(up, np.where(stale_hi >= 2, 0.5 * g_hi, g_hi), g_mid)
    return 0.5 * (lo + hi), np.abs(m_mid), hi - lo


def assemble_two_sided(table: StepTable, fam_idx, E, seed_origin, seed_tail):
    """Recorded two-sided sweep joined at the match node.

    Returns (psi1, psi2) with shape (S+1, batch) in a common (arbitrary)
    normalization: the outward piece is kept below the match node, the inward
    piece above it, scaled by the projection of the outward vector on the
    inward direction so both sides agree at the match node when E is an
    eigenvalue. Magnitudes are reconstructed from the renormalization logs;
    amplitudes more than ~700 e-folds below the match point flush to zero.
    """
    im = table.i_match
    y0 = seed_origin(E, fam_idx)
    (_, _), o1, o2, lo = propagate(table, fam_idx, E, y0, 0, im, record=True)
    yt = seed_tail(E, fam_idx)
    (_, _), t1, t2, lt = propagate(table, fam_idx, E, yt, table.n_steps, im, record=True)

    # outward piece, gauged so its match-node value has log-magnitude 0
    ref_o = lo[-1]
    psi1_out = o1 * np.exp(lo - ref_o)
    psi2_out = o2 * np.exp(lo - ref_o)

    # inward piece scaled onto the outward direction at the match node
    a1, a2 = o1[-1], o2[-1]
    b1, b2 = t1[0], t2[0]
    proj = (a1 * b1 + a2 * b2) / np.maximum(b1 * b1 + b2 * b2, _TINY)
    ref_t = lt[0]
    scale = np.exp(lt - ref_t)
    psi1_in = t1 * scale * proj
    psi2_in = t2 * scale * proj

    psi1 = np.concatenate([psi1_out, psi1_in[1:]], axis=0)
    psi2 = np.concatenate([psi2_out, psi2_in[1:]], axis=0)
    return psi1, psi2


def count_sign_changes(values: np.ndarray, dead_band_rel: float = 1e-12) -> int:
    """Strict sign changes of a sampled function, ignoring a relative dead band."""
    v = np.asarray(values, dtype=float)
    peak = np.max(np.abs(v))
    if peak == 0.0:
        return 0
    live = v[np.abs(v) > dead_band_rel * peak]
    if live.size < 2:
        return 0
    s = np.sign(live)
    return int(np.sum(s[1:] * s[:-1] < 0))

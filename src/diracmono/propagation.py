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

Every phase traversal also returns the E-slope of its angle. The derivative
of the coefficient matrix with respect to E is [[0, 1], [-1, 0]], so
W = psi1 dpsi2/dE - psi2 dpsi1/dE obeys W' = -(psi1^2 + psi2^2) and
dtheta/dE = W / |y|^2: each leg's slope is the integral of |y|^2 along it
over |y|^2 at its end, a quadrature over the node states and log scales the
scan forms anyway. The matching angle is therefore strictly decreasing with
a known slope, which count_bisect uses for Newton steps inside its
count-verified bracket.

Nothing in this module knows about eigenvalue search policy; it provides
match values, an index-counted bracket search (count_bisect), and recorded
two-sided sweeps that the solver layer assembles into bound states.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalError
from .numerics import expm_traceless_2x2

_SQRT3 = np.sqrt(3.0)
_TINY = 1e-300
_SCAN_ELEMENTS = 1 << 16  # step x batch entries formed at once by the numpy scan
_MAX_ITER = 200  # count_bisect iterations at most, a backstop behind its pace rule

_log = logging.getLogger("diracmono")


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
    _norm: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_steps(self) -> int:
        return self.h.size

    def norm_weights(self, i_from: int, i_to: int) -> np.ndarray:
        """_norm_weights of the traversal, formed once per table and leg."""
        if (i_from, i_to) not in self._norm:
            self._norm[i_from, i_to] = _norm_weights(self, i_from, i_to)
        return self._norm[i_from, i_to]


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
        raise DomainError("step nodes must be strictly increasing")
    if param == "log":
        r_nodes = np.exp(x_nodes)
    elif param == "lin":
        r_nodes = x_nodes
        if k != 0.0:
            raise DomainError("linear parametrization requires k = 0")
    else:
        raise DomainError(f"unknown parametrization {param!r}")

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
              record: bool = False, phase: bool = False, beyond=0.0):
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
    counting is built on. Phase mode returns ((y1, y2), theta, slope), with
    slope = dtheta/dE at the end node: -I/|y_end|^2 outward and
    +I/|y_end|^2 inward. I is the integral of |y|^2 dr over the traversal
    (_norm_weights, on the node states), carried across segments in log
    form like log0, plus beyond: the integral of |y|^2 on the far side of
    the start, in the units of y0, for start values that continue an exact
    solution there. It accounts for their own E-dependence: the tail seed's
    free decaying solution turns at dtheta/dE = 1/(2 lambda), which is
    beyond = |y0|^2 / (2 lambda). With beyond = 0 the slope is that of y0
    held fixed.

    The steps are evaluated as a step-parallel scan: the step matrices of a
    whole segment of steps at once, then a blocked prefix scan for its node
    states (see _scan_states). Segments hold at most _SCAN_ELEMENTS
    step-batch pairs, which bounds the memory of very large batches; they are
    taken in traversal order, each starting from the last state of the one
    before. The test suite checks the scan against a sequential step-by-step
    reference (tests/reference_propagator.py).
    """
    if record and phase:
        raise ConfigurationError("record and phase modes are mutually exclusive")
    E = np.asarray(E, dtype=float)
    outward = i_to >= i_from
    steps = (np.arange(i_from, i_to) if outward
             else np.arange(i_from - 1, i_to - 1, -1))
    em, me = E + table.m, table.m - E
    y1 = np.array(np.broadcast_to(y0[0], E.shape), dtype=float)
    y2 = np.array(np.broadcast_to(y0[1], E.shape), dtype=float)
    log0 = np.zeros(E.shape)
    if phase:
        quad = table.norm_weights(i_from, i_to)
        # log of the integral of |y|^2 so far: beyond the start plus node 0
        log_int = np.log(beyond + quad[0, 0] * y1 * y1 + quad[1, 0] * y2 * y2
                         + quad[2, 0] * y1 * y2)
    history = [(y1[None], y2[None], log0[None])]
    th_cont = np.arctan2(y2, y1)
    per_segment = max(1, _SCAN_ELEMENTS // max(E.size, 1))

    for start in range(0, steps.size, per_segment):
        seg = steps[start:start + per_segment]
        mats = _step_matrices(table, seg, fam_idx, em, me, outward, phase)
        if phase:
            Y1, Y2, L, log_seg = _scan_states(mats, y1, y2,
                                              quad[:, start + 1:start + 1 + seg.size])
            th_cont = _unwrap(th_cont, Y1, Y2, outward)
            log_int = np.logaddexp(log_int, 2.0 * log0 + log_seg)
        else:
            Y1, Y2, L = _scan_states(mats, y1, y2)
        if record:
            history.append((Y1[1:], Y2[1:], log0 + L[1:]))
        y1, y2, log0 = Y1[-1], Y2[-1], log0 + L[-1]

    if record:
        rec1, rec2, logs = (np.concatenate(h) for h in zip(*history))
        if not outward:
            rec1, rec2, logs = rec1[::-1], rec2[::-1], logs[::-1]
        return (y1, y2), rec1, rec2, logs
    if phase:
        slope = np.exp(log_int - 2.0 * log0) / (y1 * y1 + y2 * y2)
        return (y1, y2), th_cont, (-slope if outward else slope)
    return y1, y2


def _step_matrices(table: StepTable, steps, fam_idx, em, me, outward: bool,
                   check: bool):
    """[m11, m12, m21, m22, logf] of the given steps in traversal order (see
    expm_traceless_2x2), refusing with check a step that rotates too far for
    phase unwrapping. The Magnus entries die on return, so they are not held
    while the scan runs."""
    oa, ob, oc = _step_omega(table, steps, fam_idx, em, me)
    if not outward:
        oa, ob, oc = -oa, -ob, -oc
    if check:
        _check_rotation(steps, oa, ob, oc)
    return list(expm_traceless_2x2(oa, ob, oc))


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


def _scan_states(mats, y1, y2, quad=None):
    """Node states of y_{j+1} = M_j y_j for all j, by a two-level blocked scan.

    mats = [m11, m12, m21, m22, logf] holds the scaled step matrices,
    M_j = exp(logf[j]) * [[m11[j], m12[j]], [m21[j], m22[j]]], each of shape
    (S, *batch); the list is emptied once its arrays are blocked, and every
    segment-sized array is dropped as soon as its phase is done. Returns (Y1, Y2, L) of shape (S+1, *batch): node j is
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

    Given quad = (wa, wb, wc), weights of shape (S,) for nodes 1..S, also
    returns log I as a fourth value, I = sum_j exp(2 L[j]) (wa Y1[j]^2 +
    wb Y2[j]^2 + wc Y1[j] Y2[j]) over those nodes (see _norm_weights). It is
    formed in the buffers of phase (1), which phase (3) leaves dead, so it
    costs no segment-sized array.
    """
    n_steps = mats[4].shape[0]
    bs = math.isqrt(max(n_steps - 1, 0)) + 1   # ceil(sqrt(S)), at least 1
    nb = -(-n_steps // bs)
    fill = nb * bs - n_steps
    batch = mats[4].shape[1:]

    def blocked(a, pad_value):
        if fill:
            a = np.concatenate([a, np.full((fill, *batch), pad_value)])
        return a.reshape(nb, bs, *batch)

    a11, a12, a21, a22, la = (blocked(a, v) for a, v in zip(mats, (1.0, 0.0, 0.0, 1.0, 0.0)))
    mats.clear()

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
    del a11, a12, a21, a22, la

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
    del p21, p22
    nrm = np.maximum(np.maximum(np.abs(z1), np.abs(z2)), _TINY)
    lz = ls[:-1, None] + lp + np.log(nrm)
    del lp
    z1 /= nrm
    z2 /= nrm
    del nrm

    log_int = ()
    if quad is not None:
        wa, wb, wc = np.concatenate([quad, np.zeros((3, fill))], axis=1).reshape(
            3, nb, bs, *(1,) * len(batch))
        # exp(2 (L - ref)) (wa Y1^2 + wb Y2^2 + wc Y1 Y2) in the dead buffers
        # of phase (1), with ref the largest log scale of the segment, so
        # nothing overflows
        ref = lz.max(axis=(0, 1))
        q, t = p11, p12
        np.multiply(z1, z1, out=q)
        q *= wa
        np.multiply(z2, z2, out=t)
        t *= wb
        q += t
        np.multiply(z1, z2, out=t)
        t *= wc
        q += t
        np.subtract(lz, ref, out=t)
        t *= 2.0
        np.exp(t, out=t)
        q *= t
        log_int = (np.log(q.sum(axis=(0, 1))) + 2.0 * ref,)
        del q, t
    del p11, p12

    def nodes(start, inner):
        return np.concatenate([start[None], inner.reshape(nb * bs, *batch)[:n_steps]])

    return nodes(y1, z1), nodes(y2, z2), nodes(np.zeros(batch), lz), *log_int


def _norm_weights(table: StepTable, i_from: int, i_to: int):
    """Node weights, shape (3, S+1), of the integral of |y|^2 dr over the
    traversal from node i_from to node i_to: the integral is
    sum_n wa_n y1_n^2 + wb_n y2_n^2 + wc_n y1_n y2_n over its nodes in
    traversal order.

    The rule takes f = |y|^2 and its derivative at the nodes, three nodes
    (two steps) at a time, and is exact for f of degree 5 on any two step
    lengths a, b. Its middle weight turns negative for b/a outside
    [0.38, 2.62], so a pair with b/a outside [1/2, 2] (the sliver step the
    node march may leave at r_max) and a last odd step take the two-node
    rule dr/2 (f_0 + f_1) + dr^2/12 (f'_0 - f'_1) instead (degree 3). The
    radial equations give f' = 2 (2m y1 y2 + (k/r)(y2^2 - y1^2)) in closed
    form, free of V.
    """
    lo, hi = min(i_from, i_to), max(i_from, i_to)
    r = table.r_nodes[lo:hi + 1]
    if i_to < i_from:
        r = r[::-1]
    dr = np.abs(np.diff(r))
    c = np.zeros(r.size)    # weights of f
    d = np.zeros(r.size)    # weights of df/ds along the traversal
    a, b = dr[0:-1:2], dr[1::2]
    pair = (b <= 2.0 * a) & (a <= 2.0 * b)
    ab = a + b
    n0, n1 = np.arange(0, 2 * a.size, 2), np.arange(1, 2 * a.size, 2)
    c[n0] += np.where(pair, ab * (10 * a**3 - 5 * a * a * b + a * b * b + b**3)
                      / (30 * a**3), 0.5 * a)
    c[n1] += np.where(pair, -ab**5 * (a * a - 3 * a * b + b * b) / (30 * a**3 * b**3),
                      0.5 * ab)
    c[n1 + 1] += np.where(pair, ab * (a**3 + a * a * b - 5 * a * b * b + 10 * b**3)
                          / (30 * b**3), 0.5 * b)
    d[n0] += np.where(pair, ab * ab * (2 * a * a - 2 * a * b + b * b) / (60 * a * a),
                      a * a / 12)
    d[n1] += np.where(pair, (b - a) * ab**5 / (60 * a * a * b * b), (b * b - a * a) / 12)
    d[n1 + 1] -= np.where(pair, ab * ab * (a * a - 2 * a * b + 2 * b * b) / (60 * b * b),
                          b * b / 12)
    if dr.size % 2:
        h = dr[-1]
        c[-2:] += 0.5 * h
        d[-2:] += (h * h / 12, -h * h / 12)
    if i_to < i_from:
        d = -d                                  # df/ds = -df/dr inward
    d2 = 2.0 * d
    dk = d2 * (table.k / r) if table.k else 0.0  # k = 0 on the lin grid, r from 0
    return np.stack([c - dk, c + dk, 2.0 * table.m * d2])


def match_values(table: StepTable, fam_idx, E, seed_origin, seed_tail,
                 phase: bool = False):
    """Scale-invariant mismatch of the two-sided shooting at the match node.

    seed_origin/seed_tail are callables (E, fam_idx) -> (y1, y2) producing
    start values for the energy batch. The mismatch is the cross product of
    the two unit directions, so it lies in [-2, 2] and vanishes exactly at
    eigenvalues.

    With phase=True returns (mval, dtheta, dtheta_dE): the matching angle
    theta_out(r_match) - theta_in(r_match), continuous and strictly
    decreasing in E, passes a multiple of pi exactly at each eigenvalue,
    which is what makes eigenvalue indexing alias-free; its slope is
    -I_out/|y_out(r_match)|^2 - I_in/|y_in(r_match)|^2, with I_out the
    integral of |y_out|^2 from the origin seed to r_match and I_in that of
    |y_in|^2 from r_match to infinity (the tail seed's decaying solution
    beyond r_max in closed form).
    """
    y0 = seed_origin(E, fam_idx)
    yt = seed_tail(E, fam_idx)
    if phase:
        (o1, o2), th_out, s_out = propagate(table, fam_idx, E, y0, 0,
                                            table.i_match, phase=True)
        # the tail seed continues the free decaying solution beyond r_max
        lam = np.sqrt((table.m - E) * (table.m + E))
        (t1, t2), th_in, s_in = propagate(
            table, fam_idx, E, yt, table.n_steps, table.i_match, phase=True,
            beyond=(yt[0] * yt[0] + yt[1] * yt[1]) / (2.0 * lam))
    else:
        o1, o2 = propagate(table, fam_idx, E, y0, 0, table.i_match)
        t1, t2 = propagate(table, fam_idx, E, yt, table.n_steps, table.i_match)
    no = np.sqrt(o1 * o1 + o2 * o2)
    ni = np.sqrt(t1 * t1 + t2 * t2)
    mval = (o1 * t2 - o2 * t1) / np.maximum(no * ni, _TINY)
    if phase:
        return mval, th_out - th_in, s_out - s_in
    return mval


def count_below(dtheta, dtheta_bottom):
    """Number of eigenvalues between the reference energy and E.

    dtheta is the matching angle at E, dtheta_bottom at the bottom reference
    energy; the count is the number of pi-multiples the (monotone) matching
    angle crossed in between.
    """
    return (np.floor(dtheta_bottom / np.pi) - np.floor(dtheta / np.pi)).astype(int)


def count_bisect(table: StepTable, fam_idx, lo, hi, targets, dtheta_bottom,
                 tol: float, seed_origin, seed_tail, ends):
    """Locate the eigenvalue of index targets[b] within the bracket [lo, hi].

    Preconditions (checked by the caller): count(lo) <= target and
    count(hi) >= target + 1. The eigenvalue is the unique point in the
    bracket where the matching angle crosses K*pi with
    K = floor(dtheta_bottom/pi) - target. The angle is smooth and strictly
    decreasing, and every evaluation also gives its slope, so the bracket is
    narrowed on g = dtheta - K*pi by safeguarded Newton steps (Dekker-Brent,
    with the bracket midpoint as the safe step):

    - a Newton step starts from the bracket end nearer the root by its own
      estimate, the smaller |g/g'|, and is taken when it lands at least
      min(0.45 tol, width/4) inside the bracket (the end with the smaller |g|
      overshoots again and again where the slope varies fast, as near the
      jump of the angle at a level confined behind a barrier);
    - once the Newton correction is below res/2, the step goes 0.45 res past
      the root estimate, away from its end, so the point lands just across
      the root and the bracket closes below res, where res = max(tol, two
      float spacings of the end): a tol below the float resolution still
      closes in a few steps;
    - every other step is the bracket midpoint, as is every step of an
      element more than one step behind a pace of three steps per halving
      of its bracket, so no element takes more than 3 ceil(log2(w0/tol)) + 2
      steps, while fast Newton steps keep the lead they have built up.

    Every point replaces the end its eigenvalue count says, so
    count(lo) <= target < count(hi) holds at every iteration and the search
    is as safe as pure bisection. Each iteration propagates only the
    elements whose bracket is still wider than tol (and has a float inside
    it); the others are frozen. With the "diracmono" logger at DEBUG, every
    iteration in which some element steps by midpoint instead of Newton is
    logged.

    ends = ((m_lo, dtheta_lo, slope_lo), (m_hi, dtheta_hi, slope_hi)) are
    the match_values(..., phase=True) results at lo and at hi. Returns
    (E, |M|, final width, evaluations): the bracket midpoint; |M| at the
    element's last evaluated point, or the larger of the two end values when
    its bracket was already within tol; and the number of points the element
    evaluated.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    fam_idx = np.asarray(fam_idx)
    k = np.broadcast_to(np.floor(dtheta_bottom / np.pi) - np.asarray(targets),
                        lo.shape)
    k_pi = k * np.pi
    (m_lo, th_lo, d_lo), (m_hi, th_hi, d_hi) = ends
    g_lo, g_hi = th_lo - k_pi, th_hi - k_pi
    d_lo, d_hi = np.array(d_lo, dtype=float), np.array(d_hi, dtype=float)
    m_abs = np.maximum(np.abs(m_lo), np.abs(m_hi))
    w0 = hi - lo
    n_steps = np.zeros(lo.shape, dtype=int)
    for _ in range(_MAX_ITER):
        width = hi - lo
        half = lo + 0.5 * width
        act = np.nonzero((width > tol) & (lo < half) & (half < hi))[0]
        if act.size == 0:
            break
        a_lo, a_hi, w, gl, gh = lo[act], hi[act], width[act], g_lo[act], g_hi[act]
        margin = np.minimum(0.45 * tol, 0.25 * w)
        # Newton from the end nearer the root by |g/g'|, straddling it once
        # converged
        near_lo = np.abs(gl * d_hi[act]) <= np.abs(gh * d_lo[act])
        g_n = np.where(near_lo, gl, gh)
        d_n = np.where(near_lo, d_lo[act], d_hi[act])
        slope_ok = np.isfinite(d_n) & (d_n < 0.0)
        corr = -g_n / np.where(slope_ok, d_n, -1.0)
        start = np.where(near_lo, a_lo, a_hi)
        res = np.maximum(tol, 2.0 * np.abs(np.spacing(start)))
        x = start + corr
        x += np.where(np.abs(corr) < 0.5 * res, np.where(near_lo, 0.45, -0.45) * res, 0.0)
        # strictly inside too: with tol below the float spacing the margin
        # rounds away, and a point on an end would be evaluated again and again
        newton = (slope_ok & (a_lo < x) & (x < a_hi)
                  & (a_lo + margin <= x) & (x <= a_hi - margin))
        # otherwise the midpoint, and a midpoint too whenever the element has
        # fallen more than one step behind a pace of three steps per halving
        # of its bracket
        behind = n_steps[act] >= 3.0 * np.log2(w0[act] / w) + 1.0
        newton &= ~behind
        x = np.where(newton, x, half[act])
        if _log.isEnabledFor(logging.DEBUG) and not np.all(newton):
            _log.debug("count_bisect: %d of %d steps fell back from Newton to the "
                       "bracket midpoint, %d of them behind pace",
                       np.count_nonzero(~newton), act.size, np.count_nonzero(behind))
        n_steps[act] += 1
        m_x, th_x, d_x = match_values(table, fam_idx[act], x, seed_origin, seed_tail,
                                      phase=True)
        below = np.floor(th_x / np.pi) >= k[act]   # count(x) <= target
        lo[act] = np.where(below, x, a_lo)
        hi[act] = np.where(below, a_hi, x)
        g_x = th_x - k_pi[act]
        g_lo[act] = np.where(below, g_x, gl)
        g_hi[act] = np.where(below, gh, g_x)
        d_lo[act] = np.where(below, d_x, d_lo[act])
        d_hi[act] = np.where(below, d_hi[act], d_x)
        m_abs[act] = np.abs(m_x)
    return 0.5 * (lo + hi), m_abs, hi - lo, n_steps


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

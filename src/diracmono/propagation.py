"""Batched propagation engine for the coupled first-order radial system.

The radial equations are linear in (psi1, psi2), so a whole batch of energies
(and of potential-family variants) is advanced through the same radial step
sequence with vectorized numpy arithmetic. Each step applies a 6th-order
Magnus propagator (three-point Gauss quadrature of the coefficient matrix
plus nested commutator corrections, after Blanes, Casas & Ros 2000),
evaluated in closed form through the traceless 2x2 exponential. The step
matrices do not depend on each other, so all of them are formed in one
vectorized pass; only their ordered product is sequential, and since it is
associative it is evaluated as a blocked prefix scan rather than one step at
a time. A batch is flat: one axis of energies, each with the index of its
potential family. The outward and inward legs of a two-sided match are two
chains of one scan over all their steps; memory is bounded by cutting the
batch into pieces of columns instead, so no element's values depend on the
rest of its batch. Propagator entries, partial products and node states are
kept max-normalized with their scales carried as logarithms, so traversing
hundreds of exponential e-folds is overflow-free.

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

import functools
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalError
from .numerics import expm_traceless_2x2

_SQRT15 = np.sqrt(15.0)
_TINY = 1e-300
_SCAN_ELEMENTS = 1 << 16  # step x batch entries of one scan, unless one batch row has more
_STEP_ELEMENTS = 1 << 13  # step x batch entries of step matrices formed at once
_MAX_ITER = 200  # count_bisect iterations at most, a backstop behind its pace rule
_DEAD_BAND_REL = 1e-12  # count_sign_changes ignores |values| below this times the peak

_log = logging.getLogger("diracmono")


# ---------------------------------------------------------------------------
# step tables
# ---------------------------------------------------------------------------

@dataclass
class StepTable:
    """Precomputed per-step data for one radial grid and a family batch, or
    for a stack of such tables (see stack_tables).

    r_nodes has S+1 entries; step i advances from r_nodes[i] to r_nodes[i+1].
    The coefficient matrix enters a step only through its samples at the
    step's three Gauss nodes, kept as the weights of the Magnus step's
    alpha_1, alpha_2 and alpha_3 (_alpha_weights, _step_omega): rmul[i, j]
    those of dr/dx, and w[i, j, f] those of (dr/dx) V_f, the only
    family-dependent ingredient. All of them carry the step length h, so a
    zero-length step has zero weights. The last axis of r_nodes, h, rmul and
    the norm weights is a grid axis: family f steps on grid column grid[f]. A
    table on one grid has a single column, shared by every family.

    seed[f] holds family f's outward start values at node 0, affine in E
    (origin_values), so a stack carries those of its own families.
    """

    k: float
    m: float
    r_nodes: np.ndarray     # (S+1,), or (S+1, G) in a stack
    h: np.ndarray           # (S, G)
    rmul: np.ndarray        # (S, 3, G) alpha weights of dr/dx
    w: np.ndarray           # (S, 3, F) alpha weights of (dr/dx) V_f
    i_match: int
    grid: np.ndarray        # (F,) the grid column of each family
    seed: np.ndarray        # (F, 2, 2) outward start values, affine in E
    _norm: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_steps(self) -> int:
        return self.h.shape[0]

    def norm_weights(self, i_from: int, i_to: int) -> np.ndarray:
        """_norm_weights of the traversal with a grid axis, shape
        (3, |i_to - i_from| + 1, G), formed once per table and leg; a stack
        holds those of its two match legs only."""
        if (i_from, i_to) not in self._norm:
            if self.r_nodes.ndim > 1:
                raise DomainError("a stack of step tables holds the norm weights "
                                  "of its two match legs only")
            self._norm[i_from, i_to] = _norm_weights(self, i_from, i_to)[..., None]
        return self._norm[i_from, i_to]

    def columns(self, fam_idx):
        """(family, grid column) of each element of a batch, as index arrays:
        fam_idx maps the elements to families."""
        fam = np.asarray(fam_idx)
        return fam, self.grid[fam]

    def origin_values(self, fam_idx, E):
        """The outward leg's start values (y1, y2) at the batch energies E,
        each element's from its family's seed."""
        s = self.seed[self.columns(fam_idx)[0]]
        return tuple(s[..., i, 0] + s[..., i, 1] * E for i in range(2))


def _per_element(a, idx):
    """a, whose last axis is a family or grid axis, at the entries idx of a
    batch's elements: a single entry is shared by the whole batch as it is,
    without an index."""
    return a if a.shape[-1] == 1 else np.take(a, idx, axis=-1)


def march_nodes(x_lo: float, x_match: float, x_hi: float, rule):
    """(nodes, i_match): nodes covering [x_lo, x_hi], x_match on node
    i_match, that equidistribute the step rule (x, h): h > 0 tabulated at
    increasing x, linear between table points and held at its end values
    beyond them. Each of the two segments [x_lo, x_match] and [x_match,
    x_hi] takes ceil(N(b)) steps of equal N, with N(x) the integral of
    dx / h from its start a, inverted linearly between the table points, so
    no step is longer than the largest h of the table intervals it overlaps
    (Russell & Christiansen 1978, SIAM J. Numer. Anal. 15).
    """
    x_t, h_t = rule
    nodes, counts = [[x_lo]], []
    for a, b in ((x_lo, x_match), (x_match, x_hi)):
        x = np.concatenate(([a], x_t[(x_t > a) & (x_t < b)], [b]))
        h = np.interp(x, x_t, h_t)
        # N over an interval, h linear: dx log(h1 / h0) / (h1 - h0)
        u = np.diff(h) / h[:-1]
        flat = u == 0.0
        dn = np.diff(x) / h[:-1] * np.where(flat, 1.0, np.log1p(u) / np.where(flat, 1.0, u))
        n_x = np.concatenate(([0.0], np.cumsum(dn)))
        counts.append(max(math.ceil(n_x[-1]), 1))  # dn may underflow to 0
        nodes += [np.interp(np.arange(1, counts[-1]) * (n_x[-1] / counts[-1]), n_x, x), [b]]
    return np.concatenate(nodes), counts[0]


def uniform_nodes(x_lo: float, x_match: float, x_hi: float, n_total: int):
    """(nodes, i_match): n_total nodes, uniform on either side of x_match,
    which is node i_match, the share of [x_lo, x_hi] below it (two steps
    at least)."""
    i_match = max(2, round((n_total - 1) * (x_match - x_lo) / (x_hi - x_lo)))
    return np.concatenate([np.linspace(x_lo, x_match, i_match + 1),
                           np.linspace(x_match, x_hi, n_total - i_match)[1:]]), i_match


def build_step_table(param: str, k: float, m: float, families,
                     x_nodes: np.ndarray, i_match: int, seed) -> StepTable:
    """Evaluate the family potentials at the three Gauss nodes of every
    step, kept as the weights of the Magnus step; seed is the families'
    (F, 2, 2) start values (see StepTable)."""
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
    off = h * (0.1 * _SQRT15)
    xc = 0.5 * (x_nodes[:-1] + x_nodes[1:])
    xg = np.stack([xc - off, xc, xc + off], axis=1)      # (S, 3)
    if param == "log":
        rg = np.exp(xg)
        rmul = rg
    else:
        rg = xg
        rmul = np.ones_like(rg)

    w = np.empty((h.size, 3, len(families)))
    flat = rg.reshape(-1)
    for f, fam in enumerate(families):
        w[:, :, f] = (rmul * fam.evaluate(flat).reshape(rg.shape))
    return StepTable(k=float(k), m=float(m), r_nodes=r_nodes, h=h[:, None],
                     rmul=_alpha_weights(rmul[..., None], h[:, None]),
                     w=_alpha_weights(w, h[:, None]), i_match=int(i_match),
                     grid=np.zeros(w.shape[2], dtype=np.intp),
                     seed=np.asarray(seed, dtype=float))


def _alpha_weights(t, h):
    """The weights of alpha_1, alpha_2 and alpha_3 (see _step_omega) along
    axis 1, from samples t, shape (S, 3, X), at the three Gauss nodes of
    each step, h the step lengths: h t_2, sqrt(15) h/3 (t_3 - t_1) and
    10 h/3 (t_3 - 2 t_2 + t_1)."""
    lo, mid, hi = t[:, 0], t[:, 1], t[:, 2]
    return np.stack([h * mid, (_SQRT15 / 3.0) * h * (hi - lo),
                     (10.0 / 3.0) * h * (hi - 2.0 * mid + lo)], axis=1)


def stack_tables(tables) -> StepTable:
    """One step table holding the families of all the tables (each on one
    grid, all with the same k and m), so that their match traversals run as
    one batch. Table g's grid is column g, and its families, with their
    potential weights and seeds, follow those of the tables before it.

    The tables are aligned at a common match node, the largest i_match I:
    table g keeps its own steps, shifted by I - i_match_g, and zero-length
    steps pad the front of its outward leg and the back of its inward leg
    (its nodes there repeat its first and last radius). A zero-length step
    has zero weights, which zero every Magnus entry, and expm_traceless_2x2
    turns that into exactly the identity, so the padding moves no state. The
    norm weights of the padded nodes are zero, and each leg's start weight
    stays at the leg's start node, where the state is still the seed's. A
    stack serves the two match legs, 0 -> I and S -> I, whose norm weights
    are formed here.
    """
    i_match = max(t.i_match for t in tables)
    n_steps = i_match + max(t.n_steps - t.i_match for t in tables)
    n_grid = len(tables)
    r_nodes, h = np.empty((n_steps + 1, n_grid)), np.zeros((n_steps, n_grid))
    rmul = np.zeros((n_steps, 3, n_grid))
    first = np.cumsum([0] + [t.w.shape[2] for t in tables])   # of each table's families
    w = np.zeros((n_steps, 3, first[-1]))
    legs = {(0, i_match): np.zeros((3, i_match + 1, n_grid)),
            (n_steps, i_match): np.zeros((3, n_steps - i_match + 1, n_grid))}
    for g, t in enumerate(tables):
        lead = i_match - t.i_match
        steps = slice(lead, lead + t.n_steps)
        h[steps, g], rmul[steps, :, g] = t.h[:, 0], t.rmul[..., 0]
        w[steps, :, first[g]:first[g + 1]] = t.w
        r_nodes[:, g] = np.pad(t.r_nodes, (lead, n_steps - steps.stop), mode="edge")
        for quad, own_from in zip(legs.values(), (0, t.n_steps)):
            own = t.norm_weights(own_from, t.i_match)[..., 0]
            quad[:, 0, g] = own[:, 0]
            quad[:, quad.shape[1] - own.shape[1] + 1:, g] = own[:, 1:]
    table = StepTable(k=tables[0].k, m=tables[0].m, r_nodes=r_nodes, h=h,
                      rmul=rmul, w=w, i_match=i_match,
                      grid=np.repeat(np.arange(n_grid), np.diff(first)),
                      seed=np.concatenate([t.seed for t in tables]))
    table._norm.update(legs)
    return table


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _step_omega(table: StepTable, steps, fam_idx, em, me, sign=None, out=None):
    """Magnus exponent (oa, ob, oc) of the given steps for the batch energies.

    steps is an index array of length S; em = E + m and me = m - E are
    those of a batch of B energies, and fam_idx maps its elements to table
    families.

    The step is the 6th-order Magnus step of Blanes, Casas & Ros (2000, BIT
    40). With A_1, A_2, A_3 the coefficient matrix at the three Gauss nodes
    of a step of length h,

        alpha_1 = h A_2, alpha_2 = sqrt(15) h/3 (A_3 - A_1),
        alpha_3 = 10 h/3 (A_3 - 2 A_2 + A_1),
        C_1 = [alpha_1, alpha_2], C_2 = -[alpha_1, 2 alpha_3 + C_1]/60,
        Omega = alpha_1 + alpha_3/12 + [-20 alpha_1 - alpha_3 + C_1, alpha_2 + C_2]/240.

    Every matrix here is a traceless 2x2 (a, b, c) = [[a, b], [c, -a]]. The
    coefficient matrix is (-k, R em - W, W + R me), with R = dr/dx and
    W = R V, so alpha_j = (p_j, R_j em - W_j, W_j + R_j me), with R_j and W_j
    the table's weights (rmul and w), p_1 = -k h and p_2 = p_3 = 0. Then
    C_1 = (u, 2 p_1 b_2, -2 p_1 c_2) with u = 2m (R_1 W_2 - W_1 R_2), and
    with Z = alpha_3 + C_1/2, Y = 30 (alpha_2 + C_2) = 30 alpha_2 -
    [alpha_1, Z] and X = 20 alpha_1 + alpha_3 - C_1 (the first argument,
    negated),

        Omega = alpha_1 + alpha_3/12 - [X, Y]/7200.

    sign (-1 for a step taken inward, an array of one per step or one for
    all) multiplies every term of that sum: the inward step is the inverse
    of the outward one, exp(-Omega), and negating every term of a sum
    negates the sum exactly, as rounding is symmetric.

    The entries, of shape (S, B), are formed in out[0:3] of out, shape
    (5, S, B) (allocated when None), whose planes serve as scratch with
    four more arrays of that size and the index arrays of the weights taken
    per element. The arithmetic runs batch-major, the step axis last, so that
    per-step coefficients broadcast along contiguous rows at any batch width;
    each entry is copied into place at the end.
    """
    fam, col = table.columns(fam_idx)
    n_steps, n_b = len(steps), em.size
    if out is None:
        out = np.empty((5, n_steps, n_b))
    # the planes of out, viewed batch-major (contiguous planes, as callers pass)
    t0, t1, t2, t3, t4 = (o.reshape(n_b, n_steps) for o in out)
    s0, s1, s2, s3 = np.empty((4, n_b, n_steps))
    em, me = em[:, None], me[:, None]

    def per_element(a, idx):
        """Weight j of the table weights a, shape (n, 3, X), at the steps, as
        a function of j and of an array to take it into: of the batch-major
        shape, or (S,) where one column serves the batch."""
        if a.shape[2] == 1:
            rows = a[steps, :, 0].T.copy()
            return lambda j, into=None: rows[j]
        flat, a_flat = steps * a[0].size + idx[:, None], a.reshape(-1)
        return lambda j, into=None: np.take(
            a_flat[j * a.shape[2]:], flat,
            out=into if into is not None and into.shape == flat.shape else None)

    w, r = per_element(table.w, fam), per_element(table.rmul, col)
    p = (-table.k) * per_element(table.h[:, None], col)(0)    # alpha_1's a
    sign = 1.0 if sign is None else np.reshape(sign, -1)

    # alpha_1's (b, c) in (s0, s1), alpha_2's in (t3, t4), u in t0 (per
    # element weights are taken into free planes)
    w1, r1 = w(0, t0), r(0, t2)
    np.multiply(r1, em, out=s0)
    s0 -= w1
    np.multiply(r1, me, out=s1)
    s1 += w1
    w2, r2 = w(1, t1), r(1, s3)
    np.multiply(r2, em, out=t3)
    t3 -= w2
    np.multiply(r2, me, out=t4)
    t4 += w2
    np.multiply(w2, r1, out=s2)
    np.subtract(s2, np.multiply(w1, r2, out=s3), out=t0)
    t0 *= 2.0 * table.m
    # Z's (b, c) = alpha_3's + p (b_2, -c_2) in (t1, t2)
    w3, r3 = w(2, s3), r(2, s2)
    np.multiply(r3, em, out=t1)
    t1 -= w3
    t1 += np.multiply(t3, p, out=t2)
    np.multiply(r3, me, out=t2)
    t2 += w3
    t2 -= np.multiply(t4, p, out=s2)
    # Y: y_a = c_1 z_b - b_1 z_c in s2, then, through q = z_b - 3 p b_2 in t1,
    # y_b = 30 b_2 - 2 p z_b + u b_1 = (30 - 6 p^2) b_2 - 2 p q + u b_1 in t3
    # and x_b = 20 b_1 + q in t1; alike, with the signs of p and u flipped,
    # y_c in t4 and x_c in t2; and x_a = 20 p - u in t0
    np.multiply(s1, t1, out=s2)
    s2 -= np.multiply(s0, t2, out=s3)
    t1 -= np.multiply(t3, 3.0 * p, out=s3)
    t3 *= 30.0 - 6.0 * p * p
    t3 -= np.multiply(t1, 2.0 * p, out=s3)
    t3 += np.multiply(s0, t0, out=s3)
    t1 += np.multiply(s0, 20.0, out=s3)
    t2 += np.multiply(t4, 3.0 * p, out=s3)
    t4 *= 30.0 - 6.0 * p * p
    t4 += np.multiply(t2, 2.0 * p, out=s3)
    t4 -= np.multiply(s1, t0, out=s3)
    t2 += np.multiply(s1, 20.0, out=s3)
    np.subtract(20.0 * p, t0, out=t0)
    # [X, Y] = (x_b y_c - x_c y_b, 2 (x_a y_b - x_b y_a), 2 (x_c y_a - x_a y_c)):
    # the first entry in s1, the others halved in (s0, s2)
    np.multiply(t0, t3, out=s0)
    s0 -= np.multiply(t1, s2, out=s1)
    np.multiply(t1, t4, out=s1)
    t3 *= t2
    s1 -= t3
    s2 *= t2
    t4 *= t0
    s2 -= t4
    # alpha_1 + alpha_3/12 = (p, R em - W, W + R me), with the weights
    # R = R_1 + R_3/12 and W = W_1 + W_3/12 (W in t3); every term times sign
    np.multiply(w(2, t4), sign / 12.0, out=t3)
    t3 += np.multiply(w(0, t4), sign, out=t4)
    r_l = np.multiply(r(2, t0), sign / 12.0, out=t0)
    r_l += np.multiply(r(0, t1), sign, out=t1)
    s1 *= -sign / 7200.0
    s1 += sign * p
    s0 *= -sign / 3600.0
    s0 += np.multiply(r_l, em, out=t4)
    s0 -= t3
    s2 *= -sign / 3600.0
    s2 += np.multiply(r_l, me, out=t4)
    s2 += t3
    for o, entry in zip(out, (s1, s0, s2)):
        np.copyto(o, np.moveaxis(entry, -1, 0))
    return out[0], out[1], out[2]


_W2_MAX = 8.7  # 2.95^2: a step rotated too far for the crossing count


def _side(y1, y2):
    """True where the direction (y1, y2) lies on the psi1 > 0 side of the
    psi1 = 0 axis. A point on the axis counts to the side of -psi2, which
    makes it the lower edge of its sector (see _Leg): its offset f is then
    atan2(+-0, 1) = 0, where the other side would put it on atan2's branch
    cut, at +pi or -pi by the sign of a zero."""
    return (y1 > 0.0) | ((y1 == 0.0) & (y2 < 0.0))


class _Leg:
    """One leg of a propagate call, node i_from to the table's match node,
    for the whole batch: its start state y0 and what its mode makes of it,
    filled in one piece of batch columns at a time: the recorded nodes
    (rec, record mode; the end state is the last), or the end state, the
    angle and its E-slope (out, phase mode).

    The continuous angle is theta = pi/2 + K pi + f, with f in [0, pi) the
    direction's offset from the lower edge of sector K, whose parity the side
    gives (odd on the psi1 > 0 side). The direction crosses psi1 = 0 only
    clockwise outward (counter-clockwise inward) and, by the rotation limit,
    at most once a step, so each change of side between consecutive nodes
    moves K by one, down outward and up inward: the angle at the end is read
    from the start sector, the number of side changes and the end direction,
    with no angle formed per node.
    """

    def __init__(self, table, E, y0, i_from, record, beyond):
        self.outward = table.i_match >= i_from
        self.n_steps = abs(table.i_match - i_from)
        # table indices of the leg's steps, in traversal order
        self.steps = (np.arange(i_from, table.i_match) if self.outward
                      else np.arange(i_from - 1, table.i_match - 1, -1))
        self.y0 = [np.broadcast_to(np.asarray(y, dtype=float), E.shape) for y in y0]
        if record:
            self.rec = np.empty((3, self.n_steps + 1, *E.shape))
            self.rec[:2, 0], self.rec[2, 0] = self.y0, 0.0
        else:
            self.quad = table.norm_weights(i_from, table.i_match)
            self.beyond = np.broadcast_to(beyond, E.shape)
            self.out = np.empty((4, *E.shape))    # y1, y2, theta, slope at the end

    def result(self, record):
        if record:
            rec1, rec2, logs = self.rec if self.outward else self.rec[:, ::-1]
            return (self.rec[0, -1], self.rec[1, -1]), rec1, rec2, logs
        y1, y2, theta, slope = self.out
        return (y1, y2), theta, slope


def propagate(table: StepTable, fam_idx, E, y0, i_from: int, i_to: int,
              record: bool = False, phase: bool = False, beyond=0.0):
    """Advance the two legs of a match to the table's match node i_match:
    y0[0] from node i_from and y0[1] from node i_to, in one call. For
    i_from <= i_match <= i_to the first leg runs outward, the second inward,
    and |i_to - i_from| is the steps of both.

    E is the batch of energies, one axis, and fam_idx the table family of
    each of its elements. The state is renormalized after every step. A
    call takes exactly one of two modes, and ConfigurationError refuses both
    or neither; DomainError refuses a leg of no steps. The result is the
    pair of the legs' results, in the order of y0. With record=True, a leg's
    result is ((y1, y2), psi1, psi2, logs): the end state, the per-node
    history in the order of the table's nodes and the accumulated
    log-magnitudes needed to undo the renormalization.

    With phase=True, each leg tracks the continuous polar angle
    theta = atan2(psi2, psi1) of the solution direction along its traversal,
    starting from its value in (-pi, pi] at the start node.
    For attractive potentials the coefficient of psi2 in psi1' is positive
    throughout the gap, so the direction crosses the psi1 = 0 axis only
    clockwise along increasing r (counter-clockwise along the inward
    traversal), and a step that rotates by less than pi crosses it at most
    once: the angle at the end follows from its start sector, the number of
    sign changes of psi1 over the nodes and the end direction (see _Leg).
    A step that rotates too far for this for some batch element is refused
    with NumericalError, naming the first such step of the first leg in
    traversal order, else of the second. This angle is what eigenvalue
    counting is built on. A leg's phase result is ((y1, y2), theta, slope),
    with slope = dtheta/dE at the match node: -I/|y_end|^2 outward and
    +I/|y_end|^2 inward. I is the integral of |y|^2 dr over the traversal
    (_norm_weights, on the node states), plus, for the leg from i_to,
    beyond: the integral of |y|^2 on the far side of its start, in the units
    of y0[1], for start values that continue an exact solution there. It
    accounts for their own E-dependence: the tail seed's free decaying
    solution turns at dtheta/dE = 1/(2 lambda), which is beyond =
    |y0[1]|^2 / (2 lambda). With beyond = 0, and always for the leg from
    i_from, the slope is that of the start values held fixed.

    The steps are evaluated as a step-parallel scan: the step matrices of
    every step at once, then a blocked prefix scan for the node states (see
    _scan_states), with the two legs as the chains of one scan. Memory is
    bounded by cutting the batch into pieces of as many columns (elements)
    as keep the scan within _SCAN_ELEMENTS step-element pairs, one column at
    least; each piece is one scan over the whole of both legs. The
    arithmetic of a batch element depends only on its own energy, family
    and start values, and that of a leg only on its own steps, so a leg's
    results, column by column, do not depend on the rest of the batch or on
    the other leg. The test suite checks the scan against a sequential
    step-by-step reference (tests/reference_propagator.py).
    """
    if record == phase:
        raise ConfigurationError("propagate takes exactly one of record and phase")
    E = np.asarray(E, dtype=float)
    legs = [_Leg(table, E, y0[0], i_from, record, 0.0),
            _Leg(table, E, y0[1], i_to, record, beyond)]
    if not all(leg.n_steps for leg in legs):
        raise DomainError("a propagate leg takes one step at least")
    steps = np.concatenate([leg.steps for leg in legs])
    # the largest rotation w^2 = -q of every step, leg after leg in
    # traversal order, over the batch
    worst = None if record else np.full(steps.size, -np.inf)
    fam = table.columns(fam_idx)[0]
    width = max(1, _SCAN_ELEMENTS // steps.size)
    for lo in range(0, E.size, width):
        at = slice(lo, lo + width)
        _advance(table, fam[at], E[at], at, legs, steps, worst)
    if worst is not None and (worst > _W2_MAX).any():
        j = np.argmax(worst > _W2_MAX)
        raise NumericalError(
            f"step {steps[j]} rotates the solution too fast for phase "
            f"tracking (w^2 = {worst[j]:.3f}); the step rule is too coarse"
        )
    return tuple(leg.result(record) for leg in legs)


def _advance(table, fam_idx, E, at, legs, steps, worst):
    """Propagate one piece of a call's batch columns, E and fam_idx theirs
    and at their slice of a leg's arrays, along both legs in one scan: one
    step-matrix pass over all the legs' steps (table indices, leg after leg
    in traversal order) in packed order (see _layout), _scan_states, and
    the mode's reading of the node states into the legs. In phase mode, a
    step that rotates some element of the piece too far skips the scan, and
    worst takes the piece's rotation w^2 of every step where it is larger
    (every step of a step-matrix pass that has such a step: the others
    rotate less than the limit)."""
    em, me = E + table.m, table.m - E
    lay = _layout(tuple(leg.n_steps for leg in legs))
    packed = np.empty(lay.n, dtype=np.intp)
    packed[lay.trav] = steps
    sign = np.empty(lay.n)
    sign[lay.trav] = np.repeat([1.0 if leg.outward else -1.0 for leg in legs],
                               [leg.n_steps for leg in legs])
    P = np.empty((5, lay.n, em.size))
    q_min = np.full(lay.n, np.inf)    # formed only where some step rotates too far
    # the step matrices in place, in pieces that bound the temporaries
    per_piece = max(1, _STEP_ELEMENTS // max(em.size, 1))
    for lo in range(0, lay.n, per_piece):
        part, piece = P[:, lo:lo + per_piece], slice(lo, lo + per_piece)
        _step_omega(table, packed[piece], fam_idx, em, me, sign[piece], out=part)
        if worst is not None:
            # q = oa^2 + ob oc: the step rotates the element by sqrt(-q)
            # where q < 0
            q = np.multiply(part[0], part[0], out=part[3])
            q += np.multiply(part[1], part[2], out=part[4])
            if (q < -_W2_MAX).any():
                np.min(q, axis=1, out=q_min[piece])
        expm_traceless_2x2(part[0], part[1], part[2], out=part)
    if q_min.min() < -_W2_MAX:
        np.maximum(worst, -q_min[lay.trav], out=worst)
        return
    _scan_states(P, lay, [[y[at] for y in leg.y0] for leg in legs])
    if worst is not None:
        _read_phase(P, lay, legs, table.columns(fam_idx)[1], at)
        return
    for c, leg in enumerate(legs):
        pos = lay.trav[lay.first[c]:lay.first[c] + leg.n_steps]
        for dst, src in zip(leg.rec, (P[0], P[2], P[4])):
            np.take(src, pos, axis=0, out=dst[1:, at], mode="clip")


def _read_phase(P, lay, legs, col, at):
    """Phase mode's reading of a scan's node states (P[0], P[2]) and log
    scales (P[4]), formed in place by _scan_states: each leg's side changes,
    its log I and its end state, into the leg's columns at. The nodes are
    first gathered into traversal order, chain after chain, in the scan's
    free planes; the quadrature is then formed in the others."""
    n_cols = P.shape[2]
    # traversal order: psi1 into P[1], psi2 into P[0], log scales into P[2]
    for src, dst in ((0, 1), (2, 0), (4, 2)):
        np.take(P[src], lay.trav, axis=0, out=P[dst], mode="clip")
    z1, z2, lz, q, t = P[1], P[0], P[2], P[3], P[4]
    # wa z1^2 + wb z2^2 + wc z1 z2 at every node past the start, weights in
    # traversal order, taken per element in pieces
    quad = np.concatenate([leg.quad[:, 1:] for leg in legs], axis=1)

    def weight(i, piece):
        return _per_element(quad[i, piece], col)

    per_piece = max(1, _STEP_ELEMENTS // max(n_cols, 1))
    for lo in range(0, lay.n, per_piece):
        piece = slice(lo, lo + per_piece)
        z1p, z2p, qp, tp = z1[piece], z2[piece], q[piece], t[piece]
        np.multiply(z1p, z1p, out=qp)
        qp *= weight(0, piece)
        np.multiply(z2p, z2p, out=tp)
        tp *= weight(1, piece)
        qp += tp
        np.multiply(z1p, z2p, out=tp)
        tp *= weight(2, piece)
        qp += tp
    ends = []
    for c, leg in enumerate(legs):
        rows = slice(lay.first[c], lay.first[c] + leg.n_steps)
        y1, y2 = (y[at] for y in leg.y0)
        # log of the start's part of I: beyond the start plus node 0
        wa, wb, wc = (_per_element(leg.quad[i, 0], col) for i in range(3))
        log_start = np.log(leg.beyond[at] + wa * y1 * y1 + wb * y2 * y2 + wc * y1 * y2)
        # the start sector of atan2(y2, y1), in (-pi, pi], moved by one per
        # change of side
        side = _side(y1, y2)
        sector = np.where(side, -1.0, np.where(np.signbit(y2), -2.0, 0.0))
        nodes = _side(z1[rows], z2[rows])
        changes = np.count_nonzero(nodes[1:] != nodes[:-1], axis=0) + (nodes[0] != side)
        sector = sector - changes if leg.outward else sector + changes
        end1, end2, theta, _ = (a[at] for a in leg.out)
        last = rows.stop - 1
        end1[...], end2[...] = z1[last], z2[last]
        side = nodes[-1]
        f = np.arctan2(np.where(side, end1, -end1), np.where(side, -end2, end2))
        theta[...] = (sector + 0.5) * np.pi + f
        # exp(2 (L - ref)) with ref the chain's largest log scale, so nothing
        # overflows
        ref = lz[rows].max(axis=0)
        tc = np.subtract(lz[rows], ref, out=t[rows])
        tc *= 2.0
        np.exp(tc, out=tc)
        q[rows] *= tc
        ends.append((ref, log_start, lz[last].copy()))
    # each column of I summed alone, in step order, over nb * bs nodes with
    # zeros past the chain's last (numpy picks the order of a sum over the
    # leading axes from the array's shape), in the planes of the gathered
    # nodes, which are read by now
    free = P[:3].reshape(-1)
    for c, (leg, (ref, log_start, l_end)) in enumerate(zip(legs, ends)):
        rows = slice(lay.first[c], lay.first[c] + leg.n_steps)
        by_column = free[:n_cols * lay.padded[c]].reshape(n_cols, lay.padded[c])
        np.copyto(by_column[:, :leg.n_steps], q[rows].T)
        by_column[:, leg.n_steps:] = 0.0
        total = by_column.sum(axis=1)
        # zero for a column whose nodes are all padding (see stack_tables):
        # its log I is -inf, which adds nothing
        log_nodes = (np.log(total, out=np.full_like(total, -np.inf), where=total > 0)
                     + 2.0 * ref)
        end1, end2, _, slope = (a[at] for a in leg.out)
        # negative where steps far longer than the leg's decay length leave
        # the node rule's sum meaningless: the slope is then NaN, which
        # count_bisect takes as no Newton step
        slope[...] = np.where(total < 0, np.nan,
                              np.exp(np.logaddexp(log_start, log_nodes) - 2.0 * l_end)
                              / (end1 * end1 + end2 * end2))
        if leg.outward:
            np.negative(slope, out=slope)


class _Layout(NamedTuple):
    """Where the steps of a scan's chains sit in its packed arrays (see
    _layout and _scan_states); positions index the step axis."""
    n: int               # steps of all chains
    width: int           # blocks in the widest phase (1) round (row 0)
    rounds: tuple        # phase (1), row t >= 1: (offset, blocks, offset of
                         # the same blocks in row t - 1)
    totals: np.ndarray   # (nq - 1, C): position of the last step of block q
                         # of chain c (0 from the chain's last block on)
    block_q: np.ndarray  # each block, in position order: its index in its chain
    block_c: np.ndarray  # and its chain
    regions: tuple       # phase (3): (o0, o1, rows, lo, hi), runs of rows that
                         # hold the same blocks lo .. hi - 1
    trav: np.ndarray     # position of each step, chain after chain, each in
                         # traversal order
    first: tuple         # index in trav of each chain's first step
    padded: tuple        # nb * bs of each chain


@functools.lru_cache(maxsize=2)
def _layout(lengths) -> _Layout:
    """The packed layout of a scan over the two chains of a propagate call,
    the legs, of lengths[c] steps (see _scan_states).

    Chain c is cut into nb_c = ceil(S_c / bs_c) blocks of bs_c = ceil(sqrt(S_c))
    steps, the last one shorter unless bs_c divides S_c: the blocks of a
    chain scanned alone. The packed order is step-major: row t holds step t
    of every block that has one, block after block. The blocks are ordered
    so that the blocks of every row are consecutive: the chain with the
    shorter blocks first, its last block leading, then the other chain, its
    last block trailing. No position is padding, so every row is a slice,
    and row t's blocks are a slice of row t - 1's. The last two layouts are
    kept: a search evaluates the same table again and again.
    """
    lengths = np.asarray(lengths)
    bs = np.array([math.isqrt(s - 1) + 1 for s in lengths.tolist()])
    nb = -(-lengths // bs)
    chains = np.argsort(bs, kind="stable")
    block_c = np.repeat(chains, nb[chains])
    block_q = np.concatenate([np.roll(np.arange(nb[chains[0]]), 1), np.arange(nb[chains[1]])])
    count = np.minimum(bs[block_c], lengths[block_c] - block_q * bs[block_c])
    # row t: blocks lo[t] .. hi[t] - 1, from position off[t]
    active = count > np.arange(bs.max())[:, None]
    lo = active.argmax(axis=1)
    hi = lo + active.sum(axis=1)
    off = np.concatenate([[0], np.cumsum(hi - lo)[:-1]])
    # the position of every step of every chain, in traversal order
    index = np.empty((len(lengths), nb.max()), dtype=np.intp)
    index[block_c, block_q] = np.arange(block_c.size)
    trav = []
    totals = np.zeros((nb.max() - 1, len(lengths)), dtype=np.intp)
    for c, (s, b) in enumerate(zip(lengths.tolist(), bs.tolist())):
        q, t = np.divmod(np.arange(s), b)
        trav.append(off[t] + index[c, q] - lo[t])
        totals[:nb[c] - 1, c] = trav[-1][np.arange(1, nb[c]) * b - 1]
    edges = np.flatnonzero(np.diff(lo, prepend=-1) | np.diff(hi, prepend=-1)).tolist()
    regions = tuple((int(off[t0]), int(off[t0] + (t1 - t0) * (hi[t0] - lo[t0])), t1 - t0,
                     int(lo[t0]), int(hi[t0]))
                    for t0, t1 in zip(edges, edges[1:] + [lo.size]))
    lo, hi, off = lo.tolist(), hi.tolist(), off.tolist()
    rounds = tuple((off[t], hi[t] - lo[t], off[t - 1] + lo[t] - lo[t - 1])
                   for t in range(1, len(lo)))
    trav = np.concatenate(trav)
    for a in (totals, block_q, block_c, trav):
        a.setflags(write=False)
    return _Layout(n=int(lengths.sum()), width=hi[0] - lo[0], rounds=rounds,
                   totals=totals, block_q=block_q, block_c=block_c, regions=regions,
                   trav=trav, first=tuple(np.cumsum([0, *lengths[:-1]]).tolist()),
                   padded=tuple((nb * bs).tolist()))


def _scan_states(P, lay: _Layout, starts):
    """States of y_{j+1} = M_j y_j along each chain of a scan, by a two-level
    blocked scan over all chains at once.

    P, shape (5, n, *batch), holds the scaled step matrices of every chain
    in the packed order of lay (_layout): M_j = exp(P[4, j]) *
    [[P[0, j], P[1, j]], [P[2, j], P[3, j]]], as expm_traceless_2x2 forms
    them. starts lists each chain's start state (y1, y2). Every node state
    is formed in place: node j (the state after step j) is exp(P[4, j]) *
    (P[0, j], P[2, j]), max-normalized, with the log scale counted from the
    chain's start; P[1] and P[3] are left as scratch.

    Each chain is cut into blocks of bs = ceil(sqrt(S)) steps as if it were
    scanned alone:
    (1) inclusive prefix products inside every block, all blocks of all
        chains at once, one round per step of the longest block;
    (2) the state at each block start, one block total after another, the
        chains side by side;
    (3) every node as its in-block prefix applied to its block-start state.
    Products and states are max-normalized as they are formed, with the
    dropped scale carried in log form, (A, la)(B, lb) = (AB/|AB|,
    la + lb + log|AB|), so no range of growth or decay overflows. The work is
    O(S * batch) in about 2 sqrt(S) sequential rounds of batched arithmetic,
    for two chains as for the longer one, and the association order depends
    only on each chain's S, so every chain is bitwise the chain scanned
    alone and repeated runs are bitwise reproducible.

    The packing is step-major with no padding (see _layout): round t of (1)
    is one product of slices, n[i, j] = M[i, 0] P[0, j] + M[i, 1] P[1, j]
    over the 2x2 axes by broadcasting, into preallocated buffers, its max
    over them, one division and one log update. Every entry is the same two
    products summed in the same order as the four scalar-entry formulas
    give.
    """
    batch = P.shape[2:]
    M, lp = P[:4].reshape(2, 2, *P.shape[1:]), P[4]

    # (1) in-block prefix products, in place: round t reads row t before it
    # overwrites it
    prod, other = np.empty((2, 2, 2, lay.width, *batch))
    nrm_buf = np.empty((lay.width, *batch))
    for off, n, prev in lay.rounds:
        m, p = M[:, :, off:off + n], M[:, :, prev:prev + n]
        pr, ot = prod[:, :, :n], other[:, :, :n]
        np.multiply(m[:, 0:1], p[0:1], out=pr)
        pr += np.multiply(m[:, 1:2], p[1:2], out=ot)
        nrm = np.maximum.reduce(np.abs(pr, out=ot), axis=(0, 1), initial=_TINY,
                                out=nrm_buf[:n])
        np.divide(pr, nrm, out=m)
        lm = lp[off:off + n]
        np.add(lp[prev:prev + n], lm, out=lm)
        lm += np.log(nrm, out=nrm)

    # (2) block-start states s[q + 1, :, c] = (total of block q) s[q, :, c],
    # all chains in each round: block q of chain c starts on
    # exp(ls[q, c]) s[q, :, c]. A chain's rows past its last block start are
    # formed from stand-in totals (see _Layout) and never read by (3)
    n_q, n_c = lay.totals.shape[0] + 1, lay.totals.shape[1]
    tot = np.moveaxis(M[:, :, lay.totals], 2, 0)    # (nq - 1, 2, 2, C, *batch)
    l_tot = lp[lay.totals]
    s = np.empty((n_q, 2, n_c, *batch))
    ls = np.empty((n_q, n_c, *batch))
    for c, (y1, y2) in enumerate(starts):
        s[0, 0, c], s[0, 1, c] = y1, y2
    ls[0] = 0.0
    v, w = np.empty((2, 2, n_c, *batch))
    for q in range(n_q - 1):
        t, sq = tot[q], s[q]
        np.multiply(t[:, 0], sq[0], out=v)
        v += np.multiply(t[:, 1], sq[1], out=w)
        nrm = np.maximum.reduce(np.abs(v, out=w), axis=0, initial=_TINY)
        np.divide(v, nrm, out=s[q + 1])
        np.add(ls[q], l_tot[q], out=ls[q + 1])
        ls[q + 1] += np.log(nrm, out=nrm)

    # (3) node states inside each block, z_i = M[i, 0] s_0 + M[i, 1] s_1,
    # formed in place in M[:, 0], a run of rows over the same blocks at once
    start, l_start = s[lay.block_q, :, lay.block_c], ls[lay.block_q, lay.block_c]
    for o0, o1, rows, lo, hi in lay.regions:
        run = M[:, :, o0:o1].reshape(2, 2, rows, hi - lo, *batch)
        run[:, 0] *= start[lo:hi, 0]
        run[:, 1] *= start[lo:hi, 1]
        run[:, 0] += run[:, 1]
        l_run = lp[o0:o1].reshape(rows, hi - lo, *batch)
        l_run += l_start[lo:hi]
    z, scratch = M[:, 0], M[:, 1]
    nrm = np.maximum(*np.abs(z, out=scratch), out=scratch[0])
    np.maximum(nrm, _TINY, out=nrm)
    lp += np.log(nrm, out=scratch[1])
    z /= nrm


def _norm_weights(table: StepTable, i_from: int, i_to: int):
    """Node weights, shape (3, S+1), of the integral of |y|^2 dr over the
    traversal from node i_from to node i_to: the integral is
    sum_n wa_n y1_n^2 + wb_n y2_n^2 + wc_n y1_n y2_n over its nodes in
    traversal order.

    The rule takes f = |y|^2 and its derivative at the nodes, three nodes
    (two steps) at a time, and is exact for f of degree 5 on any two step
    lengths a, b. Its middle weight turns negative for b/a outside
    [0.38, 2.62], so a pair with b/a outside [1/2, 2] (a step rule that
    changes by more than a factor 2 from one step to the next) and a last
    odd step take the two-node rule dr/2 (f_0 + f_1) + dr^2/12 (f'_0 - f'_1)
    instead (degree 3). The
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


def tail_seed(m: float, E):
    """Start values (1, -sqrt((m - E)/(m + E))) of the inward leg: the
    direction of the free solution that decays beyond r_max, exp(-lambda r)
    with lambda = sqrt(m^2 - E^2), where V is negligible."""
    E = np.asarray(E, dtype=float)
    return np.ones_like(E), -np.sqrt((m - E) / (m + E))


def match_values(table: StepTable, fam_idx, E):
    """Two-sided shooting at the match node: (mval, dtheta, dtheta_dE), each
    of E's shape. fam_idx is the table family of each element of E, or None
    for E with one row per family of the table, which is evaluated as the
    flat batch of its rows, row after row.

    The outward leg (node 0 to the match node, from the start values of
    each element's family in table.seed) and the inward leg (tail_seed,
    node S to the match node) are one phase-mode propagate call, as two
    chains of one scan. The scale-invariant mismatch mval is the cross
    product of the two unit directions, so it lies in [-2, 2] and vanishes
    exactly at eigenvalues.

    The matching angle dtheta = theta_out(r_match) - theta_in(r_match),
    continuous and strictly decreasing in E, passes a multiple of pi exactly
    at each eigenvalue, which is what makes eigenvalue indexing alias-free;
    its slope dtheta_dE is
    -I_out/|y_out(r_match)|^2 - I_in/|y_in(r_match)|^2, with I_out the
    integral of |y_out|^2 from the origin seed to r_match and I_in that of
    |y_in|^2 from r_match to infinity (the tail seed's decaying solution
    beyond r_max in closed form, |y_t|^2 / (2 lambda)).
    """
    E = np.asarray(E, dtype=float)
    shape = E.shape
    if fam_idx is None:
        fam_idx, E = np.repeat(np.arange(shape[0]), shape[1]), E.reshape(-1)
    yt = tail_seed(table.m, E)
    lam = np.sqrt((table.m - E) * (table.m + E))
    ((o1, o2), th_out, s_out), ((t1, t2), th_in, s_in) = propagate(
        table, fam_idx, E, (table.origin_values(fam_idx, E), yt), 0, table.n_steps,
        phase=True, beyond=(yt[0] * yt[0] + yt[1] * yt[1]) / (2.0 * lam))
    no = np.sqrt(o1 * o1 + o2 * o2)
    ni = np.sqrt(t1 * t1 + t2 * t2)
    mval = (o1 * t2 - o2 * t1) / np.maximum(no * ni, _TINY)
    return tuple(a.reshape(shape) for a in (mval, th_out - th_in, s_out - s_in))


def count_below(dtheta, dtheta_bottom):
    """Number of eigenvalues between the reference energy and E.

    dtheta is the matching angle at E, dtheta_bottom at the bottom reference
    energy; the count is the number of pi-multiples the (monotone) matching
    angle crossed in between.
    """
    return (np.floor(dtheta_bottom / np.pi) - np.floor(dtheta / np.pi)).astype(int)


def count_bisect(table: StepTable, fam_idx, lo, hi, targets, dtheta_bottom,
                 tol: float, ends):
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
    is as safe as pure bisection. Each iteration is one match_values call
    on only the elements whose bracket is still wider than tol (and has a
    float inside it); the others are frozen. With the "diracmono" logger at
    DEBUG, every iteration in which some element steps by midpoint instead
    of Newton is logged.

    ends = ((m_lo, dtheta_lo, slope_lo), (m_hi, dtheta_hi, slope_hi)) are
    the match_values results at lo and at hi. Returns
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
        m_x, th_x, d_x = match_values(table, fam_idx[act], x)
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


def assemble_two_sided(table: StepTable, fam_idx, E):
    """Recorded two-sided sweep joined at the match node.

    Returns (psi1, psi2) with shape (S+1, batch) in a common (arbitrary)
    normalization: the outward piece (from table.seed, as in match_values)
    is kept below the match node, the inward piece (tail_seed) above it,
    scaled by the projection of the outward vector on the inward direction
    so both sides agree at the match node when E is an eigenvalue.
    Magnitudes are reconstructed from the renormalization logs; amplitudes
    more than ~700 e-folds below the match point flush to zero. Both legs
    are recorded in one propagate call.
    """
    (_, o1, o2, lo), (_, t1, t2, lt) = propagate(
        table, fam_idx, E, (table.origin_values(fam_idx, E), tail_seed(table.m, E)),
        0, table.n_steps, record=True)

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


def count_sign_changes(values: np.ndarray) -> int:
    """Strict sign changes of a sampled function, ignoring values within
    _DEAD_BAND_REL of its peak magnitude."""
    v = np.asarray(values, dtype=float)
    peak = np.max(np.abs(v))
    if peak == 0.0:
        return 0
    live = v[np.abs(v) > _DEAD_BAND_REL * peak]
    if live.size < 2:
        return 0
    s = np.sign(live)
    return int(np.sum(s[1:] * s[:-1] < 0))

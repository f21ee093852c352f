"""Sequential reference propagator: one Python iteration per radial step.

This is the straightforward form of the arithmetic that
``diracmono.propagation`` evaluates as a step-parallel scan: apply each
6th-order Magnus step to the state, renormalize, and (in phase mode) unwrap
the polar angle across the step. It shares the Magnus step itself
(``_step_omega`` and ``expm_traceless_2x2``) with the package, so what the
comparison checks is the scan, the normalization bookkeeping, the phase
unwrapping and the rotation-limit check. It is slow (about 0.1 ms per step)
and exists only as the oracle the tests compare against.
"""

import numpy as np

from diracmono import propagation as prop
from diracmono.errors import NumericalError
from diracmono.numerics import expm_traceless_2x2

_TINY = 1e-300


def _wrap_pi(x):
    """Map angles to [-pi, pi)."""
    return (x + np.pi) % (2.0 * np.pi) - np.pi


def propagate_sequential(table, fam_idx, E, y0, i_from, i_to,
                         record=False, phase=False, beyond=0.0):
    """Same contract and return values as ``propagation.propagate``: the
    legs y0[0] from node i_from and y0[1] from node i_to to the match node,
    propagated one after the other, the first one first. Phase mode computes
    no E-slope: it returns NaN in its place, and beyond is ignored."""
    return tuple(_leg(table, fam_idx, E, y, start, table.i_match, record, phase)
                 for y, start in zip(y0, (i_from, i_to)))


def _leg(table, fam_idx, E, y0, i_from, i_to, record, phase):
    """One leg, node i_from to node i_to, one step at a time."""
    E = np.asarray(E, dtype=float)
    em = E + table.m
    me = table.m - E
    y1 = np.array(np.broadcast_to(y0[0], E.shape), dtype=float)
    y2 = np.array(np.broadcast_to(y0[1], E.shape), dtype=float)

    outward = i_to >= i_from
    steps = range(i_from, i_to) if outward else range(i_from - 1, i_to - 1, -1)
    n_rec = abs(i_to - i_from) + 1
    if record:
        rec1 = np.empty((n_rec, *E.shape))
        rec2 = np.empty((n_rec, *E.shape))
        logs = np.zeros((n_rec, *E.shape))
        rec1[0], rec2[0] = y1, y2
        L = np.zeros(E.shape)
    if phase:
        th_raw = np.arctan2(y2, y1)
        th_cont = th_raw.copy()
        cross_sign = np.pi if outward else -np.pi

    for jj, i in enumerate(steps):
        oa, ob, oc = (o[0] for o in prop._step_omega(table, np.array([i]),
                                                     fam_idx, em, me))
        if not outward:
            oa, ob, oc = -oa, -ob, -oc
        m11, m12, m21, m22, logf = expm_traceless_2x2(oa, ob, oc)
        y1_new = m11 * y1 + m12 * y2
        y2_new = m21 * y1 + m22 * y2
        if phase:
            q = oa * oa + ob * oc
            wosc = np.max(-q)
            if wosc > 8.7:  # 2.95^2: a step rotated too far to unwrap
                raise NumericalError(
                    f"step {i} rotates the solution too fast for phase "
                    f"tracking (w^2 = {wosc:.3f}); the step rule is too coarse"
                )
            n_c = (y1 * y1_new < 0.0).astype(float)
            th_new = np.arctan2(y2_new, y1_new)
            corr = n_c * cross_sign
            th_cont = th_cont + _wrap_pi(th_new - th_raw + corr) - corr
            th_raw = th_new
        y1, y2 = y1_new, y2_new
        nrm = np.maximum(np.maximum(np.abs(y1), np.abs(y2)), _TINY)
        y1 /= nrm
        y2 /= nrm
        if record:
            L = L + logf + np.log(nrm)
            rec1[jj + 1], rec2[jj + 1] = y1, y2
            logs[jj + 1] = L

    if record:
        if not outward:
            rec1, rec2, logs = rec1[::-1], rec2[::-1], logs[::-1]
        return (y1, y2), rec1, rec2, logs
    return (y1, y2), th_cont, np.full(E.shape, np.nan)

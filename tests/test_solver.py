"""Shooting solver: seeds, matching, eigenvalues, state invariants."""

import dataclasses
import itertools
import logging
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import diracmono as dm
from diracmono import monotonicity as mono
from diracmono import propagation as prop
from diracmono import solver as S
from diracmono.coulomb import CoulombLevel, coulomb_energy
from diracmono.errors import (
    ConfigurationError,
    DomainError,
    GridMismatchError,
    NoSuchStateError,
    NumericalError,
    UnsupportedRegimeError,
)
from diracmono.numerics import apply_derivative, derivative_weights
from diracmono.potentials import OriginClass, custom_family

from conftest import assert_close
from reference_propagator import propagate_sequential


# ---------------------------------------------------------------------------
# channel and config validation
# ---------------------------------------------------------------------------

def test_channel_k_values():
    assert dm.ChannelSpec(d=3, tau=-1, j=0.5).k == -1.0
    assert dm.ChannelSpec(d=3, tau=-1, j=1.5).k == -2.0
    assert dm.ChannelSpec(d=3, tau=1, j=0.5).k == 1.0
    assert dm.ChannelSpec(d=2, tau=-1, j=0.5).k == -0.5
    assert dm.ChannelSpec(d=5, tau=1, j=1.5).k == 3.0
    assert dm.ChannelSpec(d=1, parity="even").k == 0.0


def test_channel_validation():
    with pytest.raises(ConfigurationError):
        dm.ChannelSpec(d=1, tau=-1, parity="even")  # tau is not a d=1 concept
    with pytest.raises(ConfigurationError):
        dm.ChannelSpec(d=1)  # parity required
    with pytest.raises(ConfigurationError):
        dm.ChannelSpec(d=3, tau=-1, j=1.0)  # j must be half-odd
    with pytest.raises(ConfigurationError):
        dm.ChannelSpec(d=3, tau=2, j=0.5)
    with pytest.raises(ConfigurationError):
        dm.ChannelSpec(d=3, tau=-1, j=0.5, parity="even")
    with pytest.raises(ConfigurationError):
        dm.ChannelSpec(d=3, tau=-1, j=0.5, m=-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ConfigurationError):
            dm.ChannelSpec(d=3, tau=-1, j=0.5, m=bad)
        with pytest.raises(ConfigurationError):
            dm.ChannelSpec(d=3, tau=-1, j=bad)


def test_solve_config_validation():
    with pytest.raises(ConfigurationError):
        dm.SolveConfig(e_tol=-1.0)
    with pytest.raises(ConfigurationError):
        dm.SolveConfig(r0=1.0, r_max=0.5)
    for density in (0.3, 9.0, float("nan")):
        with pytest.raises(ConfigurationError):
            dm.SolveConfig(step_density=density)
    for name in ("e_tol", "r_max", "r0", "r_match"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                dm.SolveConfig(**{name: bad})
    for bad in (0.0, -1.0):    # 0.0 is refused, not taken as unset
        with pytest.raises(ConfigurationError, match="r_match must be positive"):
            dm.SolveConfig(r_match=bad)


# ---------------------------------------------------------------------------
# rhs
# ---------------------------------------------------------------------------

def test_rhs_d1_reduction():
    ch = dm.ChannelSpec(d=1, parity="even")
    fam = dm.cutoff_coulomb(1.0, 1.0)
    e = 0.3
    d1, d2 = dm.rhs(0.7, (1.2, -0.4), e, ch, fam)
    v = fam.evaluate(0.7)
    assert d1 == pytest.approx((e - v + 1.0) * (-0.4), rel=1e-14)
    assert d2 == pytest.approx((v + 1.0 - e) * 1.2, rel=1e-14)


def test_rhs_free_particle_at_gap_edge():
    ch = dm.ChannelSpec(d=1, parity="even")
    fam = dm.coupling(0.0, shape="exp")
    d1, d2 = dm.rhs(1.0, (0.5, 0.25), 1.0, ch, fam)
    assert d1 == pytest.approx(2.0 * 0.25)
    assert d2 == 0.0


def _hydrogenic_pair(alpha, grid):
    """Exact k = -1 Coulomb ground state, normalized on the half line."""
    g = math.sqrt(1.0 - alpha**2)
    lam = alpha
    c = -math.sqrt((1.0 - g) / (1.0 + g))
    n2 = (1.0 + c * c) * math.gamma(2 * g + 1) / (2 * lam) ** (2 * g + 1)
    norm = 1.0 / math.sqrt(n2)
    psi1 = norm * grid**g * np.exp(-lam * grid)
    return psi1, c * psi1, g


def test_rhs_residual_of_exact_state_refines_away(channel_s, coulomb_half):
    # discrete derivative of the analytic pair approaches the rhs, 4th order
    def resid(n):
        grid = np.geomspace(1e-4, 40.0, n)
        p1, p2, _ = _hydrogenic_pair(0.5, grid)
        d1, d2 = dm.rhs(grid, (p1, p2), math.sqrt(0.75), channel_s, coulomb_half)
        tab = derivative_weights(grid)
        r1 = np.abs(apply_derivative(tab, p1) - d1)[3:-3]
        r2 = np.abs(apply_derivative(tab, p2) - d2)[3:-3]
        return max(r1.max(), r2.max())

    assert resid(2400) < resid(1200) / 10.0


def test_rhs_domain_error():
    ch = dm.ChannelSpec(d=3, tau=-1, j=0.5)
    with pytest.raises(DomainError):
        dm.rhs(0.0, (1.0, 0.0), 0.5, ch, dm.cutoff_coulomb(1.0, 1.0))


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

def test_origin_seed_regular_negative_k():
    ch = dm.ChannelSpec(d=3, tau=-1, j=0.5)
    fam = dm.cutoff_coulomb(1.0, 1.0)
    r0 = 1e-6
    p1, p2 = dm.origin_seed(ch, fam, 0.5, r0)
    v0 = fam.origin_value()
    assert p1 == pytest.approx(r0)
    assert p2 == pytest.approx((v0 + 1.0 - 0.5) * r0**2 / 3.0, rel=1e-12)


def test_origin_seed_regular_positive_k():
    ch = dm.ChannelSpec(d=3, tau=1, j=0.5)
    fam = dm.cutoff_coulomb(1.0, 1.0)
    r0 = 1e-6
    p1, p2 = dm.origin_seed(ch, fam, 0.5, r0)
    assert p2 == pytest.approx(r0)
    assert p1 == pytest.approx((0.5 - fam.origin_value() + 1.0) * r0**2 / 3.0, rel=1e-12)


def test_origin_seed_satisfies_equations(channel_s):
    # transporting the seed a tiny step must agree with the rhs derivatives
    fam = dm.cutoff_coulomb(1.0, 1.0)
    r0, e = 2e-7, 0.4
    p1, p2 = dm.origin_seed(channel_s, fam, e, r0)
    dr = r0 * 1e-3
    q1, q2 = dm.origin_seed(channel_s, fam, e, r0 + dr)
    d1, d2 = dm.rhs(r0 + dr / 2, ((p1 + q1) / 2, (p2 + q2) / 2), e, channel_s, fam)
    assert (q1 - p1) / dr == pytest.approx(d1, rel=1e-5)
    assert (q2 - p2) / dr == pytest.approx(d2, rel=1e-5)


def test_origin_seed_coulomb_ratio(channel_s, coulomb_half):
    p1, p2 = dm.origin_seed(channel_s, coulomb_half, 0.5, 1e-9)
    assert p2 / p1 == pytest.approx(-0.2679491924311227, rel=1e-12)


def test_origin_seed_coulomb_small_alpha_limit(channel_s):
    # gamma -> |k| and the component ratio collapses toward the regular one
    fam = dm.pure_coulomb(1e-5)
    p1, p2 = dm.origin_seed(channel_s, fam, 0.3, 1e-10)
    assert p2 / p1 == pytest.approx(-0.5e-5, rel=1e-9)


def test_origin_seed_supercritical_rejected():
    ch = dm.ChannelSpec(d=3, tau=-1, j=0.5)
    with pytest.raises(UnsupportedRegimeError):
        dm.origin_seed(ch, dm.pure_coulomb(1.2), 0.0, 1e-9)


def test_origin_seed_precondition_checked(channel_s, coulomb_half):
    with pytest.raises(DomainError):
        dm.origin_seed(channel_s, coulomb_half, 0.5, 1e-2)


def test_d1_parity_seeds_are_the_r0_zero_limit():
    # at r0 = 0 the seed coefficients are exactly the parity seeds, (1, 0)
    # even and (0, 1) odd, at every energy, with no origin value read
    fams = [dm.cutoff_coulomb(1.0, 1.0), dm.coupling(0.0, shape="yukawa")]
    for parity, start in (("even", [1.0, 0.0]), ("odd", [0.0, 1.0])):
        seed = S._seed_coefficients(dm.ChannelSpec(d=1, parity=parity), fams, 0.0)
        assert np.array_equal(seed[..., 0], [start, start])
        assert np.array_equal(seed[..., 1], np.zeros((2, 2)))


def test_origin_seed_is_the_table_seed_times_its_scale():
    # the public seed is the table coefficients at E times r0^gamma (singular
    # origin) or r0^|k| (regular origin)
    r0, e = 1e-10, 0.4
    for channel in (dm.ChannelSpec(d=3, tau=-1, j=0.5), dm.ChannelSpec(d=3, tau=1, j=1.5)):
        k = channel.k
        for fam, scale in ((dm.pure_coulomb(0.5), r0 ** math.sqrt(k * k - 0.25)),
                           (dm.cutoff_coulomb(1.0, 1.0), r0 ** abs(k))):
            seed = S._seed_coefficients(channel, [fam], r0)[0]
            want = (seed[:, 0] + seed[:, 1] * e) * scale
            assert dm.origin_seed(channel, fam, e, r0) == tuple(want.tolist())


def test_stack_carries_its_tables_seeds():
    # a stack holds the seeds of its tables' families in order, and each of
    # its columns starts on its own table's start values
    channel = dm.ChannelSpec(d=3, tau=1, j=0.5)
    fams = [dm.pure_coulomb(0.5), dm.cutoff_coulomb(1.0, 1.0), dm.pure_coulomb(0.9)]
    ws = S._Workspace(channel, fams, S.DEFAULT_CONFIG)
    tables = [ws.fine_table((0.5, 0.9), ws.domain, np.array(f)) for f in ([0, 1], [2])]
    stack = prop.stack_tables(tables)
    assert np.array_equal(stack.seed, S._seed_coefficients(channel, fams, ws.r_seed))
    assert np.array_equal(stack.seed, np.concatenate([t.seed for t in tables]))
    e = np.array([0.6, 0.7, 0.8])
    for idx, table, own in ((np.array([0, 1, 1]), tables[0], np.array([0, 1, 1])),
                            (np.array([2, 2, 2]), tables[1], np.zeros(3, dtype=np.intp))):
        for got, want in zip(stack.origin_values(idx, e), table.origin_values(own, e)):
            assert np.array_equal(got, want)


def test_tail_seed_values():
    ch = dm.ChannelSpec(d=3, tau=-1, j=0.5)
    assert dm.tail_seed(ch, 0.0)[1] == pytest.approx(-1.0)
    assert abs(dm.tail_seed(ch, 1.0 - 1e-12)[1]) < 1e-5
    assert dm.tail_seed(ch, 0.8660254037844386)[1] == pytest.approx(
        -0.2679491924311227, rel=1e-9)
    with pytest.raises(DomainError):
        dm.tail_seed(ch, 1.0)


def test_tail_seed_is_the_inward_leg_start():
    # the public tail seed is the inward leg's start values, bitwise
    e = np.linspace(-0.999, 0.999, 37)
    for m in (1.0, 2.5):
        ch = dm.ChannelSpec(d=3, tau=-1, j=0.5, m=m)
        y1, y2 = prop.tail_seed(m, m * e)
        for b, energy in enumerate((m * e).tolist()):
            assert dm.tail_seed(ch, energy) == (y1[b], y2[b])


# ---------------------------------------------------------------------------
# propagator cross-check against an adaptive library integrator
# ---------------------------------------------------------------------------

def test_propagator_direction_matches_scipy():
    from scipy.integrate import solve_ivp

    ch = dm.ChannelSpec(d=3, tau=-1, j=0.5)
    fam = dm.cutoff_coulomb(1.0, 0.5)
    e = 0.37
    r_lo, r_hi = 1e-3, 2.5

    domain = S._Domain(r_seed=r_lo, r_max=r_hi * 4, r_match=r_hi, param="log")
    r = np.geomspace(domain.r_seed, domain.r_max, 800)
    h_rule = S._h_rule(ch, domain.param, r,
                       S._band_rate(ch, r, np.abs(fam.evaluate(r)), (e, e)), 0.025, 1.0)
    table = S._make_table(ch, [fam], domain, prop.march_nodes, h_rule)
    y0 = (np.asarray([0.3]), np.asarray([0.7]))
    ((y1, y2), _, _), _ = prop.propagate(table, np.zeros(1, dtype=np.intp), np.asarray([e]),
                                         (y0, y0), 0, table.n_steps, phase=True)
    ours = math.atan2(y2[0], y1[0])

    def odefun(r, y):
        return dm.rhs(r, (y[0], y[1]), e, ch, fam)

    sol = solve_ivp(odefun, (r_lo, r_hi), [0.3, 0.7], method="DOP853",
                    rtol=1e-13, atol=1e-15, dense_output=False)
    ref = math.atan2(sol.y[1, -1], sol.y[0, -1])
    assert ours == pytest.approx(ref, abs=1.5e-9)


def test_magnus_step_is_sixth_order():
    # doubling the step density divides the error of closed-form Dirac-Coulomb
    # levels by about 2^6 = 64 (a 4th-order step gives 16): at half the
    # default density and e_tol 1e-14 the errors are 1e-9 to 1e-8, far above
    # the rounding floor
    channel = dm.ChannelSpec(d=3, tau=-1, j=0.5)
    for alpha, n_r in ((0.5, 1), (0.9, 2)):
        exact = coulomb_energy(CoulombLevel(n=n_r + 1, j=0.5, alpha=alpha))
        errors = []
        for density in (0.5, 1.0):
            config = dm.SolveConfig(e_tol=1e-14, step_density=density)
            state = dm.solve_batch(channel, [dm.pure_coulomb(alpha)], [n_r], config,
                                   dense_flags=[False])[0][n_r]
            errors.append(abs(state.E - exact))
        assert errors[1] > 1e-12, errors
        assert errors[0] >= 40.0 * errors[1], errors


def test_step_matrices_hold_a_bounded_working_set():
    # one step-matrix pass over a piece of _STEP_ELEMENTS step x batch
    # entries holds at most 10 arrays of the piece's size beyond its output
    # planes: four scratch planes, the index arrays of the weights it takes
    # per element (with p = -k h per element on a stack of grids) and
    # numpy's iterator buffers. No per-step array spans all of a table's
    # families, so a narrow batch on a stack of many families keeps to the
    # same budget as a wide one on one grid
    ws = S._Workspace(dm.ChannelSpec(d=3, tau=-1, j=0.5),
                      [dm.pure_coulomb(a) for a in np.linspace(0.3, 0.9, 16)],
                      S.DEFAULT_CONFIG, n_r_max=3)
    wide = ws.fine_table((0.9, 0.99), ws.trimmed_domain([0], [0.99]), np.arange(16))
    stack = prop.stack_tables([
        ws.fine_table((0.9, 0.99), ws.trimmed_domain([f], [0.99]), np.array([f, f + 1]))
        for f in (0, 4, 8, 12)])
    for table, idx, e in ((wide, np.arange(64) % 16, np.linspace(0.9, 0.99, 64)),
                          (stack, np.array([1, 6]), np.array([0.95, 0.97])),
                          (ws.coarse, np.repeat(np.arange(16), 4),
                           np.tile(np.linspace(0.5, 0.99, 4), 16))):
        em, me = e + 1.0, 1.0 - e
        steps = np.arange(prop._STEP_ELEMENTS // em.size) % table.n_steps
        sign = np.where(steps % 2, 1.0, -1.0)
        out = np.empty((5, steps.size, *em.shape))
        tracemalloc.start()
        try:
            prop._step_omega(table, steps, idx, em, me, sign, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * out[0].nbytes, peak / out[0].nbytes


def test_turning_radii_hold_a_bounded_working_set():
    # the turning radii of 200 states, as many as the coarse domain of
    # criterion 2's batch reads, are taken in pieces of _BS_ENTRIES state x
    # radius entries: the temporaries stay within 3 pieces of float64 (an
    # array of |V| over all 200 states at once is 29), and each radius is the
    # last profile radius where the state's |V| reaches m - E
    ws = S._Workspace(dm.ChannelSpec(d=3, tau=-1, j=0.5),
                      [dm.pure_coulomb(a) for a in np.linspace(0.3, 0.9, 16)],
                      S.DEFAULT_CONFIG)
    fam_idx, energies = np.arange(200) % 16, np.linspace(0.5, 0.99, 200)
    tracemalloc.start()
    try:
        r_to = ws.turning_radius(fam_idx, energies)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * S._BS_ENTRIES * 8, peak / (S._BS_ENTRIES * 8)
    for f, energy, got in zip(fam_idx, energies, r_to):
        inside = np.flatnonzero(np.abs(ws.v[f]) >= 1.0 - energy)
        assert got == ws.r[inside[-1]]


def _integral_of_inverse(a, b, x_t, h_t):
    """The integral of dx / h over [a, b] for the step rule (x_t, h_t): h
    linear between table points and held at its end values beyond them,
    summed interval by interval."""
    points = [a, *(x for x in x_t.tolist() if a < x < b), b]
    total = 0.0
    for p, q in zip(points[:-1], points[1:]):
        hp, hq = np.interp([p, q], x_t, h_t).tolist()
        total += (q - p) / hp if hq == hp else (q - p) * math.log1p((hq - hp) / hp) / (hq - hp)
    return total


def _check_march(x_lo, x_match, x_hi, rule):
    """march_nodes' contract on one call: strictly increasing nodes from
    x_lo to x_hi, x_match on the returned node i_match, ceil(integral of
    dx / h) steps on either side of it (at least one), no step longer than
    the largest h of the table intervals it overlaps, and equal steps beyond
    the table, where h is constant."""
    x_t, h_t = (np.asarray(a, dtype=float) for a in rule)
    nodes, i_match = prop.march_nodes(x_lo, x_match, x_hi, rule)
    assert np.all(np.diff(nodes) > 0)
    assert nodes[[0, i_match, -1]].tolist() == [x_lo, x_match, x_hi]
    for a, b, i, j in ((x_lo, x_match, 0, i_match), (x_match, x_hi, i_match, nodes.size - 1)):
        n_int = _integral_of_inverse(a, b, x_t, h_t)
        assert n_int * (1 - 1e-9) <= j - i and (j - i - 1 < n_int * (1 + 1e-9) or j - i == 1)
        if b <= x_t[0] or a >= x_t[-1]:
            assert np.allclose(np.diff(nodes[i:j + 1]), (b - a) / (j - i), rtol=1e-9, atol=0)
    for p, q in zip(nodes[:-1].tolist(), nodes[1:].tolist()):
        lo = max(np.searchsorted(x_t, p, side="right") - 1, 0)
        hi = min(np.searchsorted(x_t, q, side="left"), x_t.size - 1)
        assert q - p <= h_t[lo:hi + 1].max() * (1 + 1e-12)
    return nodes


@st.composite
def _step_rules(draw):
    """A span with its match break, and a positive step table, which the
    span may reach past on either side and whose points it may meet."""
    n = draw(st.integers(2, 8))
    x0 = draw(st.floats(-5, 5))
    x_t = np.cumsum([x0] + draw(st.lists(st.floats(0.01, 2.0), min_size=n - 1,
                                          max_size=n - 1)))
    h_t = draw(st.lists(st.floats(0.01, 3.0), min_size=n, max_size=n))
    x_lo = float(x_t[0]) + draw(st.floats(-3, 3))
    x_hi = x_lo + draw(st.floats(0.01, 25.0))
    x_match = x_lo + draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)) * (x_hi - x_lo)
    assume(x_lo < x_match < x_hi)
    return x_lo, x_match, x_hi, (x_t, np.asarray(h_t))


# the match break inside a steep table interval, and a span past both table
# ends; a segment so narrow that its integral of dx / h underflows to 0
@example((-0.5, 0.3, 2.5, (np.array([0.0, 2.0]), np.array([0.01, 3.0]))))
@example((0.0, 5e-324, 1.0, (np.array([0.0, 1.0]), np.array([3.0, 3.0]))))
@given(_step_rules())
def test_march_nodes_equidistributes_random_rules(case):
    _check_march(*case)


def test_march_nodes_keeps_its_contract_on_workspace_rules():
    # the coarse and fine rules of a d = 3 (log) and a d = 1 (lin) workspace,
    # over their domains with the match break, start below the profile (the
    # seed radius, and r = 0 on the d = 1 grid)
    for channel, family in ((dm.ChannelSpec(d=3, tau=-1, j=0.5), dm.pure_coulomb(0.5)),
                            (dm.ChannelSpec(d=1, parity="even"),
                             dm.cutoff_coulomb(1.0, 1.0))):
        ws = S._Workspace(channel, [family], S.DEFAULT_CONFIG)
        d = ws.domain
        span = ((math.log(d.r_seed), math.log(d.r_match), math.log(d.r_max))
                if d.param == "log" else (0.0, d.r_match, d.r_max))
        for rate, c in ((S._coarse_rate(channel, ws.env), S._COARSE_C),
                        (S._band_rate(channel, ws.r, ws.env, ws.window()), S._FINE_C)):
            rule = S._h_rule(channel, d.param, ws.r, rate, c, 1.3)
            assert span[0] < rule[0][0]
            assert _check_march(*span, rule).size > 100


@pytest.mark.parametrize("x_lo, x_match, x_hi, n_total",
                         [(0.0, 0.3, 10.0, 201), (-9.2, 1.5, 4.0, 4000), (0.0, 9.0, 10.0, 200)])
def test_uniform_nodes_put_the_match_on_the_returned_node(x_lo, x_match, x_hi, n_total):
    # n_total nodes, uniform on either side of x_match, which is node
    # i_match: the share of the span below it, two steps at least
    nodes, i_match = prop.uniform_nodes(x_lo, x_match, x_hi, n_total)
    assert nodes.size == n_total
    assert nodes[[0, i_match, -1]].tolist() == [x_lo, x_match, x_hi]
    assert i_match == max(2, round((n_total - 1) * (x_match - x_lo) / (x_hi - x_lo)))
    for a, b in ((0, i_match), (i_match, n_total - 1)):
        assert np.allclose(np.diff(nodes[a:b + 1]), (nodes[b] - nodes[a]) / (b - a),
                           rtol=1e-9, atol=0)


def _match(legs):
    """Match value and matching angle from the phase-mode results of the
    outward and inward legs (the package's phase mode also returns a slope,
    which is not compared here)."""
    ((o1, o2), th_out, *_), ((t1, t2), th_in, *_) = legs
    mval = (o1 * t2 - o2 * t1) / (np.hypot(o1, o2) * np.hypot(t1, t2))
    return mval, th_out - th_in


def _in_pieces(entry):
    """A propagation entry point (propagate, match_values or
    assemble_two_sided), forced to propagate its batch one row per piece."""
    def run(*args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(prop, "_SCAN_ELEMENTS", 1)
            return entry(*args, **kwargs)
    return run


def _match_args(table, idx, e):
    """The leading propagate arguments of a match: both legs' start values
    (the table's origin seed at node 0, the tail seed at node S) and nodes."""
    return (table, idx, e, (table.origin_values(idx, e), prop.tail_seed(table.m, e)),
            0, table.n_steps)


def _on_reference(entry):
    """match_values or assemble_two_sided on the sequential reference."""
    def run(*args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(prop, "propagate", propagate_sequential)
            return entry(*args, **kwargs)
    return run


def _assert_all_close(got, ref, atol):
    for g, r in zip(got, ref):
        assert np.allclose(g, r, rtol=1e-12, atol=atol)


def _scan_cases():
    """(table, family indices, energies, least eigenvalue count):
    coarse and whole-window fine tables of d = 3 pure Coulomb and d = 1 cutoff
    Coulomb, even and odd (whose origin seed has psi1 = 0 at node 0), and the
    state-sized fine table of each acceptance criterion 1 j = 1/2 state, on
    the band E +- 2e-3 that production uses around it (40 energies, so that
    none sits on the eigenvalue, where the count is a rounding decision)."""
    cases = []
    for channel, family in ((dm.ChannelSpec(d=3, tau=-1, j=0.5), dm.pure_coulomb(0.5)),
                            (dm.ChannelSpec(d=1, parity="even"),
                             dm.cutoff_coulomb(1.0, 1.0)),
                            (dm.ChannelSpec(d=1, parity="odd"),
                             dm.cutoff_coulomb(1.0, 1.0))):
        ws = S._Workspace(channel, [family], S.DEFAULT_CONFIG)
        bottom, top = ws.window()
        e = np.linspace(bottom, top, 41)
        for table in (ws.coarse, ws.fine_table((bottom, top), ws.domain, [0])):
            cases.append((table, np.zeros(e.size, dtype=np.intp), e, 2))
    alphas = (0.2, 0.5, 0.9)
    ws = S._Workspace(dm.ChannelSpec(d=3, tau=-1, j=0.5),
                      [dm.pure_coulomb(a) for a in alphas], S.DEFAULT_CONFIG, n_r_max=2)
    for f, alpha in enumerate(alphas):
        for n_r in range(3):
            energy = coulomb_energy(CoulombLevel(n=n_r + 1, j=0.5, alpha=alpha))
            band = (energy - 2e-3, energy + 2e-3)
            table = ws.fine_table(band, ws.trimmed_domain([f], [energy]),
                                  np.arange(len(alphas)))
            cases.append((table, np.full(40, f, dtype=np.intp), np.linspace(*band, 40), 1))
    return cases


def test_scan_matches_sequential_reference():
    # the step-parallel scan, whole and one row per piece, reproduces the
    # sequential reference in phase and record modes, and counts the same
    # eigenvalues; so do match_values and assemble_two_sided, which propagate
    # both legs in one call
    for table, idx, e, least_count in _scan_cases():
        args = _match_args(table, idx, e)
        m_ref, dth_ref = _match(propagate_sequential(*args, False, True))
        counts_ref = prop.count_below(dth_ref, dth_ref[0])
        assert counts_ref[-1] >= least_count  # the energies span eigenvalues
        # the end state of either mode is checked against the reference's
        # record mode
        records = propagate_sequential(*args, True, False)
        psi_ref = _on_reference(prop.assemble_two_sided)(table, idx, e)
        for entry in (lambda f: f, _in_pieces):
            path = entry(prop.propagate)
            phase = path(*args, False, True)
            mval, dth = _match(phase)
            assert np.allclose(mval, m_ref, rtol=1e-12, atol=1e-13)
            assert np.allclose(dth, dth_ref, rtol=1e-12, atol=1e-11)
            assert np.array_equal(prop.count_below(dth, dth[0]), counts_ref)
            for (p_end, *_), (g_end, *g_rec, g_log), (r_end, *r_rec, r_log) in zip(
                    phase, path(*args, True, False), records):
                _assert_all_close(p_end, r_end, 1e-13)
                _assert_all_close((*g_end, *g_rec), (*r_end, *r_rec), 1e-13)
                _assert_all_close([g_log], [r_log], 1e-11)
            mval, dth, _ = entry(prop.match_values)(table, idx, e)
            assert np.allclose(mval, m_ref, rtol=1e-12, atol=1e-13)
            assert np.allclose(dth, dth_ref, rtol=1e-12, atol=1e-11)
            assert np.array_equal(prop.count_below(dth, dth[0]), counts_ref)
            _assert_all_close(entry(prop.assemble_two_sided)(table, idx, e), psi_ref, 1e-13)


def _arrays(out):
    """The arrays a propagate call returns, leg after leg, end states
    unpacked."""
    return [a for leg in out for a in (*leg[0], *leg[1:])]


def test_scan_keeps_batch_columns_apart():
    # the packed scan broadcasts over the 2x2 axes only: in one scan
    # covering both legs, each with a short last block, every column of a
    # mixed batch (two families, three energies) gets bitwise the values it
    # gets alone in phase and record modes, the E-slope included: each
    # column's quadrature sum is taken alone, in step order, whatever the
    # batch width. Energies near the top of the gap spread |y|^2 over many
    # nodes, where a sum over the batch's blocks rounds differently from a
    # column's own.
    channel = dm.ChannelSpec(d=3, tau=-1, j=0.5)
    ws = S._Workspace(channel, [dm.pure_coulomb(0.5), dm.pure_coulomb(0.9)],
                      S.DEFAULT_CONFIG)
    table = ws.coarse
    idx, e = np.array([0, 1, 0]), np.array([0.5, 0.99, 0.999])
    assert table.n_steps * e.size <= prop._SCAN_ELEMENTS
    for n_steps in (table.i_match, table.n_steps - table.i_match):
        assert n_steps % (math.isqrt(n_steps - 1) + 1)

    args = _match_args(table, idx, e)
    for record, phase in ((True, False), (False, True)):
        batch = _arrays(prop.propagate(*args, record, phase))
        for b in range(e.size):
            col = slice(b, b + 1)
            alone = _arrays(prop.propagate(*_match_args(table, idx[col], e[col]),
                                           record, phase))
            for g, a in zip(batch, alone):
                assert np.array_equal(g[..., col], a)


def _criterion_1_tables():
    """{(family, n_r): fine table} for acceptance criterion 1's
    j = 1/2 states, each table on its own trimmed domain and band E +- 2e-3,
    as the fine stage builds them for a group of that state alone."""
    alphas = (0.2, 0.5, 0.9)
    ws = S._Workspace(dm.ChannelSpec(d=3, tau=-1, j=0.5),
                      [dm.pure_coulomb(a) for a in alphas], S.DEFAULT_CONFIG, n_r_max=2)
    tables = {}
    for f, alpha in enumerate(alphas):
        for n_r in range(3):
            energy = coulomb_energy(CoulombLevel(n=n_r + 1, j=0.5, alpha=alpha))
            tables[f, n_r] = ws.fine_table((energy - 2e-3, energy + 2e-3),
                                           ws.trimmed_domain([f], [energy]), np.array([f]))
    return tables


def _nested_pair(tables):
    """Keys (long, short) of the first two of the tables, of different
    families, where the short one is shorter than the long one by more than
    7 steps on both match legs: stacked after it, it is padded front and
    back."""
    def legs(key):
        return np.array([tables[key].i_match, tables[key].n_steps - tables[key].i_match])

    return next((a, b) for a, b in itertools.permutations(tables, 2)
                if a[0] != b[0] and np.all(legs(a) - legs(b) > 7))


def test_stack_keeps_an_unpadded_table_bitwise():
    # a table stacked alone, or first with a table shorter on both legs,
    # needs no padding: its columns get bitwise its own results on both match
    # legs in record and phase modes (the stack gathers its grid
    # columns per element, where a table on one grid broadcasts its one)
    tables = _criterion_1_tables()
    long, short = (tables[k] for k in _nested_pair(tables))
    assert long.i_match > short.i_match
    assert long.n_steps - long.i_match > short.n_steps - short.i_match
    e = np.linspace(0.88, 0.95, 5)
    idx = np.zeros(e.size, dtype=np.intp)
    for stack in (prop.stack_tables([long]), prop.stack_tables([long, short])):
        assert stack.n_steps == long.n_steps and stack.i_match == long.i_match
        for record, phase in ((True, False), (False, True)):
            got = _arrays(prop.propagate(*_match_args(stack, idx, e), record, phase))
            own = _arrays(prop.propagate(*_match_args(long, idx, e), record, phase))
            for g, o in zip(got, own):
                assert np.array_equal(g, o)


def test_zero_length_steps_end_on_the_unpadded_state():
    # zero-length steps at the end of a leg are exact identities: filling
    # the scan's last block of the outward leg, they end it bitwise on the
    # state, angle and E-slope of the leg without them, and every padded node
    # records that end state; the inward leg, the same steps either way, is
    # bitwise the same
    tables = _criterion_1_tables()

    def last_block(n):
        """(identity fill, steps) of the last scan block of an n-step leg"""
        bs = math.isqrt(n - 1) + 1
        return -n % bs, n % bs

    # a table whose outward leg, 0 -> n, needs a fill of several steps and
    # does not start its last block with its last step
    t = next(t for t in tables.values()
             if last_block(t.i_match)[0] > 1 and last_block(t.i_match)[1] != 1)
    n, (pad, _) = t.i_match, last_block(t.i_match)

    def padded_at_match(a, fill=0.0):
        return np.concatenate([a[:n], np.full((pad, *a.shape[1:]), fill), a[n:]])

    padded = prop.StepTable(
        k=t.k, m=t.m, r_nodes=padded_at_match(t.r_nodes, t.r_nodes[n]),
        h=padded_at_match(t.h), rmul=padded_at_match(t.rmul), w=padded_at_match(t.w),
        i_match=n + pad, grid=t.grid, seed=t.seed)
    padded._norm[0, n + pad] = np.pad(t.norm_weights(0, n), ((0, 0), (0, pad), (0, 0)))
    e = np.linspace(0.9, 0.99, 4)
    idx = np.zeros(e.size, dtype=np.intp)
    for record, phase in ((True, False), (False, True)):
        got = prop.propagate(*_match_args(padded, idx, e), record, phase)
        own = prop.propagate(*_match_args(t, idx, e), record, phase)
        if record:
            out_rec = got[0][1:]
            assert all(np.array_equal(g[n:], np.broadcast_to(g[n], g[n:].shape))
                       for g in out_rec)
            got = ((got[0][0], *(g[:n + 1] for g in out_rec)), got[1])
        for g, o in zip(_arrays(got), _arrays(own)):
            assert np.array_equal(g, o)


def test_stack_matches_sequential_reference():
    # two of criterion 1's groups with different match nodes and step counts,
    # each padded on one leg: in the stack, whole and one row per piece, the
    # match values and angles of every column (from propagate and from
    # match_values) and the assembled states agree with the sequential
    # reference on the stack, and the match values and angles with the
    # column's own table, within the tolerances of
    # test_scan_matches_sequential_reference, and count the same
    # eigenvalues; the E-slopes agree with the own tables' to 1e-10
    tables = _criterion_1_tables()
    pair = [tables[0, 2], tables[2, 0]]
    stack = prop.stack_tables(pair)
    assert pair[0].i_match < stack.i_match == pair[1].i_match
    assert (pair[1].n_steps - pair[1].i_match
            < stack.n_steps - stack.i_match == pair[0].n_steps - pair[0].i_match)
    levels = [coulomb_energy(CoulombLevel(n=n_r + 1, j=0.5, alpha=alpha))
              for alpha, n_r in ((0.2, 2), (0.9, 0))]
    e = np.concatenate([np.linspace(lv - 2e-3, lv + 2e-3, 40) for lv in levels])
    idx = np.repeat([0, 1], 40)
    args = _match_args(stack, idx, e)
    m_ref, dth_ref = _match(propagate_sequential(*args, False, True))
    psi_ref = _on_reference(prop.assemble_two_sided)(stack, idx, e)
    for entry in (lambda f: f, _in_pieces):
        for mval, dth, *_ in (_match(entry(prop.propagate)(*args, False, True)),
                              entry(prop.match_values)(stack, idx, e)):
            assert np.allclose(mval, m_ref, rtol=1e-12, atol=1e-13)
            assert np.allclose(dth, dth_ref, rtol=1e-12, atol=1e-11)
        _assert_all_close(entry(prop.assemble_two_sided)(stack, idx, e), psi_ref, 1e-13)
    mval, dth, slope = prop.match_values(stack, idx, e)
    for g, table in enumerate(pair):
        col = idx == g
        own_m, own_dth, own_slope = prop.match_values(
            table, np.zeros(40, dtype=np.intp), e[col])
        assert np.allclose(mval[col], own_m, rtol=1e-12, atol=1e-13)
        assert np.allclose(dth[col], own_dth, rtol=1e-12, atol=1e-11)
        assert np.array_equal(prop.count_below(dth[col], dth[col][0]),
                              prop.count_below(own_dth, own_dth[0]))
        assert prop.count_below(own_dth, own_dth[0])[-1] >= 1
        assert np.allclose(slope[col], own_slope, rtol=1e-10, atol=0)


def test_a_leg_does_not_depend_on_the_other_leg():
    # a leg's results in record and phase modes, the E-slope (with the
    # inward leg's beyond) included, are bitwise the same whatever the other
    # leg of the call: the outward leg with the inward leg from node S or,
    # with other start values, of one step, and the inward leg with the
    # outward leg from node 0 or of one step, which lay the scan's blocks
    # out differently; on a table whose legs differ in length, and on a
    # stack whose legs differ more, whole and one row per piece
    tables = _criterion_1_tables()
    stack = prop.stack_tables([tables[0, 2], tables[2, 0]])
    # a stack forms the norm weights of its match legs only; the other legs'
    # slopes are not compared
    for start in (stack.i_match - 1, stack.i_match + 1):
        stack._norm[start, stack.i_match] = np.ones((3, abs(start - stack.i_match) + 1, 2))
    for table, idx in ((tables[1, 1], np.zeros(6, dtype=np.intp)),
                       (stack, np.repeat([0, 1], 3))):
        assert table.i_match != table.n_steps - table.i_match
        e = np.linspace(0.9, 0.999, idx.size)
        *_, (y0, yt), i_from, i_to = _match_args(table, idx, e)
        beyond = (yt[0] ** 2 + yt[1] ** 2) / (2 * np.sqrt(1.0 - e * e))
        other = (np.full(e.size, 0.3), np.full(e.size, -0.8))
        for entry in (prop.propagate, _in_pieces(prop.propagate)):
            for record, phase in ((True, False), (False, True)):
                def run(starts, i_out, i_in):
                    return entry(table, idx, e, starts, i_out, i_in, record, phase,
                                 beyond=beyond)

                outward, inward = run((y0, yt), i_from, i_to)
                for got, own in ((run((y0, other), i_from, table.i_match + 1)[0], outward),
                                 (run((other, yt), table.i_match - 1, i_to)[1], inward)):
                    for g, o in zip(_arrays([got]), _arrays([own])):
                        assert np.array_equal(g, o)


def _wide_table():
    """(workspace, fine table, family indices, energies): columns of a
    16-coupling d = 3 pure Coulomb workspace near the top of the gap, as
    many as a match evaluation propagates in four pieces, the last one
    half full."""
    ws = S._Workspace(dm.ChannelSpec(d=3, tau=-1, j=0.5),
                      [dm.pure_coulomb(a) for a in np.linspace(0.3, 0.9, 16)],
                      S.DEFAULT_CONFIG, n_r_max=3)
    table = ws.fine_table((0.9, 0.99), ws.trimmed_domain([0], [0.99]), np.arange(16))
    rows = prop._SCAN_ELEMENTS // table.n_steps    # of one piece
    n_cols = 3 * rows + rows // 2
    idx, e = np.arange(n_cols) % 16, np.linspace(0.9, 0.99, n_cols)
    assert -(-e.size // rows) == 4
    return ws, table, idx, e


def test_columns_do_not_depend_on_the_batch():
    # each column of a batch wide enough for several pieces gets bitwise
    # what it gets propagated alone: its match value, angle and E-slope
    # from match_values, and its end states and recorded nodes from a
    # record-mode call of both legs
    _, table, idx, e = _wide_table()

    def record(idx, e):
        return _arrays(prop.propagate(*_match_args(table, idx, e), record=True))

    batch = [prop.match_values(table, idx, e), record(idx, e)]
    for b in range(e.size):
        col = slice(b, b + 1)
        alone = [prop.match_values(table, idx[col], e[col]),
                 record(idx[col], e[col])]
        for got, own in zip(batch, alone):
            for g, o in zip(got, own):
                assert np.array_equal(g[..., col], o)


def test_rows_of_families_evaluate_as_the_flat_batch():
    # match_values with fam_idx None takes one row of E per family of the
    # table: bitwise the flat batch of its rows, row after row, in E's shape
    ws, *_ = _wide_table()
    e = np.linspace(0.5, 0.99, 16 * 3).reshape(16, 3)
    rows = prop.match_values(ws.coarse, None, e)
    flat = prop.match_values(ws.coarse, np.repeat(np.arange(16), 3), e.reshape(-1))
    for got, want in zip(rows, flat):
        assert got.shape == e.shape
        assert np.array_equal(got.reshape(-1), want)


def test_each_scan_holds_whole_legs_of_bounded_pieces(monkeypatch):
    # every scan of a call holds all the steps of both its legs, for a piece
    # of the batch's columns of at most max(_SCAN_ELEMENTS, the steps of one
    # column) step x element entries, and the pieces cover the batch: match
    # evaluations of 16 families x 200 and x 20 energies on the coarse table
    # (298 steps, so 219 columns a piece: 15 and 2 pieces) and of the wide
    # table's batch (4 pieces), in phase and in record mode
    ws, table, idx, e = _wide_table()
    scans = []
    real = prop._scan_states

    def spying(P, lay, starts):
        scans.append((P.shape, lay.n))
        return real(P, lay, starts)

    monkeypatch.setattr(prop, "_scan_states", spying)
    grid = np.linspace(0.9, 0.99, 200)
    calls = [(ws.coarse, np.repeat(np.arange(16), 200), np.tile(grid, 16)),
             (ws.coarse, np.repeat(np.arange(16), 20), np.tile(grid[:20], 16)),
             (table, idx, e)]
    pieces = []
    for tab, fam_idx, energies in calls:
        for record, phase in ((False, True), (True, False)):
            scans.clear()
            prop.propagate(*_match_args(tab, fam_idx, energies), record, phase)
            assert all(n == tab.n_steps and len(shape) == 3
                       and shape[1] * shape[2] <= max(prop._SCAN_ELEMENTS, tab.n_steps)
                       for shape, n in scans)
            assert sum(shape[2] for shape, _ in scans) == energies.size
            pieces.append(len(scans))
    assert ws.coarse.n_steps == 298
    assert pieces == [15, 15, 2, 2, 4, 4]


def test_criterion_1_propagates_both_legs_in_one_call(monkeypatch):
    # every match evaluation and every dense assembly of criterion 1's two
    # solves is a single propagate call, carrying both legs
    calls = {"propagate": 0, "match_values": 0, "assemble_two_sided": 0}

    def counting(name):
        real = getattr(prop, name)

        def run(*args, **kwargs):
            calls[name] += 1
            assert name != "propagate" or args[4:6] == (0, args[0].n_steps)
            return real(*args, **kwargs)
        return run

    for name in calls:
        monkeypatch.setattr(prop, name, counting(name))
    _criterion_1_batches()
    assert calls["propagate"] == calls["match_values"] + calls["assemble_two_sided"]
    assert calls["assemble_two_sided"] > 0


def test_angle_where_psi1_is_zero_at_nodes():
    # the angle read from the start sector, the sign changes of psi1 and the
    # end direction agrees with the sequential reference's unwrapped angle
    # where psi1 is exactly 0: on the start node and the interior nodes of a
    # run of zero-length steps (the padding a stack gives the shorter of two
    # tables, whole and one row per piece), and on the
    # last node of a leg that ends in such a run; psi2 of either sign, both
    # directions. The legs end on the stack's match node, or on the end of
    # its front or back padding taken as the match node
    tables = _criterion_1_tables()
    long, short = (tables[k] for k in _nested_pair(tables))
    stack = prop.stack_tables([long, short])
    lead = stack.i_match - short.i_match
    back = stack.n_steps - stack.i_match - (short.n_steps - short.i_match)
    assert lead > 7 and back > 7
    e = np.linspace(0.88, 0.95, 6)
    idx = np.ones(e.size, dtype=np.intp)          # the short table's family
    y0 = (np.zeros(e.size), np.array([1.0, -1.0] * 3))
    for i_match in (stack.i_match, lead, stack.n_steps - back):
        table = dataclasses.replace(stack, i_match=i_match, _norm={
            (start, i_match): np.ones((3, abs(start - i_match) + 1, 2))
            for start in (0, stack.n_steps)})
        args = (table, idx, e, (y0, y0), 0, table.n_steps, False, True)
        ref = propagate_sequential(*args)
        for entry in (lambda f: f, _in_pieces):
            for (_, th, _), (_, th_ref, _) in zip(entry(prop.propagate)(*args), ref):
                assert np.allclose(th, th_ref, rtol=1e-12, atol=1e-11)
                assert np.array_equal(np.floor(th / np.pi), np.floor(th_ref / np.pi))


def test_lockstep_matches_groups_searched_alone(monkeypatch):
    # criterion 1's batches search their energy groups in lockstep; searched
    # one group at a time (a lockstep bound of zero) they give the same node
    # counts and E within 1e-9, and a one-group batch is bitwise the same
    batches = _criterion_1_batches()
    single = dm.solve(dm.ChannelSpec(d=3, tau=-1, j=0.5), dm.pure_coulomb(0.5), 1)
    monkeypatch.setattr(S, "_LOCKSTEP_ENTRIES", 0)
    for together, alone in zip(batches, _criterion_1_batches()):
        for per_fam, per_fam_alone in zip(together, alone):
            assert per_fam.keys() == per_fam_alone.keys()
            for n_r, st in per_fam.items():
                assert st.nodes == per_fam_alone[n_r].nodes == n_r
                assert abs(st.E - per_fam_alone[n_r].E) <= 1e-9
    again = dm.solve(dm.ChannelSpec(d=3, tau=-1, j=0.5), dm.pure_coulomb(0.5), 1)
    assert single.E == again.E
    assert np.array_equal(single.psi1, again.psi1) and np.array_equal(single.psi2, again.psi2)


def test_phase_slope_matches_central_difference():
    # each leg's E-slope of its angle, from the integral of |y|^2 along it
    # (W' = -|y|^2), against a central difference of the same leg's angle,
    # with E-dependent seeds; the inward leg adds the tail seed's own slope
    # 1/(2 lambda). The scan whole and one row per piece; match_values, run
    # the same way, returns bitwise the difference of the two legs' slopes.
    h = 1e-8
    for table, idx, e, _ in _scan_cases():
        for entry in (lambda f: f, _in_pieces):
            def angles(energy, **kw):
                legs = entry(prop.propagate)(*_match_args(table, idx, energy),
                                             False, True, **kw)
                return [th for _, th, _ in legs]

            yt = prop.tail_seed(table.m, e)
            lam = np.sqrt((table.m - e) * (table.m + e))
            beyond = (yt[0] ** 2 + yt[1] ** 2) / (2 * lam)
            slopes = [slope for *_, slope in entry(prop.propagate)(
                *_match_args(table, idx, e), False, True, beyond=beyond)]
            for slope, up, down in zip(slopes, angles(e + h), angles(e - h)):
                central = (up - down) / (2 * h)
                assert np.all(np.abs(slope - central) <= 1e-4 * np.abs(central))
            _, _, d_match = entry(prop.match_values)(table, idx, e)
            assert np.array_equal(d_match, slopes[0] - slopes[1])


# the origin seed of a hand-built one-family table: start values (1, 0) at
# every energy
PSI1_SEED = np.array([[[1.0, 0.0], [0.0, 0.0]]])


def test_rotation_limit_raises_at_first_offending_step():
    # a deliberately coarse grid through a deep well: several steps rotate
    # the solution too far to unwrap the phase, and the scan must refuse at
    # the same first offending step, in traversal order, as the reference
    fam = dm.cutoff_coulomb(20.0, 1.0)
    table = prop.build_step_table("lin", 0.0, 1.0, [fam],
                                  np.linspace(0.0, 10.0, 21), 1, PSI1_SEED)
    e = np.array([-0.5, 0.0, 0.5])
    idx = np.zeros(e.size, dtype=np.intp)
    y0 = (np.ones(e.size), np.zeros(e.size))
    messages = []
    # the first leg outward (0 -> 1), then inward (20 -> 1): it offends first
    for i_from, i_to in ((0, table.n_steps), (table.n_steps, 0)):
        args = (table, idx, e, (y0, y0), i_from, i_to)
        with pytest.raises(NumericalError) as ref:
            propagate_sequential(*args, False, True)
        for scan in (prop.propagate, _in_pieces(prop.propagate)):
            with pytest.raises(NumericalError) as got:
                scan(*args, False, True)
            assert str(got.value) == str(ref.value)
        messages.append(str(ref.value))
        # the check guards phase unwrapping only; record mode still runs
        prop.propagate(*args, True, False)
    assert messages[0] != messages[1]  # traversal order picks the step
    # match_values names the outward leg's first offending step; the
    # table's seed starts it on y0
    for entry in (lambda f: f, _in_pieces):
        with pytest.raises(NumericalError) as got:
            entry(prop.match_values)(table, idx, e)
        assert str(got.value) == messages[0]


def _two_wells(depth):
    """V = -depth in two narrow wells, at r = 4 and r = 9.75."""
    def shape(r):
        r = np.asarray(r, dtype=float)
        return -(np.exp(-(r - 4.0) ** 2 / 0.1) + np.exp(-(r - 9.75) ** 2 / 0.1))

    return custom_family("two-wells", lambda p, r: p["g"] * shape(r),
                         {"g": lambda p, r: shape(r)}, OriginClass("regular"),
                         {"g": depth}, "g", origin_value=lambda p: 0.0)


def test_rotation_error_names_the_outward_leg_first():
    # both legs of a match in one call: the refusal names the first
    # offending step of the outward leg when it has one, and otherwise the
    # inward leg's first, as the legs propagated one after the other do,
    # with w^2 the largest over the batch, whole and one row per piece
    e = np.array([-0.5, 0.0, 0.5])
    idx = np.zeros(e.size, dtype=np.intp)
    y0 = (np.ones(e.size), np.zeros(e.size))
    for i_match, step in ((15, 7), (5, 19)):
        table = prop.build_step_table("lin", 0.0, 1.0, [_two_wells(20.0)],
                                      np.linspace(0.0, 10.0, 21), i_match, PSI1_SEED)
        with pytest.raises(NumericalError) as ref:
            propagate_sequential(table, idx, e, (y0, prop.tail_seed(1.0, e)), 0,
                                 table.n_steps, False, True)
        assert str(ref.value).startswith(f"step {step} ")
        for entry in (lambda f: f, _in_pieces):
            with pytest.raises(NumericalError) as got:
                entry(prop.match_values)(table, idx, e)
            assert str(got.value) == str(ref.value)


def test_step_table_and_propagate_reject_bad_arguments():
    fam = dm.cutoff_coulomb(1.0, 1.0)
    x = np.linspace(0.0, 5.0, 11)
    with pytest.raises(DomainError):
        prop.build_step_table("lin", 0.0, 1.0, [fam], x[::-1], 5, PSI1_SEED)
    with pytest.raises(DomainError):
        prop.build_step_table("lin", -1.0, 1.0, [fam], x, 5, PSI1_SEED)
    with pytest.raises(DomainError):
        prop.build_step_table("sqrt", 0.0, 1.0, [fam], x, 5, PSI1_SEED)
    table = prop.build_step_table("lin", 0.0, 1.0, [fam], x, 5, PSI1_SEED)
    e = np.array([0.5])
    y0 = ((e, e), (e, e))
    for record in (False, True):    # both modes, or neither
        with pytest.raises(ConfigurationError):
            prop.propagate(table, np.zeros(1, dtype=np.intp), e, y0, 0, 10,
                           record=record, phase=record)
        # a leg of no steps, either one
        for i_from, i_to in ((5, 10), (0, 5)):
            with pytest.raises(DomainError):
                prop.propagate(table, np.zeros(1, dtype=np.intp), e, y0, i_from, i_to,
                               record=record, phase=not record)


# ---------------------------------------------------------------------------
# index-counted bracket search
# ---------------------------------------------------------------------------

SEARCH_TOL = 1e-10
SEARCH_TARGETS = np.array([0, 0, 1, 1, 2, 2])


@pytest.fixture(scope="module")
def search_tables():
    """(table, window) for d = 3 pure Coulomb and d = 1 cutoff Coulomb, each
    on its coarse table and on a fine table."""
    out = []
    for channel, family in ((dm.ChannelSpec(d=3, tau=-1, j=0.5), dm.pure_coulomb(0.5)),
                            (dm.ChannelSpec(d=1, parity="even"),
                             dm.cutoff_coulomb(1.0, 1.0))):
        ws = S._Workspace(channel, [family], S.DEFAULT_CONFIG)
        window = ws.window()
        fine = ws.fine_table(window, ws.domain, [0])
        out.extend((table, window) for table in (ws.coarse, fine))
    return out


def _random_brackets(table, window, rng):
    """Brackets around eigenvalue index t for each t in SEARCH_TARGETS: each
    end is drawn between the scan point next to the eigenvalue and the window
    edge on its side, so some brackets are narrow and some span many levels.
    Returns (lo, hi, dtheta_bottom) with the precondition checked."""
    bottom, top = window
    e = np.linspace(bottom, top, 400)
    _, th, _ = prop.match_values(table, np.zeros(e.size, dtype=np.intp), e)
    counts = prop.count_below(th, th[0])
    lo, hi = [], []
    for t in SEARCH_TARGETS:
        e_lo = e[np.nonzero(counts <= t)[0][-1]]
        e_hi = e[np.nonzero(counts > t)[0][0]]
        lo.append(e_lo - rng.uniform() ** 3 * (e_lo - bottom))
        hi.append(e_hi + rng.uniform() ** 3 * (top - e_hi))
    return np.array(lo), np.array(hi), np.full(SEARCH_TARGETS.size, th[0])


def _centre_brackets(table, window, rng):
    """Brackets as the fine stage builds them: a centre within 3e-6 of
    eigenvalue index t (a coarse-search estimate), and the window edge on the
    other side of the centre's count."""
    bottom, top = window
    lo, hi, dtb = _random_brackets(table, window, rng)
    centre = _bisection_oracle(table, lo, hi, dtb, 1e-6)
    centre += rng.uniform(-3e-6, 3e-6, centre.size)
    idx = np.zeros(centre.size, dtype=np.intp)
    _, th, _ = prop.match_values(table, idx, centre)
    up = prop.count_below(th, dtb) <= SEARCH_TARGETS
    return np.where(up, centre, bottom), np.where(up, top, centre), dtb


def _ends(table, lo, hi):
    idx = np.zeros(lo.size, dtype=np.intp)
    return [prop.match_values(table, idx, e) for e in (lo, hi)]


def _bisection_oracle(table, lo, hi, dtb, tol):
    """Plain count bisection on the same table, down to width tol."""
    idx = np.zeros(lo.size, dtype=np.intp)
    while np.max(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        _, th, _ = prop.match_values(table, idx, mid)
        below = prop.count_below(th, dtb) <= SEARCH_TARGETS
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def test_count_bisect_against_bisection_oracle(search_tables, monkeypatch):
    # Every point the search evaluates is recorded and the bracket is replayed
    # from the recorded eigenvalue counts: each point must lie strictly inside
    # its element's bracket, only the open brackets may be propagated, and the
    # replayed brackets must end exactly where the search ended, so
    # count(lo) <= target < count(hi) held at every iteration. The brackets
    # are random, or start from a centre with the window edge as the far end.
    rng = np.random.default_rng(5)
    targets = SEARCH_TARGETS
    idx = np.zeros(targets.size, dtype=np.intp)
    real = prop.match_values
    for (table, window), brackets in itertools.product(
            search_tables, (_random_brackets, _centre_brackets)):
        lo, hi, dtb = brackets(table, window, rng)
        ends = _ends(table, lo, hi)
        assert np.all(prop.count_below(ends[0][1], dtb) <= targets)
        assert np.all(prop.count_below(ends[1][1], dtb) > targets)
        calls = []

        def recording(tab, fam_idx, e, *args, **kwargs):
            out = real(tab, fam_idx, e, *args, **kwargs)
            calls.append((np.array(e), out[1]))
            return out

        with monkeypatch.context() as mp:
            mp.setattr(prop, "match_values", recording)
            e_star, _, width, evals = prop.count_bisect(table, idx, lo, hi, targets,
                                                        dtb, SEARCH_TOL, ends=ends)

        r_lo, r_hi = lo.copy(), hi.copy()
        steps = np.zeros(targets.size, dtype=int)
        for e, th in calls:
            act = np.nonzero(r_hi - r_lo > SEARCH_TOL)[0]
            assert e.size == act.size
            assert np.all((r_lo[act] < e) & (e < r_hi[act]))
            below = prop.count_below(th, dtb[act]) <= targets[act]
            r_lo[act] = np.where(below, e, r_lo[act])
            r_hi[act] = np.where(below, r_hi[act], e)
            steps[act] += 1
        assert np.array_equal(evals, steps)
        assert np.array_equal(width, r_hi - r_lo)
        assert np.all(width <= SEARCH_TOL)
        assert np.array_equal(e_star, 0.5 * (r_lo + r_hi))
        assert np.all(steps <= 3 * np.ceil(np.log2((hi - lo) / SEARCH_TOL)) + 2)

        # the eigenvalue counts on either side of E are the target's
        for shift, want in ((-SEARCH_TOL, targets), (SEARCH_TOL, targets + 1)):
            _, th, _ = prop.match_values(table, idx, e_star + shift)
            assert np.array_equal(prop.count_below(th, dtb), want)
        e_ref = _bisection_oracle(table, lo, hi, dtb, SEARCH_TOL)
        assert np.all(np.abs(e_star - e_ref) <= SEARCH_TOL)


def test_count_bisect_end_reuse_and_repeats_are_bitwise(search_tables):
    rng = np.random.default_rng(11)
    idx = np.zeros(SEARCH_TARGETS.size, dtype=np.intp)
    for table, window in search_tables:
        lo, hi, dtb = _random_brackets(table, window, rng)
        args = (table, idx, lo, hi, SEARCH_TARGETS, dtb, SEARCH_TOL)
        ends = _ends(table, lo, hi)
        once = prop.count_bisect(*args, ends=ends)
        again = prop.count_bisect(*args, ends=ends)
        fresh = prop.count_bisect(*args, ends=_ends(table, lo, hi))
        for a, b, c in zip(once, again, fresh):
            assert np.array_equal(a, b) and np.array_equal(a, c)


def test_count_bisect_closed_bracket_reports_end_residual(search_tables, monkeypatch):
    # a bracket within tol on entry takes no step: E is its midpoint and |M|
    # the larger of the two end values, which were computed, not zero
    table, _ = search_tables[1]
    e0 = 0.8660254037844386   # closed-form d = 3 Coulomb ground state, alpha 0.5
    lo, hi = np.array([e0 - 3e-4]), np.array([e0 + 3e-4])
    (m_lo, th_lo, d_lo), (m_hi, th_hi, d_hi) = _ends(table, lo, hi)
    dtb = th_lo  # counts from lo: the bracket holds eigenvalue index 0
    assert prop.count_below(th_hi, dtb)[0] == 1
    monkeypatch.setattr(prop, "match_values", None)  # no evaluation may run
    e_star, m_abs, width, evals = prop.count_bisect(
        table, np.zeros(1, dtype=np.intp), lo, hi, np.array([0]), dtb, 1e-3,
        ends=((m_lo, th_lo, d_lo), (m_hi, th_hi, d_hi)))
    assert e_star[0] == 0.5 * (lo[0] + hi[0])
    assert width[0] == hi[0] - lo[0]
    assert m_abs[0] == max(abs(m_lo[0]), abs(m_hi[0])) > 0
    assert evals[0] == 0


FINE_EVALS_CRITERION_1 = 40
MATCH_CALLS_CRITERION_1 = 22


def test_search_below_one_ulp_ends_promptly(channel_s, coulomb_half):
    # e_tol far below the float spacing, where the margin rounds away: the
    # Newton straddle widens to two float spacings and no point on a bracket
    # end is evaluated, so the fine bracket closes on two adjacent floats in
    # a few evaluations instead of running out the pace bound
    cfg = dm.SolveConfig(e_tol=1e-18)
    states = [dm.solve(channel_s, coulomb_half, 1, cfg),
              *dm.solve_batch(channel_s, [coulomb_half], [0, 1, 2], cfg)[0].values()]
    for st in states:
        assert 0 < st.diagnostics["bracket_width"] <= np.spacing(st.E)
        assert st.diagnostics["fine_evals"] <= 12
    assert_close(states[0].E, 0.9659258262890683, 1e-9, "E(n=2, alpha=0.5)")


def _criterion_1_batches():
    return [dm.solve_batch(dm.ChannelSpec(d=3, tau=-1, j=j),
                           [dm.pure_coulomb(a) for a in (0.2, 0.5, 0.9)], [0, 1, 2])
            for j in (0.5, 1.5)]


def test_fine_search_evaluations_on_criterion_1():
    # Newton from the coarse centre: acceptance criterion 1's 18 fine
    # searches take at most FINE_EVALS_CRITERION_1 evaluations in all (a
    # deterministic count, pinned at the value measured with the two-step
    # Newton-or-midpoint search)
    total = 0
    for res in _criterion_1_batches():
        total += sum(st.diagnostics["fine_evals"] for per_fam in res
                     for st in per_fam.values())
    assert total <= FINE_EVALS_CRITERION_1


def test_fine_search_matched_inside_the_allowed_region():
    # j = 3/2, alpha = 0.2, n_r = 2 alone, a level behind the centrifugal
    # barrier: matched at half its turning radius, where its angle is smooth
    # in E, Newton from the coarse centre converges in a few evaluations
    st = dm.solve(dm.ChannelSpec(d=3, tau=-1, j=1.5), dm.pure_coulomb(0.2), 2)
    assert st.diagnostics["fine_evals"] <= 4


def test_search_evaluations_on_criterion_1(monkeypatch):
    # every batched match evaluation of criterion 1's two solves, window ends,
    # coarse and fine searches and fine brackets alike, counted at the
    # propagation boundary: at most MATCH_CALLS_CRITERION_1 calls (the value
    # measured with each solve's energy groups searched in lockstep)
    calls = []
    real = prop.match_values

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(prop, "match_values", counting)
    _criterion_1_batches()
    assert len(calls) <= MATCH_CALLS_CRITERION_1


@pytest.mark.parametrize("j", [0.5, 1.5])
def test_predicted_levels_on_criterion_1(j):
    # the semiclassical count is exact for Dirac-Coulomb up to its quadrature
    # on the profile: each of criterion 1's predictions lies within 0.01 of a
    # level spacing of the closed form (measured: 1.3e-3), and the count at
    # the closed-form level is within 0.01 of n_r (measured: 1.0e-3)
    alphas = (0.2, 0.5, 0.9)
    ws = S._Workspace(dm.ChannelSpec(d=3, tau=-1, j=j),
                      [dm.pure_coulomb(a) for a in alphas], dm.SolveConfig(), n_r_max=2)
    fam_idx, n_r = np.repeat(np.arange(3), 3), np.tile(np.arange(3), 3)
    exact, above = (np.array([coulomb_energy(CoulombLevel(n=int(n + j + 0.5) + up, j=j,
                                                          alpha=alphas[f]))
                              for f, n in zip(fam_idx, n_r)]) for up in (0, 1))
    predicted = ws.predicted_levels(fam_idx, n_r)
    assert np.all(np.abs(predicted - exact) <= 0.01 * (above - exact))
    assert np.all(np.abs(ws._bs_count(fam_idx, exact) - n_r) <= 0.01)


@pytest.mark.parametrize("channel, shallow", [
    (dm.ChannelSpec(d=1, parity="even"), dm.cutoff_coulomb(1e-9, 1.0)),
    (dm.ChannelSpec(d=1, parity="odd"), dm.cutoff_coulomb(1e-9, 1.0)),
    (dm.ChannelSpec(d=3, tau=1, j=0.5), dm.pure_coulomb(1e-9)),
], ids=["d1-even", "d1-odd", "d3-tau+1"])
def test_predicted_levels_raise_no_warning(channel, shallow):
    # d = 1 has k = 0 and a profile from 2e-12; a target above the count at
    # the window top gets the top, and so does every index of a shallow
    # family, whose threshold E_0 lies above the window (above m for d = 3)
    ws = S._Workspace(channel, [dm.cutoff_coulomb(1.0, a) for a in (0.6, 1.0, 1.4)]
                      + [shallow], dm.SolveConfig())
    if channel.d == 1:
        assert ws.r[0] == 2e-12
    fam_idx, targets = np.repeat(np.arange(4), 4), np.tile([0, 1, 2, 10 ** 6], 4)
    bottom, top = ws.window()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        predicted = ws.predicted_levels(fam_idx, targets).reshape(4, 4)
    assert np.all((bottom <= predicted) & (predicted <= top))
    assert np.all(np.diff(predicted[:3, :3], axis=1) > 0)
    assert np.all(predicted[:, 3] == top) and np.all(predicted[3] == top)


def _estimates_two_levels_up(monkeypatch):
    """Make every coarse search start from the estimate of its index + 2."""
    predicted = S._Workspace.predicted_levels

    def two_levels_up(self, fam_idx, targets):
        return predicted(self, fam_idx, np.asarray(targets) + 2)

    monkeypatch.setattr(S._Workspace, "predicted_levels", two_levels_up)


def test_estimate_two_levels_off_keeps_the_index(channel_s, monkeypatch):
    # the estimate only picks where a coarse search starts; the index comes
    # from the matching-angle count, so a forced bad estimate still returns
    # the requested states
    _estimates_two_levels_up(monkeypatch)
    res = dm.solve_batch(channel_s, [dm.pure_coulomb(0.5), dm.pure_coulomb(0.9)], [0, 1, 2])
    for alpha, per_fam in zip((0.5, 0.9), res):
        for n_r, st in per_fam.items():
            exact = coulomb_energy(CoulombLevel(n=n_r + 1, j=0.5, alpha=alpha))
            assert_close(st.E, exact, 1e-9, f"E(alpha={alpha}, n_r={n_r}) from a far estimate")
            assert st.nodes == n_r


def test_estimate_past_a_neighbour_is_logged(channel_s, coulomb_half, monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="diracmono")
    dm.solve(channel_s, coulomb_half, 1)
    assert not any("coarse stage" in r.getMessage() for r in caplog.records)
    _estimates_two_levels_up(monkeypatch)
    caplog.clear()
    dm.solve(channel_s, coulomb_half, 1)
    lines = [r.getMessage() for r in caplog.records if "coarse stage" in r.getMessage()]
    assert len(lines) == 1
    assert "estimates" in lines[0] and "indices [1]" in lines[0] and "counts [3]" in lines[0]


def test_coarse_searches_from_estimates_on_wide_spectrum(channel_s, monkeypatch):
    # the benchmark's seed-0 wide batch (16 couplings, n_r 0..3): every coarse
    # search takes at most 3 evaluations, the one at its estimate included
    # (each took 15 from the whole window)
    coarse, bisect = S._Workspace.coarse_eigenvalues, prop.count_bisect
    evals, inside = [], []

    def in_coarse(self, *args, **kwargs):
        inside.append(True)
        try:
            return coarse(self, *args, **kwargs)
        finally:
            inside.pop()

    def counting_bisect(*args, **kwargs):
        found = bisect(*args, **kwargs)
        if inside:
            evals.extend(found[3])
        return found

    monkeypatch.setattr(S._Workspace, "coarse_eigenvalues", in_coarse)
    monkeypatch.setattr(prop, "count_bisect", counting_bisect)
    families = [dm.pure_coulomb(float(a)) for a in np.linspace(0.3, 0.9, 16)]
    dm.solve_batch(channel_s, families, [0, 1, 2, 3], dense_flags=[False] * 16)
    assert len(evals) == 64
    assert 1 + max(evals) <= 3


def test_recoveries_are_logged(channel_s, coulomb_half, monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="diracmono")
    # a coarse search from the window bottom spans the whole window, and
    # steps to the bracket midpoint where Newton leaves the bracket
    monkeypatch.setattr(S._Workspace, "predicted_levels",
                        lambda self, fam_idx, targets: np.full(len(fam_idx), self.window()[0]))
    dm.solve(channel_s, coulomb_half, 0)
    assert any("fell back from Newton" in r.getMessage() for r in caplog.records)
    monkeypatch.undo()

    # a coarse centre two levels off: the fine search needs the far window
    # end, logs it, and still converges on the requested index
    coarse = S._Workspace.coarse_eigenvalues

    def two_levels_up(self, ends, fam_is, targets, tol):
        return coarse(self, ends, fam_is, np.asarray(targets) + 2, tol)

    monkeypatch.setattr(S._Workspace, "coarse_eigenvalues", two_levels_up)
    caplog.clear()
    st = dm.solve(channel_s, coulomb_half, 0)
    assert_close(st.E, 0.8660254037844386, 1e-9, "E(1s) from a far centre")
    assert st.nodes == 0
    assert any("need the far window end" in r.getMessage() for r in caplog.records)
    monkeypatch.undo()

    # estimates forced to mid-gap size the coarse domain for deep levels
    # only (r_max 30): the requested level is missing from it, and the coarse
    # table is rebuilt once, at the ceiling, where it is found. (Growing the
    # domain in steps stops where the wall lifts the level just into the
    # window, and the headroom check then refuses half of these states.)
    monkeypatch.setattr(S._Workspace, "predicted_levels",
                        lambda self, fam_idx, targets: np.zeros(len(fam_idx)))
    for alpha, n_r in itertools.product((0.05, 0.1), (1, 2, 3)):
        caplog.clear()
        st = dm.solve(channel_s, dm.pure_coulomb(alpha), n_r)
        exact = coulomb_energy(CoulombLevel(n=n_r + 1, j=0.5, alpha=alpha))
        assert_close(st.E, exact, 1e-9, f"alpha={alpha} n_r={n_r} after the rebuild")
        assert st.nodes == n_r
        rebuilds = [r.getMessage() for r in caplog.records if "coarse r_max" in r.getMessage()]
        assert rebuilds == [f"solve_batch: window counts [1] miss node count {n_r}; "
                            f"coarse r_max 30 -> the ceiling 4000"]


def test_full_solve_on_numpy_fallback(channel_s, coulomb_half, coulomb_ground):
    st = dm.solve(channel_s, coulomb_half, 0, dm.SolveConfig(n_grid=900))
    assert st.E == pytest.approx(coulomb_ground.E, abs=2e-9)
    assert st.nodes == 0


def test_explicit_r0_honored(channel_s, coulomb_half):
    st = dm.solve(channel_s, coulomb_half, 0, dm.SolveConfig(r0=1e-9))
    assert st.grid[0] == pytest.approx(1e-9, rel=1e-12)
    with pytest.raises(ConfigurationError):
        dm.solve(channel_s, coulomb_half, 0, dm.SolveConfig(r0=0.1))


def test_antisymmetry_generic_decaying_pair():
    # the quadrature/derivative pairing integrates by parts to a boundary
    # term, which vanishes for functions decaying at both grid ends
    grid = np.geomspace(1e-6, 30.0, 3000)
    scheme = dm.InnerProductScheme.for_grid(grid)
    tab = derivative_weights(grid)
    u = grid**1.3 * np.exp(-grid)
    v = grid**0.7 * np.exp(-1.7 * grid) * np.cos(grid)
    val = (dm.inner_product(u, apply_derivative(tab, v), scheme)
           + dm.inner_product(apply_derivative(tab, u), v, scheme))
    assert abs(val) <= 1e-6


# ---------------------------------------------------------------------------
# match function
# ---------------------------------------------------------------------------

def test_match_function_small_at_oracle_energy(channel_s, coulomb_half):
    e_exact = 0.8660254037844386
    assert abs(dm.match_function(e_exact, channel_s, coulomb_half)) <= 1e-8


def test_match_function_changes_sign_across_eigenvalue(channel_s, coulomb_half):
    e_exact = 0.8660254037844386
    lo = dm.match_function(e_exact - 1e-3, channel_s, coulomb_half)
    hi = dm.match_function(e_exact + 1e-3, channel_s, coulomb_half)
    assert lo * hi < 0


def test_match_function_no_zero_for_free_particle(channel_s):
    fam = dm.coupling(0.0, shape="exp")
    vals = [dm.match_function(e, channel_s, fam)
            for e in np.linspace(-0.95, 0.95, 21)]
    assert np.all(np.sign(vals) == np.sign(vals[0]))


def test_match_function_domain(channel_s, coulomb_half):
    with pytest.raises(DomainError):
        dm.match_function(1.5, channel_s, coulomb_half)


@pytest.mark.parametrize("alpha, n_r", itertools.product((0.05, 0.2, 0.5), range(5)))
def test_match_function_zero_at_each_level(channel_s, alpha, n_r):
    # M is evaluated on the domain of its own energy, so its zeros are the
    # levels however shallow: M changes sign across E_exact +- 1e-3 (m - E),
    # and |M(E_exact)| is at most 1e-5 of the values there, a zero within
    # about 1e-8 (m - E) of the closed form
    fam = dm.pure_coulomb(alpha)
    exact = coulomb_energy(CoulombLevel(n=n_r + 1, j=0.5, alpha=alpha))
    d = 1e-3 * (1.0 - exact)
    lo, at, hi = (dm.match_function(e, channel_s, fam) for e in (exact - d, exact, exact + d))
    assert lo * hi < 0
    assert abs(at) <= 1e-5 * min(abs(lo), abs(hi))


# ---------------------------------------------------------------------------
# solve: oracle equivalence and state invariants
# ---------------------------------------------------------------------------

def test_ground_state_energy(coulomb_ground):
    assert_close(coulomb_ground.E, 0.8660254037844386, 1e-6, "E(1s, alpha=0.5)")
    assert coulomb_ground.nodes == 0
    # the fine bracket closed below e_tol, and the coarse centre the fine
    # search started from lay within 3e-4 m of the eigenvalue
    diag = coulomb_ground.diagnostics
    assert 0 < diag["bracket_width"] <= dm.SolveConfig().e_tol
    assert 0 < diag["coarse_shift"] < 3e-4


def test_first_excited_energy(channel_s, coulomb_half):
    st = dm.solve(channel_s, coulomb_half, 1)
    assert_close(st.E, 0.9659258262890683, 1e-6, "E(n=2, alpha=0.5)")
    assert st.nodes == 1


def test_solver_wavefunction_matches_analytic(coulomb_ground):
    p1, p2, _ = _hydrogenic_pair(0.5, coulomb_ground.grid)
    assert np.max(np.abs(coulomb_ground.psi1 - p1)) < 1e-6
    assert np.max(np.abs(coulomb_ground.psi2 - p2)) < 1e-6


def test_state_is_normalized(coulomb_ground, cutoff_ground):
    for st in (coulomb_ground, cutoff_ground):
        ip = st.scheme.dot
        total = ip(st.psi1, st.psi1) + ip(st.psi2, st.psi2)
        assert abs(total - 1.0) <= 1e-8
        assert st.norm_residual <= 1e-8


def test_norm_residual_is_an_independent_estimate(channel_s, coulomb_half):
    # the half-grid Simpson norm of a state normalized on the full grid: not
    # zero by construction, and it falls as the output grid is refined
    coarse, fine = (dm.solve(channel_s, coulomb_half, 1, dm.SolveConfig(n_grid=n))
                    for n in (2000, 4000))
    assert 0 < fine.norm_residual < coarse.norm_residual


def test_state_sign_convention(coulomb_ground, cutoff_ground):
    for st in (coulomb_ground, cutoff_ground):
        lead = st.psi1[np.abs(st.psi1) > 1e-3 * np.abs(st.psi1).max()][0]
        assert lead > 0


def test_state_arrays_read_only(coulomb_ground):
    with pytest.raises(ValueError):
        coulomb_ground.psi1[0] = 1.0


def test_grid_size_matches_config(channel_s, coulomb_half):
    st = dm.solve(channel_s, coulomb_half, 0, dm.SolveConfig(n_grid=1500))
    assert st.grid.size == 1500


def test_discrete_antisymmetry(coulomb_ground, cutoff_ground):
    # (psi1, D psi2) + (D psi1, psi2) vanishes for decaying grid functions
    for st in (coulomb_ground, cutoff_ground):
        tab = derivative_weights(st.grid)
        ip = st.scheme.dot
        val = (ip(st.psi1, apply_derivative(tab, st.psi2))
               + ip(apply_derivative(tab, st.psi1), st.psi2))
        assert abs(val) <= 1e-6


def test_eigen_equation_residual(coulomb_ground, cutoff_ground, channel_s,
                                 coulomb_half, cutoff_family):
    for st, fam in ((coulomb_ground, coulomb_half), (cutoff_ground, cutoff_family)):
        tab = derivative_weights(st.grid)
        d1, d2 = dm.rhs(st.grid, (st.psi1, st.psi2), st.E, channel_s, fam)
        r1 = np.abs(apply_derivative(tab, st.psi1) - d1)[3:-3]
        r2 = np.abs(apply_derivative(tab, st.psi2) - d2)[3:-3]
        peak = max(np.abs(st.psi1).max(), np.abs(st.psi2).max())
        assert max(r1.max(), r2.max()) <= 1e-5 * peak


def test_node_monotonicity(channel_s):
    res = dm.solve_batch(channel_s, [dm.pure_coulomb(0.9)], [0, 1, 2])[0]
    energies = [res[n].E for n in (0, 1, 2)]
    assert energies[0] < energies[1] < energies[2]
    assert [res[n].nodes for n in (0, 1, 2)] == [0, 1, 2]


def test_solve_deterministic(channel_s, cutoff_family):
    a = dm.solve(channel_s, cutoff_family, 0)
    b = dm.solve(channel_s, cutoff_family, 0)
    assert a.E == b.E
    assert np.array_equal(a.psi1, b.psi1) and np.array_equal(a.psi2, b.psi2)


def test_grid_convergence(channel_s, cutoff_family, cutoff_ground):
    cfg = dm.SolveConfig(step_density=2 ** 0.25, n_grid=8000)
    st = dm.solve(channel_s, cutoff_family, 0, cfg)
    assert abs(st.E - cutoff_ground.E) <= 10 * dm.SolveConfig().e_tol


def test_no_such_state_for_zero_coupling(channel_s):
    with pytest.raises(NoSuchStateError) as exc_info:
        dm.solve(channel_s, dm.coupling(0.0, shape="exp"), 0)
    assert exc_info.value.found == []


def test_no_such_state_reports_what_exists(channel_s):
    # a short-range well with one level, asked for its sixth
    with pytest.raises(NoSuchStateError) as exc_info:
        dm.solve(channel_s, dm.coupling(2.0, 1.0, "exp"), 5)
    found = exc_info.value.found
    assert len(found) >= 1
    assert found[0][1] == 0  # the existing ground state is listed


def test_near_threshold_levels_on_the_whole_window(channel_s):
    # levels crowd towards E = m; each is found by its index on the window
    alpha = 0.2
    res = dm.solve_batch(channel_s, [dm.pure_coulomb(alpha)], range(6),
                         dense_flags=[False])[0]
    for n_r in range(6):
        exact = coulomb_energy(CoulombLevel(n=n_r + 1, j=0.5, alpha=alpha))
        assert_close(res[n_r].E, exact, 1e-9, f"alpha=0.2 n_r={n_r}")
    # the error path lists every level below the window top, in order
    with pytest.raises(NoSuchStateError) as exc_info:
        dm.solve(channel_s, dm.pure_coulomb(0.5), 12, dm.SolveConfig(r_max=200))
    found = exc_info.value.found
    assert len(found) >= 3
    assert [n for _, n in found] == list(range(len(found)))
    assert all(e1 < e2 for (e1, _), (e2, _) in zip(found, found[1:]))
    for e, n_r in found[:3]:
        exact = coulomb_energy(CoulombLevel(n=n_r + 1, j=0.5, alpha=0.5))
        assert_close(e, exact, 1e-6, f"found n_r={n_r}")


def test_one_coarse_domain_and_own_fine_headroom(monkeypatch):
    # each of acceptance criterion 1's two batches builds one workspace; every
    # state gets its decay headroom beyond the turning radius alpha/(m - E) of
    # -alpha/r on the domain of its own fine stage, and no state, however
    # shallow, is sized by a deeper family onto the cap
    builds = []
    init = S._Workspace.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(S._Workspace, "__init__", counting_init)
    alphas = (0.2, 0.5, 0.9)
    for j in (0.5, 1.5):
        builds.clear()
        res = dm.solve_batch(dm.ChannelSpec(d=3, tau=-1, j=j),
                             [dm.pure_coulomb(a) for a in alphas], [0, 1, 2])
        assert len(builds) == 1
        for alpha, per_fam in zip(alphas, res):
            for n_r, st in per_fam.items():
                lam = math.sqrt(1.0 - st.E ** 2)
                r_to = alpha / (1.0 - st.E)
                label = f"j={j} alpha={alpha} n_r={n_r}"
                assert lam * (st.diagnostics["r_max"] - r_to) >= S.HEADROOM_EFOLDS, label
                assert st.diagnostics["r_max"] < S._R_MAX_CAP, label


def test_each_group_matches_at_half_its_smallest_turning_radius():
    # the states of one fine group share its domain; each group of criterion
    # 1's batches matches at 1/2 the smallest turning radius alpha/(m - E) of
    # its states, as read on the profile at the coarse centres (at most one
    # profile radius, a factor 1.03, further in), so inside the classically
    # allowed region of every state it holds
    for res in _criterion_1_batches():
        groups = {}
        for alpha, per_fam in zip((0.2, 0.5, 0.9), res):
            for st in per_fam.values():
                domain = (st.diagnostics["r_max"], st.diagnostics["r_match"])
                groups.setdefault(domain, []).append(alpha / (1.0 - st.E))
        assert len(groups) >= 4
        for (_, r_match), r_to in groups.items():
            assert 0.5 * min(r_to) / 1.03 <= r_match <= 0.5 * min(r_to) * (1 + 1e-3)


def test_explicit_r_match_pins_every_table(channel_s, monkeypatch):
    # the coarse, fine and dense tables all match at an explicit r_match, and
    # the states keep their levels; one outside a domain is refused
    seen = []
    make = S._make_table

    def recording(channel, families, domain, *args):
        seen.append(domain.r_match)
        return make(channel, families, domain, *args)

    monkeypatch.setattr(S, "_make_table", recording)
    alphas = (0.5, 0.9)
    res = dm.solve_batch(channel_s, [dm.pure_coulomb(a) for a in alphas], [0, 1, 2],
                         dm.SolveConfig(r_match=3.0))
    assert len(seen) >= 3 and set(seen) == {3.0}
    for alpha, per_fam in zip(alphas, res):
        for n_r, st in per_fam.items():
            exact = coulomb_energy(CoulombLevel(n=n_r + 1, j=0.5, alpha=alpha))
            assert_close(st.E, exact, 1e-9, f"alpha={alpha} n_r={n_r} at r_match 3")
            assert st.nodes == n_r and st.diagnostics["r_match"] == 3.0
    seen.clear()
    dm.solve_batch(channel_s, [dm.pure_coulomb(a) for a in alphas], [0, 1, 2])
    assert len(set(seen)) > 1
    with pytest.raises(ConfigurationError, match="r_match"):
        dm.solve(channel_s, dm.pure_coulomb(0.5), 0, dm.SolveConfig(r_match=300.0))


@pytest.mark.parametrize("alpha, tau, n_r", itertools.product(
    (0.03, 0.035, 0.04, 0.05, 0.06, 0.08), (-1, 1), range(4)))
def test_weak_coupling_levels_solve_or_are_refused_as_too_shallow(alpha, tau, n_r):
    # each of these 48 weak-coupling levels, solved alone, matches inside its
    # own allowed region: it solves to the closed form with n_r nodes, or is
    # refused for lack of decay room at the cap (only levels with less than
    # HEADROOM_EFOLDS of room beyond alpha/(m - E) there are), and no
    # evaluation raises a floating-point warning
    e = coulomb_energy(CoulombLevel(n=n_r + 1 + (tau > 0), j=0.5, alpha=alpha))
    room = math.sqrt(1.0 - e * e) * (S._R_MAX_CAP - alpha / (1.0 - e))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            st = dm.solve(dm.ChannelSpec(d=3, tau=tau, j=0.5), dm.pure_coulomb(alpha), n_r)
        except NoSuchStateError as exc:
            assert "e-folds of decay room" in str(exc)
            assert room < S.HEADROOM_EFOLDS
            return
    assert_close(st.E, e, 1e-9, f"alpha={alpha} tau={tau} n_r={n_r}")
    assert st.nodes == n_r


def test_state_too_shallow_for_the_cap_is_refused():
    # alpha = 0.01, n = 5: lambda = alpha/n and r_to = 2 n^2/alpha leave about
    # 2 e-folds of decay room at the cap 4000/m, far under HEADROOM_EFOLDS;
    # the state exists in the window, but a hard wall there would shift it
    channel = dm.ChannelSpec(d=3, tau=1, j=0.5)
    with pytest.raises(NoSuchStateError) as exc_info:
        dm.solve(channel, dm.pure_coulomb(0.01), 3)
    assert [n for _, n in exc_info.value.found][:4] == [0, 1, 2, 3]
    # 56 e-folds of room at alpha = 0.03, n = 2: solved, to the closed form
    res = dm.solve_batch(channel, [dm.pure_coulomb(0.03)], [0],
                         dense_flags=[False])[0]
    exact = coulomb_energy(CoulombLevel(n=2, j=0.5, alpha=0.03))
    assert_close(res[0].E, exact, 1e-9, "alpha=0.03 n=2")


@pytest.mark.parametrize("channel, n_r", [(dm.ChannelSpec(d=1, parity="even"), 5),
                                          (dm.ChannelSpec(d=3, tau=-1, j=0.5), 8)])
def test_level_the_count_never_reaches_does_not_size_the_coarse_domain(channel, n_r,
                                                                       monkeypatch):
    # a well of two levels (even) or one (d = 3), asked for a level whose
    # semiclassical count at the window top falls short by more than 1/2
    # (N = 1.46 against 5.25 for d = 1): the coarse domain holds level 0
    # only, where it reached out 4 e-folds of a decay rate sqrt(2e-6) m
    # beyond the window top (2840/m, 8131 and 768 steps)
    built = []
    real = prop.build_step_table

    def spying(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(prop, "build_step_table", spying)
    with pytest.raises(NoSuchStateError) as exc_info:
        dm.solve(channel, dm.coupling(2.0, 1.0, "exp"), n_r)
    assert built[0].n_steps <= 300
    assert float(re.search(r"within r_max = (\S+) ", str(exc_info.value))[1]) <= 100.0
    assert exc_info.value.found[0][1] == 0


def test_barely_bound_level_keeps_its_coarse_domain():
    # the count at the window top falls 0.153 short of n_r + mu, less than
    # 1/2: the level sizes the coarse domain and solves
    state = dm.solve(dm.ChannelSpec(d=3, tau=1, j=0.5), dm.coupling(2.5, 1.0, "exp"), 0)
    assert state.nodes == 0
    assert abs(state.E - 0.99324) < 1e-5


def _bad_counts():
    """Calls with a node count or grid size that is no integer."""
    ch, fam = dm.ChannelSpec(d=3, tau=-1, j=0.5), dm.pure_coulomb(0.5)
    return {
        "solve": lambda: dm.solve(ch, fam, 0.5),
        "solve_batch": lambda: dm.solve_batch(ch, [fam], [1.7]),
        "solve_batch_nan": lambda: dm.solve_batch(ch, [fam], [math.nan]),
        "sweep": lambda: mono.sweep(dm.cutoff_coulomb(1.0, 1.0), ch, 0.5, [0.9, 1.0]),
        "fd_derivative": lambda: mono.fd_derivative(fam, ch, 1.5),
        "compare": lambda: mono.compare_potentials(dm.pure_coulomb(0.6), fam, ch, n_r=0.5),
        "n_grid": lambda: dm.SolveConfig(n_grid=2000.5),
    }


@pytest.mark.parametrize("name", list(_bad_counts()))
def test_non_integer_counts_are_refused(name, monkeypatch):
    # refused with ConfigurationError before any solve (the sweep too, not
    # through SweepAbortedError), where they used to end in a bare KeyError,
    # ValueError or TypeError or silently solve another level
    def no_solve(*args, **kwargs):
        raise AssertionError("a workspace was built")

    monkeypatch.setattr(S, "_Workspace", no_solve)
    with pytest.raises(ConfigurationError, match="integer"):
        _bad_counts()[name]()


def test_numpy_integer_counts_are_accepted(channel_s):
    state = dm.solve(channel_s, dm.pure_coulomb(0.5), np.int64(1),
                     dm.SolveConfig(n_grid=np.int32(2000)))
    assert state.nodes == 1
    assert sorted(dm.solve_batch(channel_s, [dm.pure_coulomb(0.5)], np.arange(2),
                                 dense_flags=[False])[0]) == [0, 1]


# (channel, family, nodes of the gap-index-0 state). In this regime the count
# is no label: it is that of the solved state and moves with its last digits
# and its domain (21 at step density 1, 2 and 4, where E moves by 4e-9), so
# it pins the message, not the physics
DEEP_REGULAR_WELLS = [
    (dm.ChannelSpec(d=4, tau=-1, j=0.5), dm.coupling(19.5, 0.15, "cutoff"), 21),
    (dm.ChannelSpec(d=1, parity="odd"), dm.cutoff_coulomb(1.58, 0.054), 1),
]


@pytest.mark.parametrize("channel, family, nodes", DEEP_REGULAR_WELLS)
def test_deep_regular_well_is_an_unsupported_regime(channel, family, nodes):
    # a regular-origin well deeper than 2m pulls states up from the lower
    # continuum, so the gap index is no longer the node count: the recount
    # disagreement is refused as a regime, naming the index and the count
    with pytest.raises(UnsupportedRegimeError) as exc_info:
        dm.solve_batch(channel, [family], [0])
    message = str(exc_info.value)
    assert message.startswith("deep regular well")
    assert "gap index 0 " in message
    assert f"has {nodes} nodes in its upper component" in message


def test_deep_well_refusal_leaves_singular_origins_alone(channel_s):
    # pure Coulomb dips far below -2m near its singular origin, yet a
    # recount disagreement there is left to NumericalError
    ws = S._Workspace(channel_s, [dm.pure_coulomb(0.5)], S.DEFAULT_CONFIG)
    assert ws.v[0].min() < -2.0 * channel_s.m
    state = dm.solve(channel_s, dm.pure_coulomb(0.5), 0)
    S._refuse_deep_well(ws, 0, 1, state)  # returns: not this regime


def test_explicit_r_max_pins_every_domain(channel_s):
    cfg = dm.SolveConfig(r_max=200)
    res = dm.solve_batch(channel_s, [dm.pure_coulomb(0.5), dm.pure_coulomb(0.9)],
                         [0, 1, 2], cfg)
    r_max = [st.diagnostics["r_max"] for per_fam in res for st in per_fam.values()]
    assert max(r_max) == 200


def test_no_nodeless_state_in_positive_k(coulomb_half):
    ch = dm.ChannelSpec(d=3, tau=1, j=0.5)
    st = dm.solve(ch, coulomb_half, 0)
    # the lowest tau=+1 level is degenerate with the one-node tau=-1 level
    assert_close(st.E, 0.9659258262890683, 1e-6, "E(2p-like)")
    assert st.nodes == 0


def test_supercritical_rejected(channel_s):
    with pytest.raises(UnsupportedRegimeError):
        dm.solve(channel_s, dm.pure_coulomb(1.1), 0)


def test_empty_batch_rejected(channel_s):
    # no family, or no node count: nothing to solve, refused before any work
    for families, n_r_values in (([], [0]), ([dm.pure_coulomb(0.5)], [])):
        with pytest.raises(ConfigurationError):
            dm.solve_batch(channel_s, families, n_r_values)


def test_dense_flags_of_another_length_rejected(channel_s, monkeypatch):
    # one dense flag per family: fewer or more are refused before any work
    def no_workspace(*args, **kwargs):
        raise AssertionError("a workspace was built")

    monkeypatch.setattr(S, "_Workspace", no_workspace)
    families = [dm.pure_coulomb(0.5), dm.pure_coulomb(0.3)]
    for flags in ([True], [True, False, True]):
        with pytest.raises(ConfigurationError):
            dm.solve_batch(channel_s, families, [0], dense_flags=flags)


def test_negative_energy_state(channel_s):
    # a strong cutoff well pulls the lowest level below E = 0
    st = dm.solve(channel_s, dm.cutoff_coulomb(1.4, 0.05), 0)
    assert -1.0 < st.E < 0.0
    assert st.nodes == 0


def test_mass_scaling():
    ch = dm.ChannelSpec(d=3, tau=-1, j=0.5, m=2.0)
    st = dm.solve(ch, dm.pure_coulomb(0.5), 0)
    assert_close(st.E, 2.0 * 0.8660254037844386, 2e-6, "E at m=2")


def test_d2_channel_against_closed_form():
    # the radial system depends on d only through k, so the d=2 spectrum is
    # the same closed form with |k| = 1/2
    ch = dm.ChannelSpec(d=2, tau=-1, j=0.5)
    al = 0.2
    g = math.sqrt(0.25 - al * al)
    for nr in (0, 1):
        st = dm.solve(ch, dm.pure_coulomb(al), nr)
        exact = (1.0 + al * al / (nr + g) ** 2) ** -0.5
        assert_close(st.E, exact, 1e-6, f"d=2 nr={nr}")


# ---------------------------------------------------------------------------
# d = 1 sector
# ---------------------------------------------------------------------------

def test_solve_1d_parity_seeds_and_norm():
    fam = dm.cutoff_coulomb(1.0, 1.0)
    even = dm.solve_1d(dm.ChannelSpec(d=1, parity="even"), fam, 0)
    odd = dm.solve_1d(dm.ChannelSpec(d=1, parity="odd"), fam, 0)
    assert -1.0 < even.E < odd.E < 1.0
    assert even.psi2[0] == 0.0 and odd.psi1[0] == 0.0
    for st in (even, odd):
        ip = st.scheme.dot  # carries the half-line factor 2
        assert abs(ip(st.psi1, st.psi1) + ip(st.psi2, st.psi2) - 1.0) <= 1e-8
        half = float(np.dot(st.scheme.weights, st.psi1**2 + st.psi2**2))
        assert abs(2.0 * half - 1.0) <= 1e-8


def test_solve_1d_even_odd_pairing():
    # psi1' ~ psi2 at x = 0, so an even psi1 forces psi2(0) = 0 and vice versa
    fam = dm.cutoff_coulomb(1.0, 1.0)
    even = dm.solve_1d(dm.ChannelSpec(d=1, parity="even"), fam, 0)
    tab = derivative_weights(even.grid)
    dpsi1 = apply_derivative(tab, even.psi1)
    assert abs(dpsi1[0]) <= 1e-4 * np.abs(even.psi1).max()


def test_solve_1d_requires_d1(channel_s, coulomb_half):
    with pytest.raises(ConfigurationError):
        dm.solve_1d(channel_s, coulomb_half, 0)


def test_solve_1d_excited():
    fam = dm.cutoff_coulomb(1.5, 0.5)
    st = dm.solve_1d(dm.ChannelSpec(d=1, parity="even"), fam, 1)
    assert st.nodes == 1


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def test_inner_product_orthogonal_pair():
    grid = np.linspace(0.0, math.pi, 301)
    scheme = dm.InnerProductScheme.for_grid(grid)
    val = dm.inner_product(np.sin(grid), np.cos(grid), scheme)
    assert abs(val) < 1e-10


def test_inner_product_grid_mismatch(coulomb_ground):
    with pytest.raises(GridMismatchError):
        dm.inner_product(coulomb_ground.psi1[:-1], coulomb_ground.psi2[:-1],
                         coulomb_ground.scheme)

"""Shooting solver: seeds, matching, eigenvalues, state invariants."""

import itertools
import logging
import math

import numpy as np
import pytest

import diracmono as dm
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


def test_tail_seed_values():
    ch = dm.ChannelSpec(d=3, tau=-1, j=0.5)
    assert dm.tail_seed(ch, 0.0)[1] == pytest.approx(-1.0)
    assert abs(dm.tail_seed(ch, 1.0 - 1e-12)[1]) < 1e-5
    assert dm.tail_seed(ch, 0.8660254037844386)[1] == pytest.approx(
        -0.2679491924311227, rel=1e-9)
    with pytest.raises(DomainError):
        dm.tail_seed(ch, 1.0)


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
    y1, y2 = prop.propagate(table, np.zeros(1, dtype=np.intp),
                            np.asarray([e]), y0, 0, table.i_match)
    ours = math.atan2(y2[0], y1[0])

    def odefun(r, y):
        return dm.rhs(r, (y[0], y[1]), e, ch, fam)

    sol = solve_ivp(odefun, (r_lo, r_hi), [0.3, 0.7], method="DOP853",
                    rtol=1e-13, atol=1e-15, dense_output=False)
    ref = math.atan2(sol.y[1, -1], sol.y[0, -1])
    assert ours == pytest.approx(ref, abs=1.5e-9)


def test_step_rule_marches_the_np_interp_nodes():
    # the step rule's bisection lookup gives bitwise the steps, and so the
    # marched nodes, of np.interp on the same table: coarse and fine rules
    # of a d = 3 (log) and a d = 1 (lin) workspace, marched over the whole
    # profile, and single queries below, inside and beyond it
    for channel, family in ((dm.ChannelSpec(d=3, tau=-1, j=0.5), dm.pure_coulomb(0.5)),
                            (dm.ChannelSpec(d=1, parity="even"),
                             dm.cutoff_coulomb(1.0, 1.0))):
        ws = S._Workspace(channel, [family], S.DEFAULT_CONFIG)
        d = ws.domain
        log = d.param == "log"
        x = np.log(ws.r) if log else ws.r
        for rate, c in ((S._coarse_rate(channel, ws.env), S._COARSE_C),
                        (S._band_rate(channel, ws.r, ws.env, ws.window()), S._FINE_C)):
            rule = S._h_rule(channel, d.param, ws.r, rate, c, 1.3)
            h = (np.minimum(0.35, c / (abs(channel.k) + ws.r * rate)) if log
                 else np.minimum(0.35 / channel.m, c / rate)) / 1.3

            def interp(xq, h=h):
                return float(np.interp(xq, x, h))

            queries = np.concatenate([x, 0.5 * (x[1:] + x[:-1]),
                                      [x[0] - 1.0, x[-1] + 1.0]])
            assert [rule(q) for q in queries.tolist()] == [interp(q) for q in queries]
            span = ((math.log(d.r_seed), math.log(ws.ceiling), math.log(d.r_match)) if log
                    else (0.0, ws.ceiling, d.r_match))
            nodes = prop.march_nodes(*span[:2], rule, [span[2]])
            assert nodes.size > 1000
            assert np.array_equal(nodes, prop.march_nodes(*span[:2], interp, [span[2]]))


def _match(path, legs):
    """Match value and matching angle from the outward and inward legs (the
    package's phase mode also returns a slope, which is not compared here)."""
    ((o1, o2), th_out, *_), ((t1, t2), th_in, *_) = (path(*args, False, True)
                                                     for args in legs)
    mval = (o1 * t2 - o2 * t1) / (np.hypot(o1, o2) * np.hypot(t1, t2))
    return mval, th_out - th_in


def _scan_in_segments(*args, **kwargs):
    """The numpy scan, forced to split every traversal into 7-step segments."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prop, "_SCAN_ELEMENTS", 7 * np.size(args[2]))
        return prop.propagate(*args, **kwargs)


def _assert_all_close(got, ref, atol):
    for g, r in zip(got, ref):
        assert np.allclose(g, r, rtol=1e-12, atol=atol)


def _scan_cases():
    """(workspace, table, family indices, energies, least eigenvalue count):
    coarse and whole-window fine tables of d = 3 pure Coulomb and d = 1 cutoff
    Coulomb, and the state-sized fine table of each acceptance criterion 1
    j = 1/2 state, on the band E +- 2e-3 that production uses around it (40
    energies, so that none sits on the eigenvalue, where the count is a
    rounding decision)."""
    cases = []
    for channel, family in ((dm.ChannelSpec(d=3, tau=-1, j=0.5), dm.pure_coulomb(0.5)),
                            (dm.ChannelSpec(d=1, parity="even"),
                             dm.cutoff_coulomb(1.0, 1.0))):
        ws = S._Workspace(channel, [family], S.DEFAULT_CONFIG)
        bottom, top = ws.window()
        e = np.linspace(bottom, top, 41)
        for table in (ws.coarse, ws.fine_table((bottom, top), ws.domain)):
            cases.append((ws, table, np.zeros(e.size, dtype=np.intp), e, 2))
    alphas = (0.2, 0.5, 0.9)
    ws = S._Workspace(dm.ChannelSpec(d=3, tau=-1, j=0.5),
                      [dm.pure_coulomb(a) for a in alphas], S.DEFAULT_CONFIG, n_r_max=2)
    for f, alpha in enumerate(alphas):
        for n_r in range(3):
            energy = coulomb_energy(CoulombLevel(n=n_r + 1, j=0.5, alpha=alpha))
            band = (energy - 2e-3, energy + 2e-3)
            table = ws.fine_table(band, ws.trimmed_domain([f], [energy]))
            cases.append((ws, table, np.full(40, f, dtype=np.intp),
                          np.linspace(*band, 40), 1))
    return cases


def test_scan_matches_sequential_reference():
    # the step-parallel scan, whole and in short segments, reproduces the
    # sequential reference in phase, record and plain modes, and counts the
    # same eigenvalues
    paths = [prop.propagate, _scan_in_segments]
    for ws, table, idx, e, least_count in _scan_cases():
        seed_o, seed_t = ws.seeds
        legs = ((table, idx, e, seed_o(e, idx), 0, table.i_match),
                (table, idx, e, seed_t(e, idx), table.n_steps, table.i_match))
        m_ref, dth_ref = _match(propagate_sequential, legs)
        counts_ref = prop.count_below(dth_ref, dth_ref[0])
        assert counts_ref[-1] >= least_count  # the energies span eigenvalues
        for path in paths:
            mval, dth = _match(path, legs)
            assert np.allclose(mval, m_ref, rtol=1e-12, atol=1e-13)
            assert np.allclose(dth, dth_ref, rtol=1e-12, atol=1e-11)
            assert np.array_equal(prop.count_below(dth, dth[0]), counts_ref)
            for args in legs:
                _assert_all_close(path(*args, False, False),
                                  propagate_sequential(*args, False, False), 1e-13)
                g_end, *g_rec, g_log = path(*args, True, False)
                r_end, *r_rec, r_log = propagate_sequential(*args, True, False)
                _assert_all_close((*g_end, *g_rec), (*r_end, *r_rec), 1e-13)
                _assert_all_close([g_log], [r_log], 1e-11)


def _arrays(out):
    """The arrays a propagate call returns, its end state unpacked."""
    return [*out[0], *out[1:]] if isinstance(out[0], tuple) else list(out)


def test_scan_keeps_batch_columns_apart():
    # the packed scan broadcasts over the 2x2 axes only: in one segment
    # covering the whole traversal, with identity steps filling the last
    # block, every column of a mixed batch (two families, three energies)
    # gets bitwise the values it gets alone in phase, record and plain
    # modes, the E-slope included: each column's quadrature sum is taken
    # alone, in step order, whatever the batch width. Energies near the top
    # of the gap spread |y|^2 over many nodes, where a sum over the batch's
    # blocks rounds differently from a column's own.
    channel = dm.ChannelSpec(d=3, tau=-1, j=0.5)
    ws = S._Workspace(channel, [dm.pure_coulomb(0.5), dm.pure_coulomb(0.9)],
                      S.DEFAULT_CONFIG)
    table = ws.coarse
    idx, e = np.array([0, 1, 0]), np.array([0.5, 0.99, 0.999])

    for seed, i_from in zip(ws.seeds, (0, table.n_steps)):
        n_steps = abs(table.i_match - i_from)
        bs = math.isqrt(n_steps - 1) + 1
        assert n_steps % bs and n_steps * e.size <= prop._SCAN_ELEMENTS
        y0 = seed(e, idx)
        for record, phase in ((False, False), (True, False), (False, True)):
            batch = _arrays(prop.propagate(table, idx, e, y0, i_from, table.i_match,
                                           record, phase))
            for b in range(e.size):
                col = slice(b, b + 1)
                alone = _arrays(prop.propagate(table, idx[col], e[col],
                                               (y0[0][col], y0[1][col]), i_from,
                                               table.i_match, record, phase))
                for g, a in zip(batch, alone):
                    assert np.array_equal(g[..., col], a)


def _criterion_1_tables():
    """(workspace, {(family, n_r): fine table}) for acceptance criterion 1's
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
    return ws, tables


def _legs(table):
    return ((0, table.i_match), (table.n_steps, table.i_match))


def test_stack_keeps_an_unpadded_table_bitwise():
    # a table stacked alone, or first with a table shorter on both legs,
    # needs no padding: its columns get bitwise its own results on both match
    # legs in plain, record and phase modes (the stack gathers its grid
    # columns per element, where a table on one grid broadcasts its one)
    ws, tables = _criterion_1_tables()
    long, short = tables[2, 2], tables[1, 0]
    assert long.i_match > short.i_match
    assert long.n_steps - long.i_match > short.n_steps - short.i_match
    e = np.linspace(0.88, 0.95, 5)
    idx = np.zeros(e.size, dtype=np.intp)
    for stack in (prop.stack_tables([long]), prop.stack_tables([long, short])):
        assert stack.n_steps == long.n_steps and stack.i_match == long.i_match
        for seed, (i_from, i_to) in zip(ws.local_seeds(np.array([2, 1])), _legs(long)):
            y0 = seed(e, idx)
            for record, phase in ((False, False), (True, False), (False, True)):
                got = _arrays(prop.propagate(stack, idx, e, y0, i_from, i_to, record, phase))
                own = _arrays(prop.propagate(long, idx, e, y0, i_from, i_to, record, phase))
                for g, o in zip(got, own):
                    assert np.array_equal(g, o)


def test_zero_length_steps_end_on_the_unpadded_state():
    # zero-length steps after a leg are exact identities: filling the scan's
    # last block, they end the leg bitwise on the state, angle and E-slope of
    # the leg without them, and every padded node records that end state
    ws, tables = _criterion_1_tables()
    t = tables[0, 1]
    n = t.i_match                              # the outward leg, 0 -> n
    bs = math.isqrt(n - 1) + 1
    pad = -n % bs                              # the identity fill of its last block
    assert pad > 1 and n % bs != 1             # its last step is not first in its block
    padded = prop.StepTable(
        k=t.k, m=t.m, r_nodes=np.pad(t.r_nodes[:n + 1], (0, pad), mode="edge"),
        h=np.pad(t.h[:n], ((0, pad), (0, 0))), rmul=np.pad(t.rmul[:n], ((0, pad), (0, 0), (0, 0))),
        w=np.pad(t.w[:n], ((0, pad), (0, 0), (0, 0))), i_match=n + pad, grid=t.grid)
    padded._norm[0, n + pad] = np.pad(t.norm_weights(0, n), ((0, 0), (0, pad), (0, 0)))
    e = np.linspace(0.9, 0.99, 4)
    idx = np.zeros(e.size, dtype=np.intp)
    y0 = ws.seeds[0](e, idx)
    for record, phase in ((False, False), (True, False), (False, True)):
        got = _arrays(prop.propagate(padded, idx, e, y0, 0, n + pad, record, phase))
        own = _arrays(prop.propagate(t, idx, e, y0, 0, n, record, phase))
        if record:
            got, own = [a[:n + 1] for a in got[2:]], own[2:]
            assert all(np.array_equal(g[n:], np.broadcast_to(g[n], g[n:].shape))
                       for g in got)
        for g, o in zip(got, own):
            assert np.array_equal(g, o)


def test_stack_matches_sequential_reference():
    # two of criterion 1's groups with different match nodes and step counts,
    # each padded on one leg: in the stack, whole and in short segments, the
    # match values and angles of every column agree with the sequential
    # reference on the stack and with the column's own table, within the
    # tolerances of test_scan_matches_sequential_reference, and count the
    # same eigenvalues; the E-slopes agree with the own tables' to 1e-10
    ws, tables = _criterion_1_tables()
    pair = [tables[0, 2], tables[2, 0]]
    stack = prop.stack_tables(pair)
    assert pair[0].i_match < stack.i_match == pair[1].i_match
    assert (pair[1].n_steps - pair[1].i_match
            < stack.n_steps - stack.i_match == pair[0].n_steps - pair[0].i_match)
    levels = [coulomb_energy(CoulombLevel(n=n_r + 1, j=0.5, alpha=alpha))
              for alpha, n_r in ((0.2, 2), (0.9, 0))]
    e = np.concatenate([np.linspace(lv - 2e-3, lv + 2e-3, 40) for lv in levels])
    idx = np.repeat([0, 1], 40)
    seeds = ws.local_seeds(np.array([0, 2]))
    legs = [(stack, idx, e, seed(e, idx), *leg) for seed, leg in zip(seeds, _legs(stack))]
    m_ref, dth_ref = _match(propagate_sequential, legs)
    for path in (prop.propagate, _scan_in_segments):
        mval, dth = _match(path, legs)
        assert np.allclose(mval, m_ref, rtol=1e-12, atol=1e-13)
        assert np.allclose(dth, dth_ref, rtol=1e-12, atol=1e-11)
    mval, dth, slope = prop.match_values(stack, idx, e, *seeds, phase=True)
    for g, (table, f) in enumerate(zip(pair, (0, 2))):
        col = idx == g
        own_m, own_dth, own_slope = prop.match_values(
            table, np.zeros(40, dtype=np.intp), e[col], *ws.local_seeds(np.array([f])),
            phase=True)
        assert np.allclose(mval[col], own_m, rtol=1e-12, atol=1e-13)
        assert np.allclose(dth[col], own_dth, rtol=1e-12, atol=1e-11)
        assert np.array_equal(prop.count_below(dth[col], dth[col][0]),
                              prop.count_below(own_dth, own_dth[0]))
        assert prop.count_below(own_dth, own_dth[0])[-1] >= 1
        assert np.allclose(slope[col], own_slope, rtol=1e-10, atol=0)


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
    # 1/(2 lambda). The scan whole and in short segments; match_values
    # returns the difference of the two legs' slopes.
    h = 1e-8
    for ws, table, idx, e, _ in _scan_cases():
        seeds = ws.seeds
        starts = (0, table.n_steps)
        for path in (prop.propagate, _scan_in_segments):
            slopes = []
            for seed, i_from in zip(seeds, starts):
                def angle(energy, **kw):
                    return path(table, idx, energy, seed(energy, idx), i_from,
                                table.i_match, False, True, **kw)

                y0 = seed(e, idx)
                lam = np.sqrt((table.m - e) * (table.m + e))
                beyond = (y0[0] ** 2 + y0[1] ** 2) / (2 * lam) if i_from else 0.0
                _, _, slope = angle(e, beyond=beyond)
                central = (angle(e + h)[1] - angle(e - h)[1]) / (2 * h)
                assert np.all(np.abs(slope - central) <= 1e-4 * np.abs(central))
                slopes.append(slope)
            if path is prop.propagate:
                _, _, d_match = prop.match_values(table, idx, e, *seeds, phase=True)
                assert np.array_equal(d_match, slopes[0] - slopes[1])


def test_rotation_limit_raises_at_first_offending_step():
    # a deliberately coarse grid through a deep well: several steps rotate
    # the solution too far to unwrap the phase, and the scan must refuse at
    # the same first offending step, in traversal order, as the reference
    fam = dm.cutoff_coulomb(20.0, 1.0)
    table = prop.build_step_table("lin", 0.0, 1.0, [fam],
                                  np.linspace(0.0, 10.0, 21), 1)
    e = np.array([-0.5, 0.0, 0.5])
    idx = np.zeros(e.size, dtype=np.intp)
    y0 = (np.ones(e.size), np.zeros(e.size))
    messages = []
    for i_from in (0, table.n_steps):
        args = (table, idx, e, y0, i_from, table.i_match)
        with pytest.raises(NumericalError) as ref:
            propagate_sequential(*args, False, True)
        for scan in (prop.propagate, _scan_in_segments):
            with pytest.raises(NumericalError) as got:
                scan(*args, False, True)
            assert str(got.value) == str(ref.value)
        messages.append(str(ref.value))
        # the check guards phase unwrapping only; the other modes still run
        prop.propagate(*args, False, False)
        prop.propagate(*args, True, False)
    assert messages[0] != messages[1]  # traversal order picks the step


def test_step_table_and_propagate_reject_bad_arguments():
    fam = dm.cutoff_coulomb(1.0, 1.0)
    x = np.linspace(0.0, 5.0, 11)
    with pytest.raises(DomainError):
        prop.build_step_table("lin", 0.0, 1.0, [fam], x[::-1], 5)
    with pytest.raises(DomainError):
        prop.build_step_table("lin", -1.0, 1.0, [fam], x, 5)
    with pytest.raises(DomainError):
        prop.build_step_table("sqrt", 0.0, 1.0, [fam], x, 5)
    table = prop.build_step_table("lin", 0.0, 1.0, [fam], x, 5)
    e = np.array([0.5])
    with pytest.raises(ConfigurationError):
        prop.propagate(table, np.zeros(1, dtype=np.intp), e, (e, e), 0, 5,
                       record=True, phase=True)


# ---------------------------------------------------------------------------
# index-counted bracket search
# ---------------------------------------------------------------------------

SEARCH_TOL = 1e-10
SEARCH_TARGETS = np.array([0, 0, 1, 1, 2, 2])


@pytest.fixture(scope="module")
def search_tables():
    """(table, seeds, window) for d = 3 pure Coulomb and d = 1 cutoff
    Coulomb, each on its coarse table and on a fine table."""
    out = []
    for channel, family in ((dm.ChannelSpec(d=3, tau=-1, j=0.5), dm.pure_coulomb(0.5)),
                            (dm.ChannelSpec(d=1, parity="even"),
                             dm.cutoff_coulomb(1.0, 1.0))):
        ws = S._Workspace(channel, [family], S.DEFAULT_CONFIG)
        window = ws.window()
        fine = ws.fine_table(window, ws.domain)
        out.extend((table, ws.seeds, window) for table in (ws.coarse, fine))
    return out


def _random_brackets(table, seeds, window, rng):
    """Brackets around eigenvalue index t for each t in SEARCH_TARGETS: each
    end is drawn between the scan point next to the eigenvalue and the window
    edge on its side, so some brackets are narrow and some span many levels.
    Returns (lo, hi, dtheta_bottom) with the precondition checked."""
    bottom, top = window
    e = np.linspace(bottom, top, 400)
    _, th, _ = prop.match_values(table, np.zeros(e.size, dtype=np.intp), e, *seeds,
                                 phase=True)
    counts = prop.count_below(th, th[0])
    lo, hi = [], []
    for t in SEARCH_TARGETS:
        e_lo = e[np.nonzero(counts <= t)[0][-1]]
        e_hi = e[np.nonzero(counts > t)[0][0]]
        lo.append(e_lo - rng.uniform() ** 3 * (e_lo - bottom))
        hi.append(e_hi + rng.uniform() ** 3 * (top - e_hi))
    return np.array(lo), np.array(hi), np.full(SEARCH_TARGETS.size, th[0])


def _centre_brackets(table, seeds, window, rng):
    """Brackets as the fine stage builds them: a centre within 3e-6 of
    eigenvalue index t (a coarse-search estimate), and the window edge on the
    other side of the centre's count."""
    bottom, top = window
    lo, hi, dtb = _random_brackets(table, seeds, window, rng)
    centre = _bisection_oracle(table, seeds, lo, hi, dtb, 1e-6)
    centre += rng.uniform(-3e-6, 3e-6, centre.size)
    idx = np.zeros(centre.size, dtype=np.intp)
    _, th, _ = prop.match_values(table, idx, centre, *seeds, phase=True)
    up = prop.count_below(th, dtb) <= SEARCH_TARGETS
    return np.where(up, centre, bottom), np.where(up, top, centre), dtb


def _ends(table, seeds, lo, hi):
    idx = np.zeros(lo.size, dtype=np.intp)
    return [prop.match_values(table, idx, e, *seeds, phase=True) for e in (lo, hi)]


def _bisection_oracle(table, seeds, lo, hi, dtb, tol):
    """Plain count bisection on the same table, down to width tol."""
    idx = np.zeros(lo.size, dtype=np.intp)
    while np.max(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        _, th, _ = prop.match_values(table, idx, mid, *seeds, phase=True)
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
    for (table, seeds, window), brackets in itertools.product(
            search_tables, (_random_brackets, _centre_brackets)):
        lo, hi, dtb = brackets(table, seeds, window, rng)
        ends = _ends(table, seeds, lo, hi)
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
                                                        dtb, SEARCH_TOL, *seeds, ends=ends)

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
            _, th, _ = prop.match_values(table, idx, e_star + shift, *seeds, phase=True)
            assert np.array_equal(prop.count_below(th, dtb), want)
        e_ref = _bisection_oracle(table, seeds, lo, hi, dtb, SEARCH_TOL)
        assert np.all(np.abs(e_star - e_ref) <= SEARCH_TOL)


def test_count_bisect_end_reuse_and_repeats_are_bitwise(search_tables):
    rng = np.random.default_rng(11)
    idx = np.zeros(SEARCH_TARGETS.size, dtype=np.intp)
    for table, seeds, window in search_tables:
        lo, hi, dtb = _random_brackets(table, seeds, window, rng)
        args = (table, idx, lo, hi, SEARCH_TARGETS, dtb, SEARCH_TOL, *seeds)
        ends = _ends(table, seeds, lo, hi)
        once = prop.count_bisect(*args, ends=ends)
        again = prop.count_bisect(*args, ends=ends)
        fresh = prop.count_bisect(*args, ends=_ends(table, seeds, lo, hi))
        for a, b, c in zip(once, again, fresh):
            assert np.array_equal(a, b) and np.array_equal(a, c)


def test_count_bisect_closed_bracket_reports_end_residual(search_tables, monkeypatch):
    # a bracket within tol on entry takes no step: E is its midpoint and |M|
    # the larger of the two end values, which were computed, not zero
    table, seeds, _ = search_tables[1]
    e0 = 0.8660254037844386   # closed-form d = 3 Coulomb ground state, alpha 0.5
    lo, hi = np.array([e0 - 3e-4]), np.array([e0 + 3e-4])
    (m_lo, th_lo, d_lo), (m_hi, th_hi, d_hi) = _ends(table, seeds, lo, hi)
    dtb = th_lo  # counts from lo: the bracket holds eigenvalue index 0
    assert prop.count_below(th_hi, dtb)[0] == 1
    monkeypatch.setattr(prop, "match_values", None)  # no evaluation may run
    e_star, m_abs, width, evals = prop.count_bisect(
        table, np.zeros(1, dtype=np.intp), lo, hi, np.array([0]), dtb, 1e-3,
        *seeds, ends=((m_lo, th_lo, d_lo), (m_hi, th_hi, d_hi)))
    assert e_star[0] == 0.5 * (lo[0] + hi[0])
    assert width[0] == hi[0] - lo[0]
    assert m_abs[0] == max(abs(m_lo[0]), abs(m_hi[0])) > 0
    assert evals[0] == 0


FINE_EVALS_CRITERION_1 = 49
MATCH_CALLS_CRITERION_1 = 46


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


def _cubic_tail_well(g):
    """V = -g/(1 + r^3): its tail is too weak for the first coarse domain to
    hold an excited d = 1 state, but not dead at its wall."""
    def shape(r):
        return -1.0 / (1.0 + np.asarray(r, dtype=float) ** 3)

    return custom_family("cubic-tail", lambda p, r: p["g"] * shape(r),
                         {"g": lambda p, r: shape(r)}, OriginClass("regular"),
                         {"g": g}, "g", origin_value=lambda p: -p["g"])


def test_recoveries_are_logged(channel_s, coulomb_half, monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="diracmono")
    # the whole-window coarse search steps to the bracket midpoint where
    # Newton leaves the bracket
    dm.solve(channel_s, coulomb_half, 0)
    assert any("fell back from Newton" in r.getMessage() for r in caplog.records)

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

    # a missing level grows the coarse domain by 2.5
    caplog.clear()
    with pytest.raises(NoSuchStateError):
        dm.solve(dm.ChannelSpec(d=1, parity="even"), _cubic_tail_well(0.24), 1)
    assert any("coarse r_max 60 -> 150" in r.getMessage() for r in caplog.records)


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


def test_r_match_falls_back_to_the_length_scale(channel_s):
    # alpha/a < m: |V| never reaches m, so r_match is 4 length scales
    fam = dm.cutoff_coulomb(1.0, 1.3)
    st = dm.solve(channel_s, fam, 0)
    assert st.diagnostics["r_match"] == 4 * fam.length_scale()


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


DEEP_REGULAR_WELLS = [  # (channel, family, nodes of the gap-index-0 state)
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

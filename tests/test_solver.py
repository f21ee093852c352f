"""Shooting solver: seeds, matching, eigenvalues, state invariants."""

import math

import numpy as np
import pytest

import diracmono as dm
from diracmono import propagation as prop
from diracmono import solver as S
from diracmono.errors import (
    ConfigurationError,
    DomainError,
    GridMismatchError,
    NoSuchStateError,
    NumericalError,
    UnsupportedRegimeError,
)
from diracmono.numerics import apply_derivative, derivative_weights

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


def test_solve_config_validation():
    with pytest.raises(ConfigurationError):
        dm.SolveConfig(e_tol=-1.0)
    with pytest.raises(ConfigurationError):
        dm.SolveConfig(scan_points=2)
    with pytest.raises(ConfigurationError):
        dm.SolveConfig(r0=1.0, r_max=0.5)
    for density in (0.3, 9.0, float("nan")):
        with pytest.raises(ConfigurationError):
            dm.SolveConfig(step_density=density)


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
    h_rule = S._h_rule(ch, domain, S._band_rate(ch, S._vmax_fn([fam]), (e, e)),
                       0.025, 1.0)
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


def _match(path, legs):
    """Match value and matching angle from the outward and inward legs."""
    ((o1, o2), th_out), ((t1, t2), th_in) = (path(*args, False, True) for args in legs)
    mval = (o1 * t2 - o2 * t1) / (np.hypot(o1, o2) * np.hypot(t1, t2))
    return mval, th_out - th_in


def _scan_in_segments(*args):
    """The numpy scan, forced to split every traversal into 7-step segments."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prop, "_SCAN_ELEMENTS", 7 * np.size(args[2]))
        return prop.propagate(*args)


def _assert_all_close(got, ref, atol):
    for g, r in zip(got, ref):
        assert np.allclose(g, r, rtol=1e-12, atol=atol)


def test_scan_matches_sequential_reference():
    # the step-parallel scan, whole and in short segments, reproduces the
    # sequential reference in phase, record and plain modes, and counts the
    # same eigenvalues
    paths = [prop.propagate, _scan_in_segments]
    cases = ((dm.ChannelSpec(d=3, tau=-1, j=0.5), dm.pure_coulomb(0.5)),
             (dm.ChannelSpec(d=1, parity="even"), dm.cutoff_coulomb(1.0, 1.0)))
    for channel, family in cases:
        ws = S._Workspace(channel, [family], S.DEFAULT_CONFIG)
        seed_o, seed_t = ws.seeds()
        bottom, top = ws.scan_window()
        fine = ws.fine_table((bottom, top), ws.trimmed_domain((bottom, top)))
        e = np.linspace(bottom, top, 41)
        idx = np.zeros(e.size, dtype=np.intp)
        for table in (ws.coarse, fine):
            legs = ((table, idx, e, seed_o(e, idx), 0, table.i_match),
                    (table, idx, e, seed_t(e, idx), table.n_steps, table.i_match))
            m_ref, dth_ref = _match(propagate_sequential, legs)
            counts_ref = prop.count_below(dth_ref, dth_ref[0])
            assert counts_ref[-1] > 1  # the grid spans several eigenvalues
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

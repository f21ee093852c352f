"""Derivative identities, residuals, sweeps, verdicts, comparisons."""

import math
import tracemalloc

import numpy as np
import pytest

import diracmono as dm
from diracmono import monotonicity as mono
from diracmono import propagation as prop
from diracmono import solver as S
from diracmono.coulomb import CoulombLevel, coulomb_energy_derivative
from diracmono.errors import (
    ConfigurationError,
    LevelCrossingError,
    NoSuchStateError,
    PointwiseOrderError,
    SweepAbortedError,
)

from conftest import assert_close, point_by_point


def test_hf_matches_oracle_derivative(channel_s, coulomb_ground):
    fam = dm.pure_coulomb(0.5)  # active defaults to alpha
    hf = mono.hf_derivative(coulomb_ground, fam)
    exact = coulomb_energy_derivative(CoulombLevel(1, 0.5, 0.5))
    assert abs(hf - exact) / abs(exact) < 1e-5


def test_hf_signs_for_cutoff(channel_s, cutoff_ground, cutoff_family):
    assert mono.hf_derivative(cutoff_ground, cutoff_family) > 0
    assert mono.hf_derivative(cutoff_ground, cutoff_family.with_active("alpha")) < 0


def test_hf_requires_registered_derivative(cutoff_ground):
    bare = dm.custom_family(
        "bare", lambda p, r: -p["g"] / (r + 0.5), {},
        dm.OriginClass("regular"), {"g": 1.0}, "g",
        origin_value=lambda p: -2.0 * p["g"],
    )
    with pytest.raises(ConfigurationError):
        mono.hf_derivative(cutoff_ground, bare)


def test_fd_matches_oracle_derivative(channel_s):
    fd = mono.fd_derivative(dm.pure_coulomb(0.5), channel_s, 0)
    exact = coulomb_energy_derivative(CoulombLevel(1, 0.5, 0.5))
    assert_close(fd, exact, 1e-6, "dE/dalpha by finite differences")


def test_fd_agrees_with_hf(channel_s, cutoff_family, cutoff_ground):
    fd = mono.fd_derivative(cutoff_family, channel_s, 0)
    hf = mono.hf_derivative(cutoff_ground, cutoff_family)
    assert abs(fd - hf) <= 1e-5 * abs(hf)


def test_fd_near_stationary_point_of_indefinite_family(channel_s):
    # negative control: E(a) has an extremum where the depth is extremal,
    # which only happens when dV/da changes sign across the family
    def value(p, r):
        return -(3.0 - (p["a"] - 1.0) ** 2) * np.exp(-r)

    fam = dm.custom_family(
        "dimple", value,
        {"a": lambda p, r: 2.0 * (p["a"] - 1.0) * np.exp(-r)},
        dm.OriginClass("regular"), {"a": 1.0}, "a",
        origin_value=lambda p: -(3.0 - (p["a"] - 1.0) ** 2),
    )
    fd = mono.fd_derivative(fam, channel_s, 0)
    assert abs(fd) < 1e-6


@pytest.mark.parametrize("h", [0.0, math.inf, math.nan])
def test_zero_or_non_finite_step_rejected(channel_s, cutoff_family, h, monkeypatch):
    # refused before any solve; sweep refuses before its batched path, whose
    # fallback would turn the refusal into an aborted sweep
    def no_solve(*args, **kwargs):
        raise AssertionError("a stencil was solved")

    monkeypatch.setattr(mono, "solve_batch", no_solve)
    for call in (mono.fd_derivative, mono.wavefunction_param_derivative):
        with pytest.raises(ConfigurationError, match="finite and non-zero"):
            call(cutoff_family, channel_s, 0, h=h)
    with pytest.raises(ConfigurationError, match="finite and non-zero"):
        mono.sweep(cutoff_family, channel_s, 0, [0.5, 1.0], h=h)


def test_stencil_outside_the_domain_rejected(channel_s, cutoff_family, monkeypatch):
    # a stencil member outside the family's domain is refused before any
    # solve, naming the parameter, the point and the step: cutoff-coulomb
    # needs a > 0, and a homotopy's t - h leaves [0, 1] at t = 0
    def no_solve(*args, **kwargs):
        raise AssertionError("a stencil was solved")

    monkeypatch.setattr(mono, "solve_batch", no_solve)
    for call in (mono.fd_derivative, mono.wavefunction_param_derivative):
        with pytest.raises(ConfigurationError,
                           match=r"stencil of a = 0\.5 with step h = 5 reaches a = -4\.5"):
            call(cutoff_family, channel_s, 0, h=5.0)
    with pytest.raises(ConfigurationError,
                       match=r"stencil of a = 0\.5 with step h = 5 reaches a = -4\.5"):
        mono.sweep(cutoff_family, channel_s, 0, [0.5, 1.0], h=5.0)
    hom = dm.make_homotopy(dm.pure_coulomb(0.5), dm.pure_coulomb(0.6))
    with pytest.raises(ConfigurationError,
                       match=r"stencil of t = 0 with step h = 0\.0001 reaches t = -0\.0001"):
        mono.sweep(hom, channel_s, 0, [0.0, 0.5])


def test_negative_step_mirrors_the_stencil(channel_s, cutoff_family, cutoff_ground):
    fd = mono.fd_derivative(cutoff_family, channel_s, 0, h=-1e-3)
    hf = mono.hf_derivative(cutoff_ground, cutoff_family)
    assert abs(fd - hf) <= 1e-5 * abs(hf)


def test_fd_level_crossing_is_loud(channel_s):
    # the exponential well first binds near a ~ 0.7; a stencil spanning the
    # threshold cannot resolve the same level at every point
    fam = dm.coupling(0.75, 1.0, "exp", active="a")
    with pytest.raises(LevelCrossingError):
        mono.fd_derivative(fam, channel_s, 0, h=0.3)


def test_psi_param_derivative_orthogonality(channel_s, cutoff_family):
    pa = mono.wavefunction_param_derivative(cutoff_family, channel_s, 0)
    res = mono.orthogonality_residual(pa.center, pa)
    assert res <= 1e-5
    # smoothness: the derivative arrays are O(1), not O(1/h)
    assert max(np.abs(pa.psi1a).max(), np.abs(pa.psi2a).max()) < 50.0


def test_orthogonality_residual_second_order(channel_s, cutoff_family):
    res = {}
    for h in (8e-3, 4e-3, 2e-3):
        pa = mono.wavefunction_param_derivative(cutoff_family, channel_s, 0, h=h)
        res[h] = mono.orthogonality_residual(pa.center, pa)
    order1 = math.log2(res[8e-3] / res[4e-3])
    order2 = math.log2(res[4e-3] / res[2e-3])
    assert res[2e-3] <= 1e-5
    assert order1 >= 1.8 and order2 >= 1.5


def test_w_residual_small_and_corruption_control(channel_s, cutoff_family):
    # Note: flipping the sign of psi2a does NOT move W away from zero - in the
    # integrated-by-parts form W pairs the parameter derivatives against the
    # eigenequation residuals, which vanish for the exact state no matter
    # what psi_a is. A real negative control corrupts the state itself.
    import dataclasses

    for nr in (0, 1):
        pa = mono.wavefunction_param_derivative(cutoff_family, channel_s, nr)
        w = mono.w_residual(pa.center, pa, cutoff_family, channel_s)
        assert w <= 1e-4
        bad_state = dataclasses.replace(pa.center, psi2=(-pa.center.psi2).copy())
        w_bad = mono.w_residual(bad_state, pa, cutoff_family, channel_s)
        assert w_bad > 1e4 * max(w, 1e-9)


def test_w_residual_shrinks_under_refinement(channel_s, cutoff_family):
    pa0 = mono.wavefunction_param_derivative(cutoff_family, channel_s, 0, h=4e-3)
    w0 = mono.w_residual(pa0.center, pa0, cutoff_family, channel_s)
    cfg = dm.SolveConfig(step_density=10 ** 0.25, n_grid=8000)
    pa1 = mono.wavefunction_param_derivative(cutoff_family, channel_s, 0,
                                             h=2e-3, config=cfg)
    w1 = mono.w_residual(pa1.center, pa1, cutoff_family, channel_s)
    assert w1 < w0


def test_w_residual_grid_contract(channel_s, cutoff_family):
    pa = mono.wavefunction_param_derivative(cutoff_family, channel_s, 0)
    with pytest.raises(ConfigurationError):
        mono.w_residual(pa.center, (pa.psi1a[:-1], pa.psi2a[:-1]),
                        cutoff_family, channel_s)


def test_sweep_monotone_in_a(channel_s):
    fam = dm.cutoff_coulomb(1.0, 1.0, active="a")
    recs = mono.sweep(fam, channel_s, 0, np.linspace(0.1, 2.0, 8))
    e = [r.E for r in recs]
    assert all(np.diff(e) > 0)
    assert all(r.nodes == 0 for r in recs)
    assert all(r.dE_hf > 0 for r in recs)
    assert all(r.hf_residual <= max(1e-5 * abs(r.dE_hf), 1e-7) for r in recs)


def test_sweep_monotone_in_alpha(channel_s):
    fam = dm.cutoff_coulomb(0.5, 1.0, active="alpha")
    recs = mono.sweep(fam, channel_s, 0, np.linspace(0.3, 0.9, 6))
    assert all(np.diff([r.E for r in recs]) < 0)
    assert all(r.dE_hf < 0 for r in recs)


def test_sweep_reproduces_closed_form_spectrum(channel_s):
    from diracmono.coulomb import coulomb_energy

    fam = dm.pure_coulomb(0.5, active="alpha")
    recs = mono.sweep(fam, channel_s, 0, np.linspace(0.3, 0.7, 5))
    for r in recs:
        level = CoulombLevel(1, 0.5, r.a)
        assert abs(r.E - coulomb_energy(level)) <= 1e-6
        d_exact = coulomb_energy_derivative(level)
        assert abs(r.dE_hf - d_exact) <= 1e-5 * abs(d_exact)


def test_sweep_validates_grid(channel_s, cutoff_family):
    with pytest.raises(ConfigurationError):
        mono.sweep(cutoff_family, channel_s, 0, [1.0])
    with pytest.raises(ConfigurationError):
        mono.sweep(cutoff_family, channel_s, 0, [1.0, 0.5])


def test_sweep_abort_attaches_partial_records(channel_s):
    fam = dm.pure_coulomb(0.8, active="alpha")
    with pytest.raises(SweepAbortedError) as exc_info:
        mono.sweep(fam, channel_s, 0, np.linspace(0.8, 1.2, 5))
    aborted = exc_info.value
    assert len(aborted.records) == 2  # alpha = 0.8 and 0.9 precede the wall
    assert aborted.cause is not None


def test_multi_stencil_batch_lists_no_found_pairs(channel_s, monkeypatch):
    # screening unbinds n_r = 1 at b ~ 0.2: the batch of the whole sweep
    # refuses without count-bisecting the pairs it found (the sweep discards
    # that message and solves point by point), while the one-stencil batch
    # of the failing point still lists them
    fam = dm.coupling(0.5, 0.1, "yukawa", active="b")
    searches = []
    count_bisect = prop.count_bisect

    def counting(*args, **kwargs):
        searches.append(np.size(args[2]))
        return count_bisect(*args, **kwargs)

    monkeypatch.setattr(prop, "count_bisect", counting)
    with pytest.raises(NoSuchStateError) as batch:
        list(mono._stencils(channel_s, 1, *mono._stencil_families(
            fam, np.linspace(0.05, 0.3, 4).tolist(), None), None))
    assert searches == []
    assert batch.value.found == []
    assert "found pairs not listed" in str(batch.value)
    with pytest.raises(NoSuchStateError) as point:
        list(mono._stencils(channel_s, 1, *mono._stencil_families(fam, [0.216667], None),
                            None))
    assert searches == [5]   # index 0 of the five stencil members
    assert [n for _, n in point.value.found] == [0] * 5


def test_sweep_lets_programming_errors_through(channel_s):
    # only package errors become a sweep abort; a fault in user code
    # surfaces as itself
    def value(p, r):
        raise ZeroDivisionError("fault in the potential")

    fam = dm.custom_family(
        "broken", value, {"g": lambda p, r: -1.0 / (r + 0.5)},
        dm.OriginClass("regular"), {"g": 1.0}, "g",
        origin_value=lambda p: -2.0 * p["g"],
    )
    with pytest.raises(ZeroDivisionError):
        mono.sweep(fam, channel_s, 0, [0.9, 1.1])


@pytest.mark.parametrize("channel, grid", [
    (dm.ChannelSpec(d=3, tau=-1, j=0.5), np.linspace(0.1, 2.0, 5)),  # criterion 2, short
    (dm.ChannelSpec(d=1, parity="even"), np.linspace(0.6, 1.4, 3)),
])
def test_batched_sweep_matches_point_by_point(channel, grid, monkeypatch):
    # one batch for the whole sweep moves E within 1e-9 of the per-point
    # solves, keeps every node count, and keeps the residuals within the
    # verify bounds (hf: max(1e-5 |dE_hf|, 1e-7), orth 1e-5, w 1e-4)
    fam = dm.cutoff_coulomb(1.0, 1.0, active="a")
    for n_r in (0, 1):
        batched = mono.sweep(fam, channel, n_r, grid)
        with monkeypatch.context() as mp:
            point_by_point(mp)
            reference = mono.sweep(fam, channel, n_r, grid)
        assert len(batched) == len(reference) == grid.size
        for b, r in zip(batched, reference):
            assert b.a == r.a
            assert b.nodes == r.nodes == n_r
            assert_close(b.E, r.E, 1e-9, f"E at a = {b.a}, n_r = {n_r}")
            for rec in (b, r):
                assert rec.hf_residual <= max(1e-5 * abs(rec.dE_hf), 1e-7)
                assert rec.orth_residual <= 1e-5 and rec.w_residual <= 1e-4


MATCH_CALLS_SWEEP_LEVEL = 40


def test_sweep_level_match_calls(channel_s, monkeypatch):
    # one level of acceptance criterion 2 (20 points, 100 stencil families)
    # makes at most MATCH_CALLS_SWEEP_LEVEL batched match evaluations, coarse
    # and fine alike, counted at the propagation boundary: the fine stage
    # searches its stencils in lockstep, not one after another (about 95
    # calls)
    calls = []
    real = prop.match_values

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(prop, "match_values", counting)
    records = mono.sweep(dm.cutoff_coulomb(1.0, 1.0, active="a"), channel_s, 0,
                         np.linspace(0.1, 2.0, 20))
    assert len(records) == 20
    assert len(calls) <= MATCH_CALLS_SWEEP_LEVEL


def test_sweep_streams_its_stencils(channel_s):
    # each stencil becomes its record as soon as it is solved, so five times
    # the points keep the traced peak within 1.5x: the wavefunctions of one
    # stencil at a time are alive, not those of every point. n_grid = 12000
    # makes the dense states (which the streaming bounds) dominate the peak
    # over the shared coarse stage, whose scan grows with the batch up to
    # its piece bound; holding every stencil's states instead peaks at
    # about 2.7 times the 4-point sweep.
    fam = dm.cutoff_coulomb(1.0, 1.0, active="a")
    config = dm.SolveConfig(n_grid=12000)
    peaks = []
    for n in (4, 20):
        tracemalloc.start()
        try:
            records = mono.sweep(fam, channel_s, 0, np.linspace(0.1, 2.0, n), config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(records) == n
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_sweep_drops_each_stencil_before_the_next(channel_s, monkeypatch):
    # a stencil's dense states (its centre, its a -+ h members and psi_a)
    # are released once its record is made, before the next stencil's are
    # formed: the traced memory at the start of every dense stage is within
    # 0.5 MB of the first one's, where holding the previous stencil's states
    # adds about 1.25 MB at n_grid = 12000
    fam = dm.cutoff_coulomb(1.0, 1.0, active="a")
    entry = []
    real = S._Workspace.dense_states

    def recording(self, *args, **kwargs):
        entry.append(tracemalloc.get_traced_memory()[0])
        return real(self, *args, **kwargs)

    monkeypatch.setattr(S._Workspace, "dense_states", recording)
    tracemalloc.start()
    try:
        records = mono.sweep(fam, channel_s, 0, np.linspace(0.1, 2.0, 4),
                             dm.SolveConfig(n_grid=12000))
    finally:
        tracemalloc.stop()
    assert len(records) == len(entry) == 4
    assert max(entry) - entry[0] < 0.5e6, entry


def test_sweep_continuity_guard_refines(channel_s):
    # adjacent-point energy jumps shrink as the parameter grid refines
    fam = dm.cutoff_coulomb(1.0, 1.0, active="a")
    coarse = mono.sweep(fam, channel_s, 0, np.linspace(0.5, 1.5, 5))
    fine = mono.sweep(fam, channel_s, 0, np.linspace(0.5, 1.5, 9))
    assert max(np.diff([r.E for r in fine])) < max(np.diff([r.E for r in coarse]))


def test_verdict_pass_directions(channel_s):
    fam_a = dm.cutoff_coulomb(1.0, 1.0, active="a")
    recs = mono.sweep(fam_a, channel_s, 0, np.linspace(0.4, 1.6, 5))
    vd = mono.verdict(recs, dm.classify_sign(fam_a))
    assert vd.status == "pass" and vd.conclusion == "nondecreasing"
    assert vd.passed

    fam_al = dm.cutoff_coulomb(0.6, 1.0, active="alpha")
    recs = mono.sweep(fam_al, channel_s, 0, np.linspace(0.4, 0.8, 5))
    vd = mono.verdict(recs, dm.classify_sign(fam_al))
    assert vd.status == "pass" and vd.conclusion == "nonincreasing"


def test_verdict_not_applicable_for_indefinite():
    vd = mono.verdict([], dm.SignClass.INDEFINITE)
    assert vd.status == "not-applicable"
    assert not vd.passed


def test_verdict_fails_on_wrong_sign():
    recs = [mono.SweepRecord(a=a, E=-a, dE_fd=-1.0, dE_hf=-1.0,
                             hf_residual=0.0, orth_residual=0.0,
                             w_residual=0.0, nodes=0)
            for a in (0.1, 0.2)]
    vd = mono.verdict(recs, dm.SignClass.NON_NEGATIVE)
    assert vd.status == "fail" and vd.conclusion == "nonincreasing"


def test_compare_ordered_pair(channel_s):
    v1 = dm.cutoff_coulomb(1.0, 0.5)
    v2 = dm.cutoff_coulomb(1.0, 1.0)
    for nr in (0, 1):
        res = mono.compare_potentials(v1, v2, channel_s, nr, t_points=5)
        assert res.e1 <= res.e2 + 1e-9
        assert res.verdict.passed
        assert np.all(np.diff(res.e_t) >= -1e-9)
        assert res.e_t[0] <= res.e_t[-1]


def test_compare_equal_families(channel_s):
    v = dm.cutoff_coulomb(1.0, 0.8)
    res = mono.compare_potentials(v, dm.cutoff_coulomb(1.0, 0.8), channel_s, 0,
                                  t_points=3)
    assert abs(res.e1 - res.e2) <= 2 * dm.SolveConfig().e_tol
    assert res.verdict.passed


def test_compare_crossing_pair_rejected(channel_s):
    v1 = dm.cutoff_coulomb(1.0, 1.0)     # shallower at origin, stronger tail
    v2 = dm.cutoff_coulomb(0.6, 0.3)     # deeper at origin, weaker tail
    with pytest.raises(PointwiseOrderError):
        mono.compare_potentials(v1, v2, channel_s, 0)


def test_compare_needs_two_t_points(channel_s):
    # a t-sweep of fewer than two points shows no passage between V1 and V2,
    # and a t-sweep needs a whole number of points
    v1, v2 = dm.cutoff_coulomb(1.0, 0.5), dm.cutoff_coulomb(1.0, 1.0)
    for t_points in (0, 1, 2.5):
        with pytest.raises(ConfigurationError):
            mono.compare_potentials(v1, v2, channel_s, 0, t_points=t_points)


def test_compare_homotopy_sandwich(channel_s):
    v1 = dm.cutoff_coulomb(1.0, 0.5)
    v2 = dm.cutoff_coulomb(1.0, 1.0)
    res = mono.compare_potentials(v1, v2, channel_s, 0, t_points=7)
    assert np.all(res.e_t >= res.e1 - 1e-9)
    assert np.all(res.e_t <= res.e2 + 1e-9)


def test_compare_mixed_origin_classes(channel_s):
    # cutting off the singularity raises the potential pointwise, so the
    # interpolation runs from a singular to a regular origin
    v1 = dm.pure_coulomb(0.5)
    v2 = dm.cutoff_coulomb(0.5, 0.4)
    res = mono.compare_potentials(v1, v2, channel_s, 0, t_points=5)
    assert res.verdict.passed
    assert abs(res.e1 - 0.8660254037844386) < 1e-6


def test_yukawa_active_coupling_harness(channel_s):
    # the origin strength of the yukawa shape IS the active coupling, so the
    # origin exponent moves with the sweep parameter
    fam = dm.coupling(0.9, 1.0, "yukawa", active="a")
    st = dm.solve(channel_s, fam, 0)
    hf = mono.hf_derivative(st, fam)
    fd = mono.fd_derivative(fam, channel_s, 0)
    assert hf < 0
    assert abs(hf - fd) <= max(1e-5 * abs(hf), 1e-7)


def test_hf_identity_at_other_mass():
    ch = dm.ChannelSpec(d=3, tau=-1, j=0.5, m=2.0)
    fam = dm.cutoff_coulomb(1.0, 0.5, active="a")
    hf = mono.hf_derivative(dm.solve(ch, fam, 0), fam)
    fd = mono.fd_derivative(fam, ch, 0)
    assert abs(hf - fd) <= max(1e-5 * abs(hf), 2e-7)

"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line with the measured quantity next to its
tolerance, so `pytest -s tests/test_acceptance.py` doubles as the
verification report.
"""

import math
import time

import numpy as np

import diracmono as dm
from diracmono import monotonicity as mono
from diracmono.coulomb import CoulombLevel, coulomb_energy, coulomb_energy_derivative
from diracmono.numerics import apply_derivative, derivative_weights

CH = dm.ChannelSpec(d=3, tau=-1, j=0.5)
ALL_STATES = []  # accumulated accepted states, checked by criterion 9


def _report(num, label, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({label}): {detail}")
    return ok


def _track(*states):
    ALL_STATES.extend(states)
    return states[0] if len(states) == 1 else states


# -- criterion 1 ------------------------------------------------------------

def test_criterion_1_coulomb_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for j in (0.5, 1.5):
        channel = dm.ChannelSpec(d=3, tau=-1, j=j)
        fams = [dm.pure_coulomb(al) for al in (0.2, 0.5, 0.9)]
        results = dm.solve_batch(channel, fams, [0, 1, 2])
        for fam, per_fam in zip(fams, results):
            for n_r, state in per_fam.items():
                level = CoulombLevel(n=int(n_r + j + 0.5), j=j,
                                     alpha=fam.params["alpha"])
                worst = max(worst, abs(state.E - coulomb_energy(level)))
                assert state.nodes == n_r
                _track(state)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    _report(1, "Dirac-Coulomb oracle equivalence",
            ok, f"max|E_solver - E_formula| = {worst:.2e} <= 1e-6 over 18 "
                f"states, runtime {elapsed:.1f}s < 10s")
    assert ok


# -- criteria 2 and 3 share the cutoff sweeps --------------------------------

_SWEEP_CACHE = {}


def cutoff_sweeps():
    if not _SWEEP_CACHE:
        fam = dm.cutoff_coulomb(1.0, 1.0, active="a")
        grid = np.linspace(0.1, 2.0, 20)
        t0 = time.perf_counter()
        _SWEEP_CACHE["records"] = {n_r: mono.sweep(fam, CH, n_r, grid)
                                   for n_r in (0, 1)}
        _SWEEP_CACHE["elapsed"] = time.perf_counter() - t0
    return _SWEEP_CACHE


def test_criterion_2_hellmann_feynman_identity():
    cache = cutoff_sweeps()
    worst_ratio = 0.0
    for n_r, records in cache["records"].items():
        for r in records:
            bound = max(1e-5 * abs(r.dE_hf), 1e-7)
            worst_ratio = max(worst_ratio, r.hf_residual / bound)
    ok = worst_ratio <= 1.0 and cache["elapsed"] < 30.0
    _report(2, "Hellmann-Feynman identity",
            ok, f"20-point sweep, n_r in (0, 1): worst residual at "
                f"{worst_ratio:.3f} of its bound max(1e-5|dE_hf|, 1e-7), "
                f"runtime {cache['elapsed']:.1f}s < 30s")
    assert ok


def test_criterion_3_monotonicity_verdicts():
    fam_a = dm.cutoff_coulomb(1.0, 1.0, active="a")
    checks = []
    for n_r, records in cutoff_sweeps()["records"].items():
        vd = mono.verdict(records, dm.classify_sign(fam_a))
        checks.append(vd.status == "pass" and vd.conclusion == "nondecreasing")

    fam_al = dm.cutoff_coulomb(1.0, 1.0, active="alpha")
    for n_r in (0, 1):
        recs = mono.sweep(fam_al, CH, n_r, np.linspace(0.6, 1.4, 6))
        vd = mono.verdict(recs, dm.classify_sign(fam_al))
        checks.append(vd.status == "pass" and vd.conclusion == "nonincreasing")

    worst_rel = 0.0
    for alpha in (0.3, 0.5, 0.7, 0.9):
        fam = dm.pure_coulomb(alpha)
        st = dm.solve(CH, fam, 0)
        _track(st)
        hf = mono.hf_derivative(st, fam)
        exact = coulomb_energy_derivative(CoulombLevel(1, 0.5, alpha))
        worst_rel = max(worst_rel, abs(hf - exact) / abs(exact))
    checks.append(worst_rel <= 1e-5)

    ok = all(checks)
    _report(3, "monotonicity verdicts",
            ok, f"cutoff: nondecreasing in a, nonincreasing in alpha for "
                f"n_r in (0, 1); pure-Coulomb dE/dalpha matches the closed "
                f"form to {worst_rel:.1e} <= 1e-5 relative")
    assert ok


# -- criterion 4 --------------------------------------------------------------

def test_criterion_4_orthogonality_residual():
    fam = dm.cutoff_coulomb(1.0, 1.0, active="a")
    pa_default = mono.wavefunction_param_derivative(fam, CH, 0)
    res_default = mono.orthogonality_residual(pa_default.center, pa_default)
    _track(pa_default.center)

    res_h = {}
    for h in (8e-3, 4e-3, 2e-3):
        pa = mono.wavefunction_param_derivative(fam, CH, 0, h=h)
        res_h[h] = mono.orthogonality_residual(pa.center, pa)
    order1 = math.log2(res_h[8e-3] / res_h[4e-3])
    order2 = math.log2(res_h[4e-3] / res_h[2e-3])
    order = min(order1, order2)
    ok = res_default <= 1e-5 and order >= 1.8
    _report(4, "orthogonality of psi_a",
            ok, f"residual {res_default:.2e} <= 1e-5 at the default step; "
                f"halving h gives order {order:.2f} >= 1.8")
    assert ok


# -- criterion 5 --------------------------------------------------------------

def test_criterion_5_w_residual():
    fam = dm.cutoff_coulomb(1.0, 1.0, active="a")
    w_vals = {}
    for n_r in (0, 1):
        pa = mono.wavefunction_param_derivative(fam, CH, n_r)
        w_vals[n_r] = mono.w_residual(pa.center, pa, fam, CH)
        _track(pa.center)
    cfg = dm.SolveConfig(step_density=10 ** 0.25, n_grid=8000)
    pa_fine = mono.wavefunction_param_derivative(fam, CH, 0, h=5e-4, config=cfg)
    w_fine = mono.w_residual(pa_fine.center, pa_fine, fam, CH)
    ok = all(w <= 1e-4 for w in w_vals.values()) and w_fine < w_vals[0]
    _report(5, "W-residual",
            ok, f"|W| = {w_vals[0]:.2e} (ground), {w_vals[1]:.2e} (excited) "
                f"<= 1e-4; refined |W| = {w_fine:.2e} shrinks")
    assert ok


# -- criterion 6 --------------------------------------------------------------

def test_criterion_6_comparison_corollary():
    v1 = dm.cutoff_coulomb(1.0, 0.5)
    v2 = dm.cutoff_coulomb(1.0, 1.0)
    oks, details = [], []
    for n_r in (0, 1):
        res = mono.compare_potentials(v1, v2, CH, n_r, t_points=9)
        monotone = bool(np.all(np.diff(res.e_t) >= -1e-9))
        oks.append(res.e1 <= res.e2 + 1e-9 and monotone and res.verdict.passed)
        details.append(f"n_r={n_r}: E1={res.e1:.8f} <= E2={res.e2:.8f}, "
                       f"interpolation monotone={monotone}")
    ok = all(oks)
    _report(6, "pointwise-order comparison", ok, "; ".join(details))
    assert ok


# -- criterion 7 --------------------------------------------------------------

def test_criterion_7_one_dimensional_sector():
    fam = dm.cutoff_coulomb(1.0, 1.0, active="a")
    oks, details = [], []
    for parity in ("even", "odd"):
        ch1 = dm.ChannelSpec(d=1, parity=parity)
        recs = mono.sweep(fam, ch1, 0, np.linspace(0.6, 1.4, 5))
        inside = all(-1.0 < r.E < 1.0 for r in recs)
        hf_ok = all(r.hf_residual <= max(1e-5 * abs(r.dE_hf), 1e-7)
                    for r in recs)
        increasing = bool(np.all(np.diff([r.E for r in recs]) > 0))
        st = dm.solve_1d(ch1, fam, 0)
        _track(st)
        oks.append(inside and hf_ok and increasing)
        details.append(f"{parity}: E = {recs[0].E:.6f}..{recs[-1].E:.6f}, "
                       f"HF ok={hf_ok}, E(a) increasing={increasing}")
    ok = all(oks)
    _report(7, "d = 1 parity sectors", ok, "; ".join(details))
    assert ok


# -- criterion 8 --------------------------------------------------------------

def test_criterion_8_numerical_robustness():
    fam = dm.cutoff_coulomb(1.0, 0.5, active="a")
    e_tol = dm.SolveConfig().e_tol
    base = {n_r: dm.solve(CH, fam, n_r) for n_r in (0, 1)}
    r_match = base[0].diagnostics["r_match"]
    grid_a = np.linspace(0.3, 0.8, 4)

    def verdict_status(config):
        recs = mono.sweep(fam, CH, 0, grid_a, config)
        return mono.verdict(recs, dm.classify_sign(fam)).status

    base_status = verdict_status(None)
    perturbations = {
        "r_match +20%": dm.SolveConfig(r_match=r_match * 1.2),
        "r_match -20%": dm.SolveConfig(r_match=r_match * 0.8),
        "grid x2": dm.SolveConfig(n_grid=8000),
        "step density x10^(1/4)": dm.SolveConfig(step_density=10 ** 0.25),
    }
    max_shift = 0.0
    verdicts_ok = base_status == "pass"
    for label, cfg in perturbations.items():
        for n_r, ref in base.items():
            st = dm.solve(CH, fam, n_r, cfg)
            max_shift = max(max_shift, abs(st.E - ref.E))
        verdicts_ok = verdicts_ok and verdict_status(cfg) == "pass"
    ok = verdicts_ok and max_shift <= 10 * e_tol
    _report(8, "numerical robustness",
            ok, f"verdicts stable under r_match +-20%, grid doubling, step "
                f"density x10^(1/4); max eigenvalue shift {max_shift:.2e} <= "
                f"{10 * e_tol:.0e}")
    assert ok


# -- criterion 9 --------------------------------------------------------------

def test_criterion_9_discrete_antisymmetry():
    assert ALL_STATES, "earlier criteria populate the state collection"
    worst = 0.0
    for st in ALL_STATES:
        tab = derivative_weights(st.grid)
        ip = st.scheme.dot
        val = abs(ip(st.psi1, apply_derivative(tab, st.psi2))
                  + ip(apply_derivative(tab, st.psi1), st.psi2))
        worst = max(worst, val)
    ok = worst <= 1e-6
    _report(9, "discrete anti-symmetry of the derivative",
            ok, f"|(psi1, D psi2) + (D psi1, psi2)| <= {worst:.2e} <= 1e-6 "
                f"over {len(ALL_STATES)} accepted states")
    assert ok

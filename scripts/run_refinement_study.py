"""Convergence study for the identity residuals and eigenvalue stability.

Measures, for the cutoff-Coulomb ground state:
* the orthogonality residual of psi_a as the parameter step h is halved
  (expected 2nd order),
* the W residual at defaults and under simultaneous grid + step refinement,
* the eigenvalue shift under match-radius perturbation, grid doubling, and
  a denser radial step rule.
"""

import math

import diracmono as dm
from diracmono import monotonicity as mono


def main():
    channel = dm.ChannelSpec(d=3, tau=-1, j=0.5)
    family = dm.cutoff_coulomb(1.0, 1.0, active="a")

    print("orthogonality residual vs parameter step")
    prev = None
    for h in (1.6e-2, 8e-3, 4e-3, 2e-3, 1e-3):
        pa = mono.wavefunction_param_derivative(family, channel, 0, h=h)
        res = mono.orthogonality_residual(pa.center, pa)
        order = f" (order {math.log2(prev / res):.2f})" if prev else ""
        print(f"  h = {h:7.1e}: residual {res:.3e}{order}")
        prev = res

    print("\nW residual under refinement")
    pa = mono.wavefunction_param_derivative(family, channel, 0)
    w0 = mono.w_residual(pa.center, pa, family, channel)
    fine = dm.SolveConfig(step_density=10 ** 0.25, n_grid=8000)
    pa_f = mono.wavefunction_param_derivative(family, channel, 0, h=5e-4, config=fine)
    w1 = mono.w_residual(pa_f.center, pa_f, family, channel)
    print(f"  defaults: |W| = {w0:.3e};  refined grid and step: |W| = {w1:.3e}")

    print("\neigenvalue stability")
    base = dm.solve(channel, family, 0)
    r_match = base.diagnostics["r_match"]
    for label, cfg in [
        ("r_match +20%", dm.SolveConfig(r_match=1.2 * r_match)),
        ("r_match -20%", dm.SolveConfig(r_match=0.8 * r_match)),
        ("grid x2", dm.SolveConfig(n_grid=8000)),
        ("step density x10^(1/4)", dm.SolveConfig(step_density=10 ** 0.25)),
    ]:
        st = dm.solve(channel, family, 0, cfg)
        print(f"  {label:>22}: dE = {st.E - base.E:+.3e}")


if __name__ == "__main__":
    main()

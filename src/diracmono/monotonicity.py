"""Eigenvalue sweeps, derivative identities, and monotonicity verdicts.

The central identity being certified: for a family V(r, a) the eigenvalue
derivative equals the expectation value of dV/da in the normalized state,

    dE/da = (psi1, V_a psi1) + (psi2, V_a psi2),

so a parameter derivative of uniform sign forces every discrete eigenvalue to
be monotone in that parameter. The harness computes both sides of the
identity independently (quadrature expectation value vs Richardson-
extrapolated finite differences of E(a)), plus two internal consistency
residuals derived from differentiating the eigensystem:

* orthogonality: (psi1_a, psi1) + (psi2_a, psi2) = 0 from the normalization;
* the W combination of the differentiated eigenequations, which vanishes for
  exact eigenstates and bounds the discretization honesty of the whole chain.

The five members of a parameter stencil (a, a -+ h, a -+ h/2) share one
radial grid, so grid bias cancels in the differences instead of polluting
them. A sweep solves the stencils of all its points in one batch: one
workspace and coarse stage for every member, then one fine and dense group
per stencil, streamed, so each stencil becomes its record and drops its
wavefunctions before the next is solved. If that batch raises a package
error, the sweep is solved again point by point, one stencil per solve,
which gives failures their exact per-point report (the aborting point and
the records before it).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConfigurationError,
    DiracmonoError,
    LevelCrossingError,
    NoSuchStateError,
    PointwiseOrderError,
    SweepAbortedError,
)
from .numerics import apply_derivative, derivative_weights
from .potentials import PotentialFamily, SignClass, classify_sign, make_homotopy
from .solver import (
    BoundState,
    ChannelSpec,
    SolveConfig,
    solve,
    solve_batch,
)

__all__ = [
    "SweepRecord",
    "Verdict",
    "PsiParamDerivative",
    "ComparisonResult",
    "TOL_SIGN",
    "hf_derivative",
    "fd_derivative",
    "wavefunction_param_derivative",
    "w_residual",
    "orthogonality_residual",
    "sweep",
    "verdict",
    "compare_potentials",
]

TOL_SIGN = 1e-8  # slack on the sign of dE/da in verdicts

_log = logging.getLogger("diracmono")


@dataclass(frozen=True)
class SweepRecord:
    """One row of an E(a) sweep with both derivative estimates and residuals."""

    a: float
    E: float
    dE_fd: float
    dE_hf: float
    hf_residual: float
    orth_residual: float
    w_residual: float
    nodes: int


@dataclass(frozen=True)
class Verdict:
    """Machine-checkable outcome of a monotonicity check."""

    check_id: str
    hypothesis: SignClass
    conclusion: str               # nondecreasing | nonincreasing | mixed | n/a
    status: str                   # pass | fail | not-applicable
    max_hf_residual: float
    max_orth_residual: float
    max_w_residual: float
    tolerances: dict = field(default_factory=dict)
    observations: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class PsiParamDerivative:
    """Central-difference wavefunction derivatives on the center state's grid."""

    center: BoundState
    psi1a: np.ndarray
    psi2a: np.ndarray
    h: float


@dataclass(frozen=True)
class ComparisonResult:
    """Endpoint energies and homotopy trace of a pointwise-order comparison."""

    e1: float
    e2: float
    t_grid: np.ndarray
    e_t: np.ndarray
    verdict: Verdict


def _default_step(a: float) -> float:
    return max(1e-4, 1e-3 * abs(a))


_OFFSETS = (0.0, -1.0, 1.0, -0.5, 0.5)   # stencil members a + offset * h
_DENSE = (True, True, True, False, False)  # the a +- h/2 members need only E


def _stencils(family: PotentialFamily, channel: ChannelSpec, n_r: int, a_points,
              h: float | None, config: SolveConfig | None):
    """The parameter stencils a, a -+ h, a -+ h/2 of every a in a_points, all
    in one batched solve: one workspace and coarse stage for every member,
    and one fine and dense group per stencil, so each stencil's members share
    a grid and grid bias cancels in the differences. Yields, per point in
    order and as soon as its stencil is solved, the centre state, dE/da from
    steps h and h/2 Richardson-combined to 4th order, and the
    central-difference (psi1_a, psi2_a). A package error of any stencil
    raises from the batch."""
    p = family.active_param
    a_points = [float(a) for a in a_points]
    steps = [_default_step(a) if h is None else h for a in a_points]
    fams = [family.with_params(**{p: a + d * s})
            for a, s in zip(a_points, steps) for d in _OFFSETS]
    config = config or SolveConfig()
    groups = solve_batch(channel, fams, [n_r],
                         replace(config, e_tol=min(config.e_tol, 1e-13)),
                         dense_flags=_DENSE * len(steps),
                         _ties=[i // len(_OFFSETS) for i in range(len(fams))])
    for group in groups:
        res = {f: r for f, _, r in group}
        first = min(res)
        s = steps[first // len(_OFFSETS)]
        st, st_m, st_p, eig_m2, eig_p2 = (res[first + k] for k in range(len(_OFFSETS)))
        d1 = (st_p.E - st_m.E) / (2 * s)
        d2 = (eig_p2.E - eig_m2.E) / s
        psi_a = PsiParamDerivative(center=st,
                                   psi1a=(st_p.psi1 - st_m.psi1) / (2 * s),
                                   psi2a=(st_p.psi2 - st_m.psi2) / (2 * s), h=s)
        yield st, (4 * d2 - d1) / 3, psi_a


def _stencil_point(family: PotentialFamily, channel: ChannelSpec, n_r: int,
                   a: float | None, h: float | None, config: SolveConfig | None):
    """The one-point case of _stencils, at a (default: the family's own
    value): returns (centre state, dE/da, psi_a). A level not resolvable at
    every stencil point raises LevelCrossingError."""
    p = family.active_param
    a = family.params[p] if a is None else float(a)
    h = _default_step(a) if h is None else h
    try:
        return next(_stencils(family, channel, n_r, [a], h, config))
    except NoSuchStateError as exc:
        raise LevelCrossingError(
            f"state n_r={n_r} is not resolvable at every stencil point "
            f"{[a + d * h for d in _OFFSETS]} of parameter {p!r}: {exc}"
        ) from exc


def _record(a: float, st: BoundState, de_fd: float, psi_a: PsiParamDerivative,
            channel: ChannelSpec) -> SweepRecord:
    de_hf = hf_derivative(st, st.family)
    return SweepRecord(
        a=float(a),
        E=st.E,
        dE_fd=de_fd,
        dE_hf=de_hf,
        hf_residual=abs(de_fd - de_hf),
        orth_residual=orthogonality_residual(st, psi_a),
        w_residual=w_residual(st, psi_a, st.family, channel),
        nodes=st.nodes,
    )


def hf_derivative(state: BoundState, family: PotentialFamily) -> float:
    """Expectation value (psi1, V_a psi1) + (psi2, V_a psi2) on the state grid.

    family must be the state's family at the state's parameter values; its
    analytic derivative with respect to the active parameter supplies V_a.
    """
    va = np.asarray(family.param_derivative(state.grid), dtype=float)
    ip = state.scheme.dot
    return ip(state.psi1, va * state.psi1) + ip(state.psi2, va * state.psi2)


def fd_derivative(family: PotentialFamily, channel: ChannelSpec, n_r: int,
                  a: float | None = None, h: float | None = None,
                  config: SolveConfig | None = None) -> float:
    """Richardson-extrapolated central difference of E(active parameter).

    Combines steps h and h/2 into a 4th-order estimate from the parameter
    stencil's shared-grid batch solve (see _stencil_point).
    """
    return _stencil_point(family, channel, n_r, a, h, config)[1]


def wavefunction_param_derivative(family: PotentialFamily, channel: ChannelSpec,
                                  n_r: int, a: float | None = None,
                                  h: float | None = None,
                                  config: SolveConfig | None = None) -> PsiParamDerivative:
    """Central-difference (psi1_a, psi2_a) plus the center state.

    The neighbor solves run on the center solve's grid (one batched solve),
    and the solver's sign convention keeps all three states phase-aligned, so
    the plain difference quotient is meaningful pointwise.
    """
    return _stencil_point(family, channel, n_r, a, h, config)[2]


def orthogonality_residual(state: BoundState, psi_a: PsiParamDerivative) -> float:
    """|(psi1_a, psi1) + (psi2_a, psi2)|, zero for the exact normalized family."""
    ip = state.scheme.dot
    return abs(ip(psi_a.psi1a, state.psi1) + ip(psi_a.psi2a, state.psi2))


def w_residual(state: BoundState, psi_a, family: PotentialFamily,
               channel: ChannelSpec) -> float:
    """|W|: the integrated residual of the differentiated eigenequations.

    W combines the parameter derivatives of both components against the
    eigenequations; it vanishes identically for exact eigenstates, so its
    size measures the combined quadrature + differentiation + stencil error.
    psi_a may be a PsiParamDerivative or a (psi1a, psi2a) pair on the state's
    grid.
    """
    if isinstance(psi_a, PsiParamDerivative):
        psi1a, psi2a = psi_a.psi1a, psi_a.psi2a
    else:
        psi1a, psi2a = psi_a
    grid = state.grid
    if psi1a.shape != grid.shape or psi2a.shape != grid.shape:
        raise ConfigurationError("psi_a arrays do not live on the state's grid")
    ip = state.scheme.dot
    dtab = derivative_weights(grid)
    v = np.asarray(family.evaluate(grid), dtype=float)
    m, e, k = channel.m, state.E, channel.k
    d_psi2a = apply_derivative(dtab, psi2a)
    d_psi1a = apply_derivative(dtab, psi1a)
    if k != 0.0:
        kr = k / grid
        term_out = -d_psi2a + kr * psi2a
        term_in = d_psi1a + kr * psi1a
    else:
        term_out = -d_psi2a
        term_in = d_psi1a
    w = (ip(psi1a, (v + m) * state.psi1) + ip(state.psi1, term_out)
         - e * ip(psi1a, state.psi1)
         + ip(psi2a, (v - m) * state.psi2) + ip(state.psi2, term_in)
         - e * ip(psi2a, state.psi2))
    return abs(w)


def sweep(family: PotentialFamily, channel: ChannelSpec, n_r: int, a_grid,
          config: SolveConfig | None = None, h: float | None = None) -> list[SweepRecord]:
    """E(a) sweep with both derivative estimates and residuals per point.

    Level identity is tracked by node count within the fixed channel. Every
    point's stencil goes through one batched solve (_stencils), and each
    stencil becomes its record, its wavefunctions dropped, as soon as it is
    solved. If the batch raises a package error (DiracmonoError), the sweep
    is solved again point by point (_stencil_point), which is the reference
    path for failures: a package error at a point aborts the sweep, raising
    SweepAbortedError with the records accumulated so far attached. Any other
    exception propagates unwrapped.
    """
    a_grid = np.asarray(a_grid, dtype=float)
    if a_grid.ndim != 1 or a_grid.size < 2:
        raise ConfigurationError("a sweep needs at least 2 parameter points")
    if np.any(np.diff(a_grid) <= 0):
        raise ConfigurationError("sweep grid must be strictly increasing")
    try:
        return [_record(a, *stencil, channel) for a, stencil in
                zip(a_grid, _stencils(family, channel, n_r, a_grid, h, config))]
    except DiracmonoError as exc:
        _log.debug("sweep: the batched solve of n_r = %d failed (%s); solving "
                   "point by point", n_r, exc)
    records: list[SweepRecord] = []
    for a in a_grid:
        try:
            records.append(_record(a, *_stencil_point(family, channel, n_r, a, h, config),
                                   channel))
        except DiracmonoError as exc:
            raise SweepAbortedError(
                f"sweep aborted at a = {a:g}: {exc}", records, cause=exc
            ) from exc
    return records


def verdict(records, sign_class: SignClass, check_id: str = "monotonicity",
            tol_sign: float = TOL_SIGN) -> Verdict:
    """Monotonicity verdict from a sweep against the sign hypothesis.

    An indefinite parameter derivative means the hypothesis fails and no
    claim is made (status not-applicable). Otherwise the verdict passes iff
    dE/da (the expectation-value estimate) respects the hypothesis sign at
    every sweep point within tol_sign. Strict monotonicity of E itself is
    reported as an observation, not a requirement.
    """
    records = list(records)
    maxes = {
        "max_hf_residual": max((r.hf_residual for r in records), default=0.0),
        "max_orth_residual": max((r.orth_residual for r in records), default=0.0),
        "max_w_residual": max((r.w_residual for r in records), default=0.0),
    }
    tols = {"tol_sign": tol_sign}
    if sign_class is SignClass.INDEFINITE:
        return Verdict(check_id=check_id, hypothesis=sign_class,
                       conclusion="n/a", status="not-applicable",
                       tolerances=tols, observations={}, **maxes)
    if not records:
        raise ConfigurationError("a verdict for a definite sign needs sweep records")
    d = np.asarray([r.dE_hf for r in records])
    e = np.asarray([r.E for r in records])
    nondec = bool(np.all(d >= -tol_sign))
    noninc = bool(np.all(d <= tol_sign))
    conclusion = ("nondecreasing" if nondec else
                  "nonincreasing" if noninc else "mixed")
    ok = ((sign_class is SignClass.NON_NEGATIVE and nondec)
          or (sign_class is SignClass.NON_POSITIVE and noninc))
    obs = {
        "min_dE_hf": float(d.min()),
        "max_dE_hf": float(d.max()),
        "strictly_monotone_E": bool(np.all(np.diff(e) > 0) or np.all(np.diff(e) < 0)),
        "n_points": len(records),
    }
    return Verdict(check_id=check_id, hypothesis=sign_class,
                   conclusion=conclusion, status="pass" if ok else "fail",
                   tolerances=tols, observations=obs, **maxes)


def compare_potentials(v1: PotentialFamily, v2: PotentialFamily,
                       channel: ChannelSpec, n_r: int,
                       config: SolveConfig | None = None,
                       t_points: int = 9) -> ComparisonResult:
    """Eigenvalue ordering for pointwise-ordered potentials V1 <= V2.

    The precondition is checked by sign-classifying the interpolation family
    (its parameter derivative is exactly V2 - V1); the endpoints are solved
    independently and a coarse t-sweep of the interpolation demonstrates the
    monotone passage between them.
    """
    hom = make_homotopy(v1, v2)
    m = channel.m
    r_probe = 50.0 * max(v1.length_scale(m), v2.length_scale(m))
    sc = classify_sign(hom, r_max=r_probe)
    if sc is not SignClass.NON_NEGATIVE:
        raise PointwiseOrderError(
            f"potentials are not pointwise ordered V1 <= V2 "
            f"(interpolation derivative classified {sc.value}); the "
            f"comparison law does not apply"
        )
    e1 = solve(channel, v1, n_r, config).E
    e2 = solve(channel, v2, n_r, config).E

    t_grid = np.linspace(0.0, 1.0, t_points)
    fams = [hom.with_params(t=float(t)) for t in t_grid]
    res = solve_batch(channel, fams, [n_r], config,
                      dense_flags=[True] * len(fams))
    e_t = np.asarray([res[i][n_r].E for i in range(len(fams))])
    d_hf = [hf_derivative(res[i][n_r], fams[i]) for i in range(len(fams))]

    e_tol = (config or SolveConfig()).e_tol
    slack = max(10 * e_tol, 1e-9 * m)
    monotone = bool(np.all(np.diff(e_t) >= -slack))
    ordered = e1 <= e2 + slack
    endpoints_consistent = (abs(e_t[0] - e1) <= max(2 * e_tol, 5e-9 * m)
                            and abs(e_t[-1] - e2) <= max(2 * e_tol, 5e-9 * m))
    ok = ordered and monotone and endpoints_consistent and all(
        x >= -TOL_SIGN for x in d_hf)
    vd = Verdict(
        check_id="comparison",
        hypothesis=SignClass.NON_NEGATIVE,
        conclusion="nondecreasing" if monotone else "mixed",
        status="pass" if ok else "fail",
        max_hf_residual=0.0,
        max_orth_residual=0.0,
        max_w_residual=0.0,
        tolerances={"tol_sign": TOL_SIGN, "slack": slack},
        observations={
            "E1": e1, "E2": e2,
            "ordered": ordered,
            "monotone_t_sweep": monotone,
            "endpoints_consistent": endpoints_consistent,
            "min_dE_dt": float(min(d_hf)),
        },
    )
    return ComparisonResult(e1=e1, e2=e2, t_grid=t_grid, e_t=e_t, verdict=vd)

"""Bound states of the coupled radial system by two-sided shooting.

The pair (psi1, psi2) satisfies

    psi1' = (E - V + m) psi2 - (k/r) psi1
    psi2' = (V + m - E) psi1 + (k/r) psi2

with k = tau (j + (d-2)/2) for d > 1 and k = 0 on the d = 1 half-line, and
discrete eigenvalues live in the gap (-m, m). A solve proceeds in three
stages that share the seed radius; each table matches at a radius of its own
(see below):

1. coarse stage: evaluate the two-sided matching phase at the two ends of
   the search window in the gap, on a cheap grid. The phase is strictly
   monotone in E and crosses a multiple of pi at every eigenvalue, so the two
   end values give the exact number of eigenvalues in the window. The n-th
   is located by bracketed search on its index, from a semiclassical
   (Bohr-Sommerfeld) estimate on the profile: one evaluation there gives
   the estimate's count, and the bracket is the estimate and the window end
   on the other side of the n-th eigenvalue. The estimate only picks where
   the search starts; the index comes from the count (no energy scan, so no
   sign-change aliasing where levels accumulate near the gap edge). It
   equals the node count of the upper component, which the dense stage
   re-verifies.
2. fine stage: repeat the index-targeted search on a dense, energy-band-aware
   grid sized to the radial support of the targeted states, down to the
   eigenvalue tolerance. One evaluation there gives the window ends and
   every coarse centre; each search starts from its centre, bracketed by
   the window end across the eigenvalue, and converges by Newton steps on
   the matching angle, whose E-slope every evaluation returns.
3. dense stage: record the two-sided wavefunction on the output grid,
   normalize (psi1, psi1) + (psi2, psi2) = 1, and fix the overall sign.

The coarse stage is shared by the whole batch. The fine and dense stages run
per group of states, each group on step tables of its own families only; the
groups are energy bands of similar decay rate by default and one group per
parameter stencil for the sweeps of the monotonicity harness. The fine stage
searches consecutive groups in lockstep, on one stack of their fine tables
aligned at a common match node, so that they share the scan's sequential
rounds; the dense stage is then streamed one group at a time, and
solve_batch collects the groups.

Every radial decision reads one potential profile per workspace: V_f sampled
once on geometric radii from the seed radius out to the ceiling, the explicit
r_max or the cap 4000/m. It gives the bottom of the search window, the rates
behind the step rules, the outer turning radii, the tail check and the
semiclassical estimates.

One rule (_Workspace.trimmed_domain) sizes every domain from the levels it
holds: it ends a number of e-folds of decay beyond their farthest turning
radius, and it matches at half their smallest one, inside the classically
allowed region of each. The coarse domain holds the semiclassical levels 0
and n_r_max of every family; when a requested index is still missing from
its window, it is rebuilt once, at the ceiling. Each fine and dense group
sizes its own domain from its coarse centres, HEADROOM_EFOLDS + 9 e-folds
beyond them, and so matches at its own radius. An explicit r_match is every
table's. Without an explicit r_max, a requested state with less than
HEADROOM_EFOLDS of room even at the cap is refused.

Everything is deterministic: identical inputs produce bitwise-identical
states.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import propagation as prop
from .errors import (
    ConfigurationError,
    DomainError,
    GridMismatchError,
    NoSuchStateError,
    NumericalError,
    UnsupportedRegimeError,
)
from .numerics import simpson_weights
from .potentials import PotentialFamily

__all__ = [
    "ChannelSpec",
    "SolveConfig",
    "InnerProductScheme",
    "BoundState",
    "EigenResult",
    "rhs",
    "origin_seed",
    "tail_seed",
    "match_function",
    "inner_product",
    "solve",
    "solve_1d",
    "solve_batch",
]

GAP_EDGE_FRACTION = 1e-6     # the search window keeps this relative distance from +-m
HEADROOM_EFOLDS = 38.0       # required decay room beyond the turning radius
SEED_CORRECTION_TOL = 1e-8   # origin seed: max relative size of dropped term

_log = logging.getLogger("diracmono")


@dataclass(frozen=True)
class ChannelSpec:
    """Quantum-number context fixing k and the boundary behavior.

    d >= 2 requires tau = +-1 and half-odd-integer j >= 1/2; d = 1 requires a
    parity sector instead and forbids tau/j (passing them is an error, not
    ignored).
    """

    d: int
    tau: int | None = None
    j: float | None = None
    parity: str | None = None
    m: float = 1.0

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 1:
            raise ConfigurationError(f"dimension must be an integer >= 1, got {self.d}")
        if not (self.m > 0 and math.isfinite(self.m)):
            raise ConfigurationError(f"mass must be positive and finite, got {self.m}")
        if self.d == 1:
            if self.tau is not None or self.j is not None:
                raise ConfigurationError("d = 1 takes a parity sector, not tau/j")
            if self.parity not in ("even", "odd"):
                raise ConfigurationError("d = 1 requires parity 'even' or 'odd'")
        else:
            if self.parity is not None:
                raise ConfigurationError("parity is a d = 1 concept")
            if self.tau not in (-1, 1):
                raise ConfigurationError(f"tau must be +-1, got {self.tau}")
            if self.j is None:
                raise ConfigurationError("d > 1 requires j")
            if not math.isfinite(self.j):
                raise ConfigurationError(f"j must be finite, got {self.j}")
            two_j = round(2 * self.j)
            if not math.isclose(2 * self.j, two_j) or two_j < 1 or two_j % 2 == 0:
                raise ConfigurationError(
                    f"j must be a positive half-odd integer, got {self.j}"
                )

    @property
    def k(self) -> float:
        """Angular coupling constant of the radial system."""
        if self.d == 1:
            return 0.0
        return self.tau * (self.j + (self.d - 2) / 2.0)


@dataclass(frozen=True)
class SolveConfig:
    """Numerical knobs; all defaults are in units of the particle mass."""

    r_max: float | None = None
    n_grid: int = 4000
    r0: float | None = None
    e_tol: float = 1e-10
    step_density: float = 1.0   # multiplies the number of radial steps
    r_match: float | None = None

    def __post_init__(self):
        for name in ("e_tol", "r_max", "r0", "r_match"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if not self.e_tol > 0:
            raise ConfigurationError("e_tol must be positive")
        if not 0.4 <= self.step_density <= 8.0:
            raise ConfigurationError(
                f"step_density must lie in [0.4, 8], got {self.step_density}")
        if not isinstance(self.n_grid, (int, np.integer)):
            raise ConfigurationError(f"n_grid must be an integer, got {self.n_grid!r}")
        if self.n_grid < 200:
            raise ConfigurationError("n_grid must be at least 200")
        if self.r_max is not None and not self.r_max > 0:
            raise ConfigurationError("r_max must be positive")
        if self.r0 is not None and not self.r0 > 0:
            raise ConfigurationError("r0 must be positive")
        if self.r_match is not None and not self.r_match > 0:
            raise ConfigurationError("r_match must be positive")
        if self.r0 is not None and self.r_max is not None and not self.r0 < self.r_max:
            raise ConfigurationError("r0 must be smaller than r_max")


DEFAULT_CONFIG = SolveConfig()


def checked_node_count(n_r) -> int:
    """n_r as an int, refused with ConfigurationError unless it is a
    non-negative integer (a Python or numpy int)."""
    if not isinstance(n_r, (int, np.integer)):
        raise ConfigurationError(f"node counts are integers, got {n_r!r}")
    if n_r < 0:
        raise ConfigurationError("node counts are non-negative")
    return int(n_r)


@dataclass(frozen=True)
class InnerProductScheme:
    """Quadrature rule bound to a stored grid.

    Composite Simpson weights (trapezoid closing an odd segment count); the
    measure factor is 2 for d = 1 states, realizing the full-line integral
    from half-line samples.
    """

    grid: np.ndarray
    weights: np.ndarray
    measure_factor: float = 1.0

    @classmethod
    def for_grid(cls, grid: np.ndarray, measure_factor: float = 1.0):
        grid = np.asarray(grid, dtype=float)
        return cls(grid=grid, weights=simpson_weights(grid),
                   measure_factor=measure_factor)

    def dot(self, u, v) -> float:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if u.shape != self.grid.shape or v.shape != self.grid.shape:
            raise GridMismatchError(
                f"arrays of size {u.shape}/{v.shape} do not live on this "
                f"{self.grid.shape} grid"
            )
        return self.measure_factor * float(np.dot(self.weights, u * v))


def inner_product(u, v, scheme: InnerProductScheme) -> float:
    """Quadrature approximation of the radial integral of u*v."""
    return scheme.dot(u, v)


@dataclass(frozen=True)
class BoundState:
    """One normalized discrete eigenstate on its radial grid."""

    channel: ChannelSpec
    family: PotentialFamily
    E: float
    grid: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray
    nodes: int
    norm_residual: float
    match_residual: float
    scheme: InnerProductScheme
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        for arr in (self.grid, self.psi1, self.psi2):
            arr.flags.writeable = False


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalue-only result (no wavefunction arrays) from batched solves."""

    E: float
    nodes: int
    match_residual: float


# ---------------------------------------------------------------------------
# local pieces of the radial system
# ---------------------------------------------------------------------------

def rhs(r, psi, E: float, channel: ChannelSpec, family: PotentialFamily):
    """Derivatives (psi1', psi2') of the coupled system at radius r."""
    r = np.asarray(r, dtype=float)
    k = channel.k
    if np.any(r <= 0) and k != 0.0:
        raise DomainError("rhs needs r > 0 in channels with k != 0")
    psi1, psi2 = psi
    v = family.evaluate(r)
    m = channel.m
    kr = k / r if k != 0.0 else 0.0
    dpsi1 = (E - v + m) * psi2 - kr * psi1
    dpsi2 = (v + m - E) * psi1 + kr * psi2
    return dpsi1, dpsi2


def _coulomb_gamma(k: float, strength: float) -> float:
    if strength >= abs(k):
        raise UnsupportedRegimeError(
            f"coulomb strength {strength:g} >= |k| = {abs(k):g}: the origin "
            f"exponent is no longer real (supercritical coupling)"
        )
    return math.sqrt(k * k - strength * strength)


def _seed_correction(channel: ChannelSpec, family: PotentialFamily, r0: float) -> float:
    """Relative size of the first dropped term of the origin series at r0."""
    m = channel.m
    e_worst = m  # |E| < m in the gap
    if family.origin_class.is_singular:
        g = _coulomb_gamma(channel.k, family.origin_class.strength)
        return 4.0 * r0 * (m + e_worst) * (1.0 + family.origin_class.strength) / (2 * g + 1)
    v0 = family.origin_value()
    quad = (r0 * (np.abs(e_worst - v0) + 2 * m)) ** 2
    vvar = r0 * np.abs(family.evaluate(2 * r0) - v0)
    return quad + vvar


def _seed_radius(channel: ChannelSpec, families, config, ceiling) -> float:
    """r_seed of every domain of a workspace, 0 on the d = 1 half-line: the
    explicit r0, else the largest r0 = (1e-3/m) 2^-i, i < 60, keeping every
    family's origin-series truncation below tolerance (all candidates of a
    family are checked in one call), up to 1e-6 of the ceiling."""
    if channel.d == 1:
        return 0.0
    if config.r0 is not None:
        worst = max(_seed_correction(channel, f, config.r0) for f in families)
        if worst > SEED_CORRECTION_TOL:
            raise ConfigurationError(
                f"configured r0 = {config.r0:g} is too large for the origin "
                f"seed (dropped term {worst:.2e})"
            )
        return config.r0
    r0 = (1e-3 / channel.m) * 0.5 ** np.arange(60)
    worst = np.max([_seed_correction(channel, f, r0) for f in families], axis=0)
    ok = np.nonzero(worst <= 0.3 * SEED_CORRECTION_TOL)[0]
    if ok.size == 0:
        raise NumericalError("could not find a valid origin seed radius")
    return min(float(r0[ok[0]]), 1e-6 * ceiling)


def origin_seed(channel: ChannelSpec, family: PotentialFamily, E: float, r0: float):
    """Regular-solution start values (psi1(r0), psi2(r0)) for d > 1.

    Leading Frobenius term only; r0 must be small enough that the first
    dropped correction is below 1e-8 relative (checked). These are the step
    tables' seed coefficients (_seed_coefficients) at E, times the scale they
    drop: r0^gamma for a singular origin, r0^|k| for a regular one.
    """
    if channel.d == 1:
        raise ConfigurationError("origin_seed applies to d > 1; d = 1 seeds are parity seeds")
    if not r0 > 0:
        raise DomainError("r0 must be positive")
    corr = _seed_correction(channel, family, r0)
    if corr > SEED_CORRECTION_TOL:
        raise DomainError(
            f"r0 = {r0:g} too large for the leading-order origin seed "
            f"(estimated dropped term {corr:.2e} > {SEED_CORRECTION_TOL:g})"
        )
    seed = _seed_coefficients(channel, [family], r0)[0]
    y1, y2 = seed[:, 0] + seed[:, 1] * E
    if family.origin_class.is_singular:
        scale = r0 ** _coulomb_gamma(channel.k, family.origin_class.strength)
    else:
        scale = r0 ** abs(channel.k)
    return float(y1) * scale, float(y2) * scale


def tail_seed(channel: ChannelSpec, E: float):
    """Decaying asymptotic direction (psi1, psi2) = (1, -sqrt((m-E)/(m+E))).

    Valid where the potential is negligible; the solver starts far enough out
    that any seed imperfection decays by ~e^-80 before the match radius.
    """
    m = channel.m
    if not -m < E < m:
        raise DomainError(f"no bound-state tail outside the gap: E = {E}, m = {m}")
    y1, y2 = prop.tail_seed(m, E)
    return float(y1), float(y2)


# ---------------------------------------------------------------------------
# origin seeds of the step tables
# ---------------------------------------------------------------------------

def _seed_coefficients(channel: ChannelSpec, families, r0: float) -> np.ndarray:
    """The outward leg's start values of each family at r0, shape (F, 2, 2),
    affine in E: y_i = seed[f, i, 0] + seed[f, i, 1] E (StepTable.seed).

    They are the leading Frobenius terms without their scale r0^gamma
    (singular origin) or r0^|k| (regular origin), as matching is
    scale-invariant: (1, (gamma + k)/alpha) for a singular origin; for a
    regular one, 1 in the large component and r0 (E - V(0) + m)/(2k + 1) in
    psi1 (k > 0) or r0 (V(0) + m - E)/(2|k| + 1) in psi2 (k < 0). The d = 1
    parity seeds, (1, 0) even and (0, 1) odd, are the k -> -0 and k -> +0
    limits at r0 = 0, where V(0) drops out.
    """
    k, m = channel.k, channel.m
    small = 0 if k > 0 or channel.parity == "odd" else 1    # psi1 or psi2
    sign = 1.0 if small == 0 else -1.0                      # of E in it
    c = r0 / (2.0 * abs(k) + 1.0)
    seed = np.zeros((len(families), 2, 2))
    for f, fam in enumerate(families):
        if fam.origin_class.is_singular:
            st = fam.origin_class.strength
            seed[f, :, 0] = 1.0, (_coulomb_gamma(k, st) + k) / st
        else:
            v0 = fam.origin_value() if r0 > 0 else 0.0
            seed[f, 1 - small, 0] = 1.0
            seed[f, small] = c * (m - sign * v0), sign * c
    return seed


# ---------------------------------------------------------------------------
# radial domain and step tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Domain:
    r_seed: float
    r_max: float
    r_match: float
    param: str  # "log" for d > 1, "lin" for d = 1


def _coarse_rate(channel, env):
    """Worst-case-over-the-gap local rate per unit radius, on the profile."""
    m = channel.m
    return np.sqrt(2.0 * m * env) + env + 0.08 * m


def _band_rate(channel, r, env, e_band):
    """Local rate per unit radius for energies inside [e_band[0], e_band[1]],
    on the profile radii r with envelope env.

    Besides the local wave/decay rate, an Airy-layer term (2m|V'|)^(1/3)
    keeps steps small across turning points, where the wave rate itself
    vanishes but the solution still bends.
    """
    m = channel.m
    k1, k2 = (np.sqrt(np.abs((e + env) ** 2 - m * m)) for e in e_band)
    airy = (2.0 * m * np.abs(np.gradient(env, r))) ** (1.0 / 3.0)
    return np.maximum(np.maximum(k1, k2), airy) + 0.03 * m


def _h_rule(channel, param, r, rate, c_step, density):
    """The step rule (x, h) tabulated on the radii r from a rate there:
    x = log r for the "log" parametrization, x = r for "lin", and h the
    largest step at x (prop.march_nodes interpolates it linearly)."""
    if param == "log":
        return np.log(r), np.minimum(0.35, c_step / (abs(channel.k) + r * rate)) / density
    return r, np.minimum(0.35 / channel.m, c_step / rate) / density


def _make_table(channel, families, domain, place_nodes, spacing):
    """Step table of the families over the domain, with their origin seeds
    at r_seed, its match node at r_match, where the placer puts it:
    place_nodes is prop.march_nodes (spacing: the step rule (x, h) of
    _h_rule) or prop.uniform_nodes (spacing: the node count), and returns
    the nodes and the match node's index."""
    if domain.param == "log":
        x = (math.log(domain.r_seed), math.log(domain.r_match), math.log(domain.r_max))
    else:
        x = (0.0, domain.r_match, domain.r_max)
    nodes, i_match = place_nodes(*x, spacing)
    return prop.build_step_table(domain.param, channel.k, channel.m, families, nodes,
                                 i_match, _seed_coefficients(channel, families, domain.r_seed))


# ---------------------------------------------------------------------------
# solve pipeline
# ---------------------------------------------------------------------------

_COARSE_C = 0.33
_COARSE_EFOLDS = 4.0  # decay room of the coarse domain beyond its levels' turning radii
# the fine step rules are set by the accuracy of the 6th-order Magnus step, far
# below the rotation limit: at 0.3, acceptance criterion 1's worst error is
# 8.8e-11 and criterion 8's largest shift 2.4e-10 (0.36 gives 3.1e-10 and
# 7.0e-10); the linear d = 1 parametrization lacks the log grid's
# near-exactness, and at 0.11 the d = 1 cutoff Coulomb levels of criterion 7
# (a = 0.6 to 1.4, each family alone; n_r 0 and 1 even, 0 odd) lie within
# 3.1e-10 of a step density 8 solve (4.7e-11 at 0.08)
_FINE_C = 0.3
_FINE_C_LIN = 0.11
_R_MAX_CAP = 4000.0  # in units of 1/m; binding below ~5e-5 m is out of reach

_PROFILE_POINTS = 1200  # geometric radii of the workspace's potential profile
_BS_TOL = 1e-4          # |N(E) - target - mu| at a predicted level, in levels
# a level whose count N falls short of n_r + mu by more than this at the window
# top is not bound in the window (N is within 0.16 of the solved levels)
_BS_UNBOUND = 0.5
_BS_ENTRIES = 1 << 14   # state x radius entries of one piece of _bs_count (128 kB)
_LISTED_INDICES = 14  # node indices per family that a NoSuchStateError lists at most
# step x batch entries of one leg of a fine-stage evaluation in lockstep: half
# those of a scan piece, so that the widest calls stay near those of groups
# searched one at a time (the working set of a full piece is about 5 MB)
_LOCKSTEP_ENTRIES = prop._SCAN_ELEMENTS // 2


class _Workspace:
    """Potential profile and coarse step table for a family batch. The
    profile (r, v, env) samples every V_f once, from 2 max(r_seed, 1e-12) to
    the ceiling (the explicit r_max, else the cap), so it spans every domain
    the workspace builds. Every domain comes from trimmed_domain: the coarse
    one (domain) holds the semiclassical levels 0 and n_r_max of every
    family, with _COARSE_EFOLDS of decay room (a level the semiclassical
    count misses by more than _BS_UNBOUND at the window top is left out,
    unless all are or V at the wall without it can still bind), and each
    fine and dense group sizes its own from its coarse centres."""

    def __init__(self, channel, families, config, n_r_max: int = 0):
        for fam in families:
            if fam.origin_class.is_singular:
                _coulomb_gamma(channel.k, fam.origin_class.strength)  # raises if supercritical
        m = channel.m
        if config.r_max is not None and config.r_max > _R_MAX_CAP / m:
            raise ConfigurationError(f"r_max = {config.r_max:g} exceeds the cap "
                                     f"{_R_MAX_CAP:g}/m = {_R_MAX_CAP / m:g}")
        self.channel = channel
        self.families = list(families)
        self.config = config
        self.ceiling = config.r_max or _R_MAX_CAP / m
        self.r_seed = _seed_radius(channel, families, config, self.ceiling)
        self.r = np.geomspace(2.0 * max(self.r_seed, 1e-12), self.ceiling, _PROFILE_POINTS)
        self.v = np.stack([f.evaluate(self.r) for f in self.families])
        self.env = np.abs(self.v).max(axis=0)
        # the semiclassical count (_bs_count) starts one profile radius before
        # the first where a family is classically allowed at E = m: from
        # there, sqrt(m^2 + k^2/r^2) and the trapezoid weights / pi
        e_r = np.hypot(m, channel.k / self.r)
        allowed = np.flatnonzero((self.v < m - e_r).any(axis=0))
        self._bs_from = max(int(allowed[0]) - 1, 0) if allowed.size else self.r.size - 2
        self._bs_er = e_r[self._bs_from:]
        dr = np.diff(self.r[self._bs_from:]) / (2 * np.pi)
        self._bs_w = np.append(dr, 0.0) + np.insert(dr, 0, 0.0)
        if channel.d == 1:
            self._bs_mu = 0.25 if channel.parity == "even" else 0.75
        else:
            self._bs_mu = 1.0 if channel.k > 0 else 0.0
        held = sorted({0, n_r_max})   # the coarse domain's levels of each family
        fam_idx = np.repeat(np.arange(len(self.families)), len(held))
        targets = np.tile(held, len(self.families))
        levels = self.predicted_levels(fam_idx, targets)
        domain = self.trimmed_domain(fam_idx, levels, _COARSE_EFOLDS)
        # a level the count falls short of by more than _BS_UNBOUND at the
        # window top is not bound in the window and does not size the domain,
        # unless V at the wall of the domain without it could still bind one
        top = np.full(fam_idx.size, self.window()[1])
        bound = self._bs_count(fam_idx, top) >= targets + self._bs_mu - _BS_UNBOUND
        if bound.any() and not bound.all():
            trimmed = self.trimmed_domain(fam_idx[bound], levels[bound], _COARSE_EFOLDS)
            if not self.tail_binds(trimmed.r_max):
                domain = trimmed
        self.set_coarse(domain)

    def set_coarse(self, domain):
        """Make the coarse table, on the domain, the workspace's. Its step
        rule reads the worst-case rate over the gap on the whole profile."""
        self.domain = domain
        h_coarse = _h_rule(self.channel, domain.param, self.r,
                           _coarse_rate(self.channel, self.env), _COARSE_C,
                           self.config.step_density)
        self.coarse = _make_table(self.channel, self.families, domain,
                                  prop.march_nodes, h_coarse)

    def tail_binds(self, r_max) -> bool:
        """Whether V at r_max can still bind within the search window: the
        envelope there reaches 0.3 of the window's distance from m."""
        v_edge = float(np.interp(r_max, self.r, self.env))
        return v_edge >= 0.3 * GAP_EDGE_FRACTION * self.channel.m

    # -- search window ------------------------------------------------------
    def window(self):
        """(bottom, top) of the eigenvalue search window.

        The phase-counting machinery needs E - V + m > 0 everywhere, which
        holds throughout the gap for attractive potentials; a positive part
        of V on the profile lifts the usable bottom accordingly (states below
        it, if any, are out of reach and documented as such).
        """
        m = self.channel.m
        eps = GAP_EDGE_FRACTION * m
        v_sup = float(self.v.max())
        bottom = -m + eps
        if v_sup > 0:
            bottom = max(bottom, v_sup - m + max(1e-6 * m, 1e-6 * v_sup))
        return bottom, m - eps

    # -- coarse stage -------------------------------------------------------
    def window_ends(self):
        """Match values, matching angles and their E-slopes (mval, dth, slope)
        on the coarse table at the window ends, each of shape (F, 2): column 0
        at the bottom, column 1 at the top. Family f has
        count_below(dth[f, 1], dth[f, 0]) eigenvalues in the window."""
        e_ends = np.broadcast_to(self.window(), (len(self.families), 2))
        return prop.match_values(self.coarse, None, e_ends)

    def coarse_eigenvalues(self, ends, fam_is, targets, tol):
        """Count-bisect each target eigenvalue index on the coarse table,
        starting from its semiclassical estimate (predicted_levels).

        One evaluation at the estimates gives each its count; its bracket is
        the estimate and the window end across the eigenvalue (_search_from),
        with the end values from window_ends reused. A bad estimate costs at
        most the whole-window search plus that one evaluation.
        """
        fam_idx = np.asarray(fam_is, dtype=np.intp)
        targets = np.asarray(targets)
        est = self.predicted_levels(fam_idx, targets)
        at_est = prop.match_values(self.coarse, fam_idx, est)
        e_rows = np.concatenate([np.repeat(self.window(), len(self.families)), est])
        values = [np.concatenate([a[:, 0], a[:, 1], b]) for a, b in zip(ends, at_est)]
        e_ref, _, _, _ = _search_from(self.coarse, fam_idx, e_rows, values, targets,
                                      tol, ("coarse", "estimates"))
        return e_ref

    def predicted_levels(self, fam_idx, targets) -> np.ndarray:
        """Semiclassical estimate of each target eigenvalue: the energy in the
        window where the Bohr-Sommerfeld count of its family on the profile,

            N(E) = (1/pi) int sqrt(max(0, (E - V_f)^2 - m^2 - k^2/r^2)) dr,

        equals target + mu, with mu = 1/4 (d = 1 even), 3/4 (d = 1 odd), 1
        (k > 0) or 0 (k < 0). N is exact for the Dirac-Coulomb levels (n_r +
        gamma = alpha E/lambda; 1.3e-3 of a level off on the profile) and
        within 0.16 of a level at the cutoff Coulomb levels of the acceptance
        sweeps (d = 3 and d = 1). N vanishes below the threshold E_0 = min_r
        (V_f + sqrt(m^2 + k^2/r^2)) and grows above it, linearly in t =
        E/lambda for a Coulomb tail, so each target is found by Illinois
        regula falsi in t on [max(E_0, bottom), top]; a target N does not
        reach by the window top gets the top. The estimate only picks where a
        search starts.
        """
        m = self.channel.m
        fam_idx = np.asarray(fam_idx, dtype=np.intp)
        goal = np.asarray(targets, dtype=float) + self._bs_mu
        bottom, top = self.window()
        rows = max(1, _BS_ENTRIES // self._bs_er.size)
        e_0 = np.concatenate([(self.v[i:i + rows, self._bs_from:] + self._bs_er).min(axis=1)
                              for i in range(0, len(self.families), rows)])
        lo, hi = np.clip(e_0[fam_idx], bottom, top), np.full(fam_idx.size, top)
        # N is 0 at E_0; a family whose E_0 lies below the window counts there
        g_lo, g_hi = -goal, self._bs_count(fam_idx, hi) - goal
        deep = np.flatnonzero(e_0[fam_idx] <= bottom)
        g_lo[deep] += self._bs_count(fam_idx[deep], lo[deep])
        est = np.where(g_lo >= 0, lo, hi)
        t_lo, t_hi = (e / np.sqrt((m - e) * (m + e)) for e in (lo, hi))
        last = np.zeros(fam_idx.size, dtype=int)   # side replaced last: -1 lo, 1 hi
        act = np.flatnonzero((g_lo < 0) & (g_hi > 0))
        for _ in range(prop._MAX_ITER):
            if act.size == 0:
                break
            tl, th, gl, gh = t_lo[act], t_hi[act], g_lo[act], g_hi[act]
            t = tl - gl * (th - tl) / (gh - gl)
            e = m * t / np.sqrt(1.0 + t * t)
            g = self._bs_count(fam_idx[act], e) - goal[act]
            est[act] = e
            low = g < 0
            # Illinois: an end kept twice in a row has its g halved
            t_lo[act], t_hi[act] = np.where(low, t, tl), np.where(low, th, t)
            g_lo[act] = np.where(low, g, np.where(last[act] == 1, 0.5 * gl, gl))
            g_hi[act] = np.where(low, np.where(last[act] == -1, 0.5 * gh, gh), g)
            last[act] = np.where(low, -1, 1)
            act = act[(np.abs(g) > _BS_TOL) & (tl < t) & (t < th)]
        return est

    def _bs_count(self, fam_idx, energies) -> np.ndarray:
        """N(E) of predicted_levels for each (family, energy) pair, by the
        trapezoid rule on the profile radii, in pieces of at most
        _BS_ENTRIES pair x radius entries."""
        out = np.empty(fam_idx.size)
        c = self._bs_er ** 2
        rows = max(1, _BS_ENTRIES // c.size)
        for i in range(0, fam_idx.size, rows):
            q = self.v[fam_idx[i:i + rows], self._bs_from:]
            np.subtract(energies[i:i + rows, None], q, out=q)
            np.square(q, out=q)
            q -= c
            np.maximum(q, 0.0, out=q)
            np.sqrt(q, out=q)
            # einsum, not a BLAS product: the first BLAS call of a process
            # that makes none adds about 0.25 MB to its peak resident memory
            out[i:i + rows] = np.einsum("ij,j->i", q, self._bs_w)
        return out

    # -- fine + dense stages --------------------------------------------------
    def turning_radius(self, fam_idx, energies) -> np.ndarray:
        """Outer turning radius of each state: the last profile radius where
        its own family's |V| reaches m - E, else the profile's first radius.
        The profile runs out to the ceiling of every domain; the states are
        taken in pieces of at most _BS_ENTRIES state x radius entries."""
        fam_idx = np.asarray(fam_idx, dtype=np.intp)
        gap = np.maximum(self.channel.m - np.asarray(energies, dtype=float), 1e-12)
        out = np.empty(fam_idx.size)
        rows = max(1, _BS_ENTRIES // self.r.size)
        for i in range(0, fam_idx.size, rows):
            inside = np.abs(self.v[fam_idx[i:i + rows]]) >= gap[i:i + rows, None]
            last = inside.shape[1] - 1 - np.argmax(inside[:, ::-1], axis=1)
            out[i:i + rows] = np.where(inside.any(axis=1), self.r[last], self.r[0])
        return out

    def trimmed_domain(self, fam_idx, energies, efolds=HEADROOM_EFOLDS + 9.0) -> _Domain:
        """The domain of the states (fam_idx, energies), the one rule for
        every table of the workspace, from their turning radii r_to,i on the
        profile and decay rates lambda_i = sqrt(m^2 - E_i^2).

        It ends efolds of decay beyond the farthest turning radius,
        r_max = max_i (r_to,i + efolds/lambda_i), at least 30/m and at most
        the ceiling, and it matches inside the classically allowed region of
        every state, at r_match = 1/2 min_i r_to,i clamped to
        [max(40 r_seed, 1e-6/m), r_max/3]. The fine and dense stages take
        efolds = HEADROOM_EFOLDS + 9 beyond their coarse centres, the coarse
        table _COARSE_EFOLDS beyond its semiclassical levels. Deeper states
        of the same families decay within it, so eigenvalue indices relative
        to the window bottom are unchanged. An explicit r_match is every
        domain's; ConfigurationError refuses one outside (r_seed, r_max).
        """
        m = self.channel.m
        energies = np.asarray(energies, dtype=float)
        lam = np.sqrt(np.maximum(m * m - energies ** 2, 1e-12))
        r_to = self.turning_radius(fam_idx, energies)
        r_max = min(self.ceiling, max(float(np.max(r_to + efolds / lam)), 30.0 / m))
        r_match = self.config.r_match
        if r_match is None:
            r_match = min(max(0.5 * float(r_to.min()), 40.0 * self.r_seed, 1e-6 / m), r_max / 3)
        if not self.r_seed < r_match < r_max:
            raise ConfigurationError(
                f"need r0 < r_match < r_max, got {self.r_seed:g}, {r_match:g}, {r_max:g}")
        return _Domain(r_seed=self.r_seed, r_max=r_max, r_match=r_match,
                       param="lin" if self.channel.d == 1 else "log")

    def fine_table(self, e_band, domain, fams):
        """Fine step table for energies in e_band; fams (workspace family
        indices) are the table's families, in that order, and their own
        envelope max_f |V_f| sets the step rule."""
        env = np.abs(self.v[fams]).max(axis=0)
        c_fine = _FINE_C if domain.param == "log" else _FINE_C_LIN
        h_fine = _h_rule(self.channel, domain.param, self.r,
                         _band_rate(self.channel, self.r, env, e_band),
                         c_fine, self.config.step_density)
        return _make_table(self.channel, [self.families[f] for f in fams], domain,
                           prop.march_nodes, h_fine)

    def fine_eigenvalues(self, groups):
        """Count-bisect each coarse eigenvalue on a fine grid, from its centre,
        groups in lockstep.

        groups lists (fam_is, e_centers, targets) per group. Each group gets
        a fine table of its own families on its own trimmed domain, and
        consecutive groups search together on the stack of their tables
        (prop.stack_tables): a first evaluation gives the window bottom and
        top of every family and every coarse centre, and one count_bisect
        call narrows every bracket. A stack takes groups while its search's
        evaluations, one column per state over the longer match leg, hold at
        most _LOCKSTEP_ENTRIES step x batch entries; the first evaluation,
        three columns per state for stencils, runs in pieces of that width,
        or of the widest group's own first evaluation if that is wider. A
        state's bracket is its centre and the window end on the other side of
        the centre's fine count, so index targeting stays exact however far
        the coarse and fine grids disagree, and the search starts with Newton
        from the centre. Returns (E*, |M|, final bracket width, evaluations,
        fine domain) per group, in order.
        """
        m = self.channel.m
        bottom, top = self.window()
        pad = 2e-3 * m
        tables, info, results = [], [], []

        def search():
            table = prop.stack_tables(tables)
            tables.clear()    # the group tables are not held while it is searched
            results.extend(self._lockstep(table, info))
            info.clear()

        for fam_is, e_centers, targets in groups:
            e_centers = np.asarray(e_centers, dtype=float)
            band = (max(float(e_centers.min()) - pad, bottom),
                    min(float(e_centers.max()) + pad, top))
            domain = self.trimmed_domain(fam_is, e_centers)
            # a table holds only its group's families; row indexes them
            fams, row = np.unique(np.asarray(fam_is, dtype=np.intp), return_inverse=True)
            table = self.fine_table(band, domain, fams)
            n_states = row.size + sum(g[1].size for g in info)
            if tables and n_states * _longest_leg(tables + [table]) > _LOCKSTEP_ENTRIES:
                search()
            tables.append(table)
            info.append((fams, row, e_centers, np.asarray(targets), domain))
        search()
        return results

    def _lockstep(self, table, info):
        """The search of fine_eigenvalues on one stack of the groups' tables,
        given (families, row, e_centers, targets, domain) per group; returns
        the results of each group."""
        bottom, top = self.window()
        fams, rows, e_centers, targets, domains = zip(*info)
        # columns of a group's own first evaluation: its families' window
        # ends and its centres
        own_width = max(2 * f.size + r.size for f, r in zip(fams, rows))
        first = np.cumsum([0] + [f.size for f in fams])
        row = np.concatenate([r + f0 for r, f0 in zip(rows, first)])
        fams, e_centers, targets = map(np.concatenate, (fams, e_centers, targets))
        nf = fams.size

        # the window bottom and top of each family in the stack, then the
        # centres, in pieces no wider than the search's own evaluations (one
        # column per state) or than the widest group's own first evaluation
        e_rows = np.concatenate([np.full(nf, bottom), np.full(nf, top), e_centers])
        cols = np.concatenate([np.arange(nf), np.arange(nf), row])
        width = max(row.size, own_width)
        mval, dth, slope = (np.concatenate(v) for v in zip(*(
            prop.match_values(table, cols[i:i + width], e_rows[i:i + width])
            for i in range(0, e_rows.size, width))))
        missing = prop.count_below(dth[nf + row], dth[row]) <= targets
        if np.any(missing):
            raise NumericalError(
                f"the fine grid brackets no eigenvalue of index "
                f"{targets[missing].tolist()} in the search window "
                f"[{bottom:.12g}, {top:.12g}]")
        found = _search_from(table, row, e_rows, (mval, dth, slope), targets,
                             self.config.e_tol, ("fine", "coarse centres"))
        bounds = np.cumsum([0] + [r.size for r in rows])
        return [(*(a[lo:hi] for a in found), domain)
                for lo, hi, domain in zip(bounds[:-1], bounds[1:], domains)]

    def dense_states(self, fam_is, energies, match_res, bracket_widths,
                     coarse_centers, fine_evals, requested_nodes, domain):
        """Record, normalize and package BoundStates for accepted eigenvalues;
        diagnostics add the final bracket width, |E - coarse centre| and the
        number of evaluations of the fine search."""
        ch, cfg = self.channel, self.config
        fam_idx = np.asarray(fam_is, dtype=np.intp)
        fams, row = np.unique(fam_idx, return_inverse=True)
        out_table = _make_table(ch, [self.families[f] for f in fams], domain,
                                prop.uniform_nodes, cfg.n_grid)
        energies = np.asarray(energies, dtype=float)
        psi1, psi2 = prop.assemble_two_sided(out_table, row, energies)
        grid = out_table.r_nodes
        factor = 2.0 if ch.d == 1 else 1.0
        scheme = InnerProductScheme.for_grid(grid, measure_factor=factor)
        # the norm on every other node is an independent quadrature estimate
        w_half = factor * simpson_weights(grid[::2])
        states = []
        for b in range(fam_idx.size):
            p1 = psi1[:, b].copy()
            p2 = psi2[:, b].copy()
            nrm2 = factor * float(np.dot(scheme.weights, p1 * p1 + p2 * p2))
            if not nrm2 > 0:
                raise NumericalError("degenerate wavefunction normalization")
            p1 /= math.sqrt(nrm2)
            p2 /= math.sqrt(nrm2)
            peak = np.max(np.abs(p1))
            sig = np.nonzero(np.abs(p1) > 1e-3 * peak)[0]
            if p1[sig[0]] < 0:
                p1, p2 = -p1, -p2
            nodes = prop.count_sign_changes(p1)
            norm_res = abs(float(np.dot(w_half, p1[::2] ** 2 + p2[::2] ** 2)) - 1.0)
            states.append(BoundState(
                channel=ch,
                family=self.families[fam_idx[b]],
                E=float(energies[b]),
                grid=grid.copy(),
                psi1=p1,
                psi2=p2,
                nodes=nodes,
                norm_residual=norm_res,
                match_residual=float(match_res[b]),
                scheme=scheme,
                diagnostics={
                    "r_match": domain.r_match,
                    "r_max": domain.r_max,
                    "r_seed": domain.r_seed,
                    "requested_nodes": requested_nodes[b],
                    "psi2_nodes": prop.count_sign_changes(p2),
                    "coarse_steps": self.coarse.n_steps,
                    "bracket_width": float(bracket_widths[b]),
                    "coarse_shift": abs(float(energies[b] - coarse_centers[b])),
                    "fine_evals": int(fine_evals[b]),
                },
            ))
        return states


def _search_from(table, row, e_rows, values, targets, tol, names):
    """count_bisect each target index from its centre, on the table.

    e_rows holds the window bottom of each of the table's nf families, then
    their window tops, then one centre per target (row: its family), and
    values the (mval, dth, slope) of match_values there. A bracket is the
    centre and the window end on the other side of the centre's count, so
    index targeting stays exact however far off the centre is, and the
    search starts with Newton from the centre. Centres past a neighbouring
    eigenvalue are logged at DEBUG; names = (stage, what the centres are).
    """
    mval, dth, slope = values
    nf = (e_rows.size - row.size) // 2
    dth_b = dth[row]
    count = prop.count_below(dth[2 * nf:], dth_b)
    up = count <= targets                  # the centre lies below it
    centre = 2 * nf + np.arange(row.size)
    end = np.where(up, nf + row, row)
    lo_row, hi_row = np.where(up, centre, end), np.where(up, end, centre)
    past = (count < targets) | (count > targets + 1)
    if _log.isEnabledFor(logging.DEBUG) and np.any(past):
        stage, what = names
        _log.debug("%s stage: the %s %s of indices %s lie past a neighbouring "
                   "eigenvalue on the %s grid (counts %s); their searches need the "
                   "far window end", stage, what, e_rows[centre[past]].tolist(),
                   targets[past].tolist(), stage, count[past].tolist())
    return prop.count_bisect(table, row, e_rows[lo_row], e_rows[hi_row], targets,
                             dth_b, tol,
                             ends=[(mval[r], dth[r], slope[r]) for r in (lo_row, hi_row)])


def _longest_leg(tables) -> int:
    """Steps of the longer match leg of the stack of the tables
    (prop.stack_tables)."""
    return max(max(t.i_match for t in tables), max(t.n_steps - t.i_match for t in tables))


def _no_such_state(ws: _Workspace, ends, n_top, reason: str, ties=None):
    """NoSuchStateError listing refined (E, node-index) pairs: every index
    below min(n_top, _LISTED_INDICES), n_top the window's eigenvalue count,
    count-bisected on the coarse table (_Workspace.coarse_eigenvalues). A
    batch of more than one stencil (ties, see solve_batch) lists nothing: its
    sweep discards the message and solves point by point, and each
    one-stencil batch there lists its own pairs."""
    if ties is not None and len(set(ties)) > 1:
        return NoSuchStateError(f"{reason} (a batch of {len(set(ties))} stencils; "
                                f"found pairs not listed)")
    pairs = [(f, i) for f, n in enumerate(n_top)
             for i in range(min(int(n), _LISTED_INDICES))]
    e_ref = (ws.coarse_eigenvalues(ends, *zip(*pairs), tol=1e-6 * ws.channel.m)
             if pairs else [])
    found = sorted({(round(float(e), 9), t) for e, (_, t) in zip(e_ref, pairs)})
    return NoSuchStateError(f"{reason} (found (E, nodes) pairs: {found})", found=found)


def solve_batch(channel: ChannelSpec, families, n_r_values, config: SolveConfig | None = None,
                dense_flags=None, *, _ties=None):
    """Solve the requested node-count states for every family of the batch.

    Returns a list (one entry per family) of dicts {n_r: BoundState|EigenResult}.
    dense_flags selects, per family, whether wavefunctions are produced
    (BoundState) or only eigenvalues (EigenResult). Each group of states
    gets grids of its own; the members of a parameter stencil form one group
    and so share one grid, which is what makes parameter-derivative stencils
    cancel their discretization bias.

    The workspace, the window counts and the coarse centres are shared by
    the whole batch; the fine and dense stages run per group of states (see
    _group_results), the fine stage in lockstep: consecutive groups search
    together on one stack of their own fine tables, zero-length steps
    padding each to a common match node (propagation.stack_tables). A batch
    of one group searches exactly as on its own table. _ties is private to
    the stencil sweeps of monotonicity: one key per family, the parameter
    stencil it belongs to. Each (key, n_r) pair is then its own group, and
    solve_batch returns the generator of group results instead of collecting
    them, so that a sweep can drop each stencil's wavefunctions before the
    next stencil's are made. A batch of more than one stencil raises
    NoSuchStateError without listing the pairs it found (see _no_such_state).
    """
    config = config or DEFAULT_CONFIG
    families = list(families)
    n_r_values = sorted({checked_node_count(n) for n in n_r_values})
    if not families or not n_r_values:
        raise ConfigurationError("a batch needs at least one family and one node count")
    dense_flags = [True] * len(families) if dense_flags is None else list(dense_flags)
    if len(dense_flags) != len(families):
        raise ConfigurationError(f"dense_flags has {len(dense_flags)} entries for "
                                 f"{len(families)} families")

    ws = _Workspace(channel, families, config, n_r_max=max(n_r_values))
    ends = ws.window_ends()
    n_top = prop.count_below(ends[1][:, 1], ends[1][:, 0])
    # A requested index missing from a coarse domain below the ceiling can
    # still appear at the ceiling if the potential tail at the current wall
    # can bind within the window: the coarse table is rebuilt there once.
    if (np.any(n_top <= n_r_values[-1]) and ws.domain.r_max < ws.ceiling
            and ws.tail_binds(ws.domain.r_max)):
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("solve_batch: window counts %s miss node count %d; coarse "
                       "r_max %.6g -> the ceiling %.6g", n_top.tolist(), n_r_values[-1],
                       ws.domain.r_max, ws.ceiling)
        ws.set_coarse(dataclasses.replace(ws.domain, r_max=ws.ceiling))
        ends = ws.window_ends()
        n_top = prop.count_below(ends[1][:, 1], ends[1][:, 0])
    if np.any(n_top <= n_r_values[-1]):
        raise _no_such_state(ws, ends, n_top, f"no state with requested node count(s) "
                             f"{n_r_values} within r_max = {ws.domain.r_max:g}", _ties)
    fam_is = [f for f in range(len(families)) for _ in n_r_values]
    labels = [n for _ in families for n in n_r_values]
    centers = ws.coarse_eigenvalues(ends, fam_is, labels, tol=3e-7 * channel.m)
    # without an explicit r_max, a state with less than HEADROOM_EFOLDS of decay
    # room even at the cap is out of reach: the hard wall would shift its E
    m = channel.m
    if config.r_max is None:
        room = np.sqrt(np.maximum(m * m - centers**2, 0.0)) * (
            ws.ceiling - ws.turning_radius(fam_is, centers))
        if np.any(room < HEADROOM_EFOLDS):
            raise _no_such_state(ws, ends, n_top, f"a requested state ({n_r_values}) has "
                                 f"{room.min():.3g} < {HEADROOM_EFOLDS:g} e-folds of "
                                 f"decay room within the cap r_max = {ws.ceiling:g}",
                                 _ties)

    groups: list[list[int]] = []
    if _ties is not None:
        # one group per stencil and level, in the order of the batch
        keyed: dict = {}
        for i, (f, n) in enumerate(zip(fam_is, labels)):
            keyed.setdefault((_ties[f], n), []).append(i)
        groups = list(keyed.values())
    else:
        # energy-band groups: states of similar decay rate share a trimmed
        # fine grid, which keeps deep and shallow states from forcing each
        # other onto the union of their domains
        for i in sorted(range(len(fam_is)), key=lambda i: centers[i]):
            lam_i = math.sqrt(max(m * m - centers[i] ** 2, 1e-12))
            if groups:
                first = groups[-1][0]
                lam_0 = math.sqrt(max(m * m - centers[first] ** 2, 1e-12))
                if lam_i >= 0.55 * lam_0:
                    groups[-1].append(i)
                    continue
            groups.append([i])

    stream = _group_results(ws, groups, fam_is, labels, centers, dense_flags)
    if _ties is not None:
        return stream
    results = [dict() for _ in families]
    for group in stream:
        for f, n, res in group:
            results[f][n] = res
    return results


def _refuse_deep_well(ws: _Workspace, f: int, n_r: int, st: BoundState):
    """Raise UnsupportedRegimeError for a node recount that disagrees with the
    gap index of a regular-origin family whose profile dips below -2m.

    Such a well pulls states up from the lower continuum into the gap, so
    the gap index no longer equals the node count of the upper component.
    That is the physics of strong fields, not a numerical failure, and
    labelling states by node count there is not supported. A singular
    (Coulomb) origin is left to the caller's NumericalError."""
    m = ws.channel.m
    v_min = float(ws.v[f].min())
    if ws.families[f].origin_class.is_singular or not v_min < -2.0 * m:
        return
    raise UnsupportedRegimeError(
        f"deep regular well (min V = {v_min / m:.4g} m < -2m): states dive into "
        f"the gap from the lower continuum, and the state of gap index {n_r} "
        f"(E = {st.E:.12g}) has {st.nodes} nodes in its upper component; "
        f"node-count labels are not supported in this regime"
    )


def _group_results(ws: _Workspace, groups, fam_is, labels, centers, dense_flags):
    """Fine and dense stages of a batch. The fine stage searches the groups
    in lockstep, on stacks of their own fine tables (see
    _Workspace.fine_eigenvalues), before any dense state exists; the dense
    stage then runs one group at a time, and each group's list of (family
    index, n_r, BoundState | EigenResult) is yielded as soon as it is made.
    Dense states are re-verified by their node count (a deep regular well is
    refused, see _refuse_deep_well)."""
    fine = ws.fine_eigenvalues(
        [([fam_is[i] for i in grp], centers[grp], [labels[i] for i in grp])
         for grp in groups])
    for grp, (e_star, m_res, widths, evals, domain) in zip(groups, fine):
        fams = [fam_is[i] for i in grp]
        targets = [labels[i] for i in grp]
        dense = [k for k, f in enumerate(fams) if dense_flags[f]]
        states = {}
        if dense:
            states = dict(zip(dense, ws.dense_states(
                [fams[k] for k in dense], e_star[dense], m_res[dense], widths[dense],
                centers[grp][dense], evals[dense], [targets[k] for k in dense],
                domain=domain)))
        for k, st in states.items():
            if st.nodes != targets[k]:
                _refuse_deep_well(ws, fams[k], targets[k], st)
                raise NumericalError(
                    f"node recount on the dense grid gave {st.nodes}, expected "
                    f"{targets[k]} (E = {st.E:.12g}); eigenvalue indexing and "
                    f"node structure disagree"
                )
        yield [(f, n, states[k] if k in states else
                EigenResult(E=float(e_star[k]), nodes=n, match_residual=float(m_res[k])))
               for k, (f, n) in enumerate(zip(fams, targets))]
        states = st = None   # not held while the next group's states are formed


def solve(channel: ChannelSpec, family: PotentialFamily, n_r: int,
          config: SolveConfig | None = None) -> BoundState:
    """Bound state with n_r nodes of psi1 in the given channel.

    Counts eigenvalues over the whole gap from the matching phase, which
    passes a multiple of pi at each one, brackets the n_r-th by that count
    between a semiclassical estimate of it and the far window end, narrows
    the bracket by count-preserving Newton steps on the angle with a
    midpoint fallback (see propagation.count_bisect), and returns the
    normalized, sign-fixed state whose node count equals n_r. Raises
    NoSuchStateError (listing what was found) if the requested state does
    not exist, and UnsupportedRegimeError for a regular-origin well deeper
    than 2m whose gap index and node count disagree.
    """
    return solve_batch(channel, [family], [n_r], config)[0][n_r]


def solve_1d(channel: ChannelSpec, family: PotentialFamily, n_r: int,
             config: SolveConfig | None = None) -> BoundState:
    """d = 1 parity-sector solve; the family is evaluated as V(|x|)."""
    if channel.d != 1:
        raise ConfigurationError("solve_1d requires a d = 1 channel")
    return solve(channel, family, n_r, config)


def match_function(E: float, channel: ChannelSpec, family: PotentialFamily,
                   config: SolveConfig | None = None) -> float:
    """Scale-invariant two-sided shooting mismatch M(E); zeros are eigenvalues.

    M is evaluated on a fine table of the domain of a state at E
    (_Workspace.trimmed_domain), so it matches inside that state's allowed
    region however shallow it is. Raises NumericalError from the rotation
    limit of propagate, as solve does."""
    config = config or DEFAULT_CONFIG
    m = channel.m
    if not -m < E < m:
        raise DomainError(f"M(E) is defined inside the gap; got E = {E}")
    ws = _Workspace(channel, [family], config)
    pad = 0.01 * m
    band = (max(E - pad, -m * (1 - GAP_EDGE_FRACTION)),
            min(E + pad, m * (1 - GAP_EDGE_FRACTION)))
    table = ws.fine_table(band, ws.trimmed_domain([0], [E]), [0])
    mval, _, _ = prop.match_values(table, np.zeros(1, dtype=np.intp), np.asarray([E]))
    return float(mval[0])

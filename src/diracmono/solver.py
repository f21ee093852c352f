"""Bound states of the coupled radial system by two-sided shooting.

The pair (psi1, psi2) satisfies

    psi1' = (E - V + m) psi2 - (k/r) psi1
    psi2' = (V + m - E) psi1 + (k/r) psi2

with k = tau (j + (d-2)/2) for d > 1 and k = 0 on the d = 1 half-line, and
discrete eigenvalues live in the gap (-m, m). A solve proceeds in three
stages that share the seed and match radii:

1. coarse stage: evaluate the two-sided matching phase at the two ends of
   the search window in the gap, on a cheap grid. The phase is strictly
   monotone in E and crosses a multiple of pi at every eigenvalue, so the two
   end values give the exact number of eigenvalues in the window, and the
   n-th is located by bracketed search on its index over the whole window
   (no energy scan, so no sign-change aliasing where levels accumulate near
   the gap edge); the index equals the node count of the upper component,
   which the dense stage re-verifies.
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
once on geometric radii from the seed radius out to the explicit r_max or the
cap 4000/m. It gives the match radius, the bottom of the search window, the
rates behind the step rules, the outer turning radii and the tail check.

The coarse domain only has to hold the requested states: it is enlarged
(x2.5) only while a requested eigenvalue index is missing from the window.
The fine and dense stages size their own domain from the targeted states,
HEADROOM_EFOLDS + 9 e-folds of decay beyond each state's own turning radius
on the profile, up to an explicit r_max or the cap. Without an explicit
r_max, a requested state with less than HEADROOM_EFOLDS of room even at the
cap is refused.

Everything is deterministic: identical inputs produce bitwise-identical
states.
"""

from __future__ import annotations

import bisect
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
        if self.n_grid < 200:
            raise ConfigurationError("n_grid must be at least 200")
        if self.r_max is not None and not self.r_max > 0:
            raise ConfigurationError("r_max must be positive")
        if self.r0 is not None and not self.r0 > 0:
            raise ConfigurationError("r0 must be positive")
        if self.r0 is not None and self.r_max is not None and not self.r0 < self.r_max:
            raise ConfigurationError("r0 must be smaller than r_max")


DEFAULT_CONFIG = SolveConfig()


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


def _seed_radius(channel: ChannelSpec, families) -> float:
    """Largest r0 = (1e-3/m) 2^-i, i < 60, keeping every family's
    origin-series truncation below tolerance; all candidates of a family are
    checked in one call."""
    r0 = (1e-3 / channel.m) * 0.5 ** np.arange(60)
    worst = np.max([_seed_correction(channel, f, r0) for f in families], axis=0)
    ok = np.nonzero(worst <= 0.3 * SEED_CORRECTION_TOL)[0]
    if ok.size == 0:
        raise NumericalError("could not find a valid origin seed radius")
    return float(r0[ok[0]])


def origin_seed(channel: ChannelSpec, family: PotentialFamily, E: float, r0: float):
    """Regular-solution start values (psi1(r0), psi2(r0)) for d > 1.

    Leading Frobenius term only; r0 must be small enough that the first
    dropped correction is below 1e-8 relative (checked). This is the solver's
    batched seed with its dropped scale restored.
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
    c1, c2 = _origin_seed_fn(channel, [family], r0)(np.asarray([E], dtype=float),
                                                    np.zeros(1, dtype=np.intp))
    if family.origin_class.is_singular:
        scale = r0 ** _coulomb_gamma(channel.k, family.origin_class.strength)
    else:
        scale = r0 ** abs(channel.k)
    return float(c1[0]) * scale, float(c2[0]) * scale


def tail_seed(channel: ChannelSpec, E: float):
    """Decaying asymptotic direction (psi1, psi2) = (1, -sqrt((m-E)/(m+E))).

    Valid where the potential is negligible; the solver starts far enough out
    that any seed imperfection decays by ~e^-80 before the match radius.
    """
    m = channel.m
    if not -m < E < m:
        raise DomainError(f"no bound-state tail outside the gap: E = {E}, m = {m}")
    y1, y2 = _tail_seed_fn(channel)(E, None)
    return float(y1), float(y2)


# ---------------------------------------------------------------------------
# batched seed closures
# ---------------------------------------------------------------------------

def _origin_seed_fn(channel: ChannelSpec, families, r0: float):
    """Vectorized origin seeds seed(E, fam_idx); the scale r0^gamma (singular
    origin) or r0^|k| (regular origin) is dropped, since matching is
    scale-invariant. fam_idx = None means the (F, nE) layout of window_ends,
    otherwise it maps flat batch elements to families."""
    k, m = channel.k, channel.m
    if channel.d == 1:
        v = (1.0, 0.0) if channel.parity == "even" else (0.0, 1.0)

        def seed_1d(E, fam_idx):
            shape = np.shape(E)
            return (np.full(shape, v[0]), np.full(shape, v[1]))

        return seed_1d

    singular = np.array([f.origin_class.is_singular for f in families])
    strength = np.array([f.origin_class.strength if s else 1.0
                         for f, s in zip(families, singular)])
    v0 = np.array([0.0 if s else f.origin_value()
                   for f, s in zip(families, singular)])
    gamma = np.array([_coulomb_gamma(k, st) if s else 0.0
                      for s, st in zip(singular, strength)])

    def seed(E, fam_idx):
        E = np.asarray(E, dtype=float)

        def pick(arr):
            return arr[:, None] if fam_idx is None else arr[fam_idx]

        sing, st, g, v0b = pick(singular), pick(strength), pick(gamma), pick(v0)
        if k > 0:
            reg1 = (E - v0b + m) * r0 / (2 * k + 1)
            reg2 = np.ones_like(E)
        else:
            reg1 = np.ones_like(E)
            reg2 = (v0b + m - E) * r0 / (2 * abs(k) + 1)
        c1 = np.where(sing, 1.0, reg1)
        c2 = np.where(sing, (g + k) / st, reg2)
        return (np.array(np.broadcast_to(c1, E.shape)),
                np.array(np.broadcast_to(c2, E.shape)))

    return seed


def _tail_seed_fn(channel: ChannelSpec):
    m = channel.m

    def seed(E, fam_idx):
        E = np.asarray(E, dtype=float)
        return np.ones_like(E), -np.sqrt((m - E) / (m + E))

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


def _initial_r_max(channel, families, n_r_max: int) -> float:
    """Outer radius of the coarse domain, which only has to hold the requested
    states: for Coulombic tails the n-th state decays like
    exp(-r alpha m/(n+1))-ish, so the largest tail strength |V(r)| * r sizes
    it; the fine and dense stages size their own headroom (trimmed_domain)."""
    m = channel.m
    r_scale = max(f.length_scale(m) for f in families)
    base = max(20.0 * r_scale, 60.0 / m)
    r_big = 50.0 * r_scale
    c_tail = max(abs(f.evaluate(r_big)) * r_big for f in families)
    if c_tail > 1e-4:
        lam_est = 0.8 * c_tail * m / (n_r_max + 1.0)
        base = max(base, 50.0 / lam_est)
    return min(base, _R_MAX_CAP / m)


def _seed_and_outer_radius(channel, families, config, r_max_override=None,
                           n_r_max: int = 0):
    """(r_seed, r_max) of the coarse domain; r_seed = 0 on the d = 1 half-line."""
    m = channel.m
    if config.r_max is not None and config.r_max > _R_MAX_CAP / m:
        raise ConfigurationError(f"r_max = {config.r_max:g} exceeds the cap "
                                 f"{_R_MAX_CAP:g}/m = {_R_MAX_CAP / m:g}")
    r_max = (r_max_override or config.r_max
             or _initial_r_max(channel, families, n_r_max))
    if channel.d == 1:
        return 0.0, r_max
    if config.r0 is not None:
        worst = max(_seed_correction(channel, f, config.r0) for f in families)
        if worst > SEED_CORRECTION_TOL:
            raise ConfigurationError(
                f"configured r0 = {config.r0:g} is too large for the origin "
                f"seed (dropped term {worst:.2e})"
            )
        return config.r0, r_max
    return min(_seed_radius(channel, families), 1e-6 * r_max), r_max


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
    """Step-size callable h(x) interpolated from a rate tabulated on the radii
    r, since marching queries it thousands of times; x = log r for the "log"
    parametrization, x = r for "lin". The slopes are formed once, and each
    query is a bisection plus np.interp's own formula on Python floats, so
    the steps are bitwise those of np.interp without its per-call cost."""
    if param == "log":
        x = np.log(r)
        h = np.minimum(0.35, c_step / (abs(channel.k) + r * rate)) / density
    else:
        x = r
        h = np.minimum(0.35 / channel.m, c_step / rate) / density
    slope = (np.diff(h) / np.diff(x)).tolist()
    x, h = x.tolist(), h.tolist()
    last = len(x) - 1

    def h_of_x(xq):
        j = bisect.bisect_right(x, xq) - 1
        if j < 0:
            return h[0]
        if j >= last:
            return h[last]
        return slope[j] * (xq - x[j]) + h[j]

    return h_of_x


def _make_table(channel, families, domain, place_nodes, spacing):
    """Step table over the domain with a node at r_match. place_nodes is
    prop.march_nodes (spacing: the step rule h(x)) or prop.uniform_nodes
    (spacing: the node count)."""
    if domain.param == "log":
        x_lo, x_hi = math.log(domain.r_seed), math.log(domain.r_max)
        x_match = math.log(domain.r_match)
    else:
        x_lo, x_hi, x_match = 0.0, domain.r_max, domain.r_match
    nodes = place_nodes(x_lo, x_hi, spacing, x_breaks=[x_match])
    i_match = int(np.argmin(np.abs(nodes - x_match)))
    return prop.build_step_table(domain.param, channel.k, channel.m,
                                 families, nodes, i_match)


# ---------------------------------------------------------------------------
# solve pipeline
# ---------------------------------------------------------------------------

_COARSE_C = 0.33
_FINE_C = 0.06
_FINE_C_LIN = 0.022  # the linear d = 1 parametrization lacks the log-grid near-exactness
_R_MAX_CAP = 4000.0  # in units of 1/m; binding below ~5e-5 m is out of reach

_PROFILE_POINTS = 1200  # geometric radii of the workspace's potential profile
# step x batch entries of one leg of a fine-stage evaluation in lockstep: half
# a scan segment, so that the widest calls stay near those of groups searched
# one at a time (the working set of a full segment is about 5 MB)
_LOCKSTEP_ENTRIES = prop._SCAN_ELEMENTS // 2


class _Workspace:
    """Shared radial domain, potential profile and step tables for a family
    batch. The profile (r, v, env) samples every V_f once, from
    2 max(r_seed, 1e-12) to the ceiling (the explicit r_max, else the cap),
    so it spans every domain the workspace builds."""

    def __init__(self, channel, families, config, r_max_override=None,
                 n_r_max: int = 0):
        for fam in families:
            if fam.origin_class.is_singular:
                _coulomb_gamma(channel.k, fam.origin_class.strength)  # raises if supercritical
        m = channel.m
        self.channel = channel
        self.families = list(families)
        self.config = config
        self.ceiling = config.r_max or _R_MAX_CAP / m
        r_seed, r_max = _seed_and_outer_radius(channel, families, config,
                                               r_max_override, n_r_max)
        self.r = np.geomspace(2.0 * max(r_seed, 1e-12), self.ceiling, _PROFILE_POINTS)
        self.v = np.stack([f.evaluate(self.r) for f in self.families])
        self.env = np.abs(self.v).max(axis=0)
        # r_match: where the worst-case |V| falls through m (where the sign of
        # the psi2' coefficient V + m - E changes character near mid-gap),
        # well inside the domain so the outward pass never spans many
        # forbidden e-folds
        reach = np.nonzero((self.env >= m) & (self.r <= r_max / 3))[0]
        r_star = (self.r[reach[-1]] if reach.size
                  else 4.0 * max(f.length_scale(m) for f in families))
        r_match = config.r_match or float(min(max(r_star, r_seed * 40, 1e-6 / m),
                                              r_max / 3))
        if not (r_seed < r_match < r_max):
            raise ConfigurationError(
                f"need r0 < r_match < r_max, got {r_seed:g}, {r_match:g}, {r_max:g}"
            )
        self.domain = _Domain(r_seed=r_seed, r_max=r_max, r_match=r_match,
                              param="lin" if channel.d == 1 else "log")
        h_coarse = _h_rule(channel, self.domain.param, self.r,
                           _coarse_rate(channel, self.env), _COARSE_C,
                           config.step_density)
        self.coarse = _make_table(channel, families, self.domain,
                                  prop.march_nodes, h_coarse)
        self.seeds = (_origin_seed_fn(channel, self.families, r_seed),
                      _tail_seed_fn(channel))

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
        seed_o, seed_t = self.seeds
        e_ends = np.broadcast_to(self.window(), (len(self.families), 2))
        return prop.match_values(self.coarse, None, e_ends, seed_o, seed_t,
                                 phase=True)

    def coarse_eigenvalues(self, ends, fam_is, targets, tol):
        """Count-bisect each target eigenvalue index on the coarse table.

        Every bracket is the whole window; the end values from window_ends
        are reused.
        """
        _, dth, _ = ends
        fam_idx = np.asarray(fam_is, dtype=np.intp)
        lo, hi = (np.full(fam_idx.size, e) for e in self.window())
        seed_o, seed_t = self.seeds
        e_ref, _, _, _ = prop.count_bisect(
            self.coarse, fam_idx, lo, hi, targets, dth[fam_idx, 0], tol,
            seed_o, seed_t, ends=[tuple(a[fam_idx, i] for a in ends) for i in (0, 1)])
        return e_ref

    # -- fine + dense stages --------------------------------------------------
    def turning_radius(self, fam_idx, energies) -> np.ndarray:
        """Outer turning radius of each state: the last profile radius where
        its own family's |V| reaches m - E, else the profile's first radius.
        The profile runs out to the ceiling of every domain."""
        v_abs = np.abs(self.v[np.asarray(fam_idx, dtype=np.intp)])
        gap = np.maximum(self.channel.m - np.asarray(energies, dtype=float), 1e-12)
        inside = v_abs >= gap[:, None]
        last = inside.shape[1] - 1 - np.argmax(inside[:, ::-1], axis=1)
        return np.where(inside.any(axis=1), self.r[last], self.r[0])

    def trimmed_domain(self, fam_idx, energies) -> _Domain:
        """Domain sized to what the states (fam_idx, energies) occupy.

        It ends HEADROOM_EFOLDS + 9 e-folds of decay beyond the farthest of
        their turning radii, max_i (r_to,i + 47/lambda_i) with lambda_i =
        sqrt(m^2 - E_i^2) and r_to,i read from the profile, below the
        explicit r_max or the cap, and so may reach past the coarse domain.
        Deeper states of the same families decay within it, so eigenvalue
        indices relative to the window bottom are unchanged; the trim buys a
        dense grid where the target states actually have support.
        """
        m = self.channel.m
        energies = np.asarray(energies, dtype=float)
        lam = np.sqrt(np.maximum(m * m - energies ** 2, 1e-12))
        r_need = float(np.max(self.turning_radius(fam_idx, energies)
                              + (HEADROOM_EFOLDS + 9.0) / lam))
        r_max = min(self.ceiling, max(r_need, 4.0 * self.domain.r_match, 30.0 / m))
        return _Domain(r_seed=self.domain.r_seed, r_max=r_max,
                       r_match=self.domain.r_match, param=self.domain.param)

    def fine_table(self, e_band, domain, fams=None):
        """Fine step table for energies in e_band; fams (workspace family
        indices, default all) are the table's families, in that order, and
        their own envelope max_f |V_f| sets the step rule."""
        if fams is None:
            fams = np.arange(len(self.families))
        env = np.abs(self.v[fams]).max(axis=0)
        c_fine = _FINE_C if domain.param == "log" else _FINE_C_LIN
        h_fine = _h_rule(self.channel, domain.param, self.r,
                         _band_rate(self.channel, self.r, env, e_band),
                         c_fine, self.config.step_density)
        return _make_table(self.channel, [self.families[f] for f in fams], domain,
                           prop.march_nodes, h_fine)

    def local_seeds(self, fams):
        """The workspace seeds for a table of the families fams: its family
        index i is workspace family fams[i]."""
        seed_o, seed_t = self.seeds
        return (lambda E, idx: seed_o(E, fams[idx])), seed_t

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
        seed_o, seed_t = self.local_seeds(fams)

        # the window bottom and top of each family in the stack, then the
        # centres, in pieces no wider than the search's own evaluations (one
        # column per state) or than the widest group's own first evaluation
        e_rows = np.concatenate([np.full(nf, bottom), np.full(nf, top), e_centers])
        cols = np.concatenate([np.arange(nf), np.arange(nf), row])
        width = max(row.size, own_width)
        mval, dth, slope = (np.concatenate(v) for v in zip(*(
            prop.match_values(table, cols[i:i + width], e_rows[i:i + width],
                              seed_o, seed_t, phase=True)
            for i in range(0, e_rows.size, width))))
        dth_b = dth[row]
        missing = prop.count_below(dth[nf + row], dth_b) <= targets
        if np.any(missing):
            raise NumericalError(
                f"the fine grid brackets no eigenvalue of index "
                f"{targets[missing].tolist()} in the search window "
                f"[{bottom:.12g}, {top:.12g}]")
        # each bracket: the centre and the window end across the eigenvalue
        count = prop.count_below(dth[2 * nf:], dth_b)
        up = count <= targets                  # the centre lies below it
        centre = 2 * nf + np.arange(row.size)
        end = np.where(up, nf + row, row)
        lo_row, hi_row = np.where(up, centre, end), np.where(up, end, centre)
        past = (count < targets) | (count > targets + 1)
        if _log.isEnabledFor(logging.DEBUG) and np.any(past):
            _log.debug("fine stage: the coarse centres %s of indices %s lie past a "
                       "neighbouring eigenvalue on the fine grid (counts %s); their "
                       "searches need the far window end", e_centers[past].tolist(),
                       targets[past].tolist(), count[past].tolist())
        found = prop.count_bisect(
            table, row, e_rows[lo_row], e_rows[hi_row], targets, dth_b,
            self.config.e_tol, seed_o, seed_t,
            ends=[(mval[r], dth[r], slope[r]) for r in (lo_row, hi_row)])
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
        seed_o, seed_t = self.local_seeds(fams)
        energies = np.asarray(energies, dtype=float)
        psi1, psi2 = prop.assemble_two_sided(out_table, row, energies,
                                             seed_o, seed_t)
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


def _longest_leg(tables) -> int:
    """Steps of the longer match leg of the stack of the tables
    (prop.stack_tables)."""
    return max(max(t.i_match for t in tables), max(t.n_steps - t.i_match for t in tables))


def _no_such_state(ws: _Workspace, ends, n_top, reason: str, ties=None, cap: int = 14):
    """NoSuchStateError listing refined (E, node-index) pairs: every index
    below min(n_top, cap), the window's eigenvalue count, count-bisected on
    the whole window. A batch of more than one stencil (ties, see
    solve_batch) lists nothing: its sweep discards the message and solves
    point by point, and each one-stencil batch there lists its own pairs."""
    if ties is not None and len(set(ties)) > 1:
        return NoSuchStateError(f"{reason} (a batch of {len(set(ties))} stencils; "
                                f"found pairs not listed)")
    pairs = [(f, i) for f, n in enumerate(n_top) for i in range(min(int(n), cap))]
    e_ref = (ws.coarse_eigenvalues(ends, *zip(*pairs), tol=1e-6 * ws.channel.m)
             if pairs else [])
    found = sorted({(round(float(e), 9), t) for e, (_, t) in zip(e_ref, pairs)})
    return NoSuchStateError(f"{reason} (found (E, nodes) pairs: {found})", found=found)


def solve_batch(channel: ChannelSpec, families, n_r_values, config: SolveConfig | None = None,
                dense_flags=None, *, _ties=None):
    """Solve the requested node-count states for every family on one shared grid.

    Returns a list (one entry per family) of dicts {n_r: BoundState|EigenResult}.
    dense_flags selects, per family, whether wavefunctions are produced
    (BoundState) or only eigenvalues (EigenResult). Sharing the radial grid
    across the batch is what makes parameter-derivative stencils cancel their
    discretization bias.

    The workspace, the window counts and the coarse centres are shared by
    the whole batch; the fine and dense stages run per group of states (see
    _group_results), the fine stage in lockstep: consecutive groups search
    together on one stack of their own fine tables, zero-length steps
    padding each to a common match node (propagation.stack_tables). A batch
    of one group searches exactly as on its own table. _ties is private to the stencil sweeps of monotonicity:
    one key per family, the parameter stencil it belongs to. Each (key, n_r)
    pair is then its own group, and solve_batch returns the generator of
    group results instead of collecting them, so that a sweep can drop each
    stencil's wavefunctions before the next stencil's are made. A batch of
    more than one stencil raises NoSuchStateError without listing the pairs
    it found (see _no_such_state).
    """
    config = config or DEFAULT_CONFIG
    families = list(families)
    n_r_values = sorted(set(int(n) for n in n_r_values))
    if any(n < 0 for n in n_r_values):
        raise ConfigurationError("node counts are non-negative")
    if dense_flags is None:
        dense_flags = [True] * len(families)

    ws = _Workspace(channel, families, config, n_r_max=max(n_r_values))
    while True:
        ends = ws.window_ends()
        n_top = prop.count_below(ends[1][:, 1], ends[1][:, 0])
        if not np.any(n_top <= n_r_values[-1]):
            break
        # A missing state can only appear at larger r_max if the potential
        # tail at the current wall can still bind within the window.
        # An explicitly configured r_max pins the domain and is never grown.
        v_edge = float(np.interp(ws.domain.r_max, ws.r, ws.env))
        tail_dead = v_edge < 0.3 * GAP_EDGE_FRACTION * channel.m
        if ws.domain.r_max >= ws.ceiling or config.r_max is not None or tail_dead:
            raise _no_such_state(
                ws, ends, n_top, f"no state with requested node count(s) "
                f"{n_r_values} within r_max = {ws.domain.r_max:g}", _ties)
        r_next = min(ws.domain.r_max * 2.5, ws.ceiling)
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("solve_batch: window counts %s miss node count %d; coarse "
                       "r_max %.6g -> %.6g", n_top.tolist(), n_r_values[-1],
                       ws.domain.r_max, r_next)
        ws = _Workspace(channel, families, config, r_max_override=r_next,
                        n_r_max=max(n_r_values))
    fam_is = [f for f in range(len(families)) for _ in n_r_values]
    labels = [n for _ in families for n in n_r_values]
    centers = ws.coarse_eigenvalues(ends, fam_is, labels, tol=3e-6 * channel.m)
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


def solve(channel: ChannelSpec, family: PotentialFamily, n_r: int,
          config: SolveConfig | None = None) -> BoundState:
    """Bound state with n_r nodes of psi1 in the given channel.

    Counts eigenvalues over the whole gap from the matching phase, which
    passes a multiple of pi at each one, brackets the n_r-th by that count,
    narrows the bracket by count-preserving Newton steps on the angle with a
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
    """Scale-invariant two-sided shooting mismatch M(E); zeros are eigenvalues."""
    config = config or DEFAULT_CONFIG
    m = channel.m
    if not -m < E < m:
        raise DomainError(f"M(E) is defined inside the gap; got E = {E}")
    ws = _Workspace(channel, [family], config)
    pad = 0.01 * m
    band = (max(E - pad, -m * (1 - GAP_EDGE_FRACTION)),
            min(E + pad, m * (1 - GAP_EDGE_FRACTION)))
    table = ws.fine_table(band, ws.domain)
    seed_o, seed_t = ws.seeds
    val = prop.match_values(table, np.zeros(1, dtype=np.intp),
                            np.asarray([E]), seed_o, seed_t)
    return float(val[0])

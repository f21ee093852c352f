"""Bound states of the coupled radial system by two-sided shooting.

The pair (psi1, psi2) satisfies

    psi1' = (E - V + m) psi2 - (k/r) psi1
    psi2' = (V + m - E) psi1 + (k/r) psi2

with k = tau (j + (d-2)/2) for d > 1 and k = 0 on the d = 1 half-line, and
discrete eigenvalues live in the gap (-m, m). A solve proceeds in three
stages sharing one radial domain:

1. coarse stage: scan the two-sided matching phase over the whole gap on a
   cheap grid. The phase is strictly monotone in E and crosses a multiple of
   pi at every eigenvalue, so the scan yields exact eigenvalue counts per
   interval (no sign-change aliasing where levels accumulate near the gap
   edge), and the n-th eigenvalue is located by bracketed search on its
   index; the index equals the node count of the upper component, which the
   dense stage re-verifies.
2. fine stage: repeat the index-targeted search on a dense, energy-band-aware
   grid trimmed to the radial support of the targeted states, down to the
   eigenvalue tolerance.
3. dense stage: record the two-sided wavefunction on the output grid,
   normalize (psi1, psi1) + (psi2, psi2) = 1, and fix the overall sign.

The radial domain auto-enlarges until the accepted state has ~40 e-folds of
exponential decay headroom beyond its outer turning radius.

Everything is deterministic: identical inputs produce bitwise-identical
states.
"""

from __future__ import annotations

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

GAP_EDGE_FRACTION = 1e-6     # scan keeps this relative distance from +-m
HEADROOM_EFOLDS = 38.0       # required decay room beyond the turning radius
SEED_CORRECTION_TOL = 1e-8   # origin seed: max relative size of dropped term


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
        if not self.m > 0:
            raise ConfigurationError(f"mass must be positive, got {self.m}")
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
    scan_points: int = 200
    r_match: float | None = None

    def __post_init__(self):
        if not self.e_tol > 0:
            raise ConfigurationError("e_tol must be positive")
        if not 0.4 <= self.step_density <= 8.0:
            raise ConfigurationError(
                f"step_density must lie in [0.4, 8], got {self.step_density}")
        if self.scan_points < 8:
            raise ConfigurationError("scan_points must be at least 8")
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
    quad = (r0 * (abs(e_worst - v0) + 2 * m)) ** 2
    vvar = r0 * abs(family.evaluate(2 * r0) - v0)
    return quad + vvar


def _seed_radius(channel: ChannelSpec, families) -> float:
    """Largest r0 keeping every family's origin-series truncation below tolerance."""
    target = 0.3 * SEED_CORRECTION_TOL
    r0 = 1e-3 / channel.m
    for _ in range(60):
        worst = max(_seed_correction(channel, f, r0) for f in families)
        if worst <= target:
            return r0
        r0 *= 0.5
    raise NumericalError("could not find a valid origin seed radius")


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
    scale-invariant. fam_idx = None means the (F, nE) scan layout, otherwise
    it maps flat batch elements to families."""
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


def _vmax_fn(families):
    """Envelope max_f |V_f(r)| of a family batch."""
    def vmax(r):
        r = np.asarray(r, dtype=float)
        vals = np.stack([np.abs(f.evaluate(r)) for f in families])
        return vals.max(axis=0)

    return vmax


def _turning_radius(vmax, lo, hi, n, threshold):
    """Last of n geometric probe radii in [lo, hi] where the envelope vmax
    reaches threshold, or None where it stays below it everywhere."""
    probe = np.geomspace(lo, hi, n)
    inside = np.nonzero(vmax(probe) >= threshold)[0]
    return float(probe[inside[-1]]) if inside.size else None


def _auto_r_match(channel, families, vmax, r_lo, r_max):
    """Radius where the worst-case |V| falls through m (where the sign of the
    psi2' coefficient V + m - E changes character near mid-gap); capped well
    inside the domain so the outward pass never spans many forbidden e-folds."""
    m = channel.m
    r_star = _turning_radius(vmax, max(r_lo * 4, 1e-12), r_max / 3, 400, m)
    if r_star is None:
        r_star = 4.0 * max(f.length_scale(m) for f in families)
    return float(min(max(r_star, r_lo * 40, 1e-6 / m), r_max / 3))


def _initial_r_max(channel, families, n_r_max: int) -> float:
    """First guess for the outer radius, sized to the shallowest requested state.

    For Coulombic tails the n-th state decays like exp(-r alpha m/(n+1))-ish,
    so the tail strength |V(r)| * r sets the needed headroom up front and
    saves enlargement rescans.
    """
    m = channel.m
    r_scale = max(f.length_scale(m) for f in families)
    base = max(20.0 * r_scale, 60.0 / m)
    r_big = 50.0 * r_scale
    c_tail = max(abs(f.evaluate(r_big)) * r_big for f in families)
    if c_tail > 1e-4:
        lam_est = 0.8 * c_tail * m / (n_r_max + 1.0)
        base = max(base, 50.0 / lam_est)
    return min(base, _R_MAX_CAP / m)


def _resolve_domain(channel, families, vmax, config, r_max_override=None,
                    n_r_max: int = 0) -> _Domain:
    m = channel.m
    r_max = (r_max_override or config.r_max
             or _initial_r_max(channel, families, n_r_max))
    if channel.d == 1:
        r_seed = 0.0
    elif config.r0 is not None:
        worst = max(_seed_correction(channel, f, config.r0) for f in families)
        if worst > SEED_CORRECTION_TOL:
            raise ConfigurationError(
                f"configured r0 = {config.r0:g} is too large for the origin "
                f"seed (dropped term {worst:.2e})"
            )
        r_seed = config.r0
    else:
        r_seed = min(_seed_radius(channel, families), 1e-6 * r_max)
    r_match = config.r_match or _auto_r_match(channel, families, vmax,
                                              max(r_seed, 1e-12), r_max)
    if not (r_seed < r_match < r_max):
        raise ConfigurationError(
            f"need r0 < r_match < r_max, got {r_seed:g}, {r_match:g}, {r_max:g}"
        )
    return _Domain(r_seed=r_seed, r_max=r_max, r_match=r_match,
                   param="lin" if channel.d == 1 else "log")


def _coarse_rate(channel, vmax):
    """Worst-case-over-the-gap local rate per unit radius."""
    m = channel.m

    def rate(r):
        v = vmax(r)
        return np.sqrt(2.0 * m * v) + v + 0.08 * m

    return rate


def _band_rate(channel, vmax, e_band):
    """Local rate per unit radius for energies inside [e_band[0], e_band[1]].

    Besides the local wave/decay rate, an Airy-layer term (2m|V'|)^(1/3)
    keeps steps small across turning points, where the wave rate itself
    vanishes but the solution still bends.
    """
    m = channel.m
    e1, e2 = e_band

    def rate(r):
        v = vmax(r)
        dv = np.abs(vmax(r * 1.02) - vmax(r / 1.02)) / (r * (1.02 - 1.0 / 1.02))
        k1 = np.sqrt(np.abs((e1 + v) ** 2 - m * m))
        k2 = np.sqrt(np.abs((e2 + v) ** 2 - m * m))
        airy = (2.0 * m * dv) ** (1.0 / 3.0)
        return np.maximum(np.maximum(k1, k2), airy) + 0.03 * m

    return rate


def _h_rule(channel, domain, rate_r, c_step, density):
    """Step-size callable h(x); the rate profile is tabulated once on a probe
    grid and interpolated, since marching queries it thousands of times."""
    k = abs(channel.k)
    n_probe = 800
    if domain.param == "log":
        r_probe = np.geomspace(domain.r_seed, domain.r_max, n_probe)
        x_probe = np.log(r_probe)
        rate_x = k + r_probe * np.asarray(rate_r(r_probe), dtype=float)
        h_probe = np.minimum(0.35, c_step / rate_x) / density
    else:
        x_probe = np.linspace(max(domain.r_seed, 1e-12), domain.r_max, n_probe)
        rate_x = np.asarray(rate_r(x_probe), dtype=float)
        h_probe = np.minimum(0.35 / max(channel.m, 1e-12), c_step / rate_x) / density

    def h_of_x(x):
        return float(np.interp(x, x_probe, h_probe))

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
_MAX_ENLARGE = 8
_R_MAX_CAP = 4000.0  # in units of 1/m; binding below ~5e-5 m is out of reach


class _Workspace:
    """Shared radial domain plus step tables for a family batch."""

    def __init__(self, channel, families, config, r_max_override=None,
                 n_r_max: int = 0):
        for fam in families:
            if fam.origin_class.is_singular:
                _coulomb_gamma(channel.k, fam.origin_class.strength)  # raises if supercritical
        self.channel = channel
        self.families = list(families)
        self.config = config
        self.vmax = _vmax_fn(families)
        self.domain = _resolve_domain(channel, families, self.vmax, config,
                                      r_max_override, n_r_max=n_r_max)
        h_coarse = _h_rule(channel, self.domain, _coarse_rate(channel, self.vmax),
                           _COARSE_C, config.step_density)
        self.coarse = _make_table(channel, families, self.domain,
                                  prop.march_nodes, h_coarse)
        self._fine = {}
        self._seed_cache = None

    # -- seeds ------------------------------------------------------------
    def seeds(self):
        if not self._seed_cache:
            self._seed_cache = (
                _origin_seed_fn(self.channel, self.families,
                                self.domain.r_seed if self.channel.d > 1 else 0.0),
                _tail_seed_fn(self.channel),
            )
        return self._seed_cache

    # -- scan window --------------------------------------------------------
    def scan_window(self):
        """(bottom, top) of the eigenvalue search window.

        The phase-counting machinery needs E - V + m > 0 everywhere, which
        holds throughout the gap for attractive potentials; a positive part
        of V lifts the usable bottom accordingly (states below it, if any,
        are out of reach and documented as such).
        """
        m = self.channel.m
        eps = GAP_EDGE_FRACTION * m
        probe = np.geomspace(max(self.domain.r_seed, 1e-12) * 2,
                             self.domain.r_max, 400)
        v_sup = max(float(np.max(f.evaluate(probe))) for f in self.families)
        bottom = -m + eps
        if v_sup > 0:
            bottom = max(bottom, v_sup - m + max(1e-6 * m, 1e-6 * v_sup))
        return bottom, m - eps

    # -- coarse stage -------------------------------------------------------
    def spectrum_scan(self):
        """Exact eigenvalue counts on the scan grid.

        Returns (e_grid, counts) with counts[f, i] = number of eigenvalues of
        family f below e_grid[i] (relative to the window bottom), plus the
        per-family matching angle at the bottom used as the count reference.
        """
        cfg = self.config
        bottom, top = self.scan_window()
        e_grid = np.linspace(bottom, top, cfg.scan_points)
        n_fam = len(self.families)
        seed_o, seed_t = self.seeds()
        e_scan = np.broadcast_to(e_grid, (n_fam, e_grid.size))
        _, dth = prop.match_values(self.coarse, None, e_scan, seed_o, seed_t,
                                   phase=True)
        dtb = dth[:, 0]
        counts = prop.count_below(dth, dtb[:, None])
        return e_grid, counts, dtb

    def refine_on(self, table, fam_is, brackets, targets, dtb, tol):
        """Count-bisect each (lo, hi) bracket to its target eigenvalue index."""
        fam_idx = np.asarray(fam_is, dtype=np.intp)
        lo = np.asarray([b[0] for b in brackets], dtype=float)
        hi = np.asarray([b[1] for b in brackets], dtype=float)
        seed_o, seed_t = self.seeds()
        e_ref, m_abs, width = prop.count_bisect(
            table, fam_idx, lo, hi, np.asarray(targets), dtb[fam_idx],
            tol, seed_o, seed_t)
        return e_ref, m_abs, width

    @staticmethod
    def bracket_from_counts(e_grid, counts_row, index):
        """Scan interval on which the count jumps past the requested index."""
        below = np.nonzero(counts_row <= index)[0]
        above = np.nonzero(counts_row >= index + 1)[0]
        return float(e_grid[below[-1]]), float(e_grid[above[0]])

    # -- headroom -----------------------------------------------------------
    def headroom_ok(self, energy: float) -> bool:
        m = self.channel.m
        lam = math.sqrt(max(m * m - energy * energy, 0.0))
        if lam == 0.0:
            return False
        r_lo = max(self.domain.r_seed, 1e-12) * 2
        r_to = _turning_radius(self.vmax, r_lo, self.domain.r_max, 300,
                               m - energy) or r_lo
        return lam * (self.domain.r_max - r_to) >= HEADROOM_EFOLDS

    # -- fine + dense stages --------------------------------------------------
    def trimmed_domain(self, e_band) -> _Domain:
        """Domain cut down to what the states in this energy band occupy.

        Only states below the band live in the trimmed region, so eigenvalue
        indices relative to the window bottom are unchanged; the trim buys a
        dense grid where the target states actually have support.
        """
        m = self.channel.m
        lam = min(math.sqrt(max(m * m - e * e, 1e-12)) for e in e_band)
        r_lo = max(self.domain.r_seed, 1e-12) * 2
        r_to = _turning_radius(self.vmax, r_lo, self.domain.r_max, 300,
                               max(m - max(e_band), 1e-12)) or r_lo
        r_need = r_to + (HEADROOM_EFOLDS + 9.0) / lam
        r_max = min(self.domain.r_max,
                    max(r_need, 4.0 * self.domain.r_match, 30.0 / m))
        return _Domain(r_seed=self.domain.r_seed, r_max=r_max,
                       r_match=self.domain.r_match, param=self.domain.param)

    def fine_table(self, e_band, domain=None):
        domain = domain or self.domain
        key = (round(e_band[0], 6), round(e_band[1], 6), round(domain.r_max, 3))
        if key not in self._fine:
            c_fine = _FINE_C if domain.param == "log" else _FINE_C_LIN
            h_fine = _h_rule(self.channel, domain,
                             _band_rate(self.channel, self.vmax, e_band),
                             c_fine, self.config.step_density)
            self._fine[key] = _make_table(self.channel, self.families,
                                          domain, prop.march_nodes, h_fine)
        return self._fine[key]

    def fine_eigenvalues(self, fam_is, e_centers, targets, e_tol=None):
        """Re-bracket each coarse eigenvalue on a fine grid and count-bisect.

        Index targeting makes a drifting bracket harmless: if the coarse and
        fine grids disagree by more than the initial window, the window is
        widened (ultimately to the whole scan window) and the bisection still
        converges on the requested eigenvalue index. Returns (E*, |M|, the
        fine table used) per batch element.
        """
        ch, m = self.channel, self.channel.m
        e_centers = np.asarray(e_centers, dtype=float)
        targets = np.asarray(targets)
        fam_idx = np.asarray(fam_is, dtype=np.intp)
        bottom, top = self.scan_window()
        pad = 2e-3 * m
        band = (max(float(e_centers.min()) - pad, bottom),
                min(float(e_centers.max()) + pad, top))
        domain = self.trimmed_domain(band)
        table = self.fine_table(band, domain)
        seed_o, seed_t = self.seeds()

        # count reference at the window bottom, per family
        n_fam = len(self.families)
        _, dth_b = prop.match_values(
            table, np.arange(n_fam, dtype=np.intp),
            np.full(n_fam, bottom), seed_o, seed_t, phase=True)
        dtb = dth_b

        delta = np.full(e_centers.shape, max(3e-4 * m, 60 * 3e-6 * m))
        lo = np.maximum(e_centers - delta, bottom)
        hi = np.minimum(e_centers + delta, top)
        for attempt in range(4):
            _, dth_lo = prop.match_values(table, fam_idx, lo, seed_o, seed_t, phase=True)
            _, dth_hi = prop.match_values(table, fam_idx, hi, seed_o, seed_t, phase=True)
            ok = ((prop.count_below(dth_lo, dtb[fam_idx]) <= targets)
                  & (prop.count_below(dth_hi, dtb[fam_idx]) >= targets + 1))
            if ok.all():
                break
            if attempt == 2:
                lo = np.where(ok, lo, bottom)
                hi = np.where(ok, hi, top)
            else:
                delta = np.where(ok, delta, delta * 8)
                lo = np.maximum(e_centers - delta, bottom)
                hi = np.minimum(e_centers + delta, top)
        e_tol = e_tol or self.config.e_tol
        e_star, m_abs, _ = prop.count_bisect(table, fam_idx, lo, hi, targets,
                                             dtb[fam_idx], e_tol, seed_o, seed_t)
        return e_star, m_abs, domain

    def dense_states(self, fam_is, energies, match_res, requested_nodes,
                     domain=None):
        """Record, normalize and package BoundStates for accepted eigenvalues."""
        ch, cfg = self.channel, self.config
        domain = domain or self.domain
        out_table = _make_table(ch, self.families, domain, prop.uniform_nodes,
                                cfg.n_grid)
        seed_o, seed_t = self.seeds()
        fam_idx = np.asarray(fam_is, dtype=np.intp)
        energies = np.asarray(energies, dtype=float)
        psi1, psi2 = prop.assemble_two_sided(out_table, fam_idx, energies,
                                             seed_o, seed_t)
        grid = out_table.r_nodes
        factor = 2.0 if ch.d == 1 else 1.0
        scheme = InnerProductScheme.for_grid(grid, measure_factor=factor)
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
            norm_res = abs(factor * float(np.dot(scheme.weights, p1 * p1 + p2 * p2)) - 1.0)
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
                },
            ))
        return states


def _found_pairs(ws: _Workspace, e_grid, counts, dtb, cap: int = 14):
    """Refined (E, node-index) pairs for error reporting."""
    fam_is, brackets, targets = [], [], []
    for f in range(len(ws.families)):
        total = int(counts[f, -1])
        for idx in range(min(total, cap)):
            fam_is.append(f)
            brackets.append(ws.bracket_from_counts(e_grid, counts[f], idx))
            targets.append(idx)
    if not fam_is:
        return []
    e_ref, _, _ = ws.refine_on(ws.coarse, fam_is, brackets, targets, dtb,
                               tol=1e-6 * ws.channel.m)
    return sorted({(round(float(e), 9), int(t)) for e, t in zip(e_ref, targets)})


def solve_batch(channel: ChannelSpec, families, n_r_values, config: SolveConfig | None = None,
                dense_flags=None, e_tol=None):
    """Solve the requested node-count states for every family on one shared grid.

    Returns a list (one entry per family) of dicts {n_r: BoundState|EigenResult}.
    dense_flags selects, per family, whether wavefunctions are produced
    (BoundState) or only eigenvalues (EigenResult). Sharing the radial grid
    across the batch is what makes parameter-derivative stencils cancel their
    discretization bias.
    """
    config = config or DEFAULT_CONFIG
    families = list(families)
    n_r_values = sorted(set(int(n) for n in n_r_values))
    if any(n < 0 for n in n_r_values):
        raise ConfigurationError("node counts are non-negative")
    if dense_flags is None:
        dense_flags = [True] * len(families)

    ws = _Workspace(channel, families, config, n_r_max=max(n_r_values))
    r_cap = _R_MAX_CAP / channel.m
    tol_coarse = 3e-6 * channel.m
    for round_ in range(_MAX_ENLARGE + 1):
        e_grid, counts, dtb = ws.spectrum_scan()
        missing = any(int(counts[f, -1]) < n + 1
                      for f in range(len(families)) for n in n_r_values)
        centers = None
        cramped = False
        if not missing:
            fam_is, brackets, labels = [], [], []
            for f in range(len(families)):
                for n in n_r_values:
                    fam_is.append(f)
                    brackets.append(ws.bracket_from_counts(e_grid, counts[f], n))
                    labels.append(n)
            centers, _, _ = ws.refine_on(ws.coarse, fam_is, brackets, labels,
                                         dtb, tol=tol_coarse)
            cramped = (config.r_max is None
                       and any(not ws.headroom_ok(float(e)) for e in centers))
        if not missing and not cramped:
            break
        # A missing state can only appear at larger r_max if the potential
        # tail at the current wall can still bind within scan resolution.
        # An explicitly configured r_max pins the domain and is never grown.
        v_edge = float(ws.vmax(np.asarray(ws.domain.r_max)))
        tail_dead = v_edge < 0.3 * GAP_EDGE_FRACTION * channel.m
        exhausted = (round_ == _MAX_ENLARGE or ws.domain.r_max >= r_cap
                     or config.r_max is not None
                     or (missing and not cramped and tail_dead))
        if exhausted:
            found = _found_pairs(ws, e_grid, counts, dtb)
            raise NoSuchStateError(
                f"no state with requested node count(s) {n_r_values} within "
                f"r_max = {ws.domain.r_max:g} (found (E, nodes) pairs: {found})",
                found=found,
            )
        ws = _Workspace(channel, families, config,
                        r_max_override=min(ws.domain.r_max * 2.5, r_cap),
                        n_r_max=max(n_r_values))

    # fine + dense stages run per energy-band group: states of similar decay
    # rate share a trimmed fine grid, which keeps deep and shallow states from
    # forcing each other onto the union of their domains
    m = channel.m
    order = sorted(range(len(fam_is)), key=lambda i: centers[i])
    groups: list[list[int]] = []
    for i in order:
        lam_i = math.sqrt(max(m * m - centers[i] ** 2, 1e-12))
        if groups:
            first = groups[-1][0]
            lam_0 = math.sqrt(max(m * m - centers[first] ** 2, 1e-12))
            if lam_i >= 0.55 * lam_0:
                groups[-1].append(i)
                continue
        groups.append([i])

    e_star = np.empty(len(fam_is))
    m_res = np.empty(len(fam_is))
    states_by_slot: dict[int, BoundState] = {}
    for grp in groups:
        es, ms, gdomain = ws.fine_eigenvalues([fam_is[i] for i in grp],
                                              [centers[i] for i in grp],
                                              [labels[i] for i in grp],
                                              e_tol=e_tol)
        for i, e, mr in zip(grp, es, ms):
            e_star[i], m_res[i] = e, mr
        dense_sel = [i for i in grp if dense_flags[fam_is[i]]]
        if not dense_sel:
            continue
        dstates = ws.dense_states([fam_is[i] for i in dense_sel],
                                  [e_star[i] for i in dense_sel],
                                  [m_res[i] for i in dense_sel],
                                  [labels[i] for i in dense_sel],
                                  domain=gdomain)
        for slot, st in zip(dense_sel, dstates):
            if st.nodes != labels[slot]:
                raise NumericalError(
                    f"node recount on the dense grid gave {st.nodes}, expected "
                    f"{labels[slot]} (E = {st.E:.12g}); eigenvalue indexing and "
                    f"node structure disagree"
                )
            states_by_slot[slot] = st

    results = [dict() for _ in families]
    for i, (f, n) in enumerate(zip(fam_is, labels)):
        if i in states_by_slot:
            results[f][n] = states_by_slot[i]
        else:
            results[f][n] = EigenResult(E=float(e_star[i]), nodes=n,
                                        match_residual=float(m_res[i]))
    return results


def solve(channel: ChannelSpec, family: PotentialFamily, n_r: int,
          config: SolveConfig | None = None) -> BoundState:
    """Bound state with n_r nodes of psi1 in the given channel.

    Counts eigenvalues over the whole gap from the matching phase, which
    passes a multiple of pi at each one, brackets the n_r-th by that count,
    narrows the bracket by count-preserving bisection, and returns the
    normalized, sign-fixed state whose node count equals n_r. Raises
    NoSuchStateError (listing what was found) if the requested state does not
    exist.
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
    table = ws.fine_table(band)
    seed_o, seed_t = ws.seeds()
    val = prop.match_values(table, np.zeros(1, dtype=np.intp),
                            np.asarray([E]), seed_o, seed_t)
    return float(val[0])

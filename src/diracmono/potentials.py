"""Parametrized central vector potential families V(r, params).

Each family carries analytic derivatives with respect to every parameter
(no finite-difference fallback) and a sign classification of the derivative
with respect to the active parameter, which is the hypothesis the
monotonicity verdicts test. Families are immutable values: changing a
parameter produces a new family, so sweeps can fan out over parameter points
without shared state.

Built-in families, all vanishing at infinity and attractive:

    pure-coulomb    V = -alpha/r
    cutoff-coulomb  V = -alpha/(r + a)
    coupling        V = a * f(r), shapes f in {-exp(-r/b), -1/(r+b), -exp(-b r)/r}
    homotopy        V = (1-t) V1 + t V2, built with make_homotopy
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = [
    "SignClass",
    "OriginClass",
    "PotentialFamily",
    "pure_coulomb",
    "cutoff_coulomb",
    "coupling",
    "custom_family",
    "make_homotopy",
    "make_family",
    "evaluate",
    "param_derivative",
    "classify_sign",
    "sign_hypothesis",
    "BUILTIN_FAMILIES",
]


class SignClass(enum.Enum):
    """Uniform-sign classification of a parameter derivative of V."""

    NON_NEGATIVE = "non-negative"
    NON_POSITIVE = "non-positive"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class OriginClass:
    """Behavior of V as r -> 0+.

    kind "regular": V has a finite limit at the origin.
    kind "coulomb": r*V(r) -> -strength, strength > 0.
    """

    kind: str
    strength: float = 0.0

    def __post_init__(self):
        if self.kind not in ("regular", "coulomb"):
            raise ConfigurationError(f"unknown origin class {self.kind!r}")
        if self.kind == "coulomb" and not self.strength > 0:
            raise ConfigurationError("coulomb-singular origin needs strength > 0")

    @property
    def is_singular(self) -> bool:
        return self.kind == "coulomb"


def _regular() -> OriginClass:
    return OriginClass("regular")


def _singular(strength: float) -> OriginClass:
    return OriginClass("coulomb", float(strength))


@dataclass(frozen=True)
class PotentialFamily:
    """A named potential family with fixed parameter values.

    The callables are supplied by the family constructors below; user code
    interacts through evaluate / param_derivative / with_params, or the
    module-level functions of the same names.
    """

    name: str
    params: dict
    active_param: str
    origin_class: OriginClass
    _value: Callable = field(repr=False)
    _derivs: dict = field(repr=False)
    _rebuild: Callable = field(repr=False)
    _scale: Callable = field(repr=False)
    _origin_value: Callable | None = field(repr=False, default=None)
    _sign_overrides: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        bad = {k: v for k, v in self.params.items() if not np.isfinite(v)}
        if bad:
            raise ConfigurationError(f"{self.name} parameters must be finite, got {bad}")
        if self.active_param not in self.params:
            raise ConfigurationError(
                f"active parameter {self.active_param!r} is not a parameter of "
                f"{self.name!r} (has {sorted(self.params)})"
            )

    def __repr__(self):
        ps = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"{self.name}({ps}; active={self.active_param})"

    def _check_radii(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise DomainError(f"potential evaluated at negative radius (family {self.name})")
        if np.any(r == 0) and self.origin_class.is_singular:
            raise DomainError(f"{self.name} is singular at r = 0")
        return r

    def evaluate(self, r):
        """V(r). Scalar in, scalar out; array in, array out.

        r = 0 is allowed only for regular families, where it returns the
        finite origin limit (needed by the d = 1 half-line machinery).
        """
        r = self._check_radii(r)
        out = np.asarray(self._value(self.params, np.where(r > 0, r, 1.0)), dtype=float)
        out = np.broadcast_to(out, r.shape)
        if np.any(r == 0):
            out = np.where(r == 0, self.origin_value(), out)
        return float(out) if out.ndim == 0 else out.copy()

    def param_derivative(self, r, param: str | None = None):
        """dV/d(param) at r; param defaults to the active parameter."""
        param = self.active_param if param is None else param
        try:
            dfun = self._derivs[param]
        except KeyError:
            raise ConfigurationError(
                f"family {self.name!r} has no registered derivative for {param!r}"
            ) from None
        r = self._check_radii(r)
        # r = 0 only reaches here for regular families; evaluate the analytic
        # derivative just inside the origin, where it equals its limit.
        safe_r = np.where(r > 0, r, 1e-300)
        out = np.broadcast_to(np.asarray(dfun(self.params, safe_r), dtype=float), r.shape)
        return float(out) if out.ndim == 0 else out.copy()

    def origin_value(self) -> float:
        """Finite limit of V at r -> 0+, defined for regular families only."""
        if self.origin_class.is_singular:
            raise DomainError(f"{self.name} has no finite origin value")
        if self._origin_value is None:
            raise ConfigurationError(f"{self.name} did not register an origin value")
        return float(self._origin_value(self.params))

    def length_scale(self, m: float = 1.0) -> float:
        """Characteristic radial extent; it only sets the range over which
        sign_hypothesis classifies the sign of dV/d(active)."""
        return float(self._scale(self.params, m))

    def with_params(self, **changes) -> "PotentialFamily":
        """New family with some parameter values replaced."""
        unknown = set(changes) - set(self.params)
        if unknown:
            raise ConfigurationError(f"{self.name} has no parameters {sorted(unknown)}")
        new = dict(self.params)
        new.update({k: float(v) for k, v in changes.items()})
        return self._rebuild(new, self.active_param)

    def with_active(self, active_param: str) -> "PotentialFamily":
        return self._rebuild(dict(self.params), active_param)


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def pure_coulomb(alpha: float, active: str = "alpha") -> PotentialFamily:
    """V(r) = -alpha/r, alpha > 0."""
    alpha = float(alpha)
    if not alpha > 0:
        raise ConfigurationError("pure-coulomb needs alpha > 0")

    def rebuild(params, act):
        return pure_coulomb(params["alpha"], active=act)

    return PotentialFamily(
        name="pure-coulomb",
        params={"alpha": alpha},
        active_param=active,
        origin_class=_singular(alpha),
        _value=lambda p, r: -p["alpha"] / r,
        _derivs={"alpha": lambda p, r: -1.0 / r},
        _rebuild=rebuild,
        _scale=lambda p, m: 1.0 / (m * p["alpha"]),
        _sign_overrides={"alpha": lambda p: SignClass.NON_POSITIVE},
    )


def cutoff_coulomb(alpha: float, a: float, active: str = "a") -> PotentialFamily:
    """V(r) = -alpha/(r + a), alpha > 0, a > 0: Coulombic tail, finite origin."""
    alpha, a = float(alpha), float(a)
    if not alpha > 0:
        raise ConfigurationError("cutoff-coulomb needs alpha > 0")
    if not a > 0:
        raise ConfigurationError("cutoff-coulomb needs a > 0")

    def rebuild(params, act):
        return cutoff_coulomb(params["alpha"], params["a"], active=act)

    return PotentialFamily(
        name="cutoff-coulomb",
        params={"alpha": alpha, "a": a},
        active_param=active,
        origin_class=_regular(),
        _value=lambda p, r: -p["alpha"] / (r + p["a"]),
        _derivs={
            "alpha": lambda p, r: -1.0 / (r + p["a"]),
            "a": lambda p, r: p["alpha"] / (r + p["a"]) ** 2,
        },
        _rebuild=rebuild,
        _scale=lambda p, m: p["a"] + 1.0 / (m * p["alpha"]),
        _origin_value=lambda p: -p["alpha"] / p["a"],
        _sign_overrides={
            "alpha": lambda p: SignClass.NON_POSITIVE,
            "a": lambda p: SignClass.NON_NEGATIVE,
        },
    )


_COUPLING_SHAPES = {
    # shape id -> (f(r; b), df/db(r; b), origin kind, f(0; b) or None, scale(b))
    "exp": (
        lambda r, b: -np.exp(-r / b),
        lambda r, b: -np.exp(-r / b) * r / b**2,
        "regular",
        lambda b: -1.0,
        lambda b: b,
    ),
    "cutoff": (
        lambda r, b: -1.0 / (r + b),
        lambda r, b: 1.0 / (r + b) ** 2,
        "regular",
        lambda b: -1.0 / b,
        lambda b: b,
    ),
    "yukawa": (
        lambda r, b: -np.exp(-b * r) / r,
        lambda r, b: np.exp(-b * r),
        "coulomb",
        None,
        lambda b: 1.0 / b,
    ),
}


def coupling(a: float, b: float = 1.0, shape: str = "exp", active: str = "a") -> PotentialFamily:
    """V(r) = a * f(r), a >= 0 a coupling strength, f a fixed negative shape."""
    a, b = float(a), float(b)
    if shape not in _COUPLING_SHAPES:
        raise ConfigurationError(
            f"unknown coupling shape {shape!r}; have {sorted(_COUPLING_SHAPES)}"
        )
    if a < 0:
        raise ConfigurationError("coupling needs a >= 0 (attractive convention)")
    if not b > 0:
        raise ConfigurationError("coupling needs b > 0")
    f, dfdb, origin_kind, f0, scale = _COUPLING_SHAPES[shape]

    if origin_kind == "coulomb" and a > 0:
        origin = _singular(a)
    else:
        origin = _regular()

    def rebuild(params, act):
        return coupling(params["a"], params["b"], shape=shape, active=act)

    return PotentialFamily(
        name=f"coupling[{shape}]",
        params={"a": a, "b": b},
        active_param=active,
        origin_class=origin,
        _value=lambda p, r: p["a"] * f(r, p["b"]),
        _derivs={
            "a": lambda p, r: f(r, p["b"]) + 0.0 * r,
            "b": lambda p, r: p["a"] * dfdb(r, p["b"]),
        },
        _rebuild=rebuild,
        _scale=lambda p, m: scale(p["b"]),
        _origin_value=(lambda p: p["a"] * f0(p["b"])) if f0 is not None else None,
        _sign_overrides={"a": lambda p: SignClass.NON_POSITIVE},
    )


def custom_family(
    name: str,
    value: Callable,
    derivs: dict,
    origin_class: OriginClass,
    params: dict,
    active: str,
    length_scale: Callable | None = None,
    origin_value: Callable | None = None,
    sign_overrides: dict | None = None,
) -> PotentialFamily:
    """Family from user callables value(params, r) and derivs[p](params, r).

    Mostly used in tests and for negative controls (e.g. indefinite-sign
    parameter derivatives the verdict machinery must refuse to certify).
    """
    params = {k: float(v) for k, v in params.items()}

    def rebuild(new_params, act):
        return custom_family(
            name, value, derivs, origin_class, new_params, act,
            length_scale=length_scale, origin_value=origin_value,
            sign_overrides=sign_overrides,
        )

    return PotentialFamily(
        name=name,
        params=params,
        active_param=active,
        origin_class=origin_class,
        _value=value,
        _derivs=dict(derivs),
        _rebuild=rebuild,
        _scale=length_scale if length_scale is not None else (lambda p, m: 1.0),
        _origin_value=origin_value,
        _sign_overrides=dict(sign_overrides or {}),
    )


def indefinite_demo(a: float = 1.0, active: str = "a") -> PotentialFamily:
    """Negative control: V = a (r-1) e^{-r}, whose dV/da changes sign at r = 1."""
    return custom_family(
        name="indefinite-demo",
        value=lambda p, r: p["a"] * (r - 1.0) * np.exp(-r),
        derivs={"a": lambda p, r: (r - 1.0) * np.exp(-r)},
        origin_class=_regular(),
        params={"a": a},
        active=active,
        origin_value=lambda p: -p["a"],
    )


def make_homotopy(v1: PotentialFamily, v2: PotentialFamily) -> PotentialFamily:
    """Linear interpolation family V(r, t) = (1-t) V1(r) + t V2(r), t in [0, 1].

    Its derivative with respect to t is V2 - V1, so a non-negative sign
    classification of the homotopy is exactly the pointwise order V1 <= V2.
    """
    s1 = v1.origin_class.strength if v1.origin_class.is_singular else 0.0
    s2 = v2.origin_class.strength if v2.origin_class.is_singular else 0.0

    def origin_for(t):
        s = (1.0 - t) * s1 + t * s2
        return _singular(s) if s > 0 else _regular()

    def value(p, r):
        t = p["t"]
        return (1.0 - t) * v1.evaluate(r) + t * v2.evaluate(r)

    def dvalue_dt(p, r):
        return v2.evaluate(r) - v1.evaluate(r)

    def origin_value(p):
        # only consulted for regular interpolants; a singular member can
        # still appear here with weight zero (at the opposite endpoint)
        t = p["t"]
        total = 0.0
        for weight, member in ((1.0 - t, v1), (t, v2)):
            if weight != 0.0:
                total += weight * member.origin_value()
        return total

    name = f"homotopy({v1.name}->{v2.name})"

    def build(t, act="t"):
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise DomainError("homotopy parameter t must lie in [0, 1]")
        return PotentialFamily(
            name=name,
            params={"t": t},
            active_param=act,
            origin_class=origin_for(t),
            _value=value,
            _derivs={"t": dvalue_dt},
            _rebuild=lambda params, a: build(params["t"], a),
            _scale=lambda p, m: max(v1.length_scale(m), v2.length_scale(m)),
            _origin_value=origin_value,
        )

    return build(0.0)


BUILTIN_FAMILIES = ("pure-coulomb", "cutoff-coulomb", "coupling", "indefinite-demo")


def make_family(name: str, params: dict, active: str | None = None,
                shape: str | None = None) -> PotentialFamily:
    """Construct a built-in family from its string id and a parameter map.

    This is the config/CLI entry point, e.g.
    make_family("cutoff-coulomb", {"alpha": 1.0, "a": 0.1}, active="a").
    """
    params = dict(params)
    try:
        if name == "pure-coulomb":
            return pure_coulomb(params.pop("alpha"), active=active or "alpha")
        if name == "cutoff-coulomb":
            return cutoff_coulomb(params.pop("alpha"), params.pop("a"),
                                  active=active or "a")
        if name == "coupling":
            return coupling(params.pop("a"), params.pop("b", 1.0),
                            shape=shape or "exp", active=active or "a")
        if name == "indefinite-demo":
            return indefinite_demo(params.pop("a", 1.0), active=active or "a")
    except KeyError as exc:
        raise ConfigurationError(f"family {name!r} is missing parameter {exc}") from None
    raise ConfigurationError(f"unknown potential family {name!r}")


# ---------------------------------------------------------------------------
# module-level operation views
# ---------------------------------------------------------------------------

def evaluate(family: PotentialFamily, r):
    """V(r) for the family's current parameters."""
    return family.evaluate(r)


def param_derivative(family: PotentialFamily, r, param: str | None = None):
    """Analytic dV/d(active param) at r."""
    return family.param_derivative(r, param)


def classify_sign(family: PotentialFamily, r_max: float = 50.0,
                  n_samples: int = 256, slack: float = 1e-14) -> SignClass:
    """Sign classification of dV/d(active param) over (0, r_max].

    Built-in families with an exact analytic classification short-circuit the
    sampling. Otherwise the derivative is sampled on a log-spaced grid from
    1e-6 * r_max to r_max; a uniform sign within +-slack wins, anything else
    is indefinite.
    """
    if n_samples < 64:
        raise ConfigurationError("classify_sign needs n_samples >= 64")
    if not (r_max > 0 and np.isfinite(r_max)):
        raise ConfigurationError(f"classify_sign needs a finite r_max > 0, got {r_max}")
    override = family._sign_overrides.get(family.active_param)
    if override is not None:
        return override(family.params)
    r = np.geomspace(1e-6 * r_max, r_max, n_samples)
    d = np.asarray(family.param_derivative(r), dtype=float)
    if np.all(d >= -slack):
        return SignClass.NON_NEGATIVE
    if np.all(d <= slack):
        return SignClass.NON_POSITIVE
    return SignClass.INDEFINITE


def sign_hypothesis(family: PotentialFamily, m: float) -> SignClass:
    """classify_sign over 50 length scales of the family at mass m: the sign
    of dV/d(active) that verify and compare take as their hypothesis."""
    return classify_sign(family, r_max=50.0 * family.length_scale(m))

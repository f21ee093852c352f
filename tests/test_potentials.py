"""Potential family values, analytic derivatives, and sign classification."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import diracmono as dm
from diracmono import potentials
from diracmono.errors import ConfigurationError, DomainError


def test_cutoff_value():
    fam = dm.cutoff_coulomb(1.0, 1.0)
    assert fam.evaluate(1.0) == pytest.approx(-0.5, abs=0)


def test_pure_coulomb_value():
    fam = dm.pure_coulomb(0.5)
    assert fam.evaluate(2.0) == pytest.approx(-0.25, abs=0)


def test_zero_coupling_is_zero_everywhere():
    fam = dm.coupling(0.0, shape="exp")
    r = np.geomspace(1e-3, 30, 50)
    assert np.all(fam.evaluate(r) == 0.0)


def test_param_derivative_examples():
    fam = dm.cutoff_coulomb(1.0, 1.0, active="a")
    assert fam.param_derivative(1.0) == pytest.approx(0.25, rel=1e-15)
    assert fam.param_derivative(1.0, "alpha") == pytest.approx(-0.5, rel=1e-15)
    cp = dm.coupling(2.0, shape="exp", active="a")
    assert cp.param_derivative(0.7) == pytest.approx(-math.exp(-0.7), rel=1e-14)


def _fd5(f, x, h):
    # 5-point central difference, 4th order
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


FAMILY_CASES = [
    ("pure-coulomb", {"alpha": 0.7}, "alpha", None),
    ("cutoff-coulomb", {"alpha": 1.3, "a": 0.4}, "alpha", None),
    ("cutoff-coulomb", {"alpha": 1.3, "a": 0.4}, "a", None),
    ("coupling", {"a": 1.7, "b": 0.8}, "a", "exp"),
    ("coupling", {"a": 1.7, "b": 0.8}, "b", "exp"),
    ("coupling", {"a": 0.9, "b": 1.6}, "a", "cutoff"),
    ("coupling", {"a": 0.9, "b": 1.6}, "b", "cutoff"),
    ("coupling", {"a": 1.1, "b": 0.6}, "a", "yukawa"),
    ("coupling", {"a": 1.1, "b": 0.6}, "b", "yukawa"),
]


@pytest.mark.parametrize("name,params,param,shape", FAMILY_CASES)
def test_analytic_derivative_matches_finite_difference(name, params, param, shape):
    fam = potentials.make_family(name, params, active=param, shape=shape)
    p0 = params[param]
    # sqrt-of-epsilon scaling applied twice: the 5-point stencil is 4th order,
    # so eps^(1/4) balances its truncation against roundoff
    h = np.finfo(float).eps ** 0.25 * max(1.0, abs(p0))
    for r in (0.13, 0.9, 3.7, 12.0):
        def val(p):
            return potentials.make_family(name, {**params, param: p},
                                          shape=shape).evaluate(r)
        fd = _fd5(val, p0, h)
        an = fam.param_derivative(r)
        assert an == pytest.approx(fd, rel=1e-8, abs=1e-12)


@given(alpha=st.floats(0.05, 3.0), a=st.floats(0.05, 4.0))
def test_cutoff_sign_classes_everywhere(alpha, a):
    fam = dm.cutoff_coulomb(alpha, a)
    assert dm.classify_sign(fam.with_active("a")) is dm.SignClass.NON_NEGATIVE
    assert dm.classify_sign(fam.with_active("alpha")) is dm.SignClass.NON_POSITIVE


def test_indefinite_shape_classified():
    fam = dm.indefinite_demo(1.0)
    assert dm.classify_sign(fam) is dm.SignClass.INDEFINITE


def test_classify_sign_sampling_path():
    # custom family without an exact override: still classified by sampling
    fam = dm.custom_family(
        "soft-well", lambda p, r: -p["g"] * np.exp(-r),
        {"g": lambda p, r: -np.exp(-r)},
        dm.OriginClass("regular"), {"g": 1.0}, "g",
        origin_value=lambda p: -p["g"],
    )
    assert dm.classify_sign(fam) is dm.SignClass.NON_POSITIVE


def test_classify_sign_needs_samples():
    with pytest.raises(ConfigurationError):
        dm.classify_sign(dm.pure_coulomb(0.5), n_samples=32)


@pytest.mark.parametrize("r_max", [0.0, -1.0, math.inf, math.nan])
def test_classify_sign_needs_a_finite_positive_r_max(r_max):
    # the b derivative of the exp coupling has no override, so r_max is sampled
    fam = dm.coupling(0.5, 1.0, "exp", active="b")
    with pytest.raises(ConfigurationError):
        dm.classify_sign(fam, r_max=r_max)


def test_homotopy_endpoints_and_derivative():
    v1 = dm.cutoff_coulomb(1.0, 0.5)
    v2 = dm.cutoff_coulomb(1.0, 1.0)
    hom = dm.make_homotopy(v1, v2)
    r = np.geomspace(1e-4, 40, 64)
    assert np.max(np.abs(hom.with_params(t=0.0).evaluate(r) - v1.evaluate(r))) == 0.0
    assert np.max(np.abs(hom.with_params(t=1.0).evaluate(r) - v2.evaluate(r))) == 0.0
    dv = hom.param_derivative(r)
    assert np.allclose(dv, v2.evaluate(r) - v1.evaluate(r), rtol=0, atol=0)


def test_homotopy_of_ordered_pair_is_nonnegative():
    # V2 - V1 = 1/(r+0.5) - 1/(r+1) > 0 pointwise
    v1 = dm.cutoff_coulomb(1.0, 0.5)
    v2 = dm.cutoff_coulomb(1.0, 1.0)
    hom = dm.make_homotopy(v1, v2)
    assert dm.classify_sign(hom) is dm.SignClass.NON_NEGATIVE


def test_homotopy_rejects_t_outside_unit_interval():
    hom = dm.make_homotopy(dm.cutoff_coulomb(1, 0.5), dm.cutoff_coulomb(1, 1))
    with pytest.raises(DomainError):
        hom.with_params(t=1.5)


def test_families_are_immutable_values():
    fam = dm.cutoff_coulomb(1.0, 1.0)
    with pytest.raises(Exception):
        fam.active_param = "alpha"
    fam2 = fam.with_params(a=2.0)
    assert fam.params["a"] == 1.0 and fam2.params["a"] == 2.0


def test_domain_errors():
    fam = dm.pure_coulomb(0.5)
    with pytest.raises(DomainError):
        fam.evaluate(-1.0)
    with pytest.raises(DomainError):
        fam.evaluate(0.0)  # singular at the origin
    reg = dm.cutoff_coulomb(1.0, 0.5)
    assert reg.evaluate(0.0) == pytest.approx(-2.0)  # finite origin limit


def test_unknown_family_and_missing_params():
    with pytest.raises(ConfigurationError):
        potentials.make_family("square-well", {"a": 1.0})
    with pytest.raises(ConfigurationError):
        potentials.make_family("cutoff-coulomb", {"alpha": 1.0})


def test_missing_derivative_registration_is_loud():
    fam = dm.custom_family(
        "bare", lambda p, r: -p["g"] / (r + 1.0), {},
        dm.OriginClass("regular"), {"g": 1.0}, "g",
        origin_value=lambda p: -p["g"],
    )
    with pytest.raises(ConfigurationError):
        fam.param_derivative(1.0)


def test_invalid_family_parameters():
    with pytest.raises(ConfigurationError):
        dm.pure_coulomb(-0.5)
    with pytest.raises(ConfigurationError):
        dm.cutoff_coulomb(1.0, 0.0)
    with pytest.raises(ConfigurationError):
        dm.coupling(1.0, b=-1.0)
    with pytest.raises(ConfigurationError):
        dm.coupling(1.0, shape="gauss")
    # non-finite parameters are refused by every constructor
    for build in (lambda v: dm.pure_coulomb(v), lambda v: dm.cutoff_coulomb(1.0, v),
                  lambda v: dm.cutoff_coulomb(v, 1.0), lambda v: dm.coupling(v),
                  lambda v: dm.coupling(1.0, b=v)):
        for bad in (math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                build(bad)


@given(r=st.floats(1e-3, 1e3))
def test_builtin_potentials_attractive_and_vanishing(r):
    fams = [dm.pure_coulomb(0.9), dm.cutoff_coulomb(1.2, 0.3),
            dm.coupling(2.0, 0.7, "exp"), dm.coupling(2.0, 0.7, "yukawa")]
    for fam in fams:
        v = fam.evaluate(r)
        assert v <= 0.0
        assert abs(fam.evaluate(1e6)) < 1e-5


def test_yukawa_origin_class_tracks_coupling():
    assert dm.coupling(2.0, 1.0, "yukawa").origin_class.is_singular
    assert dm.coupling(2.0, 1.0, "yukawa").origin_class.strength == 2.0
    assert not dm.coupling(0.0, 1.0, "yukawa").origin_class.is_singular


def test_family_repr_mentions_name_and_params():
    fam = dm.cutoff_coulomb(1.0, 0.25, active="a")
    s = repr(fam)
    assert "cutoff-coulomb" in s and "0.25" in s

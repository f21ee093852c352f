import pytest
from hypothesis import HealthCheck, settings

import diracmono as dm
from diracmono import monotonicity as mono
from diracmono.errors import NumericalError

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def channel_s():
    """d=3, tau=-1, j=1/2: the k = -1 channel."""
    return dm.ChannelSpec(d=3, tau=-1, j=0.5)


@pytest.fixture(scope="session")
def coulomb_half():
    return dm.pure_coulomb(0.5)


@pytest.fixture(scope="session")
def coulomb_ground(channel_s, coulomb_half):
    """Solved alpha = 0.5 Coulomb ground state, reused across tests."""
    return dm.solve(channel_s, coulomb_half, 0)


@pytest.fixture(scope="session")
def cutoff_family():
    return dm.cutoff_coulomb(1.0, 0.5, active="a")


@pytest.fixture(scope="session")
def cutoff_ground(channel_s, cutoff_family):
    return dm.solve(channel_s, cutoff_family, 0)


def assert_close(actual, expected, tol, label=""):
    __tracebackhide__ = True
    if abs(actual - expected) > tol:
        raise AssertionError(
            f"{label or 'value'}: {actual!r} differs from {expected!r} "
            f"by {abs(actual - expected):.3e} > {tol:.1e}"
        )


def point_by_point(monkeypatch):
    """Refuse every batch of more than one stencil, so that sweeps take their
    point-by-point path (the per-point solves of the unbatched code)."""
    batched = mono._stencils

    def one_point_only(family, channel, n_r, a_points, h, config):
        if len(a_points) > 1:
            raise NumericalError("batch refused: point-by-point reference")
        return batched(family, channel, n_r, a_points, h, config)

    monkeypatch.setattr(mono, "_stencils", one_point_only)

import pytest

from clustertube.tube import Indec, MaximalRigid, Tube
from clustertube.endo import build_endomorphism_algebra
from clustertube.ccmap import CCMap


@pytest.fixture(scope="session")
def tube2():
    return Tube(2)


@pytest.fixture(scope="session")
def tube3():
    return Tube(3)


@pytest.fixture(scope="session")
def linear_t(tube3):
    """The stack over position 1: wing quiver with a loop at the long end."""
    return MaximalRigid(tube3, (Indec(1, 3), Indec(1, 2), Indec(1, 1)))


@pytest.fixture(scope="session")
def cyclic_t(tube3):
    """The object whose quiver is the oriented three-cycle with a loop."""
    return MaximalRigid(tube3, (Indec(1, 3), Indec(3, 1), Indec(1, 1)))


def checked_algebra(t):
    """End(T) with its associativity and relations verified."""
    algebra = build_endomorphism_algebra(t)
    algebra.verify_associativity()
    algebra.verify_relations()
    return algebra


@pytest.fixture(scope="session")
def cyclic_algebra(cyclic_t):
    return checked_algebra(cyclic_t)


@pytest.fixture(scope="session")
def linear_algebra(linear_t):
    return checked_algebra(linear_t)


@pytest.fixture(scope="session")
def cyclic_cc(cyclic_t, cyclic_algebra):
    return CCMap(cyclic_t, algebra=cyclic_algebra)

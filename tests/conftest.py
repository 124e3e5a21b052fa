import numpy as np
import pytest

from conformal.catalog import make_helcat, make_torus, make_tube


def jet_vectors(jet):
    """The six 3-vectors r, r_u, r_v, r_uu, r_uv, r_vv of a flat jet (18
    entries, x, y, z of each).  At arrays of points each vector is
    (3, ...), its constant entries broadcast to the points' shape."""
    flat = np.array(np.broadcast_arrays(*jet))
    return [flat[k:k + 3] for k in range(0, 18, 3)]


@pytest.fixture(scope="session")
def helcat_quarter():
    return make_helcat(np.pi/4)


@pytest.fixture(scope="session")
def helicoid():
    return make_helcat(0.0)


@pytest.fixture(scope="session")
def catenoid():
    return make_helcat(np.pi/2)


@pytest.fixture(scope="session")
def torus():
    return make_torus(2.0, 1.0)


@pytest.fixture(scope="session")
def helical_tube():
    return make_tube(("helix", 2.0, 0.5), 0.35)

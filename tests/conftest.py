import numpy as np
import pytest
from hypothesis import strategies as st

from conformal.catalog import make_helcat, make_torus, make_tube
from conformal.surfaces import MobiusMap


def jet_vectors(jet):
    """The six 3-vectors r, r_u, r_v, r_uu, r_uv, r_vv of a flat jet (18
    entries, x, y, z of each).  At arrays of points each vector is
    (3, ...), its constant entries broadcast to the points' shape."""
    flat = np.array(np.broadcast_arrays(*jet))
    return [flat[k:k + 3] for k in range(0, 18, 3)]


_COORD = st.floats(-3.0, 3.0)
MOBIUS_PRIMITIVE = st.one_of(
    st.tuples(st.just("rotation"),
              st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9)),
    st.tuples(st.just("translation"), st.tuples(_COORD, _COORD, _COORD)),
    st.tuples(st.just("dilation"), st.floats(-1.0, 1.0)),
    st.tuples(st.just("inversion"), st.none()))


def compose_mobius(spec):
    """The map of a list of ``MOBIUS_PRIMITIVE`` draws, left to right."""
    m = MobiusMap(())
    for kind, arg in spec:
        if kind == "rotation":
            # orthonormal factor of a perturbed identity; either determinant
            q, _ = np.linalg.qr(np.reshape(arg, (3, 3)) + 2*np.eye(3))
            m = m.then(MobiusMap.rotation(q))
        elif kind == "translation":
            m = m.then(MobiusMap.translation(arg))
        elif kind == "dilation":
            m = m.then(MobiusMap.dilation(3.0**arg))
        else:
            m = m.then(MobiusMap.inversion())
    return m


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

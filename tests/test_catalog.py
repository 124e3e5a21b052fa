import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

from conftest import MOBIUS_PRIMITIVE, compose_mobius, jet_vectors
from conformal.catalog import (make_canonical, make_graph, make_helcat,
                               make_sphere, make_torus, make_tube)
from conformal.errors import (CanalPoint, InversionCenterOnSurface,
                              SelfIntersectingTube)
from conformal.invariants import (invariant_sample, psi_invariant,
                                  theta_state, xi_theta_derivs)
from conformal.osculation import osculating_cyclide
from conformal.surfaces import mobius_transform
from reference import isothermic_residual, sympy_patch

_U, _V = sp.symbols("u v", real=True)
_PTS = [(-2.0, 0.0), (-1.0, 1.3), (-0.3, 3.0), (0.5, 0.0), (1.5, 1.3),
        (2.0, 3.0)]


@pytest.mark.parametrize("alpha", [0.0, np.pi/6, np.pi/4, np.pi/3, np.pi/2])
def test_family_oracles(alpha):
    e = make_helcat(alpha)
    for (s, t) in _PTS:
        t1, t2, *_ = theta_state(e.surface, s, t)
        assert abs(abs(t1) - abs(e.oracle["theta1"](s))) < 1e-6
        assert abs(abs(t2) - abs(e.oracle["theta2"](s))) < 1e-6
        p = psi_invariant(e.surface, s, t)
        assert abs(p - e.oracle["psi"](s)) < 1e-4


@pytest.mark.parametrize("alpha", [0.0, np.pi/4, np.pi/3])
def test_family_constant_theta_ratio(alpha):
    e = make_helcat(alpha)
    kap = e.oracle["kappa"]()
    rats = []
    for (s, t) in _PTS:
        if abs(np.sinh(s)) < 0.1:
            continue
        t1, t2, *_ = theta_state(e.surface, s, t)
        rats.append(abs(t1/t2))
    rats = np.array(rats)
    assert abs(rats.mean() - kap) < 1e-8
    assert rats.std()/max(rats.mean(), 1e-12) < 1e-6


def test_catenoid_theta1_vanishes(catenoid):
    for (s, t) in [(0.8, 0.2), (-1.5, 2.0)]:
        t1, t2, *_ = theta_state(catenoid.surface, s, t)
        assert abs(t1/t2) < 1e-9
        # no osculating cyclide, numerically or in closed form
        with pytest.raises(CanalPoint):
            osculating_cyclide(catenoid.surface, s, t)
        with pytest.raises(CanalPoint):
            catenoid.oracle["psi_c"](s)


def test_torus_flags_and_thetas(torus):
    for (u, v) in [(0.5, 0.8), (-1.0, 2.0)]:
        t1, t2, *_ = theta_state(torus.surface, u, v)
        assert abs(t1) < 1e-6 and abs(t2) < 1e-6


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(ratio=st.floats(1.01, 5.0), r=st.floats(0.2, 2.0),
       u=st.floats(-3.0, 3.0), v=st.floats(-3.0, 3.0),
       spec=st.lists(MOBIUS_PRIMITIVE, max_size=3))
@example(ratio=2.0, r=1.0, u=0.5, v=0.8,
         spec=[("translation", (0.0, 0.0, 5.0)), ("inversion", None)])
def test_torus_oracles_under_random_mobius_maps(ratio, r, u, v, spec):
    # a Dupin cyclide: psi = 4 r^2/R^2 - 2, negated by an orientation-
    # reversing map (psi = -1 on torus(2, 1) reads +1 through the
    # translated inversion), a..d = (3, 0, 0, -3), and both thetas vanish
    R = ratio*r
    e = make_torus(R, r)
    m = compose_mobius(spec)
    try:
        moved = mobius_transform(e.surface, m)
    except InversionCenterOnSurface:
        return
    samp = invariant_sample(moved, u, v)
    psi = 4*r*r/(R*R) - 2
    assert e.oracle["psi"](u) == pytest.approx(psi, rel=1e-15)
    if not m.orientation_preserving:
        psi = -psi
    assert abs(samp.psi - psi) < 1e-8*max(1.0, abs(psi))
    for k, want in zip("abcd", (3.0, 0.0, 0.0, -3.0)):
        assert e.oracle[k](u) == want
        assert abs(getattr(samp, k) - want) < 1e-8
    assert samp.classification == "Dupin"


def test_tube_flags_and_thetas(helical_tube):
    t1, t2, *_ = theta_state(helical_tube.surface, 0.5, 1.2)
    assert abs(t1) < 1e-6
    assert abs(t2) > 1e-3
    # the tube around a circle is a torus, a Dupin cyclide
    t1, t2, *_ = theta_state(make_tube(("circle", 2.0), 0.5).surface, 0.5, 1.2)
    assert abs(t1) < 1e-6 and abs(t2) < 1e-6


def test_tube_rejects_self_intersection():
    with pytest.raises(SelfIntersectingTube):
        make_tube(("circle", 2.0), 2.5)
    with pytest.raises(SelfIntersectingTube):
        make_tube(("helix", 2.0, 0.5), 2.2)   # 1/curv_max = 2.125
    with pytest.raises(ValueError):
        make_tube(("circle", 2.0), -0.1)


def test_graph_window():
    e = make_graph({(2, 0): 0.5, (0, 2): -0.5}, window=0.7)
    assert e.surface.domain[0] == (-0.7, 0.7)
    p = e.surface.point(0.1, 0.2)
    assert np.allclose(p, [0.1, 0.2, 0.005 - 0.02])


def test_canonical_recovers_invariants():
    vals = (1.0, 2.0, 0.0, 3.5, 0.25, -0.5, -3.25)
    e = make_canonical(*vals)
    samp = invariant_sample(e.surface, 0.0, 0.0)
    assert abs(samp.theta1 - vals[0]) < 1e-8
    assert abs(samp.theta2 - vals[1]) < 1e-8
    assert np.allclose([samp.a, samp.b, samp.c, samp.d],
                       [vals[3], vals[4], vals[5], vals[6]], atol=1e-8)


def test_canonical_psi_offset_identity():
    # the field-based fourth-order invariant differs from the plugged-in
    # normal-form value by xi1(theta1) + xi2(theta2) at the origin; verify
    # the identity with the derivative machinery itself
    vals = (1.0, 2.0, 0.0, 3.5, 0.25, -0.5, -3.25)
    e = make_canonical(*vals)
    samp = invariant_sample(e.surface, 0.0, 0.0)
    xt, *_ = xi_theta_derivs(e.surface, 0.0, 0.0)
    offset = xt[(1, 1)] + xt[(2, 2)]
    assert abs(samp.psi - vals[2] - offset) < 1e-6


def test_canonical_rejects_nonfinite():
    with pytest.raises(ValueError):
        make_canonical(1.0, np.nan, 0.0, 0.0, 0.0, 0.0, 0.0)


def _isothermic(entry, pts):
    return all(abs(isothermic_residual(entry.surface, u, v)) < 1e-4
               for u, v in pts)


def test_isothermic_verdicts(catenoid, helcat_quarter, torus):
    pts = [(0.7, 0.4), (1.2, 1.0), (-0.9, 2.0)]
    assert _isothermic(catenoid, pts)
    # every member of the family is isothermic (curvature-line coordinates
    # admit a conformal rescaling), not just the rotational one
    assert _isothermic(helcat_quarter, pts)
    assert _isothermic(torus, [(0.5, 0.8), (1.0, 2.0)])


def test_isothermic_check_fails_off_the_isothermic_class():
    # a generic canonical graph has no conformal curvature-line coordinates:
    # its residual is 0.06-0.26 at every sample, far above the 1e-4 bound
    e = make_canonical(1.0, 2.0, 0.0, 3.5, 0.25, -0.5, -3.25)
    pts = [(0.05, -0.1), (0.1, 0.1), (0.2, 0.15)]
    assert all(abs(isothermic_residual(e.surface, *p)) > 0.05 for p in pts)


def _center_curve(curve):
    """Sympy center curve, ('circle', R) or ('helix', A, B) with A > 0, and
    the closed-form Frenet frame ``make_tube`` writes out.  With a, b =
    (A, B)/sqrt(A^2 + B^2), or a, b = 1, 0 for the circle:
    T = (-a sin u, a cos u, b), N = (-cos u, -sin u, 0) and
    B = (b sin u, -b cos u, a)."""
    u = _U
    if curve[0] == "circle":
        R = float(curve[1])
        c = sp.Matrix([R*sp.cos(u), R*sp.sin(u), 0])
        a, b = 1.0, 0.0
    else:
        A, Bp = float(curve[1]), float(curve[2])
        c = sp.Matrix([A*sp.cos(u), A*sp.sin(u), Bp*u])
        norm = float(np.sqrt(A*A + Bp*Bp))
        a, b = A/norm, Bp/norm
    frame = (sp.Matrix([-a*sp.sin(u), a*sp.cos(u), b]),
             sp.Matrix([-1.0*sp.cos(u), -1.0*sp.sin(u), 0]),
             sp.Matrix([b*sp.sin(u), -b*sp.cos(u), a]))
    return u, c, frame


@pytest.mark.parametrize("curve", [("circle", 3.0), ("circle", 0.4),
                                   ("helix", 2.0, 0.5), ("helix", 1.0, 1.0),
                                   ("helix", 0.7, -1.3)])
def test_closed_form_frames_are_frenet(curve):
    # T = c'/|c'|, N = T'/|T'|, B = T x N, each against the closed form
    u, c, (T, N, B) = _center_curve(curve)
    f = sp.lambdify(u, [c.diff(u), T, T.diff(u), N, B], "numpy")
    for x in np.random.default_rng(3).uniform(-10.0, 10.0, 25):
        dc, t, dt, n, b = (np.asarray(m, dtype=float).ravel() * np.ones(3)
                           for m in f(x))
        assert np.allclose(t, dc/np.linalg.norm(dc), rtol=0, atol=1e-14)
        assert np.allclose(n, dt/np.linalg.norm(dt), rtol=0, atol=1e-14)
        assert np.allclose(b, np.cross(t, n), rtol=0, atol=1e-14)


# --------------------------------------------------------------------------
# closed-form jets against a sympy compile of the same position map
# --------------------------------------------------------------------------
def _helcat_expr(alpha):
    ca, sa = sp.cos(alpha), sp.sin(alpha)
    return [ca*sp.sinh(_U)*sp.sin(_V) + sa*sp.cosh(_U)*sp.cos(_V),
            -ca*sp.sinh(_U)*sp.cos(_V) + sa*sp.cosh(_U)*sp.sin(_V),
            sa*_U + ca*_V]


def _torus_expr(R, r):
    return [(R + r*sp.cos(_V))*sp.cos(_U), (R + r*sp.cos(_V))*sp.sin(_U),
            r*sp.sin(_V)]


def _sphere_expr(rad):
    return [rad*sp.cos(_U)*sp.cos(_V), rad*sp.sin(_U)*sp.cos(_V),
            rad*sp.sin(_V)]


def _tube_expr(curve, radius):
    _, c, (_, N, B) = _center_curve(curve)
    return c + radius*(sp.cos(_V)*N + sp.sin(_V)*B)


def _graph_expr(poly):
    return [_U, _V, sum(c*_U**i*_V**j for (i, j), c in poly.items())]


def _close(got, want):
    # 1e-12 of each entry's scale
    assert np.all(np.abs(got - want) <= 1e-12*np.maximum(1.0, np.abs(want)))


def _check_jet(entry, expr, points):
    """The entry's jet against a sympy_patch compile of ``expr``: at real
    points, at complex steps in u and in v (imaginary parts over h), and as
    one array call against a loop of scalar calls."""
    oracle = sympy_patch(sp.Matrix(expr), (_U, _V), entry.surface.domain)

    def jet(u, v):
        return jet_vectors(entry.surface.jet_raw(u, v))

    def ref(u, v):
        return jet_vectors(oracle.jet_raw(u, v))

    h = 1e-20
    for u, v in points:
        for got, want in zip(jet(u, v), ref(u, v)):
            assert got.shape == (3,) and not np.iscomplexobj(got)
            _close(got, np.asarray(want, dtype=float))
        for du, dv in ((1j*h, 0.0), (0.0, 1j*h)):
            for got, want in zip(jet(u + du, v + dv), ref(u + du, v + dv)):
                want = np.asarray(want, dtype=complex)
                _close(got.real, want.real)
                _close(got.imag/h, want.imag/h)
    us, vs = np.array(points).T
    batch = jet(us, vs)
    for k, (u, v) in enumerate(points):
        for got, want in zip(batch, jet(u, v)):
            assert got.shape == (3, len(points))
            _close(got[:, k], want)


def _points(domain, n=3):
    (u0, u1), (v0, v1) = domain
    return st.lists(st.tuples(st.floats(u0, u1), st.floats(v0, v1)),
                    min_size=n, max_size=n)


_JET_SETTINGS = settings(max_examples=12, derandomize=True, database=None,
                         deadline=None)


@_JET_SETTINGS
@given(alpha=st.floats(0.0, np.pi/2), pts=_points([(-3, 3), (-7, 7)]))
def test_helcat_jet_matches_sympy(alpha, pts):
    _check_jet(make_helcat(alpha), _helcat_expr(alpha), pts)


@_JET_SETTINGS
@given(R=st.floats(0.2, 5.0), frac=st.floats(0.05, 0.95),
       pts=_points([(-np.pi, np.pi)]*2))
def test_torus_jet_matches_sympy(R, frac, pts):
    _check_jet(make_torus(R, frac*R), _torus_expr(R, frac*R), pts)


@_JET_SETTINGS
@given(rad=st.floats(0.1, 5.0), pts=_points([(-np.pi, np.pi), (-1.4, 1.4)]))
def test_sphere_jet_matches_sympy(rad, pts):
    _check_jet(make_sphere(rad), _sphere_expr(rad), pts)


@_JET_SETTINGS
@given(A=st.floats(0.2, 5.0), pitch=st.floats(-3.0, 3.0),
       circle=st.booleans(), frac=st.floats(0.05, 0.95),
       pts=_points([(-10, 10)]*2))
@example(A=2.0, pitch=-0.5, circle=False, frac=0.5,
         pts=[(0.5, 1.0), (-7.0, 3.0), (9.0, -9.5)])
@example(A=2.0, pitch=0.0, circle=True, frac=0.25,
         pts=[(0.5, 1.0), (-7.0, 3.0), (9.0, -9.5)])
def test_tube_jet_matches_sympy(A, pitch, circle, frac, pts):
    # circles, and helices of either handedness; the radius stays below the
    # center curve's curvature radius (A^2 + B^2)/A
    curve = ("circle", A) if circle else ("helix", A, pitch)
    radius = frac*(A if circle else (A*A + pitch*pitch)/A)
    _check_jet(make_tube(curve, radius), _tube_expr(curve, radius), pts)


@_JET_SETTINGS
@given(poly=st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(
        lambda ij: sum(ij) <= 5), st.floats(-3.0, 3.0), min_size=1,
    max_size=6), pts=_points([(-1, 1)]*2))
def test_graph_jet_matches_sympy(poly, pts):
    _check_jet(make_graph(poly), _graph_expr(poly), pts)


@_JET_SETTINGS
@given(vals=st.lists(st.floats(-5.0, 5.0), min_size=7, max_size=7),
       pts=_points([(-0.4, 0.4)]*2))
def test_canonical_jet_matches_sympy(vals, pts):
    e = make_canonical(*vals)
    _check_jet(e, _graph_expr(e.params["poly"]), pts)

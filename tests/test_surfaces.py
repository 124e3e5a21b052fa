import numpy as np
import pytest
import sympy as sp

from conformal.errors import (InversionCenterOnSurface, OrderUnavailable,
                              OutOfDomain, UmbilicPoint)
from conformal.surfaces import (MobiusMap, SurfacePatch, eval_jet,
                                mobius_transform, principal_data)


def _sphere(radius=1.0):
    u, v = sp.symbols("u v", real=True)
    expr = sp.Matrix([radius*sp.cos(u)*sp.cos(v),
                      radius*sp.sin(u)*sp.cos(v),
                      radius*sp.sin(v)])
    return SurfacePatch.from_sympy(expr, (u, v),
                                   [(-np.pi, np.pi), (-1.4, 1.4)])


def test_analytic_vs_numeric_jets(helcat_quarter):
    s = helcat_quarter.surface

    def fn(u, v):
        return s.position(u, v)

    numeric = SurfacePatch.from_position(fn, s.domain, h_jet=1e-4)
    ja = eval_jet(s, 0.5, 0.3, 2)
    jn = eval_jet(numeric, 0.5, 0.3, 2)
    for key in ja.derivs:
        assert np.allclose(ja.derivs[key], jn.derivs[key], atol=5e-7)


def test_jet_domain_and_order_checks(helcat_quarter):
    s = helcat_quarter.surface
    with pytest.raises(OutOfDomain):
        eval_jet(s, 100.0, 0.0, 2)
    with pytest.raises(OrderUnavailable):
        eval_jet(s, 0.5, 0.3, s.max_order + 1)


def test_torus_principal_curvatures(torus):
    R, r = 2.0, 1.0
    for (u, v) in [(0.3, 0.5), (1.0, 2.0), (-1.2, -0.7)]:
        pd = principal_data(eval_jet(torus.surface, u, v, 2))
        want = sorted([1.0/r, np.cos(v)/(R + r*np.cos(v))],
                      key=abs)
        got = sorted([pd.k1, pd.k2], key=abs)
        assert np.allclose(np.abs(got), np.abs(want), atol=1e-10)
        assert abs(abs(pd.K) - abs(want[0]*want[1])) < 1e-10


def test_sphere_is_umbilic():
    s = _sphere(2.0)
    with pytest.raises(UmbilicPoint):
        principal_data(eval_jet(s, 0.3, 0.2, 2))


def test_principal_directions_metric_unit(helcat_quarter):
    j = eval_jet(helcat_quarter.surface, 0.7, 0.4, 2)
    pd = principal_data(j)
    ru, rv = j.d(1, 0), j.d(0, 1)
    for X in (pd.X1, pd.X2):
        amb = X[0]*ru + X[1]*rv
        assert abs(np.linalg.norm(amb) - 1.0) < 1e-10
    amb1 = pd.X1[0]*ru + pd.X1[1]*rv
    amb2 = pd.X2[0]*ru + pd.X2[1]*rv
    assert abs(amb1 @ amb2) < 1e-10


def test_mobius_composition_and_inverse():
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th), 0.0],
                    [np.sin(th), np.cos(th), 0.0],
                    [0.0, 0.0, 1.0]])
    m = (MobiusMap.rotation(rot)
         .then(MobiusMap.translation([0.5, -0.2, 1.0]))
         .then(MobiusMap.dilation(3.0))
         .then(MobiusMap.inversion()))
    x = np.array([0.3, 1.2, -0.7])
    y = m.apply(x)
    back = m.inverse().apply(y)
    assert np.allclose(back, x, atol=1e-12)
    xs = sp.Matrix([sp.Rational(3, 10), sp.Rational(12, 10),
                    sp.Rational(-7, 10)])
    ys = np.array([float(t) for t in _apply_sympy(m, xs)])
    assert np.allclose(ys, y, atol=1e-12)


def _apply_sympy(mmap, x):
    """Reference: the map composed symbolically, primitive by primitive."""
    y = sp.Matrix(x)
    for prim in mmap.primitives:
        if prim[0] == "rotation":
            y = sp.Matrix(prim[1]) * y
        elif prim[0] == "translation":
            y = y + sp.Matrix(prim[1])
        elif prim[0] == "dilation":
            y = prim[1] * y
        else:
            y = y / y.dot(y)
    return y


_TORUS_DOMAIN = [(-np.pi, np.pi), (-np.pi, np.pi)]


def _torus_expr():
    u, v = sp.symbols("u v", real=True)
    return sp.Matrix([(2 + sp.cos(v))*sp.cos(u), (2 + sp.cos(v))*sp.sin(u),
                      sp.sin(v)]), (u, v)


@pytest.mark.parametrize("kind", ["rotation", "reflection", "translation",
                                  "dilation", "inversion", "composition"])
def test_moved_jets_match_sympy_recompile(kind):
    expr, uv = _torus_expr()
    th = 0.9
    rot = MobiusMap.rotation([[np.cos(th), 0.0, -np.sin(th)], [0.0, 1.0, 0.0],
                              [np.sin(th), 0.0, np.cos(th)]])
    m = {"rotation": rot,
         "reflection": MobiusMap.rotation(np.diag([1.0, -1.0, 1.0])),
         "translation": MobiusMap.translation([0.5, -1.0, 4.0]),
         "dilation": MobiusMap.dilation(2.5),
         "inversion": MobiusMap.inversion(),
         "composition": (rot.then(MobiusMap.translation([0.5, -1.0, 4.0]))
                         .then(MobiusMap.inversion())
                         .then(MobiusMap.rotation(np.diag([1.0, -1.0, 1.0])))
                         .then(MobiusMap.dilation(2.5))
                         .then(MobiusMap.translation([1.0, 0.0, -0.5])))
         }[kind]
    moved = mobius_transform(SurfacePatch.from_sympy(expr, uv, _TORUS_DOMAIN),
                             m)
    ref = SurfacePatch.from_sympy(_apply_sympy(m, expr), uv, _TORUS_DOMAIN)
    rng = np.random.default_rng(11)
    h = 1e-20
    for u, v in rng.uniform(-3.0, 3.0, (8, 2)):
        for du, dv in [(0.0, 0.0), (1j*h, 0.0), (0.0, 1j*h)]:
            got = moved.jet_raw(u + du, v + dv)
            want = ref.jet_raw(u + du, v + dv)
            assert got.keys() == want.keys()
            for key in want:
                scale = max(np.max(np.abs(want[key])), 1.0)
                assert np.allclose(got[key].real, want[key].real,
                                   rtol=0, atol=1e-12*scale)
                assert np.allclose(got[key].imag/h, want[key].imag/h,
                                   rtol=0, atol=1e-10*scale)


def test_mobius_transform_moves_positions(torus):
    m = MobiusMap.translation([0.0, 0.0, 5.0]).then(MobiusMap.inversion())
    moved = mobius_transform(torus.surface, m)
    for (u, v) in [(0.3, 0.4), (1.0, -1.0)]:
        assert np.allclose(moved.position(u, v),
                           m.apply(torus.surface.position(u, v)), atol=1e-10)


def test_inversion_center_on_surface_rejected(torus):
    # center at a surface point of the torus
    p = torus.surface.position(0.0, 0.0)
    m = MobiusMap.translation(-p).then(MobiusMap.inversion())
    with pytest.raises(InversionCenterOnSurface):
        mobius_transform(torus.surface, m)

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from conftest import MOBIUS_PRIMITIVE, compose_mobius, jet_vectors
from conformal.catalog import (make_canonical, make_graph, make_helcat,
                               make_sphere, make_torus, make_tube)
from conformal.errors import (DegenerateMetric, InversionCenterOnSurface,
                              UmbilicPoint)
from conformal.invariants import _curv_grads, invariant_sample, theta_state
from conformal.surfaces import (MobiusMap, SurfacePatch,
                                _check_inversion_centers, _forms, _jet_forms,
                                _require_frame, mobius_transform,
                                principal_directions, shape_data)
from reference import (check_inversion_centers_pointwise, push_jet,
                       sympy_patch)


def _sphere(radius=1.0):
    u, v = sp.symbols("u v", real=True)
    expr = sp.Matrix([radius*sp.cos(u)*sp.cos(v),
                      radius*sp.sin(u)*sp.cos(v),
                      radius*sp.sin(v)])
    return sympy_patch(expr, (u, v), [(-np.pi, np.pi), (-1.4, 1.4)])


# each a map of the sphere of radius R; the translation scales with R, so
# the inversion center stays off the sphere
_SPHERE_MOVES = {
    "none": lambda R: MobiusMap(()),
    "translated-inversion": lambda R: MobiusMap.translation(
        [0.5*R, -R, 2.0*R]).then(MobiusMap.inversion()),
    "rotation-dilation": lambda R: MobiusMap.rotation(
        [[np.cos(0.9), 0.0, -np.sin(0.9)], [0.0, 1.0, 0.0],
         [np.sin(0.9), 0.0, np.cos(0.9)]]).then(MobiusMap.dilation(7.0)),
}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.sampled_from([0.01, 0.7, 1.0, 3.0, 100.0]),
       st.sampled_from(list(_SPHERE_MOVES)), st.floats(-np.pi, np.pi),
       st.floats(-1.4, 1.4))
def test_sphere_points_are_umbilic(radius, move, u, v):
    # the roundoff in H^2 - K, about eps k^2, puts mu's floor near
    # sqrt(eps) |k| = 1.5e-8 |k|: the umbilic tolerance must lie above it,
    # at every radius and after a Mobius map
    s = mobius_transform(make_sphere(radius).surface,
                         _SPHERE_MOVES[move](radius))
    with pytest.raises(UmbilicPoint):
        _require_frame(shape_data(s.jet_raw(u, v)))


def test_torus_principal_curvatures(torus):
    R, r = 2.0, 1.0
    for (u, v) in [(0.3, 0.5), (1.0, 2.0), (-1.2, -0.7)]:
        S = shape_data(torus.surface.jet_raw(u, v))
        _require_frame(S)
        want = sorted([1.0/r, np.cos(v)/(R + r*np.cos(v))],
                      key=abs)
        got = sorted([S["k1"], S["k2"]], key=abs)
        assert np.allclose(np.abs(got), np.abs(want), atol=1e-10)
        assert abs(abs(S["k1"]*S["k2"]) - abs(want[0]*want[1])) < 1e-10


def test_umbilic_test_does_not_depend_on_scale():
    # a dilation leaves the thetas, psi and the class where they were: only
    # the planar point and the spheres, at any radius, are umbilic
    helcat = make_helcat(np.pi/4).surface
    base = invariant_sample(helcat, 0.8, 0.5)
    for s in (1e-7, 1.0, 1e7, 1e12):
        got = invariant_sample(
            mobius_transform(helcat, MobiusMap.dilation(s)), 0.8, 0.5)
        assert got.classification == "Generic"
        for name in ("theta1", "theta2", "psi"):
            assert abs(getattr(got, name) - getattr(base, name)) <= 1e-10
    for entry in (make_graph({}), make_sphere(1e-7), make_sphere(1e7)):
        with pytest.raises(UmbilicPoint):
            _require_frame(shape_data(entry.surface.jet_raw(0.1, 0.2)))


def test_sphere_is_umbilic():
    s = _sphere(2.0)
    with pytest.raises(UmbilicPoint):
        _require_frame(shape_data(s.jet_raw(0.3, 0.2)))


def test_principal_directions_metric_unit(helcat_quarter):
    j = helcat_quarter.surface.jet_raw(0.7, 0.4)
    X1, X2 = principal_directions(shape_data(j))
    _, ru, rv, *_ = jet_vectors(j)
    for X in (X1, X2):
        amb = X[0]*ru + X[1]*rv
        assert abs(np.linalg.norm(amb) - 1.0) < 1e-10
    amb1 = X1[0]*ru + X1[1]*rv
    amb2 = X2[0]*ru + X2[1]*rv
    assert abs(amb1 @ amb2) < 1e-10


@pytest.mark.parametrize("w01", [3e-17, -3e-17, 0.0])
def test_direction_sign_ignores_a_roundoff_component(w01):
    # shape operator [[-1, w01], [0, 1]] in an orthonormal parameter frame:
    # X1 = (w01/2, 1) to first order, so its u component is w01's roundoff
    S = dict(w=(-1.0, w01, 0.0, 1.0), k1=1.0, k2=-1.0, E=1.0, F=0.0, G=1.0)
    X1, X2 = principal_directions(S)
    assert X1[1] > 0 and X2[0] > 0
    # a u component above the roundoff floor still sets the sign
    for big in (1e-6, -1e-6):
        X1, _ = principal_directions(dict(S, w=(-1.0, big, 0.0, 1.0)))
        assert X1[0] > 0


@pytest.mark.parametrize("seed", [(0.5, 1.2), (1.5, 2.5), (-2.0, 0.7)])
def test_tube_x1_points_along_plus_v(helical_tube, seed):
    # X1 is parallel to the v axis on the helix tube; its u component is
    # roundoff of either sign (1.5e-17 in size at (1.5, 2.5))
    X1, _ = principal_directions(shape_data(
        helical_tube.surface.jet_raw(*seed)))
    assert abs(X1[0]) <= 1e-12*abs(X1[1])
    assert X1[1] > 0


def test_mobius_map_rejects_bad_inputs():
    for s in (np.inf, np.nan, 0.0, -2.0):
        with pytest.raises(ValueError):
            MobiusMap.dilation(s)
    for t in (1.0, [1.0, np.nan, 0.0], [np.inf, 0.0, 0.0], [1.0, 2.0],
              [[1.0, 2.0, 3.0]]):
        with pytest.raises(ValueError):
            MobiusMap.translation(t)
    for O in ([[1.0, 0.0], [0.0, 1.0]], np.eye(3, 4),
              [[1.0, 0.0, 0.0], [0.0, np.nan, 0.0], [0.0, 0.0, 1.0]],
              [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]):
        with pytest.raises(ValueError,
                           match="rotation must be a 3x3 orthonormal matrix"):
            MobiusMap.rotation(O)
    m = MobiusMap.translation((1, 2, 3)).then(MobiusMap.dilation(2))
    assert m.apply_jet([0.0]*18) == [2.0, 4.0, 6.0] + [0.0]*15


def test_mobius_maps_compare_and_hash_by_value():
    t = MobiusMap.translation([1, 2, 3])
    assert t == MobiusMap.translation(np.array([1.0, 2.0, 3.0]))
    assert hash(t) == hash(MobiusMap.translation((1.0, 2.0, 3.0)))
    assert t != MobiusMap.translation([1, 2, 4])
    assert MobiusMap.rotation(np.eye(3)) != MobiusMap.rotation(
        np.diag([1.0, 1.0, -1.0]))
    th = 0.4
    rot = [[1.0, 0.0, 0.0], [0.0, np.cos(th), -np.sin(th)],
           [0.0, np.sin(th), np.cos(th)]]

    def chain():
        return (MobiusMap.rotation(rot).then(t).then(MobiusMap.inversion())
                .then(MobiusMap.dilation(2.5)))

    a, b = chain(), chain()
    assert a == b and hash(a) == hash(b) and len({a, b, t}) == 2
    # composition is ordered: the same primitives in another order differ
    assert t.then(MobiusMap.dilation(2.5)) != MobiusMap.dilation(2.5).then(t)


def _shape_ref(jet):
    """Reference shape data on numpy 3-vectors (np.cross, @)."""
    _, ru, rv, ruu, ruv, rvv = jet_vectors(jet)
    E, F, G = ru @ ru, ru @ rv, rv @ rv
    nv = np.cross(ru, rv)
    n = nv / np.sqrt(nv @ nv)
    L, M, N = ruu @ n, ruv @ n, rvv @ n
    g = E*G - F*F
    W = np.array([[G*L - F*M, G*M - F*N], [E*M - F*L, E*N - F*M]]) / g
    H = (W[0, 0] + W[1, 1]) / 2
    K = W[0, 0]*W[1, 1] - W[0, 1]*W[1, 0]
    mu = np.sqrt(H*H - K)
    return dict(E=E, F=F, G=G, g=g, L=L, M=M, N=N, W=W, n=n, H=H, K=K,
                mu=mu, k1=H + mu, k2=H - mu)


def _dirs_ref(S, ref=None):
    """Reference principal directions on numpy 2-vectors."""
    W, k1, k2 = S["W"], S["k1"], S["k2"]
    cands = ([np.array([W[0, 1], k1 - W[0, 0]]),
              np.array([k1 - W[1, 1], W[1, 0]])],
             [np.array([k2 - W[1, 1], W[1, 0]]),
              np.array([W[0, 1], k2 - W[0, 0]])])
    out = []
    for cs, rf, axis in zip(cands, (None, None) if ref is None else ref,
                            (0, 1)):
        w = max(cs, key=lambda c: abs(c[0]) + abs(c[1]))
        w = w / np.sqrt(S["E"]*w[0]**2 + 2*S["F"]*w[0]*w[1]
                        + S["G"]*w[1]**2)
        if rf is not None:
            flip = (w @ rf).real < 0
        elif abs(w[axis].real) <= 1e-12*abs(w[1 - axis].real):
            flip = w[1 - axis].real < 0
        else:
            flip = w[axis].real < 0
        out.append(-w if flip else w)
    return out


_H_STEP = 1e-20


def _close(got, want, scale, complex_step):
    got, want = np.asarray(got), np.asarray(want)
    assert np.allclose(got.real, want.real, rtol=0, atol=1e-12*scale)
    if complex_step:
        assert np.allclose(got.imag/_H_STEP, want.imag/_H_STEP, rtol=0,
                           atol=1e-12*max(np.max(np.abs(want.imag/_H_STEP)),
                                          1.0))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(["helcat", "torus", "tube"]),
       st.floats(0.02, 0.98), st.floats(0.02, 0.98),
       st.sampled_from([None, "u", "v"]))
def test_scalar_kernel_matches_numpy_reference(helcat_quarter, torus,
                                               helical_tube, which, fu, fv,
                                               step):
    surface = {"helcat": helcat_quarter, "torus": torus,
               "tube": helical_tube}[which].surface
    (u0, u1), (v0, v1) = surface.domain
    u, v = u0 + fu*(u1 - u0), v0 + fv*(v1 - v0)
    u = u + 1j*_H_STEP if step == "u" else u
    v = v + 1j*_H_STEP if step == "v" else v
    d = surface.jet_raw(u, v)
    got, want = shape_data(d), _shape_ref(d)
    # the record is scalar: of the reference's W and n arrays it keeps
    # only W's entries, as w, and it holds no L, M, N or K (the core's
    # tuple does, see the next test)
    assert set(got) == set(want) - {"W", "n", "L", "M", "N", "K"} | {"w"}
    kind = float if step is None else complex
    assert all(type(x) is kind for key, x in got.items() if key != "w")
    assert len(got["w"]) == 4 and all(type(x) is kind for x in got["w"])
    for key in got:
        ref = want["W"] if key == "w" else want[key]
        scale = max(np.max(np.abs(np.asarray(ref).real)), 1.0)
        _close(np.reshape(got[key], np.shape(ref)), ref, scale,
               step is not None)
    # with a reference frame the signs follow it; without one they follow
    # the parameter axes, or the other axis where a direction is (to
    # roundoff) perpendicular to its own, as X1 on the helix tube
    ref = _dirs_ref(want)
    for X, Y in zip(principal_directions(got, ref), ref):
        _close(X, Y, max(np.max(np.abs(Y.real)), 1.0), step is not None)
    for X, Y in zip(principal_directions(got), ref):
        _close(X, Y, max(np.max(np.abs(Y.real)), 1.0), step is not None)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(["helcat", "torus", "tube"]),
       st.floats(0.02, 0.98), st.floats(0.02, 0.98),
       st.sampled_from([None, "u", "v"]))
def test_curvature_core_matches_numpy_reference(helcat_quarter, torus,
                                                helical_tube, which, fu, fv,
                                                step):
    # the complex steps of the curvature gradients read k1, k2 and H from
    # the core directly, with no shape dict
    surface = {"helcat": helcat_quarter, "torus": torus,
               "tube": helical_tube}[which].surface
    (u0, u1), (v0, v1) = surface.domain
    u, v = u0 + fu*(u1 - u0), v0 + fv*(v1 - v0)
    u = u + 1j*_H_STEP if step == "u" else u
    v = v + 1j*_H_STEP if step == "v" else v
    d = surface.jet_raw(u, v)
    E, F, G, g, n, L, M, N, w, H, K, mu = _jet_forms(d)
    want = _shape_ref(d)
    for key, got in (("E", E), ("F", F), ("G", G), ("g", g), ("H", H),
                     ("K", K), ("mu", mu), ("k1", H + mu), ("k2", H - mu),
                     ("W", np.reshape(w, (2, 2))), ("n", n)):
        scale = max(np.max(np.abs(np.asarray(want[key]).real)), 1.0)
        _close(got, want[key], scale, step is not None)
    assert all(type(x) is (float if step is None else complex)
               for x in (E, F, G, g, L, M, N, H, K, mu, *n, *w))


@pytest.mark.parametrize("which", ["helcat", "torus", "tube"])
def test_core_is_elementwise(helcat_quarter, torus, helical_tube, which):
    # the core on (3, n) arrays of points equals the core point by point,
    # bit for bit, so a batched layer can call it unchanged
    surface = {"helcat": helcat_quarter, "torus": torus,
               "tube": helical_tube}[which].surface
    us, vs = np.random.default_rng(5).uniform(-2.0, 2.0, (2, 7))
    jets = [surface.jet_raw(u, v) for u, v in zip(us, vs)]
    vecs = [jet_vectors(j) for j in jets]
    batched = _forms(*(np.stack([vs[k] for vs in vecs], axis=-1)
                       for k in range(1, 6)))
    for k, j in enumerate(jets):
        for got, want in zip(batched, _jet_forms(j)):
            assert np.array_equal(np.asarray(got)[..., k], want)


def _flat(*rows):
    return [x for r in rows for x in r]


def _parallel_jet(u, v):
    # r = (u + 2v, u^2/2, 0): r_v = 2 r_u everywhere
    z = 0*(u + v)
    return _flat((u + 2*v, u*u/2, z), (1 + z, u, z), (2 + z, 2*u, z),
                 (z, 1 + z, z), (z, z, z), (z, z, z))


def _still_jet(u, v):
    # r = (v, v^2, 0): r_u = 0 everywhere
    z = 0*(u + v)
    return _flat((v, v*v, z), (z, z, z), (1 + z, 2*v, z), (z, z, z),
                 (z, z, z), (z, 2 + z, z))


def _umbilic_jet(u, v):
    # the paraboloid z = (u^2 + v^2)/2, umbilic at the origin
    z = 0*(u + v)
    return _flat((u, v, (u*u + v*v)/2), (1 + z, z, u), (z, 1 + z, v),
                 (z, z, 1 + z), (z, z, z), (z, z, 1 + z))


@pytest.mark.parametrize("jet_fn,error", [
    (_parallel_jet, DegenerateMetric),
    (_still_jet, DegenerateMetric),
    (_umbilic_jet, UmbilicPoint),
], ids=["parallel", "still", "umbilic"])
@pytest.mark.parametrize("step", [None, "u", "v"])
def test_degenerate_jets_raise_typed_errors(jet_fn, error, step):
    # the scalar core divides by zero here (g = 0, |n| = 0, or a zero
    # eigenvector candidate at the umbilic): the outcome is a typed error
    # from _require_frame and NaN thetas from theta_state, as with numpy's
    # arrays, never a ZeroDivisionError or a math domain ValueError
    patch = SurfacePatch([(-1.0, 1.0), (-1.0, 1.0)], jet_fn)
    u = 1j*_H_STEP if step == "u" else 0.0
    v = 1j*_H_STEP if step == "v" else 0.0
    S = shape_data(patch.jet_raw(u, v))
    with pytest.raises(error):
        _require_frame(S)
    principal_directions(S)
    if step is None:
        t1, t2, X1, X2, _ = theta_state(patch, 0.0, 0.0)
        assert np.isnan(t1) and np.isnan(t2)
        assert np.isnan(X1).all() and np.isnan(X2).all()
        # the complex steps go through the core without raising
        assert np.array(_curv_grads(patch, 0.0, 0.0)).shape == (3, 2)


def test_mobius_composition_and_inverse():
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th), 0.0],
                    [np.sin(th), np.cos(th), 0.0],
                    [0.0, 0.0, 1.0]])
    m = (MobiusMap.rotation(rot)
         .then(MobiusMap.translation([0.5, -0.2, 1.0]))
         .then(MobiusMap.dilation(3.0))
         .then(MobiusMap.inversion()))
    x = [0.3, 1.2, -0.7]
    # a point is a jet with zero derivatives
    y = m.apply_jet(x + [0.0]*15)[:3]
    # the inverse primitives in reverse order undo the map
    back = (MobiusMap.inversion().then(MobiusMap.dilation(1.0/3.0))
            .then(MobiusMap.translation([-0.5, 0.2, -1.0]))
            .then(MobiusMap.rotation(rot.T)))
    assert np.allclose(back.apply_jet(y + [0.0]*15)[:3], x, atol=1e-12)
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
    moved = mobius_transform(sympy_patch(expr, uv, _TORUS_DOMAIN), m)
    ref = sympy_patch(_apply_sympy(m, expr), uv, _TORUS_DOMAIN)
    rng = np.random.default_rng(11)
    h = 1e-20
    for u, v in rng.uniform(-3.0, 3.0, (8, 2)):
        for du, dv in [(0.0, 0.0), (1j*h, 0.0), (0.0, 1j*h)]:
            got = moved.jet_raw(u + du, v + dv)
            want = ref.jet_raw(u + du, v + dv)
            assert len(got) == len(want)
            for g, w in zip(jet_vectors(got), jet_vectors(want)):
                scale = max(np.max(np.abs(w)), 1.0)
                assert np.allclose(g.real, w.real, rtol=0, atol=1e-12*scale)
                assert np.allclose(g.imag/h, w.imag/h, rtol=0,
                                   atol=1e-10*scale)


def test_mobius_transform_moves_positions(torus):
    m = MobiusMap.translation([0.0, 0.0, 5.0]).then(MobiusMap.inversion())
    moved = mobius_transform(torus.surface, m)
    zero = np.zeros(3)
    for (u, v) in [(0.3, 0.4), (1.0, -1.0)]:
        r = np.array(torus.surface.point(u, v))
        assert np.allclose(moved.point(u, v),
                           push_jet(m, [r] + [zero]*5)[0], atol=1e-10)


def test_inversion_center_on_surface_rejected(torus):
    # center at a surface point of the torus
    p = np.array(torus.surface.point(0.0, 0.0))
    m = MobiusMap.translation(-p).then(MobiusMap.inversion())
    with pytest.raises(InversionCenterOnSurface):
        mobius_transform(torus.surface, m)


def test_inversion_center_search_stays_in_domain(helcat_quarter):
    # the composition is the identity; the partial image (the first
    # inversion) tends to the second center only as (u, v) -> infinity,
    # which an unbounded search would reach far outside the domain
    s = helcat_quarter.surface
    inv = MobiusMap.inversion()
    moved = mobius_transform(s, inv.then(inv))
    assert np.allclose(moved.point(0.8, 0.5), s.point(0.8, 0.5),
                       rtol=0, atol=1e-12)
    p = np.array(s.point(0.3, 0.2))
    with pytest.raises(InversionCenterOnSurface):
        mobius_transform(s, MobiusMap.translation(-p).then(inv))


_CENTER_SURFACES = {
    "helcat": make_helcat(np.pi/4).surface,
    "torus": make_torus(2.0, 1.0).surface,
    "tube-helix": make_tube(("helix", 2.0, 0.5), 0.35).surface,
    "canonical": make_canonical(1.0, 2.0, 0.0, 3.5, 0.25, -0.5,
                                -3.25).surface,
}


@pytest.mark.parametrize("which", list(_CENTER_SURFACES))
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_inversion_center_at_any_surface_point_rejected(which, fu, fv):
    # the center at a surface point is refused wherever the point lies, not
    # only near the closest grid sample; 1e-3 off along the normal it is not
    s = _CENTER_SURFACES[which]
    (u0, u1), (v0, v1) = s.domain
    r, ru, rv, *_ = jet_vectors(s.jet_raw(u0 + fu*(u1 - u0),
                                          v0 + fv*(v1 - v0)))
    n = np.cross(ru, rv)
    inv = MobiusMap.inversion()
    with pytest.raises(InversionCenterOnSurface):
        mobius_transform(s, MobiusMap.translation(-r).then(inv))
    mobius_transform(s, MobiusMap.translation(
        -(r + 1e-3*n/np.linalg.norm(n))).then(inv))


def _verdict(check, surface, mmap):
    try:
        check(surface, mmap)
    except InversionCenterOnSurface:
        return True
    return False


@pytest.mark.parametrize("which", list(_CENTER_SURFACES))
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.sampled_from([0.0, 1e-8, 1e-6, 1e-4, 1e-2]),
       st.tuples(*[st.floats(-1.0, 1.0)]*3).filter(
           lambda d: np.linalg.norm(d) > 0.1),
       st.lists(MOBIUS_PRIMITIVE, max_size=3))
def test_grid_jet_check_matches_pointwise_sampling(which, fu, fv, offset,
                                                   direction, spec):
    # the check samples its grid by one jet at arrays of points; the
    # per-point sampler of tests/reference.py gives the same verdict on an
    # inversion centered at a surface point, or just off it, followed by a
    # random composition (which may invert again)
    s = _CENTER_SURFACES[which]
    (u0, u1), (v0, v1) = s.domain
    r = np.array(s.point(u0 + fu*(u1 - u0), v0 + fv*(v1 - v0)))
    d = np.array(direction)/np.linalg.norm(direction)
    m = MobiusMap.translation(-(r + offset*d)).then(
        MobiusMap.inversion()).then(compose_mobius(spec))
    with np.errstate(all="ignore"):
        assert (_verdict(_check_inversion_centers, s, m)
                == _verdict(check_inversion_centers_pointwise, s, m))


@pytest.mark.parametrize("which", list(_CENTER_SURFACES))
def test_inversion_center_grid_is_one_jet(which):
    # the 24x24 grid costs one jet at arrays of points; every other jet is
    # a Gauss-Newton step at one point, 8 from each of 4 samples
    s = _CENTER_SURFACES[which]
    calls = []

    def counting(u, v):
        calls.append(np.shape(u))
        return s.jet_raw(u, v)

    m = MobiusMap.translation([0.0, 0.0, 50.0]).then(MobiusMap.inversion())
    mobius_transform(SurfacePatch(s.domain, counting), m)
    assert calls[0] == (576,)
    assert 1 < len(calls) <= 1 + 4*8
    assert all(shape == () for shape in calls[1:])


@pytest.mark.parametrize("mmap", [
    MobiusMap.dilation(2.0).then(MobiusMap.translation([0.5, 0.0, 0.0])),
    MobiusMap.translation([0.0, 0.0, 3.0]).then(MobiusMap.inversion()),
], ids=["similarity", "inversion"])
def test_moved_patch_compiles_its_base_once(monkeypatch, mmap):
    calls = []
    lambdify = sp.lambdify

    def counting(*args, **kwargs):
        calls.append(args)
        return lambdify(*args, **kwargs)

    monkeypatch.setattr(sp, "lambdify", counting)
    base = _sphere(2.0)
    assert calls == []
    moved = mobius_transform(base, mmap)
    for _ in range(3):
        assert moved.jet_raw(0.3, 0.2) == mmap.apply_jet(
            base.jet_raw(0.3, 0.2))
    assert len(calls) == 1


_TORUS = make_torus(2.0, 1.0).surface
# 0.4 rad about x, the benchmark's rot2
_ROT_X = MobiusMap.rotation([[1.0, 0.0, 0.0],
                             [0.0, np.cos(0.4), -np.sin(0.4)],
                             [0.0, np.sin(0.4), np.cos(0.4)]])
_SCALAR_PATCHES = {
    "helcat": lambda: make_helcat(np.pi/4).surface,
    "torus": lambda: _TORUS,
    "sphere": lambda: make_sphere(1.5).surface,
    "tube-circle": lambda: make_tube(("circle", 2.0), 0.5).surface,
    "tube-helix": lambda: make_tube(("helix", 2.0, 0.5), 0.35).surface,
    "graph": lambda: make_graph({(0, 0): 1.0, (2, 0): 0.5,
                                 (1, 2): -1.0}).surface,
    "canonical": lambda: make_canonical(1.0, 2.0, 0.0, 3.5, 0.25, -0.5,
                                        -3.25).surface,
    "sympy": lambda: _sphere(2.0),
    "moved-similarity": lambda: mobius_transform(_TORUS, MobiusMap.dilation(
        2.0).then(MobiusMap.translation([0.5, 0.0, 0.0]))),
    "moved-inversion": lambda: mobius_transform(_TORUS, MobiusMap.translation(
        [0.0, 0.0, 5.0]).then(MobiusMap.inversion())),
    "moved-rotation": lambda: mobius_transform(_TORUS, _ROT_X),
    "moved-composition": lambda: mobius_transform(_TORUS, _ROT_X.then(
        MobiusMap.translation([0.0, 0.0, 5.0])).then(MobiusMap.inversion())),
}


@pytest.mark.parametrize("which", list(_SCALAR_PATCHES))
def test_jets_are_python_scalars(which):
    # the jet reaches the scalar core as 18 Python numbers, never numpy
    # scalars (whose complex square root differs from cmath's in the last
    # bits), also where the point's coordinates are numpy scalars
    surface = _SCALAR_PATCHES[which]()
    h = 1e-20
    for u, v in [(0.3, 0.2), (np.float64(-0.25), np.float64(0.35))]:
        jet = surface.jet_raw(u, v)
        assert len(jet) == 18
        assert all(type(x) is float for x in jet)
        for du, dv in [(1j*h, 0.0), (0.0, 1j*h)]:
            jet = surface.jet_raw(u + du, v + dv)
            assert len(jet) == 18
            kinds = {type(x) for x in jet}
            assert complex in kinds and kinds <= {float, complex}


_MOVED = {
    "rotation": _ROT_X,
    "similarity": _ROT_X.then(MobiusMap.translation([1.5, -2.0, 0.7])).then(
        MobiusMap.dilation(3.0)),
    "inversion": MobiusMap.translation([2.5, -1.0, 4.0]).then(
        MobiusMap.inversion()).then(MobiusMap.rotation(
            np.diag([1.0, 1.0, -1.0]))),
}


@pytest.mark.parametrize("which", list(_MOVED))
def test_moved_patch_is_elementwise(which):
    # a moved patch at arrays of points gives, at each point, the jet it
    # gives there alone, so a batched layer can evaluate it unchanged: bit
    # for bit at real points; at a complex step numpy's complex products
    # and quotients round differently from Python's in the last bit, so
    # there the imaginary parts agree to roundoff
    moved = mobius_transform(_TORUS, _MOVED[which])
    us, vs = np.random.default_rng(8).uniform(-3.0, 3.0, (2, 9))
    for du, dv in [(0.0, 0.0), (1j*_H_STEP, 0.0), (0.0, 1j*_H_STEP)]:
        batched = np.array(jet_vectors(moved.jet_raw(us + du, vs + dv)))
        for k, (u, v) in enumerate(zip(us, vs)):
            point = np.array(jet_vectors(moved.jet_raw(u + du, v + dv)))
            assert np.array_equal(batched[..., k].real, point.real)
            assert np.allclose(batched[..., k].imag, point.imag, rtol=0,
                               atol=1e-15*np.max(np.abs(point.imag)))


def _assert_push_close(got, want):
    # 1e-13 of the largest entry of the same derivative order, in the real
    # and the imaginary parts apart
    got, want = np.array(jet_vectors(got)), np.array(want)
    for part in (np.real, np.imag):
        g, w = part(got), part(want)
        for rows in ([0], [1, 2], [3, 4, 5]):
            assert (np.max(np.abs(g[rows] - w[rows]))
                    <= 1e-13*np.max(np.abs(w[rows])))


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.lists(MOBIUS_PRIMITIVE, min_size=1, max_size=4),
       st.sampled_from(["helcat", "torus"]), st.floats(-3.0, 3.0),
       st.floats(-3.0, 3.0))
def test_flat_push_matches_numpy_reference(helcat_quarter, torus, spec,
                                           which, u, v):
    # the flat chain rule against the numpy one of tests/reference.py, at a
    # real point, at complex steps and at arrays of points
    m = compose_mobius(spec)
    base = {"helcat": helcat_quarter, "torus": torus}[which].surface
    for du, dv in [(0.0, 0.0), (1j*_H_STEP, 0.0), (0.0, 1j*_H_STEP)]:
        jet = base.jet_raw(u + du, v + dv)
        got = m.apply_jet(jet)
        assert len(got) == 18
        assert {type(x) for x in got} <= {float, type(u + du + v + dv)}
        _assert_push_close(got, push_jet(m, jet_vectors(jet)))
    us, vs = np.array([u, v, u - v]), np.array([v, u, u + v])
    batched = jet_vectors(m.apply_jet(base.jet_raw(us, vs)))
    for k in range(3):
        _assert_push_close([t for b in batched for t in b[:, k]], push_jet(
            m, jet_vectors(base.jet_raw(us[k], vs[k]))))


_SIGNED_PERMUTATION = st.tuples(st.permutations(range(3)),
                                st.lists(st.sampled_from([1.0, -1.0]),
                                         min_size=3, max_size=3))
_EXACT_PRIMITIVE = st.one_of(
    st.tuples(st.just("permutation"), _SIGNED_PERMUTATION),
    MOBIUS_PRIMITIVE.filter(lambda p: p[0] in ("translation", "dilation")))


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.lists(_EXACT_PRIMITIVE, min_size=1, max_size=4),
       st.sampled_from(["helcat", "torus"]), st.floats(-3.0, 3.0),
       st.floats(-3.0, 3.0))
def test_flat_push_is_bit_identical_on_similarities(helcat_quarter, torus,
                                                    spec, which, u, v):
    # translations, dilations and signed permutations do the same IEEE
    # operations in both chain rules: a rotation's products by 0 and 1 are
    # exact, so a sum of three of them rounds as numpy's product does.
    # Only the sign of a zero may differ (numpy's product can give +0 where
    # the sum of three products gives -0), and adding 0.0 makes every zero +0
    m = MobiusMap(())
    for kind, arg in spec:
        if kind == "permutation":
            perm, signs = arg
            m = m.then(MobiusMap.rotation(np.eye(3)[list(perm)]*signs))
        else:
            m = m.then(compose_mobius([(kind, arg)]))
    base = {"helcat": helcat_quarter, "torus": torus}[which].surface
    for du, dv in [(0.0, 0.0), (1j*_H_STEP, 0.0), (0.0, 1j*_H_STEP)]:
        jet = base.jet_raw(u + du, v + dv)
        got = np.array(jet_vectors(m.apply_jet(jet)))
        want = np.array(push_jet(m, jet_vectors(jet)))
        assert (got + 0.0).tobytes() == (want + 0.0).astype(
            got.dtype).tobytes()


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conformal import invariants
from conformal.catalog import (make_canonical, make_graph, make_sphere,
                               make_torus)
from conformal.errors import (BoundaryTooClose, DegenerateDenominator,
                              OutOfDomain, UmbilicPoint)
from conformal.invariants import (_quartic, classify_point,
                                  invariant_sample, psi_from_thetas,
                                  psi_invariant, theta_state,
                                  xi_theta_derivs)
from conformal.linefields import (dupin_angle, integrate_darboux_line,
                                  integrate_dupin_line)
from conformal.osculation import osculating_cyclide
from conformal.surfaces import MobiusMap, SurfacePatch, mobius_transform
from reference import willmore_energy


def _helcat_psi(alpha, s):
    return np.sin(alpha)*(3.0*np.cosh(s)**2 - 2.0)


def test_psi_closed_form(helcat_quarter):
    s = helcat_quarter.surface
    for (u, v) in [(-1.5, 0.3), (-0.5, 2.0), (0.7, -1.0), (1.8, 4.0)]:
        got = psi_invariant(s, u, v)
        assert abs(got - _helcat_psi(np.pi/4, u)) < 1e-7


def test_psi_torus_constant(torus):
    for (u, v) in [(0.3, 0.5), (1.2, -0.9), (-2.0, 2.2)]:
        assert abs(psi_invariant(torus.surface, u, v) + 1.0) < 1e-8


def test_theta_magnitudes_helcat(helcat_quarter):
    sa = np.sin(np.pi/4)
    for (u, v) in [(0.5, 0.3), (-1.0, 2.0), (1.5, -2.5)]:
        t1, t2, *_ = theta_state(helcat_quarter.surface, u, v)
        o1 = np.sqrt(2.0*(1.0 - sa))*np.sinh(u)
        o2 = np.sqrt(2.0*(1.0 + sa))*np.sinh(u)
        assert abs(abs(t1) - abs(o1)) < 1e-9
        assert abs(abs(t2) - abs(o2)) < 1e-9


def test_classify_point_thresholds():
    assert classify_point(1.0, 2.0) == "Generic"
    assert classify_point(0.0, 2.0) == "CanalTheta1"
    assert classify_point(1.0, 1e-9) == "CanalTheta2"
    assert classify_point(1e-9, 1e-9) == "Dupin"


def test_invariant_sample_fields(helcat_quarter):
    s = invariant_sample(helcat_quarter.surface, 0.8, 0.5)
    assert s.classification == "Generic"
    assert s.psi is not None and s.a is not None
    # invariant-gauge coefficient symmetries: a + d = -(theta terms)
    assert np.isfinite([s.a, s.b, s.c, s.d]).all()


def test_mobius_invariance_of_invariants(helcat_quarter):
    s = helcat_quarter.surface
    u, v = 0.8, 0.5
    t1, t2, *_ = theta_state(s, u, v)
    psi = psi_invariant(s, u, v)
    s0 = invariant_sample(s, u, v)
    refl = np.diag([1.0, 1.0, -1.0])
    m = (MobiusMap.dilation(2.0)
         .then(MobiusMap.translation([2.5, -1.0, 4.0]))
         .then(MobiusMap.inversion())
         .then(MobiusMap.rotation(refl)))
    assert m.orientation_preserving
    moved = mobius_transform(s, m)
    t1m, t2m, *_ = theta_state(moved, u, v)
    assert abs(abs(t1m) - abs(t1)) < 1e-7
    assert abs(abs(t2m) - abs(t2)) < 1e-7
    assert abs(psi_invariant(moved, u, v) - psi) < 1e-6
    sm = invariant_sample(moved, u, v)
    assert np.allclose([sm.a, sm.b, sm.c, sm.d], [s0.a, s0.b, s0.c, s0.d],
                       atol=1e-5)


def test_psi_is_orientation_odd(helcat_quarter):
    # an orientation-reversing map relabels the principal directions and
    # flips the sign of the fourth-order invariant (all three of its terms
    # are odd under a normal flip)
    s = helcat_quarter.surface
    u, v = 0.8, 0.5
    psi = psi_invariant(s, u, v)
    m = MobiusMap.translation([2.5, -1.0, 4.0]).then(MobiusMap.inversion())
    assert not m.orientation_preserving
    moved = mobius_transform(s, m)
    assert abs(psi_invariant(moved, u, v) + psi) < 1e-6


def test_psi_from_thetas_degenerate_on_torus(torus):
    with pytest.raises(DegenerateDenominator):
        psi_from_thetas(torus.surface, 0.5, 0.8)


def test_psi_from_thetas_degenerate_on_helcat(helcat_quarter):
    with pytest.raises(DegenerateDenominator):
        psi_from_thetas(helcat_quarter.surface, 0.8, 0.5)


def test_psi_from_thetas_canal_identity(helical_tube):
    # on a canal surface the recovery reduces to an exact first-order
    # expression; cross-check against the field-based invariant
    s = helical_tube.surface
    for (u, v) in [(0.5, 1.2), (1.2, 2.0)]:
        p1 = psi_invariant(s, u, v)
        p2 = psi_from_thetas(s, u, v)
        assert abs(p1 - p2) < 1e-2


def test_psi_from_thetas_evaluates_each_point_once(helical_tube, monkeypatch):
    # 45 points of the nested stencils (the centre, 4 first-level, 12
    # second-level and 28 third-level neighbours), each one theta state:
    # a real jet and two complex steps
    calls = []
    jet_raw = SurfacePatch.jet_raw

    def counted(self, u, v):
        calls.append((u, v))
        return jet_raw(self, u, v)

    monkeypatch.setattr(SurfacePatch, "jet_raw", counted)
    psi_from_thetas(helical_tube.surface, 0.5, 1.2)
    assert len(calls) == 135
    assert len(set(calls)) == 135


_QUERIES = {"invariant_sample": invariant_sample,
            "psi_invariant": psi_invariant,
            "psi_from_thetas": psi_from_thetas,
            "osculating_cyclide": osculating_cyclide,
            "dupin_angle": lambda surface, u, v: dupin_angle(surface, (u, v)),
            "integrate_dupin_line": lambda surface, u, v: integrate_dupin_line(
                surface, (u, v), max_length=0.05),
            "integrate_darboux_line":
                lambda surface, u, v: integrate_darboux_line(
                    surface, (u, v), 0.5, max_length=0.05)}


@pytest.mark.parametrize("query", sorted(_QUERIES))
def test_point_queries_share_one_entry_rule(helcat_quarter, monkeypatch,
                                            query):
    # OutOfDomain before the first jet (helcat's jet overflows at u = 1000),
    # then UmbilicPoint on the first shape dict: on the unit sphere and on
    # the plane, where the frame is undefined and the thetas are NaN
    calls = []
    jet_raw = SurfacePatch.jet_raw

    def counted(self, u, v):
        calls.append((u, v))
        return jet_raw(self, u, v)

    monkeypatch.setattr(SurfacePatch, "jet_raw", counted)
    with pytest.raises(OutOfDomain):
        _QUERIES[query](helcat_quarter.surface, 1000.0, 0.0)
    assert calls == []
    for entry, point in ((make_sphere(1.0), (0.3, 0.2)),
                         (make_graph({}), (0.1, 0.1))):
        with pytest.raises(UmbilicPoint):
            _QUERIES[query](entry.surface, *point)


@pytest.mark.parametrize("point", [(0.1, 0.1), (0.0, 0.0)])
def test_psi_from_thetas_converges_to_normal_form_psi(monkeypatch, point):
    # the theta path recovers the canonical normal form's psi, which is
    # psi_invariant - (xi1(theta1) + xi2(theta2)); its error is
    # second order in the nested steps
    surface = make_canonical(1.0, 2.0, 0.0, 3.5, 0.25, -0.5, -3.25).surface
    xt, *_ = xi_theta_derivs(surface, *point)
    target = psi_invariant(surface, *point) - (xt[(1, 1)] + xt[(2, 2)])
    base = invariants._H_NEST
    errs = []
    for scale in (1.0, 0.5, 0.25):
        monkeypatch.setattr(invariants, "_H_NEST",
                            tuple(scale*h for h in base))
        errs.append(abs(psi_from_thetas(surface, *point) - target))
    assert errs[0] >= 3.5*errs[1] and errs[1] >= 3.5*errs[2]
    assert errs[2] < 0.01


def test_boundary_margin_enforced(helcat_quarter):
    s = helcat_quarter.surface
    with pytest.raises(BoundaryTooClose):
        psi_from_thetas(s, 2.999, 0.0)


def test_willmore_energy_positive():
    # on a torus of revolution the integral of K dA is 0, so the energy is
    # that of H^2, pi^2 c^2/sqrt(c^2 - 1) with c = R/r
    for R in (2.0, 3.0):
        w = willmore_energy(make_torus(R, 1.0).surface, n=32)
        want = np.pi**2*R*R/np.sqrt(R*R - 1.0)
        assert abs(w - want) < 1e-12*want


@pytest.mark.parametrize("m", [
    MobiusMap.translation([0.0, 0.0, 5.0]).then(MobiusMap.inversion()),
    MobiusMap.dilation(3.0)], ids=["inversion", "dilation"])
def test_willmore_energy_is_mobius_invariant(torus, m):
    # mu^2 dA is invariant point by point, so the quadrature on the same
    # (u, v) grid is too
    w = willmore_energy(torus.surface, n=32)
    moved = willmore_energy(mobius_transform(torus.surface, m), n=32)
    assert abs(moved - w) < 1e-12*w


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(which=st.sampled_from(["helcat", "torus"]),
       u=st.floats(-2.5, 2.5), v=st.floats(-2.5, 2.5))
def test_sample_matches_psi_and_coeffs_exactly(helcat_quarter, torus, which,
                                               u, v):
    surface = (helcat_quarter if which == "helcat" else torus).surface
    s = invariant_sample(surface, u, v)
    assert s.psi == psi_invariant(surface, u, v)
    assert (s.a, s.b, s.c, s.d) == _quartic(xi_theta_derivs(surface, u, v))

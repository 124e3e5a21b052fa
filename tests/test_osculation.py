import dataclasses
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conformal.catalog import make_canonical, make_helcat
from conformal.errors import CanalPoint, SeedIsDupinPoint
from conformal.intersect import difference_coeffs
from conformal.invariants import (_unit_theta_derivs, classify_point,
                                  invariant_sample, theta_state)
from conformal.linefields import dupin_angle
from conformal.osculation import (_PROFILE_SIGN, CyclideContact,
                                  _limit_ratio, _on_line, _profile_coeffs,
                                  cyclide_monomials, normal_form_monomials,
                                  osculating_cyclide, osculating_psi_c,
                                  verify_contact_order)
from conformal.surfaces import SurfacePatch

_TABLE_SPOT = [
    (np.pi/6, 1.0, 5.84),
    (np.pi/6, 2.0, 37.96),
    (np.pi/4, 1.0, 7.44),
    (np.pi/3, 2.0, 62.33),
]


def test_reference_values_spot_checks():
    from conformal.catalog import make_helcat
    for alpha, s, want in _TABLE_SPOT:
        entry = make_helcat(alpha)
        c = osculating_cyclide(entry.surface, s, 0.3)
        assert abs(c.psi_c - want) <= max(0.02, 0.02*abs(want))


def test_limit_path_at_field_zero(helcat_quarter):
    c = osculating_cyclide(helcat_quarter.surface, 0.0, 0.3)
    assert c.limit_derived
    # both-zero crossing: the limit ratio equals the constant ratio of the
    # two fields off the zero set
    s = helcat_quarter.surface
    ratio = _limit_ratio(_unit_theta_derivs(s, 0.0, 0.3,
                                            theta_state(s, 0.0, 0.3)))
    kap = np.cos(np.pi/4)/(1.0 + np.sin(np.pi/4))
    assert abs(abs(ratio) - kap) < 1e-6
    assert abs(c.psi_c - 2.17) < 0.02


def test_limit_derived_cyclide_jet_count(helcat_quarter, monkeypatch):
    # one theta-gradient pass (15 jets: the centre and its four neighbours,
    # each real and at two complex steps) serves the profile coefficients
    # and the limit ratio; psi_invariant takes the other 29, so a
    # limit-derived cyclide costs what a generic one does
    calls = []
    jet_raw = SurfacePatch.jet_raw

    def counted(self, u, v):
        calls.append((u, v))
        return jet_raw(self, u, v)

    monkeypatch.setattr(SurfacePatch, "jet_raw", counted)
    assert osculating_cyclide(helcat_quarter.surface, 0.0, 0.3).limit_derived
    assert len(calls) == 44


def test_canal_point_rejected(catenoid):
    with pytest.raises(CanalPoint):
        osculating_cyclide(catenoid.surface, 1.0, 0.3)


def test_contact_order_exact_and_perturbed(helcat_quarter):
    c = osculating_cyclide(helcat_quarter.surface, 1.0, 0.3)
    assert verify_contact_order(c) == 4
    for dpc in (1.0, -1.0):
        assert verify_contact_order(
            dataclasses.replace(c, psi_c=c.psi_c + dpc)) == 3


def test_cubic_profile_cancellation(helcat_quarter):
    # at the distinguished direction parameter the cubic term of the
    # surface profile vanishes, matching the cyclide's cubic-free profile
    c = osculating_cyclide(helcat_quarter.surface, 1.0, 0.3)
    t_eff = _PROFILE_SIGN * c.t
    prof = _on_line(normal_form_monomials(c.theta1, c.theta2, c.psi,
                                          *c.coeffs), t_eff)
    scale = max(abs(c.theta1), abs(c.theta2))
    assert abs(prof[3]) < 1e-9 * scale


def test_profile_coeffs_frame_insensitive(helcat_quarter):
    # the unit-gauge coefficient set is invariant under flipping either
    # principal direction, hence reproducible across frame conventions
    s = helcat_quarter.surface
    (a, b, c, d), t1, t2 = _profile_coeffs(
        _unit_theta_derivs(s, 0.9, 0.4, theta_state(s, 0.9, 0.4)))
    assert np.isfinite([a, b, c, d, t1, t2]).all()
    # theta ratio equals the constant of the family
    kap = np.cos(np.pi/4)/(1.0 + np.sin(np.pi/4))
    assert abs(abs(t1/t2) - kap) < 1e-9


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(which=st.sampled_from(["helcat", "canonical"]),
       param=st.floats(0.0, np.pi/2),
       vals=st.lists(st.floats(-2.0, 2.0), min_size=7, max_size=7),
       fu=st.floats(-1.0, 1.0), fv=st.floats(-1.0, 1.0))
def test_profile_and_invariant_gauges_differ_by_mu(which, param, vals, fu,
                                                   fv):
    # D_i = mu xi_i, and the unit gauge negates the D_2 row:
    #   a_p - 3 - t1^2 =  mu (a_i - 3 - t1^2)
    #   b_p + t1 t2    = -mu (b_i + t1 t2)
    #   c_p - t1 t2    =  mu (c_i - t1 t2)
    #   d_p + 3 + t2^2 = -mu (d_i + 3 + t2^2)
    if which == "helcat":
        surface, u, v = make_helcat(param).surface, 2.5*fu, 6.0*fv
    else:
        surface, u, v = make_canonical(*vals).surface, 0.1*fu, 0.1*fv
    (ap, bp, cp, dp), t1, t2 = _profile_coeffs(
        _unit_theta_derivs(surface, u, v, theta_state(surface, u, v)))
    smp = invariant_sample(surface, u, v)
    ai, bi, ci, di = smp.a, smp.b, smp.c, smp.d
    s1, s2, *_, S = theta_state(surface, u, v)
    assert (s1, s2) == (t1, t2)
    mu = S["mu"]
    pairs = [(ap - 3 - t1*t1, mu*(ai - 3 - t1*t1)),
             (bp + t1*t2, -mu*(bi + t1*t2)),
             (cp - t1*t2, mu*(ci - t1*t2)),
             (dp + 3 + t2*t2, -mu*(di + 3 + t2*t2))]
    scale = max(1.0, *(abs(x) for x in (ap, bp, cp, dp, t1*t1, t2*t2)))
    for got, want in pairs:
        assert abs(got - want) <= 1e-12*scale


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(vals=st.lists(st.floats(-5.0, 5.0), min_size=7, max_size=7),
       psi_c=st.floats(-20.0, 20.0), t=st.floats(0.1, 3.0),
       sign=st.sampled_from([1.0, -1.0]),
       xy=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_normal_form_cyclide_and_difference_agree(vals, psi_c, t, sign, xy):
    t *= sign
    t1, t2, psi, a, b, c, d = vals
    poly = make_canonical(*vals).params["poly"]
    cyc = cyclide_monomials(psi_c)
    # the monomials are the written-out normal form and cyclide
    x, y = xy
    z_surf = ((x*x - y*y)/2 + (t1*x**3 + t2*y**3)/6
              + (a*x**4 + 4*b*x**3*y + 6*psi*x*x*y*y + 4*c*x*y**3
                 + d*y**4)/24)
    z_cyc = (x*x - y*y)/2 + (x**4 - y**4)/8 + psi_c*x*x*y*y/6
    assert sum(w*x**i*y**j for (i, j), w in poly.items()) == \
        pytest.approx(z_surf, rel=1e-12, abs=1e-12)
    assert sum(w*x**i*y**j for (i, j), w in cyc.items()) == \
        pytest.approx(z_cyc, rel=1e-12, abs=1e-12)
    # surface minus cyclide is the difference polynomial, exactly; its
    # quadratic part cancels
    diff = difference_coeffs(vals, psi_c)
    assert diff == {k: w - cyc.get(k, 0.0) for k, w in poly.items()
                    if k[0] + k[1] > 2}
    assert poly[(2, 0)] == cyc[(2, 0)] and poly[(0, 2)] == cyc[(0, 2)]
    # on the line y = t x it is the surface profile minus the cyclide's
    prof_s = _on_line(poly, t)
    prof_c = _on_line(cyc, t)
    got = np.subtract(prof_s, prof_c)[2:]
    scale = 1e-12*(1.0 + abs(psi_c) + sum(map(abs, vals)))*max(1.0, t**4)
    assert np.allclose(got, _on_line(diff, t)[2:], rtol=0, atol=scale)
    # the matched psi_c zeroes the quartic term along t_eff = -t
    pc = osculating_psi_c(vals, t)
    gap = _on_line(poly, -t)[4] - _on_line(cyclide_monomials(pc), -t)[4]
    assert abs(gap) <= scale
    if min(abs(t1), abs(t2)) > 0.1:
        assert osculating_psi_c(vals) == osculating_psi_c(
            vals, np.cbrt(t1/t2))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(vals=st.lists(st.floats(-5.0, 5.0), min_size=7, max_size=7))
def test_normal_form_monomials_are_the_derivatives_over_factorials(vals):
    # z_ij / (i! j!) of the canonical graph's derivatives at the origin,
    # key by key, in the same order and bit for bit
    t1, t2, psi, a, b, c, d = vals
    jet = {(2, 0): 1.0, (0, 2): -1.0, (3, 0): t1, (0, 3): t2,
           (4, 0): a, (3, 1): b, (2, 2): psi, (1, 3): c, (0, 4): d}
    want = [((i, j), q/(factorial(i)*factorial(j)))
            for (i, j), q in jet.items()]
    assert list(normal_form_monomials(*vals).items()) == want


_THETA = st.floats(0.1, 5.0).flatmap(
    lambda m: st.sampled_from([m, -m]))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(t1=_THETA, t2=_THETA,
       rest=st.lists(st.floats(-5.0, 5.0), min_size=5, max_size=5),
       frac=st.floats(1e-6, 1e3), sign=st.sampled_from([1.0, -1.0]))
def test_contact_order_of_random_invariants(t1, t2, rest, frac, sign):
    # 4 at the matched psi_c, 3 with psi_c moved off it, 2 off the
    # direction where the surface's cubic profile term cancels
    psi, *coeffs = rest
    t = float(np.cbrt(t1/t2))
    pc = osculating_psi_c((t1, t2, psi, *coeffs), t)
    c = CyclideContact(t=t, alpha=float(np.arctan(abs(t))), psi_c=pc,
                       limit_derived=False, theta1=t1, theta2=t2, psi=psi,
                       coeffs=tuple(coeffs))
    assert verify_contact_order(c) == 4
    moved = pc + sign*frac*(1.0 + abs(pc))
    assert verify_contact_order(dataclasses.replace(c, psi_c=moved)) == 3
    assert verify_contact_order(dataclasses.replace(c, t=2*t)) == 2


# thetas at the origin of a canonical graph, with their class there
_THETA_CASES = [((6e-7, 6e-7), "Dupin"), ((9e-7, -9e-7), "Dupin"),
                ((5e-6, 10.0), "Generic"), ((0.5, 2.0), "Generic"),
                ((5e-7, 10.0), "CanalTheta1")]


@pytest.mark.parametrize("thetas, cls", _THETA_CASES,
                         ids=[str(t) for t, _ in _THETA_CASES])
def test_one_vanishing_theta_rule(thetas, cls):
    # classify_point decides where thetas vanish; the osculating cyclide
    # (limit-derived on the Dupin locus, CanalPoint on a canal class) and
    # the Dupin angle (SeedIsDupinPoint on the Dupin locus) follow it
    s = make_canonical(*thetas, 0.0, 3.5, 0.25, -0.5, -3.25).surface
    t1, t2, *_ = theta_state(s, 0.0, 0.0)
    assert classify_point(t1, t2) == cls
    if cls.startswith("Canal"):
        with pytest.raises(CanalPoint):
            osculating_cyclide(s, 0.0, 0.0)
    else:
        assert osculating_cyclide(s, 0.0, 0.0).limit_derived == (
            cls == "Dupin")
    if cls == "Dupin":
        with pytest.raises(SeedIsDupinPoint):
            dupin_angle(s, (0.0, 0.0))
    else:
        assert np.isfinite(dupin_angle(s, (0.0, 0.0)))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(psi=st.floats(-10.0, 10.0), t=st.floats(0.1, 10.0),
       sign=st.sampled_from([1.0, -1.0]))
def test_cyclide_psi_c_is_three_halves_its_psi(psi, t, sign):
    # the cyclide is the normal form at (0, 0, 2 psi_c/3, 3, 0, 0, -3), so
    # its own osculating cyclide has psi_c = 3 psi/2 along every direction
    t = sign*t
    got = osculating_psi_c((0.0, 0.0, psi, 3.0, 0.0, 0.0, -3.0), t)
    assert abs(got - 1.5*psi) <= 1e-13*(1.0 + abs(psi))*(t*t + 1.0/(t*t))
    assert cyclide_monomials(got) == pytest.approx(
        normal_form_monomials(0.0, 0.0, psi, 3.0, 0.0, 0.0, -3.0))

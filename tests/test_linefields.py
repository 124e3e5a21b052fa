import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import jet_vectors
from conformal import linefields
from conformal.errors import AngleDegenerate, DupinPoint, SeedIsDupinPoint
from conformal.invariants import theta_state
from conformal.linefields import (CurveTrace, darboux_critical_points,
                                  fit_circle, integrate_darboux_line,
                                  integrate_dupin_line)
from conformal.surfaces import SurfacePatch


def test_fit_circle_exact():
    phis = np.linspace(0, 2*np.pi, 40, endpoint=False)
    center = np.array([1.0, -2.0, 0.5])
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, np.cos(0.3), np.sin(0.3)])
    pts = center + 1.7*(np.outer(np.cos(phis), e1)
                        + np.outer(np.sin(phis), e2))
    c, r, resid = fit_circle(pts)
    assert np.allclose(c, center, atol=1e-10)
    assert abs(r - 1.7) < 1e-10
    assert resid < 1e-10


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(u=st.floats(-3.0, 3.0),
       v=st.floats(-3.0, 3.0).filter(lambda v: abs(np.sin(v)) > 1e-3))
@example(u=0.5, v=1.2)
@example(u=1.5, v=2.5)
@example(u=-2.0, v=0.7)
@example(u=-1.6360888490345513, v=2.372689436484756)
def test_tube_traces_close_on_circles(helical_tube, u, v):
    # the characteristic circles of the tube, from any seed off the zero
    # circles v = 0, pi of theta2, where both thetas vanish
    tr = integrate_dupin_line(helical_tube.surface, (u, v))
    assert tr.closed
    c, r, resid = fit_circle(tr.positions)
    assert abs(r - 0.35) < 1e-3
    assert resid < 1e-4


@pytest.mark.parametrize("seed", [(0.5, 1.2), (1.5, 2.5), (-2.0, 0.7)])
def test_tube_traces_fit_their_circles_to_roundoff(helical_tube, seed):
    # theta1 vanishes identically on the tube and evaluates to roundoff
    # (-1.4e-15 at (0.5, 1.2)); its cube root (1.1e-5) must not enter the
    # direction, or the traced circle drifts by about 5e-6 per turn
    tr = integrate_dupin_line(helical_tube.surface, seed)
    assert tr.closed
    # it starts along X1, which points along +v whatever the sign of its
    # roundoff u component
    assert tr.uv[1, 1] > tr.uv[0, 1]
    _, r, resid = fit_circle(tr.positions)
    assert resid < 1e-12
    assert abs(r - 0.35) < 1e-12


@pytest.mark.parametrize("seed", [(0.5, 1.2), (1.5, 2.5), (-2.0, 0.7)])
def test_tube_dupin_angle_is_zero_and_degenerate(helical_tube, seed):
    # the roundoff theta1 (-1.4e-15 at (0.5, 1.2)) is floored as in the
    # Dupin direction, so the angle is 0, where the angle equation is 0/0
    s = helical_tube.surface
    a0 = linefields.dupin_angle(s, seed)
    assert a0 == 0.0
    with pytest.raises(AngleDegenerate):
        integrate_darboux_line(s, seed, a0)


def test_closing_dupin_trace_reports_closed(helical_tube):
    # the trace is back at its seed after 2.19 of the 10 allowed
    tr = integrate_dupin_line(helical_tube.surface, (0.5, 1.2))
    assert tr.closed and tr.termination == "Closed"
    assert len(tr) == 220


def test_helicoid_dupin_lines_run_along_constant_first_coordinate(helicoid):
    # one curvature field vanishes identically, so the traced direction is
    # the second-coordinate bisector: traces stay on constant first
    # coordinate and never approach the zero locus
    tr = integrate_dupin_line(helicoid.surface, (0.8, 0.0), max_length=5.0)
    assert tr.termination == "ReachedLength"
    assert np.max(np.abs(tr.uv[:, 0] - 0.8)) < 1e-6


def test_helcat_trace_passes_through_degenerate_locus(helcat_quarter):
    # transversal zeros of both fields do not stop a trace: the unoriented
    # direction has a continuous limit, so the integrator continues through
    # by carrying the previous direction
    tr = integrate_dupin_line(helcat_quarter.surface, (0.4, 0.3),
                              max_length=20.0)
    assert tr.termination == "HitBoundary"
    signs = np.sign(tr.uv[:, 0])
    assert signs.min() < 0 < signs.max()


def test_trace_crosses_a_theta_zero_circle_and_closes(helical_tube):
    # theta2 vanishes on the circles v = 0 and v = pi; from this seed the
    # trace runs once around v, through one of each, and closes
    tr = integrate_dupin_line(helical_tube.surface, (0.5, 1.0))
    assert tr.closed
    assert np.ptp(np.floor(tr.uv[:, 1]/np.pi)) >= 2
    _, r, resid = fit_circle(tr.positions)
    assert abs(r - 0.35) < 1e-3
    assert resid < 1e-4


def test_step_start_samples_on_the_zero_circles_do_not_stop_a_trace(
        helical_tube):
    # a v-step of pi/110 puts a step-start sample on each zero circle,
    # inside the tolerance band, whichever way the trace runs: those steps
    # carry the direction through, and the trace closes
    s = helical_tube.surface
    h = np.pi/110
    tr = integrate_dupin_line(s, (0.5, 5*h), step=0.35*h)
    assert tr.closed
    band = [abs(t1) + abs(t2) < linefields._TOL_DUPIN
            for t1, t2, *_ in (theta_state(s, *p) for p in tr.uv)]
    assert sum(band) == 2
    _, r, _ = fit_circle(tr.positions)
    assert abs(r - 0.35) < 1e-3


@pytest.mark.parametrize("edits,stop", [
    ({2: "band"}, None),
    ({2: "band", 3: "band"}, 3),
    ({2: "turn"}, 2),
], ids=["one-band-sample", "two-band-samples", "turn"])
def test_dupin_trace_stop_rule(monkeypatch, helical_tube, edits, stop):
    # the theta state at step-start sample k is call 4k: the seed, then
    # three stages and the start of the next step.  "band" puts both thetas
    # at 0; "turn" swaps them, which turns the Dupin direction on the tube
    # (theta1 = 0) from X1 to X2
    orig = linefields.theta_state
    calls = []

    def edited(*args, **kwargs):
        t1, t2, X1, X2, S = orig(*args, **kwargs)
        k, stage = divmod(len(calls), 4)
        calls.append(k)
        edit = edits.get(k) if stage == 0 else None
        if edit == "band":
            return 0.0, 0.0, X1, X2, S
        if edit == "turn":
            return t2, t1, X1, X2, S
        return t1, t2, X1, X2, S

    monkeypatch.setattr(linefields, "theta_state", edited)
    tr = integrate_dupin_line(helical_tube.surface, (0.5, 1.2),
                              max_length=0.1)
    if stop is None:
        assert tr.termination == "ReachedLength"
        assert len(tr) > 10
    else:
        assert tr.termination == "HitSingularPoint"
        assert len(tr) == stop + 1


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(["helcat", "tube"]), st.floats(0.02, 0.98),
       st.floats(0.02, 0.98), st.floats(0.01, np.pi/2))
def test_dupin_dir_and_turn_match_ambient_vectors(helcat_quarter,
                                                  helical_tube, which, fu,
                                                  fv, phi):
    # the tracer measures in the first fundamental form; the reference
    # builds the ambient vectors d_u r_u + d_v r_v from the jet
    surface = {"helcat": helcat_quarter, "tube": helical_tube}[which].surface
    (u0, u1), (v0, v1) = surface.domain
    u, v = u0 + fu*(u1 - u0), v0 + fv*(v1 - v0)
    ts = theta_state(surface, u, v)
    try:
        d = linefields._dupin_dir(ts)
    except DupinPoint:
        assume(False)
    _, ru, rv, *_ = jet_vectors(surface.jet_raw(u, v))

    def amb(p):
        return p[0]*ru + p[1]*rv

    assert abs(np.linalg.norm(amb(d)) - 1.0) < 1e-12
    # d turned by phi in the tangent plane: X1 and X2 are orthonormal, and
    # d = p X1 + q X2 with p^2 + q^2 = 1
    X1, X2 = ts[2], ts[3]
    p, q = np.linalg.solve(np.column_stack([X1, X2]), d)
    carried = np.cos(phi)*d + np.sin(phi)*(-q*X1 + p*X2)
    a, b = amb(d), amb(carried)
    want = np.arccos(abs(a @ b)/(np.linalg.norm(a)*np.linalg.norm(b)))
    assert abs(linefields._turn(d, carried, ts[4]) - want) < 1e-12


def test_seed_on_degenerate_locus_rejected(helcat_quarter):
    with pytest.raises(SeedIsDupinPoint):
        integrate_dupin_line(helcat_quarter.surface, (0.0, 0.3))


def _seed_alpha(surface, seed):
    t1, t2, *_ = theta_state(surface, *seed)
    return -np.arctan(np.cbrt(-t1/t2))


def test_darboux_critical_point(helcat_quarter):
    s = helcat_quarter.surface
    seed = (-0.05, 0.3)
    a0 = _seed_alpha(s, seed)
    crits = []
    for orient in (1, -1):
        tr = integrate_darboux_line(s, seed, a0, max_length=1.0,
                                    orient=orient)
        crits = darboux_critical_points(tr, s)
        if crits:
            break
    assert crits
    cp = crits[0]
    assert abs(cp.u) < 1e-6                      # critical on the zero locus
    assert cp.relation_residual < 1e-3
    assert cp.tangency_gap < 1e-2
    assert cp.is_extremum or abs(cp.genericity) <= 0.1


def _genericity_at(surface, u, v, frame=None):
    """genericity of a critical placed at (u, v): a two-sample trace whose
    d alpha / d sigma changes sign there, carrying ``frame`` (X1, X2) if
    given."""
    tr = CurveTrace(uv=np.array([[u, v], [u, v]]), positions=np.zeros((2, 3)),
                    closed=False, termination="ReachedLength",
                    alpha=np.array([0.3, 0.3]), dalpha=np.array([1.0, -1.0]),
                    frames=None if frame is None else np.array([frame]*2))
    (cp,) = darboux_critical_points(tr, surface)
    return cp.genericity


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(u=st.floats(-2.5, 2.5).filter(lambda u: abs(u) > 0.05),
       v=st.floats(-6.0, 6.0),
       flip=st.sampled_from([(-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)]))
@example(u=0.3, v=0.4, flip=(-1.0, 1.0))
@example(u=0.3, v=0.4, flip=(1.0, -1.0))
def test_darboux_genericity_does_not_depend_on_the_frame(helcat_quarter, u,
                                                         v, flip):
    # flipping X1 or X2 flips the Dupin direction V and with it the sign of
    # the derivative along V; the reported genericity is its absolute value
    s = helcat_quarter.surface
    _, _, X1, X2, _ = theta_state(s, u, v)
    gen = _genericity_at(s, u, v, (X1, X2))
    assert gen > 0.0
    flipped = _genericity_at(s, u, v, (flip[0]*X1, flip[1]*X2))
    assert abs(flipped - gen) <= 1e-12*gen


@pytest.mark.parametrize("u,v", [(0.3, 0.4), (0.7, -1.0), (-0.05, 0.3)])
def test_darboux_genericity_does_not_depend_on_the_parametrization(
        helcat_quarter, u, v):
    # the same helcat with u -> 2u: r2(u, v) = r(2u, v), so r2_u = 2 r_u,
    # r2_uu = 4 r_uu and r2_uv = 2 r_uv
    base = helcat_quarter.surface

    def jet(a, b):
        scale = (1, 2, 1, 4, 2, 1)
        return tuple(x*scale[k//3]
                     for k, x in enumerate(base.jet_raw(2*a, b)))

    stretched = SurfacePatch([(-1.5, 1.5), (-7.0, 7.0)], jet_fn=jet)
    gen = _genericity_at(base, u, v)
    assert abs(_genericity_at(stretched, u/2, v) - gen) < 1e-9*abs(gen)
    # closed form: log|theta1| + log|theta2| = 2 log|sinh s| + const, and
    # the metric-unit Dupin direction divided by mu = sech^2 s has the
    # s-component +-cosh(s) (B c1 - cos(a) c2)/(sqrt(2B) hypot(c1, c2)),
    # with c_i the cube roots of the s-free factors of theta_i (see
    # make_helcat); its sign follows the frame's
    sa = ca = np.sqrt(0.5)
    B = 1.0 + sa
    c1, c2 = np.cbrt(np.sqrt(2.0*(1.0 - sa))), np.cbrt(np.sqrt(2.0*B))
    want = (2.0/np.tanh(u)*np.cosh(u)*(B*c1 - ca*c2)
            / (np.sqrt(2.0*B)*np.hypot(c1, c2)))
    assert abs(abs(gen) - abs(want)) < 1e-6*abs(want)


def test_darboux_trace_stops_at_the_domain_boundary(helcat_quarter):
    s = helcat_quarter.surface
    tr = integrate_darboux_line(s, (2.9, 0.3), 0.7, orient=1)
    assert tr.termination == "HitBoundary" and not tr.closed
    assert len(tr) == 216
    # the last sample is inside, one step short of the edge u = 3
    assert s.contains(*tr.uv[-1]) and 3.0 - tr.uv[-1, 0] < 0.005


def test_darboux_trace_stops_near_a_singular_angle(helcat_quarter):
    tr = integrate_darboux_line(helcat_quarter.surface, (0.5, 0.3), 0.1)
    assert tr.termination == "HitSingularPoint"
    assert len(tr) == 21

    def gap(a):
        a = a % np.pi
        return min(abs(np.sin(a)), abs(np.cos(a)))

    # the trace stops at the first sample within _ANGLE_EPS of alpha = 0
    assert gap(tr.alpha[-1]) < linefields._ANGLE_EPS <= gap(tr.alpha[-2])
    assert len(tr.alpha) == len(tr.dalpha) == len(tr.frames) == 21


def test_darboux_trace_records_angles(helcat_quarter):
    s = helcat_quarter.surface
    seed = (-0.05, 0.3)
    tr = integrate_darboux_line(s, seed, _seed_alpha(s, seed),
                                max_length=0.5)
    n = len(tr.uv)
    assert len(tr.alpha) == n and len(tr.sigma) == n
    assert np.all(np.diff(tr.sigma) > 0)


def test_each_step_evaluates_four_theta_states(monkeypatch, helical_tube,
                                              helcat_quarter):
    calls = []
    orig = linefields.theta_state

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return orig(*args, **kwargs)

    monkeypatch.setattr(linefields, "theta_state", counted)
    # a closed Dupin trace: the seed state, then three stages per step and
    # the start of each later step, which serves the stop test and stage 1
    tr = integrate_dupin_line(helical_tube.surface, (0.5, 1.2))
    assert tr.closed
    assert len(calls) == 4*(len(tr) - 1)
    calls.clear()
    # a Darboux trace: the seed, then three stages and the end of each step,
    # which is the first stage of the next
    s = helcat_quarter.surface
    seed = (-0.05, 0.3)
    a0 = _seed_alpha(s, seed)
    tr = integrate_darboux_line(s, seed, a0, max_length=0.5)
    assert tr.termination == "ReachedLength"
    assert len(calls) == 1 + 4*(len(tr) - 1)

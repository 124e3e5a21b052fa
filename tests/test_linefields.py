import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import jet_vectors
from conformal import invariants, linefields
from conformal.errors import AngleDegenerate, DupinPoint, SeedIsDupinPoint
from conformal.invariants import classify_point, theta_state
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
    # inside the Dupin band, whichever way the trace runs: those steps
    # carry the direction through, and the trace closes
    s = helical_tube.surface
    h = np.pi/110
    tr = integrate_dupin_line(s, (0.5, 5*h), step=0.35*h)
    assert tr.closed
    band = [classify_point(t1, t2) == "Dupin"
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
    monkeypatch.setattr(invariants, "theta_state", edited)
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
        d = np.asarray(linefields._dupin_dir(ts))
    except DupinPoint:
        assume(False)
    _, ru, rv, *_ = jet_vectors(surface.jet_raw(u, v))

    def amb(p):
        return p[0]*ru + p[1]*rv

    assert abs(np.linalg.norm(amb(d)) - 1.0) < 1e-12
    # d turned by phi in the tangent plane: X1 and X2 are orthonormal, and
    # d = p X1 + q X2 with p^2 + q^2 = 1
    X1, X2 = np.asarray(ts[2]), np.asarray(ts[3])
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
    X1, X2 = np.asarray(X1), np.asarray(X2)
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
    monkeypatch.setattr(invariants, "theta_state", counted)
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


# --------------------------------------------------------------------------
# the float tracers against the array tracers they replaced
# --------------------------------------------------------------------------
def _array_state(surface, u, v, ref=None):
    """theta_state with X1 and X2 as 2-element arrays."""
    t1, t2, X1, X2, S = theta_state(surface, u, v, ref)
    return t1, t2, np.array(X1), np.array(X2), S


def _array_dupin_dir(state):
    t1, t2, X1, X2, _ = state
    if classify_point(t1, t2) == "Dupin":
        raise DupinPoint("")
    c1, c2 = (np.cbrt(t) for t in linefields._floor_thetas(t1, t2))
    norm = math.hypot(c1, c2)
    return None if norm == 0.0 else (c2*X1 + c1*X2) / norm


def _array_dupin_line(surface, seed, step=0.01, max_length=10.0):
    """The Dupin tracer as it stepped on numpy arrays."""
    u0, v0 = seed
    state = np.array([u0, v0], dtype=float)
    invariants._state_at(surface, u0, v0, 0.0)
    ts = _array_state(surface, u0, v0)
    try:
        prev = _array_dupin_dir(ts)
    except DupinPoint as exc:
        raise SeedIsDupinPoint(str(exc)) from exc

    def f(u, v, prev_dir):
        try:
            d = _array_dupin_dir(_array_state(surface, u, v))
        except DupinPoint:
            return prev_dir
        return -d if d @ prev_dir < 0 else d

    uv = [state.copy()]
    pos = [np.asarray(surface.point(u0, v0), dtype=float)]
    termination = "ReachedLength"
    closed = False
    in_band = False
    length = 0.0
    while length < max_length:
        try:
            k1 = _array_dupin_dir(ts)
        except DupinPoint:
            if in_band:
                termination = "HitSingularPoint"
                break
            in_band, k1 = True, prev
        else:
            in_band = False
            if linefields._turn(k1.tolist(), prev.tolist(),
                                ts[4]) > linefields._MAX_TURN:
                termination = "HitSingularPoint"
                break
            if k1 @ prev < 0:
                k1 = -k1
        h = step
        k2 = f(*(state + h/2*k1), k1)
        k3 = f(*(state + h/2*k2), k1)
        k4 = f(*(state + h*k3), k1)
        new = state + h/6*(k1 + 2*k2 + 2*k3 + k4)
        if not surface.contains(*new):
            termination = "HitBoundary"
            break
        prev = k1
        state = new
        length += h
        uv.append(state.copy())
        pos.append(np.asarray(surface.point(*state), dtype=float))
        if length > 4*step and np.linalg.norm(pos[-1] - pos[0]) < 1.5*step:
            closed, termination = True, "Closed"
            break
        ts = _array_state(surface, *state)
    return CurveTrace(uv=np.array(uv), positions=np.array(pos),
                      closed=closed, termination=termination)


def _array_darboux_line(surface, seed, alpha0, step=0.005, max_length=5.0,
                        orient=1):
    """The Darboux tracer as it stepped on numpy arrays."""
    u0, v0 = seed
    invariants._state_at(surface, u0, v0, 0.0)
    ts = _array_state(surface, u0, v0)
    ref_holder = {"ref": None}

    def rhs(state, ts=None):
        su, sv, a = state
        if ts is None:
            ts = _array_state(surface, su, sv, ref_holder["ref"])
        t1, t2, X1, X2, S = ts
        ref_holder["ref"] = (X1, X2)
        vel = np.cos(a)*X1 + np.sin(a)*X2
        dk = S["k1"] - S["k2"]
        da = dk * (t1*np.cos(a)**3 + t2*np.sin(a)**3) / \
            (12*np.sin(a)*np.cos(a))
        return orient*np.array([vel[0], vel[1], da]), dk, (t1, t2, X1, X2)

    state = np.array([u0, v0, alpha0], dtype=float)
    k1v, dk, fr = rhs(state, ts)
    uv = [state[:2].copy()]
    pos = [np.asarray(surface.point(u0, v0), dtype=float)]
    alphas = [alpha0]
    sigmas = [0.0]
    dalphas = [k1v[2]]
    frames = [np.array(fr[2:])]
    termination = "ReachedLength"
    length = 0.0
    h = step
    while length < max_length:
        k2v, _, _ = rhs(state + h/2*k1v)
        k3v, _, _ = rhs(state + h/2*k2v)
        k4v, _, _ = rhs(state + h*k3v)
        new = state + h/6*(k1v + 2*k2v + 2*k3v + k4v)
        if not surface.contains(new[0], new[1]):
            termination = "HitBoundary"
            break
        a = new[2] % np.pi
        if min(abs(np.sin(a)), abs(np.cos(a))) < linefields._ANGLE_EPS:
            termination = "HitSingularPoint"
        state = new
        length += h
        uv.append(state[:2].copy())
        pos.append(np.asarray(surface.point(*state[:2]), dtype=float))
        alphas.append(state[2])
        sigmas.append(sigmas[-1] + dk*h)
        k1v, dk, fr = rhs(new)
        dalphas.append(k1v[2])
        frames.append(np.array(fr[2:]))
        if termination == "HitSingularPoint":
            break
    closed = (len(pos) > 4
              and np.linalg.norm(pos[-1] - pos[0]) < 2*step)
    return CurveTrace(uv=np.array(uv), positions=np.array(pos),
                      closed=closed, termination=termination,
                      alpha=np.array(alphas), sigma=np.array(sigmas),
                      dalpha=np.array(dalphas), frames=np.array(frames))


def _assert_same_trace(got, want):
    assert (got.termination, bool(got.closed)) == \
        (want.termination, bool(want.closed))
    for name in ("uv", "positions", "alpha", "sigma", "dalpha", "frames"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None
            continue
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(which=st.sampled_from(["helicoid", "helcat", "catenoid", "tube"]),
       fu=st.floats(0.05, 0.95), fv=st.floats(0.05, 0.95),
       alpha0=st.floats(0.05, 1.52), orient=st.sampled_from([1, -1]),
       step=st.floats(0.004, 0.05), max_length=st.floats(0.05, 1.5))
@example(which="tube", fu=0.5, fv=0.6, alpha0=0.7, orient=1, step=0.01,
         max_length=10.0)
def test_float_tracers_match_the_array_tracers(helicoid, helcat_quarter,
                                               catenoid, helical_tube,
                                               which, fu, fv, alpha0,
                                               orient, step, max_length):
    # the same operations on the same operands in the same order: every
    # sample, every carried frame and the stop reason agree to the bit
    # (the example closes a Dupin trace on the tube)
    surface = {"helicoid": helicoid, "helcat": helcat_quarter,
               "catenoid": catenoid, "tube": helical_tube}[which].surface
    (u0, u1), (v0, v1) = surface.domain
    seed = (u0 + fu*(u1 - u0), v0 + fv*(v1 - v0))

    def both(trace, reference, *args, **kwargs):
        out = []
        for fn in (trace, reference):
            try:
                out.append(fn(surface, seed, *args, **kwargs))
            except Exception as exc:
                out.append(type(exc))
        if isinstance(out[1], type):
            assert out[0] == out[1]
        else:
            _assert_same_trace(*out)

    with np.errstate(all="ignore"):
        both(integrate_dupin_line, _array_dupin_line, step=step,
             max_length=max_length)
        both(integrate_darboux_line, _array_darboux_line, alpha0,
             step=step, max_length=max_length, orient=orient)


@pytest.mark.parametrize("a", [0.0, -0.0, np.inf, -np.inf],
                         ids=["0", "-0", "inf", "-inf"])
@pytest.mark.parametrize("dk,t1,t2", [(0.5, 0.3, -0.2), (0.5, -0.3, 0.2),
                                      (0.0, 0.3, 0.1), (0.5, 0.0, 0.2),
                                      (0.5, np.nan, 0.1)])
def test_darboux_rate_at_a_singular_angle_is_numpys(a, dk, t1, t2):
    # at sin(a) cos(a) = 0 the rate is numpy's +-inf or NaN, and at the
    # infinite angle of the stage after it cos and sin are NaN; Python
    # floats would raise ZeroDivisionError or ValueError instead
    with np.errstate(all="ignore"):
        x = np.float64(a)
        want = (np.cos(x), np.sin(x),
                dk * (t1*np.cos(x)**3 + t2*np.sin(x)**3)
                / (12*np.sin(x)*np.cos(x)))
    got = linefields._darboux_rate(a, dk, t1, t2)
    assert [type(g) for g in got] == [float]*3
    np.testing.assert_equal(got, want)


def test_a_stage_at_an_exact_zero_angle_traces_as_on_arrays(helcat_quarter):
    # a step whose second stage lands on alpha = 0 exactly: the rate there
    # is -inf, the third stage's angle is infinite and its direction NaN,
    # so the step leaves the domain (HitBoundary), as it did on arrays
    s = helcat_quarter.surface
    seed, a0 = (0.5, 0.3), 0.1
    t1, t2, _, _, S = theta_state(s, *seed)
    _, _, da = linefields._darboux_rate(a0, S["k1"] - S["k2"], t1, t2)
    h0 = -2*a0/da
    step = next(h for h in (h0 + k*math.ulp(h0) for k in range(-64, 65))
                if a0 + h/2*da == 0.0)
    with np.errstate(all="ignore"):
        want = _array_darboux_line(s, seed, a0, step=step,
                                   max_length=5*step)
    tr = integrate_darboux_line(s, seed, a0, step=step, max_length=5*step)
    assert (tr.termination, len(tr)) == ("HitBoundary", 1)
    _assert_same_trace(tr, want)


class _CountingNumpy:
    """Stands for numpy in one module: counts each attribute read."""

    def __init__(self):
        self.reads = Counter()

    def __getattr__(self, name):
        self.reads[name] += 1
        return getattr(np, name)


def test_tracers_use_no_numpy_per_step(monkeypatch, helcat_quarter,
                                       helical_tube):
    proxy = _CountingNumpy()
    monkeypatch.setattr(linefields, "np", proxy)
    orig = linefields.theta_state
    states = []

    def counted(*args, **kwargs):
        states.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(linefields, "theta_state", counted)
    s = helcat_quarter.surface
    seed = (-0.05, 0.3)
    a0 = _seed_alpha(s, seed)
    reads = []
    for max_length in (0.1, 0.5):
        proxy.reads.clear()
        tr = integrate_darboux_line(s, seed, a0, max_length=max_length)
        assert tr.termination == "ReachedLength"
        reads.append(dict(proxy.reads))
    # building the trace's arrays at its end is all the numpy it uses
    assert reads[0] == reads[1]
    reads = []
    for max_length in (0.1, 0.5):
        proxy.reads.clear()
        states.clear()
        tr = integrate_dupin_line(helical_tube.surface, (0.5, 1.2),
                                  max_length=max_length)
        assert tr.termination == "ReachedLength"
        # two cube roots per theta state's Dupin direction, which numpy
        # rounds as math.cbrt does not
        cbrt = proxy.reads.pop("cbrt")
        reads.append((cbrt - 2*len(states), dict(proxy.reads)))
    assert reads[0] == reads[1]


def test_step_limit_of_a_trace(helcat_quarter):
    # max_length/step at the limit is accepted (these traces end at the
    # domain's edge), one ulp of max_length over it is refused
    s = helcat_quarter.surface
    step = 0.05
    max_length = step*linefields._MAX_STEPS
    assert max_length/step == linefields._MAX_STEPS
    tr = integrate_darboux_line(s, (2.9, 0.3), 0.7, step=step,
                                max_length=max_length)
    assert tr.termination == "HitBoundary"
    tr = integrate_dupin_line(s, (0.4, 0.3), step=step,
                              max_length=max_length)
    assert tr.termination == "HitBoundary"
    over = np.nextafter(max_length, np.inf)
    with pytest.raises(ValueError, match="steps"):
        integrate_darboux_line(s, (2.9, 0.3), 0.7, step=step,
                               max_length=over)
    with pytest.raises(ValueError, match="steps"):
        integrate_dupin_line(s, (0.4, 0.3), step=step, max_length=over)

import numpy as np
import pytest

from conformal import linefields
from conformal.errors import SeedIsDupinPoint
from conformal.linefields import (darboux_critical_points, fit_circle,
                                  integrate_darboux_line,
                                  integrate_dupin_line)


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


def test_tube_traces_close_on_circles(helical_tube):
    for seed in [(0.5, 1.2), (1.5, 2.5), (-2.0, 0.7)]:
        tr = integrate_dupin_line(helical_tube.surface, seed)
        assert tr.closed
        c, r, resid = fit_circle(tr.positions)
        assert abs(r - 0.35) < 1e-3
        assert resid < 1e-4


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


def test_trace_stops_on_exact_zero_sample(helical_tube):
    # this seed phase makes a step land on the zero circle of the second
    # field to within the stop tolerance
    tr = integrate_dupin_line(helical_tube.surface, (0.5, 1.0))
    assert tr.termination == "HitSingularPoint"
    assert abs(tr.uv[-1, 1]) < 1e-4


def test_seed_on_degenerate_locus_rejected(helcat_quarter):
    with pytest.raises(SeedIsDupinPoint):
        integrate_dupin_line(helcat_quarter.surface, (0.0, 0.3))


def _seed_alpha(surface, seed):
    from conformal.invariants import theta_state
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

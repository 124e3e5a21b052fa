"""End-to-end acceptance checks for the toolkit's headline guarantees.

Each test exercises one externally stated behavior at its stated tolerance:
reference-table reproduction, constancy of the cyclide invariant on the
rotational/ruled family, closed-form field oracles, cyclide degeneracy,
contact orders, Mobius invariance, canal traces, fixed-angle traces,
sphere sections, the coframe realizability pipeline, and the intersection
tracer.
"""
import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import MOBIUS_PRIMITIVE, compose_mobius
from conformal.catalog import make_helcat, make_torus, make_tube
from conformal.cli import _TABLE_ROWS
from conformal.errors import DegenerateDenominator, InversionCenterOnSurface
from conformal.intersect import (component_count_oracle, difference_eval,
                                 measure_section_angle,
                                 trace_cyclide_intersection)
from conformal.invariants import (invariant_sample, psi_from_thetas,
                                  psi_invariant, theta_state)
from conformal.linefields import (darboux_critical_points, fit_circle,
                                  integrate_darboux_line,
                                  integrate_dupin_line)
from conformal.osculation import osculating_cyclide, verify_contact_order
from conformal.prescribe import (FieldGrid, helcat_grid,
                                 integrability_residuals, prescribe,
                                 structural_residuals)
from conformal.surfaces import MobiusMap, mobius_transform
from reference import bracket_residual

_TABLE_CELLS = [(name, al, s_val, ref)
                for name, al, refs in _TABLE_ROWS
                for s_val, ref in zip((0.0, 1.0, 2.0), refs)]

# Published cells that contradict the closed-form psi_c oracle.  Every row
# of the table is affine in sinh^2 s (see make_helcat); seven rows are so to
# their printed digits, and in each of the other two one cell breaks the
# line that the row's other two cells fix.
_MISPRINTS = {
    ("pi/100", 2): "closed form 3.8189 truncates to 3.81; 3.18 transposes "
                   "those digits (the row's s=0,1 cells predict about 3.9)",
    ("pi/2.01", 1): "1.79 is the pi/100, s=1 value copied over; the row's "
                    "s=0,2 cells predict 7.85",
}


# --------------------------------------------------------------------------
# 1. reference-table reproduction
# --------------------------------------------------------------------------
@pytest.mark.parametrize("name,alpha,s_val,ref",
                         _TABLE_CELLS,
                         ids=[f"{n}:s={s:g}" for n, _, s, _ in _TABLE_CELLS])
def test_reference_table_cell(name, alpha, s_val, ref):
    entry = make_helcat(alpha)
    c = osculating_cyclide(entry.surface, s_val, 0.3)
    oracle = entry.oracle["psi_c"](s_val)
    assert abs(c.psi_c - oracle) <= 1e-6*max(1.0, abs(oracle))
    bound = max(0.02, 0.02*abs(ref))
    if (name, int(s_val)) in _MISPRINTS:
        # the erratum stays visible: the printed value must still miss
        assert abs(ref - oracle) > bound, _MISPRINTS[(name, int(s_val))]
        return
    assert abs(c.psi_c - ref) <= bound


def test_reference_table_runtime_budget():
    t0 = time.perf_counter()
    for name, al, refs in _TABLE_ROWS:
        entry = make_helcat(al)
        for s_val in (0.0, 1.0, 2.0):
            osculating_cyclide(entry.surface, s_val, 0.3)
    assert time.perf_counter() - t0 < 10.0


# --------------------------------------------------------------------------
# 2. constant cyclide invariant on the ruled member
# --------------------------------------------------------------------------
def test_helicoid_cyclide_invariant_constant(helicoid):
    rng = np.random.default_rng(7)
    us = rng.uniform(-2.0, 2.0, 100)
    vs = rng.uniform(-5.0, 5.0, 100)
    vals = np.array([osculating_cyclide(helicoid.surface, u, v).psi_c
                     for u, v in zip(us, vs)])
    assert abs(vals.mean() - 1.5) < 1e-4
    assert vals.std() < 1e-4


# --------------------------------------------------------------------------
# 3. closed-form oracles across the family
# --------------------------------------------------------------------------
@pytest.mark.parametrize("alpha", [0.0, np.pi/6, np.pi/4, np.pi/3, np.pi/2])
def test_family_oracle_sweep(alpha):
    e = make_helcat(alpha)
    us = np.linspace(-2.5, 2.5, 33)
    vs = np.linspace(-6.0, 6.0, 33)
    rats = []
    for u in us:
        o1, o2 = abs(e.oracle["theta1"](u)), abs(e.oracle["theta2"](u))
        op = e.oracle["psi"](u)
        for v in vs:
            t1, t2, *_ = theta_state(e.surface, u, v)
            assert abs(abs(t1) - o1) < 1e-6
            assert abs(abs(t2) - o2) < 1e-6
            assert abs(psi_invariant(e.surface, u, v) - op) < 1e-4
            if abs(np.sinh(u)) > 0.1:
                rats.append(abs(t1/t2))
    rats = np.array(rats)
    if alpha == np.pi/2:
        assert np.max(rats) < 1e-9
    else:
        assert rats.std() < 1e-6
        assert abs(rats.mean() - e.oracle["kappa"]()) < 1e-6


# --------------------------------------------------------------------------
# 4. cyclide degeneracy on the torus
# --------------------------------------------------------------------------
def test_torus_invariants_and_degeneracy(torus):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-3.0, 3.0, (50, 2))
    for (u, v) in pts:
        t1, t2, *_ = theta_state(torus.surface, u, v)
        assert abs(t1) < 1e-6 and abs(t2) < 1e-6
        s = invariant_sample(torus.surface, u, v)
        assert np.allclose([s.a, s.b, s.c, s.d], [3.0, 0.0, 0.0, -3.0],
                           atol=1e-4)
    with pytest.raises(DegenerateDenominator):
        psi_from_thetas(torus.surface, 0.5, 0.8)


# --------------------------------------------------------------------------
# 5. contact orders of the osculating cyclide
# --------------------------------------------------------------------------
def test_contact_orders_generic_points(helcat_quarter):
    rng = np.random.default_rng(23)
    count = 0
    while count < 20:
        u = rng.uniform(-2.0, 2.0)
        v = rng.uniform(-5.0, 5.0)
        if abs(np.sinh(u)) < 0.2:
            continue
        count += 1
        c = osculating_cyclide(helcat_quarter.surface, u, v)
        assert verify_contact_order(c) == 4
        for dpc in (1.0, -1.0):
            assert verify_contact_order(
                dataclasses.replace(c, psi_c=c.psi_c + dpc)) == 3


# --------------------------------------------------------------------------
# 6. bracket identity and Mobius invariance
# --------------------------------------------------------------------------
def test_bracket_identity_catalog(helcat_quarter, helicoid, catenoid, torus,
                                  helical_tube):
    cases = [(helcat_quarter, (0.6, 0.4)), (helcat_quarter, (-1.1, 2.0)),
             (helicoid, (0.8, 1.0)), (catenoid, (0.7, 0.4)),
             (torus, (0.5, 0.8)), (torus, (-1.0, 2.0)),
             (helical_tube, (0.5, 1.2)), (helical_tube, (1.5, 2.5))]
    for entry, (u, v) in cases:
        assert abs(bracket_residual(entry.surface, u, v)) < 1e-3


def _map_battery():
    rot1 = MobiusMap.rotation(np.array(
        [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    cs = np.cos(0.4), np.sin(0.4)
    rot2 = MobiusMap.rotation(np.array(
        [[1.0, 0.0, 0.0], [0.0, cs[0], -cs[1]], [0.0, cs[1], cs[0]]]))
    trans = MobiusMap.translation([1.5, -2.0, 0.7])
    dil3 = MobiusMap.dilation(3.0)
    dil13 = MobiusMap.dilation(1.0/3.0)
    # a bare sphere inversion reverses orientation; composing with a
    # reflection restores it so the odd invariant is preserved
    inv = (MobiusMap.translation([2.5, -1.0, 4.0])
           .then(MobiusMap.inversion())
           .then(MobiusMap.rotation(np.diag([1.0, 1.0, -1.0]))))
    return [rot1, rot2, trans, dil3, dil13, inv]


@pytest.mark.parametrize("idx", range(6))
def test_mobius_invariance_battery(idx, helcat_quarter, torus):
    m = _map_battery()[idx]
    assert m.orientation_preserving
    for entry, (u, v) in [(helcat_quarter, (0.8, 0.5)),
                          (torus, (0.5, 0.8))]:
        s = entry.surface
        t1, t2, *_ = theta_state(s, u, v)
        psi = psi_invariant(s, u, v)
        moved = mobius_transform(s, m)
        t1m, t2m, *_ = theta_state(moved, u, v)
        assert abs(abs(t1m) - abs(t1)) < 1e-5
        assert abs(abs(t2m) - abs(t2)) < 1e-5
        assert abs(psi_invariant(moved, u, v) - psi) < 1e-5


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.lists(MOBIUS_PRIMITIVE, min_size=1, max_size=4))
def test_mobius_invariance_random_compositions(helcat_quarter, torus, spec):
    # an orientation-reversing map flips the normal: k1 and k2 trade
    # places, so theta1 and theta2 swap and the odd invariant psi flips sign
    m = compose_mobius(spec)
    for entry, (u, v) in [(helcat_quarter, (0.8, 0.5)),
                          (torus, (0.5, 0.8))]:
        s = entry.surface
        try:
            moved = mobius_transform(s, m)
        except InversionCenterOnSurface:
            continue
        t1, t2, *_ = theta_state(s, u, v)
        t1m, t2m, *_ = theta_state(moved, u, v)
        psi, psim = psi_invariant(s, u, v), psi_invariant(moved, u, v)
        if not m.orientation_preserving:
            t1m, t2m, psim = t2m, t1m, -psim
        assert abs(abs(t1m) - abs(t1)) < 1e-5
        assert abs(abs(t2m) - abs(t2)) < 1e-5
        assert abs(psim - psi) < 1e-5


# --------------------------------------------------------------------------
# 7. canal traces and the canal identity
# --------------------------------------------------------------------------
def test_canal_traces_and_identity(helical_tube):
    s = helical_tube.surface
    for seed in [(0.5, 1.2), (1.5, 2.5), (-2.0, 0.7)]:
        tr = integrate_dupin_line(s, seed)
        assert tr.closed
        _, r, resid = fit_circle(tr.positions)
        assert abs(r - 0.35) < 1e-3
        assert resid < 1e-4
        assert abs(psi_invariant(s, *seed) - psi_from_thetas(s, *seed)) < 1e-2


# --------------------------------------------------------------------------
# 8. fixed-angle traces and their angle criticals
# --------------------------------------------------------------------------
def test_darboux_traces_and_criticals(helcat_quarter):
    s = helcat_quarter.surface
    for v0 in np.linspace(-2.0, 2.5, 10):
        seed = (-0.05, v0)
        t1, t2, *_ = theta_state(s, *seed)
        a0 = -np.arctan(np.cbrt(-t1/t2))
        crits = []
        for orient in (1, -1):
            tr = integrate_darboux_line(s, seed, a0, max_length=1.0,
                                        orient=orient)
            crits = darboux_critical_points(tr, s)
            if crits:
                break
        assert crits
        cp = crits[0]
        assert abs(cp.u) < 1e-3
        assert cp.relation_residual < 1e-3
        assert cp.tangency_gap < 1e-2
        # every critical on this family is a genuine angle extremum (the
        # genericity quantity is a constant of the surface here)
        assert cp.is_extremum


# --------------------------------------------------------------------------
# 9. sphere sections of the osculating cyclide
# --------------------------------------------------------------------------
def test_sphere_section_angles():
    for al in (np.pi/6, np.pi/4, np.pi/3):
        assert abs(measure_section_angle(al) - 2*al) < 1e-2
    assert abs(measure_section_angle(np.pi/4) - np.pi/2) < 1e-2
    assert measure_section_angle(0.0) < 5e-2


# --------------------------------------------------------------------------
# 10. coframe realizability pipeline
# --------------------------------------------------------------------------
def test_pipeline_convergence_and_verdicts():
    t0 = time.perf_counter()
    worst_s, worst_i = [], []
    for n in (17, 33, 65):
        g = helcat_grid(np.pi/4, n)
        worst_s.append(structural_residuals(g, margin=2).worst())
        worst_i.append(integrability_residuals(g).worst())
    for w in (worst_s, worst_i):
        assert np.log2(w[0]/w[1]) > 1.8
        assert np.log2(w[1]/w[2]) > 1.8

    g0 = helcat_grid(np.pi/4, 65)
    grid, rep = prescribe(g0.kappa, g0.f2, g0.f1[:, 0], g0.x1, g0.x2)
    assert rep.extra["realizable"] == 1.0

    # a perturbed f1 breaks the compatibility conditions far beyond the
    # realizability tolerance (worst 24.3 against 0.061)
    X1, X2 = np.meshgrid(g0.x1, g0.x2, indexing="ij")
    pert = FieldGrid(x1=g0.x1, x2=g0.x2,
                     f1=grid.f1*(1.0 + 0.1*np.sin(3*X1)*np.sin(3*X2)),
                     f2=g0.f2, kappa=g0.kappa)
    assert integrability_residuals(pert).worst() > rep.extra["tol_real"]
    assert time.perf_counter() - t0 < 60.0


# --------------------------------------------------------------------------
# 11. intersection tracer vs analytic component counts
# --------------------------------------------------------------------------
def test_tracer_counts_and_vertex_accuracy():
    coeffs = (1.0, 2.0, 0.0, 3.5, 0.25, -0.5, -3.25)
    pc0 = 0.2409225992051419
    for dpsi in (0.0, 4.0, -4.0):
        pc = pc0 + dpsi
        want = component_count_oracle(coeffs, pc)
        counts = set()
        for n in (128, 256):
            cs = trace_cyclide_intersection(coeffs, pc, resolution=n)
            counts.add(cs.component_count)
            F = difference_eval(coeffs, pc)
            for pl in cs.polylines:
                assert np.max(np.abs(F(pl[:, 0], pl[:, 1]))) < 1e-9
        assert counts == {want}

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq

from conformal.errors import ResolutionTooLow, WindowTooLarge
from conformal.intersect import (_march, _stitch, component_count_oracle,
                                 difference_coeffs, difference_eval,
                                 origin_branch_directions,
                                 trace_cyclide_intersection)
from reference import (difference_eval_reference, stitch_reference,
                       trace_reference)

COEFFS = (1.0, 2.0, 0.0, 3.5, 0.25, -0.5, -3.25)
PSI_OSC = 0.2409225992051419


def _full_horner(mono, x, y):
    """F by Horner in x over Horner in y with every step done, zero
    coefficients included."""
    out = 0.0
    for i in range(4, -1, -1):
        ci = 0.0
        for j in range(4 - i, -1, -1):
            ci = ci*y + mono.get((i, j), 0.0)
        out = out*x + ci
    return out


_DEGREE_3_4 = [(i, d - i) for d in (3, 4) for i in range(d + 1)]
_weight = st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                    st.floats(-10.0, 10.0))
_coord = st.floats(-2.0, 2.0)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(weights=st.lists(_weight, min_size=9, max_size=9),
       zero_rows=st.sets(st.integers(0, 4)),
       xy=st.lists(_coord, min_size=10, max_size=10))
def test_difference_eval_matches_full_horner(weights, zero_rows, xy):
    # the skipped steps (0*y + c, + 0.0) are exact no-ops: F equals the
    # full Horner bit for bit, but for the sign of a zero, which == ignores
    from unittest import mock
    mono = {k: 0.0 if k[0] in zero_rows else w
            for k, w in zip(_DEGREE_3_4, weights)}
    with mock.patch("conformal.intersect.difference_coeffs",
                    lambda coeffs, psi_c: mono):
        F = difference_eval(COEFFS, PSI_OSC)
    x, y = np.array(xy[:5]), np.array(xy[5:])
    for a, b in ((xy[0], xy[1]), (x, y), (x.reshape(5, 1), y.reshape(5, 1))):
        got, want = F(a, b), _full_horner(mono, a, b)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


def test_difference_coeffs_structure():
    mono = difference_coeffs(COEFFS, PSI_OSC)
    assert mono[(3, 0)] == pytest.approx(COEFFS[0]/6.0)
    assert mono[(0, 3)] == pytest.approx(COEFFS[1]/6.0)
    assert mono[(2, 2)] == pytest.approx(COEFFS[2]/4.0 - PSI_OSC/6.0)


@pytest.mark.parametrize("dpsi,expected", [(0.0, 2), (4.0, 3), (-4.0, 3)])
def test_component_counts_match_oracle(dpsi, expected):
    pc = PSI_OSC + dpsi
    assert component_count_oracle(COEFFS, pc) == expected
    for n in (128, 256):
        cs = trace_cyclide_intersection(COEFFS, pc, resolution=n)
        assert cs.component_count == expected
        assert cs.origin_component_index is not None


def test_vertices_lie_on_zero_set():
    F = difference_eval(COEFFS, PSI_OSC)
    cs = trace_cyclide_intersection(COEFFS, PSI_OSC, resolution=128)
    for pl in cs.polylines:
        assert np.max(np.abs(F(pl[:, 0], pl[:, 1]))) < 1e-9


@pytest.mark.parametrize("dpsi", [0.0, 4.0, -4.0])
def test_written_vertices_are_refined_roots(dpsi):
    # polylines carry the refined edge roots, not the 9-decimal join keys
    F = difference_eval(COEFFS, PSI_OSC + dpsi)
    for n in (128, 256):
        cs = trace_cyclide_intersection(COEFFS, PSI_OSC + dpsi, resolution=n)
        xy = np.concatenate(cs.polylines)
        assert np.max(np.abs(F(xy[:, 0], xy[:, 1]))) < 1e-12


@pytest.mark.parametrize("dpsi,origin", [(0.0, 0), (4.0, 0), (-4.0, 2)])
def test_origin_component_index_on_pencil(dpsi, origin):
    # at dpsi = 0 the two halves of the curve through the origin are equally
    # near it up to roundoff, and the first keeps the origin
    for n in (64, 128, 256):
        cs = trace_cyclide_intersection(COEFFS, PSI_OSC + dpsi, resolution=n)
        assert cs.origin_component_index == origin


# --------------------------------------------------------------------------
# reference: the per-cell marching squares with two brentq calls per crossed
# edge (one from each neighbouring cell) that the sign-mask tracer replaced
# --------------------------------------------------------------------------
def _ref_edge_root(F, p0, p1):
    def g(s):
        return F(p0[0] + s*(p1[0] - p0[0]), p0[1] + s*(p1[1] - p0[1]))
    s = brentq(g, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
    return (p0[0] + s*(p1[0] - p0[0]), p0[1] + s*(p1[1] - p0[1]))


def _ref_cell_segments(F, corners, values):
    sgn = [1 if w > 0 else -1 for w in values]
    if sgn[0] == sgn[1] == sgn[2] == sgn[3]:
        return []
    pts = []
    for k in range(4):
        k2 = (k + 1) % 4
        if sgn[k] != sgn[k2]:
            pts.append(_ref_edge_root(F, corners[k], corners[k2]))
    if len(pts) == 2:
        return [(pts[0], pts[1])]
    # saddle: the asymptotic decider.  When F at the bilinear interpolant's
    # saddle point has the sign of c0, c0 and c2 connect across the cell and
    # the zero set cuts off c1 (edges 0, 1) and c3 (edges 2, 3)
    f00, f10, f11, f01 = values
    den = f00 + f11 - f10 - f01
    (x0, y0), (x1, y1) = corners[0], corners[2]
    centre = F(x0 + (f00 - f01)/den*(x1 - x0), y0 + (f00 - f10)/den*(y1 - y0))
    if (centre > 0) == (f00 > 0):
        return [(pts[0], pts[1]), (pts[2], pts[3])]
    return [(pts[0], pts[3]), (pts[1], pts[2])]


def _ref_cells(F, xs, ys):
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            cs = [(xs[i], ys[j]), (xs[i+1], ys[j]),
                  (xs[i+1], ys[j+1]), (xs[i], ys[j+1])]
            yield i, j, cs, [F(*p) for p in cs]


def _reference_trace(coeffs, psi_c, resolution):
    F = difference_eval(coeffs, psi_c)
    cells = resolution + 1 if resolution % 2 == 0 else resolution
    xs = np.linspace(-1.0, 1.0, cells + 1)
    i0 = int(np.searchsorted(xs, 0.0)) - 1
    segments = []
    for i, j, cs, vals in _ref_cells(F, xs, xs):
        if i == i0 and j == i0:
            sub = np.linspace(xs[i], xs[i+1], 5)
            for _, _, cs2, v2 in _ref_cells(F, sub, sub):
                segments.extend(_ref_cell_segments(F, cs2, v2))
        else:
            segments.extend(_ref_cell_segments(F, cs, vals))
    r_cut = 0.45*(xs[1] - xs[0])
    segments = [s for s in segments
                if max(np.hypot(*s[0]), np.hypot(*s[1])) > r_cut]
    return stitch_reference(segments)


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(dpsi=st.floats(-6.0, 6.0), resolution=st.sampled_from([64, 128, 256]))
def test_sign_mask_tracer_matches_per_cell_reference(dpsi, resolution):
    pc = PSI_OSC + dpsi
    cs = trace_cyclide_intersection(COEFFS, pc, resolution=resolution)
    ref_pl, ref_comp, ref_count = _reference_trace(COEFFS, pc, resolution)
    assert cs.component_count == ref_count == component_count_oracle(COEFFS,
                                                                      pc)
    assert cs.component_of_polyline == ref_comp
    assert [len(p) for p in cs.polylines] == [len(p) for p in ref_pl]
    for got, want in zip(cs.polylines, ref_pl):
        assert np.max(np.abs(got - want)) < 1e-9


# canonical 7-tuples whose quartic block stays below the quadratic one on
# the unit window: sum |a/24, b/6, psi/4, c/6, d/24| <= 0.25 + 0.1333 + 0.1
_canonical = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                       st.floats(-0.4, 0.4), st.floats(-3.0, 3.0),
                       st.floats(-0.4, 0.4), st.floats(-0.4, 0.4),
                       st.floats(-3.0, 3.0))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(coeffs=_canonical, psi_c=st.floats(-6.0, 6.0),
       resolution=st.sampled_from([64, 128, 256]))
@example(coeffs=COEFFS, psi_c=PSI_OSC, resolution=256)
# differences of x alone (F = x^3/6, then x^4/24, which keeps its sign) or
# of y alone (F = y^3/6): F on the grid's broadcast axes keeps one axis
@example(coeffs=(1.0, 0.0, 0.0, 3.0, 0.0, 0.0, -3.0), psi_c=0.0,
         resolution=64)
@example(coeffs=(0.0, 0.0, 0.0, 4.0, 0.0, 0.0, -3.0), psi_c=0.0,
         resolution=128)
@example(coeffs=(0.0, 1.0, 0.0, 3.0, 0.0, 0.0, -3.0), psi_c=0.0,
         resolution=256)
def test_trace_matches_two_march_tuple_key_reference(coeffs, psi_c,
                                                     resolution):
    # one bisection for both grids and the integer-id stitch give the
    # polylines, labels, count and origin index of two marches and a stitch
    # on tuple keys, bit for bit
    cs = trace_cyclide_intersection(coeffs, psi_c, resolution=resolution)
    assume(not cs.degenerate)
    ref_pl, ref_comp, ref_count, ref_origin = trace_reference(
        coeffs, psi_c, resolution)
    assert len(cs.polylines) == len(ref_pl)
    assert all(np.array_equal(got, want)
               for got, want in zip(cs.polylines, ref_pl))
    assert cs.component_of_polyline == ref_comp
    assert cs.component_count == ref_count
    assert cs.origin_component_index == ref_origin
    # F's Horner steps in place, on the grid's broadcast axes, on its
    # meshgrid and on points along one axis: every step a new array's floats
    F, ref = (make(coeffs, psi_c) for make in (difference_eval,
                                               difference_eval_reference))
    xs = np.linspace(-1.0, 1.0, resolution + 2 - resolution % 2)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    for x, y in ((xs[:, None], xs[None, :]), (X, Y), (xs, xs[::-1])):
        assert np.array_equal(F(x, y), ref(x, y))


_LOOP = [((0.0, 0.0), (1.0, 0.0)), ((1.0, 0.0), (1.0, 1.0)),
         ((1.0, 1.0), (0.0, 1.0)), ((0.0, 1.0), (0.0, 0.0))]


@pytest.mark.parametrize("segments", [
    [],
    # a zero-length segment (its ends share a key) beside a real one
    [((0.5, 0.5), (0.5 + 1e-12, 0.5)), ((0.0, 0.0), (1.0, 1.0))],
    # a figure eight: two loops through (0, 0), a vertex of degree 4
    [((0.0, 0.0), (1.0, 1.0)), ((1.0, 1.0), (2.0, 0.0)),
     ((2.0, 0.0), (1.0, -1.0)), ((1.0, -1.0), (0.0, 0.0)),
     ((0.0, 0.0), (-1.0, 1.0)), ((-1.0, 1.0), (-2.0, 0.0)),
     ((-2.0, 0.0), (-1.0, -1.0)), ((-1.0, -1.0), (0.0, 0.0))],
    # an open path listed out of order, its shared ends 1e-12 apart
    [((2.0, 0.0), (3.0, 1.0)), ((0.0, 0.0), (1.0, 0.5)),
     ((1.0, 0.5 + 1e-12), (2.0, 0.0))],
    _LOOP,
    # a closed loop, an open path apart from it, and a repeated segment
    _LOOP + [((5.0, 5.0), (6.0, 5.0)), ((6.0, 5.0), (5.0, 5.0))],
], ids=["empty", "zero-length", "figure-eight", "open-path", "closed-loop",
        "two-components"])
def test_stitch_edge_cases_match_tuple_key_reference(segments):
    got_pl, got_comp, got_count = _stitch(np.array(segments))
    want_pl, want_comp, want_count = stitch_reference(segments)
    assert len(got_pl) == len(want_pl)
    assert all(np.array_equal(g, w) for g, w in zip(got_pl, want_pl))
    assert (got_comp, got_count) == (want_comp, want_count)


def test_join_keys_round_as_python_round_does():
    # np.round scales (rint(x*1e9)/1e9) and can differ from the correctly
    # rounded round(x, 9) only within an ulp of a half-way point: on the
    # pencil's traces no endpoint coordinate does
    from unittest import mock
    seen = []

    def spy(segs):
        seen.append(np.array(segs).ravel())
        return _stitch(segs)

    with mock.patch("conformal.intersect._stitch", spy):
        for dpsi in (0.0, 4.0, -4.0):
            trace_cyclide_intersection(COEFFS, PSI_OSC + dpsi, resolution=256)
    xs = np.concatenate(seen)
    assert len(xs) > 5000
    assert np.array_equal(np.round(xs, 9), [round(x, 9) for x in xs.tolist()])


def _bilinear(vals):
    f00, f10, f11, f01 = vals

    def F(x, y):
        return (f00*(1 - x)*(1 - y) + f10*x*(1 - y) + f11*x*y
                + f01*(1 - x)*y)
    return F


@pytest.mark.parametrize("code,centre", [(c, -1.0) for c in range(1, 15)]
                         + [(5, 1.0), (10, 1.0)])
def test_case_table_matches_reference_cell(code, centre):
    # one cell with corner signs from the bits of ``code``; on a saddle
    # (codes 5 and 10) the corners of the sign of ``centre`` weigh 3, so the
    # bilinear F below has that sign at the cell centre
    signs = [1.0 if (code >> k) & 1 else -1.0 for k in range(4)]
    vals = [3.0*s if code in (5, 10) and s == centre else s for s in signs]
    F = _bilinear(vals)
    xs = np.array([0.0, 1.0])
    want = _ref_cell_segments(F, [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0),
                                  (0.0, 1.0)], vals)
    [(got, cell)] = _march(F, [(xs, xs, None)])
    assert len(got) == len(want) == (2 if code in (5, 10) else 1)
    assert np.allclose(got, np.array(want), atol=1e-15)
    assert list(cell) == [0]*len(want)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(mags=st.lists(st.floats(0.01, 10.0), min_size=4, max_size=4),
       code=st.sampled_from([5, 10]))
# corners (3, -1, 3, -1), saddle point (1/2, 1/2): the old pairing's segment
# from (3/4, 0) to (0, 3/4) crossed an asymptote; F at its midpoint is 9/8
@example(mags=[3.0, 1.0, 3.0, 1.0], code=5)
def test_saddle_segments_stay_in_one_asymptote_quadrant(mags, code):
    # the zero set of a bilinear F is a hyperbola whose asymptotes cross at
    # its saddle point, and each branch lies in one quadrant of them: both
    # ends of each segment do too (unless the hyperbola degenerates into
    # its asymptotes)
    vals = [m if (code >> k) & 1 else -m for k, m in enumerate(mags)]
    f00, f10, f11, f01 = vals
    assume(abs(f00*f11 - f10*f01) > 1e-3*max(abs(f00*f11), abs(f10*f01)))
    den = f00 + f11 - f10 - f01
    sx, sy = (f00 - f01)/den, (f00 - f10)/den
    xs = np.array([0.0, 1.0])
    [(got, _)] = _march(_bilinear(vals), [(xs, xs, None)])
    assert len(got) == 2
    for (ax, ay), (bx, by) in got:
        assert (ax - sx)*(bx - sx) > 0 and (ay - sy)*(by - sy) > 0


# a pencil member (not the benchmark's) whose trace at 128 reaches one saddle
# cell: the old pairing gave 5 components there, the oracle counts 4
SADDLE_COEFFS = (-0.87, 0.08, 0.0, 0.2, 0.76, 0.32, 1.77)
SADDLE_PSI_C = 6.06


def test_trace_through_a_saddle_cell_matches_oracle():
    F = difference_eval(SADDLE_COEFFS, SADDLE_PSI_C)
    xs = np.linspace(-1.0, 1.0, 130)
    codes = [sum(1 << k for k, w in enumerate(vals) if w > 0)
             for _, _, _, vals in _ref_cells(F, xs, xs)]
    assert codes.count(5) + codes.count(10) == 1
    cs = trace_cyclide_intersection(SADDLE_COEFFS, SADDLE_PSI_C,
                                    resolution=128)
    assert cs.component_count == 4 == component_count_oracle(SADDLE_COEFFS,
                                                              SADDLE_PSI_C)
    ref_pl, ref_comp, _ = _reference_trace(SADDLE_COEFFS, SADDLE_PSI_C, 128)
    assert cs.component_of_polyline == ref_comp
    assert [len(p) for p in cs.polylines] == [len(p) for p in ref_pl]
    for got, want in zip(cs.polylines, ref_pl):
        assert np.max(np.abs(got - want)) < 1e-9


def test_degenerate_difference_detected():
    coeffs = (0.0, 0.0, 2*PSI_OSC/3, 3.0, 0.0, 0.0, -3.0)
    cs = trace_cyclide_intersection(coeffs, PSI_OSC)
    assert cs.degenerate
    assert cs.polylines == []


def test_window_validity_check():
    with pytest.raises(WindowTooLarge):
        trace_cyclide_intersection(COEFFS, PSI_OSC + 4.0, window=1.2)


@pytest.mark.parametrize("k,value", [(3, np.nan), (0, np.inf),
                                     (6, -np.inf)])
def test_non_finite_coeffs_rejected(k, value):
    # a NaN weight made F NaN everywhere: an empty set, not degenerate, 0
    # components; theta1 = inf gave 2 components
    coeffs = list(COEFFS)
    coeffs[k] = value
    with pytest.raises(ValueError, match="7 finite numbers"):
        trace_cyclide_intersection(tuple(coeffs), PSI_OSC)


def test_resolution_floor():
    with pytest.raises(ResolutionTooLow):
        trace_cyclide_intersection(COEFFS, PSI_OSC, resolution=8)


def test_origin_branch_direction():
    dirs = origin_branch_directions(COEFFS, PSI_OSC)
    want = np.pi - np.arctan(np.cbrt(COEFFS[0]/COEFFS[1]))
    assert len(dirs) == 1
    assert abs(dirs[0] - want) < 1e-9

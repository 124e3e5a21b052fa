"""Intersection curves of a canonical-form surface with the cyclide pencil,
and the tangent-sphere section-angle law.

Both surfaces are quartic graphs over the common tangent plane; their
difference F(x, y) has no quadratic part, so the zero set near the origin is
governed by the cubic (and, at special parameter values, quartic) terms.
Curves are extracted by marching squares on numpy sign masks, of the grid
and of a 4x4 subdivision of its origin cell, because F vanishes to order
>= 3 there.  Every edge of either grid whose end values differ in sign is
refined once by one bisection to machine precision, all such edges of both
grids together, and each cell's segments come from one case table.  The
segments are joined into polylines on integer vertex ids, one per endpoint
rounded to 9 decimals.

The tracer needs numpy only, and importing this module loads no scipy.
scipy is imported on first use by the paths that need it:
``component_count_oracle`` (``scipy.ndimage.label``), and
``origin_branch_directions`` and ``measure_section_angle``
(``scipy.optimize.brentq``, through this module's ``brentq``).  Nothing here
imports sympy.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import ResolutionTooLow, WindowTooLarge
from .osculation import cyclide_monomials, normal_form_monomials

__all__ = [
    "PlanarCurveSet", "difference_coeffs", "difference_eval",
    "check_window", "trace_cyclide_intersection", "component_count_oracle",
    "origin_branch_directions", "measure_section_angle",
]


@dataclass
class PlanarCurveSet:
    """Zero-set polylines of the surface-cyclide difference in the tangent
    plane."""
    polylines: List[np.ndarray]     # each (m, 2)
    origin_component_index: Optional[int]
    component_count: int
    component_of_polyline: List[int]
    degenerate: bool                # F identically zero (surface IS cyclide)


# --------------------------------------------------------------------------
# the difference polynomial
# --------------------------------------------------------------------------
def difference_coeffs(coeffs, psi_c):
    """Coefficients of F = z_surface - z_cyclide as a dict of monomials.

    ``coeffs`` is the canonical 7-tuple (theta1, theta2, psi, a, b, c, d)
    of :func:`conformal.osculation.normal_form_monomials`; the quadratic
    parts coincide and cancel.
    """
    cyc = cyclide_monomials(psi_c)
    return {k: w - cyc.get(k, 0.0)
            for k, w in normal_form_monomials(*coeffs).items()
            if k[0] + k[1] > 2}


def difference_eval(coeffs, psi_c):
    """F(x, y) = z_surface - z_cyclide at points x, y of one shape (or at
    scalars), by Horner in x over polynomials in y, also by Horner: few
    temporaries and no pow (numpy's x**3 and x**4 call pow per element).
    The steps that are exact no-ops, 0*y + c and + 0.0, are skipped: they
    could change only the sign of a zero.  Once the x steps' array has the
    shape of the points, they run in place on it."""
    mono = difference_coeffs(coeffs, psi_c)
    # rows[k]: the coefficients of x^(4-k) y^j, highest j first
    rows = [[mono.get((i, j), 0.0) for j in range(4 - i, -1, -1)]
            for i in range(4, -1, -1)]

    def F(x, y):
        whole = np.broadcast_shapes(np.shape(x), np.shape(y))
        out = None                      # None: still exactly 0
        for row in rows:
            ci = None
            for c in row:
                if ci is not None:
                    ci = ci*y
                if c:
                    ci = c if ci is None else ci + c
            # out is an array F made, never x, y or a caller's array
            own = np.ndim(out) > 0 and np.shape(out) == whole
            if out is not None:
                out = np.multiply(out, x, out=out) if own else out*x
            if ci is not None:
                out = ci if out is None else (
                    np.add(out, ci, out=out) if own else out + ci)
        return 0.0*(x*y) if out is None else out
    return F


def check_window(coeffs, window: float):
    """Truncation-validity check: the quartic block of the canonical graph
    (the sum of its |weights|) must stay below the quadratic one at the
    window edge.  A window whose fourth power leaves the float range is too
    large whatever the weights."""
    mono = normal_form_monomials(*coeffs)
    q4 = sum(abs(w) for (i, j), w in mono.items() if i + j == 4)
    q2 = mono[(2, 0)]
    try:
        w4 = window**4
    except OverflowError:
        raise WindowTooLarge(f"window {window}: window^4 overflows") from None
    if q4 * w4 >= q2 * window**2:
        raise WindowTooLarge(
            f"quartic bound {q4*w4:.3g} >= quadratic {q2*window**2:.3g} "
            f"at window {window}")


# --------------------------------------------------------------------------
# marching squares on a sign mask
# --------------------------------------------------------------------------
# Cell (i, j) has corners c0..c3 = (i, j), (i+1, j), (i+1, j+1), (i, j+1), and
# edge k joins c_k to c_(k+1 mod 4).  Row ``code + 16*centre`` of the table
# lists a cell's segments as pairs of crossed edges, where bit k of ``code``
# says c_k > 0 and ``centre`` says F is at the cell's saddle point (see
# _march); -1 pads the second slot.  Only the saddle codes 5 and 10 depend
# on the centre.  A centre of the sign of c0 joins c0 to c2 across the
# cell, so the zero set cuts off c1 and c3: it pairs (0, 1) with (2, 3),
# otherwise (0, 3) with (1, 2).
def _case_table():
    table = np.full((32, 2, 2), -1)
    for row in range(32):
        code, centre = row % 16, row // 16
        pos = [(code >> k) & 1 for k in range(4)]
        crossed = [k for k in range(4) if pos[k] != pos[(k + 1) % 4]]
        if len(crossed) == 4:
            crossed = [0, 1, 2, 3] if centre == pos[0] else [0, 3, 1, 2]
        table[row].flat[:len(crossed)] = crossed
    return table


_CASES = _case_table()
# 64 halvings shrink an edge of length h to h*2^-64: adjacent floats for
# every root larger than about h*2^-12 in magnitude, and an error below
# h*2^-64 for the rest
_BISECTIONS = 64


def _bisect(F, lo, hi, pos_lo):
    """Zeros of F on many grid edges at once.

    Edge k runs from point ``lo[:, k]`` to point ``hi[:, k]`` (columns of
    (2, n) arrays), and ``pos_lo[k]`` says F > 0 at ``lo[:, k]`` and not at
    ``hi[:, k]``.  Each bracket is halved ``_BISECTIONS`` times (the
    coordinate an edge keeps fixed stays exact), and the end with the
    smaller |F| is returned, as a row of an (n, 2) array.
    """
    for _ in range(_BISECTIONS):
        mid = 0.5*(lo + hi)
        up = (F(*mid) > 0) == pos_lo
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return np.where(np.abs(F(*lo)) <= np.abs(F(*hi)), lo, hi).T


def _march(F, grids):
    """Marching-squares segments of the zero set of F on each of ``grids``.

    Each grid is a triple (xs, ys, skip): the grid xs x ys, and a cell
    (i, j) to leave out, or None.  F is evaluated once a grid, on the
    broadcast axes and broadcast to the grid (an F of x or y alone keeps one
    axis); a grid point counts as positive when F > 0 there.  Each edge
    whose ends differ is refined once, by one :func:`_bisect` call for all
    the grids, and both of its cells share that root.  Returns
    a pair per grid: its segments as an (m, 2, 2) array of endpoints in
    row-major cell order, and the flat index of each segment's cell."""
    lo, hi, pos_lo, found, base = [], [], [], [], 0
    for xs, ys, skip in grids:
        f = np.broadcast_to(F(xs[:, None], ys[None, :]), (len(xs), len(ys)))
        pos = f > 0
        cross_x = pos[:-1, :] != pos[1:, :]                # edges along x
        cross_y = pos[:, :-1] != pos[:, 1:]                # edges along y
        ix, jx = divmod(np.flatnonzero(cross_x), len(ys))
        iy, jy = divmod(np.flatnonzero(cross_y), len(ys) - 1)
        i, j = np.concatenate([ix, iy]), np.concatenate([jx, jy])
        along_x = np.arange(len(i)) < len(ix)
        lo.append([xs[i], ys[j]])
        hi.append([xs[i + along_x], ys[j + ~along_x]])
        pos_lo.append(pos[i, j])
        root_x = np.full(cross_x.shape, -1)
        root_x[ix, jx] = base + np.arange(len(ix))
        root_y = np.full(cross_y.shape, -1)
        root_y[iy, jy] = base + len(ix) + np.arange(len(iy))
        base += len(i)
        # a cell whose corners differ crosses one of its edges 0, 1 and 2:
        # were none of them crossed, c0 = c1 = c2 = c3
        mixed = cross_x[:, :-1] | cross_y[1:, :] | cross_x[:, 1:]
        if skip is not None:
            mixed[skip] = False
        cell = np.flatnonzero(mixed)
        ci, cj = divmod(cell, len(ys) - 1)
        code = (pos[ci, cj] + 2*pos[ci + 1, cj] + 4*pos[ci + 1, cj + 1]
                + 8*pos[ci, cj + 1])
        saddle = (code == 5) | (code == 10)
        # the asymptotic decider: the asymptotes of the cell's bilinear
        # interpolant cross at its saddle point, strictly inside a saddle
        # cell (the denominator has the strict sign of f00), and the sign of
        # F there says which diagonal corners connect.  On a bilinear F that
        # is the sign of the saddle value (f00 f11 - f10 f01)/(f00 + f11 -
        # f10 - f01)
        si, sj = ci[saddle], cj[saddle]
        f00, f10, f11, f01 = (f[si, sj], f[si + 1, sj], f[si + 1, sj + 1],
                              f[si, sj + 1])
        den = f00 + f11 - f10 - f01
        code[saddle] += 16*(F(xs[si] + (f00 - f01)/den*(xs[si + 1] - xs[si]),
                              ys[sj] + (f00 - f10)/den*(ys[sj + 1] - ys[sj]))
                            > 0)
        edge_root = np.stack([root_x[ci, cj], root_y[ci + 1, cj],
                              root_x[ci, cj + 1], root_y[ci, cj]], axis=1)
        pairs = _CASES[code]                            # (m, 2 slots, 2)
        ends = np.take_along_axis(edge_root,
                                  pairs.reshape(len(code), 4) % 4,
                                  axis=1).reshape(-1, 2)
        used = pairs.reshape(-1, 2)[:, 0] >= 0
        found.append((ends[used], np.repeat(cell, 2)[used]))
    roots = _bisect(F, np.hstack(lo), np.hstack(hi), np.concatenate(pos_lo))
    return [(roots[ends], cell) for ends, cell in found]


# endpoints closer than this are one vertex to _stitch (9 decimals)
_JOIN_TOL = 1e-9


def _stitch(segments):
    """Join segments into polylines by shared endpoints; return polylines
    plus a component label per polyline (components join wherever any vertex
    is shared, including self-crossings).

    ``segments`` holds (m, 2, 2) endpoints.  Endpoints are one vertex where
    their coordinates rounded to 9 decimals agree, and vertex ids rank the
    rounded pairs lexicographically.  ``np.round`` scales, as
    ``rint(x*1e9)/1e9``, so it can differ from Python's correctly rounded
    ``round(x, 9)`` only within an ulp of a half-way point.  A segment whose
    ends are one vertex is dropped, and segments between the same two
    vertices are one edge.  Walks start at odd-degree vertices (open curve
    ends), then at any vertex with an edge left, each in id order, and leave
    a vertex by its first unused edge in segment order.  Polylines carry
    each vertex's first endpoint, unrounded."""
    segs = np.asarray(segments, dtype=float).reshape(-1, 2, 2)
    keys = np.round(segs, 9)
    keep = (keys[:, 0] != keys[:, 1]).any(axis=1)
    pts, keys = segs[keep].reshape(-1, 2), keys[keep].reshape(-1, 2)
    # endpoint order[r] has rank r: a run of equal keys is one vertex, and
    # the stable sort puts its first endpoint in segment order first
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    ranked = keys[order]
    new = (np.diff(ranked, axis=0, prepend=np.nan) != 0).any(axis=1)
    vid = np.empty_like(order)
    vid[order] = np.cumsum(new) - 1
    start = np.flatnonzero(new)
    nv = len(start)
    a, b = vid[0::2], vid[1::2]
    # in rank order: each endpoint's edge, one id per vertex pair, and the
    # vertex at its other end
    edge = (np.minimum(a, b)*nv + np.maximum(a, b))[order >> 1].tolist()
    nbr = vid[order ^ 1].tolist()
    nxt, end = start.tolist(), start[1:].tolist() + [len(order)]
    used = set()

    def free(v):
        # advance v's first unused edge, nxt[v]; False once it has none
        while nxt[v] < end[v] and edge[nxt[v]] in used:
            nxt[v] += 1
        return nxt[v] < end[v]

    chains = []
    odd = [v for v in range(nv) if (end[v] - nxt[v]) % 2]
    for v in odd + list(range(nv)):
        while free(v):
            chain = [v]
            while free(chain[-1]):
                i = nxt[chain[-1]]
                used.add(edge[i])
                chain.append(nbr[i])
            chains.append(chain)
    root = list(range(nv))

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for u, w in zip(a.tolist(), b.tolist()):
        root[find(w)] = find(u)
    labels = {}
    comp_of = [labels.setdefault(find(c[0]), len(labels)) for c in chains]
    first = pts[order[new]]
    return [first[c] for c in chains], comp_of, len(labels)


def trace_cyclide_intersection(coeffs, psi_c: float, window: float = 1.0,
                               resolution: int = 128) -> PlanarCurveSet:
    """Extract the zero curves of F = z_surface - z_cyclide on
    [-window, window]^2.

    ``coeffs`` is the canonical 7-tuple (theta1, theta2, psi, a, b, c, d).
    The grid count must be even so no gridline passes through the origin,
    where F is degenerate; the cell containing the origin is subdivided 4x.
    Returns a degenerate flag instead of curves when F vanishes identically.

    Component counting convention: the origin belongs to the zero set of
    every member of the pencil and F vanishes there to order >= 3, so
    connectivity *through* the origin is not resolvable at truncation order;
    components are counted with the origin removed (curves through the
    origin count one branch per side), matching the dense sign-sampling
    oracle.  Branch structure at the origin itself is reported separately by
    :func:`origin_branch_directions`.  Raises ValueError unless ``window``
    is finite and positive, ``psi_c`` is finite and ``coeffs`` are 7
    finite numbers.
    """
    if not (np.isfinite(window) and window > 0):
        raise ValueError(f"window must be finite and positive, got {window!r}")
    if not np.isfinite(psi_c):
        raise ValueError(f"psi_c must be finite, got {psi_c!r}")
    if len(coeffs) != 7 or not np.isfinite(coeffs).all():
        raise ValueError(f"coeffs must be 7 finite numbers, got {coeffs!r}")
    if resolution < 16:
        raise ResolutionTooLow(f"resolution {resolution} < 16")
    # an odd cell count gives an even number of grid points, so no gridline
    # passes through the origin where F is degenerate
    cells = resolution + 1 if resolution % 2 == 0 else resolution
    mono = difference_coeffs(coeffs, psi_c)
    if all(abs(wt) < 1e-14 for wt in mono.values()):
        return PlanarCurveSet(polylines=[], origin_component_index=None,
                              component_count=0, component_of_polyline=[],
                              degenerate=True)
    check_window(coeffs, window)
    F = difference_eval(coeffs, psi_c)
    xs = np.linspace(-window, window, cells + 1)
    h = xs[1] - xs[0]
    # origin cell indices (origin strictly inside: grid point count is even)
    i0 = int(np.searchsorted(xs, 0.0)) - 1
    sub = np.linspace(xs[i0], xs[i0 + 1], 5)
    (segs, cell), (inner, _) = _march(F, [(xs, xs, (i0, i0)),
                                          (sub, sub, None)])
    k = int(np.searchsorted(cell, i0*cells + i0))
    segs = np.concatenate([segs[:k], inner, segs[k:]])
    # cut the zero set at the origin (see docstring): drop segments whose
    # endpoints both fall inside a sub-cell-sized disk around it
    r_cut = 0.45 * h
    segs = segs[np.hypot(segs[..., 0], segs[..., 1]).max(axis=1) > r_cut]
    polylines, comp_of, ncomp = _stitch(segs)
    origin_idx, best = None, np.inf
    for idx, pl in enumerate(polylines):
        dmin = float(np.min(np.hypot(pl[:, 0], pl[:, 1])))
        # distances within the join tolerance tie, and the first polyline
        # keeps the origin (the two halves of a curve through the origin
        # differ only by roundoff)
        if dmin < min(best - _JOIN_TOL, 1.5*h):
            best = dmin
            origin_idx = comp_of[idx]
    return PlanarCurveSet(polylines=polylines,
                          origin_component_index=origin_idx,
                          component_count=ncomp,
                          component_of_polyline=comp_of,
                          degenerate=False)


def component_count_oracle(coeffs, psi_c: float) -> int:
    """Brute-force component count on [-1, 1]^2: dense sign sampling (1601
    points a side) and labeling of the sign-change mask with
    8-connectivity.

    Blind spot: the sample axis contains 0.0 exactly, so a zero set that
    lies on a coordinate axis has sign 0 at every sample on it and shows
    no sign change there.  On F = x^3/6 or y^3/6 it reads 0 components
    where, with the origin removed, there are 2."""
    F = difference_eval(coeffs, psi_c)
    xs = np.linspace(-1.0, 1.0, 1601)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    s = np.sign(F(X, Y))
    m = np.zeros_like(s, dtype=bool)
    m[:-1, :] |= s[:-1, :]*s[1:, :] < 0
    m[:, :-1] |= s[:, :-1]*s[:, 1:] < 0
    from scipy import ndimage
    _, ncomp = ndimage.label(m, structure=np.ones((3, 3)))
    return int(ncomp)


def brentq(f, a: float, b: float) -> float:
    """``scipy.optimize.brentq``, imported on the first call: only
    :func:`origin_branch_directions` and :func:`measure_section_angle` need
    a scalar root finder, and importing scipy.optimize costs more than a
    whole trace."""
    from scipy.optimize import brentq as _brentq
    return _brentq(f, a, b)


def origin_branch_directions(coeffs, psi_c: float):
    """Tangent directions of the zero set at the origin from the lowest
    nonvanishing homogeneous part of F: angles phi in [0, pi) where the part
    vanishes on the unit circle (weights up to 1e-12 count as zero)."""
    mono = difference_coeffs(coeffs, psi_c)
    for deg in (3, 4):
        part = {k: wt for k, wt in mono.items()
                if k[0] + k[1] == deg and abs(wt) > 1e-12}
        if part:
            break
    else:
        return []
    phis = np.linspace(0.0, np.pi, 1801, endpoint=False)

    def p(phi):
        cx, sx = np.cos(phi), np.sin(phi)
        return sum(wt * cx**i * sx**j for (i, j), wt in part.items())

    vals = list(p(phis))
    grid = list(phis)
    # close the scan at pi: directions are mod pi, and an odd-degree part
    # flips sign across it
    vals.append(-vals[0] if deg % 2 else vals[0])
    grid.append(np.pi)
    roots = []
    for k in range(len(grid) - 1):
        a_, b_ = vals[k], vals[k + 1]
        if a_ == 0.0:
            roots.append(grid[k])
        elif a_*b_ < 0:
            roots.append(brentq(p, grid[k], grid[k + 1]))
    return sorted(r % np.pi for r in roots)


# --------------------------------------------------------------------------
# tangent-sphere sections
# --------------------------------------------------------------------------
def measure_section_angle(alpha: float) -> float:
    """Numerically measured branch-crossing angle at the origin.

    Intersects the tangent sphere of normal curvature
    k = cos^2(alpha) k1 + sin^2(alpha) k2 with the canonical quadratic
    z = (x^2 - y^2)/2 (k1 = 1, k2 = -1) and measures the angle between the
    two zero-branch lines on the circle of radius 1e-3.
    Tangential (cusp-type) intersections, where the difference does not
    change sign, report the angle between the |difference|-minimizing
    directions (0 for a cusp).
    """
    radius = 1e-3
    k = np.cos(alpha)**2 - np.sin(alpha)**2

    def G(x, y):
        r2 = x*x + y*y
        if abs(k) < 1e-14:
            zs = 0.0
        else:
            zs = (1.0 - np.sqrt(1.0 - k*k*r2)) / k
        return 0.5*(x*x - y*y) - zs

    phis = np.linspace(0.0, 2*np.pi, 2001, endpoint=False)
    vals = np.array([G(radius*np.cos(p), radius*np.sin(p)) for p in phis])
    roots = []
    for i in range(len(phis)):
        j = (i + 1) % len(phis)
        if vals[i] == 0.0:
            roots.append(phis[i])
        elif vals[i]*vals[j] < 0:
            lo = phis[i]
            hi = phis[i] + 2*np.pi/2001
            roots.append(brentq(
                lambda p: G(radius*np.cos(p), radius*np.sin(p)), lo, hi))
    lines = sorted({round(r % np.pi, 6) for r in roots})
    if len(lines) < 2:
        # tangential contact: take the two |G|-minimizing directions
        half = vals[:1000 + 1]
        idx = np.argsort(np.abs(half))[:2]
        lines = sorted(set(np.round(phis[idx] % np.pi, 6)))
        if len(lines) < 2:
            return 0.0
    # crossing angle: separation of the two branch lines measured across the
    # first-principal-direction axis (phi = 0), so an obtuse crossing is not
    # folded to its supplement
    folded = [ln if ln <= np.pi/2 else ln - np.pi for ln in lines[:2]]
    pos = [f for f in folded if f >= 0]
    neg = [f for f in folded if f < 0]
    if pos and neg:
        return min(pos) - max(neg)
    gap = abs(folded[1] - folded[0])
    return min(gap, np.pi - gap)

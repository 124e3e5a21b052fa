"""Reference code only the tests run: a sympy jet compiler, the numpy
chain rule of a Mobius map, the inversion-center check sampled point by
point, the Willmore energy, the commutator identity, the isothermic
criterion, the intersection tracer's marching squares with one
bisection per grid and its stitch on tuple keys, the surface-cyclide
difference by Horner steps that each make a new array, the prescribe grid's
b and c written out, its psi assembled on the whole array, and the masked
row reduction of its norms.  Not collected; tests import it as they import
``conftest``."""
import cmath
import math

import numpy as np
import sympy as sp

from conformal.invariants import _H_FLD, _grad, theta_state
from conformal.errors import InversionCenterOnSurface
from conformal.intersect import (_BISECTIONS, _CASES, _JOIN_TOL,
                                 difference_coeffs, difference_eval)
from conformal.invariants import _psi_numerator
from conformal.surfaces import (MobiusMap, SurfacePatch, _div, _dot,
                                _jet_forms, _lib, _require_frame, _sqrt,
                                principal_directions, shape_data)


def sympy_patch(expr, symbols, domain):
    """Patch whose jets are the order-2 partials of a sympy position
    matrix, compiled once, on first evaluation.  The second partials
    differentiate the first (r_uv = d_v r_u)."""
    us, vs = symbols
    r = list(sp.Matrix(expr))
    fn = None

    def jet(u, v):
        nonlocal fn
        if fn is None:
            ru, rv = [e.diff(us) for e in r], [e.diff(vs) for e in r]
            flat = r + ru + rv + [e.diff(s) for d, s in (
                (ru, us), (ru, vs), (rv, vs)) for e in d]
            fn = sp.lambdify((us, vs), flat, "numpy")
        out, lib = fn(u, v), _lib(u + v)
        return out if lib is np else [
            (complex if lib is cmath else float)(e) for e in out]

    return SurfacePatch(domain, jet_fn=jet)


def push_jet(mmap: MobiusMap, derivs) -> list:
    """Push an order-2 jet, six numpy 3-vectors in ``_JET_IDX`` order (r,
    r_u, r_v, r_uu, r_uv, r_vv), through ``mmap`` by the chain rule on
    numpy vectors, primitive by primitive,

        y_u = J r_u,    y_uv = J r_uv + D^2(r_u, r_v).

    Every product is plain (non-conjugating), so complex-step inputs stay
    holomorphic.  Tests compare :meth:`MobiusMap.apply_jet`, the flat
    chain rule, with it."""
    r, ru, rv, ruu, ruv, rvv = derivs
    for prim in mmap.primitives:
        kind = prim[0]
        if kind == "rotation":
            O = np.asarray(prim[1])
            r, ru, rv, ruu, ruv, rvv = (O @ r, O @ ru, O @ rv, O @ ruu,
                                        O @ ruv, O @ rvv)
        elif kind == "translation":
            r = r + np.asarray(prim[1])
        elif kind == "dilation":
            s = prim[1]
            r, ru, rv, ruu, ruv, rvv = (s*r, s*ru, s*rv, s*ruu, s*ruv, s*rvv)
        else:
            # x -> x/n with n = |x|^2:
            #   J p     = p/n - 2 x (x.p)/n^2
            #   D2(p,q) = -2 [p (x.q) + q (x.p) + x (p.q)]/n^2
            #             + 8 x (x.p)(x.q)/n^3
            n = r @ r

            def jac(p):
                return p/n - 2*r*(r @ p)/n**2

            def d2(p, q):
                xp, xq = r @ p, r @ q
                return (-2*(p*xq + q*xp + r*(p @ q))/n**2
                        + 8*r*xp*xq/n**3)

            r, ru, rv, ruu, ruv, rvv = (
                r/n, jac(ru), jac(rv), jac(ruu) + d2(ru, ru),
                jac(ruv) + d2(ru, rv), jac(rvv) + d2(rv, rv))
    return [r, ru, rv, ruu, ruv, rvv]


def check_inversion_centers_pointwise(surface: SurfacePatch,
                                      mmap: MobiusMap) -> None:
    """``surfaces._check_inversion_centers`` with its 24x24 grid sampled
    point by point: 576 scalar positions, each mapped by :func:`push_jet`
    on a jet with zero derivatives.  The Gauss-Newton refinement is the
    same; tests compare the two checks' verdicts."""
    if not any(prim[0] == "inversion" for prim in mmap.primitives):
        return
    lo, hi = np.array(surface.domain).T
    uv = [(a, b) for a in np.linspace(lo[0], hi[0], 24)
          for b in np.linspace(lo[1], hi[1], 24)]
    pts = [np.array(surface.point(a, b)) for a, b in uv]
    zero = np.zeros(3)
    partial = MobiusMap(())
    for prim in mmap.primitives:
        if prim[0] == "inversion":
            dists = np.linalg.norm([push_jet(partial, [p] + [zero]*5)[0]
                                    for p in pts], axis=-1)
            dmin = math.inf
            for k in np.argsort(dists)[:4]:
                x = np.array(uv[k])
                for _ in range(8):
                    y = partial.apply_jet(surface.jet_raw(*x))[:9]
                    d = math.sqrt(_dot(y, y))
                    dmin = min(dmin, d)
                    if not d > 0:
                        break
                    x = np.clip(x - np.linalg.lstsq(np.column_stack(
                        [y[3:6], y[6:9]]), y[:3], rcond=None)[0], lo, hi)
            if dmin < 1e-6 * max(np.max(dists), 1.0):
                raise InversionCenterOnSurface(
                    f"surface passes within {dmin:g} of an inversion center")
        partial = partial.then(MobiusMap((prim,)))


def willmore_energy(surface: SurfacePatch, n: int) -> float:
    """Grid quadrature of mu^2 dA over the patch's domain, midpoint rule on
    n x n cells."""
    (u0, u1), (v0, v1) = surface.domain
    hu, hv = (u1 - u0)/n, (v1 - v0)/n
    us = u0 + hu*(np.arange(n) + 0.5)
    vs = v0 + hv*(np.arange(n) + 0.5)
    total = 0.0
    for a in us:
        for b in vs:
            _, _, _, g, *_, mu = _jet_forms(surface.jet_raw(a, b))
            total += mu*mu * _sqrt(g)
    return total * hu * hv


def _lie_bracket(fields, u: float, v: float, h: float):
    """Central-difference Lie bracket [F1, F2] at (u, v) of two
    parameter-space direction fields, ``fields(a, b) -> F1 + F2`` (the
    (u, v) components of each, a flat 4-tuple).  Returns
    ``(bracket, F1, F2)``, each a (u, v) pair, with the fields at (u, v)."""
    du, dv = _grad(fields, u, v, h)
    f = fields(u, v)
    F1, F2 = f[:2], f[2:]
    lie = tuple([(F1[0]*du[2 + k] + F1[1]*dv[2 + k])
                 - (F2[0]*du[k] + F2[1]*dv[k]) for k in (0, 1)])
    return lie, F1, F2


def bracket_residual(surface: SurfacePatch, u: float, v: float) -> float:
    """Max-norm residual of the commutator identity
    [xi1, xi2] + (theta2 xi1 + theta1 xi2)/2 = 0 in parameter coordinates,
    with the xi fields sign-aligned to the center frame."""
    t1, t2, X1, X2, S = theta_state(surface, u, v)
    ref = (X1, X2)

    def xi_fields(a, b):
        _, _, Y1, Y2, T = theta_state(surface, a, b, ref)
        mu = T["mu"]
        return (_div(Y1[0], mu), _div(Y1[1], mu), _div(Y2[0], mu),
                _div(Y2[1], mu))

    lie, xi1, xi2 = _lie_bracket(xi_fields, u, v, _H_FLD)
    r = [abs(lie[k] + 0.5*(t2*xi1[k] + t1*xi2[k])) for k in (0, 1)]
    # the larger, or NaN where either is, as numpy's max gives
    return max(r) if r[0] == r[0] and r[1] == r[1] else math.nan


def _unit_dirs(surface: SurfacePatch, u: float, v: float, ref=None):
    """X1 + X2, the (u, v) components of both principal directions."""
    S = shape_data(surface.jet_raw(u, v))
    _require_frame(S)
    X1, X2 = principal_directions(S, ref)
    return X1 + X2


def _bracket_pq(surface: SurfacePatch, u: float, v: float, ref):
    """Decompose the commutator of the metric-unit curvature-direction
    fields as [X1, X2] = p X1 + q X2."""
    lie, X1, X2 = _lie_bracket(
        lambda a, b: _unit_dirs(surface, a, b, ref), u, v, 1e-5)
    A = np.column_stack([X1, X2])
    return tuple(np.linalg.solve(A, lie))


def isothermic_residual(surface: SurfacePatch, u: float, v: float) -> float:
    """Compatibility residual X1(p) + X2(q) of the first-order system for
    the conformal factor making the curvature-line parametrization
    conformal; zero iff such a factor exists locally.  Every member of the
    helicoid-catenoid family and every torus is isothermic."""
    d = _unit_dirs(surface, u, v)
    # the frame at (u, v) is the one its neighbours are aligned to
    X1, X2 = ref = d[:2], d[2:]
    dpu, dpv = _grad(lambda a, b: _bracket_pq(surface, a, b, ref), u, v,
                     1e-3)
    return float((X1[0]*dpu[0] + X1[1]*dpv[0])
                 + (X2[0]*dpu[1] + X2[1]*dpv[1]))


def difference_eval_reference(coeffs, psi_c):
    """``intersect.difference_eval``'s F with every Horner step a new
    array (``out*x``, then ``+ ci``), none in place."""
    mono = difference_coeffs(coeffs, psi_c)
    rows = [[mono.get((i, j), 0.0) for j in range(4 - i, -1, -1)]
            for i in range(4, -1, -1)]

    def F(x, y):
        out = None
        for row in rows:
            ci = None
            for c in row:
                if ci is not None:
                    ci = ci*y
                if c:
                    ci = c if ci is None else ci + c
            if out is not None:
                out = out*x
            if ci is not None:
                out = ci if out is None else out + ci
        return 0.0*(x*y) if out is None else out
    return F


def bisect_reference(F, lo, hi, pos_lo):
    """Zeros of F on grid edges from ``lo[k]`` to ``hi[k]``, rows of (n, 2)
    arrays, with F > 0 at ``lo[k]`` where ``pos_lo[k]``: ``_BISECTIONS``
    halvings of each bracket, then the end with the smaller |F|."""
    def f(p):
        return F(p[:, 0], p[:, 1])

    for _ in range(_BISECTIONS):
        mid = 0.5*(lo + hi)
        up = ((f(mid) > 0) == pos_lo)[:, None]
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return np.where((np.abs(f(lo)) <= np.abs(f(hi)))[:, None], lo, hi)


def march_reference(F, xs, ys, skip=None):
    """Marching-squares segments of the zero set of F on the grid xs x ys,
    F evaluated on a stacked ``meshgrid`` and the crossed edges refined by
    their own :func:`bisect_reference` call; ``skip`` is a cell (i, j) to
    leave out.  Returns the (m, 2, 2) segments in row-major cell order and
    each one's flat cell index."""
    P = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
    f = F(P[..., 0], P[..., 1])
    pos = f > 0
    ix, jx = np.nonzero(pos[:-1, :] != pos[1:, :])
    iy, jy = np.nonzero(pos[:, :-1] != pos[:, 1:])
    nx = len(ix)
    roots = bisect_reference(F, np.concatenate([P[ix, jx], P[iy, jy]]),
                             np.concatenate([P[ix + 1, jx], P[iy, jy + 1]]),
                             np.concatenate([pos[ix, jx], pos[iy, jy]]))
    root_x = np.full((len(xs) - 1, len(ys)), -1)
    root_x[ix, jx] = np.arange(nx)
    root_y = np.full((len(xs), len(ys) - 1), -1)
    root_y[iy, jy] = nx + np.arange(len(iy))
    code = (pos[:-1, :-1] + 2*pos[1:, :-1] + 4*pos[1:, 1:]
            + 8*pos[:-1, 1:])
    if skip is not None:
        code[skip] = 0
    ci, cj = np.nonzero((code != 0) & (code != 15))
    code = code[ci, cj]
    saddle = (code == 5) | (code == 10)
    si, sj = ci[saddle], cj[saddle]
    f00, f10, f11, f01 = (f[si, sj], f[si + 1, sj], f[si + 1, sj + 1],
                          f[si, sj + 1])
    den = f00 + f11 - f10 - f01
    code[saddle] += 16*(F(xs[si] + (f00 - f01)/den*(xs[si + 1] - xs[si]),
                          ys[sj] + (f00 - f10)/den*(ys[sj + 1] - ys[sj]))
                        > 0)
    edge_root = np.stack([root_x[ci, cj], root_y[ci + 1, cj],
                          root_x[ci, cj + 1], root_y[ci, cj]], axis=1)
    pairs = _CASES[code]
    ends = np.take_along_axis(edge_root, pairs.reshape(len(code), 4) % 4,
                              axis=1).reshape(-1, 2)
    used = pairs.reshape(-1, 2)[:, 0] >= 0
    cell = np.repeat(ci*(len(ys) - 1) + cj, 2)[used]
    return roots[ends[used]], cell


def _key(p):
    return (round(p[0], 9), round(p[1], 9))


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def stitch_reference(segments):
    """Polylines, a component label per polyline and the component count
    of segments ``((ax, ay), (bx, by))``, joined where their endpoints
    rounded by Python's ``round(x, 9)`` agree: dict adjacency on those
    tuple keys, walks from the odd-degree keys first, then from every key,
    in sorted key order, and a union-find on the keys."""
    uf = _UnionFind()
    adj = {}
    at = {}
    for pa, pb in segments:
        ka, kb = _key(pa), _key(pb)
        if ka == kb:
            continue
        uf.union(ka, kb)
        adj.setdefault(ka, []).append(kb)
        adj.setdefault(kb, []).append(ka)
        at.setdefault(ka, pa)
        at.setdefault(kb, pb)
    used = set()
    polylines = []

    def walk(start):
        chain = [start]
        cur = start
        while True:
            nxt = None
            for kb in adj[cur]:
                e = (min(cur, kb), max(cur, kb))
                if e not in used:
                    nxt = kb
                    used.add(e)
                    break
            if nxt is None:
                break
            chain.append(nxt)
            cur = nxt
        return chain

    keys = sorted(adj.keys())
    for k in keys:
        if len(adj[k]) % 2 == 1:
            while any((min(k, kb), max(k, kb)) not in used for kb in adj[k]):
                polylines.append(walk(k))
    for k in keys:
        while any((min(k, kb), max(k, kb)) not in used for kb in adj[k]):
            polylines.append(walk(k))

    comp_roots = []
    comp_of = []
    for chain in polylines:
        root = uf.find(chain[0])
        if root not in comp_roots:
            comp_roots.append(root)
        comp_of.append(comp_roots.index(root))
    arrays = [np.array([at[k] for k in chain], dtype=float)
              for chain in polylines]
    return arrays, comp_of, len(comp_roots)


def trace_reference(coeffs, psi_c, resolution):
    """``trace_cyclide_intersection`` on [-1, 1]^2 by two
    :func:`march_reference` calls (the grid, then the origin cell's 4x4
    sub-grid) and :func:`stitch_reference`: the polylines, their component
    labels, the component count and the origin component index."""
    F = difference_eval(coeffs, psi_c)
    cells = resolution + 1 if resolution % 2 == 0 else resolution
    xs = np.linspace(-1.0, 1.0, cells + 1)
    h = xs[1] - xs[0]
    i0 = int(np.searchsorted(xs, 0.0)) - 1
    segs, cell = march_reference(F, xs, xs, skip=(i0, i0))
    sub = np.linspace(xs[i0], xs[i0 + 1], 5)
    k = int(np.searchsorted(cell, i0*cells + i0))
    segs = np.concatenate([segs[:k], march_reference(F, sub, sub)[0],
                           segs[k:]])
    segs = segs[np.hypot(segs[..., 0], segs[..., 1]).max(axis=1) > 0.45*h]
    polylines, comp_of, ncomp = stitch_reference(segs.tolist())
    origin_idx = None
    best = np.inf
    for idx, pl in enumerate(polylines):
        dmin = float(np.min(np.hypot(pl[:, 0], pl[:, 1])))
        if dmin < min(best - _JOIN_TOL, 1.5*h):
            best = dmin
            origin_idx = comp_of[idx]
    return polylines, comp_of, ncomp, origin_idx


def bc_reference(grid):
    """The off-diagonal invariants of a ``prescribe.FieldGrid`` from its
    theta fields, each expression written out:

        b = -theta1 theta2 + d2(theta1)/f2
        c =  theta1 theta2 + d1(theta2)/f1
    """
    grid.require("f1", "f2", "theta1", "theta2")
    b = -grid.theta1*grid.theta2 + grid.d2(grid.theta1)/grid.f2
    c = grid.theta1*grid.theta2 + grid.d1(grid.theta2)/grid.f1
    return b, c


def psi_reference(grid):
    """psi of ``prescribe.psi_from_grid`` with its numerator and quotient
    taken on the whole array, masked afterwards by one ``np.where``."""
    tol_gen = 2.0 * max(grid.h1, grid.h2)**2
    grid.require("f1", "f2", "theta1", "theta2")

    def xi1(arr):
        return grid.d1(arr) / grid.f1

    def xi2(arr):
        return grid.d2(arr) / grid.f2

    t1, t2 = grid.theta1, grid.theta2
    x1t1, x1t2 = xi1(t1), xi1(t2)
    x2t1, x2t2 = xi2(t1), xi2(t2)
    x1x1t1, x1x1t2 = xi1(x1t1), xi1(x1t2)
    x2x2t1, x2x2t2 = xi2(x2t1), xi2(x2t2)
    num = _psi_numerator(t1, t2, x1t1, x1t2, x2t1, x2t2, x1x1t1, x1x1t2,
                         x2x2t1, x2x2t2, xi1(x1x1t2), xi2(x2x2t1))
    den = x1t2 + x2t1
    scale = np.maximum(np.maximum(np.abs(x1t1), np.abs(x1t2)),
                       np.maximum(np.abs(x2t1), np.abs(x2t2)))
    np.maximum(scale, 1.0, out=scale)
    return np.where(np.abs(den) < tol_gen*scale, np.nan,
                    num/np.where(den == 0, 1.0, den))


def row_norms_reference(core):
    """(3, rows) of ``prescribe._RowNorms``: each row's max |r| with NaN
    skipped, its sum of r^2 over finite cells and its count of them, each
    row reduced over all its cells by masks."""
    out = np.empty((3, len(core)))
    np.fmax.reduce(np.abs(core), axis=1, out=out[0])
    finite = np.isfinite(core)
    np.add.reduce(np.where(finite, core*core, 0.0), axis=1, out=out[1])
    out[2] = np.count_nonzero(finite, axis=1)
    return out

"""Surface kernel: parametric patches, derivative jets, classical curvature
data, and ambient Mobius transformations.

Only the position map and its partial derivatives up to order 2 are evaluated
exactly, by one jet callable per patch.  The catalog families, tubes
included, hand it a closed-form jet, so no surface needs symbolic work and
the package imports no sympy.  Everything built on top of the jets
(curvature gradients, invariant fields) lives in other modules and is
obtained by differencing the pointwise quantities, never by deeper jets.

A jet is flat, the one jet format: its 18 entries, x, y, z of r, r_u, r_v,
r_uu, r_uv, r_vv (``_JET_IDX`` order), are Python floats (complex at a
complex step), so between a jet and the curvature scalars the point kernel
holds no arrays.  A Mobius map moves a patch by pushing its jet through
the chain rule entry by entry (:meth:`MobiusMap.apply_jet`), so a moved
jet is floats too.  That chain rule is the map's one action on points:
:func:`mobius_transform` refuses an inversion centered on the patch by
pushing one jet at the arrays of a 24x24 grid through it, then taking
Gauss-Newton steps on the pushed scalar jet from the nearest samples.
:func:`_forms` is the one copy of the fundamental-form arithmetic (E, F,
G, the normal, L, M, N, the shape operator, H, K and mu), on those
scalars with ``math``/``cmath`` square roots, and elementwise on arrays
of points.  :func:`shape_data` wraps its scalars in a dict for one real
point; the complex steps of the curvature gradients read H and mu from
it directly.  A principal direction is a pair of Python floats, its (u,
v) components, and so is every parameter direction the layers above
build from it, so the point path from a jet to a traced line holds no
numpy object either.  A degenerate metric or a roundoff-negative H^2 - K
gives NaN, as numpy's arrays did, so :func:`_require_frame` raises
:class:`DegenerateMetric` or :class:`UmbilicPoint` there.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetric, InversionCenterOnSurface, UmbilicPoint

__all__ = ["SurfacePatch", "MobiusMap", "mobius_transform"]

_TOL_UMB = 1e-7
_NAN = float("nan")


# --------------------------------------------------------------------------
# jets
# --------------------------------------------------------------------------
_JET_IDX = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def _lib(x):
    """The module whose sin, cos, sinh and cosh evaluate ``x``: numpy for
    an array of points, cmath for a complex step, math for a real scalar
    (on one float, math is 3-4x faster than numpy)."""
    if isinstance(x, np.ndarray):
        return np
    return cmath if isinstance(x, complex) else math


class SurfacePatch:
    """Evaluable parametric surface r(u, v) with order-2 derivative jets.

    ``jet_fn(u, v)`` returns the 18 entries of the flat jet (Python floats,
    complex at a complex step; at arrays of points, arrays or constants):
    a closed form (see :func:`_lib`) or one pushed through a Mobius map.
    """

    def __init__(self, domain, jet_fn):
        self.domain = tuple((float(a), float(b)) for a, b in domain)
        self._jet_fn = jet_fn

    # -- basic queries -----------------------------------------------------
    def contains(self, u, v, margin=0.0):
        (u0, u1), (v0, v1) = self.domain
        return (u0 + margin <= u <= u1 - margin
                and v0 + margin <= v <= v1 - margin)

    def point(self, u, v):
        """x, y, z of r(u, v): Python floats at a real (u, v), no array."""
        return self._jet_fn(u, v)[:3]

    # -- jets --------------------------------------------------------------
    def jet_raw(self, u, v):
        """The flat order-2 jet at real or complex (u, v), with no domain
        check; a numpy scalar coordinate goes in as a Python scalar."""
        return self._jet_fn(u.item() if isinstance(u, np.generic) else u,
                            v.item() if isinstance(v, np.generic) else v)


# --------------------------------------------------------------------------
# curvature data
# --------------------------------------------------------------------------
def _sqrt(x):
    """numpy's square root on one Python scalar or array: the principal
    root of a complex, NaN (not a ValueError) for a negative float, as
    where H^2 - K rounds below 0 at an umbilic."""
    if x.__class__ is float:
        return math.sqrt(x) if x >= 0 else _NAN
    if x.__class__ is complex:
        return cmath.sqrt(x)
    return np.sqrt(x)


def _divisor(d):
    """``d`` to divide by: a Python zero becomes NaN, so a degenerate point
    gives NaN as numpy's division does, not ZeroDivisionError.  Arrays and
    numpy scalars divide as numpy does and pass unchanged."""
    return _NAN if d.__class__ in (float, complex) and not d else d


def _div(n, d):
    """n/d on real Python scalars.  Where ``d`` is 0 Python raises
    ZeroDivisionError; this gives numpy's float64 result instead, +-inf,
    or NaN where ``n`` is 0 or NaN (:func:`_divisor` gives NaN in each
    such case)."""
    return n/d if d else n*math.copysign(math.inf, d)


def _forms(ru, rv, ruu, ruv, rvv):
    """Fundamental forms and shape operator from the x, y, z components of
    r_u, r_v, r_uu, r_uv and r_vv: ``(E, F, G, g, n, L, M, N, w, H, K, mu)``
    with g = EG - F^2, the unit normal n = (nx, ny, nz) and the shape
    operator w = (w00, w01, w10, w11), row-major in the (r_u, r_v) basis.

    This is the one copy of the fundamental-form arithmetic.  It is
    elementwise: the components may be Python scalars (slices of a flat
    jet, see :func:`_jet_forms`), complex-step scalars (every product
    is plain, non-conjugating) or numpy arrays of points.  A degenerate
    metric (g = 0 or |n| = 0) gives NaN, never an exception."""
    (xu, yu, zu), (xv, yv, zv) = ru, rv
    E = xu*xu + yu*yu + zu*zu
    F = xu*xv + yu*yv + zu*zv
    G = xv*xv + yv*yv + zv*zv
    g = E*G - F*F
    nx, ny, nz = yu*zv - zu*yv, zu*xv - xu*zv, xu*yv - yu*xv
    s = _divisor(_sqrt(nx*nx + ny*ny + nz*nz))
    nx, ny, nz = nx/s, ny/s, nz/s
    L = ruu[0]*nx + ruu[1]*ny + ruu[2]*nz
    M = ruv[0]*nx + ruv[1]*ny + ruv[2]*nz
    N = rvv[0]*nx + rvv[1]*ny + rvv[2]*nz
    gd = _divisor(g)
    w00, w01 = (G*L - F*M)/gd, (G*M - F*N)/gd
    w10, w11 = (E*M - F*L)/gd, (E*N - F*M)/gd
    H = (w00 + w11)/2
    K = w00*w11 - w01*w10
    return (E, F, G, g, (nx, ny, nz), L, M, N, (w00, w01, w10, w11), H, K,
            _sqrt(H*H - K))


def _jet_forms(jet):
    """:func:`_forms` at one point from its flat jet."""
    return _forms(jet[3:6], jet[6:9], jet[9:12], jet[12:15], jet[15:18])


def shape_data(jet) -> dict:
    """First fundamental form and shape operator at one point from its flat
    order-2 jet: :func:`_forms` on Python scalars, real or complex-step, in
    a dict of the scalars code reads, E, F, G, g, w (the shape operator's
    entries (w00, w01, w10, w11)), H, mu, k1 = H + mu and k2 = H - mu.  L,
    M, N and K stay in :func:`_forms`'s tuple: nothing reads them from the
    dict."""
    E, F, G, g, _, _, _, _, w, H, _, mu = _jet_forms(jet)
    return dict(E=E, F=F, G=G, g=g, w=w, H=H, mu=mu, k1=H + mu, k2=H - mu)


def principal_directions(S: dict, ref=None):
    """Metric-unit principal directions in parameter coordinates: X1 and X2,
    each a pair of Python floats.

    Of the two eigenvector candidate expressions for each eigenvalue the
    better-conditioned one is used.  Signs follow ``ref`` (a previous frame)
    when given, otherwise X1 aligns with the +u axis and X2 with +v.

    A component no larger than 1e-12 times the other counts as 0 there, and
    the sign comes from the other component: where X1 is parallel to the v
    axis (on a helix tube, everywhere) its u component is roundoff, and X1
    points along +v whatever sign that roundoff takes.
    """
    w00, w01, w10, w11 = S["w"]
    k1, k2, E, F, G = S["k1"], S["k2"], S["E"], S["F"], S["G"]
    cands = (((w01, k1 - w00), (k1 - w11, w10)),
             ((k2 - w11, w10), (w01, k2 - w00)))
    refs = (None, None) if ref is None else ref
    out = []
    for (c, d), rf, axis in zip(cands, refs, (0, 1)):
        a, b = c if abs(c[0]) + abs(c[1]) >= abs(d[0]) + abs(d[1]) else d
        s = _divisor(_sqrt(E*(a*a) + 2*F*a*b + G*(b*b)))
        w = (a/s, b/s)
        if rf is not None:
            flip = (w[0]*rf[0] + w[1]*rf[1]).real < 0
        else:
            p, q = w[axis].real, w[1 - axis].real
            flip = q < 0 if abs(p) <= 1e-12*abs(q) else p < 0
        out.append((-w[0], -w[1]) if flip else w)
    return tuple(out)


def _require_frame(S: dict) -> None:
    """Raise :class:`DegenerateMetric` where the first fundamental form of
    shape dict ``S`` is singular, and :class:`UmbilicPoint` where k1 - k2
    falls under the (relative) umbilic tolerance or is NaN (H*H - K
    rounded below 0), so the principal frame is undefined.  On a
    complex-step jet the tolerance applies to the real part of mu.  It
    lies above mu's roundoff floor at an umbilic: H^2 - K rounds to about
    eps k^2, so mu there reaches sqrt(eps) |k|, 1.5e-8 |k|.  The tolerance
    is relative to max(|k1|, |k2|) alone, so the test does not depend on
    scale, as the thetas do not; the comparison is strict, so a planar
    point (k1 = k2 = mu = 0) raises too.  Only the two entry functions of
    a point query, ``invariants._shape_at`` and ``_state_at``, call it."""
    scale = max(abs(S["E"]), abs(S["G"]))
    if not cmath.isfinite(S["g"]) or abs(S["g"]) < 1e-14*(scale*scale):
        raise DegenerateMetric(f"det I = {S['g']!r}")
    if not S["mu"].real > _TOL_UMB * max(abs(S["k1"]), abs(S["k2"])):
        raise UmbilicPoint(f"k1 = {S['k1']!r}, k2 = {S['k2']!r}")


# --------------------------------------------------------------------------
# Mobius maps
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class MobiusMap:
    """Composition of primitive ambient maps, applied left to right.

    Primitives: ``("rotation", O)`` with orthonormal 3x3 O (any sign of
    determinant) as three rows of three Python floats, ``("translation",
    t)`` with a finite 3-vector t as three floats, ``("dilation", s)`` with
    finite s > 0 and ``("inversion",)`` for x -> x / |x|^2.  The
    constructors raise ValueError on other inputs; maps of equal
    primitives compare equal and hash alike.
    """
    primitives: tuple

    # -- constructors ------------------------------------------------------
    @staticmethod
    def rotation(O) -> "MobiusMap":
        O = np.asarray(O, dtype=float)
        if O.shape != (3, 3) or not np.allclose(O @ O.T, np.eye(3),
                                                atol=1e-12):
            raise ValueError("rotation must be a 3x3 orthonormal matrix")
        return MobiusMap((("rotation", tuple(map(tuple, O.tolist()))),))

    @staticmethod
    def translation(t) -> "MobiusMap":
        t = np.asarray(t, dtype=float)
        if t.shape != (3,) or not np.isfinite(t).all():
            raise ValueError("translation must be a finite 3-vector")
        return MobiusMap((("translation", tuple(t.tolist())),))

    @staticmethod
    def dilation(s: float) -> "MobiusMap":
        if not (math.isfinite(s) and s > 0):
            raise ValueError("dilation factor must be finite and positive")
        return MobiusMap((("dilation", float(s)),))

    @staticmethod
    def inversion() -> "MobiusMap":
        return MobiusMap((("inversion",),))

    def then(self, other: "MobiusMap") -> "MobiusMap":
        return MobiusMap(self.primitives + other.primitives)

    # -- application -------------------------------------------------------
    def apply_jet(self, jet):
        """Push a flat order-2 jet (18 entries, ``_JET_IDX`` order) through
        the map by the chain rule, y_u = J r_u and y_uv = J r_uv + D^2(r_u,
        r_v), entry by entry: Python floats stay floats, complex steps stay
        holomorphic (every product is plain, non-conjugating) and arrays of
        points go elementwise, as in the catalog jets."""
        j = jet
        for prim in self.primitives:
            kind = prim[0]
            if kind == "rotation":
                (a, b, c), (d, e, f), (g, h, i) = prim[1]
                j = [t for k in range(0, 18, 3) for x, y, z in (j[k:k + 3],)
                     for t in (a*x + b*y + c*z, d*x + e*y + f*z,
                               g*x + h*y + i*z)]
            elif kind == "translation":
                t = prim[1]
                j = [j[0] + t[0], j[1] + t[1], j[2] + t[2], *j[3:]]
            elif kind == "dilation":
                j = [prim[1]*t for t in j]
            else:
                j = _invert_jet(j)
        return j

    @property
    def orientation_preserving(self) -> bool:
        """Sign of the ambient orientation action (inversion reverses it,
        as does a rotation primitive with det = -1)."""
        sgn = 1.0
        for prim in self.primitives:
            if prim[0] == "rotation":
                sgn *= np.sign(np.linalg.det(np.asarray(prim[1])))
            elif prim[0] == "inversion":
                sgn *= -1.0
        return sgn > 0


def _dot(p, q):
    return p[0]*q[0] + p[1]*q[1] + p[2]*q[2]


def _invert_jet(j) -> list:
    """Flat jet ``j`` pushed through x -> x/|x|^2.  With a = 1/|x|^2, J p =
    a p - 2 a^2 (x.p) x and D^2(A, B) = 8 a^3 (x.A)(x.B) x - 2 a^2 [A (x.B)
    + B (x.A) + x (A.B)], so the second derivative p of r that pairs first
    derivatives A and B goes to a p - 2 a^2 [A (x.B) + B (x.A) + x k], k =
    x.p + A.B - 4 a (x.A)(x.B).  The jet at x = 0 is NaN."""
    x, ru, rv = j[0:3], j[3:6], j[6:9]
    a = 1/_divisor(_dot(x, x))
    b, xu, xv = 2*a*a, _dot(x, ru), _dot(x, rv)
    out = [a*t for t in x]
    for p, xp in ((ru, xu), (rv, xv)):
        out += [a*pt - b*xp*xt for pt, xt in zip(p, x)]
    for k, A, B, xA, xB in ((9, ru, ru, xu, xu), (12, ru, rv, xu, xv),
                            (15, rv, rv, xv, xv)):
        p = j[k:k + 3]
        c = _dot(x, p) + _dot(A, B) - 4*a*xA*xB
        out += [a*pt - b*(At*xB + Bt*xA + c*xt)
                for pt, At, Bt, xt in zip(p, A, B, x)]
    return out


def _check_inversion_centers(surface: SurfacePatch, mmap: MobiusMap) -> None:
    """Raise InversionCenterOnSurface where y = P(r(u, v)), P the primitives
    before an inversion, comes within 1e-6 (relative) of 0.  One jet at the
    arrays of a 24x24 grid is pushed through each such P, and y is read
    from the first three pushed entries (a constant entry broadcast to the
    grid); from each of the 4 samples of least |y|, 8 Gauss-Newton steps x
    -= lstsq([y_u y_v], y) on the scalar jet pushed through P, clamped to
    the domain, stopping at |y| = 0 or NaN (an earlier center); the least
    |y| seen is the distance."""
    if not any(prim[0] == "inversion" for prim in mmap.primitives):
        return
    lo, hi = np.array(surface.domain).T
    us = np.repeat(np.linspace(lo[0], hi[0], 24), 24)
    vs = np.tile(np.linspace(lo[1], hi[1], 24), 24)
    grid = surface.jet_raw(us, vs)
    partial = MobiusMap(())
    for prim in mmap.primitives:
        if prim[0] == "inversion":
            y = partial.apply_jet(grid)[:3]
            dists = np.broadcast_to(np.sqrt(_dot(y, y)), us.shape)
            dmin = math.inf
            for k in np.argsort(dists)[:4]:
                x = np.array([us[k], vs[k]])
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


def mobius_transform(surface: SurfacePatch, mmap: MobiusMap) -> SurfacePatch:
    """Surface whose position map is the composition ``mmap o r``: its jet
    is the base's flat jet pushed by :meth:`MobiusMap.apply_jet`."""
    _check_inversion_centers(surface, mmap)
    base, push = surface._jet_fn, mmap.apply_jet
    return SurfacePatch(surface.domain, jet_fn=lambda u, v: push(base(u, v)))

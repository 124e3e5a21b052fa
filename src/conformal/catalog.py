"""Built-in reference surfaces with exact jets and closed-form oracles.

Each entry wraps a :class:`~conformal.surfaces.SurfacePatch` together with
its defining parameters and, where closed forms exist, oracle callables for
the conformal invariants.  Oracle agreement with the generic numerical
pipeline is the backbone of the test suite: any disagreement beyond the
stated tolerances is a hard failure, never averaged away.

Every family (the helicoid-catenoid family, tori, spheres, tubes around
circles and helices, and polynomial graphs, so the canonical normal forms)
carries a hand-written order-2 jet: a dozen lines each, no symbolic work
and no compile, evaluated alike on scalars, complex-step inputs and arrays
of (u, v).  One body serves all three: its sin, cos, sinh and cosh come
from ``math`` on a real scalar, ``cmath`` on a complex step and numpy on
arrays (``surfaces._lib``).

The one-parameter minimal family (``make_helcat``) interpolates between the
helicoid (parameter 0) and the catenoid (parameter pi/2); its invariants
depend only on the first coordinate and are known in closed form, including
the constant direction ratio of the curvature fields.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict

import numpy as np

from .errors import CanalPoint, SelfIntersectingTube
from .osculation import normal_form_monomials
from .surfaces import _JET_IDX, SurfacePatch, _lib

__all__ = [
    "CatalogEntry", "make_helcat", "make_torus", "make_sphere", "make_tube",
    "make_graph", "make_canonical",
]


@dataclass(frozen=True)
class CatalogEntry:
    """Immutable catalog surface: patch + parameters + optional oracles.

    ``oracle`` maps field names ('theta1', 'theta2', 'psi', 'a', 'b', 'c',
    'd', 'kappa', 'psi_c') to callables of the first surface parameter u
    (every oracle in the catalog is constant in v; 'kappa', a constant,
    takes no argument).  Oracles that read 0 mark the special cases: both
    thetas on the torus (a Dupin cyclide), theta1 on a tube (a canal
    surface).
    """
    surface: SurfacePatch
    params: Dict[str, object]
    oracle: Dict[str, Callable] = field(default_factory=dict)


# --------------------------------------------------------------------------
# helicoid-catenoid family
# --------------------------------------------------------------------------
def make_helcat(alpha_h: float) -> CatalogEntry:
    """Minimal surface of the associated helicoid-catenoid family.

    Parameters (u, v) = (s, t) are conformal coordinates.  Closed-form
    oracles (B = 1 + sin(alpha_h)):

        theta1 = sqrt(2(1 - sin a)) sinh s     theta2 = sqrt(2B) sinh s
        psi    = sin a (3 cosh^2 s - 2)        kappa  = cos a / B  (constant)

    each a callable of s (kappa of nothing).

    The osculating-cyclide invariant ``psi_c`` (default profile sign) follows
    from these: the unit-speed derivatives D_i theta_j are constants, so with
    S = sinh^2 s the profile coefficients and psi are affine in S,

        a = 3 + 2(1 - sin a) S - cos^2 a / B     b = -cos a (1 + 2S)
        c = cos a (2S - 1)                       d = -3 - B (1 + 2S)

    and, at the fixed direction t = -(cos a / B)^(1/3), so is psi_c.  It is
    undefined on the catenoid, whose theta1 vanishes (CanalPoint).

    Oracle theta signs follow the convention that renders both positive for
    s > 0; the generic pipeline's frame may flip the relative sign, so
    comparisons should use magnitudes and |theta1/theta2|.
    """
    if not 0.0 <= alpha_h <= np.pi/2:
        raise ValueError("family parameter must lie in [0, pi/2]")
    ca, sa = float(np.cos(alpha_h)), float(np.sin(alpha_h))

    def jet(u, v):
        # r = (ca sinh u sin v + sa cosh u cos v,
        #      sa cosh u sin v - ca sinh u cos v, sa u + ca v):
        # r_v = (-y, x, ca), r_uu = (x, y, 0), r_uv = (-y_u, x_u, 0) and
        # r_vv = (-x, -y, 0)
        fu, fv = _lib(u), _lib(v)
        sh, ch, sv, cv = fu.sinh(u), fu.cosh(u), fv.sin(v), fv.cos(v)
        x = ca*sh*sv + sa*ch*cv
        y = sa*ch*sv - ca*sh*cv
        xu = ca*ch*sv + sa*sh*cv
        yu = sa*sh*sv - ca*ch*cv
        return (x, y, sa*u + ca*v, xu, yu, sa, -y, x, ca,
                x, y, 0.0, -yu, xu, 0.0, -x, -y, 0.0)

    patch = SurfacePatch([(-3.0, 3.0), (-7.0, 7.0)], jet_fn=jet)
    B = 1.0 + sa
    root = np.sqrt(2.0*B)

    def theta1(s):
        return np.sqrt(2.0*(1.0 - sa))*np.sinh(s)

    def theta2(s):
        return root*np.sinh(s)

    def psi(s):
        return sa*(3.0*np.cosh(s)**2 - 2.0)

    def kappa():
        return ca/B

    def psi_c(s):
        if ca/B < 1e-12:
            raise CanalPoint("theta1 vanishes identically on the catenoid")
        S = np.sinh(s)**2
        a = 3.0 + 2.0*(1.0 - sa)*S - ca*ca/B
        b = -ca*(1.0 + 2.0*S)
        c = ca*(2.0*S - 1.0)
        d = -3.0 - B*(1.0 + 2.0*S)
        w = -np.cbrt(ca/B)
        quartic = a + 4*b*w + 6*psi(s)*w**2 + 4*c*w**3 + d*w**4
        return (6.0/w**2)*(quartic/24.0 - (1.0 - w**4)/8.0)

    return CatalogEntry(
        surface=patch, params={"alpha_h": float(alpha_h)},
        oracle={"theta1": theta1, "theta2": theta2, "psi": psi,
                "kappa": kappa, "psi_c": psi_c})


# --------------------------------------------------------------------------
# cyclides and canal surfaces
# --------------------------------------------------------------------------
def _revolution_jet(R: float, r: float):
    """Jet of the surface of revolution (rho cos u, rho sin u, r sin v) with
    rho = R + r cos v: a torus, and for R = 0 the sphere of radius r."""
    def jet(u, v):
        fu, fv = _lib(u), _lib(v)
        cu, su, cv, sv = fu.cos(u), fu.sin(u), fv.cos(v), fv.sin(v)
        rho, rc, rs = R + r*cv, r*cv, r*sv
        return (rho*cu, rho*su, rs, -rho*su, rho*cu, 0.0,
                -rs*cu, -rs*su, rc, -rho*cu, -rho*su, 0.0,
                rs*su, -rs*cu, 0.0, -rc*cu, -rc*su, -rs)
    return jet


def _constant(x: float) -> Callable:
    """An oracle that reads ``x`` at every u (an array at an array)."""
    return lambda s: x + 0.0*np.asarray(s)


def make_torus(R: float, r: float) -> CatalogEntry:
    """Torus of revolution, a Dupin cyclide, with constant oracles:

        theta1 = theta2 = 0    (a, b, c, d) = (3, 0, 0, -3)
        psi = 4 r^2/R^2 - 2

    Both curvature fields vanish, and with them every theta term of psi
    and a..d.  What is left of psi is mu^-3 (Lap H + 2 mu^2 H).  With
    rho = R + r cos v the metric is diag(rho^2, r^2), and along the normal
    r_u x r_v (outward) the principal curvatures are -1/r and -cos v/rho.
    So H = -(R + 2r cos v)/(2 r rho) and mu = R/(2 r rho) depend on v
    alone, Lap H = (rho H_v)_v/(r^2 rho) = R (R cos v + r)/(2 r^2 rho^3),
    and mu^-3 (Lap H + 2 mu^2 H) = 2(2r^2 - R^2)/R^2.  psi changes sign
    with the normal, so an orientation-reversing Mobius map negates it.
    """
    R, r = float(R), float(r)
    if not (math.isfinite(R) and R > r > 0):
        raise ValueError("need finite R > r > 0")
    patch = SurfacePatch([(-np.pi, np.pi), (-np.pi, np.pi)],
                         jet_fn=_revolution_jet(R, r))
    zero = _constant(0.0)
    return CatalogEntry(surface=patch, params={"R": R, "r": r},
                        oracle={"theta1": zero, "theta2": zero,
                                "psi": _constant(4.0*r*r/(R*R) - 2.0),
                                "a": _constant(3.0), "b": zero, "c": zero,
                                "d": _constant(-3.0)})


def make_sphere(radius: float) -> CatalogEntry:
    """Round sphere r = radius (cos u cos v, sin u cos v, sin v), with the
    latitude v kept 0.17 short of the poles.  Every point is umbilic."""
    rad = float(radius)
    if not 0 < rad < math.inf:
        raise ValueError("radius must be finite and positive")
    patch = SurfacePatch([(-np.pi, np.pi), (-1.4, 1.4)],
                         jet_fn=_revolution_jet(0.0, rad))
    return CatalogEntry(surface=patch, params={"radius": rad})


def make_tube(curve, radius: float) -> CatalogEntry:
    """Constant-radius tube around a circle or helix (canal surface).

    The center curve is ('circle', R), c = (R cos u, R sin u, 0), or
    ('helix', A, B) with A > 0, c = (A cos u, A sin u, B u).  The tube

        r = c(u) + radius (cos v N(u) + sin v B(u))

    is parametrized by the curve parameter u and the angle v in the normal
    plane of the closed-form Frenet frame: with a, b = (A, B)/sqrt(A^2 +
    B^2), or a, b = 1, 0 for the circle, N = (-cos u, -sin u, 0) and
    B = (b sin u, -b cos u, a).  Its v-circles are the characteristic
    circles, the Dupin lines of the canal surface.
    """
    kind, *args = curve
    if (kind, len(args)) not in (("circle", 1), ("helix", 2)):
        raise ValueError(f"center curve must be ('circle', R) or "
                         f"('helix', A, B), got {tuple(curve)!r}")
    A, Bp = float(args[0]), (float(args[1]) if kind == "helix" else 0.0)
    radius = float(radius)
    if not (0 < A < math.inf and math.isfinite(Bp) and 0 < radius < math.inf):
        raise ValueError(f"need a finite R or A > 0, a finite B and a finite "
                         f"radius > 0, got {tuple(curve)!r}, {radius!r}")
    rho = (A*A + Bp*Bp)/A       # the center curve's least curvature radius
    if radius >= rho:
        raise SelfIntersectingTube(
            f"radius {radius:g} >= minimal curvature radius {rho:g} of the "
            "center curve")
    norm = math.sqrt(A*A + Bp*Bp)
    a, b = A/norm, Bp/norm
    ra, rb = radius*a, radius*b

    def jet(u, v):
        # with p = A - radius cos v and q = radius b sin v,
        # r = (p cos u + q sin u, p sin u - q cos u, B u + radius a sin v):
        # r_u = (-y, x, B), r_uu = (-x, -y, 0), r_uv = (-y_v, x_v, 0), and
        # r_v, r_vv take (p, q) to (p_v, q_v) = radius (sin v, b cos v) and
        # (p_vv, q_vv) = (radius cos v, -q)
        fu, fv = _lib(u), _lib(v)
        cu, su, cv, sv = fu.cos(u), fu.sin(u), fv.cos(v), fv.sin(v)
        p, q, pv, qv, pvv = A - radius*cv, rb*sv, radius*sv, rb*cv, radius*cv
        x, y = p*cu + q*su, p*su - q*cu
        xv, yv = pv*cu + qv*su, pv*su - qv*cu
        return (x, y, Bp*u + ra*sv, -y, x, Bp, xv, yv, ra*cv,
                -x, -y, 0.0, -yv, xv, 0.0,
                pvv*cu - q*su, pvv*su + q*cu, -ra*sv)

    patch = SurfacePatch([(-10.0, 10.0), (-10.0, 10.0)], jet_fn=jet)
    return CatalogEntry(surface=patch,
                        params={"curve": tuple(curve), "radius": radius},
                        oracle={"theta1": _constant(0.0)})


# --------------------------------------------------------------------------
# graphs
# --------------------------------------------------------------------------
_GRAPH_MAX_EXPONENT = 64    # the largest exponent of x or y in a monomial


def make_graph(poly: Dict[tuple, float], window: float = 1.0) -> CatalogEntry:
    """Graph z = sum c_ij x^i y^j over a square window, each exponent at
    most ``_GRAPH_MAX_EXPONENT``: the jet builds the power lists up to the
    largest one on every call."""
    if not all(min(i, j) >= 0 and math.isfinite(cc)
               for (i, j), cc in poly.items()):
        raise ValueError("graph needs finite coefficients of x^i y^j, "
                         "i, j >= 0")
    for i, j in poly:
        if max(i, j) > _GRAPH_MAX_EXPONENT:
            raise ValueError(f"graph monomial x^{i} y^{j} has an exponent "
                             f"above {_GRAPH_MAX_EXPONENT}")
    # monomials (coefficient, power of u, power of v) of z and of its
    # partials z_u, z_v, z_uu, z_uv, z_vv; d^k/dx^k x^n = perm(n, k) x^(n-k)
    parts = [[(float(cc)*math.perm(i, di)*math.perm(j, dj), i - di, j - dj)
              for (i, j), cc in poly.items() if i >= di and j >= dj]
             for di, dj in _JET_IDX]
    deg = max((max(i, j) for i, j in poly), default=0)

    def jet(u, v):
        pu, pv = [1.0], [1.0]
        for _ in range(deg):
            pu.append(pu[-1]*u)
            pv.append(pv[-1]*v)
        z, zu, zv, zuu, zuv, zvv = (
            sum((cc*pu[i]*pv[j] for cc, i, j in part), 0.0) for part in parts)
        return (u, v, z, 1.0, 0.0, zu, 0.0, 1.0, zv,
                0.0, 0.0, zuu, 0.0, 0.0, zuv, 0.0, 0.0, zvv)

    patch = SurfacePatch([(-window, window), (-window, window)], jet_fn=jet)
    return CatalogEntry(surface=patch, params={"poly": dict(poly)})


def make_canonical(theta1: float, theta2: float, psi: float, a: float,
                   b: float, c: float, d: float) -> CatalogEntry:
    """Graph over [-0.4, 0.4]^2 in canonical normal form with prescribed
    jet invariants:

        z = (x^2 - y^2)/2 + (theta1 x^3 + theta2 y^3)/6
            + (a x^4 + 4 b x^3 y + 6 psi x^2 y^2 + 4 c x y^3 + d y^4)/24

    The generic pipeline at the origin recovers (theta1, theta2, a, b, c, d)
    exactly; its fourth-order invariant equals psi + (xi1 theta1 +
    xi2 theta2) evaluated at the origin, an offset between the two
    normalizations that the field-based invariant carries and the normal
    form does not.
    """
    vals = [float(x) for x in (theta1, theta2, psi, a, b, c, d)]
    poly = normal_form_monomials(*vals)
    entry = make_graph(poly, window=0.4)
    return CatalogEntry(surface=entry.surface,
                        params={"invariants": tuple(vals), "poly": poly})

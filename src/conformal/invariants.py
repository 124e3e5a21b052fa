"""Pointwise conformal invariants of a surface patch.

The pipeline is two-layered: position jets up to order 2 feed the classical
shape-operator data, and every higher invariant (theta gradients, the
Laplacian of H, nested directional derivatives) is obtained by differencing
the computed point fields over the parameter plane — never by deeper jets.
The first field layer (the curvature gradients) is a complex step through
the exact jet, accurate to machine precision; outer layers use central
differences with frame continuity enforced by sign alignment to the center
frame.  Every central difference of a point field is one of two stencils:
:func:`_grad` (along u and along v) or :func:`_along` (along a parameter
direction).

A point field's value is a tuple of Python floats (a pair of thetas, a
flux, two parameter directions), differenced componentwise, and a
principal direction is a pair of floats: between a jet and an invariant
the point path builds no numpy object.  Each operation keeps the operands
and the order it had on arrays, so every value is the same to the bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import (BoundaryTooClose, DegenerateDenominator, OutOfDomain,
                     ScaleOverflow)
from .surfaces import (SurfacePatch, _div, _divisor, _jet_forms,
                       _require_frame, _sqrt, principal_directions,
                       shape_data)

__all__ = [
    "InvariantSample", "psi_invariant", "classify_point", "psi_from_thetas",
    "invariant_sample", "theta_state",
]

_H_FLD = 1e-5          # first outer-difference step for invariant fields
_CSTEP = 1e-20         # complex step for curvature gradients
_TOL_CANAL = 1e-6      # a |theta| below this counts as 0 in classify_point
_TOL_GEN = 1e-5        # relative floor of xi1(theta2) + xi2(theta1)
_H_NEST = (1e-4, 2e-3, 1e-2)   # psi_from_thetas steps, by nesting depth


@dataclass(frozen=True)
class InvariantSample:
    """Full pointwise conformal package at one parameter point: k1, k2, H
    and mu from its shape dict, then the thetas, psi, a..d and class."""
    k1: float
    k2: float
    H: float
    mu: float
    theta1: float
    theta2: float
    psi: Optional[float]
    a: Optional[float]
    b: Optional[float]
    c: Optional[float]
    d: Optional[float]
    classification: str


# --------------------------------------------------------------------------
# first layer: curvature gradients and thetas
# --------------------------------------------------------------------------
def _curv_grads(surface: SurfacePatch, u: float, v: float):
    """Parameter-plane gradients ((k1_u, k1_v), (k2_u, k2_v), (H_u, H_v))
    by a complex step through the jet: one jet per direction, exact to
    machine precision (no subtractive cancellation).  Each step reads H and
    mu from the scalar fundamental-form core (``surfaces._forms``), with no
    shape dict and no arrays."""
    *_, Hu, _, mu_u = _jet_forms(surface.jet_raw(u + 1j*_CSTEP, v))
    *_, Hv, _, mu_v = _jet_forms(surface.jet_raw(u, v + 1j*_CSTEP))
    h = _CSTEP
    return (((Hu + mu_u).imag/h, (Hv + mu_v).imag/h),
            ((Hu - mu_u).imag/h, (Hv - mu_v).imag/h),
            (Hu.imag/h, Hv.imag/h))


def theta_state(surface: SurfacePatch, u: float, v: float, ref=None):
    """(theta1, theta2, X1, X2, shape-dict) at a point, frame-aligned to
    ``ref`` (a pair of previous principal directions) when given; X1 and
    X2 are pairs of Python floats.  The coordinates go on as Python floats,
    so the jets and the complex steps around them run no numpy-scalar
    arithmetic."""
    u, v = float(u), float(v)
    S = shape_data(surface.jet_raw(u, v))
    X1, X2 = principal_directions(S, ref)
    (k1u, k1v), (k2u, k2v), _ = _curv_grads(surface, u, v)
    mu2 = _divisor(S["mu"]*S["mu"])
    (a1, b1), (a2, b2) = X1, X2
    return (a1*k1u + b1*k1v) / mu2, (a2*k2u + b2*k2v) / mu2, X1, X2, S


# --------------------------------------------------------------------------
# entry of a point query, and field differencing helpers
# --------------------------------------------------------------------------
def _require_margin(surface: SurfacePatch, u: float, v: float, margin: float):
    """OutOfDomain outside the domain, BoundaryTooClose inside it but closer
    than ``margin`` to its edge; margin 0 checks the domain alone.  Only
    :func:`_shape_at` and :func:`_state_at` call it, at 0 before their jet
    and at the query's margin after the frame check."""
    if not surface.contains(u, v):
        raise OutOfDomain(f"({u}, {v}) outside {surface.domain}")
    if margin and not surface.contains(u, v, margin=margin):
        raise BoundaryTooClose(
            f"point ({u}, {v}) closer than {margin:g} to the domain edge")


def _require_finite(t1: float, t2: float) -> None:
    """ScaleOverflow where theta1 or theta2 is not finite (a complex step
    overflowed where the frame is defined): NaN thetas have no class."""
    if not (math.isfinite(t1) and math.isfinite(t2)):
        raise ScaleOverflow(f"theta1 = {t1!r}, theta2 = {t2!r}")


def _shape_at(surface: SurfacePatch, u: float, v: float, margin: float):
    """The shape dict of the jet at (u, v), by a point query's one entry
    rule: OutOfDomain before the jet, ``surfaces._require_frame`` on the
    dict, then BoundaryTooClose closer than ``margin`` to the edge."""
    _require_margin(surface, u, v, 0.0)
    S = shape_data(surface.jet_raw(u, v))
    _require_frame(S)
    _require_margin(surface, u, v, margin)
    return S


def _state_at(surface: SurfacePatch, u: float, v: float, margin: float):
    """:func:`theta_state` at (u, v) by :func:`_shape_at`'s rule, on the
    state's shape dict, with :func:`_require_finite` before the margin."""
    _require_margin(surface, u, v, 0.0)
    state = theta_state(surface, u, v)
    _require_frame(state[4])
    _require_finite(state[0], state[1])
    _require_margin(surface, u, v, margin)
    return state


def _central(fp, fm, h: float):
    """(fp - fm)/(2h) componentwise, for two values of a tuple-valued
    field."""
    h2 = 2*h
    return tuple([(p - m) / h2 for p, m in zip(fp, fm)])


def _grad(field, u: float, v: float, h: float):
    """Central differences (d/du, d/dv) of ``field`` at (u, v), step h, each
    a tuple with one entry per component of the field's tuple value; the
    field is evaluated at (u + h, v), (u - h, v), (u, v + h), (u, v - h),
    in that order."""
    return (_central(field(u + h, v), field(u - h, v), h),
            _central(field(u, v + h), field(u, v - h), h))


def _along(field, u: float, v: float, X, h: float):
    """Central difference of the tuple-valued ``field`` at (u, v) along the
    parameter direction X, step h."""
    hu, hv = h*X[0], h*X[1]
    return _central(field(u + hu, v + hv), field(u - hu, v - hv), h)


def _unit_theta_derivs(surface: SurfacePatch, u: float, v: float, centre):
    """X_i . grad(theta_j) for i, j in {1, 2} (unit speed, step ``_H_FLD``),
    together with (theta1, theta2, X1, X2, shape-dict) at the point and the
    central differences (du, dv) of (theta1, theta2) they project, from
    ``centre``, the caller's :func:`theta_state` tuple at (u, v)."""
    t1, t2, X1, X2, S = centre
    du, dv = _grad(lambda a, b: theta_state(surface, a, b, (X1, X2))[:2],
                   u, v, _H_FLD)
    D = {(i, j): X[0]*du[j - 1] + X[1]*dv[j - 1]
         for i, X in ((1, X1), (2, X2)) for j in (1, 2)}
    return D, t1, t2, X1, X2, S, (du, dv)


def xi_theta_derivs(surface: SurfacePatch, u: float, v: float):
    """xi_i(theta_j) = X_i . grad(theta_j) / mu for i, j in {1, 2}, together
    with (theta1, theta2, X1, X2, shape-dict) at the point."""
    D, t1, t2, X1, X2, S, _ = _unit_theta_derivs(surface, u, v,
                                                 theta_state(surface, u, v))
    mu = S["mu"]
    return {k: _div(d, mu) for k, d in D.items()}, t1, t2, X1, X2, S


# --------------------------------------------------------------------------
# psi
# --------------------------------------------------------------------------
def _laplace_H(surface: SurfacePatch, u: float, v: float, h: float) -> float:
    """Laplace–Beltrami of the mean-curvature field in divergence form."""
    def flux(a, b):
        E, F, G, g, *_ = _jet_forms(surface.jet_raw(a, b))
        _, _, (Hu, Hv) = _curv_grads(surface, a, b)
        sg, gd = _sqrt(g), _divisor(g)
        return sg*(G*Hu - F*Hv)/gd, sg*(E*Hv - F*Hu)/gd

    g0 = _jet_forms(surface.jet_raw(u, v))[3]
    du, dv = _grad(flux, u, v, h)
    return (du[0] + dv[1]) / _divisor(_sqrt(g0))


def _psi(surface: SurfacePatch, u: float, v: float, derivs) -> float:
    """psi at (u, v) from ``derivs``, the :func:`xi_theta_derivs` tuple
    there: mu^-3 (Lap H + 2 mu^2 H) - (theta1^2 - theta2^2)/2
    + (xi1(theta1) + xi2(theta2))/2; ScaleOverflow where it leaves the
    float range (mu^3 overflows, or a field on the stencil did)."""
    xt, t1, t2, _, _, S = derivs
    mu = S["mu"]
    lap = _laplace_H(surface, u, v, _H_FLD)
    try:
        mu3 = mu**3
    except OverflowError:
        raise ScaleOverflow(f"mu^3 overflows at mu = {mu!r}") from None
    psi = (_div(lap + 2*mu*mu*S["H"], mu3) - (t1*t1 - t2*t2)/2
           + (xt[(1, 1)] + xt[(2, 2)])/2)
    if not math.isfinite(psi):
        raise ScaleOverflow(f"psi = {psi!r} at mu = {mu!r}")
    return psi


def psi_invariant(surface: SurfacePatch, u: float, v: float) -> float:
    """Third conformal invariant (see :func:`_psi`); the combination is
    Mobius-invariant, while its mean-curvature part alone is not.
    Entry by :func:`_shape_at` at margin ``2*_H_FLD``."""
    u, v = float(u), float(v)
    _shape_at(surface, u, v, 2*_H_FLD)
    return _psi(surface, u, v, xi_theta_derivs(surface, u, v))


# --------------------------------------------------------------------------
# fourth-order coefficients and classification
# --------------------------------------------------------------------------
def _quartic(derivs):
    """Canonical quartic coefficients (a, b, c, d) in the invariant gauge
    (directional derivatives along xi_i = X_i/mu) from ``derivs``, the
    :func:`xi_theta_derivs` tuple; ``osculation._profile_coeffs`` passes
    unit-speed derivatives with the D_2 row negated for the unit gauge."""
    xt, t1, t2, *_ = derivs
    return (3 + t1*t1 + xt[(1, 1)], -t1*t2 + xt[(2, 1)],
            t1*t2 + xt[(1, 2)], -3 - t2*t2 + xt[(2, 2)])


def classify_point(theta1: float, theta2: float) -> str:
    """One of Generic / CanalTheta1 / CanalTheta2 / Dupin: a theta below
    ``_TOL_CANAL`` (1e-6) in absolute value counts as 0.  The thetas are
    Mobius-invariant, so one absolute threshold serves every scale.  The
    osculating cyclide and the Dupin tracers ask this rule too."""
    small1 = abs(theta1) < _TOL_CANAL
    small2 = abs(theta2) < _TOL_CANAL
    if small1 and small2:
        return "Dupin"
    if small1:
        return "CanalTheta1"
    if small2:
        return "CanalTheta2"
    return "Generic"


def invariant_sample(surface: SurfacePatch, u: float, v: float,
                     with_coeffs: bool = True) -> InvariantSample:
    """Assemble the full pointwise package; entry by :func:`_shape_at`, at
    margin ``2*_H_FLD`` with the coefficients and 0 without, then
    :func:`_require_finite` on the thetas."""
    S = _shape_at(surface, u, v, 2*_H_FLD if with_coeffs else 0.0)
    derivs = xi_theta_derivs(surface, u, v)
    _, t1, t2, *_ = derivs
    _require_finite(t1, t2)
    psi = a = b = c = d = None
    if with_coeffs:
        psi = _psi(surface, u, v, derivs)
        a, b, c, d = _quartic(derivs)
    return InvariantSample(k1=S["k1"], k2=S["k2"], H=S["H"], mu=S["mu"],
                           theta1=t1, theta2=t2, psi=psi,
                           a=a, b=b, c=c, d=d,
                           classification=classify_point(t1, t2))


# --------------------------------------------------------------------------
# psi from the theta fields alone
# --------------------------------------------------------------------------
def psi_from_thetas(surface: SurfacePatch, u: float, v: float) -> float:
    """Recover psi from the theta fields by nested directional differencing.

    Requires the genericity quantity xi1(theta2) + xi2(theta1) to be bounded
    away from zero; raises :class:`DegenerateDenominator` otherwise (on
    Dupin cyclides and on the helically-symmetric minimal family the
    denominator vanishes identically and psi is not determined by thetas).
    The steps ``_H_NEST`` grow with nesting depth, as noise amplifies as h^-k.
    Each of the 45 points of the nested stencils is evaluated once.  Entry
    by :func:`_state_at` at margin ``3*_H_NEST[2]``: an umbilic or planar
    point raises, and so do NaN thetas; ScaleOverflow also where psi is
    not finite.
    """
    centre = _state_at(surface, u, v, 3*_H_NEST[2])
    t1, t2, *ref, _ = centre

    # xi_i^k of the pair (theta1, theta2) at (a, b), whose theta state is
    # ``state``: differenced along xi_i = X_i/mu, every frame sign-aligned
    # to the centre's
    def D(i, k, state, a, b):
        if k == 0:
            return state[:2]
        mu = state[4]["mu"]
        return tuple([_div(d, mu) for d in _along(
            lambda p, q: D(i, k - 1, theta_state(surface, p, q, ref), p, q),
            a, b, state[1 + i], _H_NEST[k - 1])])

    x1t1, x1t2 = D(1, 1, centre, u, v)
    x2t1, x2t2 = D(2, 1, centre, u, v)

    scale = max(abs(x1t1), abs(x1t2), abs(x2t1), abs(x2t2), 1.0)
    den = x1t2 + x2t1
    if abs(den) < _TOL_GEN * scale:
        raise DegenerateDenominator(
            f"xi1(theta2) + xi2(theta1) = {den:.3e} below threshold")

    x1x1t1, x1x1t2 = D(1, 2, centre, u, v)
    x2x2t1, x2x2t2 = D(2, 2, centre, u, v)
    num = _psi_numerator(t1, t2, x1t1, x1t2, x2t1, x2t2, x1x1t1, x1x1t2,
                         x2x2t1, x2x2t2, D(1, 3, centre, u, v)[1],
                         D(2, 3, centre, u, v)[0])
    psi = _div(num, den)
    if not math.isfinite(psi):
        raise ScaleOverflow(f"psi from thetas = {psi!r}")
    return psi


def _psi_numerator(t1, t2, x1t1, x1t2, x2t1, x2t2, x1x1t1, x1x1t2,
                   x2x2t1, x2x2t2, x1x1x1t2, x2x2x2t1):
    """Numerator of psi in terms of the thetas and their nested coframe
    derivatives (``x1x1t2`` is xi1(xi1(theta2)), and so on); psi is this
    over xi1(theta2) + xi2(theta1).  Works on scalars and on arrays; the
    cubes are products because numpy's ``power`` is slow on negative
    entries."""
    return (-6*t1*t2 + 2*(x2t1 - x1t2)
            + 4*(t2*t2*x2t1 - t1*t1*x1t2)
            - 1.5*(t1*(t2*t2*t2) + t2*(t1*t1*t1))
            - 3*x1t1*x1t2 - 3*x2t1*x2t2
            + 3.5*t1*t2*(x2t2 - x1t1)
            - 3.5*(t2*x2x2t1 + t1*x1x1t2)
            - t1*x2x2t2 - t2*x1x1t1
            + x2x2x2t1 - x1x1x1t2)

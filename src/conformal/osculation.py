"""Distinguished tangency direction and the osculating cyclide.

Everything here works in the canonical graph normal form at the queried
point (:func:`normal_form_monomials`) and in the cyclide pencil's form
(:func:`cyclide_monomials`), both monomial dicts and the definitions
:mod:`conformal.catalog` and :mod:`conformal.intersect` build on too.
Along the line y = t x of the tangent plane (:func:`_on_line`) both become
quartic profiles: order-4 contact pins the single free cyclide invariant
psi_c, and the contact order is read from the profiles' difference.  The
cyclide is itself a normal form, at (theta1, theta2, psi, a, b, c, d) =
(0, 0, 2 psi_c/3, 3, 0, 0, -3): a Dupin cyclide's thetas vanish, and so
psi_c = 3 psi/2 for the cyclide's own psi.

The profile coefficient set used for the published-table computation takes
unit-speed directional derivatives of the theta fields (distinct from the
invariant-gauge set in :mod:`conformal.invariants`, which divides by mu):
:class:`CyclideContact` carries the first and ``invariant_sample`` the
second, and the two differ by factors of mu.  The profiles are matched along
t_eff = -cbrt(theta1/theta2) (``_PROFILE_SIGN`` = -1): only there does the
surface's cubic profile term (theta1 + theta2 t_eff^3)/6 vanish, as the
cyclide's does, and it reproduces the published values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CanalPoint, DupinPoint, ScaleOverflow
from .invariants import (_quartic, _state_at, _unit_theta_derivs,
                         classify_point, psi_invariant)
from .surfaces import SurfacePatch, _div

__all__ = [
    "CyclideContact", "osculating_cyclide", "verify_contact_order",
    "normal_form_monomials", "cyclide_monomials", "osculating_psi_c",
]

_PROFILE_SIGN = -1      # sign of the contact direction (module docstring)


@dataclass(frozen=True)
class CyclideContact:
    """Osculating-cyclide descriptor at one surface point."""
    t: float                 # direction parameter, t^3 = theta1/theta2
    alpha: float             # angle with X1, in [0, pi/2)
    psi_c: float             # cyclide invariant
    limit_derived: bool
    # frozen profile data so verification needs no re-differencing
    theta1: float
    theta2: float
    psi: float
    coeffs: tuple            # unit-gauge (a, b, c, d)


# --------------------------------------------------------------------------
# profile coefficients (unit-speed gauge)
# --------------------------------------------------------------------------
def _profile_coeffs(derivs):
    """((a, b, c, d), theta1, theta2) from a ``_unit_theta_derivs`` result,
    with unit-speed directional derivatives D_i = X_i . grad of the theta
    fields (no division by mu):

        a = 3 + theta1^2 + D1 theta1      b = -theta1 theta2 - D2 theta1
        c = theta1 theta2 + D1 theta2     d = -3 - theta2^2 - D2 theta2

    This combination is invariant under either principal-direction sign flip,
    so it is frame-convention-free.  It is the invariant-gauge assembly
    ``invariants._quartic`` with D_2 negated (x - y and x + (-y) round
    alike).
    """
    D, t1, t2, *_ = derivs
    D = {k: -d if k[0] == 2 else d for k, d in D.items()}
    return _quartic((D, t1, t2)), t1, t2


def _limit_ratio(derivs):
    """Limit of theta1/theta2 at a point where both thetas vanish on a curve
    crossed transversally, from a ``_unit_theta_derivs`` result: ratio of
    the directional derivatives of the two fields along the unit gradient
    of theta2 (frame-consistent, so the relative sign of the two fields is
    preserved)."""
    du, dv = derivs[-1]
    # numpy's hypot: math.hypot rounds differently in the last bit
    norm = float(np.hypot(du[1], dv[1]))
    if norm < 1e-12:
        raise DupinPoint("theta2 gradient vanishes; no transversal limit")
    g0, g1 = du[1]/norm, dv[1]/norm
    return _div(g0*du[0] + g1*dv[0], g0*du[1] + g1*dv[1])


# --------------------------------------------------------------------------
# direction and cyclide
# --------------------------------------------------------------------------
def _contact_direction(theta1, theta2) -> float:
    """t = cbrt(theta1/theta2); CanalPoint unless :func:`classify_point`
    reads the point Generic."""
    if classify_point(theta1, theta2) != "Generic":
        raise CanalPoint(
            f"one theta vanishes (theta1={theta1:.3e}, theta2={theta2:.3e});"
            " quartic matching degenerates")
    return float(np.cbrt(theta1 / theta2))


def osculating_cyclide(surface: SurfacePatch, u: float, v: float
                       ) -> CyclideContact:
    """Unique cyclide with order-4 contact at a non-canal point.

    Its invariant is :func:`osculating_psi_c` of the unit-gauge profile
    coefficients and psi.  Where :func:`classify_point` reads the point
    Dupin, theta1/theta2 is replaced by its transversal limit,
    :func:`_limit_ratio`, and the result is flagged limit-derived (from the
    same theta gradients as the coefficients); where it reads a canal
    class, :class:`CanalPoint` is raised.  Entry by
    ``invariants._state_at`` at margin 0, so NaN thetas raise ScaleOverflow.
    """
    derivs = _unit_theta_derivs(surface, u, v, _state_at(surface, u, v, 0.0))
    coeffs, t1, t2 = _profile_coeffs(derivs)
    psi = psi_invariant(surface, u, v)
    limit_derived = classify_point(t1, t2) == "Dupin"
    if limit_derived:
        t = float(np.cbrt(_limit_ratio(derivs)))
    else:
        t = _contact_direction(t1, t2)
    if t == 0.0:
        raise CanalPoint("direction ratio zero")
    psi_c = osculating_psi_c((t1, t2, psi, *coeffs), t)
    return CyclideContact(
        t=t, alpha=float(np.arctan(abs(t))), psi_c=float(psi_c),
        limit_derived=limit_derived,
        theta1=float(t1), theta2=float(t2), psi=float(psi),
        coeffs=tuple(float(x) for x in coeffs))


# --------------------------------------------------------------------------
# profiles and contact order
# --------------------------------------------------------------------------
def normal_form_monomials(theta1, theta2, psi, a, b, c, d) -> dict:
    """The canonical graph z = (x^2 - y^2)/2 + (theta1 x^3 + theta2 y^3)/6
    + (a x^4 + 4b x^3 y + 6 psi x^2 y^2 + 4c x y^3 + d y^4)/24 as
    {(i, j): weight of x^i y^j}."""
    return {(2, 0): 0.5, (0, 2): -0.5, (3, 0): theta1/6, (0, 3): theta2/6,
            (4, 0): a/24, (3, 1): b/6, (2, 2): psi/4, (1, 3): c/6,
            (0, 4): d/24}


def cyclide_monomials(psi_c) -> dict:
    """The cyclide of invariant ``psi_c``, z = (x^2 - y^2)/2 +
    (x^4 - y^4)/8 + psi_c x^2 y^2/6: the normal form of a Dupin cyclide
    (module docstring)."""
    return normal_form_monomials(0.0, 0.0, 2*psi_c/3, 3.0, 0.0, 0.0, -3.0)


def _on_line(terms, t):
    """Profile [c0, ..., c4] of a monomial dict along y = t x: c_n is the
    sum of terms[i, j] t^j over i + j = n; ScaleOverflow where a power t^j
    leaves the float range."""
    c = [0.0]*5
    try:
        for (i, j), w in terms.items():
            c[i + j] += w*t**j
    except OverflowError:
        raise ScaleOverflow(f"a power of t = {t!r} overflows") from None
    return c


def osculating_psi_c(invariants, t=None) -> float:
    """psi_c of the cyclide with order-4 contact with the canonical graph of
    ``invariants`` = (theta1, theta2, psi, a, b, c, d) along the direction
    t^3 = theta1/theta2 (default: that cube root), with sign _PROFILE_SIGN:
    psi_c enters the cyclide's quartic profile term as psi_c t^2/6."""
    theta1, theta2 = invariants[:2]
    if t is None:
        t = _contact_direction(theta1, theta2)
    t_eff = _PROFILE_SIGN * t
    gap = (_on_line(normal_form_monomials(*invariants), t_eff)[4]
           - _on_line(cyclide_monomials(0.0), t_eff)[4])
    return (6.0/t_eff**2) * gap


def verify_contact_order(contact: CyclideContact) -> int:
    """Contact order between the surface and its osculating cyclide
    (``contact.psi_c``) along the contact direction, signed by
    ``_PROFILE_SIGN``: n - 1 for the lowest n at which the two profiles'
    coefficients differ by 1e-10 of the surface's largest one (or of 1),
    and 4 where they agree through the quartic.  The quadratic
    coefficients are the same literals on both sides, so n starts at 3."""
    t_eff = _PROFILE_SIGN * contact.t
    surf = _on_line(normal_form_monomials(
        contact.theta1, contact.theta2, contact.psi, *contact.coeffs), t_eff)
    cyc = _on_line(cyclide_monomials(contact.psi_c), t_eff)
    tol = 1e-10 * max(abs(surf[2]), abs(surf[3]), abs(surf[4]), 1.0)
    for n in (3, 4):
        if abs(surf[n] - cyc[n]) >= tol:
            return n - 1
    return 4

"""Dupin line field, Dupin-line and Darboux-line integration, and the
critical-angle analysis along Darboux traces.

Both integrators are fixed-step classical fourth-order schemes in the
parameter plane, advancing by ambient arc length; direction-field signs are
disambiguated per step by continuity.  Darboux traces carry the angle
variable alpha and the rescaled arc length sigma (d sigma = (k1 - k2) ds)
alongside the position samples.

The integrators step on Python floats: a direction is a pair of floats, an
angle's sine and cosine come from ``math``, the samples gather in flat
``array("d")`` buffers, and the :class:`CurveTrace` arrays are made from
them once, when a trace ends.  Each
operation keeps the operands and the order it had on numpy arrays, so a
trace is the same to the bit.  numpy stays where ``math`` rounds
differently: ``np.cbrt`` (``math.cbrt`` also needs Python 3.11),
``np.arctan``, ``np.tan`` and ``np.log``.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import AngleDegenerate, DupinPoint, SeedIsDupinPoint
from .invariants import _along, _state_at, classify_point, theta_state
from .surfaces import SurfacePatch, _div

__all__ = [
    "CurveTrace", "integrate_dupin_line", "integrate_darboux_line",
    "dupin_angle", "darboux_critical_points", "fit_circle",
    "CriticalPoint",
]

_THETA_FLOOR = 1e-12  # a |theta_i| below this is roundoff: 0 in the direction
_MAX_TURN = math.pi/4  # a Dupin direction turning further in one step jumps
_ANGLE_EPS = 0.02     # a Darboux trace stops this close to alpha = 0, pi/2
_H_GEN = 1e-4         # step of the genericity derivative at a critical
_MAX_STEPS = 10**6    # a trace of more steps (max_length/step) is refused


@dataclass
class CurveTrace:
    """Ordered samples of an integrated line-field trace."""
    uv: np.ndarray                    # (n, 2) parameter samples
    positions: np.ndarray             # (n, 3) ambient samples
    closed: bool
    termination: str      # ReachedLength | Closed | HitBoundary | HitSingularPoint
    alpha: Optional[np.ndarray] = None
    sigma: Optional[np.ndarray] = None
    dalpha: Optional[np.ndarray] = None    # d alpha / d sigma at samples
    frames: Optional[np.ndarray] = None    # (n, 2, 2) carried (X1, X2)

    def __len__(self):
        return len(self.uv)


@dataclass(frozen=True)
class CriticalPoint:
    """One zero of d alpha / d sigma along a Darboux trace."""
    index: int                # sample index just before the zero
    u: float
    v: float
    alpha: float
    relation_residual: float  # theta2 tan^3(alpha) + theta1
    tangency_gap: float       # radians, unoriented-angle convention
    genericity: float         # |V(log|theta1| + log|theta2|)| / mu
    is_extremum: bool


# --------------------------------------------------------------------------
# Dupin field
# --------------------------------------------------------------------------
def _floor_thetas(t1, t2):
    """(theta1, theta2) with a value under ``_THETA_FLOOR`` (roundoff: on a
    canal surface, 1e-15, whose cube root 1e-5 would turn the Dupin
    direction) set to 0."""
    return tuple(0.0 if abs(t) < _THETA_FLOOR else t for t in (t1, t2))


def _dupin_vector(t1, t2, X1, X2):
    """cbrt(theta2) X1 + cbrt(theta1) X2 (thetas floored by
    :func:`_floor_thetas`), ambient-unit-normalized, in parameter
    coordinates, a pair of floats; None where both floored thetas are 0.
    X1 and X2 are orthonormal in the first fundamental form, so the ambient
    length of c2 X1 + c1 X2 is hypot(c1, c2), whatever the
    parametrization."""
    c1, c2 = (float(np.cbrt(t)) for t in _floor_thetas(t1, t2))
    norm = math.hypot(c1, c2)
    if norm == 0.0:
        return None
    return (c2*X1[0] + c1*X2[0]) / norm, (c2*X1[1] + c1*X2[1]) / norm


def _align(d, ref):
    """``d`` or -d, whichever has a non-negative Euclidean product with
    ``ref`` in the parameter plane.  The product is summed term by term;
    numpy's dot may fuse it, which can change its sign only where the two
    directions are perpendicular to roundoff."""
    return (-d[0], -d[1]) if d[0]*ref[0] + d[1]*ref[1] < 0 else d


def _dupin_dir(state):
    """Unoriented :func:`_dupin_vector` from a :func:`theta_state` tuple;
    DupinPoint where :func:`classify_point` reads the point Dupin."""
    t1, t2, X1, X2, _ = state
    if classify_point(t1, t2) == "Dupin":
        raise DupinPoint(f"theta1 = {t1:.3e}, theta2 = {t2:.3e}")
    return _dupin_vector(t1, t2, X1, X2)


def _turn(d, carried, S):
    """Unoriented ambient angle between parameter directions ``d`` and
    ``carried`` at the point of shape dict ``S``, with the inner product
    of the first fundamental form (E, F, G)."""
    E, F, G = S["E"], S["F"], S["G"]

    def form(p, q):
        return E*p[0]*q[0] + F*(p[0]*q[1] + p[1]*q[0]) + G*p[1]*q[1]

    cos = abs(form(d, carried)) / math.sqrt(form(d, d)
                                            * form(carried, carried))
    return math.acos(min(cos, 1.0))


# --------------------------------------------------------------------------
# Dupin-line integration
# --------------------------------------------------------------------------
def _check_trace_args(step, max_length):
    """A trace advances by ``step`` of arc length a sample, so a zero step
    never reaches ``max_length`` and a negative one walks backwards; a
    ``max_length`` that is not finite and positive would end the trace at
    its seed.  Over ``_MAX_STEPS`` steps are refused too: a step below
    about 2.2e-16 times the length so far no longer changes that length,
    and the trace would grow without end."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step!r}")
    if not (math.isfinite(max_length) and max_length > 0):
        raise ValueError(
            f"max_length must be finite and positive, got {max_length!r}")
    if max_length/step > _MAX_STEPS:
        raise ValueError(
            f"max_length/step = {max_length/step:.3g} exceeds the limit of "
            f"{_MAX_STEPS} steps per trace")


def integrate_dupin_line(surface: SurfacePatch, seed, step: float = 0.01,
                         max_length: float = 10.0) -> CurveTrace:
    """Trace the Dupin line through ``seed`` with ambient-arc-length steps.

    Stops at the domain boundary, on closure (Closed), at ``max_length``,
    or at the Dupin locus (HitSingularPoint).  Transversal crossings of an
    isolated theta zero pass through: the field direction has a continuous
    unoriented limit there, so a step whose start sample lies inside the
    band that :func:`classify_point` reads as Dupin takes the
    carried direction as its first stage, as its other stages already do
    inside the band.  Where the next step-start sample is in the band too,
    or where the sample's unoriented ambient direction turns from the
    carried one by more than ``_MAX_TURN``, the field has no such limit and
    the trace stops.  The theta state at a step's start serves both tests
    and the first stage.
    Raises ValueError unless ``step`` and ``max_length`` are finite and
    positive, ``_state_at``'s errors at the seed (OutOfDomain, UmbilicPoint,
    ScaleOverflow) and SeedIsDupinPoint on the Dupin locus.
    """
    _check_trace_args(step, max_length)
    u, v = float(seed[0]), float(seed[1])
    ts = _state_at(surface, u, v, 0.0)
    try:
        prev = _dupin_dir(ts)
    except DupinPoint as exc:
        raise SeedIsDupinPoint(str(exc)) from exc

    def f(a, b, prev_dir):
        try:
            d = _dupin_dir(theta_state(surface, a, b))
        except DupinPoint:
            # transversal theta zero: the unoriented field has a continuous
            # limit, approximated by the direction half a step back
            return prev_dir
        return _align(d, prev_dir)

    p0 = surface.point(u, v)
    uv = array("d", (u, v))
    pos = array("d", p0)
    termination = "ReachedLength"
    closed = False
    in_band = False
    length = 0.0
    h = step
    while length < max_length:
        try:
            k1 = _dupin_dir(ts)
        except DupinPoint:
            if in_band:
                termination = "HitSingularPoint"
                break
            in_band, k1 = True, prev
        else:
            in_band = False
            if _turn(k1, prev, ts[4]) > _MAX_TURN:
                termination = "HitSingularPoint"
                break
            k1 = _align(k1, prev)
        k2 = f(u + h/2*k1[0], v + h/2*k1[1], k1)
        k3 = f(u + h/2*k2[0], v + h/2*k2[1], k1)
        k4 = f(u + h*k3[0], v + h*k3[1], k1)
        h6 = h/6
        nu = u + h6*(k1[0] + 2*k2[0] + 2*k3[0] + k4[0])
        nv = v + h6*(k1[1] + 2*k2[1] + 2*k3[1] + k4[1])
        if not surface.contains(nu, nv):
            termination = "HitBoundary"
            break
        prev = k1
        u, v = nu, nv
        length += h
        p = surface.point(u, v)
        uv.extend((u, v))
        pos.extend(p)
        # math.dist and numpy's norm may differ in the last bit, which
        # decides only a distance within roundoff of 1.5 step
        if length > 4*step and math.dist(p, p0) < 1.5*step:
            closed, termination = True, "Closed"
            break
        ts = theta_state(surface, u, v)
    return CurveTrace(uv=np.reshape(uv, (-1, 2)),
                      positions=np.reshape(pos, (-1, 3)),
                      closed=closed, termination=termination)


# --------------------------------------------------------------------------
# Darboux-line integration
# --------------------------------------------------------------------------
def integrate_darboux_line(surface: SurfacePatch, seed, alpha0: float,
                           step: float = 0.005, max_length: float = 5.0,
                           orient: int = 1) -> CurveTrace:
    """Integrate the coupled (position, alpha) system of the Darboux flow.

    State advances along cos(alpha) X1 + sin(alpha) X2 (ambient unit speed);
    alpha advances by (k1 - k2)(theta1 cos^3 a + theta2 sin^3 a) /
    (12 sin a cos a) per unit ambient arc length, so by the second factor
    per unit of sigma, d sigma = (k1 - k2) ds (a rescaling by mu would
    differ by the constant 2 and move no critical point).  The principal
    frame is carried by continuity along the trace.  Halts with
    HitSingularPoint when alpha comes within ``_ANGLE_EPS`` of 0 or pi/2,
    where the rate is singular.
    ``orient=-1`` traverses the same Darboux line in the opposite direction.
    Raises ValueError unless ``step`` and ``max_length`` are finite and
    positive, ``alpha0`` is finite and ``orient`` is 1 or -1, the errors of
    ``_state_at`` at the seed (OutOfDomain, UmbilicPoint, ScaleOverflow),
    and AngleDegenerate where |sin(alpha0) cos(alpha0)| < 1e-12: there the
    rate is singular, or 0/0 where the right side vanishes too (on a canal
    surface, whose Dupin angle is 0).
    """
    _check_trace_args(step, max_length)
    if orient not in (1, -1):
        raise ValueError(f"orient must be 1 or -1, got {orient!r}")
    if not math.isfinite(alpha0):
        raise ValueError(f"alpha0 must be finite, got {alpha0!r}")
    u, v, a = float(seed[0]), float(seed[1]), float(alpha0)
    ts = _state_at(surface, u, v, 0.0)
    if abs(math.sin(a)*math.cos(a)) < 1e-12:
        raise AngleDegenerate(
            f"alpha0 = {alpha0!r} at a degeneracy of the angle equation")
    ref = None

    def rhs(su, sv, sa, ts=None):
        nonlocal ref
        if ts is None:
            ts = theta_state(surface, su, sv, ref)
        t1, t2, X1, X2, S = ts
        ref = (X1, X2)
        dk = S["k1"] - S["k2"]
        c, s, da = _darboux_rate(sa, dk, t1, t2)
        return ((orient*(c*X1[0] + s*X2[0]), orient*(c*X1[1] + s*X2[1]),
                 orient*da), dk, ref)

    # the first stage of each step is the last evaluation of the step before:
    # the same point, aligned to the frame found there
    k1, dk, fr = rhs(u, v, a, ts)
    uv = array("d", (u, v))
    pos = array("d", surface.point(u, v))
    alphas = array("d", [a])
    sigmas = array("d", [0.0])
    dalphas = array("d", [k1[2]])
    frames = array("d", fr[0] + fr[1])
    termination = "ReachedLength"
    length = 0.0
    h = step
    while length < max_length:
        k2, _, _ = rhs(u + h/2*k1[0], v + h/2*k1[1], a + h/2*k1[2])
        k3, _, _ = rhs(u + h/2*k2[0], v + h/2*k2[1], a + h/2*k2[2])
        k4, _, _ = rhs(u + h*k3[0], v + h*k3[1], a + h*k3[2])
        h6 = h/6
        nu = u + h6*(k1[0] + 2*k2[0] + 2*k3[0] + k4[0])
        nv = v + h6*(k1[1] + 2*k2[1] + 2*k3[1] + k4[1])
        na = a + h6*(k1[2] + 2*k2[2] + 2*k3[2] + k4[2])
        if not surface.contains(nu, nv):
            termination = "HitBoundary"
            break
        r = na % math.pi
        if min(abs(math.sin(r)), abs(math.cos(r))) < _ANGLE_EPS:
            termination = "HitSingularPoint"
        u, v, a = nu, nv, na
        length += h
        uv.extend((u, v))
        pos.extend(surface.point(u, v))
        alphas.append(a)
        sigmas.append(sigmas[-1] + dk*h)
        k1, dk, fr = rhs(u, v, a)
        dalphas.append(k1[2])
        frames.extend(fr[0] + fr[1])
        if termination == "HitSingularPoint":
            break
    positions = np.reshape(pos, (-1, 3))
    closed = (len(positions) > 4
              and np.linalg.norm(positions[-1] - positions[0]) < 2*step)
    return CurveTrace(uv=np.reshape(uv, (-1, 2)), positions=positions,
                      closed=closed, termination=termination,
                      alpha=np.array(alphas), sigma=np.array(sigmas),
                      dalpha=np.array(dalphas),
                      frames=np.reshape(frames, (-1, 2, 2)))


def _darboux_rate(a, dk, t1, t2):
    """(cos a, sin a, d alpha/ds) of the Darboux flow at angle ``a``, with
    k1 - k2 = ``dk``: dk (t1 cos^3 a + t2 sin^3 a) / (12 sin a cos a).
    It raises nothing where numpy's float64 scalars raise nothing: at
    sin a cos a = 0 the rate is numpy's +-inf or NaN, and at an infinite a
    (a stage after such a rate) cosine and sine are NaN."""
    try:
        c, s = math.cos(a), math.sin(a)
    except ValueError:
        c = s = math.nan
    return c, s, _div(dk * (t1*c**3 + t2*s**3), 12*s*c)


def dupin_angle(surface: SurfacePatch, seed) -> float:
    """Angle alpha of the Dupin direction cbrt(theta2) X1 + cbrt(theta1) X2
    against X1 at ``seed``, tan(alpha) = cbrt(theta1/theta2), in
    [-pi/2, pi/2]: the default start angle of a Darboux line, on thetas
    floored as in :func:`_dupin_dir`.  Raises the errors of ``_state_at``
    at the seed (OutOfDomain, UmbilicPoint, ScaleOverflow for NaN thetas)
    and SeedIsDupinPoint where both thetas vanish."""
    t1, t2, *_ = _state_at(surface, *seed, 0.0)
    if classify_point(t1, t2) == "Dupin":
        raise SeedIsDupinPoint(f"theta1 = {t1:.3e}, theta2 = {t2:.3e}")
    t1, t2 = _floor_thetas(t1, t2)
    # numpy's division: theta2 = 0 gives an infinite slope, not an error
    return float(-np.arctan(np.cbrt(np.divide(-t1, t2))))


# --------------------------------------------------------------------------
# critical points
# --------------------------------------------------------------------------
def darboux_critical_points(trace: CurveTrace, surface: SurfacePatch
                            ) -> List[CriticalPoint]:
    """Zeros of d alpha / d sigma along a Darboux trace.

    At each sign change of the stored derivative the zero is located by
    linear interpolation; there the algebraic relation
    theta2 tan^3(alpha) + theta1 = 0 is evaluated, the trace direction is
    compared with the Dupin field as unoriented angles against X1 (the
    documented convention: the two lines are mirror images across X1, so
    |angle| is the comparable quantity), the genericity derivative of
    log|theta1| + log|theta2| is measured, and a discrete extremum test on
    alpha is run.  The genericity derivative is taken along the metric-unit
    Dupin direction of :func:`_dupin_vector` and divided by mu, so it does
    not depend on the parametrization.  Its absolute value is reported: the
    direction, and so the sign, follows the principal frame the trace
    carries (flipping X1 or X2 flips V), not the surface.  It is NaN where
    both floored thetas are 0, and ``tangency_gap`` is NaN where theta2 is
    0.

    ``tangency_gap`` and ``genericity`` carry about 3 significant digits,
    although they are printed with 12: the zero is linearly interpolated
    between trace samples, and the genericity derivative is a central
    difference with step ``_H_GEN`` (1e-4).  A jet change at roundoff level
    moves them in the fourth digit; two criticals that differ by a symmetry
    of the surface can differ there too.
    """
    if trace.dalpha is None:
        return []
    out = []
    d = trace.dalpha
    for i in range(len(d) - 1):
        if d[i] == 0.0 or d[i]*d[i + 1] >= 0:
            continue
        f = d[i] / (d[i] - d[i + 1])
        uc = (1 - f)*trace.uv[i] + f*trace.uv[i + 1]
        ac = (1 - f)*trace.alpha[i] + f*trace.alpha[i + 1]
        ref = None if trace.frames is None else trace.frames[i].tolist()
        t1, t2, X1, X2, S = theta_state(surface, uc[0], uc[1], ref)
        rel = t2*np.tan(ac)**3 + t1
        gap = gen = float("nan")
        # unoriented tangency with the Dupin field; the theta ratio stays
        # accurate arbitrarily close to the Dupin locus
        if t2 != 0.0:
            ang_dupin = np.arctan(abs(np.cbrt(t1/t2)))
            a_red = abs(ac) % np.pi
            if a_red > np.pi/2:
                a_red = np.pi - a_red
            gap = abs(a_red - ang_dupin)
        V = _dupin_vector(t1, t2, X1, X2)
        if V is not None:
            def logth(a, b):
                r1, r2, *_ = theta_state(surface, a, b, (X1, X2))
                return (np.log(abs(r1)) + np.log(abs(r2)),)

            gen = abs(_along(logth, uc[0], uc[1], V, _H_GEN)[0]) / S["mu"]
        j0, j1 = max(i - 1, 0), min(i + 2, len(d) - 1)
        window = trace.alpha[j0:j1 + 1]
        is_ext = bool(len(window) >= 3
                      and (window[1:-1].max() >= window[[0, -1]].max()
                           or window[1:-1].min() <= window[[0, -1]].min()))
        out.append(CriticalPoint(index=i, u=float(uc[0]), v=float(uc[1]),
                                 alpha=float(ac), relation_residual=float(rel),
                                 tangency_gap=float(gap),
                                 genericity=float(gen), is_extremum=is_ext))
    return out


# --------------------------------------------------------------------------
# circle fitting (for characteristic-circle checks)
# --------------------------------------------------------------------------
def fit_circle(points: np.ndarray):
    """Best-fit circle in 3-space: fit a plane by SVD, then an algebraic
    circle in the plane.  Returns (center, radius, max_residual) where the
    residual is the worst distance of a sample from the fitted circle."""
    P = np.asarray(points, dtype=float)
    centroid = P.mean(axis=0)
    Q = P - centroid
    _, _, Vt = np.linalg.svd(Q, full_matrices=False)
    e1, e2, n = Vt[0], Vt[1], Vt[2]
    plane_res = np.abs(Q @ n)
    x, y = Q @ e1, Q @ e2
    A = np.column_stack([2*x, 2*y, np.ones_like(x)])
    sol, *_ = np.linalg.lstsq(A, x*x + y*y, rcond=None)
    cx, cy, c0 = sol
    r = np.sqrt(c0 + cx*cx + cy*cy)
    center = centroid + cx*e1 + cy*e2
    in_plane_res = np.abs(np.hypot(x - cx, y - cy) - r)
    residual = float(max(plane_res.max(), in_plane_res.max()))
    return center, float(r), residual

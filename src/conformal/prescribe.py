"""Grid-based construction and verification of prescribed curvature-line data.

Given a prescribed direction-ratio field ``kappa`` and a free positive
coframe factor ``f2`` on a rectangle, the pipeline integrates the remaining
coframe factor ``f1`` column-wise, derives the conformal principal
curvatures and the fourth-order invariant on the grid, and evaluates two
families of residuals:

* structural residuals — the four first-order relations tying (f1, f2,
  theta1, theta2, psi, b, c) together;
* integrability residuals — the second- and fourth-order compatibility
  conditions on (f1, f2, kappa) alone, with dedicated simplified forms when
  kappa is constant.

All derivatives are second-order central differences; a margin of cells is
excluded from every reported norm so that one-sided boundary stencils never
influence a verdict.  The long compatibility expressions are written against
an abstract derivative oracle so the identical code path can be exercised
with exact symbolic derivatives in the test suite.

The pipeline needs numpy only: ``f1`` is integrated by a cumulative
trapezoid written in numpy, so neither importing this module nor running
:func:`prescribe` loads scipy or sympy.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .errors import (KappaZero, MarginTooSmall, MissingField,
                     NonPositiveResult)
from .invariants import _psi_numerator

__all__ = [
    "FieldGrid", "ResidualReport", "solve_f1", "thetas_from_f",
    "psi_from_grid", "structural_residuals", "integrability_residuals",
    "prescribe", "helcat_grid", "recovered_kappa",
    "second_order_condition", "fourth_order_condition",
    "second_order_condition_const", "fourth_order_condition_const",
]

_TOL_GEN = 1e-5
_TOL_KAPPA = 1e-12
# empirical h^2 constant of the residual max-norms on helically-symmetric
# minimal-family grids (worst entry is the fourth-order compatibility
# residual, ~23 h^2 at h = 1/64; see tol_real in `prescribe`)
_BASELINE_C = 25.0
_MARGIN = 4             # cells `prescribe` leaves out of every norm
# floats per row block of an elementwise evaluation (see `_by_rows`)
_BLOCK = 1 << 14


# --------------------------------------------------------------------------
# containers
# --------------------------------------------------------------------------
@dataclass
class FieldGrid:
    """Rectangular grid over [0, L1] x [0, L2] with optional scalar fields.

    Arrays are indexed [i, j] with i along x1 and j along x2.  ``f1`` and
    ``f2`` must be strictly positive where present; ``kappa`` must be
    nonzero where present.
    """
    x1: np.ndarray
    x2: np.ndarray
    f1: Optional[np.ndarray] = None
    f2: Optional[np.ndarray] = None
    theta1: Optional[np.ndarray] = None
    theta2: Optional[np.ndarray] = None
    psi: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    c: Optional[np.ndarray] = None
    kappa: Optional[np.ndarray] = None

    def __post_init__(self):
        self.x1 = np.asarray(self.x1, dtype=float)
        self.x2 = np.asarray(self.x2, dtype=float)
        for name in ("f1", "f2"):
            arr = getattr(self, name)
            if arr is not None and np.any(np.asarray(arr) <= 0):
                raise NonPositiveResult(f"{name} must be positive everywhere")
        if self.kappa is not None and np.any(np.asarray(self.kappa) == 0):
            raise KappaZero("kappa vanishes on the grid")

    @property
    def h1(self) -> float:
        return float(self.x1[1] - self.x1[0])

    @property
    def h2(self) -> float:
        return float(self.x2[1] - self.x2[0])

    @property
    def shape(self) -> Tuple[int, int]:
        return len(self.x1), len(self.x2)

    def require(self, *names):
        for name in names:
            if getattr(self, name) is None:
                raise MissingField(f"field '{name}' is not present")

    def d1(self, arr: np.ndarray) -> np.ndarray:
        return np.gradient(arr, self.h1, axis=0, edge_order=2)

    def d2(self, arr: np.ndarray) -> np.ndarray:
        return np.gradient(arr, self.h2, axis=1, edge_order=2)


@dataclass
class ResidualReport:
    """Max-norm and RMS of each evaluated residual over interior cells."""
    max_norm: Dict[str, float]
    rms: Dict[str, float]
    margin: int
    order: int = 2
    extra: Dict[str, float] = field(default_factory=dict)

    def worst(self) -> float:
        vals = [v for v in self.max_norm.values() if np.isfinite(v)]
        return max(vals) if vals else 0.0

    def merged(self, other: "ResidualReport") -> "ResidualReport":
        return ResidualReport(
            max_norm={**self.max_norm, **other.max_norm},
            rms={**self.rms, **other.rms},
            margin=max(self.margin, other.margin),
            order=self.order,
            extra={**self.extra, **other.extra})


def _norms(res: np.ndarray, margin: int):
    """Interior max-norm and RMS, ignoring masked (NaN) cells; all-masked
    residuals report NaN norms and are excluded from verdicts."""
    core = res[margin:res.shape[0]-margin, margin:res.shape[1]-margin]
    if core.size == 0:
        raise MarginTooSmall(
            f"margin {margin} leaves no interior cells on shape {res.shape}")
    if not np.any(np.isfinite(core)):
        return float("nan"), float("nan")
    return (float(np.nanmax(np.abs(core))),
            float(np.sqrt(np.nanmean(core**2))))


# --------------------------------------------------------------------------
# construction pipeline
# --------------------------------------------------------------------------
def solve_f1(grid: FieldGrid, f1_boundary: np.ndarray) -> np.ndarray:
    """Integrate f1 down the columns from its values on the row x2 = 0:

        f1(x1, x2) = f1(x1, 0) - int_0^{x2} d1(f2)/kappa dx2'

    with a central-difference d1 and composite trapezoid in x2.
    """
    grid.require("f2", "kappa")
    kap = np.asarray(grid.kappa, dtype=float)
    if np.min(np.abs(kap)) < _TOL_KAPPA:
        raise KappaZero("kappa below tolerance on the grid")
    boundary = np.asarray(f1_boundary, dtype=float)
    if np.any(boundary <= 0):
        raise NonPositiveResult("boundary row of f1 must be positive")
    y = grid.d1(grid.f2) / kap
    # cumulative composite trapezoid along x2, starting from 0 (the
    # arithmetic of scipy's cumulative_trapezoid, bit for bit)
    acc = np.zeros_like(y)
    np.cumsum(np.diff(grid.x2)*(y[:, 1:] + y[:, :-1])/2.0, axis=1,
              out=acc[:, 1:])
    f1 = boundary[:, None] - acc
    if np.any(f1 <= 0):
        raise NonPositiveResult(
            "integrated f1 crossed zero; data left the admissible cone")
    return f1


def thetas_from_f(grid: FieldGrid):
    """(theta1, theta2, consistency_gap) from the coframe fields:

        theta2 = -2 d2(f1) / (f1 f2),

    cross-checked against 2 d1(f2) / (kappa f1 f2) (max abs gap returned,
    not thrown), and theta1 = kappa * theta2.
    """
    grid.require("f1", "f2", "kappa")
    ff = grid.f1 * grid.f2
    theta2 = -2.0 * grid.d2(grid.f1) / ff
    cross = 2.0 * grid.d1(grid.f2) / (grid.kappa * ff)
    gap = float(np.max(np.abs(theta2 - cross)))
    theta1 = grid.kappa * theta2
    return theta1, theta2, gap


def bc_from_thetas(grid: FieldGrid):
    """Off-diagonal invariants from the theta fields:

        b = -theta1 theta2 + d2(theta1)/f2
        c =  theta1 theta2 + d1(theta2)/f1
    """
    grid.require("f1", "f2", "theta1", "theta2")
    b = -grid.theta1*grid.theta2 + grid.d2(grid.theta1)/grid.f2
    c = grid.theta1*grid.theta2 + grid.d1(grid.theta2)/grid.f1
    return b, c


def psi_from_grid(grid: FieldGrid) -> np.ndarray:
    """Fourth-order invariant recovered from the theta fields alone, using
    the coframe derivations xi_i = (1/f_i) d_i as grid differences.  Cells
    where the genericity denominator xi1(theta2) + xi2(theta1) falls below
    2 h^2 (relative to the local derivative scale) are masked NaN.  That
    tolerance sits a factor ~8 above the central-difference noise floor of
    the denominator, so data on which the denominator vanishes identically
    is masked rather than amplified into garbage.
    """
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
    x1x1x1t2 = xi1(x1x1t2)
    x2x2x2t1 = xi2(x2x2t1)

    num = _by_rows(_psi_numerator, t1, t2, x1t1, x1t2, x2t1, x2t2, x1x1t1,
                   x1x1t2, x2x2t1, x2x2t2, x1x1x1t2, x2x2x2t1)
    den = x1t2 + x2t1
    # pairwise maxima, so that no (5, n1, n2) stack is built
    scale = np.maximum(np.maximum(np.abs(x1t1), np.abs(x1t2)),
                       np.maximum(np.abs(x2t1), np.abs(x2t2)))
    np.maximum(scale, 1.0, out=scale)
    psi = np.where(np.abs(den) < tol_gen*scale, np.nan, num/np.where(den == 0, 1.0, den))
    return psi


# --------------------------------------------------------------------------
# structural residuals (first-order relations)
# --------------------------------------------------------------------------
def structural_residuals(grid: FieldGrid, margin: int) -> ResidualReport:
    """Residuals of the four first-order relations:

        R1 =  d2(f1) + (1/2) f1 f2 theta2
        R2 =  d1(f2) - (1/2) f1 f2 theta1
        R3 =  f1 d2(psi) - f2 d1(c) - f1 f2 (c theta1 + theta2 (psi + 2))
        R4 = -f1 d2(b) + f2 d1(psi) + f1 f2 (b theta2 + theta1 (psi - 2))

    over all but ``margin`` cells at each edge.  Every field must be on the
    grid (:func:`bc_from_thetas` derives ``b`` and ``c``).
    """
    grid.require("f1", "f2", "theta1", "theta2", "psi", "b", "c")
    b, c = grid.b, grid.c
    f1, f2, t1, t2, psi = grid.f1, grid.f2, grid.theta1, grid.theta2, grid.psi
    res = {
        "structural_1": grid.d2(f1) + 0.5*f1*f2*t2,
        "structural_2": grid.d1(f2) - 0.5*f1*f2*t1,
        "structural_3": f1*grid.d2(psi) - f2*grid.d1(c)
                        - f1*f2*(c*t1 + t2*(psi + 2.0)),
        "structural_4": -f1*grid.d2(b) + f2*grid.d1(psi)
                        + f1*f2*(b*t2 + t1*(psi - 2.0)),
    }
    mx, rms = {}, {}
    for name, r in res.items():
        mx[name], rms[name] = _norms(np.asarray(r, dtype=float), margin)
    return ResidualReport(max_norm=mx, rms=rms, margin=margin)


# --------------------------------------------------------------------------
# compatibility conditions on (f1, f2, kappa)
#
# Each condition is written against a derivative oracle D(f, *idx) returning
# the mixed partial of f in the listed coordinate directions (1 or 2), so
# the same expression code runs on grid arrays and on symbolic inputs.
# --------------------------------------------------------------------------
def _pw(x, n: int):
    """x**n for an integer n >= 2, as the product x*x*...*x.

    numpy runs ``x**3`` and higher through its general ``power`` loop, which
    is about 40x slower on a grid whose entries are negative (as most of
    f1_2 and f2_2 are) than on a positive one; n - 1 multiplies, all but the
    first in place, cost less than either.  ``*=`` falls back to ``*`` on
    scalars and sympy expressions, so the conditions still run on those.
    """
    r = x*x
    for _ in range(n - 2):
        r *= x
    return r


def second_order_condition_const(f1, f2, k, D: Callable):
    """Second-order compatibility, constant direction ratio; ``k`` is the
    reciprocal of the ratio."""
    return (2*D(f1, 2, 2)/f1
            + 2*k*(-D(f1, 2)*D(f2, 1) + f2*D(f1, 1, 2))/f2**2
            - 2*D(f1, 2)**2/f1**2)


def second_order_condition(f1, f2, k, D: Callable):
    """Second-order compatibility for a varying direction ratio; ``k`` is
    the reciprocal of the ratio (field)."""
    return 2*(-D(f1, 2)**2/f1**2 + D(f1, 2, 2)/f1
              + ((k*D(f2, 1))**2
                 + f2*(D(f1, 2)*D(k, 1) + k*D(f1, 1, 2)))/f2**2)


def fourth_order_condition_const(f1, f2, k, D: Callable):
    """Fourth-order compatibility, constant direction ratio ``k``."""
    f1_1, f1_2 = D(f1, 1), D(f1, 2)
    f1_11, f1_12, f1_22 = D(f1, 1, 1), D(f1, 1, 2), D(f1, 2, 2)
    f1_111, f1_112, f1_222 = D(f1, 1, 1, 1), D(f1, 1, 1, 2), D(f1, 2, 2, 2)
    f1_1112, f1_2222 = D(f1, 1, 1, 1, 2), D(f1, 2, 2, 2, 2)
    f2_1, f2_2 = D(f2, 1), D(f2, 2)
    f2_11, f2_22 = D(f2, 1, 1), D(f2, 2, 2)
    f2_111, f2_222 = D(f2, 1, 1, 1), D(f2, 2, 2, 2)
    U = (k*_pw(f1, 6)*(-2*_pw(f2, 4)*f1_2*f2_2 - 15*f1_2*_pw(f2_2, 3)
                       + 2*_pw(f2, 5)*f1_22
                       + 5*f2*f2_2*(3*f2_2*f1_22 + 2*f1_2*f2_22)
                       - f2**2*(4*f1_22*f2_22 + 6*f2_2*f1_222 + f1_2*f2_222)
                       + _pw(f2, 3)*f1_2222)
         + 15*_pw(f2, 6)*f1_2*_pw(f1_1, 3)
         + _pw(f1, 4)*f2**2*f1_2*(-3*k*f1_2**2*f2_2 + 3*k*f2*f1_2*f1_22
                                  + 2*_pw(f2, 4)*f1_1)
         + _pw(f1, 5)*f2*(8*k*_pw(f2, 4)*f1_2**2 + 18*k*f1_2**2*f2_2**2
                          - k*f2*f1_2*(21*f2_2*f1_22 + 5*f1_2*f2_22)
                          + k*f2**2*(3*f1_22**2 + 5*f1_2*f1_222)
                          - 2*_pw(f2, 5)*f1_12)
         + f1*_pw(f2, 5)*f1_1*(30*k*f1_2**2*f1_1 - 15*f2*f1_1*f1_12
                               + 2*f1_2*(6*f1_1*f2_1 - 5*f2*f1_11))
         + f1**2*_pw(f2, 4)*(24*k**2*_pw(f1_2, 3)*f1_1
                             + f1_2**2*(30*k*f1_1*f2_1 - 8*k*f2*f1_11)
                             + f2*(4*f2*f1_12*f1_11
                                   + f1_1*(-9*f2_1*f1_12 + 6*f2*f1_112))
                             + f1_2*(f1_1*(9*f2_1**2
                                           - 6*f2*(6*k*f1_12 + f2_11))
                                     + f2*(-3*f2_1*f1_11 + f2*f1_111)))
         + _pw(f1, 3)*_pw(f2, 3)*(
             8*_pw(k, 3)*_pw(f1_2, 4) + 20*k**2*_pw(f1_2, 3)*f2_1
             - 8*k*f1_2**2*(-2*f2_1**2 + f2*(3*k*f1_12 + f2_11))
             + f1_2*(4*_pw(f2_1, 3) - f2*f2_1*(22*k*f1_12 + 5*f2_11)
                     + f2**2*(8*k*f1_112 + f2_111))
             + f2*(-4*f2_1**2*f1_12 + 2*f2*f2_1*f1_112
                   + f2*(6*k*f1_12**2 + 3*f1_12*f2_11 - f2*f1_1112))))
    return -2/(_pw(f1, 6)*_pw(f2, 6))*U


def fourth_order_condition(f1, f2, k, D: Callable):
    """Fourth-order compatibility for a varying direction ratio ``k``."""
    f1_1, f1_2 = D(f1, 1), D(f1, 2)
    f1_11, f1_12, f1_22 = D(f1, 1, 1), D(f1, 1, 2), D(f1, 2, 2)
    f1_111, f1_112, f1_222 = D(f1, 1, 1, 1), D(f1, 1, 1, 2), D(f1, 2, 2, 2)
    f1_1112, f1_2222 = D(f1, 1, 1, 1, 2), D(f1, 2, 2, 2, 2)
    f2_1, f2_2 = D(f2, 1), D(f2, 2)
    f2_11, f2_22 = D(f2, 1, 1), D(f2, 2, 2)
    f2_111, f2_222 = D(f2, 1, 1, 1), D(f2, 2, 2, 2)
    k_1, k_2 = D(k, 1), D(k, 2)
    k_11, k_22 = D(k, 1, 1), D(k, 2, 2)
    k_222 = D(k, 2, 2, 2)
    T = (-15*_pw(f2, 6)*f1_2*_pw(f1_1, 3)
         - _pw(f1, 4)*f2**2*f1_2*(2*_pw(f2, 4)*f1_1 + 3*f1_2*f2_2*f2_1
                                  + f2*(2*k_2*f1_2**2 - 3*f1_22*f2_1))
         - _pw(f1, 6)*(2*_pw(f2, 5)*(k_2*f1_2 + k*f1_22)
                       + _pw(f2, 3)*(3*k_22*f1_22 + f1_2*k_222
                                     + 3*k_2*f1_222 + k*f1_2222)
                       + 2*_pw(f2, 4)*f2_2*f2_1 + 15*_pw(f2_2, 3)*f2_1
                       + 5*f2*f2_2*(3*k_2*f1_2*f2_2 + 3*k*f2_2*f1_22
                                    - 2*f2_22*f2_1)
                       - f2**2*(12*k_2*f2_2*f1_22
                                + f1_2*(6*f2_2*k_22 + 4*k_2*f2_22)
                                + k*(4*f1_22*f2_22 + 6*f2_2*f1_222)
                                - f2_222*f2_1))
         + _pw(f1, 5)*f2*(f2*f1_2**2*(15*k_2*f2_2 - 4*f2*k_22)
                          - 11*f2**2*k_2*f1_2*f1_22
                          - 3*k*f2**2*f1_22**2
                          + f1_2*(8*_pw(f2, 4) + 18*f2_2**2
                                  - 5*f2*f2_22)*f2_1
                          + f2*(-21*f2_2*f1_22 + 5*f2*f1_222)*f2_1
                          + 2*_pw(f2, 5)*f1_12)
         + f1*_pw(f2, 5)*f1_1*(15*f2*f1_1*f1_12
                               + 2*f1_2*(9*f1_1*f2_1 + 5*f2*f1_11))
         - f1**2*_pw(f2, 4)*(3*f1_2*f1_1*f2_1**2
                             + f2*(-12*f1_2**2*k_1*f1_1
                                   + 27*f1_1*f2_1*f1_12
                                   + f1_2*(5*f2_1*f1_11 - 6*f1_1*f2_11))
                             + f2**2*(4*f1_12*f1_11 + 6*f1_1*f1_112
                                      + f1_2*f1_111))
         + _pw(f1, 3)*_pw(f2, 4)*(6*f2_1**2*f1_12
                                  - 2*f1_2**2*(2*k_1*f2_1 + f2*k_11)
                                  + 6*f2*f2_1*f1_112
                                  - f1_2*(3*f2_1*f2_11
                                          + f2*(10*k_1*f1_12 + f2_111))
                                  + f2*(-6*k*f1_12**2 - 3*f1_12*f2_11
                                        + f2*f1_1112)))
    return 2/(_pw(f1, 6)*_pw(f2, 6))*T


def _grid_oracle(grid: FieldGrid) -> Callable:
    """D(arr, *idx): the differences of ``arr`` along ``idx``, taken left to
    right.  Every prefix is cached, so each distinct difference is taken
    once.  The empty prefix caches ``arr`` itself, which keeps it alive so
    that no other array can reuse its ``id`` while the oracle lives."""
    cache = {}

    def D(arr, *idx):
        key = (id(arr), idx)
        if key not in cache:
            if not idx:
                cache[key] = arr
            else:
                prev = D(arr, *idx[:-1])
                cache[key] = grid.d1(prev) if idx[-1] == 1 else grid.d2(prev)
        return cache[key]

    return D


def _by_rows(fn: Callable, *args, D: Optional[Callable] = None
             ) -> np.ndarray:
    """``fn(*args)``, or ``fn(*args, D)``, evaluated on blocks of rows.

    ``fn`` is elementwise in its arguments (grid arrays or scalars) and in
    the differences D returns, so every value is the one a whole-grid
    evaluation gives, bit for bit; D still takes each difference once on
    the whole grid and hands ``fn`` the block of it.  What changes is the
    size of the temporaries: each is ``_BLOCK`` floats instead of a whole
    grid (4.7 MB at 769^2), so they stay in cache and malloc reuses them
    instead of having fresh pages faulted in for each.
    """
    n1, n2 = next(np.shape(a) for a in args if np.ndim(a))
    rows = max(1, _BLOCK // n2)
    out = np.empty((n1, n2))
    for lo in range(0, n1, rows):
        blk = slice(lo, lo + rows)
        full = {}   # id of a block view -> the grid array it cuts

        def cut(a):
            if np.ndim(a) == 0:
                return a
            part = a[blk]
            full[id(part)] = a
            return part

        parts = [cut(a) for a in args]
        if D is not None:
            parts.append(lambda arr, *idx: D(full[id(arr)], *idx)[blk])
        out[blk] = fn(*parts)
    return out


def integrability_residuals(grid: FieldGrid) -> ResidualReport:
    """Residuals of the second- and fourth-order compatibility conditions on
    (f1, f2, kappa), over all but ``_MARGIN`` cells at each edge.  When
    kappa is constant to 1e-12 the dedicated constant-ratio forms are used;
    the second-order condition takes the reciprocal 1/kappa as its ratio
    argument, the fourth-order condition takes kappa itself.
    """
    grid.require("f1", "f2", "kappa")
    n1, n2 = grid.shape
    if n1 <= 2*_MARGIN + 1 or n2 <= 2*_MARGIN + 1:
        raise MarginTooSmall(
            f"grid {n1}x{n2} too small for margin {_MARGIN}")
    D = _grid_oracle(grid)
    f1 = np.asarray(grid.f1, dtype=float)
    f2 = np.asarray(grid.f2, dtype=float)
    kap = np.asarray(grid.kappa, dtype=float)
    const = float(np.max(kap) - np.min(kap)) < _TOL_KAPPA
    if const:
        k0 = float(np.mean(kap))
        r2 = _by_rows(second_order_condition_const, f1, f2, 1.0/k0, D=D)
        r4 = _by_rows(fourth_order_condition_const, f1, f2, k0, D=D)
        names = ("integrability_2nd_const", "integrability_4th_const")
    else:
        r2 = _by_rows(second_order_condition, f1, f2, 1.0/kap, D=D)
        r4 = _by_rows(fourth_order_condition, f1, f2, kap, D=D)
        names = ("integrability_2nd", "integrability_4th")
    mx, rms = {}, {}
    for name, r in zip(names, (r2, r4)):
        mx[name], rms[name] = _norms(np.asarray(r, dtype=float), _MARGIN)
    return ResidualReport(max_norm=mx, rms=rms, margin=_MARGIN)


# --------------------------------------------------------------------------
# pipeline
# --------------------------------------------------------------------------
def recovered_kappa(grid: FieldGrid) -> np.ndarray:
    """Direction ratio recovered from the theta fields (theta1/theta2),
    NaN-masked where |theta2| < 1e-12."""
    grid.require("theta1", "theta2")
    t2 = np.asarray(grid.theta2, dtype=float)
    safe = np.where(np.abs(t2) < 1e-12, np.nan, t2)
    return grid.theta1 / safe


def prescribe(kappa: np.ndarray, f2: np.ndarray, f1_boundary: np.ndarray,
              x1: np.ndarray, x2: np.ndarray,
              f1: Optional[np.ndarray] = None
              ) -> Tuple[FieldGrid, ResidualReport]:
    """Full construction-and-verification pipeline.

    Builds f1 by column integration, derives theta1/theta2, b, c and the
    fourth-order invariant, then evaluates the structural and integrability
    residual families over all but ``_MARGIN`` cells at each edge.  The
    returned report's ``extra`` carries the theta consistency gap, the
    realizability tolerance ``tol_real``, and ``realizable`` (1.0 or 0.0):
    all residual max-norms below ``tol_real``.  The tolerance is ten times
    the empirical h^2 envelope of the residuals measured on grids sampled
    from an actual surface family.

    That envelope holds only while truncation error dominates.  The
    fourth-order residual takes fourth differences, whose roundoff grows
    like eps/h^4, while ``tol_real = 250 h^2`` falls.  On the
    helicoid-catenoid grids at alpha = pi/4, ``integrability_4th_const``
    reads 1.44e-4, 3.80e-4 and 1.33e-3 at n = 513, 769 and 1025, against
    ``tol_real`` 9.5e-4, 4.2e-4 and 2.4e-4.  769 sits at 0.9 ``tol_real``,
    and from about 1025 up data from a real surface is reported not
    realizable, from roundoff alone.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    kappa = np.broadcast_to(np.asarray(kappa, dtype=float),
                            (len(x1), len(x2))).copy()
    f2 = np.broadcast_to(np.asarray(f2, dtype=float),
                         (len(x1), len(x2))).copy()
    grid = FieldGrid(x1=x1, x2=x2, f2=f2, kappa=kappa)
    # an explicit f1 bypasses the column integration (used to test whether
    # externally supplied coframe data is compatible)
    grid.f1 = solve_f1(grid, f1_boundary) if f1 is None else np.asarray(
        f1, dtype=float)
    t1, t2, gap = thetas_from_f(grid)
    grid.theta1, grid.theta2 = t1, t2
    grid.b, grid.c = bc_from_thetas(grid)
    grid.psi = psi_from_grid(grid)
    h = max(grid.h1, grid.h2)
    tol_real = 10.0 * _BASELINE_C * h * h
    rep = structural_residuals(grid, margin=_MARGIN).merged(
        integrability_residuals(grid))
    rep.extra["theta_consistency_gap"] = gap
    rep.extra["tol_real"] = float(tol_real)
    core = grid.psi[_MARGIN:-_MARGIN, _MARGIN:-_MARGIN]
    rep.extra["psi_masked_fraction"] = float(np.mean(~np.isfinite(core)))
    rep.extra["realizable"] = 1.0 if rep.worst() < tol_real else 0.0
    return grid, rep


# --------------------------------------------------------------------------
# reference grids from the helically-symmetric minimal family
# --------------------------------------------------------------------------
def helcat_grid(alpha_h: float, n: int) -> FieldGrid:
    """Exact coframe data of the helicoid-catenoid family sampled on an
    n x n grid over [0, 1]^2 in the rotated curvature-line coordinates
    (shifted by 0.1 to avoid the symmetry axis).

    Closed forms: with B = 1 + sin(alpha_h) and s the rotated coordinate,
    f1 = f2 = sech(s), kappa = cos(alpha_h)/B (constant),
    theta2 = sqrt(2B) sinh(s), theta1 = kappa*theta2,
    psi = sin(alpha_h) (3 cosh^2 s - 2).
    """
    ca, sa = np.cos(alpha_h), np.sin(alpha_h)
    B = 1.0 + sa
    x1 = x2 = 0.1 + np.linspace(0.0, 1.0, n)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    # rotated coordinates: x1 = (B t - ca s)/sqrt(2B), x2 = (B s + ca t)/sqrt(2B)
    root = np.sqrt(2.0*B)
    M = np.array([[-ca, B], [B, ca]]) / root
    Minv = np.linalg.inv(M)
    S = Minv[0, 0]*X1 + Minv[0, 1]*X2
    f = 1.0/np.cosh(S)
    kap = ca/B
    theta2 = root*np.sinh(S)
    theta1 = kap*theta2
    psi = sa*(3.0*np.cosh(S)**2 - 2.0)
    grid = FieldGrid(x1=x1 - x1[0], x2=x2 - x2[0], f1=f.copy(), f2=f.copy(),
                     theta1=theta1, theta2=theta2, psi=psi,
                     kappa=kap + np.zeros_like(f))
    grid.b, grid.c = bc_from_thetas(grid)
    return grid

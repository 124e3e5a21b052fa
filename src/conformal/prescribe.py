"""Grid-based construction and verification of prescribed curvature-line data.

Given a prescribed direction-ratio field ``kappa`` and a free positive
coframe factor ``f2`` on a rectangle, the pipeline integrates the remaining
coframe factor ``f1`` column-wise, derives the conformal principal
curvatures and the fourth-order invariant on the grid, and evaluates two
families of residuals:

* structural residuals — the four first-order relations tying (f1, f2,
  theta1, theta2, psi, b, c) together;
* integrability residuals — the second- and fourth-order compatibility
  conditions on (f1, f2, kappa) alone.

All derivatives are second-order central differences; a margin of cells is
excluded from every reported norm so that one-sided boundary stencils never
influence a verdict.  The long compatibility expressions are written against
an abstract derivative oracle so the identical code path can be exercised
with exact symbolic derivatives in the test suite.

:func:`prescribe` keeps whole grids of the six fields it returns only
(f1, the thetas, b, c and psi); f2 and kappa are read-only views of the
caller's arrays.  It runs every stage on blocks of ``_BLOCK`` rows, each
with ``_HALO`` = 4 more rows on either side where the grid has them, in two
passes: the first integrates f1 and derives the thetas, the second b and c,
psi and both residual families.  A one-sided stencil at a block's cut
spoils one more row with each nested x1 difference.  The first pass nests
one, d1(f2); the second nests 4: structural_4 takes d1(psi), and psi holds
xi1(xi1(xi1(theta2))).  So a block's own rows get the whole grid's central
differences, and with its spacing the same floats, while every temporary
is block-sized.  No residual array becomes a whole grid either: each
block's interior rows are reduced to their maxima, sums of squares and
counts at once, and the rows are combined in row order at the end, so the
norms do not depend on the blocks.

The terminal stages compute only the rows they keep.  The compatibility
conditions and the structural residuals take their x1 differences on the
whole block, halo rows included, and do the rest of their arithmetic on the
block's own rows: an x2 difference stays in its row.  The first pass
integrates f1 and derives the thetas on the own rows too.  psi, b and c,
all from one call of :func:`psi_from_grid`, cover the whole block, since
R3 and R4 take x1 differences of them.  An x2 difference of a
C-contiguous array, as every array made here and its row blocks are, runs
on the flat index (see :func:`_difference`).

What the pipeline skips has a known result, so each skip is exact.  Where
psi's genericity mask keeps fewer than half the cells, psi's numerator and
quotient run on the kept cells alone.  R3 and R4 take psi at each cell, so NaN propagation makes them NaN wherever
psi is: a block whose interior psi is all NaN skips them and their four
differences, and reports NaN rows for them.  A constant ratio's derivatives
are ``_ZERO``, the derivative of a constant, whose products drop out of
their sums with no array operation.  ``cycl prescribe`` runs
helicoid-catenoid coframes, whose ratio is constant and which are
isothermic, so psi is masked on the whole interior and every skip applies.

The pipeline needs numpy only: ``f1`` is integrated by a cumulative
trapezoid written in numpy, so neither importing this module nor running
:func:`prescribe` loads scipy or sympy.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .catalog import make_helcat
from .errors import (KappaZero, MarginTooSmall, MissingField,
                     NonPositiveResult)
from .invariants import _psi_numerator, _quartic

__all__ = [
    "FieldGrid", "ResidualReport", "solve_f1", "thetas_from_f",
    "psi_from_grid", "structural_residuals", "integrability_residuals",
    "prescribe", "helcat_coframe", "helcat_grid",
    "second_order_condition", "fourth_order_condition",
]

_TOL_KAPPA = 1e-12
# empirical h^2 constant of the residual max-norms on helically-symmetric
# minimal-family grids (worst entry is the fourth-order compatibility
# residual, ~23 h^2 at h = 1/64; see tol_real in `prescribe`)
_BASELINE_C = 25.0
_MARGIN = 4             # cells `prescribe` leaves out of every norm
_BLOCK = 48             # rows per block of `prescribe`
_HALO = 4               # rows a block carries on either side (see above)
# the residuals that take psi, so psi's mask can empty them
_PSI_RESIDUALS = ("structural_3", "structural_4")


# --------------------------------------------------------------------------
# containers
# --------------------------------------------------------------------------
@dataclass
class FieldGrid:
    """Rectangular grid over [0, L1] x [0, L2] with optional scalar fields.

    Arrays are indexed [i, j] with i along x1 and j along x2.  ``x1`` and
    ``x2`` must be uniform axes (:func:`_uniform_axis`).  ``f1`` and ``f2``
    must be finite and strictly positive where present; ``kappa`` must be
    finite and nonzero where present.
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
    h1: float = field(init=False, repr=False)
    h2: float = field(init=False, repr=False)

    def __post_init__(self):
        self.x1 = _uniform_axis(self.x1, "x1")
        self.x2 = _uniform_axis(self.x2, "x2")
        self.h1 = float(self.x1[1] - self.x1[0])
        self.h2 = float(self.x2[1] - self.x2[0])
        for name in ("f1", "f2"):
            arr = getattr(self, name)
            if arr is not None and not _positive(arr):
                raise NonPositiveResult(
                    f"{name} must be positive and finite everywhere")
        if self.kappa is not None:
            kap = np.asarray(self.kappa)
            if np.any(kap == 0) or not np.all(np.isfinite(kap)):
                raise KappaZero("kappa vanishes or is not finite on the grid")

    def rows(self, lo: int, hi: int) -> "FieldGrid":
        """Rows [lo, hi) of every field, as views, with this grid's h1 and
        h2: on a linspace axis the block's own x1[1] - x1[0] can differ in
        the last bit, and then so would every difference taken on it.  A
        copy, so the part is not checked again."""
        part = copy.copy(self)
        part.x1 = self.x1[lo:hi]
        for name, arr in vars(self).items():
            if np.ndim(arr) == 2:
                setattr(part, name, arr[lo:hi])
        return part

    @property
    def shape(self) -> Tuple[int, int]:
        return len(self.x1), len(self.x2)

    def require(self, *names):
        for name in names:
            if getattr(self, name) is None:
                raise MissingField(f"field '{name}' is not present")

    def d1(self, arr: np.ndarray) -> np.ndarray:
        return _difference(arr, self.h1, 0)

    def d2(self, arr: np.ndarray) -> np.ndarray:
        return _difference(arr, self.h2, 1)


def _uniform_axis(x, name: str) -> np.ndarray:
    """``x`` as a float axis, or ValueError unless it is finite, has at
    least 3 points and a nonzero step, and every step is the first to 1e-9
    of it: every difference uses the first step (a linspace axis passes)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) < 3:
        raise ValueError(f"{name} must be an axis of at least 3 points")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} has a non-finite entry")
    step = np.diff(x)
    if step[0] == 0 or np.any(np.abs(step - step[0]) > 1e-9*abs(step[0])):
        raise ValueError(f"{name} is not a uniform axis: its steps run from "
                         f"{step.min():.6g} to {step.max():.6g}")
    return x


def _positive(arr) -> bool:
    """Every entry above 0 and below inf; NaN is neither."""
    arr = np.asarray(arr)
    return bool(np.all(arr > 0) and np.all(arr < np.inf))


def _difference(arr, h: float, axis: int) -> np.ndarray:
    """np.gradient(arr, h, axis=axis, edge_order=2), the same floats, with
    the central difference taken into the output array and divided there,
    then its two second-order one-sided edge rows.

    Along axis 1 of a C-contiguous 2-D array the central difference runs on
    the flat index, in one contiguous pass, at about the cost of one along
    axis 0.  Where two rows join it subtracts across the join, and the two
    edge columns then overwrite those entries.
    """
    f = np.asarray(arr, dtype=float)
    out = np.empty(f.shape)
    g, o = f.swapaxes(0, axis), out.swapaxes(0, axis)
    if len(g) < 3:
        raise ValueError(f"a difference needs 3 points along axis {axis}")
    if axis == 1 and f.ndim == 2 and f.flags.c_contiguous:
        c, d = f.reshape(-1), out.reshape(-1)
    else:
        c, d = g, o
    np.subtract(c[2:], c[:-2], out=d[1:-1])
    d[1:-1] /= 2.0*h
    o[0] = (-1.5/h)*g[0] + (2.0/h)*g[1] + (-0.5/h)*g[2]
    o[-1] = (0.5/h)*g[-3] + (-2.0/h)*g[-2] + (1.5/h)*g[-1]
    return out


@dataclass
class ResidualReport:
    """Max-norm and RMS of each evaluated residual over interior cells."""
    max_norm: Dict[str, float]
    rms: Dict[str, float]
    margin: int
    order: int = 2
    extra: Dict[str, float] = field(default_factory=dict)

    def worst(self) -> float:
        """The largest max-norm: a NaN one of ``_PSI_RESIDUALS`` is left
        out, any other non-finite one reads inf and fails every tolerance."""
        return max((v if np.isfinite(v) else np.inf
                    for k, v in self.max_norm.items()
                    if not (k in _PSI_RESIDUALS and np.isnan(v))), default=0.0)


class _RowNorms:
    """Interior max-norm and RMS of residuals that arrive in blocks of rows.

    Each interior row is reduced as soon as it arrives, to its max |r| with
    NaN skipped, its sum of r^2 over finite cells and its count of them.
    :meth:`report` combines the rows in row order, so the result does not
    depend on how the rows came in blocks.
    """

    def __init__(self, shape: Tuple[int, int], margin: int):
        n1, n2 = shape
        if n1 <= 2*margin + 1 or n2 <= 2*margin + 1:
            raise MarginTooSmall(
                f"margin {margin} leaves fewer than 2 interior cells a side "
                f"on shape {shape}")
        self.shape, self.margin = shape, margin
        self.rows = {}      # name -> (3, interior rows): max, sum, count

    def _span(self, lo: int, n: int):
        """(a, b): the interior rows [a, b) among the grid's rows
        [lo, lo + n), or None if there are none."""
        a, b = max(lo, self.margin), min(lo + n, self.shape[0] - self.margin)
        return (a, b) if a < b else None

    def reads(self, r: np.ndarray, lo: int) -> bool:
        """Whether an interior cell of ``r``, whose rows are the grid's
        rows from ``lo`` on, is not NaN.  Where none is, a residual that
        takes ``r`` at each of its cells is NaN at every cell it reports."""
        span, m = self._span(lo, len(r)), self.margin
        return span is not None and not np.isnan(
            r[span[0] - lo:span[1] - lo, m:self.shape[1] - m]).all()

    def add(self, res: Dict[str, Optional[np.ndarray]], lo: int,
            n: Optional[int] = None):
        """Reduce each residual array, whose rows are the grid's rows from
        ``lo`` on.  None stands for ``n`` rows of NaN: each reads max NaN,
        sum 0 and count 0, as such an array would.

        A row is reduced with one sum of squares; only a row whose sum is
        not finite (a NaN or inf cell, or squares that overflow) is summed
        again over its finite cells, and its finite cells counted."""
        (n1, n2), m = self.shape, self.margin
        for name, r in res.items():
            rows = self.rows.setdefault(name, np.empty((3, n1 - 2*m)))
            span = self._span(lo, n if r is None else len(r))
            if span is None:
                continue
            a, b = span
            out = rows[:, a - m:b - m]
            if r is None:
                out[:] = ((np.nan,), (0.0,), (0.0,))
                continue
            core = r[a - lo:b - lo, m:n2 - m]
            np.fmax.reduce(np.abs(core), axis=1, out=out[0])
            np.add.reduce(core*core, axis=1, out=out[1])
            out[2] = core.shape[1]
            bad = np.flatnonzero(~np.isfinite(out[1]))
            if len(bad):
                part = core[bad]
                finite = np.isfinite(part)
                out[1, bad] = np.add.reduce(np.where(finite, part*part, 0.0),
                                            axis=1)
                out[2, bad] = np.count_nonzero(finite, axis=1)

    def report(self) -> ResidualReport:
        """All-masked residuals report NaN norms (the verdict reads them
        as :meth:`ResidualReport.worst` says)."""
        mx, rms = {}, {}
        for name, (rmax, rsum, count) in self.rows.items():
            n = count.sum()
            if n == 0:
                mx[name] = rms[name] = float("nan")
            else:
                mx[name] = float(np.fmax.reduce(rmax))
                rms[name] = float(np.sqrt(rsum.sum()/n))
        return ResidualReport(max_norm=mx, rms=rms, margin=self.margin)


def _norms(res: Dict[str, np.ndarray], margin: int) -> ResidualReport:
    """Interior max-norm and RMS of each whole-grid residual, ignoring
    masked (NaN) cells: :class:`_RowNorms` fed one block."""
    norms = _RowNorms(next(iter(res.values())).shape, margin)
    norms.add(res, 0)
    return norms.report()


# --------------------------------------------------------------------------
# construction pipeline
# --------------------------------------------------------------------------
def solve_f1(grid: FieldGrid, f1_boundary: np.ndarray,
             keep: slice = slice(None)) -> np.ndarray:
    """Integrate f1 down the columns from its values on the row x2 = 0:

        f1(x1, x2) = f1(x1, 0) - int_0^{x2} d1(f2)/kappa dx2'

    with a central-difference d1 and composite trapezoid in x2.  Only the
    grid's rows ``keep`` are integrated and checked, and ``f1_boundary``
    holds their values: on a block, the halo rows at its cuts carry
    one-sided x1 differences.
    """
    grid.require("f2", "kappa")
    kap = np.asarray(grid.kappa, dtype=float)[keep]
    if np.min(np.abs(kap)) < _TOL_KAPPA:
        raise KappaZero("kappa below tolerance on the grid")
    boundary = np.asarray(f1_boundary, dtype=float)
    if not _positive(boundary):
        raise NonPositiveResult(
            "boundary row of f1 must be positive and finite")
    y = grid.d1(grid.f2)[keep] / kap
    # cumulative composite trapezoid along x2, starting from 0 (the
    # arithmetic of scipy's cumulative_trapezoid, bit for bit)
    acc = np.zeros_like(y)
    np.cumsum(np.diff(grid.x2)*(y[:, 1:] + y[:, :-1])/2.0, axis=1,
              out=acc[:, 1:])
    f1 = boundary[:, None] - acc
    if not _positive(f1):
        raise NonPositiveResult(
            "integrated f1 crossed zero or overflowed; data left the "
            "admissible cone")
    return f1


def thetas_from_f(grid: FieldGrid, keep: slice = slice(None)):
    """(theta1, theta2, consistency_gap) on the grid's rows ``keep`` from
    the coframe fields:

        theta2 = -2 d2(f1) / (f1 f2),

    cross-checked against 2 d1(f2) / (kappa f1 f2) (max abs gap returned,
    not thrown), and theta1 = kappa * theta2.  Only rows ``keep`` of f1 are
    read.
    """
    grid.require("f1", "f2", "kappa")
    f1, f2, kap = grid.f1[keep], grid.f2[keep], grid.kappa[keep]
    ff = f1 * f2
    theta2 = -2.0 * grid.d2(f1) / ff
    cross = 2.0 * grid.d1(grid.f2)[keep] / (kap * ff)
    gap = float(np.max(np.abs(theta2 - cross)))
    theta1 = kap * theta2
    return theta1, theta2, gap


def psi_from_grid(grid: FieldGrid):
    """(psi, b, c) from the theta fields alone, using the coframe
    derivations xi_i = (1/f_i) d_i as grid differences.  One set of first
    derivatives xi_i(theta_j) serves all three, so the grid writes no
    invariant formula of its own: b and c come from ``_quartic``, psi is
    ``_psi_numerator`` over xi1(theta2) + xi2(theta1).  psi is masked NaN
    where that genericity denominator falls below 2 h^2 (relative to the
    local derivative scale), a factor ~8 above its central-difference noise
    floor, so data on which it vanishes identically is masked rather than
    amplified into garbage.  Where the mask keeps fewer than half the
    cells, the numerator and the quotient are evaluated on the kept cells
    alone; elementwise, they give each the floats the whole array would.
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
    _, b, c, _ = _quartic(({(1, 1): x1t1, (1, 2): x1t2, (2, 1): x2t1,
                            (2, 2): x2t2}, t1, t2))
    x1x1t1, x1x1t2 = xi1(x1t1), xi1(x1t2)
    x2x2t1, x2x2t2 = xi2(x2t1), xi2(x2t2)
    x1x1x1t2 = xi1(x1x1t2)
    x2x2x2t1 = xi2(x2x2t1)

    den = x1t2 + x2t1
    # pairwise maxima, so that no (5, n1, n2) stack is built
    scale = np.maximum(np.maximum(np.abs(x1t1), np.abs(x1t2)),
                       np.maximum(np.abs(x2t1), np.abs(x2t2)))
    np.maximum(scale, 1.0, out=scale)
    # a NaN comparison keeps its cell.  The kept cells are gathered where
    # they are fewer than half; a gather of most cells costs more than the
    # arithmetic it saves, so then the whole array is taken
    kept = ~(np.abs(den) < tol_gen*scale)
    at = (np.flatnonzero(kept) if 2*np.count_nonzero(kept) < kept.size
          else slice(None))
    num = _psi_numerator(*(np.ravel(a)[at] for a in (
        t1, t2, x1t1, x1t2, x2t1, x2t2, x1x1t1, x1x1t2, x2x2t1, x2x2t2,
        x1x1x1t2, x2x2x2t1)))
    d = np.ravel(den)[at]
    psi = np.full(den.shape, np.nan)
    psi.reshape(-1)[at] = num/np.where(d == 0, 1.0, d)
    psi[~kept] = np.nan
    return psi, b, c


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
    grid; given thetas get their ``b`` and ``c`` from :func:`psi_from_grid`
    (as :func:`prescribe` and :func:`helcat_grid` do).
    """
    return _norms(_structural(grid, slice(None)), margin)


def _structural(grid: FieldGrid, keep: slice, with_psi: bool = True
                ) -> Dict[str, Optional[np.ndarray]]:
    """The arrays R1..R4 of :func:`structural_residuals` on the grid's rows
    ``keep`` (b and c as there).  An x1 difference is taken on the whole
    grid; an x2 difference stays in its row, so it and the rest run on rows
    ``keep`` only.  Without ``with_psi``, R3 and R4 are None, for rows that
    are NaN wherever psi is (see :meth:`_RowNorms.add`)."""
    grid.require("f1", "f2", "theta1", "theta2", "psi", "b", "c")
    f1, f2, t1, t2, psi, b, c = (
        getattr(grid, name)[keep]
        for name in ("f1", "f2", "theta1", "theta2", "psi", "b", "c"))
    res = {"structural_1": grid.d2(f1) + 0.5*f1*f2*t2,
           "structural_2": grid.d1(grid.f2)[keep] - 0.5*f1*f2*t1,
           "structural_3": None, "structural_4": None}
    if with_psi:
        res["structural_3"] = (f1*grid.d2(psi) - f2*grid.d1(grid.c)[keep]
                               - f1*f2*(c*t1 + t2*(psi + 2.0)))
        res["structural_4"] = (-f1*grid.d2(b) + f2*grid.d1(grid.psi)[keep]
                               + f1*f2*(b*t2 + t1*(psi - 2.0)))
    return res


# --------------------------------------------------------------------------
# compatibility conditions on (f1, f2, kappa)
#
# Each condition is written against a derivative oracle D(f, *idx) returning
# the mixed partial of f in the listed coordinate directions (1 or 2), so
# the same expression code runs on grid arrays and on symbolic inputs.
# --------------------------------------------------------------------------
def _powers(x, n: int) -> list:
    """[1, x, x**2, ..., x**n], each power the product x*x*...*x.

    numpy runs ``x**3`` and higher through its general ``power`` loop, which
    is about 40x slower on a grid whose entries are negative (as most of
    f1_2 and f2_2 are) than on a positive one; n - 1 multiplies cost less
    than either.  Products work on scalars and sympy expressions too, so
    the conditions still run on those.
    """
    p = [1, x]
    for _ in range(n - 1):
        p.append(p[-1]*x)
    return p


def _pw(x, n: int):
    """x**n for an integer n >= 2, as the product x*x*...*x."""
    return _powers(x, n)[n]


def second_order_condition(f1, f2, k, D: Callable):
    """Second-order compatibility; ``k`` is the reciprocal of the direction
    ratio, a field or a constant."""
    return 2*(-D(f1, 2)**2/f1**2 + D(f1, 2, 2)/f1
              + ((k*D(f2, 1))**2
                 + f2*(D(f1, 2)*D(k, 1) + k*D(f1, 1, 2)))/f2**2)


def fourth_order_condition(f1, f2, k, D: Callable):
    """Fourth-order compatibility; ``k`` is the direction ratio, a field or
    a constant."""
    f1_1, f1_2 = D(f1, 1), D(f1, 2)
    f1_11, f1_12, f1_22 = D(f1, 1, 1), D(f1, 1, 2), D(f1, 2, 2)
    f1_111, f1_112, f1_222 = D(f1, 1, 1, 1), D(f1, 1, 1, 2), D(f1, 2, 2, 2)
    f1_1112, f1_2222 = D(f1, 1, 1, 1, 2), D(f1, 2, 2, 2, 2)
    f2_1, f2_2 = D(f2, 1), D(f2, 2)
    f2_11, f2_22 = D(f2, 1, 1), D(f2, 2, 2)
    f2_111, f2_222 = D(f2, 1, 1, 1), D(f2, 2, 2, 2)
    F1, F2 = _powers(f1, 6), _powers(f2, 6)   # F1[n] is f1**n
    k_1, k_2 = D(k, 1), D(k, 2)
    k_11, k_22 = D(k, 1, 1), D(k, 2, 2)
    k_222 = D(k, 2, 2, 2)
    T = (-15*F2[6]*f1_2*_pw(f1_1, 3)
         - F1[4]*F2[2]*f1_2*(2*F2[4]*f1_1 + 3*f1_2*f2_2*f2_1
                             + f2*(2*k_2*f1_2**2 - 3*f1_22*f2_1))
         - F1[6]*(2*F2[5]*(k_2*f1_2 + k*f1_22)
                  + F2[3]*(3*k_22*f1_22 + f1_2*k_222
                           + 3*k_2*f1_222 + k*f1_2222)
                  + 2*F2[4]*f2_2*f2_1 + 15*_pw(f2_2, 3)*f2_1
                  + 5*f2*f2_2*(3*k_2*f1_2*f2_2 + 3*k*f2_2*f1_22
                               - 2*f2_22*f2_1)
                  - F2[2]*(12*k_2*f2_2*f1_22
                           + f1_2*(6*f2_2*k_22 + 4*k_2*f2_22)
                           + k*(4*f1_22*f2_22 + 6*f2_2*f1_222)
                           - f2_222*f2_1))
         + F1[5]*f2*(f2*f1_2**2*(15*k_2*f2_2 - 4*f2*k_22)
                     - 11*F2[2]*k_2*f1_2*f1_22
                     - 3*k*F2[2]*f1_22**2
                     + f1_2*(8*F2[4] + 18*f2_2**2
                             - 5*f2*f2_22)*f2_1
                     + f2*(-21*f2_2*f1_22 + 5*f2*f1_222)*f2_1
                     + 2*F2[5]*f1_12)
         + f1*F2[5]*f1_1*(15*f2*f1_1*f1_12
                          + 2*f1_2*(9*f1_1*f2_1 + 5*f2*f1_11))
         - F1[2]*F2[4]*(3*f1_2*f1_1*f2_1**2
                        + f2*(-12*f1_2**2*k_1*f1_1
                              + 27*f1_1*f2_1*f1_12
                              + f1_2*(5*f2_1*f1_11 - 6*f1_1*f2_11))
                        + F2[2]*(4*f1_12*f1_11 + 6*f1_1*f1_112
                                 + f1_2*f1_111))
         + F1[3]*F2[4]*(6*f2_1**2*f1_12
                        - 2*f1_2**2*(2*k_1*f2_1 + f2*k_11)
                        + 6*f2*f2_1*f1_112
                        - f1_2*(3*f2_1*f2_11
                                + f2*(10*k_1*f1_12 + f2_111))
                        + f2*(-6*k*f1_12**2 - 3*f1_12*f2_11
                              + f2*f1_1112)))
    return 2/(F1[6]*F2[6])*T


class _Zero:
    """The derivative of a constant, exactly 0: a product with it is
    itself and a sum drops it (``_ZERO - x`` is ``-x``), with no array
    operation.  ``__array_ufunc__ = None`` makes ndarray operators defer to
    it.  For a finite y, x + 0.0*y is x up to a zero's sign, which no norm
    reads, so the conditions read what they read with 0.0."""
    __array_ufunc__ = None

    def __mul__(self, other):
        return self

    __rmul__ = __mul__

    def __neg__(self):
        return self

    def __add__(self, other):
        return other

    __radd__ = __rsub__ = __add__

    def __sub__(self, other):
        return -other


_ZERO = _Zero()


def _grid_oracle(grid: FieldGrid, keep: slice, rows) -> Callable:
    """D(arr, *idx): rows ``keep`` of the differences of ``arr`` along
    ``idx``, taken left to right on the whole grid, or ``_ZERO`` if ``arr``
    is a float: a constant's derivative, for which no difference is taken.

    ``rows`` pairs arrays that are rows ``keep`` of a grid array with that
    array, whose differences D then takes.  Every prefix is cached, so each
    distinct difference is taken once.  The empty prefix caches ``arr`` with
    the array it stands for, which keeps ``arr`` alive so that no other
    array can reuse its ``id`` while the oracle lives.  D walks the prefixes
    in a loop rather than calling itself, so it holds no reference to
    itself, and its cache goes when the caller drops it."""
    cache = {(id(part), ()): (part, whole) for part, whole in rows}

    def D(arr, *idx):
        if isinstance(arr, float):
            return _ZERO
        prev = cache.setdefault((id(arr), ()), (arr, arr))[1]
        for k in range(1, len(idx) + 1):
            key = (id(arr), idx[:k])
            if key not in cache:
                cache[key] = grid.d1(prev) if idx[k-1] == 1 else grid.d2(prev)
            prev = cache[key]
        return prev[keep]

    return D


def _constant_ratio(grid: FieldGrid) -> Optional[float]:
    """kappa's mean if kappa is constant to 1e-12, else None.  Taken on the
    whole grid, never on a block, so every block passes the conditions the
    same kind of ratio."""
    grid.require("f1", "f2", "kappa")
    kap = np.asarray(grid.kappa, dtype=float)
    if float(np.max(kap) - np.min(kap)) < _TOL_KAPPA:
        return float(np.mean(kap))
    return None


def _compatibility(grid: FieldGrid, k0: Optional[float], keep: slice
                   ) -> Dict[str, np.ndarray]:
    """Both conditions on the grid's rows ``keep`` through one oracle, with
    kappa the float ``k0``, or the grid's kappa if ``k0`` is None.  A float
    ratio has no differences to take (the oracle gives ``_ZERO`` for them):
    16 differences against 22.  The oracle takes the differences (see
    :func:`_grid_oracle`); the conditions' own arithmetic runs on rows
    ``keep`` only."""
    kap = np.asarray(grid.kappa, dtype=float) if k0 is None else k0
    whole = [np.asarray(grid.f1, dtype=float),
             np.asarray(grid.f2, dtype=float), 1.0/kap, kap]
    parts = [arr if isinstance(arr, float) else arr[keep] for arr in whole]
    D = _grid_oracle(grid, keep, zip(parts, whole))
    f1, f2, inv, k = parts
    return {"integrability_2nd": second_order_condition(f1, f2, inv, D),
            "integrability_4th": fourth_order_condition(f1, f2, k, D)}


def integrability_residuals(grid: FieldGrid) -> ResidualReport:
    """Residuals of the second- and fourth-order compatibility conditions on
    (f1, f2, kappa), over all but ``_MARGIN`` cells at each edge.  The
    second-order condition takes the reciprocal 1/kappa as its ratio
    argument, the fourth-order condition takes kappa itself; a kappa
    constant to 1e-12 goes in as a float (see :func:`_compatibility`).
    """
    return _norms(_compatibility(grid, _constant_ratio(grid), slice(None)),
                  _MARGIN)


# --------------------------------------------------------------------------
# pipeline
# --------------------------------------------------------------------------
def _blocks(grid: FieldGrid):
    """(block, keep, lo, hi) for each block of ``_BLOCK`` rows [lo, hi):
    the block is a view of those rows and ``_HALO`` more on either side
    where the grid has them, and ``keep`` picks rows [lo, hi) out of it."""
    n1 = grid.shape[0]
    for lo in range(0, n1, _BLOCK):
        hi = min(lo + _BLOCK, n1)
        top = max(lo - _HALO, 0)
        yield (grid.rows(top, min(hi + _HALO, n1)), slice(lo - top, hi - top),
               lo, hi)


def prescribe(kappa: np.ndarray, f2: np.ndarray, f1_boundary: np.ndarray,
              x1: np.ndarray, x2: np.ndarray
              ) -> Tuple[FieldGrid, ResidualReport]:
    """Full construction-and-verification pipeline.

    Block by block of rows (see the module docstring), builds f1 by
    column integration from ``f1_boundary`` and derives theta1/theta2;
    then b, c, the fourth-order invariant and the structural and
    integrability residual families, whose norms leave out ``_MARGIN``
    cells at each edge.  Each norm is reduced row by row as the blocks
    come, so no residual array is kept.  The returned grid's ``f2`` and
    ``kappa`` are read-only views of the arguments, broadcast to the grid,
    not copies.  f2, kappa and ``f1_boundary`` must be finite: NaN or inf
    raises NonPositiveResult (f2, the boundary) or KappaZero (kappa), as a
    non-positive f or a vanishing kappa does.  A non-uniform axis raises
    ValueError (see :class:`FieldGrid`).  Given (f1, f2, kappa) data are
    checked by :func:`integrability_residuals` on a :class:`FieldGrid`.

    The returned report's ``extra`` carries the theta consistency gap, the
    realizability tolerance ``tol_real``, and ``realizable`` (1.0 or 0.0):
    :meth:`ResidualReport.worst` below ``tol_real``.  The tolerance is ten
    times the empirical h^2 envelope of the residuals measured on grids
    sampled from an actual surface family.

    That envelope holds only while truncation error dominates.  The
    fourth-order residual takes fourth differences, whose roundoff grows
    like eps/h^4, while ``tol_real = 250 h^2`` falls.  On the
    helicoid-catenoid grids at alpha = pi/4, ``integrability_4th`` reads
    1.37e-4, 3.77e-4 and 1.32e-3 at n = 513, 769 and 1025, against
    ``tol_real`` 9.5e-4, 4.2e-4 and 2.4e-4.  769 sits at 0.89 ``tol_real``,
    and from about 1025 up data from a real surface is reported not
    realizable, from roundoff alone.
    """
    shape = (np.size(x1), np.size(x2))    # FieldGrid checks the axes
    grid = FieldGrid(x1=x1, x2=x2,
                     f2=np.broadcast_to(np.asarray(f2, dtype=float), shape),
                     kappa=np.broadcast_to(np.asarray(kappa, dtype=float),
                                           shape))
    boundary = np.asarray(f1_boundary, dtype=float)
    for name in ("f1", "theta1", "theta2", "b", "c", "psi"):
        setattr(grid, name, np.empty(shape))
    gaps = []
    for blk, keep, lo, hi in _blocks(grid):
        grid.f1[lo:hi] = solve_f1(blk, boundary[lo:hi], keep)
        grid.theta1[lo:hi], grid.theta2[lo:hi], gap = thetas_from_f(blk,
                                                                    keep)
        gaps.append(gap)
    k0 = _constant_ratio(grid)
    norms = _RowNorms(shape, _MARGIN)
    for blk, keep, lo, hi in _blocks(grid):
        # the conditions first: their ~35 temporaries are the block's
        # largest, and with the two arrays they return alive after them,
        # glibc keeps that space on the heap for the later stages.  Taken
        # last, the heap shrank and regrew by about 6 MB in every block
        # (at 769, 48k minor faults a call against 6.7k)
        compat = _compatibility(blk, k0, keep)
        blk.psi, blk.b, blk.c = psi_from_grid(blk)
        grid.b[lo:hi], grid.c[lo:hi] = blk.b[keep], blk.c[keep]
        grid.psi[lo:hi] = blk.psi[keep]
        norms.add(_structural(blk, keep, norms.reads(grid.psi[lo:hi], lo)),
                  lo, hi - lo)
        norms.add(compat, lo)
    h = max(grid.h1, grid.h2)
    tol_real = 10.0 * _BASELINE_C * h * h
    rep = norms.report()
    rep.extra["theta_consistency_gap"] = float(np.max(gaps))
    rep.extra["tol_real"] = float(tol_real)
    core = grid.psi[_MARGIN:-_MARGIN, _MARGIN:-_MARGIN]
    rep.extra["psi_masked_fraction"] = float(np.mean(~np.isfinite(core)))
    rep.extra["realizable"] = 1.0 if rep.worst() < tol_real else 0.0
    return grid, rep


# --------------------------------------------------------------------------
# reference grids from the helically-symmetric minimal family
# --------------------------------------------------------------------------
def helcat_coframe(alpha_h: float, n: int):
    """(x1, x2, f, kappa, s) of the helicoid-catenoid family on an n x n
    grid over [0, 1]^2 in the rotated curvature-line coordinates (shifted
    by 0.1 to avoid the symmetry axis): s is the rotated coordinate,
    f1 = f2 = f = sech(s), and kappa = cos(alpha_h)/(1 + sin(alpha_h)).
    """
    ca, sa = np.cos(alpha_h), np.sin(alpha_h)
    B = 1.0 + sa
    x1 = x2 = 0.1 + np.linspace(0.0, 1.0, n)
    # rotated coordinates: x1 = (B t - ca s)/sqrt(2B), x2 = (B s + ca t)/sqrt(2B)
    M = np.array([[-ca, B], [B, ca]]) / np.sqrt(2.0*B)
    Minv = np.linalg.inv(M)
    S = Minv[0, 0]*x1[:, None] + Minv[0, 1]*x2
    return x1 - x1[0], x2 - x2[0], 1.0/np.cosh(S), ca/B, S


def helcat_grid(alpha_h: float, n: int) -> FieldGrid:
    """Exact coframe data of the helicoid-catenoid family on the grid of
    :func:`helcat_coframe`: theta2 and psi are :func:`make_helcat`'s
    oracles at the rotated coordinate s, theta1 = kappa*theta2, and b and
    c come from the thetas by :func:`psi_from_grid`.
    """
    x1, x2, f, kap, S = helcat_coframe(alpha_h, n)
    oracle = make_helcat(alpha_h).oracle
    theta2 = oracle["theta2"](S)
    grid = FieldGrid(x1=x1, x2=x2, f1=f.copy(), f2=f.copy(),
                     theta1=kap*theta2, theta2=theta2, psi=oracle["psi"](S),
                     kappa=kap + np.zeros_like(f))
    _, grid.b, grid.c = psi_from_grid(grid)
    return grid

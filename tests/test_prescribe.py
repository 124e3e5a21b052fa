import gc
import tracemalloc

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import cumulative_trapezoid

from conformal.catalog import make_helcat
from conformal.errors import (KappaZero, MarginTooSmall, MissingField,
                              NonPositiveResult)
from conformal import prescribe as prescribe_mod
from conformal.invariants import _psi_numerator
from conformal.prescribe import (FieldGrid, ResidualReport, _RowNorms,
                                 _compatibility, _grid_oracle, _norms,
                                 fourth_order_condition, helcat_coframe,
                                 helcat_grid, integrability_residuals,
                                 prescribe, psi_from_grid,
                                 second_order_condition, solve_f1,
                                 structural_residuals, thetas_from_f)
from reference import bc_reference, psi_reference, row_norms_reference


def _uniform(n=33):
    x = np.linspace(0.0, 1.0, n)
    return x, x, np.meshgrid(x, x, indexing="ij")


# --------------------------------------------------------------------------
# construction stages
# --------------------------------------------------------------------------
def test_solve_f1_constant_f2():
    x1, x2, (X1, X2) = _uniform()
    g = FieldGrid(x1=x1, x2=x2, f2=np.ones_like(X1), kappa=np.ones_like(X1))
    f1 = solve_f1(g, 2.0*np.ones_like(x1))
    assert np.allclose(f1, 2.0)


def test_solve_f1_linear_integrand_exact():
    x1, x2, (X1, X2) = _uniform()
    g = FieldGrid(x1=x1, x2=x2, f2=1.0 + X1, kappa=np.ones_like(X1))
    f1 = solve_f1(g, 2.0*np.ones_like(x1))
    assert np.allclose(f1, 2.0 - X2, atol=1e-13)


def test_solve_f1_guards():
    x1, x2, (X1, X2) = _uniform()
    g = FieldGrid(x1=x1, x2=x2, f2=1.0 + X1, kappa=np.ones_like(X1))
    with pytest.raises(NonPositiveResult):
        solve_f1(g, -1.0*np.ones_like(x1))
    with pytest.raises(NonPositiveResult):
        solve_f1(g, 0.5*np.ones_like(x1))   # crosses zero before x2 = 1
    g2 = FieldGrid(x1=x1, x2=x2, f2=1.0 + X1, kappa=1e-14*np.ones_like(X1))
    with pytest.raises(KappaZero):
        solve_f1(g2, 2.0*np.ones_like(x1))


_ENTRY = st.floats(0.5, 2.0)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data(), n1=st.integers(3, 12), n2=st.integers(3, 40),
       length1=st.floats(0.1, 3.0), start2=st.floats(-2.0, 2.0),
       length2=st.floats(0.1, 20.0))
def test_solve_f1_integral_matches_cumulative_trapezoid(data, n1, n2, length1,
                                                        start2, length2):
    # the numpy trapezoid is scipy's arithmetic: equal bit for bit on random
    # shapes, integrands and uniform x2 (a FieldGrid axis is uniform)
    x2 = np.linspace(start2, start2 + length2, n2)
    f2 = data.draw(hnp.arrays(float, (n1, n2), elements=_ENTRY))
    kappa = data.draw(hnp.arrays(float, (n1, n2), elements=_ENTRY))
    kappa *= data.draw(hnp.arrays(float, (n1, n2),
                                  elements=st.sampled_from([-1.0, 1.0])))
    g = FieldGrid(x1=np.linspace(0.0, length1, n1), x2=x2, f2=f2,
                  kappa=kappa)
    integrand = g.d1(g.f2) / g.kappa
    boundary = 1.0 + np.max(np.abs(integrand), axis=1)*(x2[-1] - x2[0])
    expected = boundary[:, None] - cumulative_trapezoid(
        integrand, g.x2, axis=1, initial=0.0)
    assert np.array_equal(solve_f1(g, boundary), expected)


def test_solve_f1_reproduces_family_field():
    for n, tol in [(17, 1e-3), (33, 2.6e-4), (65, 7e-5)]:
        g = helcat_grid(np.pi/4, n)
        f1 = solve_f1(FieldGrid(x1=g.x1, x2=g.x2, f2=g.f2, kappa=g.kappa),
                      g.f1[:, 0])
        assert np.max(np.abs(f1 - g.f1)) < tol


def test_thetas_hand_example():
    x1, x2, (X1, X2) = _uniform()
    g = FieldGrid(x1=x1, x2=x2, f1=np.exp(-X2), f2=np.ones_like(X1),
                  kappa=np.ones_like(X1))
    t1, t2, gap = thetas_from_f(g)
    assert np.max(np.abs(t2[:, 2:-2] - 2.0)) < 1e-3


def test_thetas_match_family_closed_form():
    g = helcat_grid(np.pi/4, 65)
    t1, t2, gap = thetas_from_f(g)
    core = np.s_[2:-2, 2:-2]
    assert np.max(np.abs(t2[core] - g.theta2[core])) < 2e-4
    assert np.max(np.abs(t1[core] - g.theta1[core])) < 1e-4


def test_missing_field_raises():
    x1, x2, (X1, X2) = _uniform()
    g = FieldGrid(x1=x1, x2=x2, f2=np.ones_like(X1))
    with pytest.raises(MissingField):
        thetas_from_f(g)
    # the structural residuals read b and c from the grid, never derive them
    g = helcat_grid(np.pi/4, 17)
    g.b = None
    with pytest.raises(MissingField):
        structural_residuals(g, margin=2)


def _difference_cases():
    rng = np.random.default_rng(20)
    whole = rng.standard_normal((40, 29))
    return {
        "c-ordered": whole,
        "3-row block": whole[17:20],
        "row slice": rng.standard_normal((61, 33))[5:50:3],
        "broadcast scalar": np.broadcast_to(np.asarray(0.7), (9, 11)),
        # d2 of a C-contiguous array runs on the flat index; these layouts
        # take the strided path, and the small ones have one interior entry
        # per row or column
        "fortran-ordered": np.asfortranarray(whole),
        "transposed view": whole.T,
        "non-contiguous rows": whole[:, 2:30],
        "3x3": whole[:3, :3].copy(),
        "3 columns": whole[:, :3].copy(),
    }


@pytest.mark.parametrize("case", list(_difference_cases()))
def test_differences_match_np_gradient(case):
    # d1 and d2 take the central difference into their output array; the
    # floats are np.gradient's, edge rows included
    arr = _difference_cases()[case]
    x1 = np.linspace(0.0, 1.3, arr.shape[0])
    x2 = 0.2 + np.linspace(0.0, 0.7, arr.shape[1])
    g = FieldGrid(x1=x1, x2=x2)
    for d, h, axis in ((g.d1, g.h1, 0), (g.d2, g.h2, 1)):
        assert np.array_equal(d(arr), np.gradient(arr, h, axis=axis,
                                                  edge_order=2))


def _bad_axes(axis, fault):
    x = np.linspace(0.0, 1.0, 33)
    bad = {"non-finite": np.where(np.arange(33) == 20, np.nan, x),
           "two points": x[:2],
           "non-uniform": x**2,
           "scalar": 0.5}[fault]
    return {"x1": x, "x2": x, axis: bad}


@pytest.mark.parametrize("axis", ["x1", "x2"])
@pytest.mark.parametrize("fault", ["non-finite", "two points", "non-uniform",
                                   "scalar"])
def test_prescribe_rejects_a_non_uniform_axis(axis, fault):
    # every difference takes the first step of its axis, so an axis whose
    # steps differ gave a report with wrong differences in it
    axes = _bad_axes(axis, fault)
    n1, n2 = np.size(axes["x1"]), np.size(axes["x2"])
    with pytest.raises(ValueError, match=axis):
        prescribe(0.5, np.ones((n1, n2)), 2.0*np.ones(n1), **axes)


@pytest.mark.parametrize("axis", ["x1", "x2"])
@pytest.mark.parametrize("fault", ["non-finite", "two points", "non-uniform",
                                   "scalar"])
def test_field_grid_rejects_a_non_uniform_axis(axis, fault):
    # FieldGrid checks its axes, so the residual families, which take a
    # grid from the caller, reject them too (with x1 = x1[-1]*t**2 the
    # compatibility residuals of helcat pi/4 at 65 read 1.1e2 and 1.6e5)
    with pytest.raises(ValueError, match=axis):
        FieldGrid(**_bad_axes(axis, fault))


def test_prescribe_accepts_linspace_axes():
    # a linspace axis's steps differ in the last bits only
    for n in (33, 1025):
        x = 0.1 + np.linspace(0.0, 1.0, n)
        assert np.ptp(np.diff(x)) > 0.0
        prescribe_mod._uniform_axis(x, "x1")


@pytest.mark.parametrize("field", ["f1", "f2", "kappa"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_field_grid_rejects_non_finite(field, bad):
    x1, x2, (X1, X2) = _uniform(9)
    fields = {"f1": 1.0 + X1, "f2": 1.0 + X2, "kappa": 0.5 + X1*X2}
    fields[field][3, 5] = bad
    error = KappaZero if field == "kappa" else NonPositiveResult
    with pytest.raises(error):
        FieldGrid(x1=x1, x2=x2, **fields)


# --------------------------------------------------------------------------
# psi on the grid
# --------------------------------------------------------------------------
def test_psi_from_grid_masks_degenerate_family():
    g = helcat_grid(np.pi/4, 65)
    psi, _, _ = psi_from_grid(g)
    assert np.all(~np.isfinite(psi))


def test_psi_from_grid_against_symbolic():
    # generic smooth data: compare grid evaluation with exact symbolic
    # derivatives of the same expression
    x, y = sp.symbols("x y", real=True)
    f1s = 1 + x**2/4 + y/3
    f2s = sp.exp(x*y/5)
    t1s = sp.sin(x + 2*y) + 2
    t2s = sp.cos(2*x - y) + 3

    def xi(i, f):
        return (sp.diff(f, x)/f1s) if i == 1 else (sp.diff(f, y)/f2s)

    x1t1, x1t2 = xi(1, t1s), xi(1, t2s)
    x2t1, x2t2 = xi(2, t1s), xi(2, t2s)
    num = (-6*t1s*t2s + 2*(x2t1 - x1t2)
           + 4*(t2s**2*x2t1 - t1s**2*x1t2)
           - sp.Rational(3, 2)*(t1s*t2s**3 + t2s*t1s**3)
           - 3*x1t1*x1t2 - 3*x2t1*x2t2
           + sp.Rational(7, 2)*t1s*t2s*(x2t2 - x1t1)
           - sp.Rational(7, 2)*(t2s*xi(2, x2t1) + t1s*xi(1, x1t2))
           - t1s*xi(2, x2t2) - t2s*xi(1, x1t1)
           + xi(2, xi(2, x2t1)) - xi(1, xi(1, x1t2)))
    den = x1t2 + x2t1
    exact = sp.lambdify((x, y), num/den, "numpy")
    den_fn = sp.lambdify((x, y), den, "numpy")

    n = 129
    xs = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    g = FieldGrid(x1=xs, x2=xs,
                  f1=sp.lambdify((x, y), f1s, "numpy")(X, Y),
                  f2=sp.lambdify((x, y), f2s, "numpy")(X, Y),
                  theta1=sp.lambdify((x, y), t1s, "numpy")(X, Y),
                  theta2=sp.lambdify((x, y), t2s, "numpy")(X, Y))
    psi, _, _ = psi_from_grid(g)
    diff = np.abs(psi - exact(X, Y))
    # compare away from the genericity denominator's zero locus, where any
    # grid noise in the numerator is amplified without bound
    diff[np.abs(den_fn(X, Y)) < 0.5] = np.nan
    core = np.s_[4:-4, 4:-4]
    gap = np.nanmax(diff[core])
    assert gap < 5e-2     # third-nested differences at h = 1/128


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data(), n1=st.integers(3, 12), n2=st.integers(3, 40),
       start=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       length=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 20.0)))
def test_psi_from_grid_b_and_c_match_reference(data, n1, n2, start, length):
    # b and c come from _quartic on psi's first coframe derivatives: the
    # written-out expressions' floats, bit for bit, on random coframe grids
    shape = (n1, n2)
    f1, f2 = (data.draw(hnp.arrays(float, shape, elements=_ENTRY))
              for _ in range(2))
    t1, t2 = (data.draw(hnp.arrays(float, shape,
                                   elements=st.floats(-50.0, 50.0)))
              for _ in range(2))
    x1, x2 = (np.linspace(a, a + w, n) for a, w, n in zip(start, length,
                                                          shape))
    g = FieldGrid(x1=x1, x2=x2, f1=f1, f2=f2, theta1=t1, theta2=t2)
    _, b, c = psi_from_grid(g)
    for got, want in zip((b, c), bc_reference(g)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _run_psi_case(case):
    """prescribe on 65 x 65: helcat, whose psi is masked but at the edges,
    or a varying ratio, whose psi is kept on most cells."""
    if case == "varying":
        return prescribe(*_prescribe_case("varying", 65))
    g = (_varying_grid(65) if case == "varying helcat"
         else helcat_grid(_ALPHAS[case.split()[1]], 65))
    return prescribe(g.kappa, g.f2, g.f1[:, 0], g.x1, g.x2)


def _psi_case_grid(case):
    """The grid of :func:`_run_psi_case`, with its f1 and thetas, or a
    random coframe grid."""
    if case == "random":
        rng = np.random.default_rng(36)
        shape = (29, 41)
        return FieldGrid(x1=np.linspace(0.0, 1.3, 29),
                         x2=np.linspace(-0.4, 2.0, 41),
                         f1=rng.uniform(0.5, 2.0, shape),
                         f2=rng.uniform(0.5, 2.0, shape),
                         theta1=rng.uniform(-5.0, 5.0, shape),
                         theta2=rng.uniform(-5.0, 5.0, shape))
    return _run_psi_case(case)[0]


@pytest.mark.parametrize("case", ["helcat 0", "helcat pi/4", "helcat pi/3",
                                  "varying helcat", "varying", "random"])
def test_psi_from_grid_matches_whole_array_reference(case):
    # the numerator and the quotient run on the kept cells only, gathered
    # (helcat keeps its edges alone) or on the whole array (most cells
    # kept): psi is the whole-array assembly's, masked cells and all, bit
    # for bit
    g = _psi_case_grid(case)
    psi, _, _ = psi_from_grid(g)
    want = psi_reference(g)
    assert psi.shape == want.shape and psi.tobytes() == want.tobytes()
    kept = np.isfinite(psi).mean()
    assert 0.0 < kept < 0.2 if case.startswith("helcat") else kept > 0.5


def test_psi_numerator_same_on_scalars_and_arrays():
    # the pointwise psi_from_thetas and the grid psi_from_grid share one
    # numerator; its scalar and array evaluations agree bit for bit
    rng = np.random.default_rng(8)
    args = [rng.uniform(-3.0, 3.0, 50) for _ in range(12)]
    grid = _psi_numerator(*args)
    for j in range(50):
        assert _psi_numerator(*[float(a[j]) for a in args]) == grid[j]


# --------------------------------------------------------------------------
# residual families
# --------------------------------------------------------------------------
def test_structural_residuals_zero_on_flat_data():
    x1, x2, (X1, X2) = _uniform()
    z = np.zeros_like(X1)
    g = FieldGrid(x1=x1, x2=x2, f1=np.ones_like(X1), f2=np.ones_like(X1),
                  theta1=z, theta2=z, psi=z + 1.0, b=z, c=z)
    rep = structural_residuals(g, margin=2)
    assert rep.worst() == 0.0


def test_structural_residuals_convergence():
    prev = None
    for n in (17, 33, 65):
        g = helcat_grid(np.pi/4, n)
        rep = structural_residuals(g, margin=2)
        worst = rep.worst()
        if prev is not None:
            assert np.log2(prev/worst) > 1.8
        prev = worst


def test_perturbed_psi_hits_only_last_two_relations():
    g = helcat_grid(np.pi/4, 65)
    base = structural_residuals(g, margin=2)
    g2 = helcat_grid(np.pi/4, 65)
    g2.psi = g2.psi + 0.1
    rep = structural_residuals(g2, margin=2)
    assert rep.max_norm["structural_1"] == base.max_norm["structural_1"]
    assert rep.max_norm["structural_2"] == base.max_norm["structural_2"]
    assert rep.max_norm["structural_3"] > 10*base.max_norm["structural_3"]
    assert rep.max_norm["structural_4"] > 10*base.max_norm["structural_4"]


def test_integrability_zero_on_constant_coframe():
    x1, x2, (X1, X2) = _uniform()
    g = FieldGrid(x1=x1, x2=x2, f1=np.ones_like(X1), f2=np.ones_like(X1),
                  kappa=np.ones_like(X1))
    rep = integrability_residuals(g)
    assert rep.worst() == 0.0


def test_integrability_convergence():
    prev = None
    for n in (17, 33, 65):
        g = helcat_grid(np.pi/4, n)
        rep = integrability_residuals(g)
        worst = rep.worst()
        if prev is not None:
            assert np.log2(prev/worst) > 1.8
        prev = worst


def test_margin_guard():
    g = helcat_grid(np.pi/4, 9)
    with pytest.raises(MarginTooSmall):
        integrability_residuals(g)


def test_conditions_vanish_on_exact_symbolic_data():
    # exact closed-form coframe data must satisfy both compatibility
    # conditions identically; evaluated with exact symbolic derivatives
    # this is a transcription check independent of any grid
    x1s, x2s = sp.symbols("x1 x2", real=True)
    alpha = sp.pi/4
    ca, sa = sp.cos(alpha), sp.sin(alpha)
    B = 1 + sa
    s = (-ca*x1s + B*x2s)/sp.sqrt(2*B)
    f1 = 1/sp.cosh(s)
    f2 = 1/sp.cosh(s)
    kap = ca/B

    def D(f, *idx):
        return sp.diff(f, *[(x1s if i == 1 else x2s) for i in idx])

    pts = [(0.3, 0.7), (1.1, 0.2), (0.9, 1.4)]
    exprs = [
        second_order_condition(f1, f2, 1/kap, D),
        fourth_order_condition(f1, f2, kap, D),
        second_order_condition(f1, f2, 1/(kap + 0*x1s), D),
        fourth_order_condition(f1, f2, kap + 0*x1s, D),
    ]
    for expr in exprs:
        fn = sp.lambdify((x1s, x2s), expr, "numpy")
        for p, q in pts:
            assert abs(float(fn(p, q))) < 1e-10


def _masked_residuals(seed, shape=(37, 23)):
    rng = np.random.default_rng(seed)
    res = {}
    for name, frac in (("sparse", 0.05), ("dense", 0.6)):
        r = rng.standard_normal(shape)*10.0**rng.uniform(-8, 2, shape)
        r[rng.random(shape) < frac] = np.nan
        res[name] = r
    return res


@pytest.mark.parametrize("seed", range(5))
def test_norms_match_nan_reductions(seed):
    # max |r| with NaN skipped is nanmax's, bit for bit; the RMS sums rows
    # first, so it may differ from nanmean's order in the last bits
    res = _masked_residuals(seed)
    m = 3
    rep = _norms(res, m)
    for name, r in res.items():
        core = r[m:-m, m:-m]
        assert rep.max_norm[name] == np.nanmax(np.abs(core))
        np.testing.assert_array_max_ulp(
            rep.rms[name], np.sqrt(np.nanmean(core**2)), maxulp=4)


@pytest.mark.parametrize("seed", range(5))
def test_norms_do_not_depend_on_blocks(seed):
    # fed in row blocks of random sizes, the report is the one-block
    # report bit for bit
    res = _masked_residuals(seed)
    rng = np.random.default_rng(100 + seed)
    whole = _norms(res, 4)
    norms = _RowNorms((37, 23), 4)
    lo = 0
    while lo < 37:
        hi = min(lo + int(rng.integers(1, 9)), 37)
        norms.add({k: r[lo:hi] for k, r in res.items()}, lo)
        lo = hi
    got = norms.report()
    assert got.max_norm == whole.max_norm and got.rms == whole.rms


_NORM_ENTRY = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 1e200, -1e200, 0.0]),
    st.floats(-1e3, 1e3))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data(), n1=st.integers(4, 14), n2=st.integers(4, 14),
       margin=st.integers(0, 1))
def test_row_norms_match_masked_reference(data, n1, n2, margin):
    # one sum of squares a row, and the masked sum where it is not finite:
    # the masked reduction's rows bit for bit, on rows holding NaN, +-inf
    # and finite entries whose squares overflow
    r = data.draw(hnp.arrays(float, (n1, n2), elements=_NORM_ENTRY))
    norms = _RowNorms((n1, n2), margin)
    norms.add({"r": r}, 0)
    want = row_norms_reference(r[margin:n1 - margin, margin:n2 - margin])
    assert norms.rows["r"].tobytes() == want.tobytes()


def test_row_norms_none_reads_as_nan_rows():
    # None for rows of NaN gives the rows an all-NaN array gives, beside
    # rows of numbers in the same residual
    r = np.arange(12*7, dtype=float).reshape(12, 7)
    nan = np.full((5, 7), np.nan)
    got, want = _RowNorms((12, 7), 2), _RowNorms((12, 7), 2)
    for norms, block in ((got, None), (want, nan)):
        norms.add({"r": r[:4]}, 0)
        norms.add({"r": block}, 4, 5)
        norms.add({"r": r[9:]}, 9)
    assert got.rows["r"].tobytes() == want.rows["r"].tobytes()
    assert got.report() == want.report()
    assert not got.reads(nan, 4) and got.reads(r, 0)
    assert not got.reads(r[:2], 0)      # rows in the margin only


def test_norms_all_masked_and_margin_guard():
    r = np.full((12, 12), np.nan)
    r[0, 0] = 1.0      # outside the interior
    row = np.ones((12, 12))
    row[5] = np.nan
    # psi's mask may empty structural_3, which then leaves the verdict
    rep = _norms({"structural_3": r, "zero": np.zeros((12, 12)),
                  "row": row}, 2)
    assert np.isnan(rep.max_norm["structural_3"])
    assert np.isnan(rep.rms["structural_3"])
    assert rep.max_norm["zero"] == rep.rms["zero"] == 0.0
    assert rep.max_norm["row"] == rep.rms["row"] == 1.0
    assert rep.worst() == 1.0
    for shape in ((4, 12), (12, 4), (3, 3)):
        with pytest.raises(MarginTooSmall):
            _norms({"r": np.zeros(shape)}, 2)
    with pytest.raises(MarginTooSmall):
        structural_residuals(helcat_grid(np.pi/4, 17), margin=9)


@pytest.mark.parametrize("name", ["integrability_4th", "structural_1"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_worst_reads_other_non_finite_norms_as_inf(name, bad):
    rep = ResidualReport(max_norm={"structural_3": np.nan,
                                   "structural_4": np.nan, name: bad,
                                   "row": 1.0}, rms={}, margin=2)
    assert rep.worst() == np.inf
    rep.max_norm[name] = 2.0
    assert rep.worst() == 2.0
    rep.max_norm["structural_4"] = np.inf
    assert rep.worst() == np.inf


@pytest.mark.parametrize("scale", [1e-55, 1e-60])
def test_underflowed_fourth_order_residual_is_not_realizable(scale):
    # f1^6 f2^6 underflows: integrability_4th reads NaN, and a NaN norm
    # that psi's mask did not make reads not realizable
    g = helcat_grid(np.pi/4, 65)
    _, rep = prescribe(g.kappa, scale*g.f2, scale*g.f1[:, 0], g.x1, g.x2)
    assert np.isnan(rep.max_norm["integrability_4th"])
    assert rep.worst() == np.inf
    assert rep.extra["realizable"] == 0.0


def _varying_grid(n=33):
    g = helcat_grid(np.pi/4, n)
    X1, X2 = np.meshgrid(g.x1, g.x2, indexing="ij")
    return FieldGrid(x1=g.x1, x2=g.x2, f1=g.f1, f2=g.f2,
                     kappa=g.kappa*(1.0 + 0.3*X1*X2))


@pytest.mark.parametrize("varying, expected", [(False, 16), (True, 22)])
def test_integrability_takes_each_difference_once(monkeypatch, varying,
                                                  expected):
    # 10 distinct differences of f1 and 6 of f2; a varying ratio adds 5 of
    # kappa and d1 of 1/kappa.  Taking each chain from scratch costs 37
    # and 47 one-axis differences.
    g = _varying_grid() if varying else helcat_grid(np.pi/4, 33)
    calls = []
    for name in ("d1", "d2"):
        def counted(self, arr, _diff=getattr(FieldGrid, name)):
            calls.append(arr.shape)
            return _diff(self, arr)
        monkeypatch.setattr(FieldGrid, name, counted)
    integrability_residuals(g)
    assert len(calls) == expected


@pytest.mark.parametrize("case, expected", [("const", 31), ("varying", 41)])
def test_prescribe_difference_count(monkeypatch, case, expected):
    # one block over 33 x 33.  The first pass takes d1(f2) for f1, and
    # d2(f1) and d1(f2) for the thetas: 3.  The second takes the
    # conditions' 16 (22 with a varying ratio), psi's 10 (b and c read
    # psi's first 4) and R1..R4's 6.  With a constant ratio psi is masked
    # on the whole core, so R3 and R4 take none of their 4.
    args = _prescribe_case(case)
    calls = []
    for name in ("d1", "d2"):
        def counted(self, arr, _diff=getattr(FieldGrid, name)):
            calls.append(arr.shape)
            return _diff(self, arr)
        monkeypatch.setattr(FieldGrid, name, counted)
    prescribe(*args)
    assert len(calls) == expected


@pytest.mark.parametrize("varying", [False, True])
def test_grid_oracle_on_kept_rows_matches_whole_grid(varying):
    # rows 5..20 of every difference the conditions ask for, from an oracle
    # handed those rows of f1 and f2 (and kappa): the whole grid's floats
    g = _varying_grid() if varying else helcat_grid(np.pi/4, 33)
    keep = slice(5, 21)
    whole = [g.f1, g.f2] + ([g.kappa] if varying else [])
    rows = [(arr[keep], arr) for arr in whole]
    D = _grid_oracle(g, keep, rows)
    D_whole = _grid_oracle(g, slice(None), ())
    idxs = [(1,), (2,), (1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 1, 2),
            (2, 2, 2), (1, 1, 1, 2), (2, 2, 2, 2), (2, 1)]
    for (part, arr) in rows:
        for idx in idxs:
            got = D(part, *idx)
            assert got.shape == part.shape
            assert np.array_equal(got, D_whole(arr, *idx)[keep]), idx


@pytest.mark.parametrize("varying", [False, True])
def test_grid_oracle_matches_explicit_chain(varying):
    # every difference the conditions ask for is bit-identical to the
    # explicit chain of one-axis differences, e.g. D(f1, 1, 1, 1, 2) is
    # d2(d1(d1(d1(f1)))); a constant ratio, passed as a float, takes none
    g = _varying_grid() if varying else helcat_grid(np.pi/4, 33)
    f1, f2 = g.f1, g.f2
    kap = g.kappa if varying else float(g.kappa[0, 0])
    D = _grid_oracle(g, slice(None), ())
    used = []

    def recording(arr, *idx):
        if isinstance(arr, float):
            assert D(arr, *idx) is prescribe_mod._ZERO
        else:
            used.append((arr, idx))
        return D(arr, *idx)

    second_order_condition(f1, f2, 1.0/kap, recording)
    fourth_order_condition(f1, f2, kap, recording)
    assert len({(id(a), idx) for a, idx in used}) == (22 if varying else 16)
    for arr, idx in used:
        chain = arr
        for i in idx:
            chain = g.d1(chain) if i == 1 else g.d2(chain)
        assert np.array_equal(D(arr, *idx), chain)


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-55, 1e150])
@pytest.mark.parametrize("alpha", ["0", "pi/4", "pi/3"])
def test_zero_sentinel_gives_the_floats_of_zero(monkeypatch, alpha, scale):
    # the derivatives of a float ratio as _ZERO, which drops its products
    # from the sums, or as 0.0, whose products are array operations: both
    # conditions read the same bits on every block of a helcat coframe,
    # scaled to underflow (1e-55) and to overflow (1e150) in f1^6 f2^6
    g = helcat_grid(_ALPHAS[alpha], 129)
    with np.errstate(all="ignore"):
        grid, _ = prescribe(g.kappa, scale*g.f2, scale*g.f1[:, 0], g.x1,
                            g.x2)
        k0 = prescribe_mod._constant_ratio(grid)
        assert isinstance(k0, float)
        for blk, keep, _, _ in prescribe_mod._blocks(grid):
            got = _compatibility(blk, k0, keep)
            with monkeypatch.context() as m:
                m.setattr(prescribe_mod, "_ZERO", 0.0)
                want = _compatibility(blk, k0, keep)
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), name


def test_zero_sentinel_arithmetic():
    Z, arr = prescribe_mod._ZERO, np.array([1.5, -2.0])
    for product in (Z*arr, arr*Z, 3*Z, Z*np.float64(2.0), -Z, Z*Z, Z + Z,
                    Z - Z):
        assert product is Z
    for left, right in ((Z + arr, arr), (arr + Z, arr), (arr - Z, arr),
                        (Z - arr, -arr)):
        assert np.array_equal(left, right) and left is not Z


@pytest.mark.parametrize("n", [33, 65])
def test_float_ratio_is_the_constant_array_without_its_differences(
        monkeypatch, n):
    # a constant kappa passed as a float gives the conditions the floats a
    # constant kappa array gives them inside the margin, where that array's
    # differences are exactly 0; the float takes 16 differences, the array
    # 22
    g = helcat_grid(np.pi/4, n)
    assert np.ptp(g.kappa) == 0.0
    calls = []
    for name in ("d1", "d2"):
        def counted(self, arr, _diff=getattr(FieldGrid, name)):
            calls.append(arr.shape)
            return _diff(self, arr)
        monkeypatch.setattr(FieldGrid, name, counted)

    def run(k0):
        calls.clear()
        return _compatibility(g, k0, slice(None)), len(calls)

    as_float, n_float = run(float(g.kappa[0, 0]))
    as_array, n_array = run(None)
    assert (n_float, n_array) == (16, 22)
    assert list(as_float) == list(as_array) == ["integrability_2nd",
                                                "integrability_4th"]
    m = prescribe_mod._MARGIN
    core = (slice(m, n - m), slice(m, n - m))
    for name in as_float:
        assert np.array_equal(as_float[name][core], as_array[name][core],
                              equal_nan=True), name
        assert np.all(np.isfinite(as_float[name][core]))


def _prescribe_case(case, n=33):
    """prescribe's arguments on n x n: a constant ratio or a varying
    one."""
    g = helcat_grid(np.pi/4, n)
    if case == "const":
        return g.kappa, g.f2, g.f1[:, 0], g.x1, g.x2
    X1, X2 = np.meshgrid(g.x1, g.x2, indexing="ij")
    return (1.0 + 0.3*X1*X2, np.exp(0.2*X1 - 0.1*X2),
            2.0*np.ones_like(g.x1), g.x1, g.x2)


@pytest.mark.parametrize("rows", [3, 10])
@pytest.mark.parametrize("case", ["const", "varying"])
def test_prescribe_blocks_match_one_block(monkeypatch, case, rows):
    # blocks of 3 rows, each shorter than the 4-row halo, and of 10 rows,
    # whose last block has 3: every field and every report entry is the
    # one a single block over the whole grid gives, bit for bit
    args = _prescribe_case(case)
    monkeypatch.setattr(prescribe_mod, "_BLOCK", 33)
    whole, rep_whole = prescribe(*args)
    monkeypatch.setattr(prescribe_mod, "_BLOCK", rows)
    blocked, rep = prescribe(*args)
    for name in ("f1", "theta1", "theta2", "b", "c", "psi"):
        assert np.array_equal(getattr(blocked, name), getattr(whole, name),
                              equal_nan=True), name
    for part in ("max_norm", "rms", "extra"):
        got, want = getattr(rep, part), getattr(rep_whole, part)
        assert list(got) == list(want)
        assert np.array_equal(list(got.values()), list(want.values()),
                              equal_nan=True), part
    assert rep.margin == rep_whole.margin


@pytest.mark.parametrize("case", ["helcat 0", "helcat pi/4", "helcat pi/3",
                                  "varying helcat", "varying"])
def test_psi_residual_skip_keeps_the_report(monkeypatch, case):
    # R3 and R4 are NaN wherever psi is: a block whose interior psi is all
    # NaN skips them, and the fields and every report entry are the ones
    # computing them gives, bit for bit; helcat's read NaN norms either way
    def run(skip):
        calls = []
        for name in ("d1", "d2"):
            def counted(self, arr, _diff=getattr(FieldGrid, name)):
                calls.append(arr.shape)
                return _diff(self, arr)
            monkeypatch.setattr(FieldGrid, name, counted)
        if not skip:
            monkeypatch.setattr(_RowNorms, "reads", lambda self, r, lo: True)
        grid, rep = _run_psi_case(case)
        monkeypatch.undo()
        return grid, rep, len(calls)

    (grid, rep, n_skip), (full, rep_full, n_full) = run(True), run(False)
    for name in ("f1", "theta1", "theta2", "b", "c", "psi"):
        assert getattr(grid, name).tobytes() == getattr(full, name).tobytes()
    for part in ("max_norm", "rms", "extra"):
        got, want = getattr(rep, part), getattr(rep_full, part)
        assert list(got) == list(want)
        assert np.array(list(got.values())).tobytes() == np.array(
            list(want.values())).tobytes(), part
    helcat = case.startswith("helcat")
    for name in prescribe_mod._PSI_RESIDUALS:
        assert np.isnan(rep.max_norm[name]) == helcat
    # 65 rows are two blocks, each of which skips R3 and R4's 4 differences
    assert n_full - n_skip == (8 if helcat else 0)


@pytest.mark.parametrize("stage", ["integrability_residuals", "prescribe"])
def test_stage_frees_its_grids_without_gc(stage):
    # the difference oracle holds no reference to itself, so its cache of
    # whole-grid differences goes when the call returns, without waiting
    # for the cyclic garbage collector
    g = helcat_grid(np.pi/4, 257)
    run = {"integrability_residuals": lambda: integrability_residuals(g),
           "prescribe": lambda: prescribe(g.kappa, g.f2, g.f1[:, 0],
                                          g.x1, g.x2)}[stage]
    run()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert after - before < g.f1.nbytes


def test_prescribe_peak_memory_in_grids():
    # tracemalloc's peak inside prescribe at 513, in n^2 float grids: the
    # six fields it returns (f1, theta1, theta2, b, c and psi) plus the
    # temporaries of one block.  f2 and kappa are views of the arguments,
    # and no residual array is a whole grid.  With copies of the inputs,
    # whole-grid f1 and theta stages and six residual grids it read 19.9
    g = helcat_grid(np.pi/4, 513)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grid, _ = prescribe(g.kappa, g.f2, g.f1[:, 0], g.x1, g.x2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before)/g.f1.nbytes <= 12.5
    assert np.shares_memory(grid.f2, g.f2)
    assert np.shares_memory(grid.kappa, g.kappa)
    assert not grid.f2.flags.writeable and not grid.kappa.flags.writeable
    # a scalar kappa, as the CLI passes it, stays a scalar
    grid, _ = prescribe(float(g.kappa[0, 0]), g.f2, g.f1[:, 0], g.x1, g.x2)
    assert grid.kappa.strides == (0, 0)


@pytest.mark.parametrize("alpha", [0.0, np.pi/4, np.pi/3],
                         ids=["0", "pi/4", "pi/3"])
def test_helcat_grid_carries_helcat_coframe(alpha):
    # the coframe, and make_helcat's oracles at the rotated coordinate s
    x1, x2, f, kap, s = helcat_coframe(alpha, 33)
    g = helcat_grid(alpha, 33)
    oracle = make_helcat(alpha).oracle
    assert kap == oracle["kappa"]()
    for got, want in ((g.x1, x1), (g.x2, x2), (g.f1, f), (g.f2, f),
                      (g.kappa, np.full_like(f, kap)),
                      (g.theta2, oracle["theta2"](s)),
                      (g.theta1, kap*oracle["theta2"](s)),
                      (g.psi, oracle["psi"](s))):
        assert np.array_equal(got, want)


def test_perturbed_f1_breaks_integrability():
    g = helcat_grid(0.0, 65)
    base = integrability_residuals(g).worst()
    X1, X2 = np.meshgrid(g.x1, g.x2, indexing="ij")
    g2 = FieldGrid(x1=g.x1, x2=g.x2,
                   f1=g.f1*(1.0 + 0.1*np.sin(3*X1)*np.sin(3*X2)),
                   f2=g.f2, kappa=g.kappa)
    pert = integrability_residuals(g2).worst()
    assert pert > 10.0*base


# --------------------------------------------------------------------------
# pipeline
# --------------------------------------------------------------------------
def _recovered_kappa(grid):
    """theta1/theta2, NaN where |theta2| < 1e-12."""
    t2 = grid.theta2
    return grid.theta1/np.where(np.abs(t2) < 1e-12, np.nan, t2)


def test_pipeline_realizable_for_unit_ratio():
    g0 = helcat_grid(0.0, 65)
    grid, rep = prescribe(np.ones_like(g0.f2), g0.f2, g0.f1[:, 0],
                          g0.x1, g0.x2)
    assert rep.extra["realizable"] == 1.0
    al = np.arctan(np.cbrt(_recovered_kappa(grid)))
    assert np.nanmax(np.abs(al - np.pi/4)) < 1e-12


def test_pipeline_constant_ratio_family():
    g = helcat_grid(np.pi/4, 65)
    grid, rep = prescribe(g.kappa, g.f2, g.f1[:, 0], g.x1, g.x2)
    assert rep.extra["realizable"] == 1.0
    kap = float(g.kappa[0, 0])
    rec = _recovered_kappa(grid)
    assert np.nanmax(np.abs(rec - kap)) < 1e-12


def test_pipeline_rejects_perturbed_f1():
    # the perturbed coframe's compatibility residuals against the
    # pipeline's realizability tolerance (worst 30.2 against 0.061)
    g0 = helcat_grid(0.0, 65)
    grid, rep = prescribe(np.ones_like(g0.f2), g0.f2, g0.f1[:, 0],
                          g0.x1, g0.x2)
    X1, X2 = np.meshgrid(g0.x1, g0.x2, indexing="ij")
    pert = FieldGrid(x1=g0.x1, x2=g0.x2,
                     f1=grid.f1*(1.0 + 0.1*np.sin(3*X1)*np.sin(3*X2)),
                     f2=g0.f2, kappa=np.ones_like(g0.f2))
    assert integrability_residuals(pert).worst() > rep.extra["tol_real"]


def test_pipeline_scaling_keeps_recovered_ratio():
    g0 = helcat_grid(0.0, 65)
    grid, _ = prescribe(np.ones_like(g0.f2), g0.f2, g0.f1[:, 0],
                        g0.x1, g0.x2)
    grids, reps = prescribe(np.ones_like(g0.f2), 2.0*g0.f2,
                            2.0*g0.f1[:, 0], g0.x1, g0.x2)
    assert np.allclose(grids.f1, 2.0*grid.f1)
    assert np.nanmax(np.abs(_recovered_kappa(grids)
                            - _recovered_kappa(grid))) < 1e-12
    # scaling the coframe is not a surface motion: the fourth-order
    # compatibility condition is inhomogeneous in (f1, f2) and genuinely
    # fails on the scaled data, so no verdict invariance is asserted
    assert reps.max_norm["integrability_4th"] > 1.0


def test_pipeline_adversarial_ratio_returns_report():
    x1, x2, (X1, X2) = _uniform()
    grid, rep = prescribe(1.0 + X1*X2, np.ones_like(X1),
                          2.0*np.ones_like(x1), x1, x2)
    assert set(rep.max_norm) >= {"structural_1", "structural_2"}
    assert "realizable" in rep.extra


@pytest.mark.parametrize("field", ["f2", "kappa", "f1_boundary"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_prescribe_rejects_non_finite_input(field, bad):
    # one bad cell in one input: a NaN in f2 used to run down f1's column
    # and drop out of every norm, and the report read realizable
    g = helcat_grid(np.pi/4, 65)
    args = {"kappa": g.kappa.copy(), "f2": g.f2.copy(),
            "f1_boundary": g.f1[:, 0].copy()}
    args[field][(30, 40)[:args[field].ndim]] = bad
    error = KappaZero if field == "kappa" else NonPositiveResult
    with pytest.raises(error):
        prescribe(x1=g.x1, x2=g.x2, **args)


# --------------------------------------------------------------------------
# regression battery: max-norm and RMS of every residual, recorded with the
# conditions in their x**n form (the constant-ratio cases' integrability
# entries with the one form of each condition, kappa passed as a float); a
# rewrite of their arithmetic must keep them within 1e-10 relative
# --------------------------------------------------------------------------
NAN = float("nan")
_PINNED_NAMES = ("structural_1", "structural_2", "structural_3",
                 "structural_4", "integrability_2nd", "integrability_4th")
# (max_norm, rms) in _PINNED_NAMES order
_PINNED = {
    ("0", 65): (
        [2.7755575615628914e-17, 3.288838644976977e-05, NAN, NAN,
         8.313540161042354e-05, 0.00551676043388291],
        [5.215104411520295e-18, 2.087521131688704e-05, NAN, NAN,
         2.3614364827639576e-05, 0.0038099414847294465]),
    ("0", 129): (
        [5.551115123125783e-17, 8.223489977865484e-06, NAN, NAN,
         2.2174081835579784e-05, 0.0013814580277569087],
        [5.024631108104251e-18, 5.370924172926349e-06, NAN, NAN,
         6.466268798332452e-06, 0.00094025739094771]),
    ("pi/4", 65): (
        [5.551115123125783e-17, 3.0386594402437295e-05, NAN, NAN,
         0.00024511175019181763, 0.005177033089902704],
        [1.5121621193864785e-17, 2.2930378798739807e-05, NAN, NAN,
         0.00019883981063037917, 0.003559474607005693]),
    ("pi/4", 129): (
        [5.551115123125783e-17, 7.597630863914739e-06, NAN, NAN,
         6.13669388087601e-05, 0.0012964802721567993],
        [1.500598661822537e-17, 5.692802391358162e-06, NAN, NAN,
         4.945388304383605e-05, 0.0009030749844462489]),
    ("pi/3", 65): (
        [5.551115123125783e-17, 2.2464700468918797e-05, NAN, NAN,
         0.00032817021654540923, 0.004061423037444277],
        [1.7027673635927156e-17, 1.770620552095324e-05, NAN, NAN,
         0.00023428106323634406, 0.0028300033962158676]),
    ("pi/3", 129): (
        [5.551115123125783e-17, 5.616851214571006e-06, NAN, NAN,
         8.215725025362275e-05, 0.0010170916512295164],
        [1.7274261038204755e-17, 4.349851459995036e-06, NAN, NAN,
         5.858412875730039e-05, 0.0007230751837975307]),
    ("varying", 257): (
        [2.7755575615628914e-17, 2.2409473723894457e-07, 1588967.4978804954,
         400509.7436145465, 0.2339693954852547, 0.4944608597662543],
        [4.772348207960209e-18, 8.748187091181695e-08, 76071.15858646114,
         13645.402973611312, 0.12867699352058953, 0.36826323202861383]),
}
_ALPHAS = {"0": 0.0, "pi/4": np.pi/4, "pi/3": np.pi/3}


@pytest.mark.parametrize("case", list(_PINNED),
                         ids=lambda c: f"{c[0]}:{c[1]}")
def test_prescribe_reports_stay_pinned(case):
    label, n = case
    if label == "varying":
        x = np.linspace(0.0, 1.0, n)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        _, rep = prescribe(1.0 + 0.3*X1*X2, np.exp(0.2*X1 - 0.1*X2),
                           2.0*np.ones_like(x), x, x)
        realizable = 0.0
    else:
        g = helcat_grid(_ALPHAS[label], n)
        _, rep = prescribe(g.kappa, g.f2, g.f1[:, 0], g.x1, g.x2)
        realizable = 1.0
    names, (want_max, want_rms) = _PINNED_NAMES, _PINNED[case]
    assert list(rep.max_norm) == list(names)
    # NaN stays NaN (equal_nan), everything else within 1e-10 relative
    np.testing.assert_allclose([rep.max_norm[k] for k in names], want_max,
                               rtol=1e-10, atol=0.0)
    np.testing.assert_allclose([rep.rms[k] for k in names], want_rms,
                               rtol=1e-10, atol=0.0)
    assert rep.extra["realizable"] == realizable


def test_fourth_order_residual_crosses_tolerance_from_roundoff():
    # Why the helcat pi/4 family stops being realizable between 769 and
    # 1025: integrability_4th takes fourth differences, whose roundoff
    # grows like eps/h^4, while tol_real = 250 h^2 falls.  From 513 to 1025
    # the residual rises ~10x where a truncation error would fall 4x, sits
    # at a few eps/h^4, and crosses the falling tolerance (at 769 it reads
    # 0.89 tol_real).
    res, tol, real = {}, {}, {}
    for n in (513, 1025):
        g = helcat_grid(np.pi/4, n)
        _, rep = prescribe(g.kappa, g.f2, g.f1[:, 0], g.x1, g.x2)
        res[n] = rep.max_norm["integrability_4th"]
        tol[n], real[n] = rep.extra["tol_real"], rep.extra["realizable"]
        assert rep.worst() == res[n]
        del g, rep
    h = 1.0/1024
    assert res[1025] > 4.0*res[513]
    assert 1.0 < res[1025]/(np.finfo(float).eps/h**4) < 20.0
    assert tol[1025] == tol[513]/4.0
    assert res[513] < tol[513] and real[513] == 1.0
    assert res[1025] > tol[1025] and real[1025] == 0.0

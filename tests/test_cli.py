import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from conformal.cli import load_surface_spec, main
from conformal.surfaces import SurfacePatch


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    d = tmp_path_factory.mktemp("specs")
    files = {
        "helcat": "kind = helcat\nalpha_h = 0.7853981633974483\n",
        "helcat0": "kind = helcat\nalpha_h = 0.0\n",
        "torus": "kind = torus\nR = 2\nr = 1\n",
        "tube": "kind = tube\ncurve = helix 2.0 0.5\nradius = 0.35\n",
        "sphere": "kind = sphere\nradius = 1.0\n",
        "canonical": ("kind = canonical\n"
                      "coeffs = 1, 2, 0, 3.5, 0.25, -0.5, -3.25\n"),
        "graph": "kind = graph\ncoeffs = 2 0 0.5; 0 2 -0.5\n",
        # slope 1e100: E is about 1e200, whose square overflows a float
        "steep": "kind = graph\ncoeffs = 1 0 1e100; 2 0 0.5; 0 2 -0.5\n",
        "bad": "kind = nonagon\n",
        "malformed": "this is not a spec\n",
    }
    paths = {}
    for name, text in files.items():
        p = d / f"{name}.spec"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def _rows(result):
    payload = json.loads(result.output)
    return payload["header"], payload["rows"], payload


def test_table1_deterministic(runner):
    a = runner.invoke(main, ["table1", "--format", "json"])
    b = runner.invoke(main, ["table1", "--format", "json"])
    assert a.exit_code == 0
    assert a.output == b.output
    header, rows, _ = _rows(a)
    assert len(rows) == 27
    icomp, iref = header.index("computed"), header.index("reference")
    inote = header.index("note")
    flagged = [r for r in rows if r[inote] and "flagged" in r[inote]]
    assert len(flagged) == 1
    ok = [r for r in rows if not r[inote]]
    for r in ok:
        assert abs(r[icomp] - r[iref]) <= max(0.02, 0.02*abs(r[iref]))


def test_invariants_sphere_all_umbilic(runner, specs):
    res = runner.invoke(main, ["invariants", "--surface", specs["sphere"],
                               "--grid", "8x8", "--range", "-3:3,-1.2:1.2",
                               "--format", "json"])
    assert res.exit_code == 0
    header, rows, _ = _rows(res)
    icls = header.index("class")
    # mu's roundoff floor, about 1.5e-8 |k|, lies under the umbilic
    # tolerance, so no point of the sphere passes as non-umbilic
    assert all(r[icls] == "Umbilic" for r in rows)
    assert all(r[header.index("psi")] is None for r in rows)


def test_classify_torus_all_dupin(runner, specs):
    res = runner.invoke(main, ["classify", "--surface", specs["torus"],
                               "--grid", "8x8", "--format", "json"])
    assert res.exit_code == 0
    header, rows, _ = _rows(res)
    icls = header.index("class")
    assert rows and all(r[icls] == "Dupin" for r in rows)


def test_invariants_csv_masked_cells_empty(runner, specs):
    res = runner.invoke(main, ["invariants", "--surface", specs["helcat"],
                               "--grid", "8x8", "--range",
                               "-1:-0.2,0:1"])
    assert res.exit_code == 0
    lines = res.output.strip().split("\n")
    assert lines[0].startswith("u,v,k1,k2")
    assert len(lines) == 65


def test_invariants_rows_name_their_mask(runner, specs):
    # the default 16x16 grid spans the whole domain: the first and last
    # samples in each direction lie inside the differencing margin
    res = runner.invoke(main, ["invariants", "--surface", specs["helcat"],
                               "--format", "json"])
    assert res.exit_code == 0
    header, rows, _ = _rows(res)
    assert len(rows) == 256
    icls = header.index("class")
    for r in rows:
        edge = abs(r[0]) == 3.0 or abs(r[1]) == 7.0
        assert (r[icls] == "BoundaryTooClose") == edge
        if edge:
            assert all(x is None for x in r[2:icls])


def test_classify_rows_name_their_error(runner, specs):
    # the grid runs from v = 1.2 past the sphere's domain edge, v = 1.4, to
    # the pole; the sweep reports each row's error instead of aborting:
    # every point inside is umbilic, every point past the edge (the pole
    # row, where the metric degenerates, included) is out of the domain
    res = runner.invoke(main, ["classify", "--surface", specs["sphere"],
                               "--grid", "8x8", "--range",
                               f"-1:1,1.2:{np.pi/2!r}", "--format", "json"])
    assert res.exit_code == 0
    header, rows, _ = _rows(res)
    icls = header.index("class")
    assert len(rows) == 64
    assert [r[icls] for r in rows] == [
        "OutOfDomain" if r[1] > 1.4 else "Umbilic" for r in rows]
    assert sum(r[1] > 1.4 for r in rows) == 32


def test_osculate(runner, specs):
    res = runner.invoke(main, ["osculate", "--surface", specs["helcat"],
                               "--seed", "1.0,0.3", "--format", "json"])
    assert res.exit_code == 0
    header, rows, _ = _rows(res)
    r = rows[0]
    assert abs(r[header.index("psi_c")] - 7.44) < 0.02
    assert r[header.index("contact_order")] == 4


def test_osculate_canal_row_empty(runner, specs, tmp_path):
    cat = tmp_path / "catenoid.spec"
    cat.write_text(f"kind = helcat\nalpha_h = {np.pi/2}\n")
    res = runner.invoke(main, ["osculate", "--surface", str(cat),
                               "--seed", "1.0,0.3", "--format", "json"])
    assert res.exit_code == 0
    header, rows, _ = _rows(res)
    assert rows[0][header.index("psi_c")] is None


def test_osculate_torus_limit_value(runner, specs):
    # every torus point is a limit case; the returned value is the constant
    # fourth-order invariant of the cyclide itself
    res = runner.invoke(main, ["osculate", "--surface", specs["torus"],
                               "--seed", "0.5,0.8", "--format", "json"])
    assert res.exit_code == 0
    header, rows, _ = _rows(res)
    assert abs(rows[0][header.index("psi_c")] + 1.5) < 1e-6


def test_dupin_lines_tube_closure(runner, specs):
    res = runner.invoke(main, ["dupin-lines", "--surface", specs["tube"],
                               "--seed", "0.5,1.2", "--format", "json"])
    assert res.exit_code == 0
    header, rows, _ = _rows(res)
    iclosed = header.index("closed")
    assert rows and all(r[iclosed] == "true" for r in rows)


def test_darboux_criticals_in_meta(runner, specs):
    res = runner.invoke(main, ["darboux", "--surface", specs["helcat"],
                               "--seed", "-0.05,0.3", "--orient", "-1",
                               "--max-length", "1.0", "--format", "json"])
    assert res.exit_code == 0
    _, _, payload = _rows(res)
    crits = payload["config"]["criticals"]
    assert crits
    iu = payload["config"]["criticals_header"].index("u")
    assert abs(float(crits[0][iu])) < 1e-6


def test_intersect_default_psi_c(runner, specs):
    res = runner.invoke(main, ["intersect", "--surface", specs["canonical"],
                               "--format", "json"])
    assert res.exit_code == 0
    _, rows, payload = _rows(res)
    cfg = payload["config"]
    assert abs(cfg["psi_c"] - 0.2409225992051419) < 1e-12
    assert cfg["component_count"] == 2
    assert not cfg["degenerate"]
    assert rows


@pytest.mark.parametrize("coeffs", ["1, 0, 0, 3.5, 0.25, -0.5, -3.25",
                                    "0, 2, 0, 3.5, 0.25, -0.5, -3.25"])
def test_intersect_default_psi_c_canal_exits_3(runner, tmp_path, coeffs):
    spec = tmp_path / "canal.spec"
    spec.write_text(f"kind = canonical\ncoeffs = {coeffs}\n")
    res = runner.invoke(main, ["intersect", "--surface", str(spec)])
    assert res.exit_code == 3
    assert "CanalPoint" in res.output


def test_intersect_offset_counts(runner, specs):
    for dpsi, want in [(4.0, 3), (-4.0, 3)]:
        res = runner.invoke(main, ["intersect", "--surface",
                                   specs["canonical"], "--psi-c",
                                   str(0.2409225992051419 + dpsi),
                                   "--format", "json"])
        assert res.exit_code == 0
        _, _, payload = _rows(res)
        assert payload["config"]["component_count"] == want


@pytest.mark.parametrize("grid", ["128x64", "64x128"])
def test_intersect_rejects_non_square_grid(runner, specs, grid):
    res = runner.invoke(main, ["intersect", "--surface", specs["canonical"],
                               "--grid", grid])
    assert res.exit_code == 2
    assert json.loads(res.output.strip().splitlines()[-1])["error"] == \
        "ValueError"


@pytest.mark.parametrize("window", ["-0.4", "0"])
def test_intersect_rejects_nonpositive_window(runner, specs, window):
    res = runner.invoke(main, ["intersect", "--surface", specs["canonical"],
                               f"--window={window}"])
    assert res.exit_code == 2
    assert json.loads(res.output.strip().splitlines()[-1])["error"] == \
        "ValueError"


@pytest.mark.parametrize("psi_c", ["nan", "inf", "-inf"])
def test_intersect_rejects_non_finite_psi_c(runner, specs, psi_c):
    # a NaN psi_c used to read 0 components (-inf: 4) and put the non-JSON
    # token NaN in the meta
    res = runner.invoke(main, ["intersect", "--surface", specs["canonical"],
                               f"--psi-c={psi_c}", "--format", "json"])
    assert res.exit_code == 2
    assert json.loads(res.output.strip().splitlines()[-1])["error"] == \
        "ValueError"


def test_prescribe_rejects_non_square_grid(runner, specs):
    res = runner.invoke(main, ["prescribe", "--surface", specs["helcat"],
                               "--grid", "65x17"])
    assert res.exit_code == 2
    assert "square" in res.output


def test_prescribe_realizable(runner, specs):
    res = runner.invoke(main, ["prescribe", "--surface", specs["helcat0"]])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["realizable"] is True
    assert "integrability_4th" in payload["max_norm"]


def test_prescribe_prints_realizable_once(runner, specs):
    # the verdict is a top-level boolean; ``extra`` does not repeat it
    res = runner.invoke(main, ["prescribe", "--surface", specs["helcat0"]])
    assert res.exit_code == 0
    assert res.output.count('"realizable"') == 1
    payload = json.loads(res.output)
    assert "realizable" not in payload["extra"]
    assert {"theta_consistency_gap", "tol_real"} <= set(payload["extra"])


def test_verify_degenerate_status(runner, specs):
    res = runner.invoke(main, ["verify", "--surface", specs["helcat"],
                               "--seed", "0.8,0.5", "--format", "json"])
    assert res.exit_code == 0
    header, rows, _ = _rows(res)
    assert rows[0][header.index("status")] == "degenerate"


def test_verify_ok_on_tube(runner, specs):
    res = runner.invoke(main, ["verify", "--surface", specs["tube"],
                               "--seed", "0.5,1.2", "--format", "json"])
    assert res.exit_code == 0
    header, rows, _ = _rows(res)
    assert rows[0][header.index("status")] == "ok"


def test_out_file_written(runner, specs, tmp_path):
    out = tmp_path / "rows.csv"
    res = runner.invoke(main, ["classify", "--surface", specs["torus"],
                               "--grid", "8x8", "--out", str(out)])
    assert res.exit_code == 0
    assert out.read_text().startswith("u,v,class")


def test_unknown_kind_exits_2(runner, specs):
    res = runner.invoke(main, ["invariants", "--surface", specs["bad"]])
    assert res.exit_code == 2


def test_malformed_spec_exits_2(runner, specs):
    res = runner.invoke(main, ["classify", "--surface", specs["malformed"]])
    assert res.exit_code == 2


def test_toolkit_error_exits_3(runner, specs):
    res = runner.invoke(main, ["dupin-lines", "--surface", specs["helcat"],
                               "--seed", "0.0,0.3"])
    assert res.exit_code == 3


def test_missing_surface_file_rejected(runner, tmp_path):
    res = runner.invoke(main, ["classify", "--surface",
                               str(tmp_path / "nope.spec")])
    assert res.exit_code != 0


def test_invariants_sphere_nan_mu_rows_are_umbilic(runner, specs):
    # H*H - K rounds below 0 at some sphere points; the NaN mu it gives
    # must read as an umbilic, not as a Generic or Canal point
    res = runner.invoke(main, ["invariants", "--surface", specs["sphere"],
                               "--grid", "16x16", "--range",
                               "-3:3,-1.2:1.2", "--format", "json"])
    assert res.exit_code == 0
    header, rows, _ = _rows(res)
    imu, icls = header.index("mu"), header.index("class")
    masked = [r[icls] for r in rows if r[imu] is None]
    assert masked
    assert not [c for c in masked if c == "Generic" or c.startswith("Canal")]


@pytest.mark.parametrize("command,spec,compiles", [
    (["intersect"], "canonical", 0),
    (["prescribe", "--grid", "33x33"], "helcat", 0),
    (["invariants", "--grid", "8x8", "--range", "-1:1,-1:1"], "helcat", 0),
    (["table1"], None, 0),
    (["dupin-lines", "--seed", "0.5,1.2", "--max-length", "0.1"], "tube",
     0),
    (["verify", "--seed", "0.5,1.2"], "tube", 0),
], ids=["intersect", "prescribe", "invariants", "table1", "dupin-lines",
        "verify"])
def test_commands_compile_only_evaluated_patches(runner, specs, monkeypatch,
                                                 command, spec, compiles):
    # every catalog family, the tube included, has a closed-form jet and
    # compiles nothing
    import sympy
    calls = []
    lambdify = sympy.lambdify

    def counting(*args, **kwargs):
        calls.append(args)
        return lambdify(*args, **kwargs)

    monkeypatch.setattr(sympy, "lambdify", counting)
    surface = [] if spec is None else ["--surface", specs[spec]]
    res = runner.invoke(main, command + surface)
    assert res.exit_code == 0
    assert len(calls) == compiles


def _fresh_python(code, *args):
    """stdout of ``python -c code *args`` in a fresh process that imports
    this checkout's ``conformal``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import conformal
    src = str(Path(conformal.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=60).stdout


@pytest.mark.parametrize("module", ["sympy", "scipy", "conformal.prescribe"])
def test_cli_import_leaves_out(module):
    # no module of the package imports sympy; scipy only the intersection
    # oracle and the branch-direction and section-angle root finder do,
    # which no command calls; the prescribe pipeline loads with its own
    # command when it runs
    code = ("import sys, conformal.cli; "
            f"print(sorted(m for m in sys.modules if m == {module!r} "
            f"or m.startswith({module + '.'!r})))")
    assert _fresh_python(code).strip() == "[]"


def test_inversion_center_check_leaves_scipy_out():
    # the check refines its samples by Gauss-Newton on the pushed jet
    code = ("import sys\n"
            "from conformal.catalog import make_torus\n"
            "from conformal.surfaces import MobiusMap, mobius_transform\n"
            "mobius_transform(make_torus(2.0, 1.0).surface, MobiusMap"
            ".translation([0.0, 0.0, 5.0]).then(MobiusMap.inversion()))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert _fresh_python(code).strip() == "[]"


_RUN_AND_LIST_HEAVY = """
import json, sys
from conformal.cli import main
try:
    main(sys.argv[1:], prog_name="cycl")
    code = 0
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.split(".")[0] in ("scipy", "sympy"))]))
"""


# every command once, on small inputs, and every spec kind at least once
_EVERY_COMMAND = [
    (["intersect", "--grid", "64x64"], "canonical"),
    (["prescribe", "--grid", "65x65"], "helcat"),
    (["dupin-lines", "--seed", "0.5,1.2"], "tube"),
    (["verify", "--seed", "0.5,1.2"], "tube"),
    (["invariants", "--grid", "8x8"], "torus"),
    (["classify", "--grid", "8x8"], "sphere"),
    (["osculate", "--seed", "0.1,0.1"], "graph"),
    (["darboux", "--seed", "0.4,0.3", "--max-length", "0.05"], "helcat"),
    (["table1"], None),
]
_EVERY_COMMAND_IDS = ["intersect", "prescribe", "dupin-lines-tube",
                      "verify-tube", "invariants-torus", "classify-sphere",
                      "osculate-graph", "darboux-helcat", "table1"]


# no command loads scipy or sympy (neither is a runtime dependency: both
# are in the `test` extra, for the oracles and library paths that no
# command reaches)
@pytest.mark.parametrize("command,spec", _EVERY_COMMAND,
                         ids=_EVERY_COMMAND_IDS)
def test_commands_load_neither_scipy_nor_sympy(specs, tmp_path, command,
                                               spec):
    out = tmp_path / "out.txt"
    surface = [] if spec is None else ["--surface", specs[spec]]
    stdout = _fresh_python(_RUN_AND_LIST_HEAVY, *command, *surface,
                           "--out", str(out))
    code, heavy = json.loads(stdout)
    assert code == 0
    assert out.stat().st_size > 0
    assert heavy == []


# the benchmark's tracer rebinds these module globals of conformal.cli and
# times each call: a command that reached one through a binding made at
# import would leave its span, and the metric read off it, at 0
@pytest.mark.parametrize("command,spec", _EVERY_COMMAND,
                         ids=_EVERY_COMMAND_IDS)
def test_commands_call_the_traced_names(runner, specs, tmp_path, monkeypatch,
                                        command, spec):
    import conformal.cli as cli
    calls = []
    for name in ("load_surface_spec", "_emit", "_write"):
        orig = getattr(cli, name)

        def counting(*args, _name=name, _orig=orig, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)

        for key, val in list(vars(cli).items()):
            if val is orig:
                monkeypatch.setattr(cli, key, counting)
    surface = [] if spec is None else ["--surface", specs[spec]]
    res = runner.invoke(main, [*command, *surface, "--out",
                               str(tmp_path / "out.txt")])
    assert res.exit_code == 0
    assert calls.count("load_surface_spec") == (spec is not None)
    # prescribe writes its own report; every other command a table
    assert calls.count("_emit") == (command[0] != "prescribe")
    assert calls.count("_write") == 1


@pytest.mark.parametrize("command,spec", _EVERY_COMMAND,
                         ids=_EVERY_COMMAND_IDS)
def test_every_command_reports_an_unwritable_out(runner, specs, tmp_path,
                                                 command, spec):
    # the group is the one error boundary: an OSError in any command exits 2
    # with a JSON record, not a traceback
    surface = [] if spec is None else ["--surface", specs[spec]]
    res = runner.invoke(main, [*command, *surface, "--out",
                               str(tmp_path / "missing" / "out.txt")])
    assert res.exit_code == 2
    assert json.loads(res.output.strip().splitlines()[-1])["error"] == \
        "FileNotFoundError"


# a bad center curve, radius or coefficient is a ValueError (exit 2), not a
# ZeroDivisionError or IndexError traceback, a SelfIntersectingTube with a
# negative curvature radius, a sweep whose every row reads DegenerateMetric,
# or a graph that silently drops a term of negative power
@pytest.mark.parametrize("text", [
    "kind = tube\ncurve = circle 0\nradius = 0.35\n",
    "kind = tube\ncurve = helix 0 0\nradius = 0.35\n",
    "kind = tube\ncurve = helix -2 0.5\nradius = 0.35\n",
    "kind = tube\ncurve = helix 2 nan\nradius = 0.35\n",
    "kind = tube\ncurve = helix 2\nradius = 0.35\n",
    "kind = tube\ncurve = helix 2 0.5\nradius = nan\n",
    "kind = torus\nR = inf\nr = 1\n",
    "kind = graph\ncoeffs = 2 0 nan; 0 2 -0.5\n",
    "kind = graph\ncoeffs = 2 0 0.5; -1 2 1\n",
    "kind = sphere\nradius = inf\n",
], ids=["circle-0", "helix-0-0", "helix-negative", "helix-nan-pitch",
        "helix-no-pitch", "tube-nan-radius", "torus-inf", "graph-nan",
        "graph-negative-power", "sphere-inf"])
def test_bad_catalog_parameters_exit_2(runner, tmp_path, text):
    spec = tmp_path / "bad.spec"
    spec.write_text(text)
    res = runner.invoke(main, ["classify", "--surface", str(spec),
                               "--grid", "8x8"])
    assert res.exit_code == 2
    assert json.loads(res.output.strip().splitlines()[-1])["error"] == \
        "ValueError"


# without the checks a zero step never reaches --max-length: the subprocess's
# timeout turns such a hang into a failure instead of stalling the suite
@pytest.mark.parametrize("command", [
    ["dupin-lines", "--step", "0"],
    ["dupin-lines", "--step", "-0.01"],
    ["darboux", "--step", "0"],
    ["darboux", "--step", "-0.01"],
    ["darboux", "--orient", "0"],
    ["darboux", "--orient", "3"],
], ids=["dupin-step0", "dupin-step-neg", "darboux-step0", "darboux-step-neg",
        "darboux-orient0", "darboux-orient3"])
def test_line_tracers_reject_bad_step_and_orient(specs, tmp_path, command):
    stdout = _fresh_python(_RUN_AND_LIST_HEAVY, *command, "--surface",
                           specs["helcat"], "--seed", "0.4,0.3",
                           "--max-length", "0.2", "--out",
                           str(tmp_path / "trace.csv"))
    code, _ = json.loads(stdout)
    assert code == 2


_RUN_AND_RECORD = """
import contextlib, io, json, sys
from conformal.cli import main
err = io.StringIO()
with contextlib.redirect_stderr(err):
    try:
        main(sys.argv[1:], prog_name="cycl")
        code = 0
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, err.getvalue().strip().splitlines()[-1:]]))
"""


# a step too small for the length used to trace without end: below about
# 2.2e-16 times the length so far, adding it leaves the length unchanged
@pytest.mark.parametrize("command", [
    ["darboux", "--alpha0", "0.7", "--step", "1e-300"],
    ["darboux", "--alpha0", "0.7", "--step", "1e-20", "--max-length", "1"],
    ["dupin-lines", "--step", "1e-300"],
    ["dupin-lines", "--step", "1e-20", "--max-length", "1"],
], ids=["darboux-1e-300", "darboux-1e-20", "dupin-1e-300", "dupin-1e-20"])
def test_line_tracers_refuse_too_many_steps(specs, tmp_path, command):
    stdout = _fresh_python(_RUN_AND_RECORD, *command, "--surface",
                           specs["helcat"], "--seed", "0.3,0.3", "--out",
                           str(tmp_path / "trace.csv"))
    code, record = json.loads(stdout)
    assert code == 2
    assert json.loads(record[0])["error"] == "ValueError"


@pytest.mark.parametrize("command", ["dupin-lines", "darboux"])
@pytest.mark.parametrize("max_length", ["nan", "-1", "0", "inf"])
def test_line_tracers_reject_bad_max_length(runner, specs, command,
                                            max_length):
    # a length that is not finite and positive would end the trace at its
    # seed and report it as ReachedLength
    res = runner.invoke(main, [command, "--surface", specs["helcat"],
                               "--seed", "0.4,0.3",
                               f"--max-length={max_length}"])
    assert res.exit_code == 2
    assert json.loads(res.output.strip().splitlines()[-1])["error"] == \
        "ValueError"


@pytest.mark.parametrize("alpha0", ["nan", "inf", "-inf"])
def test_darboux_rejects_non_finite_alpha0(runner, specs, alpha0):
    # a non-finite start angle used to give a one-sample HitBoundary trace
    res = runner.invoke(main, ["darboux", "--surface", specs["helcat"],
                               "--seed", "0.4,0.3", f"--alpha0={alpha0}"])
    assert res.exit_code == 2
    assert json.loads(res.output.strip().splitlines()[-1])["error"] == \
        "ValueError"


# a non-finite coordinate used to sweep a grid of empty, DegenerateMetric
# rows (exit 0), or to fail in the geometry as DegenerateMetric or
# OutOfDomain (exit 3)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", [
    ["invariants", "--grid", "8x8", "--range", "{}:1,0:1"],
    ["classify", "--grid", "8x8", "--range", "0:1,{}:1"],
    ["osculate", "--seed", "{},0.3"],
    ["verify", "--seed", "{},0.3"],
    ["dupin-lines", "--seed", "0.4,{}"],
    ["darboux", "--seed", "0.4,{}"],
], ids=["invariants-range", "classify-range", "osculate-seed", "verify-seed",
        "dupin-lines-seed", "darboux-seed"])
def test_non_finite_range_and_seed_exit_2(runner, specs, command, value):
    res = runner.invoke(main, [*command[:-1], command[-1].format(value),
                               "--surface", specs["helcat"]])
    assert res.exit_code == 2
    assert json.loads(res.output.strip().splitlines()[-1])["error"] == \
        "ValueError"


@pytest.mark.parametrize("command", ["dupin-lines", "darboux", "osculate",
                                     "verify"])
def test_seed_outside_domain_is_out_of_domain(runner, specs, command):
    # helcat's domain is [-3, 3] x [-7, 7]: (9, 9) is outside it, not near
    # its edge, and has no trace
    res = runner.invoke(main, [command, "--surface", specs["helcat"],
                               "--seed", "9,9"])
    assert res.exit_code == 3
    assert json.loads(res.output.strip().splitlines()[-1])["error"] == \
        "OutOfDomain"


@pytest.mark.parametrize("command", ["invariants", "classify"])
@pytest.mark.parametrize("spec,rng", [("helcat", "4:5,8:9"),
                                      ("torus", "100:101,100:101")])
def test_sweep_outside_domain_is_out_of_domain(runner, specs, command, spec,
                                               rng):
    # helcat's domain is [-3, 3] x [-7, 7] and the torus's [-pi, pi]^2: no
    # cell of either range is classified, whatever its jet would give
    res = runner.invoke(main, [command, "--surface", specs[spec], "--grid",
                               "8x8", "--range", rng, "--format", "json"])
    assert res.exit_code == 0
    header, rows, _ = _rows(res)
    assert len(rows) == 64
    assert all(r[-1] == "OutOfDomain" for r in rows)
    assert all(x is None for r in rows for x in r[2:-1])


@pytest.mark.parametrize("alpha0", [[], ["--alpha0", "0"]],
                         ids=["dupin-angle", "alpha0-zero"])
def test_darboux_on_canal_tube_exits_3(runner, specs, alpha0):
    # theta1 vanishes on the tube, so its Dupin angle is exactly 0, where
    # the angle equation is 0/0: no trace starts there
    res = runner.invoke(main, ["darboux", "--surface", specs["tube"],
                               "--seed", "0.5,1.2", "--max-length", "1",
                               *alpha0])
    assert res.exit_code == 3
    assert json.loads(res.output.strip().splitlines()[-1])["error"] == \
        "AngleDegenerate"


@pytest.mark.parametrize("command,spec,seed,error", [
    ("dupin-lines", "sphere", "0.3,0.2", "UmbilicPoint"),
    ("darboux", "sphere", "0.3,0.2", "UmbilicPoint"),
    ("darboux", "sphere", "0.1,0.2", "UmbilicPoint"),
    ("osculate", "sphere", "0.1,0.2", "UmbilicPoint"),
    ("darboux", "helcat", "0,0", "SeedIsDupinPoint"),
], ids=["dupin-lines-umbilic", "darboux-umbilic", "darboux-umbilic-0.1",
        "osculate-umbilic", "darboux-dupin-point"])
def test_tracer_seed_without_a_field_exits_3(runner, specs, command, spec,
                                             seed, error):
    # every sphere point is umbilic, so it has no principal frame and no
    # osculating cyclide; on helcat both thetas are exactly 0 at (0, 0), so
    # the default Darboux angle (the Dupin direction's) is undefined.  None
    # of these is a one-sample trace or an empty row
    length = [] if command == "osculate" else ["--max-length", "0.02"]
    res = runner.invoke(main, [command, "--surface", specs[spec],
                               "--seed", seed, *length])
    assert res.exit_code == 3
    assert json.loads(res.output.strip().splitlines()[-1])["error"] == error


@pytest.mark.parametrize("args", [
    ["osculate", "--seed", "0.1,0.1"],
    ["darboux", "--seed", "0.1,0.1", "--alpha0", "0.5"],
], ids=["osculate", "darboux"])
def test_steep_graph_is_a_degenerate_metric(runner, specs, args):
    # the metric check squares E's scale by a product, which overflows to
    # inf instead of raising OverflowError as a float ** does, and a det I
    # below 1e-14 of inf reads degenerate: a JSON record, not a traceback
    res = runner.invoke(main, [*args, "--surface", specs["steep"]])
    assert res.exit_code == 3
    assert json.loads(res.output.strip().splitlines()[-1])["error"] == \
        "DegenerateMetric"


def test_classify_masks_every_cell_of_a_steep_graph(runner, specs):
    res = runner.invoke(main, ["classify", "--surface", specs["steep"],
                               "--grid", "8x8", "--format", "json"])
    assert res.exit_code == 0
    header, rows, _ = _rows(res)
    assert header == ["u", "v", "class"] and len(rows) == 64
    assert {row[2] for row in rows} == {"DegenerateMetric"}


# the error contract on extreme finite inputs: seeds far outside helcat's
# domain, windows and canonical theta1 up to 1e300, and graph curvature
# scales up to 1e110
_HELCAT = "kind = helcat\nalpha_h = 0.7853981633974483\n"
_CANONICAL = "kind = canonical\ncoeffs = {!r}, 2, 0, 3.5, 0.25, -0.5, -3.25\n"
_SCALED = "kind = graph\ncoeffs = 2 0 {0!r}; 0 2 {1!r}; 3 0 {0!r}\n"
_BIG = _SCALED.format(1e110, -1e110)
_FAR = st.floats(4.0, 1e300).flatmap(lambda x: st.sampled_from([x, -x]))
_ANY = st.floats(-1e300, 1e300)
_SHORT = ["--max-length", "0.05"]


def _seed_case(command, uv):
    extra = _SHORT if command in ("dupin-lines", "darboux") else []
    return _HELCAT, [command, "--seed", "%r,%r" % uv, *extra]


_CONTRACT_CASES = st.one_of(
    st.builds(_seed_case,
              st.sampled_from(["osculate", "verify", "dupin-lines",
                               "darboux"]),
              st.tuples(_FAR, _ANY) | st.tuples(_ANY, _FAR.map(lambda x: 2*x))),
    st.floats(1e-3, 1e300).map(lambda w: (
        _CANONICAL.format(1.0), ["intersect", "--grid", "32x32", "--window",
                                 repr(w)])),
    _ANY.map(lambda t1: (_CANONICAL.format(t1),
                         ["intersect", "--grid", "32x32"])),
    st.builds(lambda s, args: (_SCALED.format(s, -s), args),
              st.floats(-300.0, 110.0).map(lambda e: 10.0**e),
              st.sampled_from([["invariants", "--grid", "8x8"],
                               ["verify", "--seed", "0,0"],
                               ["osculate", "--seed", "0,0"]])))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(case=_CONTRACT_CASES)
@example(case=(_HELCAT, ["osculate", "--seed", "1000,0"]))
@example(case=(_BIG, ["invariants", "--grid", "9x9", "--range",
                      "-1e-120:1e-120,-1e-120:1e-120"]))
@example(case=(_BIG, ["verify", "--seed", "0,0"]))
@example(case=(_BIG, ["osculate", "--seed", "0,0"]))
@example(case=(_CANONICAL.format(1.0), ["intersect", "--window", "1e200"]))
@example(case=(_CANONICAL.format(1e308), ["intersect"]))
def test_extreme_finite_inputs_keep_the_error_contract(runner, specs, case):
    # exit 0, or 2 or 3 with one JSON error record on stderr: a float
    # overflow is a typed error, never a traceback (exit 1)
    text, args = case
    path = (Path(specs["helcat"]).parent
            / f"{hashlib.sha1(text.encode()).hexdigest()}.spec")
    path.write_text(text)
    res = runner.invoke(main, [*args, "--surface", str(path)])
    assert res.exit_code in (0, 2, 3), (args, text, res.exception)
    if res.exit_code:
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}


# at u = 0 on this canonical graph the complex steps overflow to NaN thetas
# where the frame is defined (every other point reads DegenerateMetric): a
# NaN theta is ScaleOverflow, never a class; an empty tube curve, a
# repeated graph monomial, a spec key given twice or not read by its kind
# and a graph exponent above 64 are spec errors (exit 2) before any jet is
# evaluated, not an IndexError traceback, a silently replaced weight or
# value, a silently ignored key, or jets that build 1e5 powers each (19 ms
# a jet), and the message names the monomial or the key
_NAN_THETAS = _CANONICAL.format(1e308)
_HUGE_EXPONENT = "kind = graph\ncoeffs = 100000 0 1; 2 0 0.5; 0 2 -0.5\n"
_OSCULATE = ["osculate", "--seed", "0.1,0.2"]


@pytest.mark.parametrize("text,args,code,error,needle", [
    (_NAN_THETAS, ["classify", "--grid", "9x9"], 0, None, None),
    (_NAN_THETAS, ["dupin-lines", "--seed", "0,0", *_SHORT], 3,
     "ScaleOverflow", None),
    (_NAN_THETAS, ["darboux", "--seed", "0,0", "--alpha0", "0.5", *_SHORT],
     3, "ScaleOverflow", None),
    (_NAN_THETAS, ["darboux", "--seed", "0,0", *_SHORT], 3, "ScaleOverflow",
     None),
    ("kind = tube\ncurve =\nradius = 0.3\n", ["classify", "--grid", "8x8"],
     2, "ValueError", None),
    ("kind = graph\ncoeffs = 2 0 1; 2 0 3\n", ["classify", "--grid", "8x8"],
     2, "ValueError", "x^2 y^0"),
    ("kind = torus\nR = 2\nr = 1\nR = 3\n", _OSCULATE, 2, "ValueError",
     "'R'"),
    ("kind = sphere\nraduis = 0.5\n", _OSCULATE, 2, "ValueError",
     "'raduis'"),
    (_HUGE_EXPONENT, _OSCULATE, 2, "ValueError", "x^100000 y^0"),
    # a key the kind needs: named with the kind, not a bare KeyError
    ("kind = helcat\n", _OSCULATE, 2, "ValueError",
     "'alpha_h' is missing: kind helcat"),
    ("kind = torus\nR = 2\n", _OSCULATE, 2, "ValueError",
     "'r' is missing: kind torus"),
    ("kind = tube\ncurve = circle 2\n", _OSCULATE, 2, "ValueError",
     "'radius' is missing: kind tube"),
    ("kind = graph\n", _OSCULATE, 2, "ValueError",
     "'coeffs' is missing: kind graph"),
    ("kind = canonical\n", _OSCULATE, 2, "ValueError",
     "'coeffs' is missing: kind canonical"),
], ids=["nan-thetas-classify", "nan-thetas-dupin", "nan-thetas-darboux",
        "nan-thetas-dupin-angle", "tube-empty-curve", "graph-repeat",
        "spec-repeated-key", "spec-unknown-key", "graph-exponent",
        "missing-helcat", "missing-torus", "missing-tube", "missing-graph",
        "missing-canonical"])
def test_nan_thetas_and_bad_specs_keep_the_error_contract(
        runner, tmp_path, monkeypatch, text, args, code, error, needle):
    jets = []
    init = SurfacePatch.__init__

    def counted(self, domain, jet_fn):
        def jet(u, v):
            jets.append((u, v))
            return jet_fn(u, v)
        init(self, domain, jet)

    monkeypatch.setattr(SurfacePatch, "__init__", counted)
    spec = tmp_path / "case.spec"
    spec.write_text(text)
    res = runner.invoke(main, [*args, "--surface", str(spec)])
    assert res.exit_code == code, (res.exception, res.stderr)
    assert (jets == []) == (code == 2)
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    if error is None:
        assert res.stderr == ""
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "u,v,class" and len(lines) == 82
        rows = [row.split(",") for row in lines[1:]]
        assert {c for u, _, c in rows if u == "0"} == {"ScaleOverflow"}
        assert {c for u, _, c in rows if u != "0"} == {"DegenerateMetric"}
        return
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == error
    if needle is not None:
        assert needle in record["message"]


def test_sphere_spec_radius_is_optional(tmp_path):
    # the one key a kind reads but does not need: a sphere without it is
    # the unit sphere
    spec = tmp_path / "sphere.spec"
    spec.write_text("kind = sphere\n")
    assert load_surface_spec(str(spec)).params == {"radius": 1.0}


# each option a command takes has a caller that sets it; a tolerance that
# every caller leaves at its default is a module constant, not a flag
_OPTIONS = {
    "invariants": ["--format", "--grid", "--out", "--range", "--surface"],
    "classify": ["--format", "--grid", "--out", "--range", "--surface"],
    "osculate": ["--format", "--out", "--seed", "--surface"],
    "dupin-lines": ["--format", "--max-length", "--out", "--seed", "--step",
                    "--surface"],
    "darboux": ["--alpha0", "--format", "--max-length", "--orient", "--out",
                "--seed", "--step", "--surface"],
    "intersect": ["--format", "--grid", "--out", "--psi-c", "--surface",
                  "--window"],
    "prescribe": ["--grid", "--out", "--surface"],
    "verify": ["--format", "--out", "--seed", "--surface"],
    "table1": ["--format", "--out"],
}


def test_command_options_are_pinned():
    assert {name: sorted(o for p in cmd.params for o in p.opts)
            for name, cmd in main.commands.items()} == _OPTIONS


@pytest.mark.parametrize("command,spec,flag", [
    (["invariants", "--grid", "8x8"], "helcat", ["--tol-canal", "1e-3"]),
    (["classify", "--grid", "8x8"], "helcat", ["--tol-canal", "1e-3"]),
    (["verify", "--seed", "0.5,1.2"], "tube", ["--tol-xcheck", "1e-3"]),
], ids=["invariants", "classify", "verify"])
def test_removed_tolerance_flags_exit_2(runner, specs, command, spec, flag):
    res = runner.invoke(main, [*command, "--surface", specs[spec], *flag])
    assert res.exit_code == 2
    assert "No such option" in res.output


# --------------------------------------------------------------------------
# the writer
# --------------------------------------------------------------------------
def _reference_text(rows, header, fmt, meta):
    """The text of ``_emit`` as a per-value join of ``_fmt`` (csv) and one
    ``json.dumps`` of the whole report (json) give it."""
    from conformal import __version__
    from conformal.cli import _fmt
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(x) for x in row) for row in rows]
        return "\n".join(lines) + "\n"

    def number(x):
        return isinstance(x, (int, float, np.integer, np.floating)) \
            and not isinstance(x, (bool, np.bool_))

    payload = {"version": __version__, "config": meta,
               "header": list(header),
               "rows": [[None if (c := _fmt(x)) == "" else
                         (float("%.12g" % x) if number(x) else c)
                         for x in row] for row in rows]}
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


# one column per kind of cell the commands write, and one that mixes them
_WRITER_COLUMNS = {
    "float": [0.5, None, float("nan"), float("inf"), -float("inf"), -0.0,
              1e-300, 12345678901234.5],
    "float64": [np.float64(x) for x in (1/3, -0.0, 2.5e-17, 7.0,
                                        float("nan"), float("-inf"), 1e15,
                                        -123.456)],
    "float_and_float64": [1/3, np.float64(2/3), None, 1.0, np.float64(-0.0),
                          float("inf"), np.float64(float("nan")), 1e21],
    "int": [0, -3, 10**12, 7, 123456789012345, 1, 2, 3],
    "int64": [np.int64(x) for x in (10**13, 0, -5, 999999999999, 10**12,
                                    4, 5, 6)],
    "int_and_none": [1, None, 10**12, np.int64(3), None, 0, -1, 2],
    "str": ['a "q"', "x,y", "na\u00efve \u2192", "", "nan", "Generic",
            "back\\slash", "tab\there"],
    "bool": [True, False, True, True, False, False, True, False],
    "bool_": [np.bool_(True), np.bool_(False)]*4,
    "mixed": [None, 1, 2.5, "s", True, np.bool_(False), np.float32(0.1),
              np.int32(4)],
}
_DARBOUX_META = {"surface": "helcat.spec", "seeds": ["0.4,0.3", "-0.05,1"],
                 "alpha0": None, "step": 0.005, "max_length": 1.0,
                 "criticals_header": ["curve_id", "index", "u"],
                 "criticals": [["0", "40", "-7.01003153908e-11"],
                               ["1", "", "true"]],
                 "rows": None, "nested": {"rows": [], "k": [[1, [2.5]]]}}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows,meta", [
    ([list(r) for r in zip(*_WRITER_COLUMNS.values())], {"grid": "8x8"}),
    ([], {"seeds": []}),
    ([[1.5, "Generic"]], {}),
    ([list(r) for r in zip(*_WRITER_COLUMNS.values())], _DARBOUX_META),
], ids=["every-kind", "no-rows", "one-row", "darboux-meta"])
def test_emit_matches_reference(tmp_path, fmt, rows, meta):
    from conformal.cli import _emit
    header = (list(_WRITER_COLUMNS) if not rows or len(rows[0]) > 2
              else ["x", "class"])
    out = tmp_path / f"out.{fmt}"
    _emit(rows, header, str(out), fmt, meta)
    assert out.read_text() == _reference_text(rows, header, fmt, meta)


@pytest.mark.parametrize("command,spec", [
    (["invariants", "--grid", "8x8"], "helcat"),
    (["classify", "--grid", "8x8"], "helcat"),
    (["osculate", "--seed", "0.7,0.4"], "helcat"),
    (["dupin-lines", "--seed", "0.5,1.2", "--max-length", "0.1"], "tube"),
    (["darboux", "--seed", "-0.05,0.3", "--orient", "-1", "--max-length",
      "0.1"], "helcat"),
    (["verify", "--seed", "0.5,1.2"], "tube"),
], ids=["invariants", "classify", "osculate", "dupin-lines", "darboux",
        "verify"])
def test_jets_see_python_scalars(runner, specs, monkeypatch, command, spec):
    # coordinates become Python floats where they enter the pointwise
    # layer, so no jet, neighbour offset or complex step runs numpy-scalar
    # arithmetic
    from conformal.surfaces import SurfacePatch
    kinds = set()
    jet_raw = SurfacePatch.jet_raw

    def recording(self, u, v):
        kinds.update((type(u), type(v)))
        return jet_raw(self, u, v)

    monkeypatch.setattr(SurfacePatch, "jet_raw", recording)
    res = runner.invoke(main, [*command, "--surface", specs[spec]])
    assert res.exit_code == 0
    assert kinds and kinds <= {float, complex}

"""Every ``cycl`` command once, on small inputs, and two Mobius maps with an
inversion, on an install of the declared runtime alone (numpy and click).

    pip install -e . && python .github/runtime_smoke.py

It fails if scipy or sympy can be imported (the install is not the bare
runtime), if a command exits non-zero or writes nothing, if a JSON report
does not parse or has no rows or a row narrower or wider than its header
(the writer assembles the rows' JSON text itself), if a ``prescribe``
report does not read realizable (the helcat data comes from a real
surface, at 769 points a side too, the benchmark's size) or does not read
``psi_masked_fraction`` 1 and both ``structural_3`` and ``structural_4``
max-norms masked (helcat is isothermic, so psi's genericity denominator
vanishes, and the pipeline skips the arithmetic that is NaN there), if
helcat's
``osculate`` rows do not read contact order 4 (at a generic seed and at one
on the Dupin locus, the latter ``limit_derived``), or if anything loaded
either of them.  It also runs ``cycl osculate`` in a child process
on a graph of slope 1e100, whose metric scale squared overflows a float,
on the unit sphere, where every point is umbilic, and on helcat at
(1000, 0), far outside its domain, and ``cycl intersect --window 1e200``
on the canonical spec, whose window^4 overflows a float, and ``cycl
dupin-lines`` at (0, 0) on a canonical spec of leading weight 1e308, where
the thetas come out NaN; it fails unless each exits 3 with a JSON record
naming ``DegenerateMetric``, ``UmbilicPoint``, ``OutOfDomain``,
``WindowTooLarge`` and ``ScaleOverflow`` and no traceback.  ``cycl
classify`` on a tube spec with an empty curve, and ``cycl osculate`` on a
torus spec that gives ``R`` twice, on a sphere spec with a key its kind
does not read, on a helcat spec without ``alpha_h`` and on a graph with
an x^100000 term must each exit 2 with a ``ValueError`` record naming the
key or the monomial.  The torus
``invariants`` JSON sweep
must read Dupin with psi = -1 and a..d = (3, 0, 0, -3) (each to 1e-6) on
every row off the domain's edge, and BoundaryTooClose on every other.  The
64x64 ``intersect`` JSON on the canonical spec must read 2 components, the
origin on component 0 and not degenerate.  A
torus moved by a translated inversion must give a jet of 18 Python floats
whose r is the base position translated and inverted by hand (to 1e-12),
an inversion centered on a torus point must raise
``InversionCenterOnSurface``, and the acceptance battery's
orientation-preserving inversion (translation, inversion, reflection) must
keep psi on helcat pi/4 at (0.8, 0.5) to 1e-6.
"""
import importlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HEAVY = ("scipy", "sympy")

for name in HEAVY:
    try:
        importlib.import_module(name)
    except ImportError:
        continue
    sys.exit(f"{name} is importable: install without extras to run this")

from conformal.catalog import make_helcat, make_torus
from conformal.cli import main
from conformal.errors import InversionCenterOnSurface
from conformal.invariants import psi_invariant
from conformal.surfaces import MobiusMap, mobius_transform

SPECS = {
    "helcat": "kind = helcat\nalpha_h = 0.7853981633974483\n",
    "tube": "kind = tube\ncurve = helix 2.0 0.5\nradius = 0.35\n",
    "torus": "kind = torus\nR = 2\nr = 1\n",
    "canonical": ("kind = canonical\n"
                  "coeffs = 1, 2, 0, 3.5, 0.25, -0.5, -3.25\n"),
    "steep": "kind = graph\ncoeffs = 1 0 1e100; 2 0 0.5; 0 2 -0.5\n",
    "sphere": "kind = sphere\nradius = 1.0\n",
    "nan-thetas": ("kind = canonical\n"
                   "coeffs = 1e308, 2, 0, 3.5, 0.25, -0.5, -3.25\n"),
    "no-curve": "kind = tube\ncurve =\nradius = 0.3\n",
    "repeated-key": "kind = torus\nR = 2\nr = 1\nR = 3\n",
    "unknown-key": "kind = sphere\nraduis = 0.5\n",
    "huge-exponent": "kind = graph\ncoeffs = 100000 0 1; 2 0 0.5; 0 2 -0.5\n",
    "missing-key": "kind = helcat\n",
}
COMMANDS = [
    (["table1"], None),
    (["invariants", "--grid", "8x8"], "torus"),
    (["classify", "--grid", "8x8"], "helcat"),
    # a generic seed and one on the Dupin locus, where the direction is
    # the thetas' transversal limit
    (["osculate", "--seed", "0.7,0.4", "--seed", "0.0,0.3", "--format",
      "json"], "helcat"),
    (["dupin-lines", "--seed", "0.5,1.2"], "tube"),
    (["darboux", "--seed", "0.4,0.3", "--max-length", "0.05"], "helcat"),
    (["verify", "--seed", "0.5,1.2"], "tube"),
    (["intersect", "--grid", "64x64"], "canonical"),
    (["invariants", "--grid", "8x8", "--format", "json"], "torus"),
    (["darboux", "--seed", "0.4,0.3", "--max-length", "0.05", "--format",
      "json"], "helcat"),
    (["intersect", "--grid", "64x64", "--format", "json"], "canonical"),
    (["prescribe", "--grid", "65x65"], "helcat"),
    # more rows than one block of the prescribe pipeline holds
    (["prescribe", "--grid", "257x257"], "helcat"),
    # the benchmark's size; its last block is shorter than the halo
    (["prescribe", "--grid", "769x769"], "helcat"),
]

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    for name, text in SPECS.items():
        (tmp / f"{name}.spec").write_text(text)
    for i, (args, spec) in enumerate(COMMANDS):
        out = tmp / f"{i}-{args[0]}.out"
        surface = ([] if spec is None
                   else ["--surface", str(tmp / f"{spec}.spec")])
        code = 0
        try:
            main([*args, *surface, "--out", str(out)], prog_name="cycl")
        except SystemExit as exc:
            code = exc.code
        if code != 0 or not out.exists() or out.stat().st_size == 0:
            sys.exit(f"cycl {' '.join(args)}: exit {code}")
        if "json" in args:
            report = json.loads(out.read_text())
            width = len(report["header"])
            if not report["rows"] or any(len(row) != width
                                         for row in report["rows"]):
                sys.exit(f"cycl {' '.join(args)}: rows not {width} wide")
        if args[0] == "osculate":
            report = json.loads(out.read_text())
            col = {name: i for i, name in enumerate(report["header"])}
            got = [(row[col["contact_order"]], row[col["limit_derived"]])
                   for row in report["rows"]]
            if got != [(4, "false"), (4, "true")]:
                sys.exit(f"cycl {' '.join(args)}: (contact_order, "
                         f"limit_derived) {got}")
        if args[0] == "invariants" and "json" in args:
            # the torus is a Dupin cyclide: psi = 4 r^2/R^2 - 2 = -1 and
            # a..d = (3, 0, 0, -3) at every point off the domain's edge
            report = json.loads(out.read_text())
            col = {name: i for i, name in enumerate(report["header"])}
            want = {"psi": -1.0, "a": 3.0, "b": 0.0, "c": 0.0, "d": -3.0}
            for row in report["rows"]:
                cls = row[col["class"]]
                if row[col["psi"]] is None:
                    ok = cls == "BoundaryTooClose"
                else:
                    ok = cls == "Dupin" and all(
                        abs(row[col[k]] - w) <= 1e-6 for k, w in want.items())
                if not ok:
                    sys.exit(f"cycl {' '.join(args)}: row {row}, want Dupin "
                             f"with {want} or BoundaryTooClose")
        if args[0] == "intersect" and "json" in args:
            got = {k: json.loads(out.read_text())["config"][k] for k in (
                "component_count", "origin_component_index", "degenerate")}
            want = {"component_count": 2, "origin_component_index": 0,
                    "degenerate": False}
            if got != want:
                sys.exit(f"cycl {' '.join(args)}: {got}, want {want}")
        if args[0] == "prescribe":
            report = json.loads(out.read_text())
            if report["realizable"] is not True:
                sys.exit(f"cycl {' '.join(args)}: not realizable, max-norms "
                         f"{report['max_norm']}")
            masked = (report["extra"]["psi_masked_fraction"],
                      report["max_norm"]["structural_3"],
                      report["max_norm"]["structural_4"])
            if masked != ("1", "", ""):
                sys.exit(f"cycl {' '.join(args)}: psi_masked_fraction and "
                         f"structural_3/4 max-norms {masked}, want "
                         "('1', '', '')")
        print(f"cycl {' '.join(args)}: ok")
    for args, spec, code, error, *needle in [
            (["osculate", "--seed", "0.1,0.1"], "steep", 3,
             "DegenerateMetric"),
            (["osculate", "--seed", "0.1,0.2"], "sphere", 3, "UmbilicPoint"),
            (["osculate", "--seed", "1000,0"], "helcat", 3, "OutOfDomain"),
            (["intersect", "--window", "1e200"], "canonical", 3,
             "WindowTooLarge"),
            (["dupin-lines", "--seed", "0,0", "--max-length", "0.05"],
             "nan-thetas", 3, "ScaleOverflow"),
            (["classify", "--grid", "8x8"], "no-curve", 2, "ValueError"),
            (["osculate", "--seed", "0.1,0.2"], "repeated-key", 2,
             "ValueError", "'R'"),
            (["osculate", "--seed", "0.1,0.2"], "unknown-key", 2,
             "ValueError", "'raduis'"),
            (["osculate", "--seed", "0.1,0.2"], "missing-key", 2,
             "ValueError", "'alpha_h' is missing: kind helcat"),
            (["osculate", "--seed", "0.1,0.2"], "huge-exponent", 2,
             "ValueError", "x^100000 y^0")]:
        cmd = [sys.executable, "-m", "conformal.cli", *args, "--surface",
               str(tmp / f"{spec}.spec")]
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
        lines = done.stderr.strip().splitlines()
        record = json.loads(lines[-1]) if len(lines) == 1 else {}
        if (done.returncode != code or record.get("error") != error
                or not all(n in record["message"] for n in needle)):
            sys.exit(f"cycl {' '.join(args)} on {spec}: exit "
                     f"{done.returncode}, stderr {done.stderr!r}")
        print(f"cycl {' '.join(args)} on {spec}: {error}, ok")

inversion = MobiusMap.translation([0.0, 0.0, 5.0]).then(MobiusMap.inversion())
torus = make_torus(2.0, 1.0).surface
moved = mobius_transform(torus, inversion)
jet = moved.jet_raw(0.3, 0.4)
if len(jet) != 18 or any(type(x) is not float for x in jet):
    sys.exit(f"moved jet: {[type(x).__name__ for x in jet]}, want 18 floats")
p = torus.point(0.3, 0.4)
x, y, z = p[0], p[1], p[2] + 5.0
n = x*x + y*y + z*z
gap = max(abs(a - b) for a, b in zip(jet[:3], (x/n, y/n, z/n)))
if not gap <= 1e-12:
    sys.exit(f"moved r(0.3, 0.4) is {gap:g} off the mapped position")
print(f"mobius_transform with an inversion: ok, r(0.3, 0.4) = "
      f"{moved.point(0.3, 0.4)}")
try:
    mobius_transform(torus, MobiusMap.translation([-t for t in p]).then(
        MobiusMap.inversion()))
except InversionCenterOnSurface:
    print("inversion centered on the torus: InversionCenterOnSurface, ok")
else:
    sys.exit("an inversion centered on a torus point was accepted")
battery = (MobiusMap.translation([2.5, -1.0, 4.0])
           .then(MobiusMap.inversion())
           .then(MobiusMap.rotation([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                     [0.0, 0.0, -1.0]])))
helcat = make_helcat(0.7853981633974483).surface
gap = abs(psi_invariant(mobius_transform(helcat, battery), 0.8, 0.5)
          - psi_invariant(helcat, 0.8, 0.5))
if not gap <= 1e-6:
    sys.exit(f"psi on helcat pi/4 at (0.8, 0.5) moved by {gap:g} under the "
             "translated inversion")
print(f"psi under the translated inversion: ok, moved by {gap:.1e}")

loaded = sorted(m for m in sys.modules if m.split(".")[0] in HEAVY)
if loaded:
    sys.exit(f"loaded {loaded}")
print("neither scipy nor sympy was loaded")

"""The two workloads: seeded inputs, the timed commands, and the checks.

Each workload function writes its spec files into the run's temporary
directory, draws its seeded inputs, and returns its command list and a
check.  A command is one invocation, through the ``cycl`` entry point in
process, from argument parsing to the written output file, so spec loading
and patch compilation are inside the timed span.  The run calls the whole
list once per round, each round writing into its own directory; the check
reads one round's outputs, after the timed phase.

Why these workloads (the layers each one loads, and what they should show):

* ``jets``: everything that evaluates surface jets.  Many independent
  points on one compiled helicoid-catenoid patch (``invariants``,
  ``classify``, ``osculate``), the nine compilations of ``table1``, line
  traces that take one point at a time, each step depending on the last
  (``dupin-lines`` and ``verify`` on a helix tube, ``darboux`` on the
  family), and the Mobius similarity maps applied to a torus.
* ``planar``: numpy/scipy grid work without jets (``intersect`` marching
  squares, the ``prescribe`` pipeline).  Jet-side changes should not move
  it.
"""
from __future__ import annotations

import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import (Checks, check_classify, check_darboux, check_dupin,
                    check_intersect, check_invariants, check_mobius,
                    check_osculate, check_prescribe, check_table1,
                    check_verify)

HELCAT_ALPHA = math.pi/4
GRID_RANGE = "-2.5:2.5,-6:6"           # the family-oracle test range
# tube of radius 0.35 around the helix (A cos u, A sin u, B u)
TUBE_A, TUBE_B, TUBE_RADIUS = 2.0, 0.5, 0.35
# The acceptance-test seeds on the tube.  Dupin lines start from the first:
# from about one random seed in 25 the trace stalls on the Dupin locus and
# does not close.  The tube is helically symmetric, so verify keeps their v
# and draws u; near |v| = 1.42 the two psi paths disagree beyond 1e-2.
TUBE_SEEDS = ((0.5, 1.2), (1.5, 2.5), (-2.0, 0.7))
CANONICAL = (1.0, 2.0, 0.0, 3.5, 0.25, -0.5, -3.25)
PC0 = 0.2409225992051419               # osculating psi_c of CANONICAL

# work per round
SWEEP_GRID = "13x13"
OSCULATE_SEEDS = 24
DUPIN_SEEDS = 1
DARBOUX_SEEDS = 2
VERIFY_SEEDS = 3
MOBIUS_POINTS = 3
INTERSECT_GRID = 256
INTERSECT_SEEDED = 1
PRESCRIBE_GRIDS = (513, 769)    # realizable; 1025 is not, at the default
                                # tolerance


@dataclass
class Run:
    """State of one benchmark run: where it writes, what it timed."""
    workload: str
    seed: int
    tmp: Path
    tracer: object = None
    # (name, wall s, exit code, round, reference s)
    commands: list = field(default_factory=list)
    round: int = 0
    inputs: dict = field(default_factory=dict)
    checks: Checks = field(default_factory=Checks)

    def path(self, name) -> str:
        return str(self.tmp / name)

    def spec(self, name, **kv) -> str:
        path = self.path(name)
        with open(path, "w") as fh:
            for key, val in kv.items():
                fh.write(f"{key} = {val}\n")
        return path

    def record(self, **inputs):
        """Keep the drawn inputs, and write them beside the spec files."""
        self.inputs.update(inputs)
        with open(self.path("inputs.json"), "w") as fh:
            json.dump({"workload": self.workload, "seed": self.seed,
                       "inputs": self.inputs}, fh, indent=1)

    def timed(self, name, fn):
        """Time ``fn()`` as one invocation of command ``name``; with a
        tracer, the invocation is a root span."""
        if self.tracer is not None:
            fn = self.tracer.wrap(f"cmd.{name}", fn)
        t0 = time.perf_counter()
        code = _call(fn)
        self.commands.append((name, time.perf_counter() - t0, code,
                              self.round, None))
        return code


def cycl(args):
    """One ``cycl`` invocation, as a callable."""
    def call():
        from conformal.cli import main
        main.main(args=args, standalone_mode=False, prog_name="cycl")
    return call


def _call(fn) -> int:
    """Exit code of one invocation; a failure is recorded, not raised, so
    the run still checks and reports everything else."""
    import click
    try:
        fn()
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except Exception:
        traceback.print_exc()
        return 1
    return 0


def _seed_args(points):
    args = []
    for u, v in points:
        args += ["--seed", f"{float(u)!r},{float(v)!r}"]
    return args


# --------------------------------------------------------------------------
# jets
# --------------------------------------------------------------------------
def jets(run: Run, rng: np.random.Generator):
    helcat = run.spec("helcat.spec", kind="helcat",
                      alpha_h=repr(HELCAT_ALPHA))
    tube = run.spec("tube.spec", kind="tube",
                    curve=f"helix {TUBE_A!r} {TUBE_B!r}",
                    radius=repr(TUBE_RADIUS))
    osc = []
    while len(osc) < OSCULATE_SEEDS:
        u, v = rng.uniform(-2.0, 2.0), rng.uniform(-5.0, 5.0)
        if abs(math.sinh(u)) > 0.2:      # generic points, as in the tests
            osc.append((u, v))
    dupin = list(TUBE_SEEDS[:DUPIN_SEEDS])
    verify = [(rng.uniform(-3.0, 3.0), TUBE_SEEDS[k % 3][1])
              for k in range(VERIFY_SEEDS)]
    darboux = [(-0.05, v0) for v0 in rng.uniform(-2.0, 2.5, DARBOUX_SEEDS)]
    mob = [tuple(p) for p in rng.uniform(-3.0, 3.0, (MOBIUS_POINTS, 2))]
    run.record(osculate=osc, dupin=dupin, verify=verify, darboux=darboux,
               mobius=mob)
    grid = ["--grid", SWEEP_GRID, "--range", GRID_RANGE]

    def commands(out: Path):
        return [
            ("invariants", cycl(["invariants", "--surface", helcat, *grid,
                                 "--out", str(out/"invariants.csv")])),
            ("classify", cycl(["classify", "--surface", helcat, *grid,
                               "--out", str(out/"classify.csv")])),
            ("osculate", cycl(["osculate", "--surface", helcat,
                               *_seed_args(osc),
                               "--out", str(out/"osculate.csv")])),
            ("table1", cycl(["table1", "--out", str(out/"table1.csv")])),
            ("dupin_lines", cycl(["dupin-lines", "--surface", tube,
                                  *_seed_args(dupin),
                                  "--out", str(out/"dupin.csv")])),
            # the first critical of a Darboux line from s = -0.05 lies on
            # the Dupin locus s = 0 in the negative orientation (the
            # acceptance test tries +1 first and finds none there)
            ("darboux", cycl(["darboux", "--surface", helcat,
                              *_seed_args(darboux), "--max-length", "1.0",
                              "--orient", "-1", "--format", "json",
                              "--out", str(out/"darboux.json")])),
            ("verify", cycl(["verify", "--surface", tube,
                             *_seed_args(verify),
                             "--out", str(out/"verify.csv")])),
            ("mobius", lambda: mobius_values(mob, out/"mobius.json")),
        ]

    def check(out: Path, c: Checks) -> float:
        check_invariants(out/"invariants.csv", HELCAT_ALPHA, c)
        check_classify(out/"classify.csv", c)
        check_osculate(out/"osculate.csv", len(osc), c)
        check_table1(out/"table1.csv", c)
        check_dupin(out/"dupin.csv", len(dupin), TUBE_RADIUS, c)
        check_darboux(out/"darboux.json", len(darboux), c)
        check_verify(out/"verify.csv", len(verify), c)
        check_mobius(out/"mobius.json", len(mobius_maps()), c)
        return 0.0
    return commands, check


def mobius_maps():
    """The orientation-preserving similarity maps of the acceptance test.
    Its translated inversion is left out: its one sympy re-compile takes
    longer than a round of everything else."""
    from conformal.surfaces import MobiusMap
    rot1 = MobiusMap.rotation(np.array(
        [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    cs = np.cos(0.4), np.sin(0.4)
    rot2 = MobiusMap.rotation(np.array(
        [[1.0, 0.0, 0.0], [0.0, cs[0], -cs[1]], [0.0, cs[1], cs[0]]]))
    return [rot1, rot2, MobiusMap.translation([1.5, -2.0, 0.7]),
            MobiusMap.dilation(3.0), MobiusMap.dilation(1.0/3.0)]


def mobius_values(pts, path):
    """theta1, theta2, psi at ``pts`` on torus(2, 1) and on its image under
    each map, written to ``path``: a library call, as no command applies a
    Mobius map."""
    from conformal import catalog, invariants, surfaces

    def values(surface):
        out = []
        for u, v in pts:
            t1, t2, *_ = invariants.theta_state(surface, u, v)
            out.append((float(t1), float(t2),
                        float(invariants.psi_invariant(surface, u, v))))
        return out

    with np.errstate(all="ignore"):
        torus = catalog.make_torus(2.0, 1.0).surface
        base = values(torus)
        moved = [(bool(m.orientation_preserving),
                  values(surfaces.mobius_transform(torus, m)))
                 for m in mobius_maps()]
    with open(path, "w") as fh:
        json.dump({"base": base, "moved": moved}, fh)


# --------------------------------------------------------------------------
# planar
# --------------------------------------------------------------------------
def planar(run: Run, rng: np.random.Generator):
    canon = run.spec("canonical.spec", kind="canonical",
                     coeffs=", ".join(repr(x) for x in CANONICAL))
    helcat = run.spec("helcat.spec", kind="helcat",
                      alpha_h=repr(HELCAT_ALPHA))
    n = INTERSECT_GRID
    # the acceptance test's three cyclides plus seeded ones from the same
    # pencil (their counts matched the oracle on 40 random draws)
    pcs = [PC0, PC0 + 4.0, PC0 - 4.0] + list(
        PC0 + rng.uniform(-6.0, 6.0, INTERSECT_SEEDED))
    run.record(psi_c=pcs)

    def commands(out: Path):
        cmds = [("intersect", cycl(["intersect", "--surface", canon,
                                    "--psi-c", repr(float(pc)),
                                    "--grid", f"{n}x{n}", "--format", "json",
                                    "--out", str(out/f"intersect{k}.json")]))
                for k, pc in enumerate(pcs)]
        cmds += [("prescribe", cycl(["prescribe", "--surface", helcat,
                                     "--grid", f"{m}x{m}",
                                     "--out", str(out/f"prescribe{m}.json")]))
                 for m in PRESCRIBE_GRIDS]
        return cmds

    def check(out: Path, c: Checks) -> float:
        oracle_s = 0.0
        for k in range(len(pcs)):
            oracle_s += check_intersect(out/f"intersect{k}.json", CANONICAL,
                                        c)
        for m in PRESCRIBE_GRIDS:
            check_prescribe(out/f"prescribe{m}.json", c)
        return oracle_s
    return commands, check


WORKLOADS = {"jets": jets, "planar": planar}


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------
def command_medians(run: Run, ref_s) -> dict:
    """Per command, the median over rounds of its time in one round (a
    command called several times in a round counts with their sum).  With
    ``ref_s``, each invocation's time is normalized to the speed at which
    the reference loop takes ``ref_s``; with None it is wall time."""
    per = {}
    for name, sec, _, rnd, ref in run.commands:
        if ref_s is not None:
            sec *= ref_s/ref
        rounds = per.setdefault(name, {})
        rounds[rnd] = rounds.get(rnd, 0.0) + sec
    return {name: float(np.median(list(rounds.values())))
            for name, rounds in per.items()}


def end_to_end(run: Run, setup_samples, peak_rss_mb, ref_s) -> dict:
    """End-to-end metrics; ``setup_samples`` are normalized already."""
    times = list(command_medians(run, ref_s).values())
    c = run.checks
    return {
        "setup_s": (float(np.median(setup_samples)), "s"),
        "total_s": (sum(times), "s"),
        "cmd_geomean_s": (math.exp(sum(map(math.log, times))/len(times)),
                          "s"),
        "pass_frac": ((c.attempted - c.failed)/c.attempted, "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(stats, gaps, oracle_s, traced_total_s,
              untraced_total_s) -> dict:
    """Per-layer metrics from the span statistics of one traced round;
    ``gaps`` are the largest oracle gaps the checks saw."""
    def ratio(a, b):
        return a/b if b else 0.0

    g = gaps
    tot, slf, calls, jets = stats.total_s, stats.self_s, stats.calls, \
        stats.jets
    s_calls, s_jets = stats.jets_where("invariants.invariant_sample",
                                       lambda x: x == 1)
    c_calls, c_jets = stats.jets_where("invariants.invariant_sample",
                                       lambda x: x == 0)
    # generic points; a limit-derived cyclide (theta1 = theta2 = 0, as at
    # table1's s = 0 cells) also differences the transversal limit
    o_calls, o_jets = stats.jets_where("osculation.osculating_cyclide",
                                       lambda x: x == 0)
    traces = ("linefields.integrate_dupin_line",
              "linefields.integrate_darboux_line")
    steps = sum(sum(stats.extra[n]) for n in traces)
    return {
        "cli.spec_load_s": (tot["cli.spec_load"], "s"),
        "cli.emit_s": (tot["cli.emit"], "s"),
        "catalog.make_helcat_s": (tot["catalog.make_helcat"], "s"),
        "catalog.make_tube_s": (tot["catalog.make_tube"], "s"),
        "catalog.make_canonical_s": (tot["catalog.make_canonical"], "s"),
        "catalog.make_torus_s": (tot["catalog.make_torus"], "s"),
        "surfaces.jet_calls": (calls["surfaces.jet_raw"], "count"),
        "surfaces.jet_points": (sum(stats.extra["surfaces.jet_raw"]),
                                "count"),
        "surfaces.jet_self_s": (slf["surfaces.jet_raw"], "s"),
        "surfaces.shape_data_self_s": (slf["surfaces.shape_data"], "s"),
        "surfaces.mobius_transform_s": (tot["surfaces.mobius_transform"],
                                        "s"),
        "invariants.theta_state_calls": (calls["invariants.theta_state"],
                                         "count"),
        "invariants.theta_state_self_s": (slf["invariants.theta_state"],
                                          "s"),
        "invariants.jets_per_theta_state": (
            ratio(jets["invariants.theta_state"],
                  calls["invariants.theta_state"]), "ratio"),
        "invariants.invariant_sample_s": (tot["invariants.invariant_sample"],
                                          "s"),
        "invariants.sample_calls": (s_calls, "count"),
        "invariants.jets_per_sample": (ratio(s_jets, s_calls), "ratio"),
        "invariants.class_sample_calls": (c_calls, "count"),
        "invariants.jets_per_class_sample": (ratio(c_jets, c_calls),
                                             "ratio"),
        "invariants.psi_invariant_calls": (calls["invariants.psi_invariant"],
                                           "count"),
        "invariants.psi_invariant_s": (tot["invariants.psi_invariant"], "s"),
        "invariants.jets_per_psi": (
            ratio(jets["invariants.psi_invariant"],
                  calls["invariants.psi_invariant"]), "ratio"),
        "invariants.psi_from_thetas_s": (tot["invariants.psi_from_thetas"],
                                         "s"),
        "invariants.theta_gap_max": (g["theta"], "1"),
        "invariants.psi_gap_max": (g["psi"], "1"),
        "osculation.cyclide_calls": (o_calls, "count"),
        "osculation.cyclide_s": (tot["osculation.osculating_cyclide"], "s"),
        "osculation.jets_per_cyclide": (ratio(o_jets, o_calls), "ratio"),
        "osculation.table_gap_max": (g["table"], "1"),
        "linefields.dupin_trace_s": (tot["linefields.integrate_dupin_line"],
                                     "s"),
        "linefields.darboux_trace_s": (
            tot["linefields.integrate_darboux_line"], "s"),
        "linefields.steps": (steps, "count"),
        "linefields.theta_states_per_step": (
            ratio(stats.calls_below("invariants.theta_state", traces),
                  steps), "ratio"),
        "linefields.circle_radius_gap": (g["radius"], "1"),
        "intersect.trace_s": (tot["intersect.trace_cyclide_intersection"],
                              "s"),
        "intersect.edge_roots": (calls["intersect.brentq"], "count"),
        "intersect.segments": (sum(stats.extra["intersect.stitch"]),
                               "count"),
        "intersect.vertex_residual_max": (g["vertex"], "1"),
        "intersect.oracle_s": (oracle_s, "s"),
        "prescribe.pipeline_s": (tot["prescribe.prescribe"], "s"),
        "prescribe.helcat_grid_s": (tot["prescribe.helcat_grid"], "s"),
        "prescribe.worst_residual": (g["prescribe"], "1"),
        "trace.overhead_frac": (
            ratio(traced_total_s, untraced_total_s) - 1.0, "frac"),
    }

"""Tests of the benchmark itself: checks catch wrong values, spans account
for the traced time, times are taken per round and normalized by the speed
probe, and every metric named in BENCHMARK.json is emitted with its
unit."""
import csv
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import conformal.invariants  # noqa: E402
from checks import Checks, check_invariants  # noqa: E402
from run import SpeedProbe  # noqa: E402
from tracing import SpanStats, Tracer  # noqa: E402
from workloads import (HELCAT_ALPHA, Run, command_medians,  # noqa: E402
                       cycl, end_to_end, per_layer)


def _spec(tmp_path):
    path = tmp_path / "helcat.spec"
    path.write_text(f"kind = helcat\nalpha_h = {HELCAT_ALPHA!r}\n")
    return str(path)


def _grid(n):
    return ["--grid", f"{n}x{n}", "--range", "-1.5:1.5,-2:2"]


def test_perturbed_psi_row_counts_as_failed(tmp_path):
    run = Run(workload="jets", seed=0, tmp=tmp_path)
    out = run.path("inv.csv")
    assert run.timed("invariants", cycl(["invariants", "--surface",
                                         _spec(tmp_path), *_grid(8),
                                         "--out", out])) == 0
    good = Checks()
    check_invariants(out, HELCAT_ALPHA, good)
    assert good.attempted == 3*64 and good.failed == 0

    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[10]["psi"] = repr(float(rows[10]["psi"]) + 1e-3)
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    bad = Checks()
    check_invariants(out, HELCAT_ALPHA, bad)
    assert bad.failed == 1 and bad.failures[0].startswith("invariants.psi")
    assert bad.unexpected == bad.failures
    assert bad.gap["psi"] > 9e-4


def test_span_self_times_sum_to_traced_wall(tmp_path):
    original = conformal.invariants.theta_state
    tracer = Tracer(run_id="test")
    run = Run(workload="jets", seed=0, tmp=tmp_path, tracer=tracer)
    spec = _spec(tmp_path)
    tracer.install()
    try:
        run.timed("invariants", cycl(["invariants", "--surface", spec,
                                      *_grid(8), "--out", run.path("a.csv")]))
        run.timed("classify", cycl(["classify", "--surface", spec, *_grid(8),
                                    "--out", run.path("b.csv")]))
        run.timed("osculate", cycl(["osculate", "--surface", spec,
                                    "--seed", "0.8,0.5", "--seed", "-1.1,2.0",
                                    "--out", run.path("c.csv")]))
    finally:
        tracer.uninstall()
    assert conformal.invariants.theta_state is original
    assert all(code == 0 for _, _, code, _, _ in run.commands)

    stats = SpanStats(tracer.spans)
    wall = sum(sec for _, sec, _, _, _ in run.commands)
    self_total = sum(stats.self_s.values())
    assert self_total == pytest.approx(stats.root_s, rel=1e-9)
    assert 0.0 <= wall - self_total < 0.01*wall

    # jet evaluations per call at generic points
    assert stats.jets["invariants.theta_state"] == \
        3*stats.calls["invariants.theta_state"]
    assert stats.jets_where("invariants.invariant_sample",
                            lambda x: x == 1) == (64, 64*29)
    assert stats.jets_where("invariants.invariant_sample",
                            lambda x: x == 0) == (64, 64*16)
    assert stats.jets_where("osculation.osculating_cyclide",
                            lambda x: x == 0) == (2, 2*44)
    assert stats.jets["invariants.psi_invariant"] == 2*29


def _declared():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def test_every_metric_emitted_with_unit(tmp_path):
    e2e, layers = _declared()
    run = Run(workload="jets", seed=0, tmp=tmp_path,
              commands=[("invariants", 2.0, 0, 0, 0.05),
                        ("classify", 1.0, 0, 0, 0.05)])
    run.checks.add("ok", True)
    for got, want in ((end_to_end(run, [1.0, 1.2, 1.1], 100.0, 0.05), e2e),
                      (per_layer(SpanStats([]), run.checks.gap, 0.0, 2.0,
                                 2.5), layers)):
        assert {k: unit for k, (_, unit) in got.items()} == want
        assert all(isinstance(v, (int, float)) and math.isfinite(v)
                   for v, _ in got.values())


def test_command_medians_per_round(tmp_path):
    # a command called twice in a round counts with the sum of both calls;
    # normalized, a call made while the reference loop ran at twice its
    # reference time counts half its wall time
    run = Run(workload="planar", seed=0, tmp=tmp_path, commands=[
        ("intersect", 1.0, 0, 0, 1.0), ("intersect", 2.0, 0, 0, 1.0),
        ("prescribe", 5.0, 0, 0, 1.0),
        ("intersect", 1.5, 0, 1, 1.0), ("intersect", 4.0, 0, 1, 2.0),
        ("prescribe", 8.0, 0, 1, 2.0),
        ("intersect", 9.0, 0, 2, 1.0), ("intersect", 9.0, 0, 2, 1.0),
        ("prescribe", 4.5, 0, 2, 1.0)])
    assert command_medians(run, None) == {"intersect": 5.5,
                                          "prescribe": 5.0}
    assert command_medians(run, 1.0) == {"intersect": 3.5, "prescribe": 4.5}
    run.checks.add("ok", True)
    assert end_to_end(run, [1.0], 100.0, 1.0)["total_s"] == (8.0, "s")


def test_speed_probe_samples_inside_a_block():
    with SpeedProbe() as speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
    # one probe before, one after, and one every PROBE_PERIOD inside
    assert len(speed.samples) >= 5
    assert 0.0 < speed.inside < 0.3
    assert min(speed.samples) <= speed.ref <= max(speed.samples)


def test_fails_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jets",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Benchmark of the ``cycl`` commands, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload jets --seed 1 --seconds 50 --trace 0

Workloads: ``jets``, ``planar`` (see ``workloads.py``).  One run is one
process with one caller (a closed loop) and at most one BLAS/OpenMP thread.
It writes the workload's inputs, drawn from ``--seed``, to a temporary
directory, then plays rounds for about ``--seconds`` seconds (at least
three).  A round is one fresh-process import of ``conformal.cli`` (the
set-up cost) followed by one invocation of each of the workload's
commands.  Before each invocation sympy's cache is cleared and garbage
collected, so every invocation compiles its patches as a fresh ``cycl``
process would.  After the timed phase every round's outputs are checked
against the closed-form oracles.  The run prints each command's median
time per round, in wall seconds, then one JSON line with the metrics.

Times in the metrics are normalized to the host's speed.  A small shared
host runs the same code at speeds that differ by up to 1.7x, in phases
that can outlast a whole run, so wall times of one run do not repeat.
While each timed invocation runs, a fixed pure-Python loop (``probe``) is
timed every PROBE_PERIOD seconds from a signal handler; the invocation's
wall time, less the probes, is scaled by ``REF_S / mean probe time``: the
seconds it would take on a host that runs the probe in ``REF_S``.  The
run is pinned to one CPU, so the probes time the CPU the work runs on.

With ``--trace 0`` the metrics are the end-to-end ones: medians over the
rounds (so the first round's one-time costs of lazy imports drop out).
With ``--trace 1`` a warm-up round is followed by rounds that alternate
between untraced and traced, with spans recorded at every module boundary
(see ``tracing.py``), and the metrics are the per-layer ones, medians over
the traced rounds; ``trace.overhead_frac`` compares each traced round with
the untraced one before it, in wall time.  Results, inputs and spans are
kept under ``.perfbench_out/``.

The program is imported from ``src/`` of the checkout; without it the run
fails with exit code 2.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_ROUNDS = 3
# seconds the probe takes at the reference speed (about its time on the
# 2-vCPU x86-64 host the benchmark was written on, so normalized times read
# close to that host's wall times)
REF_S = 0.0019
PROBE_PERIOD = 0.05
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def probe() -> float:
    """Wall time of a short fixed pure-Python loop of dict updates and
    string sorting, the kind of work sympy does: the host's current
    speed."""
    t0 = time.perf_counter()
    d = {}
    for i in range(6000):
        k = i % 97
        d[k] = d.get(k, 0.0) + i*0.5
    sorted([str(x) for x in range(3000)])
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples ``probe`` before and after a block, and every PROBE_PERIOD
    seconds inside it from a SIGALRM handler (which runs between bytecodes
    of the main thread).  ``inside`` is the probe time spent inside the
    block; ``ref`` is the mean probe time."""

    def __enter__(self):
        self.samples = [probe()]
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        return self

    def _sample(self, signum, frame):
        self.samples.append(probe())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self.inside = sum(self.samples[1:])
        self.samples.append(probe())
        self.ref = sum(self.samples)/len(self.samples)


def setup_sample() -> tuple:
    """Wall time of a fresh ``python -c 'import conformal.cli'``, and the
    mean time of ten probes before and ten after it (not during it: they
    would share its CPU)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probes = [probe() for _ in range(10)]
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import conformal.cli"],
                   env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    sec = time.perf_counter() - t0
    probes += [probe() for _ in range(10)]
    return sec, sum(probes)/len(probes)


def play_round(run, commands, probed=True):
    """One invocation of each command, each one cold and, if ``probed``,
    with the host's speed sampled; returns the round's output directory."""
    from sympy.core.cache import clear_cache
    out = run.tmp / f"round{run.round}"
    out.mkdir()
    for name, fn in commands(out):
        clear_cache()
        gc.collect()
        if not probed:
            run.timed(name, fn)
            continue
        with SpeedProbe() as speed:
            run.timed(name, fn)
        name, sec, code, rnd, _ = run.commands[-1]
        run.commands[-1] = (name, sec - speed.inside, code, rnd, speed.ref)
    run.round += 1
    return out


def round_total(run, rnd) -> float:
    return sum(sec for _, sec, _, r, _ in run.commands if r == rnd)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["jets", "planar"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "conformal" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the run and its set-up samples, the one its probes
        # time
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # before numpy loads, so every run and every set-up sample uses the
    # same thread count
    os.environ.update({k: "1" for k in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import numpy as np
    import conformal
    if Path(conformal.__file__).resolve().parent != SRC / "conformal":
        print(f"error: imported conformal from {conformal.__file__}",
              file=sys.stderr)
        return 2
    from checks import KNOWN_BAD
    from tracing import SpanStats, Tracer
    from workloads import (WORKLOADS, Run, command_medians, end_to_end,
                           per_layer)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = Path(tempfile.mkdtemp(prefix=tag + "-", dir=OUT))
    run = Run(workload=args.workload, seed=args.seed, tmp=tmp)
    setup, outs, tracers = [], [], {}
    try:
        commands, check = WORKLOADS[args.workload](
            run, np.random.default_rng(args.seed))
        t_start = time.perf_counter()
        if args.trace:
            # the one-time costs of first calls (lazy imports) fall on a
            # warm-up round, not on the pairs compared below
            outs.append(play_round(run, commands, probed=False))
        while True:
            t0 = time.perf_counter()
            if args.trace:
                # an untraced round, then the same round traced
                outs.append(play_round(run, commands, probed=False))
                tracer = run.tracer = Tracer(run_id=f"{tag}-r{run.round}")
                tracers[run.round] = tracer
                tracer.install()
                try:
                    outs.append(play_round(run, commands, probed=False))
                finally:
                    tracer.uninstall()
                    run.tracer = None
            else:
                setup.append(setup_sample())
                outs.append(play_round(run, commands))
            now = time.perf_counter()
            # stop before a round that would end after --seconds
            if ((args.trace or run.round >= MIN_ROUNDS)
                    and now + (now - t0) - t_start > args.seconds):
                break
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss/1024.0
        for name, _, code, _, _ in run.commands:
            run.checks.add(f"exit[{name}]", code == 0)
        oracle_s = []
        for out in outs:
            try:
                oracle_s.append(check(out, run.checks))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                # a missing or malformed output is a failed check, not a
                # crash
                run.checks.add(f"outputs readable ({type(exc).__name__}: "
                               f"{exc})", False)
                oracle_s.append(0.0)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        rounds = []
        with open(OUT / f"{tag}.spans.jsonl", "w") as fh:
            for rnd, tracer in tracers.items():
                tracer.write_spans(fh)
                rounds.append(per_layer(
                    SpanStats(tracer.spans), run.checks.gap, sum(oracle_s),
                    round_total(run, rnd), round_total(run, rnd - 1)))
        metrics = {k: (float(np.median([r[k][0] for r in rounds])), u)
                   for k, (_, u) in rounds[0].items()}
    else:
        metrics = end_to_end(run, [sec*REF_S/ref for sec, ref in setup],
                             peak_rss_mb, REF_S)

    print(f"rounds {run.round}")
    for name, sec in command_medians(run, None).items():
        print(f"{name}_s {sec:.4f} s")
    c = run.checks
    print(f"fail_frac {c.failed/c.attempted:.6g} frac "
          f"({c.failed} of {c.attempted} checks)")
    for label in sorted(set(c.failures)):
        known = " (known defect)" if label in KNOWN_BAD else ""
        print(f"FAILED {label}{known} x{c.failures.count(label)}")
    result = {
        "correct": not c.unexpected,
        "attempted": c.attempted,
        "failed": c.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "inputs": run.inputs,
                   "ref_s": REF_S, "commands": run.commands,
                   "setup_samples": setup,
                   "failures": c.failures, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Digests of one round of a benchmark workload's outputs.

Usage, from the root of a checkout::

    python3 .github/output_digest.py --workload jets --seed 7 --seed 11

For each seed the workload's inputs are drawn as ``perfbench/run.py`` draws
them (``perfbench/workloads.py``), and one round of its commands is played
in process into a temporary directory.  Each output file is then printed as
one line, ``seed file sha256``.  The JSON reports echo the spec paths, so
the temporary directory's path is replaced by a fixed token before hashing:
two checkouts print the same line for a file exactly where they wrote the
same bytes.  The exit code is 1 if a command failed, else 0.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOKEN = b"<specdir>"
# one BLAS/OpenMP thread, as in a benchmark run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def digests(workload: str, seed: int):
    """(file name, sha256 hex) of each output of one round at ``seed``, and
    the names of the commands that failed."""
    import numpy as np
    from workloads import WORKLOADS, Run

    tmp = Path(tempfile.mkdtemp(prefix=f"digest-{workload}-{seed}-"))
    try:
        run = Run(workload=workload, seed=seed, tmp=tmp)
        commands, _ = WORKLOADS[workload](run, np.random.default_rng(seed))
        out = tmp / "round0"
        out.mkdir()
        failed = [name for name, fn in commands(out)
                  if run.timed(name, fn) != 0]
        masked = str(tmp).encode()
        return [(p.name, hashlib.sha256(
                    p.read_bytes().replace(masked, TOKEN)).hexdigest())
                for p in sorted(out.iterdir())], failed
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["jets", "planar"])
    ap.add_argument("--seed", type=int, action="append", required=True)
    args = ap.parse_args(argv)
    os.environ.update({k: "1" for k in THREAD_VARS})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    status = 0
    for seed in args.seed:
        files, failed = digests(args.workload, seed)
        for name, digest in files:
            print(seed, name, digest)
        for name in failed:
            print(f"seed {seed}: command {name} failed", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

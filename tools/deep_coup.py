"""Run deep ``coup`` searches in-process and report their cost and digest.

Each seed runs ``coup`` on the parametric space of the ``coup_large_pool``
benchmark workload (``parametric_exponential`` ``0.1,10000.0``, utility
``loglaplace:kappa0=60,a=1``, delta 0.05, doubling ``new``, schedule
``default``) to ``phases:N``, through ``harness.execute`` as ``utilcap run``
does, but without writing a run directory:

    PYTHONPATH=src python tools/deep_coup.py [--phases N] SEED [SEED ...]

One line per seed gives the rounds, the pool size ``ctx.n`` and the number
of arms the run made, the seconds spent in ``CoupRun.begin_phase`` and in
the whole run, the process's ``ru_maxrss`` so far, and a sha256 over the
trace rows, the certificates and the ledger.  ``ru_maxrss`` is the peak of
the whole process, so give one seed per invocation to read a run's own
peak.  The digest depends only on the run's outputs, so two builds that
print the same digest made the same run.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import resource
import sys
import tempfile
import time
from pathlib import Path

import utilcap as uc
from utilcap import harness

SPACE = "family=parametric_exponential\nparams=0.1,10000.0\n"


def digest(result) -> str:
    """sha256 over the reprs of the trace rows, certificates and ledger."""
    h = hashlib.sha256()
    for row in result.trace:
        h.update(repr(tuple(row)).encode())
    for certificate in result.certificates:
        h.update(repr(dataclasses.astuple(certificate)).encode())
    h.update(repr((result.ledger.total_seconds, result.ledger.run_count)).encode())
    return h.hexdigest()


def deep_run(pool: Path, seed: int, phases: int) -> dict:
    """Run one seed; ``begin_phase`` is timed by wrapping it on the class."""
    spec = uc.ExperimentSpec(
        procedure="coup", oracle=f"synthetic:{pool}", utility="loglaplace:kappa0=60,a=1",
        stop=f"phases:{phases}", seed=seed, delta=0.05, doubling="new", schedule="default",
    )
    runs = []
    spent = [0.0]
    begin_phase = uc.CoupRun.begin_phase

    def timed_begin_phase(run):
        runs.append(run)
        start = time.perf_counter()
        try:
            begin_phase(run)
        finally:
            spent[0] += time.perf_counter() - start

    uc.CoupRun.begin_phase = timed_begin_phase
    try:
        start = time.perf_counter()
        result = harness.execute(spec)
        total = time.perf_counter() - start
    finally:
        uc.CoupRun.begin_phase = begin_phase
    run = runs[-1]
    return {
        "seed": seed,
        "rounds": result.rounds,
        "n": run.ctx.n,
        "arms": len(run.arms),
        "begin_phase_s": spent[0],
        "total_s": total,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sha256": digest(result),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="+", type=int)
    parser.add_argument("--phases", type=int, default=25)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        pool = Path(tmp) / "space.txt"
        pool.write_text(SPACE, encoding="utf-8")
        for seed in args.seeds:
            r = deep_run(pool, seed, args.phases)
            print(
                f"seed {r['seed']} phases {args.phases}: rounds {r['rounds']} n {r['n']} "
                f"arms {r['arms']} begin_phase_s {r['begin_phase_s']:.4f} "
                f"total_s {r['total_s']:.3f} maxrss_mb {r['maxrss_mb']:.1f} "
                f"sha256 {r['sha256']}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

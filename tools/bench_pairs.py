"""Compare a revision with the working tree on one benchmark workload, in pairs.

    python tools/bench_pairs.py REV WORKLOAD --pairs N --label L [--first-seed S]

``REV`` is extracted with ``git archive`` into a temporary directory, the
parent copy.  Pair ``k`` runs ``perfbench/run.py --workload WORKLOAD --seed
S+k --trace 0`` once in the parent copy and once in the working tree, each
with its own ``perfbench/``, on the same fresh workload seed; the copy that
runs first alternates from pair to pair.  Each run measures for the
``run_seconds`` of the working tree's ``BENCHMARK.json``.  Neither
checkout's ``perfbench/`` is changed: each run writes its result file under
its own checkout's ``.perfbench/``.

Writes ``BENCH_<L>_parent_<WORKLOAD>.json`` and ``BENCH_<L>_change_<WORKLOAD>.json``
to the working tree, one entry per pair: the seed, which copy ran first,
whether the two runs' operation digests are equal, the operation counts, the
end-to-end metrics (times scaled to the reference CPU speed) and the
unscaled medians of the two times.  Then prints, for every metric, each
side's median and quartiles, unscaled beside scaled for the times, and the
number of pairs the change won.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMES = ("wall_s", "setup_s")


def extract(rev: str, into: Path) -> None:
    """Write the tree of ``rev`` into the directory ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    )
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def bench(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``--trace 0`` run of ``perfbench/run.py`` in ``checkout``, and its
    result file."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args, "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if done.returncode:
        tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
        raise SystemExit(f"perfbench/run.py in {checkout} exited {done.returncode}: {tail}")
    path = checkout / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text(encoding="utf-8"))


def entry(result: dict, seed: int, first: str, digests_equal: bool) -> dict:
    unscaled = {
        f"{name}_unscaled": statistics.median(result["samples"][name]["raw_s"]) for name in TIMES
    }
    return {
        "workload": result["workload"],
        "seed": seed,
        "ran_first": first,
        "digests_equal": digests_equal,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
        **unscaled,
    }


def spread(values: list[float]) -> str:
    """The median and the quartiles of ``values``."""
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def report(parent: list[dict], change: list[dict], metrics: list[dict]) -> None:
    print(f"{len(parent)} pairs; median [quartiles] of the parent, then of the change")
    for metric in metrics:
        name = metric["name"]
        old = [e["metrics"][name]["value"] for e in parent]
        new = [e["metrics"][name]["value"] for e in change]
        lower = metric["better"] == "lower"
        won = sum((n < o) if lower else (n > o) for o, n in zip(old, new))
        line = f"  {name:<14} {spread(old)}  ->  {spread(new)}"
        if name in TIMES:
            raw_old = [e[f"{name}_unscaled"] for e in parent]
            raw_new = [e[f"{name}_unscaled"] for e in change]
            line += f"  (unscaled {spread(raw_old)}  ->  {spread(raw_new)})"
        print(f"{line}  change won {won} of {len(old)}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("workload")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = [], []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        copy = Path(tmp)
        extract(args.rev, copy)
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = [("parent", copy), ("change", ROOT)]
            if k % 2:
                order.reverse()
            results = {
                side: bench(checkout, args.workload, seed, spec["run_seconds"])
                for side, checkout in order
            }
            equal = results["parent"]["digests"] == results["change"]["digests"]
            parent.append(entry(results["parent"], seed, order[0][0], equal))
            change.append(entry(results["change"], seed, order[0][0], equal))
            print(f"pair {k + 1}: seed {seed}, digests equal: {equal}", flush=True)
    for side, entries in (("parent", parent), ("change", change)):
        path = ROOT / f"BENCH_{args.label}_{side}_{args.workload}.json"
        path.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    report(parent, change, spec["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

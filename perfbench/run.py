#!/usr/bin/env python3
"""utilcap benchmark: three CLI workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload coup_large_pool --seed 3 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json:

* ``wall_s``: wall time of one workload command, run in-process through
  ``utilcap.cli.main`` after import.  Each cycle runs the workload's
  commands once each, with CLI seeds derived from ``--seed``; cycles repeat
  while they fit in ``--seconds``.  The value is the median over commands
  of each command's median time.
* ``setup_s``: median over fresh interpreters of the time from launch to a
  built oracle for the workload's spec (``child.py setup``).
* ``peak_rss_mb``: peak resident memory of a fresh process that runs the
  reference command once (``child.py once``).
* ``correct_share``: operations that passed every check over operations
  attempted.

The two times are scaled to a reference CPU speed by a calibration loop timed
just before and just after each sample (see ``Calibrated``); the result
file keeps the unscaled samples and the loop times too.

``--trace 1`` runs the first command alternately without and with the
per-layer tracer (tracer.py) while the pairs fit in ``--seconds``, and
reports the per-layer metrics, the work counters and the tracing overhead.

Every run starts with the reference command (workload seed 0, command 0)
in a fresh interpreter; its operations must match ``reference.json``.
Every operation is checked (check.py).  The run prints each metric with its
unit and every failed operation, writes provenance, samples and operation
digests to ``.perfbench/results/``, and prints one JSON line last.

``--record`` runs every command of workload seed 0 once and stores its
operations in ``reference.json``; use it only when a change of behaviour is
intended.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
import child
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150
# The CPU speed of a shared machine drifts by up to 1.5x over minutes, and
# utilcap's CPU time drifts with it.  Two fixed pure-Python loops, one of
# integer arithmetic and one that allocates small frozen dataclasses, timed
# right before and right after each measured command, give the speed at
# that moment; times are scaled to the speed at which the loops take
# REFERENCE_LOOPS_S.  On a 2-vCPU machine this halved the spread of
# 3-command medians of the coup and sweep commands (0.41 to 0.14 and 0.27
# to 0.09 over five minutes).
REFERENCE_LOOPS_S = 0.2


@dataclass(frozen=True)
class _Row:
    index: int
    value: float


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


class Bench:
    """Runs one workload's commands in this process and checks their
    operations."""

    def __init__(self, workload: str, work: Path, reference: dict | None):
        from utilcap import cli

        self.cli = cli
        self.workload = workload
        self.work = work
        self.ledger = check.Ledger(reference)
        self.reports = child.capture_reports(cli)
        self._pools: dict[int, Path] = {}
        self._dirs = 0

    def pool(self, seed: int) -> Path:
        if seed not in self._pools:
            self._pools[seed] = workloads.write_pool(self.workload, seed, self.work)
        return self._pools[seed]

    def fresh_dir(self) -> Path:
        self._dirs += 1
        return self.work / f"out{self._dirs}"

    def argv(self, seed: int, k: int, out: Path) -> list[str]:
        return workloads.command(self.workload, self.pool(seed), seed, k, out)

    def operations(self, seed: int, k: int, out: Path, exit_code, details) -> list:
        if self.workload == "validate_trials":
            return check.trial_operations(self.workload, k, seed, details, exit_code)
        return check.cell_operations(self.workload, k, seed, out, exit_code)

    def execute(self, seed: int, k: int) -> tuple[float, list]:
        """Run command k of a workload seed; returns its wall time and its
        checked operations."""
        out = self.fresh_dir()
        argv = self.argv(seed, k, out)
        self.reports.clear()
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash fails the command's operations
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        details = self.reports[-1].details if self.reports else None
        ops = self.operations(seed, k, out, code, details)
        shutil.rmtree(out, ignore_errors=True)
        return elapsed, ops

    def record(self, ops: list, seed: int) -> None:
        self.ledger.add(ops, against_reference=seed == REFERENCE_SEED)


def _child(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("UTILCAP_OUT", None)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise BenchError(f"child.py {args[0]} exited {proc.returncode}: {tail}")
    return proc


def calibration_loops() -> float:
    """Time of the fixed calibration loops, which do not touch utilcap."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    rows = [_Row(i, i * 0.5) for i in range(60_000)]
    total += len({row.index: repr(row.value) for row in rows})
    return time.perf_counter() - start


class Calibrated:
    """Samples scaled to the reference speed by the calibration loops timed
    just before and just after each of them."""

    def __init__(self):
        self.loops = [calibration_loops()]
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def add(self, elapsed: float) -> float:
        self.loops.append(calibration_loops())
        speed = (self.loops[-2] + self.loops[-1]) / 2.0 / REFERENCE_LOOPS_S
        self.raw.append(elapsed)
        self.scaled.append(elapsed / speed)
        return self.scaled[-1]

    def samples(self) -> dict:
        return {"raw_s": self.raw, "scaled_s": self.scaled, "calibration_loops_s": self.loops}


def measure_wall(bench: Bench, seed: int, seconds: int) -> tuple[float, dict]:
    """Median over the workload's commands of each command's median scaled
    wall time."""
    commands = workloads.COMMANDS[bench.workload]
    by_command: dict[int, list[float]] = {k: [] for k in range(commands)}
    calibrated = Calibrated()
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for k in range(commands):
            elapsed, ops = bench.execute(seed, k)
            by_command[k].append(calibrated.add(elapsed))
            bench.record(ops, seed)
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            break
    value = statistics.median(statistics.median(t) for t in by_command.values())
    return value, calibrated.samples()


def measure_setup(bench: Bench, seed: int) -> tuple[float, dict]:
    procedure, cli_seed = workloads.first_cli_seed(bench.workload, seed, 0)
    argv = bench.argv(seed, 0, bench.fresh_dir())
    calibrated = Calibrated()
    for _ in range(SETUP_PROBES):
        launched = time.monotonic()
        proc = _child(["setup", str(SRC), procedure, str(cli_seed), "--", *argv])
        calibrated.add(float(proc.stdout.split()[-1]) - launched)
    return statistics.median(calibrated.scaled), calibrated.samples()


def reference_run(bench: Bench) -> float:
    """Run the reference command once in a fresh interpreter, check its
    operations against reference.json, and return the process's peak
    resident memory in MB.  Its inputs are the same for every workload
    seed, so the memory figure does not move with the seed."""
    out = bench.fresh_dir()
    proc = _child(["once", str(SRC), "--", *bench.argv(REFERENCE_SEED, 0, out)])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    ops = bench.operations(REFERENCE_SEED, 0, out, result["exit"], result["details"])
    bench.record(ops, REFERENCE_SEED)
    shutil.rmtree(out, ignore_errors=True)
    return result["maxrss_kb"] / 1024.0


def measure_traced(bench: Bench, seed: int, seconds: int) -> tuple[dict, dict]:
    untraced, traced, layers, missing = [], [], [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        elapsed, ops = bench.execute(seed, 0)
        untraced.append(elapsed)
        bench.record(ops, seed)
        probe = tracer.Tracer()
        probe.install()
        try:
            elapsed, ops = bench.execute(seed, 0)
        finally:
            probe.uninstall()
        traced.append(elapsed)
        bench.record(ops, seed)
        layers.append(probe.metrics())
        missing = probe.missing
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if name in tracer.EXACT:
            if len(set(values)) != 1:
                bench.ledger.failures.append(f"work counter {name} changed between runs: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    samples = {"untraced_s": untraced, "traced_s": traced, "unpatched": missing}
    return metrics, samples


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "utilcap").glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, load_before) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "workload_seed": seed,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


def load_reference(workload: str) -> dict | None:
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"].get(workload)


def record_reference(bench: Bench) -> int:
    records = {}
    problems = []
    for k in range(workloads.COMMANDS[bench.workload]):
        _, ops = bench.execute(REFERENCE_SEED, k)
        for op in ops:
            records[op.key] = op.record
            problems += [f"{op.key}: {p}" for p in op.problems]
    if problems:
        print("not recorded; failed operations:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 1
    data = {"seed": REFERENCE_SEED, "workloads": {}}
    if REFERENCE.is_file():
        data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    data["workloads"][bench.workload] = records
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(records)} operations of {bench.workload} in {REFERENCE.name}")
    return 0


def run(args, spec: dict, work: Path) -> dict:
    load_before = os.getloadavg()
    bench = Bench(args.workload, work, load_reference(args.workload))
    rss = reference_run(bench)
    samples: dict = {}
    if args.trace:
        values, samples = measure_traced(bench, args.seed, args.seconds)
        listed = spec["per_layer"]
    else:
        wall, samples["wall_s"] = measure_wall(bench, args.seed, args.seconds)
        setup, samples["setup_s"] = measure_setup(bench, args.seed)
        ledger = bench.ledger
        values = {
            "wall_s": wall,
            "setup_s": setup,
            "peak_rss_mb": rss,
            "correct_share": (ledger.attempted - ledger.failed) / ledger.attempted,
        }
        listed = spec["end_to_end"]
    metrics = {}
    for entry in listed:
        if entry["name"] not in values:
            raise BenchError(f"metric {entry['name']} was not measured")
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    ledger = bench.ledger
    return {
        "metrics": metrics,
        "samples": samples,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "digests": ledger.digests,
        "provenance": provenance(args.seed, load_before),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.COMMANDS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "utilcap" / "__init__.py").is_file():
        print(f"no utilcap sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    os.environ.pop("UTILCAP_OUT", None)
    sys.path.insert(0, str(SRC))
    import utilcap

    if Path(utilcap.__file__).resolve().parent != (SRC / "utilcap").resolve():
        print(f"imported utilcap from {utilcap.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench" / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.record:
            return record_reference(Bench(args.workload, work, None))
        result = run(args, spec, work)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}.json"
    path.write_text(json.dumps({"workload": args.workload, **result}, indent=1) + "\n")
    print(f"utilcap benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<28} {entry['value']:>14.6g} {entry['unit']}")
    if not args.trace:
        walls = result["samples"]["wall_s"]
        print(
            f"  wall_s is the median of {len(walls['raw_s'])} timed commands scaled to the "
            f"reference speed; unscaled median {statistics.median(walls['raw_s']):.6g} s"
        )
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(f"result file: {path.relative_to(ROOT)}")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

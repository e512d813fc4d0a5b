"""Deterministic results of operations, and the checks made on them.

An operation is one ``run``, one sweep cell or one validate trial.  Its
record holds what the program decided: for a run or cell the incumbent, the
certified eps, rounds, runs, simulated seconds, stop reason and the sha256
of ``trace.csv`` (and of ``certificates.csv`` for ``coup``); for a trial the
``ValidationReport.details`` entries of its seed.  An operation fails when
its command exits nonzero, when an invariant of its outputs does not hold,
when a repeat of it differs from the first run of it, or when it differs
from the record kept in ``reference.json`` for the reference seed.  A
change that moves rounds, runs or simulated seconds changed behaviour, not
speed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import workloads

SUMMARY_FIELDS = (
    "incumbent",
    "incumbent_name",
    "final_epsilon",
    "total_seconds",
    "run_count",
    "rounds",
    "stop_reason",
)


@dataclass
class Operation:
    key: str
    record: dict
    problems: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        text = json.dumps(self.record, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _cell(workload: str, procedure: str, directory: Path) -> tuple[dict, list[str]]:
    summary_path = directory / "summary.csv"
    trace_path = directory / "trace.csv"
    if not summary_path.is_file() or not trace_path.is_file():
        return {}, [f"missing summary.csv or trace.csv in {directory.name or 'out'}"]
    with summary_path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if len(rows) != 2:
        return {}, [f"summary.csv has {len(rows)} lines, expected 2"]
    summary = dict(zip(rows[0], rows[1]))
    missing = [name for name in SUMMARY_FIELDS if name not in summary]
    if missing:
        return {}, [f"summary.csv lacks {missing}"]
    record = {name: summary[name] for name in SUMMARY_FIELDS}
    data = trace_path.read_bytes()
    record["trace_sha256"] = hashlib.sha256(data).hexdigest()
    problems = []
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",") if lines else []
    trace_rows = max(len(lines) - 1, 0)
    last_ledger = None
    if trace_rows and "ledger_seconds" in header:
        last_ledger = lines[-1].split(",")[header.index("ledger_seconds")]
    if str(trace_rows) != summary["rounds"]:
        problems.append(f"summary rounds {summary['rounds']} != {trace_rows} trace rows")
    if last_ledger is not None and last_ledger != summary["total_seconds"]:
        problems.append(
            f"summary total_seconds {summary['total_seconds']} != last trace ledger {last_ledger}"
        )
    expected_stop = workloads.EXPECTED_STOP[procedure]
    if summary["stop_reason"] != expected_stop:
        problems.append(f"stop reason {summary['stop_reason']!r}, expected {expected_stop!r}")
    target = workloads.TARGET_EPSILON.get(workload)
    if expected_stop == "target_epsilon" and not float(summary["final_epsilon"]) <= target:
        problems.append(f"certified eps {summary['final_epsilon']} above target {target}")
    if procedure == "coup":
        cert_path = directory / "certificates.csv"
        if not cert_path.is_file():
            problems.append("missing certificates.csv")
        else:
            data = cert_path.read_bytes()
            record["certificates_sha256"] = hashlib.sha256(data).hexdigest()
            rows = csv.DictReader(data.decode("utf-8").splitlines())
            phases = [row["phase"] for row in rows]
            wanted = [str(p) for p in range(1, workloads.COUP_PHASES + 1)]
            if phases != wanted:
                problems.append(f"certificates cover phases {phases}, expected {wanted}")
    return record, problems


def cell_operations(workload: str, k: int, seed: int, out: Path, exit_code) -> list[Operation]:
    """Operations of a ``run`` or ``sweep`` command, read from its output
    directory."""
    ops = []
    for procedure, cli_seed, subdir in workloads.cells(workload, seed, k):
        record, problems = _cell(workload, procedure, out / subdir if subdir else out)
        if exit_code != 0:
            problems.insert(0, f"exit code {exit_code}")
        ops.append(Operation(f"{procedure}_seed{cli_seed}", record, problems))
    return ops


def trial_operations(workload: str, k: int, seed: int, details, exit_code) -> list[Operation]:
    """Operations of a ``validate`` command, from its report's details:
    ``(seed, gap, certified, violated)`` per trial."""
    by_seed = {}
    for entry in details or ():
        # numbers as plain Python values, so a report read back from a child
        # process gives the same record as one captured in this process
        entry = tuple(v if isinstance(v, (bool, int, str)) else float(v) for v in entry)
        by_seed.setdefault(entry[0], []).append(entry)
    ops = []
    for trial_seed in workloads.trial_seeds(workload, seed, k):
        entries = by_seed.get(trial_seed, [])
        problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
        if details is None:
            problems.append("no ValidationReport was captured")
        elif len(entries) != 1:
            problems.append(f"{len(entries)} detail entries, expected 1")
        else:
            _, gap, certified, _ = entries[0]
            if not (math.isfinite(gap) and gap >= -1e-12 and math.isfinite(certified)):
                problems.append(f"implausible detail {entries[0]!r}")
        record = {"details": [repr(e) for e in entries]}
        ops.append(Operation(f"trial_seed{trial_seed}", record, problems))
    return ops


class Ledger:
    """Every operation of one benchmark run, with the cross-checks between
    them: repeats must agree, and reference-seed operations must match the
    recorded results."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, ops: list[Operation], against_reference: bool) -> None:
        for op in ops:
            problems = list(op.problems)
            first = self.digests.setdefault(op.key, op.digest)
            if first != op.digest:
                problems.append("differs from an earlier run of the same operation")
            if against_reference and not problems:
                expected = (self.reference or {}).get(op.key)
                if expected is None:
                    problems.append("no recorded result for this reference-seed operation")
                elif expected != op.record:
                    changed = sorted(
                        name
                        for name in set(expected) | set(op.record)
                        if expected.get(name) != op.record.get(name)
                    )
                    problems.append(f"differs from the recorded result in {changed}")
            self.attempted += 1
            if problems:
                self.failures.append(f"{op.key}: " + "; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.failures)

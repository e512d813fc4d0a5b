"""Run records: cost ledger, per-round trace rows, stop rules, run results.

A round's ``TraceRow`` is its only record.  Every output value is written
as ``format_value`` gives it: floats with ``repr``, the shortest
round-tripping form, so engines making the same decisions write
byte-identical files.  The trace writer renders a whole row with one
format that gives the same text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class CostLedger:
    """Accumulated simulated runtime, charged once per executed run.

    Every run is charged at its observed capped duration, including
    reruns triggered by captime doubling (restarting a capped run costs the
    full rerun, not the difference).
    """

    def __init__(self):
        self.total_seconds = 0.0
        self.per_config_seconds: dict[int, float] = {}
        self.run_count = 0

    def charge(self, key: int, seconds: float) -> None:
        self.total_seconds += seconds
        self.per_config_seconds[key] = self.per_config_seconds.get(key, 0.0) + seconds
        self.run_count += 1


class TraceRow(NamedTuple):
    """One row per engine round.

    ``selected`` and ``incumbent`` are arm positions within the run's pool;
    ``survivors`` counts arms still under consideration (the full pool for
    procedures that never eliminate).
    """

    round: int
    ledger_seconds: float
    selected: int
    doubled: bool
    eps_raw: float
    eps_min: float
    survivors: int
    incumbent: int


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# Stop rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetEpsilon:
    """Stop once the running-minimum guarantee reaches the target."""

    epsilon: float


@dataclass(frozen=True)
class BudgetSeconds:
    """Stop once total simulated time reaches the budget."""

    seconds: float


@dataclass(frozen=True)
class SingleSurvivor:
    """Stop once elimination leaves a single configuration."""


@dataclass(frozen=True)
class MaxRounds:
    rounds: int


@dataclass(frozen=True)
class MaxPhases:
    phases: int


StopRule = TargetEpsilon | BudgetSeconds | SingleSurvivor | MaxRounds
PhasedStopRule = MaxPhases | BudgetSeconds


@dataclass
class RunResult:
    """Final state of a run of any of the five procedures.

    ``incumbent`` is the recommended arm's position in the run's pool and
    ``epsilon`` the guarantee certified for it: the running minimum for
    ``oup`` and ``up``, the target for ``naive``, the last phase's eps for
    ``coup`` (incumbent ``None`` and eps nan before its first certificate),
    and nan for ``sh``, which certifies nothing.  A run makes one ``trace``
    row per round, so its round count is ``len(trace)``.  ``extra`` holds
    what validation reads of a ``coup`` run: ``arm_configs`` and ``sampler``.
    """

    procedure: str
    incumbent: int | None
    incumbent_config: int | None
    incumbent_name: str
    epsilon: float
    trace: list[TraceRow]
    ledger: CostLedger
    stop_reason: str
    certificates: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

"""Run records: cost ledger, per-round trace rows, the stop rule, run results.

A round's trace row is its only record: a plain tuple laid out as the
fields of ``TraceRow``.  Every output value is written as ``format_value``
gives it: floats with ``repr``, the shortest round-tripping form, so
engines making the same decisions write byte-identical files.  The trace
writer unpacks a whole row by position and renders it with one format that
gives the same text.

Every procedure's stop rule is one ``StopRule``: the limits a run stops
at, and the reason it reports there.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple


class CostLedger:
    """Accumulated simulated runtime, charged once per executed run.

    Every run is charged at its observed capped duration, including
    reruns triggered by captime doubling (restarting a capped run costs the
    full rerun, not the difference).  The ledger keeps only the run's total
    and its run count; an arm's seconds can be read off the trace rows.  An
    engine that runs one arm many times in a row adds the runs to
    ``total_seconds`` and ``run_count`` in locals, one run at a time, and
    writes them back when it moves on, so the sums are the same to the bit.
    """

    def __init__(self):
        self.total_seconds = 0.0
        self.run_count = 0


class TraceRow(NamedTuple):
    """The fields of the row an engine appends per round, in order.

    ``selected`` and ``incumbent`` are arm positions within the run's pool;
    ``survivors`` counts arms still under consideration (the full pool for
    procedures that never eliminate).

    The engines append plain tuples in this layout, not ``TraceRow``s,
    because a row is built every round.  A named tuple is built by a Python
    ``__new__``, is never untracked by the cyclic GC and skips the tuple
    freelist, so every row counts toward the GC's next collection; plain
    tuples reuse the freelist that a finished run's rows refill.
    ``TraceRow(*row)`` names a row's fields, and ``curve`` reads
    ``trace.csv`` back into ``TraceRow``s.
    """

    round: int
    ledger_seconds: float
    selected: int
    doubled: bool
    eps_raw: float
    eps_min: float
    survivors: int
    incumbent: int


# the trace sink of a run that keeps no rows, as a validation trial's: the
# engines build no row for it, and its length, 0, counts none
NO_TRACE = ()


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# Stop rule
# ---------------------------------------------------------------------------


class StopRule(NamedTuple):
    """A stop rule: the limits a run stops at, and the stop reason it reports.

    A run stops once it has made ``rounds`` rounds, its ledger holds
    ``seconds`` seconds, its ``eps_min`` is at most ``epsilon``, at most
    ``survivors`` configurations survive, or, for ``coup``, it has finished
    ``phases`` phases.  A limit left at its default is never met, and
    ``harness.parse_stop`` sets one limit per rule.  ``OupRun.step`` tests
    the first three after every round.  Only elimination changes the
    survivors, and it ends a streak, so ``run_until`` tests them between
    streaks; ``CoupRun.run_phases`` tests the phases between phases.
    """

    rounds: float = math.inf
    seconds: float = math.inf
    epsilon: float = -math.inf
    survivors: int = 0
    phases: float = math.inf
    stop_reason: str = ""


@dataclass
class RunResult:
    """Final state of a run of any of the five procedures.

    ``incumbent`` is the recommended arm's position in the run's pool and
    ``epsilon`` the guarantee certified for it: the running minimum for
    ``oup`` and ``up``, the target for ``naive``, the last phase's eps for
    ``coup`` (incumbent ``None`` and eps nan before its first certificate),
    and nan for ``sh``, which certifies nothing.  A run makes ``rounds``
    rounds and appends one row per round to ``trace``, a tuple laid out as
    ``TraceRow``.  Every procedure takes a trace sink: ``trace`` is the list
    the rows went to, unless the run was handed another one, or
    ``NO_TRACE`` when it keeps no rows, as a validation trial's run does.
    ``certificates`` is ``None`` unless the run certifies phases, as
    ``coup`` does: then it is the list of its certificates, empty before the
    first.
    """

    procedure: str
    incumbent: int | None
    incumbent_config: int | None
    incumbent_name: str
    epsilon: float
    trace: Sequence[tuple]
    rounds: int
    ledger: CostLedger
    stop_reason: str
    certificates: list | None = None

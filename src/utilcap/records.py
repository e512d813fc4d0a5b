"""Run records: cost ledger, per-round trace rows, the stop rule, run results,
and the one reader of the ``key=value`` items of a spec (``spec_items``).

A round's trace row is its only record: a plain tuple laid out as the
fields of ``TraceRow``, which goes to the run's trace sink (``NO_TRACE``).
Every output value is written as ``format_value`` gives it: floats with
``repr``, the shortest round-tripping form, so engines making the same
decisions write byte-identical files.
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
    and its run count; an arm's seconds can be read off the trace rows.
    The round loops add runs in locals, one at a time, and write the sums
    back, so they are the same to the bit.
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


# The trace sink of a run that keeps no rows.  Every procedure takes a
# trace sink, and its round loop (``OupRun.step`` or ``baselines.run_plan``)
# appends one row per round to it: a new list unless one is given, as for
# ``run`` and ``sweep``, which write it to ``trace.csv``.  A validation trial
# reads no row, so its run is handed ``NO_TRACE``, and the round loops then
# build none: ``run_plan`` ranks no other arm for one, and ``naive`` skips
# the rewrite of its last row.  A run that keeps rows pays one test per
# round for this.  The engines count their rounds themselves, so a result's
# ``rounds`` does not depend on its sink; ``len(NO_TRACE)`` is 0.
NO_TRACE = ()


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def spec_items(items, names: tuple[str, ...], noun: str) -> dict[str, str]:
    """Read ``key=value`` items into a dict of their stripped keys and values.

    ``items`` yields ``(where, item)`` pairs, and ``where`` starts the
    message of a refusal: ``path:line`` for a line of a pool file, the
    quoted spec text for an item of a utility or a custom schedule.  An
    item without ``=`` (an empty one too), a key outside ``names`` or a
    key given twice raises ``ValueError``; ``noun`` names what a key is.
    """
    found = {}
    for where, item in items:
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"{where}: expected key=value, got {item!r}")
        if key not in names:
            raise ValueError(f"{where}: unknown {noun} {key!r}; expected one of {names}")
        if key in found:
            raise ValueError(f"{where}: {noun} {key!r} given twice")
        found[key] = value.strip()
    return found


# ---------------------------------------------------------------------------
# Stop rule
# ---------------------------------------------------------------------------


class StopRule(NamedTuple):
    """A stop rule: the limits a run stops at, and the stop reason it reports.

    A run stops once it has made ``rounds`` rounds, its ledger holds
    ``seconds`` seconds, its ``eps_min`` is at most ``epsilon``, at most
    ``survivors`` configurations survive, or, for ``coup``, it has finished
    ``phases`` phases.  A limit left at its default is never met, and
    ``harness.parse_stop`` sets one limit per rule, so every procedure's
    stop goes through the same fields and no engine tests which kind of
    stop it was given.  ``OupRun.step`` tests the first three after every
    round.  Only elimination changes the survivors, and it ends a streak,
    so ``run_until`` tests all four between streaks.
    ``CoupRun.run_phases`` tests the phases between phases, and runs each
    phase through the same loop with ``epsilon`` set just below the
    phase's ``eps_p``: the phase is certified if that limit was met.
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
    rounds and appends one row per round to ``trace``, its trace sink
    (``NO_TRACE``), a tuple laid out as ``TraceRow``.
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

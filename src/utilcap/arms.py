"""Per-configuration bandit state, and the captime doubling's reruns.

Every engine that pulls configurations one at a time (greedy selection,
round-robin, or phased) keeps an arm's state in the locals of the round of
``OupRun.step`` while it pulls the arm, calls ``double_captime`` when the
captime doubles, and writes the state back to the arm when its streak ends.
``OupRun._enter`` recomputes the arm's bounds under a new bound context.
The fields of an arm are exact whenever ``step`` is not running.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import FRESH, BoundSnapshot
from .utility import UtilityFunction


@dataclass(slots=True, eq=False)
class ArmState:
    """The state of one configuration inside a run: a record, which the
    round of ``OupRun.step`` reads and writes.

    An arm keeps no list of its runs, only their count ``m`` and running
    sums.  Run j's capped duration is ``min(times[j], kappa)`` for the
    oracle's runtime table ``times`` of the configuration, since every
    capped run is rerun at each doubling, and it completed exactly when
    ``times[j] < kappa``.  The running sums that snapshots are computed from
    are maintained append-only, and recomputed left to right from the table
    after a doubling's reruns (``double_captime``), so they equal a
    left-to-right recomputation bit for bit (tests compare them against a
    from-scratch reference).  Every arm starts at captime 1 with the shared
    sentinel snapshot ``FRESH``, which it keeps until its first pull:
    snapshots are immutable, so sharing one is safe.
    """

    config: int
    m: int = 0
    kappa: float = 1.0
    snapshot: BoundSnapshot = FRESH
    eliminated: bool = False
    _utility_sum: float = 0.0
    _completed_count: int = 0


def double_captime(
    times, runs: int, kappa: float, u: UtilityFunction, total: float
) -> tuple[float, float, int, float, float, int]:
    """Double the captime ``kappa`` and rerun, at the new one, every run
    that had capped among the first ``runs`` runs of the configuration's
    runtime table ``times``: those with ``times[j]`` at or above the old
    captime.  Completed runs are reused, never rerun.

    Returns ``(kappa, usum, done, u_kappa, total, reruns)``: the new
    captime; the utility sum, ``u(min(times[j], kappa))`` over the runs
    added in run order, with ``u_kappa = u(kappa)`` computed once for the
    runs that cap again; the count of completed runs; ``total`` with each
    rerun's duration added in run order, so the ledger makes the same float
    additions as one charge per run; and the count of reruns.
    """
    capped = kappa
    kappa = 2.0 * capped
    u_kappa = u(kappa)
    usum = 0.0
    done = reruns = 0
    for t in times[:runs]:
        if t < kappa:
            usum += u(t)
            done += 1
            if t >= capped:
                # it had capped, and completes when rerun
                total += t
                reruns += 1
        else:
            # it caps again, at the new captime
            usum += u_kappa
            total += kappa
            reruns += 1
    return kappa, usum, done, u_kappa, total, reruns

"""Per-configuration bandit state and the captime doubling.

Every engine that pulls configurations one at a time (greedy selection,
round-robin, or phased) advances an arm in the round of ``OupRun.step``,
and recomputes its snapshot under a new bound context in ``OupRun._enter``.
The fields of an arm are exact whenever ``step`` is not running.
"""

from __future__ import annotations

from .bounds import FRESH
from .utility import UtilityFunction


class ArmState:
    """Mutable state for one configuration inside a run.

    An arm keeps no list of its runs, only their count and running sums.
    Run j's capped duration is ``min(times[j], kappa)`` for the oracle's
    runtime table ``times`` of the configuration, since every capped run is
    rerun at each doubling, and it completed exactly when ``times[j] <
    kappa``.  The running sums that snapshots are computed from are maintained
    append-only, and recomputed left to right from the table after a
    doubling's reruns, so they equal a left-to-right recomputation bit for
    bit (tests compare them against a from-scratch reference).  Every arm
    starts at captime 1 with the shared sentinel snapshot ``FRESH``, which
    it keeps until its first pull: snapshots are immutable, so sharing one
    is safe.
    """

    __slots__ = (
        "config",
        "m",
        "kappa",
        "snapshot",
        "eliminated",
        "_utility_sum",
        "_completed_count",
    )

    def __init__(self, config: int):
        self.config = config
        self.m = 0
        self.kappa = 1.0
        self.snapshot = FRESH
        self.eliminated = False
        self._utility_sum = 0.0
        self._completed_count = 0

    def double_captime(self, times, u: UtilityFunction) -> tuple[list[float], float]:
        """Double the captime and rerun, at the new one, every earlier run
        that had capped: of the first ``m - 1`` runs, as ``m`` already counts
        the pull under way, those with ``times[j]`` at or above the old
        captime.  Completed runs are reused, never rerun.  ``times`` is the
        configuration's runtime table, which holds every run made.  The
        utility sum is recomputed from it, ``u(min(times[j], kappa))`` for
        each earlier run in run order, with ``u(kappa)`` computed once for
        the runs that cap again.  Returns the reruns' durations in run
        order, for the caller to charge, and ``u(kappa)``."""
        capped = self.kappa
        kappa = self.kappa = 2.0 * capped
        u_kappa = u(kappa)
        charged = []
        usum = 0.0
        for t in times[: self.m - 1]:
            if t < kappa:
                usum += u(t)
                if t >= capped:
                    # it had capped, and completes when rerun
                    self._completed_count += 1
                    charged.append(t)
            else:
                # it caps again, at the new captime
                usum += u_kappa
                charged.append(kappa)
        self._utility_sum = usum
        return charged, u_kappa

"""Per-configuration bandit state and the captime doubling.

Every engine that runs configurations one pull at a time (greedy selection,
round-robin, or phased) advances an arm through the same sequence, in the
round loop of ``OupRun.step``:

1. increment the arm's observation count ``m``;
2. check the captime-doubling condition using the width at the incremented
   ``m`` and the completion fraction from the arm's previous snapshot;
3. if it fires, double the captime once and rerun only the observations that
   had capped (``ArmState.double_captime``: completed runs already reveal
   their true runtime and are reused verbatim);
4. run instance ``m`` at the current captime: the true runtime ``t`` from
   the oracle's table of the configuration, observed as ``min(t, kappa)``
   and completed when ``t < kappa``;
5. recompute the bounds (``f_hat``, ``u(kappa)``, UCB, LCB) from the arm's
   running sums, reusing the width and ``u(kappa)`` of step 2 (or, after a
   doubling, of the new captime).

At most one doubling happens per pull; if more were warranted the condition
simply fires again on the next selection of the same arm.

A pull changes the bounds of only the arm it pulled, so a round changes
nothing but that arm; the engine relies on that.  While the same arm is
pulled again and again (a streak), the round loop holds it out of the bound
index, compares it with the other arms' heap tops read once at the streak's
start instead of rescanning the pool, and keeps the arm's fields in locals.
When the streak ends, it writes them back, with one ``BoundSnapshot``, and
pushes the arm's keys into the index again.  Between streaks an arm's
fields and snapshot are exact.
"""

from __future__ import annotations

from .bounds import FRESH, BoundContext, BoundSnapshot, alpha
from .utility import UtilityFunction


class ArmState:
    """Mutable state for one configuration inside a run.

    Observations are stored per instance as their utilities only:
    ``utilities[j]`` is the utility of run j at the captime it was last run
    with.  Its capped duration is ``min(times[j], kappa)`` for the oracle's
    runtime table ``times`` of the configuration, since every capped run is
    rerun at each doubling, and it completed exactly when ``times[j] <
    kappa``.  The running sums used to rebuild snapshots are maintained
    append-only, and rebuilt left to right after a doubling's reruns, so they
    equal a left-to-right recomputation bit for bit (tests compare them
    against a from-scratch reference).  Every arm starts at
    captime 1 with the shared sentinel snapshot ``FRESH``, which it keeps
    until its first pull: snapshots are immutable, so sharing one is safe.
    """

    __slots__ = (
        "config",
        "m",
        "kappa",
        "utilities",
        "snapshot",
        "eliminated",
        "_utility_sum",
        "_completed_count",
    )

    def __init__(self, config: int):
        self.config = config
        self.m = 0
        self.kappa = 1.0
        self.utilities: list[float] = []
        self.snapshot = FRESH
        self.eliminated = False
        self._utility_sum = 0.0
        self._completed_count = 0

    def double_captime(self, times, u: UtilityFunction) -> list[float]:
        """Double the captime and rerun, at the new one, every earlier run
        that had capped: of the first ``m - 1`` runs, as ``m`` already counts
        the pull under way, those with ``times[j]`` at or above the old
        captime.  Completed runs are reused, never rerun.  ``times`` is the
        configuration's runtime table, which holds every run made.  Returns
        the reruns' durations in run order, for the caller to charge."""
        capped = self.kappa
        kappa = self.kappa = 2.0 * capped
        utilities = self.utilities
        charged = []
        for j in range(self.m - 1):
            t = times[j]
            if t < capped:
                continue
            d = t if t < kappa else kappa
            utilities[j] = u(d)
            if t < kappa:
                self._completed_count += 1
            charged.append(d)
        # the reruns break the append-only sum order; rebuild left to right
        self._utility_sum = 0.0
        for value in utilities:
            self._utility_sum += value
        return charged

    def recompute_snapshot(self, a: float, u_k: float) -> None:
        """Rebuild the snapshot of a pulled arm (``m >= 1``) from the running
        sums, with ``a = alpha(ctx, m, kappa)`` and ``u_k = u(kappa)`` at the
        arm's current ``m`` and ``kappa``."""
        f_hat = self._completed_count / self.m
        u_hat = self._utility_sum / self.m
        self.snapshot = BoundSnapshot(
            f_hat, u_k, u_hat + (1.0 - u_k) * a, u_hat - a - u_k * (1.0 - f_hat)
        )


def refresh_snapshots(arms: list[ArmState], ctx: BoundContext, u: UtilityFunction) -> None:
    """Rebuild every pulled arm's snapshot under a new ``ctx``; an arm never
    pulled keeps its fresh snapshot, which no context enters."""
    for arm in arms:
        if arm.m:
            arm.recompute_snapshot(alpha(ctx, arm.m, arm.kappa), u(arm.kappa))

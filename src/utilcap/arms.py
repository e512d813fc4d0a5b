"""Per-configuration bandit state and the shared pull-with-doubling mechanics.

Every engine that runs configurations one pull at a time (greedy selection,
round-robin, or phased) advances an arm through the same sequence:

1. increment the arm's observation count ``m``;
2. check the captime-doubling condition using the width at the incremented
   ``m`` and the completion fraction from the arm's previous snapshot;
3. if it fires, double the captime once and rerun only the observations that
   had capped (completed runs already reveal their true runtime and are
   reused verbatim);
4. run instance ``m`` at the current captime: the oracle's true runtime
   ``t``, observed as ``min(t, kappa)`` and completed when ``t < kappa``;
5. recompute the bound snapshot (``f_hat``, ``u(kappa)``, UCB, LCB) from
   the arm's running sums, reusing the width and ``u(kappa)`` of step 2
   (or, after a doubling, of the new captime).

At most one doubling happens per pull; if more were warranted the condition
simply fires again on the next selection of the same arm.

Step 5 replaces the arm's snapshot and nothing else's, so a round changes
the bounds of only the arm it pulled; the engine's bound index (``OupRun``)
relies on that: it holds the pulled arm out of its heaps and compares it
with the other arms' cached tops instead of rescanning the pool.
"""

from __future__ import annotations

from .bounds import FRESH, BoundContext, BoundSnapshot, alpha
from .oracles import RuntimeOracle
from .records import CostLedger
from .utility import UtilityFunction


class ArmState:
    """Mutable state for one configuration inside a run.

    Observations are stored per instance; ``durations[j]`` is the capped
    runtime of instance j at the captime it was last run with, and run j
    completed exactly when ``durations[j] < kappa`` (a capped run reports the
    captime itself).  The running sums used to rebuild snapshots are
    maintained append-only, and rebuilt left to right after a doubling's
    reruns, so they equal a left-to-right recomputation bit for bit (tests
    compare them against a from-scratch reference).  Every arm starts at
    captime 1 with the shared sentinel snapshot ``FRESH``, which it keeps
    until its first pull: snapshots are immutable, so sharing one is safe.
    """

    __slots__ = (
        "config",
        "m",
        "kappa",
        "durations",
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
        self.durations: list[float] = []
        self.utilities: list[float] = []
        self.snapshot = FRESH
        self.eliminated = False
        self._utility_sum = 0.0
        self._completed_count = 0

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


def pull_arm(
    arm: ArmState,
    ctx: BoundContext,
    u: UtilityFunction,
    oracle: RuntimeOracle,
    doubling_rule,
    ledger: CostLedger,
    index: int,
) -> bool:
    """Advance one arm by one observation, doubling its captime if warranted.

    ``index`` is the arm's position in its pool and keys the ledger.
    Returns whether the captime was doubled.  ``alpha`` is computed once per
    pull, and once more after a doubling; ``u(kappa)`` is the snapshot's
    after the first pull, so it is computed only then and after a doubling.
    A run is the oracle's true runtime ``t``, capped here: it observes
    ``t`` if ``t < kappa`` (completed) and ``kappa`` otherwise.
    """
    arm.m += 1
    kappa = arm.kappa
    a = alpha(ctx, arm.m, kappa)
    u_k = arm.snapshot.u_at_kappa if arm.m > 1 else u(kappa)
    # the condition sees the incremented m but the completion fraction of the
    # previous snapshot (0 for a fresh arm)
    doubled = bool(doubling_rule(a, u_k, arm.snapshot.f_hat))
    if doubled:
        capped = kappa
        kappa = arm.kappa = 2.0 * capped
        durations = arm.durations
        for j in range(arm.m - 1):
            if durations[j] < capped:
                continue  # completed runs are reused, never rerun
            t = oracle.true_runtime(arm.config, j)
            d = t if t < kappa else kappa
            durations[j] = d
            arm.utilities[j] = u(d)
            if t < kappa:
                arm._completed_count += 1
            ledger.charge(index, d)
        # the reruns break the append-only sum order; rebuild left to right
        arm._utility_sum = 0.0
        for value in arm.utilities:
            arm._utility_sum += value
        a = alpha(ctx, arm.m, kappa)
        u_k = u(kappa)
    t = oracle.true_runtime(arm.config, arm.m - 1)
    d = t if t < kappa else kappa
    value = u(d)
    arm.durations.append(d)
    arm.utilities.append(value)
    arm._utility_sum += value
    if t < kappa:
        arm._completed_count += 1
    ledger.charge(index, d)
    arm.recompute_snapshot(a, u_k)
    return doubled

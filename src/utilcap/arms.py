"""Per-configuration bandit state and the shared pull-with-doubling mechanics.

Every engine that runs configurations one pull at a time (greedy selection,
round-robin, or phased) advances an arm through the same sequence:

1. increment the arm's observation count ``m``;
2. check the captime-doubling condition using the width at the incremented
   ``m`` and the completion fraction from the arm's previous snapshot;
3. if it fires, double the captime once and rerun only the observations that
   had capped (completed runs already reveal their true runtime and are
   reused verbatim);
4. run instance ``m`` at the current captime;
5. recompute the bound snapshot from the stored observations.

At most one doubling happens per pull; if more were warranted the condition
simply fires again on the next selection of the same arm.
"""

from __future__ import annotations

import math

from .bounds import BoundContext, BoundSnapshot, alpha, make_snapshot
from .oracles import CappedObservation, RuntimeOracle
from .records import CostLedger, StepReport
from .utility import UtilityFunction


class ArmState:
    """Mutable state for one configuration inside a run.

    Observations are stored per instance; ``durations[j]`` is the capped
    runtime of instance j at the captime it was last run with.  The running
    sums used to rebuild snapshots are maintained append-only, so they equal
    a left-to-right recomputation bit for bit; ``debug_check`` verifies that
    equality against a from-scratch snapshot.
    """

    __slots__ = (
        "config",
        "m",
        "kappa",
        "durations",
        "completed",
        "utilities",
        "snapshot",
        "eliminated",
        "_utility_sum",
        "_completed_count",
    )

    def __init__(self, config: int, kappa: float = 1.0):
        self.config = config
        self.m = 0
        self.kappa = kappa
        self.durations: list[float] = []
        self.completed: list[bool] = []
        self.utilities: list[float] = []
        self.snapshot = BoundSnapshot.fresh(kappa)
        self.eliminated = False
        self._utility_sum = 0.0
        self._completed_count = 0

    def observations(self) -> list[CappedObservation]:
        return [
            CappedObservation(duration=d, completed=c)
            for d, c in zip(self.durations, self.completed)
        ]

    def _append(self, obs: CappedObservation, u: UtilityFunction) -> None:
        value = u(obs.duration)
        self.durations.append(obs.duration)
        self.completed.append(obs.completed)
        self.utilities.append(value)
        self._utility_sum += value
        self._completed_count += int(obs.completed)

    def _replace(self, j: int, obs: CappedObservation, u: UtilityFunction) -> None:
        self.durations[j] = obs.duration
        self.completed[j] = obs.completed
        self.utilities[j] = u(obs.duration)
        # replacement breaks the append-only sum order; rebuild left to right
        self._utility_sum = 0.0
        for value in self.utilities:
            self._utility_sum += value
        self._completed_count = sum(1 for c in self.completed if c)

    def recompute_snapshot(self, ctx: BoundContext, u: UtilityFunction, debug_check: bool = False) -> None:
        if self.m == 0:
            self.snapshot = BoundSnapshot.fresh(self.kappa)
            return
        f_hat = self._completed_count / self.m
        u_hat = self._utility_sum / self.m
        a = alpha(ctx, self.m, self.kappa)
        u_k = u(self.kappa)
        self.snapshot = BoundSnapshot(
            m=self.m,
            kappa=self.kappa,
            f_hat=f_hat,
            u_hat=u_hat,
            alpha=a,
            u_at_kappa=u_k,
            ucb=u_hat + (1.0 - u_k) * a,
            lcb=u_hat - a - u_k * (1.0 - f_hat),
        )
        if debug_check:
            reference = make_snapshot(ctx, self.m, self.kappa, self.observations(), u)
            if reference != self.snapshot:
                raise AssertionError(
                    f"running sums drifted from recomputation for config {self.config}: "
                    f"{self.snapshot} != {reference}"
                )


def pull_arm(
    arm: ArmState,
    ctx: BoundContext,
    u: UtilityFunction,
    oracle: RuntimeOracle,
    doubling_rule,
    ledger: CostLedger,
    index: int,
    debug_check: bool = False,
) -> StepReport:
    """Advance one arm by one observation, doubling its captime if warranted.

    ``index`` is the arm's position in its pool: it keys the ledger and is
    reported as the selected arm.
    """
    arm.m += 1
    a = alpha(ctx, arm.m, arm.kappa)
    # the condition sees the incremented m but the completion fraction of the
    # previous snapshot (0 for a fresh arm)
    doubled = bool(doubling_rule(a, u(arm.kappa), arm.snapshot.f_hat))
    runs = 0
    spent = 0.0
    if doubled:
        arm.kappa *= 2.0
        for j in range(arm.m - 1):
            if arm.completed[j]:
                continue  # completed runs are reused, never rerun
            obs = oracle.run(arm.config, j, arm.kappa)
            arm._replace(j, obs, u)
            ledger.charge(index, obs.duration)
            runs += 1
            spent += obs.duration
    obs = oracle.run(arm.config, arm.m - 1, arm.kappa)
    arm._append(obs, u)
    ledger.charge(index, obs.duration)
    runs += 1
    spent += obs.duration
    arm.recompute_snapshot(ctx, u, debug_check=debug_check)
    return StepReport(selected=index, doubled=doubled, runs_executed=runs, time_spent=spent)


def scan(arms: list[ArmState], indices) -> tuple[int, int, float]:
    """One pass over the given arms: (argmax UCB, argmax LCB, max UCB - max LCB).

    Ties break toward the lowest index, so ``indices`` must be increasing.
    The last value is the anytime guarantee over the scanned arms.
    """
    top_ucb = top_lcb = -math.inf
    best_ucb = best_lcb = None
    for i in indices:
        snapshot = arms[i].snapshot
        if snapshot.ucb > top_ucb:
            top_ucb = snapshot.ucb
            best_ucb = i
        if snapshot.lcb > top_lcb:
            top_lcb = snapshot.lcb
            best_lcb = i
    if best_ucb is None or best_lcb is None:
        raise ValueError("no arms to scan")
    return best_ucb, best_lcb, top_ucb - top_lcb

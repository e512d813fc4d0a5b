"""Greedy anytime search over a finite configuration pool.

Each round selects the surviving configuration with the largest upper
confidence bound, advances it by one observation (doubling its captime when
warranted), then eliminates every configuration whose upper bound has fallen
below the incumbent's lower bound.  The guarantee that can be read off at
any point is

    eps = max_i UCB_i  -  max_i LCB_i      (over surviving configurations)

which is non-increasing except that a captime doubling can enlarge the
width's log term; the reported guarantee is therefore also tracked as a
running minimum, together with the round at which each minimum was achieved.
"""

from __future__ import annotations

from .arms import ArmState, pull_arm, scan
from .bounds import DOUBLING_RULES, BoundContext
from .oracles import InstanceExhaustedError, RuntimeOracle
from .records import (
    BudgetSeconds,
    CostLedger,
    MaxRounds,
    RunResult,
    SingleSurvivor,
    StopRule,
    TargetEpsilon,
    TraceRow,
)
from .utility import UtilityFunction


class OupRun:
    """One sequential run over a fixed pool, and the round every engine shares.

    ``pool`` lists oracle configuration ids; arms are addressed by their
    position in the pool.  ``ctx`` may be supplied to force a particular
    bound context (used to compare against a single phase of the phased
    engine); ``eliminate=False`` disables the elimination step for the same
    purpose.  Subclasses change only how an arm is selected
    (``select_arm``) and whether a round ends with elimination
    (``_eliminates``).
    """

    procedure = "oup"

    def __init__(
        self,
        oracle: RuntimeOracle,
        utility: UtilityFunction,
        delta: float,
        *,
        doubling: str = "old",
        pool: list[int] | None = None,
        ctx: BoundContext | None = None,
        eliminate: bool = True,
    ):
        if pool is None:
            pool = list(range(oracle.n_configs))
        if not pool:
            raise ValueError("configuration pool must not be empty")
        self.oracle = oracle
        self.utility = utility
        self.ctx = ctx if ctx is not None else BoundContext(n=len(pool), delta=delta)
        self.doubling_rule = DOUBLING_RULES[doubling]
        self.eliminate = eliminate
        self.arms = [ArmState(config) for config in pool]
        self.survivors = list(range(len(self.arms)))
        self.round = 0
        self.ledger = CostLedger()
        self.trace: list[TraceRow] = []
        self.eps_min = self.guaranteed_epsilon()
        self.eps_min_round = 0

    def select_arm(self) -> int:
        if not self.survivors:
            raise RuntimeError("survivor set is empty; invariant violated")
        return scan(self.arms, self.survivors)[0]

    def incumbent(self) -> int:
        return scan(self.arms, self.survivors)[1]

    def guaranteed_epsilon(self) -> float:
        return scan(self.arms, self.survivors)[2]

    def _eliminates(self) -> bool:
        """Whether the round that just pulled an arm ends with elimination."""
        return self.eliminate

    def step(self) -> None:
        """One round: select, pull, then append the round's ``TraceRow``."""
        i = self.select_arm()
        try:
            doubled = pull_arm(
                self.arms[i],
                self.ctx,
                self.utility,
                self.oracle,
                self.doubling_rule,
                self.ledger,
                i,
            )
        except InstanceExhaustedError as err:
            err.achieved_epsilon = self.eps_min
            err.partial = self._result("instance_exhausted")
            raise
        self.round += 1
        # Elimination moves neither maximum: an eliminated arm's UCB is below
        # the incumbent's LCB, which is below the incumbent's UCB because a
        # width is always positive.  So one scan before it serves both.
        _, star, eps_raw = scan(self.arms, self.survivors)
        if self._eliminates():
            threshold = self.arms[star].snapshot.lcb
            gone = [j for j in self.survivors if self.arms[j].snapshot.ucb < threshold]
            if gone:
                for j in gone:
                    self.arms[j].eliminated = True
                self.survivors = [j for j in self.survivors if not self.arms[j].eliminated]
        if eps_raw < self.eps_min:
            self.eps_min = eps_raw
            self.eps_min_round = self.round
        self.trace.append(
            TraceRow(
                round=self.round,
                ledger_seconds=self.ledger.total_seconds,
                selected=i,
                doubled=doubled,
                eps_raw=eps_raw,
                eps_min=self.eps_min,
                survivors=len(self.survivors),
                incumbent=star,
            )
        )

    def _stop_fires(self, stop: StopRule) -> str | None:
        if isinstance(stop, TargetEpsilon):
            if self.eps_min <= stop.epsilon:
                return "target_epsilon"
        elif isinstance(stop, BudgetSeconds):
            if self.ledger.total_seconds >= stop.seconds:
                return "budget_exhausted"
        elif isinstance(stop, SingleSurvivor):
            if len(self.survivors) <= 1:
                return "single_survivor"
        elif isinstance(stop, MaxRounds):
            if self.round >= stop.rounds:
                return "max_rounds"
        else:
            raise TypeError(f"unsupported stop rule {stop!r}")
        return None

    def run_until(self, stop: StopRule) -> RunResult:
        while True:
            reason = self._stop_fires(stop)
            if reason is not None:
                return self._result(reason)
            self.step()

    def _result(self, stop_reason: str) -> RunResult:
        _, star, eps_raw = scan(self.arms, self.survivors)
        return RunResult(
            procedure=self.procedure,
            incumbent=star,
            incumbent_config=self.arms[star].config,
            incumbent_name=self.oracle.name(self.arms[star].config),
            epsilon=self.eps_min,
            rounds=self.round,
            trace=self.trace,
            ledger=self.ledger,
            stop_reason=stop_reason,
            extra={"eps_raw": eps_raw, "survivors": tuple(self.survivors)},
        )

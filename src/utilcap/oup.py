"""Greedy anytime search over a finite configuration pool.

Each round selects the surviving configuration with the largest upper
confidence bound, advances it by one observation (doubling its captime when
warranted), then eliminates every configuration whose upper bound has fallen
below the incumbent's lower bound.  The guarantee that can be read off at
any point is

    eps = max_i UCB_i  -  max_i LCB_i      (over surviving configurations)

which is non-increasing except that a captime doubling can enlarge the
width's log term; the reported guarantee is therefore also tracked as a
running minimum.

A round changes the bounds of only the arm it pulled, because the bound
context is fixed within a run (or a phase).  So the engine keeps an index of
lazy heaps over the survivors instead of scanning them.  The arm pulled last
is *held* out of the heaps: a round compares its keys with the tops of the
other survivors (its rivals), which no round changes and so are cached.  A
heap top whose arm was eliminated, is held, or whose key the arm has since
left is dropped when it surfaces.  The held arm's keys are pushed only when
another arm is pulled, or when the index is queried from outside a round.
A round that re-pulls the held arm, as the greedy engine almost always
does, touches no heap; select, incumbent and eps cost O(log n) amortized
per round rather than O(n).
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush

from .arms import ArmState, pull_arm
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


# the keys of the index heaps, as an arm's current snapshot gives them
def _neg_ucb(snapshot) -> float:
    return -snapshot.ucb


def _neg_lcb(snapshot) -> float:
    return -snapshot.lcb


def _ucb(snapshot) -> float:
    return snapshot.ucb


# the rivals' top while the held arm is the only survivor: every key of the
# held arm's entries is below it
_NO_RIVAL = (math.inf, math.inf)


class OupRun:
    """One sequential run over a fixed pool, and the round every engine shares.

    ``pool`` lists oracle configuration ids; arms are addressed by their
    position in the pool.  Subclasses change only how an arm is selected
    (``select_arm``) and whether a round ends with elimination
    (``_eliminates``, never when the class sets ``eliminate = False``).

    Code that changes snapshots or survivors other than through ``step``
    must call ``rebuild_index`` afterwards.
    """

    procedure = "oup"
    eliminate = True

    def __init__(
        self,
        oracle: RuntimeOracle,
        utility: UtilityFunction,
        delta: float,
        *,
        doubling: str = "old",
        pool: list[int] | None = None,
    ):
        if pool is None:
            pool = list(range(oracle.n_configs))
        if not pool:
            raise ValueError("configuration pool must not be empty")
        self.oracle = oracle
        self.utility = utility
        self.ctx = BoundContext(n=len(pool), delta=delta)
        self.doubling_rule = DOUBLING_RULES[doubling]
        self.arms = [ArmState(config) for config in pool]
        self.survivors = list(range(len(self.arms)))
        self.rebuild_index()
        self.ledger = CostLedger()
        self.trace: list[TraceRow] = []
        self.eps_min = self.guaranteed_epsilon()

    def rebuild_index(self) -> None:
        """Rebuild the bound index from the survivors' current snapshots.

        Entries are ``(key, index)`` tuples, so a heap breaks ties toward
        the lowest index.  Max-heaps on UCB and LCB answer the leaders; a
        min-heap on UCB, kept only by an engine that eliminates, finds the
        arms to eliminate.  Every survivor is in the heaps, so no arm is
        held.
        """
        snapshots = [(i, self.arms[i].snapshot) for i in self.survivors]
        self._by_ucb = [(-s.ucb, i) for i, s in snapshots]
        self._by_lcb = [(-s.lcb, i) for i, s in snapshots]
        self._low_ucb = [(s.ucb, i) for i, s in snapshots] if self.eliminate else []
        for heap in (self._by_ucb, self._by_lcb, self._low_ucb):
            heapify(heap)
        self._held = None
        self._forget_rivals()

    def _forget_rivals(self) -> None:
        """Drop the cached rival tops: one of them may have left its heap, or
        the held arm, which no top may be, changed."""
        self._rival_ucb = self._rival_lcb = self._rival_low = None

    def _top(self, heap: list, key) -> tuple[float, int]:
        """The heap's least live entry, dropping stale entries above it: an
        entry is stale once its arm is eliminated or held, or its key
        differs from ``key(snapshot)`` of the arm's current snapshot.  With
        an arm held and no live entry, the held arm is the only survivor,
        and the top is ``_NO_RIVAL``."""
        arms = self.arms
        held = self._held
        while heap:
            entry = heap[0]
            arm = arms[entry[1]]
            if entry[1] != held and not arm.eliminated and key(arm.snapshot) == entry[0]:
                return entry
            heappop(heap)
        if held is not None:
            return _NO_RIVAL
        raise RuntimeError("survivor set is empty; invariant violated")

    def _flush(self) -> None:
        """Push the held arm's keys, so that the heaps hold every survivor."""
        i = self._held
        if i is not None:
            self._held = None
            snapshot = self.arms[i].snapshot
            heappush(self._by_ucb, (-snapshot.ucb, i))
            heappush(self._by_lcb, (-snapshot.lcb, i))
            if self.eliminate:
                heappush(self._low_ucb, (snapshot.ucb, i))
            # stale entries pile up below the tops; compaction keeps every
            # heap within twice the survivors, at O(1) amortized per push
            limit = 2 * len(self.survivors) + 64
            if len(self._by_ucb) > limit or len(self._by_lcb) > limit or len(self._low_ucb) > limit:
                self.rebuild_index()
        self._forget_rivals()

    def leaders(self) -> tuple[int, int, float]:
        """(argmax UCB, argmax LCB, max UCB - max LCB) over the survivors,
        ties to the lowest index.  The last value is the anytime guarantee."""
        self._flush()
        top_ucb, best_ucb = self._top(self._by_ucb, _neg_ucb)
        top_lcb, best_lcb = self._top(self._by_lcb, _neg_lcb)
        # keys are negated bounds, and negation is exact
        return best_ucb, best_lcb, top_lcb - top_ucb

    def select_arm(self) -> int:
        """The survivor with the largest UCB, ties to the lowest index: the
        held arm unless a rival's key is below its own.  It reads the index
        without changing it, so it needs no flush."""
        i = self._held
        if i is None:
            return self._top(self._by_ucb, _neg_ucb)[1]
        rival = self._rival_ucb
        if rival is None:
            rival = self._rival_ucb = self._top(self._by_ucb, _neg_ucb)
        return i if (-self.arms[i].snapshot.ucb, i) < rival else rival[1]

    def incumbent(self) -> int:
        self._flush()
        return self._top(self._by_lcb, _neg_lcb)[1]

    def guaranteed_epsilon(self) -> float:
        return self.leaders()[2]

    def _eliminates(self) -> bool:
        """Whether the round that just pulled an arm ends with elimination."""
        return self.eliminate

    def step(self) -> None:
        """One round: select, pull, then append the round's ``TraceRow``.

        The pulled arm is held afterwards; every leader and elimination test
        compares its ``(key, index)`` entries with the rivals' cached tops,
        so ties still break toward the lowest index.
        """
        i = self.select_arm()
        if i != self._held:
            self._flush()
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
        self._held = i
        snapshot = self.arms[i].snapshot
        top_ucb = (-snapshot.ucb, i)
        rival = self._rival_ucb
        if rival is None:
            rival = self._rival_ucb = self._top(self._by_ucb, _neg_ucb)
        if rival < top_ucb:
            top_ucb = rival
        top_lcb = (-snapshot.lcb, i)
        rival = self._rival_lcb
        if rival is None:
            rival = self._rival_lcb = self._top(self._by_lcb, _neg_lcb)
        if rival < top_lcb:
            top_lcb = rival
        star = top_lcb[1]
        # keys are negated bounds, and negation is exact
        eps_raw = top_lcb[0] - top_ucb[0]
        # Elimination moves neither maximum: an eliminated arm's UCB is below
        # the incumbent's LCB, which is below the incumbent's UCB because a
        # width is always positive.  So the leaders read before it serve both.
        if self._eliminates():
            threshold = self.arms[star].snapshot.lcb
            own = (snapshot.ucb, i)
            gone = False
            while True:
                rival = self._rival_low
                if rival is None:
                    rival = self._rival_low = self._top(self._low_ucb, _ucb)
                if own is not None and own < rival:
                    if not own[0] < threshold:
                        break
                    # the held arm falls: it leaves no entry to pop
                    self.arms[i].eliminated = True
                    self._held = own = None
                else:
                    if not rival[0] < threshold:
                        break
                    heappop(self._low_ucb)
                    self.arms[rival[1]].eliminated = True
                self._forget_rivals()
                gone = True
            if gone:
                self.survivors = [j for j in self.survivors if not self.arms[j].eliminated]
        if eps_raw < self.eps_min:
            self.eps_min = eps_raw
        # positional: a row is built every round, and keywords take twice as long
        self.trace.append(
            TraceRow(
                len(self.trace) + 1, self.ledger.total_seconds, i, doubled, eps_raw,
                self.eps_min, len(self.survivors), star,
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
            if len(self.trace) >= stop.rounds:
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
        star = self.incumbent()
        return RunResult(
            procedure=self.procedure,
            incumbent=star,
            incumbent_config=self.arms[star].config,
            incumbent_name=self.oracle.name(self.arms[star].config),
            epsilon=self.eps_min,
            trace=self.trace,
            ledger=self.ledger,
            stop_reason=stop_reason,
        )

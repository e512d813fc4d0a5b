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

``OupRun.step`` is the round that ``up`` and ``coup`` share, and the
streak of rounds it makes; ``OupRun._start`` and ``OupRun._enter`` are the
start and the switch of bound context that they share too.
``OupRun.rebuild_index`` is the bound index the round reads the leaders
from, and ``records.StopRule`` the limits a run stops at.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush

from .arms import ArmState, double_captime
from .bounds import DOUBLING_RULES, BoundContext, BoundSnapshot, alpha, width_table
from .oracles import InstanceExhaustedError, RuntimeOracle
from .records import NO_TRACE, CostLedger, RunResult, StopRule
from .utility import UtilityFunction


# the keys of the index heaps, as an arm's current snapshot gives them
def _neg_ucb(snapshot) -> float:
    return -snapshot.ucb


def _neg_lcb(snapshot) -> float:
    return -snapshot.lcb


def _ucb(snapshot) -> float:
    return snapshot.ucb


# the rivals' top while the held arm is the only survivor: an infinite key
# at an infinite position, above every key and position of the held arm
_NO_RIVAL = (math.inf, math.inf)


class OupRun:
    """One sequential run over a fixed pool, and the round every engine shares.

    ``pool`` lists oracle configuration ids; arms are addressed by their
    position in the pool.  Subclasses change only how an arm is selected
    (``select_arm``, and ``_reselects_leader`` for when a streak may go on)
    and whether a round ends with elimination (``_eliminates``, never when
    the class sets ``eliminate = False``).

    Code that changes snapshots or survivors other than through ``step``
    must call ``rebuild_index`` afterwards.

    ``trace`` is the run's trace sink (``records.NO_TRACE``), and the run
    counts its rounds in ``rounds`` itself.
    """

    procedure = "oup"
    eliminate = True
    # the arm of the streak in progress, which the heaps leave out
    _held: int | None = None

    def __init__(
        self,
        oracle: RuntimeOracle,
        utility: UtilityFunction,
        delta: float,
        *,
        doubling: str = "old",
        pool: list[int] | None = None,
        trace=None,
    ):
        if pool is None:
            pool = list(range(oracle.n_configs))
        if not pool:
            raise ValueError("configuration pool must not be empty")
        self._start(oracle, utility, doubling, pool, trace)
        self._enter(BoundContext(n=len(pool), delta=delta))

    def _start(
        self, oracle: RuntimeOracle, utility: UtilityFunction, doubling: str, pool: list[int], trace
    ) -> None:
        """The state every engine starts from: an arm per configuration of
        ``pool``, every arm a survivor, an empty ledger and no rounds."""
        self.oracle = oracle
        self.utility = utility
        self.doubling_rule = DOUBLING_RULES[doubling]
        self.arms = [ArmState(config) for config in pool]
        self.survivors = list(range(len(self.arms)))
        self.ledger = CostLedger()
        self.trace = [] if trace is None else trace
        self.rounds = 0

    def _enter(self, ctx: BoundContext) -> None:
        """Make ``ctx`` the bound context the run reads: at a run's start,
        and at each ``coup`` phase start.

        Each pulled arm's bounds are recomputed with the width ``alpha(ctx,
        m, kappa)`` at its count and captime, as ``step`` computes them at a
        pull.  The completion fraction and ``u(kappa)`` do not depend on the
        context, so they are the ones the arm's snapshot stores; an arm
        never pulled keeps ``FRESH``, which no context enters.  Then the
        bound index is rebuilt and ``eps_min`` restarts at the guarantee the
        new bounds give.
        """
        self.ctx = ctx
        for arm in self.arms:
            m = arm.m
            if m:
                a = alpha(ctx, m, arm.kappa)
                f_hat, u_k, _, _ = arm.snapshot
                u_hat = arm._utility_sum / m
                arm.snapshot = BoundSnapshot(
                    f_hat, u_k, u_hat + (1.0 - u_k) * a, u_hat - a - u_k * (1.0 - f_hat)
                )
        self.rebuild_index()
        self.eps_min = self.guaranteed_epsilon()

    def rebuild_index(self) -> None:
        """Rebuild the bound index from the survivors' current snapshots.

        The bound index answers the selection, the incumbent and ``eps =
        max UCB - max LCB`` without a scan of the pool.  It is three lazy
        heaps of ``(key, index)`` entries over the survivors, so ties go to
        the lowest index, as a scan in index order would: max-heaps on UCB
        and LCB (keys negated, which is exact) answer the leaders, and a
        min-heap on UCB, kept only by an engine that eliminates, finds the
        arms to eliminate.  A round changes the bounds of only the arm it
        pulled, because the bound context is fixed within a run or a phase.
        So ``step`` pushes an arm's new keys when its streak ends and
        leaves the old entries in place, and ``_top`` drops an entry that
        has gone stale when it reaches a top.  The heaps hold every
        survivor whenever ``step`` is not running, so ``leaders``,
        ``incumbent`` and an exhausted run's partial result read them as
        they are.  The leaders cost O(log n) amortized per streak, not O(n)
        per round.

        The index is rebuilt when the run enters a bound context
        (``_enter``: at its start and at each ``coup`` phase start, which
        refreshes the pulled arms' bounds), and when the push at a streak's
        end makes a heap larger than twice the survivors plus 64, which
        keeps the stale entries at O(1) amortized per push.

        Survivors past the last arm, which only a ``coup`` pool has, are
        fresh positions not drawn yet; the last arm stands for them
        (``coup.CoupRun``).
        """
        arms = self.arms
        snapshots = [(i, arms[i].snapshot) for i in self.survivors[: len(arms)]]
        self._by_ucb = [(-s.ucb, i) for i, s in snapshots]
        self._by_lcb = [(-s.lcb, i) for i, s in snapshots]
        self._low_ucb = [(s.ucb, i) for i, s in snapshots] if self.eliminate else []
        for heap in (self._by_ucb, self._by_lcb, self._low_ucb):
            heapify(heap)

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

    def leaders(self) -> tuple[int, int, float]:
        """(argmax UCB, argmax LCB, max UCB - max LCB) over the survivors,
        ties to the lowest index.  The last value is the anytime guarantee."""
        top_ucb, best_ucb = self._top(self._by_ucb, _neg_ucb)
        top_lcb, best_lcb = self._top(self._by_lcb, _neg_lcb)
        # keys are negated bounds, and negation is exact
        return best_ucb, best_lcb, top_lcb - top_ucb

    def select_arm(self) -> int:
        """The survivor with the largest UCB, ties to the lowest index."""
        return self._top(self._by_ucb, _neg_ucb)[1]

    def incumbent(self) -> int:
        return self._top(self._by_lcb, _neg_lcb)[1]

    def guaranteed_epsilon(self) -> float:
        return self.leaders()[2]

    def _eliminates(self) -> bool:
        """Whether the round that just pulled an arm ends with elimination."""
        return self.eliminate

    def _reselects_leader(self) -> bool:
        """Whether a round selects the held arm whenever that arm still leads
        on UCB, so that a streak may go on: always, for greedy selection."""
        return True

    def step(self, stop: StopRule | None = None) -> None:
        """Make one round, then go on while the streak lasts.

        A round selects an arm, pulls it, reads the leaders off the bound
        index (``rebuild_index``), eliminates if the engine does, and
        appends its row to the trace sink (``records.NO_TRACE``).  A pull
        counts one more run ``m``, tests the doubling rule with the width at
        that ``m`` and the completion fraction of the arm's last snapshot,
        and if it fires doubles the captime once: ``arms.double_captime``
        reruns the capped runs among the ``m - 1`` made, and returns the
        arm's new captime, sums and ``u(kappa)`` and the ledger's total with
        the reruns charged.  If more doublings are warranted, the rule fires
        again on the arm's next pull.  Then the run reads its runtime ``t``
        from the configuration's runtime table, ``times[m - 1]``, and draws
        it (``draw``) when the table ends before it, observes ``min(t,
        kappa)``, completed when ``t < kappa``, and leaves the bounds
        ``_enter`` would compute.

        A round calls nothing to value a run or to test the rule.  The
        rule's terms (``bounds`` module) depend on ``u(kappa)`` alone, so
        they are bound at the streak's start and after each doubling, and
        the test is evaluated inline.  A completed run is valued by the
        utility's formula over the shape's constants (``utility`` module),
        inline too, and a capped run's utility is ``u(kappa)``, which the
        round already holds.  The round calls the utility only for
        ``u(kappa)`` on an arm's first pull; a doubling's reruns value the
        earlier runs through it.

        A streak is the rounds that pull one arm one after another.  The
        arm is *held* out of the heaps while it lasts, and the tops of the
        other survivors, its rivals, are read once, at its start: no round
        of the streak changes a rival's bounds.  Every leader and
        elimination test compares the held arm's UCB and LCB with the
        rivals' tops as floats, and breaks an exact tie toward the lower
        index, as the ``(key, index)`` entries order it; no bound is nan,
        so the two orders agree.  Everything else a round reads or writes
        is a local of the streak: the arm's count, captime, sums and
        bounds, its runtime table (``oracle.runtime_of``), the width table
        at its captime (``bounds.width_table``), the ledger's total, the
        count of reruns, ``eps_min``, the utility's constants and the rule's
        terms.

        The streak ends after the round that changes the selection (for
        ``up``, every round with more than one survivor), eliminates, or
        meets a ``rounds``, ``seconds`` or ``epsilon`` limit of ``stop``,
        or when the oracle runs out of instances, which raises with the
        run's partial result.  Without ``stop`` it ends after one round,
        so tests can step round by round.  The locals are then written
        back, and no field of the arm is written before: the arm gets its
        count, captime, sums and one ``BoundSnapshot``, the ledger its total
        and its run count (one run per round plus the reruns), and the heaps
        the arm's keys, unless it was eliminated.  The sums are the same
        float additions in the same order as one round per call, so rows
        and ledgers do not depend on how rounds fall into streaks.
        """
        rounds = self.rounds
        limits = stop or StopRule(rounds=rounds + 1)
        i = self._held = self.select_arm()
        eliminates = self._eliminates()
        reselects = self._reselects_leader()
        # the rivals' tops, unpacked: each bound (a key negated back, which
        # is exact), and the position that breaks an exact tie with the held
        # arm's bound as the entries' order does
        rival_ucb, rival_u = self._top(self._by_ucb, _neg_ucb)
        rival_lcb, rival_l = self._top(self._by_lcb, _neg_lcb)
        rival_ucb = -rival_ucb
        rival_lcb = -rival_lcb
        rival_low = self._top(self._low_ucb, _ucb)[0] if eliminates else None

        arm = self.arms[i]
        ctx = self.ctx
        u = self.utility
        # the shape's constants, with which the round values a completed run
        # as u(t) does (utility.UtilityShape)
        kappa0, near, far, decay = u.kappa0, u.near, u.far, u.a
        rule = self.doubling_rule
        times, draw = self.oracle.runtime_of(arm.config)
        m = arm.m
        kappa = arm.kappa
        widths = width_table(ctx, kappa)
        usum = arm._utility_sum
        done = arm._completed_count
        # the bounds of the arm's latest pull, which the next pull reads
        f_hat, u_k, ucb, lcb = arm.snapshot
        if not m:
            u_k = u(kappa)
        lead, share = rule(u_k)
        ledger = self.ledger
        total = ledger.total_seconds
        # a round makes one run; a doubling's reruns are counted apart
        reruns = 0
        eps_min = self.eps_min
        survivors = len(self.survivors)
        rounds_before = rounds
        add_row = None if self.trace is NO_TRACE else self.trace.append
        last_round, budget, target, _, _, _ = limits
        try:
            try:
                while True:
                    m += 1
                    a = widths[m]
                    # u(kappa) of this pull: the last snapshot's, unless the
                    # captime doubles
                    u_now = u_k
                    doubled = False
                    if lead * a <= u_k * (1.0 - f_hat + share * a):
                        doubled = True
                        kappa, usum, done, u_now, total, rerun = double_captime(
                            times, m - 1, kappa, u, total
                        )
                        reruns += rerun
                        lead, share = rule(u_now)
                        widths = width_table(ctx, kappa)
                        a = widths[m]
                    try:
                        t = times[m - 1]
                    except IndexError:
                        t = draw(m - 1)
                    # a capped run's utility is u(kappa), which the round holds
                    if t < kappa:
                        usum += (
                            1.0 - near * (t / kappa0) ** decay
                            if t < kappa0
                            else far * (kappa0 / t) ** decay
                        )
                        done += 1
                        total += t
                    else:
                        usum += u_now
                        total += kappa
                    # the bounds as _enter computes them, inline for speed
                    u_k = u_now
                    f_hat = done / m
                    u_hat = usum / m
                    ucb = u_hat + (1.0 - u_k) * a
                    lcb = u_hat - a - u_k * (1.0 - f_hat)
                    # the held arm's bounds against the rivals' tops, ties to
                    # the lower position; no bound is nan
                    leads = ucb > rival_ucb or (ucb == rival_ucb and i < rival_u)
                    if rival_lcb > lcb or (rival_lcb == lcb and rival_l < i):
                        top_lcb = rival_lcb
                        star = rival_l
                    else:
                        top_lcb = lcb
                        star = i
                    eps_raw = (ucb if leads else rival_ucb) - top_lcb
                    if eps_raw < eps_min:
                        eps_min = eps_raw
                    rounds += 1
                    # Elimination moves neither maximum: an eliminated arm's
                    # UCB is below the incumbent's LCB, which is below the
                    # incumbent's UCB because a width is always positive.  So
                    # the leaders read before it serve both.
                    if eliminates and (rival_low if rival_low < ucb else ucb) < top_lcb:
                        self._eliminate((ucb, i), top_lcb)
                        survivors = len(self.survivors)
                        reselects = False
                    if add_row is not None:
                        add_row((rounds, total, i, doubled, eps_raw, eps_min, survivors, star))
                    if not (reselects and leads) or (
                        rounds >= last_round or total >= budget or eps_min <= target
                    ):
                        break
            finally:
                arm.m = m
                arm.kappa = kappa
                arm._utility_sum = usum
                arm._completed_count = done
                if rounds > rounds_before:
                    arm.snapshot = BoundSnapshot(f_hat, u_k, ucb, lcb)
                ledger.total_seconds = total
                ledger.run_count += reruns + rounds - rounds_before
                self.rounds = rounds
                self.eps_min = eps_min
                self._held = None
                if not arm.eliminated:
                    snapshot = arm.snapshot
                    heappush(self._by_ucb, (-snapshot.ucb, i))
                    heappush(self._by_lcb, (-snapshot.lcb, i))
                    if self.eliminate:
                        heappush(self._low_ucb, (snapshot.ucb, i))
                # stale entries pile up below the tops; compaction keeps every
                # heap within twice the survivors, at O(1) amortized per push
                limit = 2 * len(self.survivors) + 64
                if max(len(self._by_ucb), len(self._by_lcb), len(self._low_ucb)) > limit:
                    self.rebuild_index()
        except InstanceExhaustedError as err:
            err.achieved_epsilon = self.eps_min
            err.partial = self._result("instance_exhausted")
            raise

    def _eliminate(self, own: tuple[float, int], threshold: float) -> None:
        """Eliminate every survivor whose UCB is below ``threshold``, the
        incumbent's LCB: the held arm, whose ``(ucb, index)`` is ``own``,
        and the rivals from the top of the low-UCB heap."""
        while True:
            rival = self._top(self._low_ucb, _ucb)
            if own is not None and own < rival:
                if not own[0] < threshold:
                    break
                # the held arm falls: it leaves no entry to pop
                self.arms[own[1]].eliminated = True
                own = None
            else:
                if not rival[0] < threshold:
                    break
                heappop(self._low_ucb)
                self.arms[rival[1]].eliminated = True
        self.survivors = [j for j in self.survivors if not self.arms[j].eliminated]

    def run_until(self, stop: StopRule) -> RunResult:
        self._advance(stop)
        return self._result(stop.stop_reason)

    def _advance(self, stop: StopRule) -> None:
        """Make streaks until the run meets a limit of ``stop``, which
        ``step`` takes as the limits of its rounds."""
        while not (
            self.rounds >= stop.rounds
            or self.ledger.total_seconds >= stop.seconds
            or self.eps_min <= stop.epsilon
            or len(self.survivors) <= stop.survivors
        ):
            self.step(stop)

    def _result(self, stop_reason: str) -> RunResult:
        star = self.incumbent()
        return RunResult(
            procedure=self.procedure,
            incumbent=star,
            incumbent_config=self.arms[star].config,
            incumbent_name=self.oracle.name(self.arms[star].config),
            epsilon=self.eps_min,
            trace=self.trace,
            rounds=self.rounds,
            ledger=self.ledger,
            stop_reason=stop_reason,
        )

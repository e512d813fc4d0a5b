"""Shared fixtures-in-code: benchmark pools and an instrumented greedy run.

The instrumented runner replays a greedy run round by round against analytic
ground truth, recording everything the behavioral assertions need: whether
the confidence bands held at every round (a clean execution), the first
round at which each arm's width-plus-capping term fell below its true gap,
every selection, and the soundness of the anytime guarantee.  ``scan`` is the
full pass over the survivors that the engine's bound index must agree with,
and ``make_snapshot`` the from-scratch recomputation that an arm's running
sums must agree with; it returns every bound quantity, of which an arm's
snapshot keeps four.  ``CappedObservation`` spells a capped run out as the
reference does: the engines keep only its duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import utilcap as uc
from utilcap.bounds import FRESH, BoundContext, BoundSnapshot, alpha
from utilcap.records import format_value

TOL = 1e-9


class CappedObservation(NamedTuple):
    """One run at a captime: the observed duration and whether it completed."""

    duration: float
    completed: bool

    @classmethod
    def observe(cls, true_runtime: float, captime: float) -> "CappedObservation":
        # a run landing exactly on the captime counts as capped
        if true_runtime < captime:
            return cls(true_runtime, True)
        return cls(captime, False)


def capped_run(oracle, config: int, instance: int, captime: float) -> CappedObservation:
    """The run of (config, instance) at ``captime``, capped as the engines cap it."""
    return CappedObservation.observe(oracle.true_runtime(config, instance), captime)

# 10 arms, two-point and exponential, unique optimum exp(0.5)
A2_DISTS = (
    uc.TwoPoint(0.2, 150.0, 0.95),
    uc.TwoPoint(0.5, 300.0, 0.9),
    uc.TwoPoint(1.0, 100.0, 0.8),
    uc.TwoPoint(2.0, 500.0, 0.6),
    uc.TwoPoint(5.0, 1000.0, 0.4),
    uc.Exponential(0.5),
    uc.Exponential(5.0),
    uc.Exponential(30.0),
    uc.Exponential(100.0),
    uc.Exponential(300.0),
)

# 20 arms: one strong, nine moderate, ten with true gap at least 0.3
A3_MEANS = tuple([1.0] + [8.0 + 2.0 * i for i in range(9)] + [80.0 + 35.0 * i for i in range(10)])

# 10 arms: one strong, nine far behind; used for the doubling-rule comparison
A8_MEANS = (1.0, 60.0, 80.0, 100.0, 130.0, 170.0, 220.0, 300.0, 400.0, 500.0)

UTILITY = uc.LogLaplaceUtility(60.0, 1.0)

PARAMETRIC_SCALE = 0.1
PARAMETRIC_GROWTH = 10000.0


def a2_oracle(seed: int) -> uc.SyntheticOracle:
    return uc.SyntheticOracle(list(A2_DISTS), seed=seed)


def a3_oracle(seed: int) -> uc.SyntheticOracle:
    return uc.SyntheticOracle([uc.Exponential(m) for m in A3_MEANS], seed=seed)


def a8_oracle(seed: int) -> uc.SyntheticOracle:
    return uc.SyntheticOracle([uc.Exponential(m) for m in A8_MEANS], seed=seed)


def parametric_setup(seed: int):
    oracle = uc.SyntheticOracle([], seed=seed)
    make = uc.exponential_mean_map(PARAMETRIC_SCALE, PARAMETRIC_GROWTH)
    sampler = uc.ParametricSampler(oracle, seed=seed, make_distribution=make)
    return oracle, sampler


class NoElimination(uc.OupRun):
    """The greedy round without elimination, as a coup phase runs it."""

    eliminate = False


def phase_one_engine(sampler, seed: int, delta: float, n_1: int) -> NoElimination:
    """The greedy engine over the arms a coup run sampled for its first phase,
    under that phase's bound context.  Fresh arms carry sentinel bounds that
    do not depend on the context, so setting it before the first step is
    enough."""
    oracle = uc.SyntheticOracle([sampler.make_distribution(t) for t in sampler.thetas], seed=seed)
    run = NoElimination(oracle, UTILITY, delta, doubling="new")
    run.ctx = uc.BoundContext(n=n_1, delta=delta, phase=1)
    return run


@dataclass
class InstrumentedRun:
    result: uc.RunResult
    clean: bool
    optimal_surviving: bool
    trigger_round: dict[int, int]
    stop_selection_ok: bool
    eps_sound: bool
    width_bound_ok: bool
    selections: list[int] = field(default_factory=list)


def instrumented_oup(
    oracle: uc.SyntheticOracle,
    utility,
    delta: float,
    doubling: str,
    target_epsilon: float,
    max_rounds: int = 200_000,
) -> InstrumentedRun:
    """Run the greedy engine to a target guarantee under full ground-truth watch."""
    run = uc.OupRun(oracle, utility, delta, doubling=doubling)
    true_u = oracle.true_utilities(utility)
    best_u = max(true_u)
    gaps = [best_u - v for v in true_u]
    optimal_arm = true_u.index(best_u)

    truth_at: dict[tuple[int, float], tuple[float, float]] = {}

    def truth(arm_index: int, kappa: float) -> tuple[float, float]:
        key = (arm_index, kappa)
        got = truth_at.get(key)
        if got is None:
            got = oracle.true_capped_utility(run.arms[arm_index].config, utility, kappa)
            truth_at[key] = got
        return got

    trigger_round: dict[int, int] = {}
    clean = True
    stop_selection_ok = True
    eps_sound = True
    width_bound_ok = True
    selections: list[int] = []

    while run.eps_min > target_epsilon and len(run.trace) < max_rounds:
        upcoming = len(run.trace) + 1
        # trigger check at round start, on the state left by the previous round
        for i, arm in enumerate(run.arms):
            if arm.m == 0 or i in trigger_round:
                continue
            a = alpha(run.ctx, arm.m, arm.kappa)
            u_k = utility(arm.kappa)
            f_true = truth(i, arm.kappa)[1]
            if 2.0 * a + u_k * (1.0 - f_true) < gaps[i]:
                trigger_round[i] = upcoming
        run.step()
        selected = run.trace[-1].selected
        selections.append(selected)
        if selected in trigger_round and upcoming >= trigger_round[selected]:
            stop_selection_ok = False
        # clean bands and width bound for every arm with observations
        for i, arm in enumerate(run.arms):
            if arm.m == 0:
                continue
            snap = arm.snapshot
            # the width and mean utility as the arm's last pull computed them
            a = alpha(run.ctx, arm.m, arm.kappa)
            u_hat = arm._utility_sum / arm.m
            u_true, f_true = truth(i, arm.kappa)
            if (
                abs(snap.f_hat - f_true) > a + TOL
                or abs(u_hat - u_true) > (1.0 - snap.u_at_kappa) * a + TOL
            ):
                clean = False
            if snap.ucb - snap.lcb > 2.0 * a + snap.u_at_kappa * (1.0 - f_true) + TOL:
                width_bound_ok = False
        star = run.incumbent()
        if gaps[star] > run.guaranteed_epsilon() + TOL:
            eps_sound = False

    result = run._result("target_epsilon" if run.eps_min <= target_epsilon else "max_rounds")
    optimal_surviving = optimal_arm in run.survivors
    return InstrumentedRun(
        result=result,
        clean=clean,
        optimal_surviving=optimal_surviving,
        trigger_round=trigger_round,
        stop_selection_ok=stop_selection_ok,
        eps_sound=eps_sound,
        width_bound_ok=width_bound_ok,
        selections=selections,
    )


def trace_lines(rows) -> list[str]:
    """Trace rows as the trace CSV writes them, every value through ``format_value``."""
    return [",".join(format_value(value) for value in row) for row in rows]


def scan(arms, indices) -> tuple[int, int, float]:
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


def observations(arm) -> list[CappedObservation]:
    """An arm's stored runs as observations: a run completed exactly when its
    duration is below the arm's captime."""
    return [CappedObservation(d, d < arm.kappa) for d in arm.durations]


def empirical_cdf_at_cap(observations: list[CappedObservation]) -> float:
    """Fraction of runs that completed below the captime."""
    if not observations:
        raise ValueError("empirical completion fraction needs at least one observation")
    return sum(1 for o in observations if o.completed) / len(observations)


def empirical_utility(observations: list[CappedObservation], u) -> float:
    """Mean utility of the observed (capped) durations."""
    if not observations:
        raise ValueError("empirical utility needs at least one observation")
    return sum(u(o.duration) for o in observations) / len(observations)


class ReferenceSnapshot(NamedTuple):
    """Every bound quantity of one configuration, recomputed from scratch."""

    m: int
    kappa: float
    f_hat: float
    u_hat: float
    alpha: float
    u_at_kappa: float
    ucb: float
    lcb: float

    def engine(self) -> BoundSnapshot:
        """The four fields an arm's snapshot keeps: ``FRESH`` itself for a
        configuration never run."""
        if self.m == 0:
            return FRESH
        return BoundSnapshot(self.f_hat, self.u_at_kappa, self.ucb, self.lcb)


def make_snapshot(
    ctx: BoundContext,
    m: int,
    kappa: float,
    observations: list[CappedObservation],
    u,
) -> ReferenceSnapshot:
    """Recompute all bound quantities from scratch for m observations at kappa."""
    if m == 0:
        if observations:
            raise ValueError("m = 0 but observations were supplied")
        return ReferenceSnapshot(
            m=0, kappa=kappa, f_hat=0.0, u_hat=0.0, alpha=math.nan, u_at_kappa=math.nan,
            ucb=1.0, lcb=0.0,
        )
    if len(observations) != m:
        raise ValueError(f"expected {m} observations, got {len(observations)}")
    f_hat = empirical_cdf_at_cap(observations)
    u_hat = empirical_utility(observations, u)
    a = alpha(ctx, m, kappa)
    u_k = u(kappa)
    return ReferenceSnapshot(
        m=m,
        kappa=kappa,
        f_hat=f_hat,
        u_hat=u_hat,
        alpha=a,
        u_at_kappa=u_k,
        ucb=u_hat + (1.0 - u_k) * a,
        lcb=u_hat - a - u_k * (1.0 - f_hat),
    )

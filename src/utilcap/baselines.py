"""Reference procedures: round-robin elimination, fixed-sample Hoeffding, and
successive halving.

The round-robin procedure sweeps every surviving configuration in turn,
advancing each by one observation with the same per-arm mechanics as the
greedy engine (captime doubling included), and eliminates provably worse
configurations only at sweep boundaries, which keeps observation counts
balanced to within one inside a sweep.  It reports the same anytime
guarantee as the greedy engine so traces are directly comparable.

The naive procedure picks a captime high enough that the utility lost to
capping is at most eps/2, takes enough samples per configuration for the
sampling error to be at most eps/2 at confidence delta/n each, and returns
the best empirical mean; no adaptivity, one certificate at the end.

Successive halving ranks by empirical mean utility at a fixed captime,
keeping the top 1/eta of configurations each round while doubling the
per-survivor cumulative sample count; runs are reused across rounds, so a
budget B is consumed exactly when it divides the round structure evenly.
"""

from __future__ import annotations

import math

from .oracles import RuntimeOracle
from .oup import OupRun
from .records import NO_TRACE, CostLedger, RunResult
from .utility import UtilityFunction


class UpRun(OupRun):
    """Round-robin sweeps with sweep-boundary elimination."""

    procedure = "up"
    # the arms left in the current sweep, last to be selected first, so a
    # selection pops the end and shifts nothing; empty starts the next sweep
    _sweep = ()

    def select_arm(self) -> int:
        if not self._sweep:
            self._sweep = self.survivors[::-1]
        return self._sweep.pop()

    def _eliminates(self) -> bool:
        # sweep boundary: every survivor has been advanced once
        return not self._sweep

    def _reselects_leader(self) -> bool:
        # a sweep over the only survivor selects it again, and ends at once
        return len(self.survivors) == 1


# ---------------------------------------------------------------------------
# Fixed plans: naive and successive halving
# ---------------------------------------------------------------------------


def run_plan(
    procedure: str,
    oracle: RuntimeOracle,
    utility: UtilityFunction,
    kappa: float,
    stages: list[tuple[int, int]],
    epsilon: float,
    trace=None,
) -> RunResult:
    """A run of a fixed plan at captime ``kappa``, the run of both naive and
    successive halving; its rows go to the trace sink ``trace``
    (``records.NO_TRACE``).

    Each ``(target, keep)`` stage tops every surviving arm up to ``target``
    runs, in position order, then keeps the ``keep`` best by mean (ties to
    the lowest position); the incumbent heads the last stage's ranking.
    Arms are configuration ids; run j of an arm is instance j, read from the
    oracle's runtime table, which is grown to ``target`` before the arm's
    first run.  A capped run's utility is ``u(kappa)``, computed once.  Each
    run is a round: it appends one trace row, with eps 1.0 and the best
    empirical mean among the survivors as the incumbent, unless the run
    keeps no rows.
    """
    n = oracle.n_configs
    trace = [] if trace is None else trace
    sums = [0.0] * n
    counts = [0] * n

    def rank(i: int) -> tuple[float, int]:
        return (sums[i] / counts[i] if counts[i] else -math.inf, -i)

    u = utility.__call__
    u_kappa = u(kappa)
    add_row = None if trace is NO_TRACE else trace.append
    total = 0.0
    rounds = 0
    alive = list(range(n))
    for target, keep in stages:
        survivors = len(alive)
        for a in alive:
            # no other arm changes while ``a`` is sampled: rank the others once
            # (below every mean when there are none) for the rows, and keep the
            # arm's sums in locals until it is done
            if add_row is not None:
                top, other = max((rank(i) for i in alive if i != a), default=(-math.inf, 1))
                other = -other
            # the plan is known, so the runtime table is grown to it at once
            times, draw = oracle.runtime_of(a)
            if target > len(times):
                draw(target - 1)
            count, sum_a = counts[a], sums[a]
            while count < target:
                t = times[count]
                if t < kappa:
                    total += t
                    sum_a += u(t)
                else:
                    total += kappa
                    sum_a += u_kappa
                count += 1
                rounds += 1
                if add_row is not None:
                    # (mean, -a) > (top, -other), as floats; no mean is nan
                    mean = sum_a / count
                    best = a if mean > top or (mean == top and a < other) else other
                    add_row((rounds, total, a, False, 1.0, 1.0, survivors, best))
            counts[a], sums[a] = count, sum_a
        ranked = sorted(alive, key=rank, reverse=True)
        alive = sorted(ranked[:keep])
    ledger = CostLedger()
    ledger.total_seconds = total
    # a fixed plan makes one run per round and reruns nothing
    ledger.run_count = rounds
    winner = ranked[0]
    return RunResult(
        procedure=procedure,
        incumbent=winner,
        incumbent_config=winner,
        incumbent_name=oracle.name(winner),
        epsilon=epsilon,
        trace=trace,
        rounds=rounds,
        ledger=ledger,
        stop_reason="completed",
    )


# the most runs a naive or successive-halving plan may make: at one trace row
# per run, 10^8 runs already write more than 6 GB of trace
MAX_PLANNED_RUNS = 10**8


def naive_plan(n: int, u: UtilityFunction, epsilon: float, delta: float) -> tuple[float, int]:
    """The captime and per-configuration sample count of a naive run over
    ``n`` configurations; raises ``ValueError`` for a plan no run can finish.

    The captime is the smallest power of two, up to 2^200, at which utility
    is at most epsilon/2.  The count is the two-sided Hoeffding count: eps/2
    sampling error at confidence delta/n per configuration, alongside the
    eps/2 capping error.
    """
    kappa = 1.0
    while not u(kappa) <= epsilon / 2.0:
        if kappa == 2.0 ** 200:
            raise ValueError(
                f"utility never falls to {epsilon / 2.0} below captime 2^200; "
                f"the capping error cannot be brought under epsilon/2"
            )
        kappa *= 2.0
    arg = 2.0 * n / delta
    # as in bounds.alpha: only an overflowing argument sums its logs
    log_arg = math.log(arg) if arg < math.inf else math.log(2.0 * n) - math.log(delta)
    # eps^2 can underflow to 0
    count = 2.0 / epsilon ** 2 * log_arg if epsilon ** 2 else math.inf
    m = math.ceil(count) if count < math.inf else count
    if n * m > MAX_PLANNED_RUNS:
        raise ValueError(
            f"naive plans {n * m} runs ({m} per configuration), more than the "
            f"{MAX_PLANNED_RUNS} it can finish; raise the target epsilon"
        )
    return kappa, m


def naive_run(
    oracle: RuntimeOracle, utility: UtilityFunction, epsilon: float, delta: float, trace=None
) -> RunResult:
    """A naive run: one stage that runs every configuration ``m`` times at
    the captime ``naive_plan`` gives."""
    n = oracle.n_configs
    kappa_bar, m = naive_plan(n, utility, epsilon, delta)
    result = run_plan("naive", oracle, utility, kappa_bar, [(m, n)], epsilon, trace)
    # the certificate holds only once every configuration has all m samples:
    # it is the last row's eps_raw and eps_min
    trace = result.trace
    if trace is not NO_TRACE:
        trace[-1] = trace[-1][:4] + (epsilon, epsilon) + trace[-1][6:]
    return result


# ---------------------------------------------------------------------------
# Successive halving
# ---------------------------------------------------------------------------


def halving_plan(n: int, budget: int, eta: int, kappa: float) -> tuple[list[int], int]:
    """Survivor sizes per round and the unit rate of a successive-halving
    run over ``n`` configurations; raises ``ValueError`` for a plan no run
    can finish.

    Sizes shrink by a factor eta down to a final singleton round; the
    per-survivor cumulative count grows by eta each round with run reuse,
    so round k at unit rate r costs ``sizes[k] * (r eta^k - r eta^(k-1))``
    fresh runs beyond the first round's ``n * r``.  The rate is the number
    of whole passes over that structure the budget buys.
    """
    if eta < 2:
        raise ValueError(f"elimination factor must be at least 2, got {eta}")
    if not kappa > 0:
        raise ValueError(f"sh captime must be positive, got {kappa}")
    sizes = [n]
    while sizes[-1] > 1:
        sizes.append(max(1, sizes[-1] // eta))
    unit_cost = n + sum(sizes[k] * (eta ** k - eta ** (k - 1)) for k in range(1, len(sizes)))
    rate = budget // unit_cost
    if rate < 1:
        raise ValueError(
            f"budget {budget} is too small: one pass over the round structure "
            f"costs {unit_cost} runs"
        )
    if rate * unit_cost > MAX_PLANNED_RUNS:
        raise ValueError(
            f"sh plans {rate * unit_cost} runs, more than the "
            f"{MAX_PLANNED_RUNS} it can finish; lower the budget"
        )
    return sizes, rate


def successive_halving(
    oracle: RuntimeOracle,
    utility: UtilityFunction,
    budget: int,
    eta: int,
    kappa: float,
    trace=None,
) -> RunResult:
    """A successive-halving run: stage k tops the survivors up to
    ``rate * eta^k`` runs and keeps as many as the next stage has."""
    sizes, rate = halving_plan(oracle.n_configs, budget, eta, kappa)
    stages = [(rate * eta ** k, keep) for k, keep in enumerate(sizes[1:] + [1])]
    return run_plan("sh", oracle, utility, kappa, stages, math.nan, trace)

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
from .records import CostLedger, RunResult
from .utility import UtilityFunction


class UpRun(OupRun):
    """Round-robin sweeps with sweep-boundary elimination."""

    procedure = "up"
    # the arms left in the current sweep; empty starts the next sweep
    _sweep = ()

    def select_arm(self) -> int:
        if not self._sweep:
            self._sweep = list(self.survivors)
        return self._sweep.pop(0)

    def _eliminates(self) -> bool:
        # sweep boundary: every survivor has been advanced once
        return not self._sweep

    def _reselects_leader(self) -> bool:
        # a sweep over the only survivor selects it again, and ends at once
        return len(self.survivors) == 1


# ---------------------------------------------------------------------------
# Naive fixed-sample procedure
# ---------------------------------------------------------------------------


def _sample_to(
    oracle: RuntimeOracle,
    utility: UtilityFunction,
    kappa: float,
    alive: list[int],
    target: int,
    sums: list[float],
    counts: list[int],
    ledger: CostLedger,
    trace: list[tuple],
) -> None:
    """Top each arm in ``alive`` up to ``target`` runs at captime ``kappa``;
    the sampling loop of both naive and successive halving.

    Arms are configuration ids; run j of an arm is instance j, read from
    the oracle's runtime table, which is grown to ``target`` before the
    arm's first run.  Appends one trace row per run, with eps 1.0 and the
    best empirical mean among ``alive`` as the incumbent (ties to the
    lowest position).
    """
    def rank(i: int) -> tuple[float, int]:
        return (sums[i] / counts[i] if counts[i] else -math.inf, -i)

    u = utility.__call__
    add_row = trace.append
    rows = len(trace)
    survivors = len(alive)
    for a in alive:
        count = counts[a]
        if count >= target:
            continue
        # no other arm changes while ``a`` is sampled: rank the others once
        # (below every mean when there are none), and keep the arm's and the
        # ledger's sums in locals until it is done
        top, other = max((rank(i) for i in alive if i != a), default=(-math.inf, 1))
        other = -other
        # the plan is known, so the runtime table is grown to it at once
        times, draw = oracle.runtime_of(a)
        if target > len(times):
            draw(target - 1)
        total = ledger.total_seconds
        sum_a = sums[a]
        runs = ledger.run_count
        while count < target:
            t = times[count]
            d = t if t < kappa else kappa
            total += d
            runs += 1
            sum_a += u(d)
            count += 1
            rows += 1
            # (mean, -a) > (top, -other), as floats; no mean is nan
            mean = sum_a / count
            best = a if mean > top or (mean == top and a < other) else other
            add_row((rows, total, a, False, 1.0, 1.0, survivors, best))
        sums[a] = sum_a
        counts[a] = count
        ledger.total_seconds = total
        ledger.run_count = runs


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
    oracle: RuntimeOracle,
    utility: UtilityFunction,
    epsilon: float,
    delta: float,
) -> RunResult:
    n = oracle.n_configs
    kappa_bar, m = naive_plan(n, utility, epsilon, delta)
    ledger = CostLedger()
    trace: list[tuple] = []
    sums = [0.0] * n
    counts = [0] * n
    _sample_to(oracle, utility, kappa_bar, list(range(n)), m, sums, counts, ledger, trace)
    # the certificate holds only once every configuration has all m samples:
    # it is the last row's eps_raw and eps_min
    last = trace[-1]
    trace[-1] = last[:4] + (epsilon, epsilon) + last[6:]
    best = last[7]
    return RunResult(
        procedure="naive",
        incumbent=best,
        incumbent_config=best,
        incumbent_name=oracle.name(best),
        epsilon=epsilon,
        trace=trace,
        ledger=ledger,
        stop_reason="completed",
    )


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
) -> RunResult:
    n = oracle.n_configs
    sizes, rate = halving_plan(n, budget, eta, kappa)
    ledger = CostLedger()
    trace: list[tuple] = []
    sums = [0.0] * n
    counts = [0] * n
    alive = list(range(n))
    for k in range(len(sizes)):
        _sample_to(oracle, utility, kappa, alive, rate * eta ** k, sums, counts, ledger, trace)
        if k + 1 < len(sizes):
            keep = sizes[k + 1]
            alive = sorted(
                sorted(alive), key=lambda i: (-(sums[i] / counts[i]), i)
            )[:keep]
            alive.sort()
    winner = alive[0]
    return RunResult(
        procedure="sh",
        incumbent=winner,
        incumbent_config=winner,
        incumbent_name=oracle.name(winner),
        epsilon=math.nan,
        trace=trace,
        ledger=ledger,
        stop_reason="completed",
    )

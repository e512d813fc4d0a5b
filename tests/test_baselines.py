import collections
import math

import pytest

import utilcap as uc

from helpers import UTILITY, a8_oracle, capped_run, true_runtimes

U60 = uc.LogLaplaceUtility(60.0, 1.0)


def small_oracle(seed=0):
    return uc.SyntheticOracle(
        [uc.Exponential(1.0), uc.Exponential(50.0), uc.Exponential(150.0)], seed=seed
    )


# ---------------------------------------------------------------------------
# Round-robin procedure
# ---------------------------------------------------------------------------


def test_round_robin_selection_order():
    run = uc.UpRun(small_oracle(), U60, 0.1)
    order = []
    for _ in range(8):
        run.step()
        order.append(uc.TraceRow(*run.trace[-1]).selected)
    assert order == [0, 1, 2, 0, 1, 2, 0, 1]


def test_eliminations_happen_only_at_sweep_boundaries():
    run = uc.UpRun(a8_oracle(0), U60, 0.1, doubling="new")
    n = len(run.arms)
    for i in range(n * 40):
        survivors_before = len(run.survivors)
        run.step()
        mid_sweep = (i + 1) % n != 0 if len(run.survivors) == n else None
        if uc.TraceRow(*run.trace[-1]).survivors < survivors_before:
            # only the last pull of a sweep may eliminate
            assert run._sweep == []


def test_sample_counts_balanced_within_one_throughout():
    run = uc.UpRun(a8_oracle(1), U60, 0.1, doubling="new")
    boundaries = 0
    while boundaries < 30:
        run.step()
        counts = [run.arms[i].m for i in run.survivors]
        assert max(counts) - min(counts) <= 1
        if not run._sweep:
            boundaries += 1


def test_up_reports_same_guarantee_shape_as_greedy():
    run = uc.UpRun(small_oracle(), U60, 0.1, doubling="new")
    for _ in range(50):
        run.step()
    top_ucb = max(run.arms[i].snapshot.ucb for i in run.survivors)
    top_lcb = max(run.arms[i].snapshot.lcb for i in run.survivors)
    assert run.guaranteed_epsilon() == top_ucb - top_lcb


def test_up_runs_bad_arm_at_least_as_much_as_greedy():
    # round-robin keeps running what greedy selection abandons
    oracle = lambda: uc.SyntheticOracle(
        [uc.TwoPoint(0.1, 5.0, 0.9), uc.TwoPoint(0.1, 5.0, 0.05)], seed=2
    )
    utility = uc.UniformUtility(4.0)
    greedy = uc.OupRun(oracle(), utility, 0.25, doubling="new")
    greedy.run_until(uc.StopRule(epsilon=0.3))
    rr = uc.UpRun(oracle(), utility, 0.25, doubling="new")
    rr.run_until(uc.StopRule(epsilon=0.3))
    assert rr.arms[1].m >= greedy.arms[1].m


def test_up_stop_rules_and_determinism():
    result = uc.UpRun(small_oracle(), U60, 0.1).run_until(uc.StopRule(seconds=0.0))
    assert result.trace == [] and result.epsilon == 1.0
    a = uc.UpRun(small_oracle(3), U60, 0.1, doubling="new").run_until(uc.StopRule(rounds=120))
    b = uc.UpRun(small_oracle(3), U60, 0.1, doubling="new").run_until(uc.StopRule(rounds=120))
    assert a.trace == b.trace


# ---------------------------------------------------------------------------
# Naive fixed-sample procedure
# ---------------------------------------------------------------------------


def captime(u, epsilon):
    return uc.baselines.naive_plan(1, u, epsilon, 0.1)[0]


def sample_count(n, delta, epsilon):
    return uc.baselines.naive_plan(n, uc.UniformUtility(60.0), epsilon, delta)[1]


def test_naive_captime_scan():
    assert captime(uc.UniformUtility(60.0), 0.2) == 64.0
    assert captime(uc.UniformUtility(1.0), 2.0) == 1.0
    # log-Laplace tail: u(k) = 30/k <= 0.05 first at k = 1024
    assert captime(U60, 0.1) == 1024.0


def test_naive_captime_unreachable():
    with pytest.raises(ValueError, match="cannot"):
        captime(U60, 1e-70)


def test_naive_sample_count_examples():
    assert sample_count(10, 0.1, 0.2) == 265
    assert sample_count(20, 0.1, 0.2) == 300
    assert sample_count(10, 0.1, 2.0) == math.ceil(
        0.5 * math.log(2 * 10 / 0.1)
    )


def test_naive_run_shape():
    oracle = small_oracle(5)
    result = uc.naive_run(oracle, U60, 0.4, 0.1)
    kappa, m = uc.baselines.naive_plan(3, U60, 0.4, 0.1)
    assert result.ledger.run_count == 3 * m
    selected = [uc.TraceRow(*row).selected for row in result.trace]
    assert selected == [i for i in range(3) for _ in range(m)]
    # runs are pure functions of (seed, config, instance): replaying them at
    # the fixed captime gives the means and the seconds the run saw
    durations = [[capped_run(oracle, i, j, kappa).duration for j in range(m)] for i in range(3)]
    means = [sum(U60(d) for d in row) / m for row in durations]
    assert result.incumbent == max(range(3), key=lambda i: means[i])
    # the ledger charges the runs in the order of the rows, arm by arm
    total = 0.0
    for row in durations:
        for d in row:
            total += d
    assert result.ledger.total_seconds == total
    assert result.epsilon == 0.4
    assert uc.TraceRow(*result.trace[-1]).eps_min == 0.4
    assert all(uc.TraceRow(*row).eps_min == 1.0 for row in result.trace[:-1])


@pytest.mark.parametrize("target", [255, 256, 257, 513])
def test_sampling_reads_every_planned_run_at_a_block_boundary(target):
    # the runtime table is grown to the plan before the first run, and a
    # synthetic table grows by blocks of 128: a plan one past a block reads
    # the first runtime of the next one
    oracle = small_oracle(9)
    result = uc.baselines.run_plan("naive", oracle, U60, 4.0, [(target, 3)], 0.4)
    trace = result.trace
    assert result.rounds == len(trace) == result.ledger.run_count == 3 * target
    selected = [uc.TraceRow(*row).selected for row in trace]
    assert selected == [0] * target + [1] * target + [2] * target
    capped = [[min(t, 4.0) for t in true_runtimes(oracle, c, target)] for c in range(3)]
    means = [sum(U60(d) for d in row) / target for row in capped]
    assert result.incumbent == max(range(3), key=lambda i: (means[i], -i))
    total = 0.0
    for row in capped:
        for d in row:
            total += d
    assert result.ledger.total_seconds == total


def test_sampling_breaks_exact_mean_ties_toward_the_lowest_position():
    # configurations 0 and 2 run alike, so their means tie exactly: the
    # incumbent is the lower position, both when that is another arm (while
    # 2 is sampled) and when it is the arm being sampled (0, in the second
    # stage, against 2's mean); the ranking that keeps two arms, and the one
    # that names the winner, break the tie the same way
    matrix = ((1.0,) * 6, (5.0,) * 6, (1.0,) * 6)
    oracle = uc.MatrixOracle(matrix, ("a", "b", "c"), tuple(range(6)))
    result = uc.baselines.run_plan("sh", oracle, U60, 8.0, [(3, 2), (6, 1)], math.nan)
    rows = [uc.TraceRow(*row) for row in result.trace]
    assert [row.selected for row in rows] == [0] * 3 + [1] * 3 + [2] * 3 + [0] * 3 + [2] * 3
    assert [row.incumbent for row in rows] == [0] * 15
    assert [row.survivors for row in rows] == [3] * 9 + [2] * 6
    assert result.incumbent == 0


@pytest.mark.parametrize("procedure", ["naive", "sh"])
def test_fixed_plans_fill_a_bounded_sink_as_a_list(procedure):
    # a validation trial hands the run a deque that keeps only the last row
    def run(trace):
        if procedure == "naive":
            return uc.naive_run(small_oracle(4), U60, 0.5, 0.1, trace)
        return uc.successive_halving(small_oracle(4), U60, 64, 2, 8.0, trace)

    full = run(None)
    last = run(collections.deque(maxlen=1))
    assert isinstance(full.trace, list) and list(last.trace) == full.trace[-1:]
    assert last.trace[-1][4] == (0.5 if procedure == "naive" else 1.0)

    def fields(result):
        ledger = result.ledger
        return (result.procedure, result.incumbent, result.incumbent_config,
                result.incumbent_name, repr(result.epsilon), result.rounds,
                ledger.total_seconds, ledger.run_count, result.stop_reason)

    assert fields(last) == fields(full)


def test_naive_and_halving_report_the_first_missing_instance():
    # both grow an arm's runtime table to its planned count before its first
    # run; on a matrix too short for the plan, the error names the first
    # instance missing, as a run reading instance by instance would
    matrix = ((0.5,) * 5, (2.0,) * 5)
    oracle = uc.MatrixOracle(matrix, ("a", "b"), tuple(range(5)))
    _, m = uc.baselines.naive_plan(2, U60, 0.4, 0.1)
    assert m > 5
    with pytest.raises(uc.InstanceExhaustedError) as err:
        uc.naive_run(oracle, U60, 0.4, 0.1)
    assert (err.value.config, err.value.instance, err.value.available) == (0, 5, 5)
    with pytest.raises(uc.InstanceExhaustedError) as err:
        uc.successive_halving(oracle, U60, 64, 2, 1.0)
    assert (err.value.config, err.value.instance, err.value.available) == (0, 5, 5)


def test_naive_refuses_a_plan_it_cannot_finish(monkeypatch):
    # the cap admits a plan of exactly its size and refuses one run more;
    # test_bad_spec_exits_two checks the real cap end to end
    planned = 3 * sample_count(3, 0.1, 0.4)
    monkeypatch.setattr(uc.baselines, "MAX_PLANNED_RUNS", planned)
    assert uc.naive_run(small_oracle(5), U60, 0.4, 0.1).ledger.run_count == planned
    monkeypatch.setattr(uc.baselines, "MAX_PLANNED_RUNS", planned - 1)
    with pytest.raises(ValueError, match=f"naive plans {planned} runs"):
        uc.naive_run(small_oracle(5), U60, 0.4, 0.1)


def test_naive_is_deterministic():
    a = uc.naive_run(small_oracle(4), U60, 0.5, 0.1)
    b = uc.naive_run(small_oracle(4), U60, 0.5, 0.1)
    assert a.trace == b.trace and a.incumbent == b.incumbent


# ---------------------------------------------------------------------------
# Successive halving
# ---------------------------------------------------------------------------


def test_halving_budget_arithmetic():
    # one pass over sizes 4, 2, 1 costs 4 + 2 * (2 - 1) + 1 * (4 - 2) = 8 runs
    assert uc.baselines.halving_plan(4, 8, 2, 64.0) == ([4, 2, 1], 1)
    with pytest.raises(ValueError, match="costs 8 runs"):
        uc.baselines.halving_plan(4, 7, 2, 64.0)
    oracle = uc.SyntheticOracle(
        [uc.TwoPoint(t, t, 1.0) for t in (10.0, 2.0, 30.0, 20.0)], seed=0
    )
    result = uc.successive_halving(oracle, U60, budget=16, eta=2, kappa=64.0)
    # survivors per run: 4 arms to 2 runs each, 2 arms to 4, 1 arm to 8
    assert [uc.TraceRow(*row).survivors for row in result.trace] == [4] * 8 + [2] * 4 + [1] * 4
    assert len(result.trace) == 16


def test_halving_single_arm_spends_its_share():
    oracle = uc.SyntheticOracle([uc.TwoPoint(1.0, 1.0, 1.0)], seed=0)
    result = uc.successive_halving(oracle, U60, budget=7, eta=2, kappa=8.0)
    assert [uc.TraceRow(*row).survivors for row in result.trace] == [1] * 7
    assert len(result.trace) == 7


def test_halving_returns_argmax_on_deterministic_runtimes():
    # constant runtimes: empirical means are exact, the fastest arm must win
    times = (12.0, 3.0, 25.0, 7.0, 40.0)
    oracle = uc.SyntheticOracle([uc.TwoPoint(t, t, 1.0) for t in times], seed=0)
    result = uc.successive_halving(oracle, U60, budget=200, eta=2, kappa=64.0)
    assert result.incumbent == times.index(min(times))


def test_halving_budget_too_small():
    oracle = small_oracle()
    with pytest.raises(ValueError, match="too small"):
        uc.successive_halving(oracle, U60, budget=3, eta=2, kappa=8.0)


def test_halving_refuses_a_plan_it_cannot_finish(monkeypatch):
    # the cap admits a plan of exactly its size and refuses one run more;
    # test_bad_spec_exits_two checks the real cap end to end
    oracle = uc.SyntheticOracle([uc.TwoPoint(t, t, 1.0) for t in (10.0, 2.0, 30.0, 20.0)], seed=0)
    monkeypatch.setattr(uc.baselines, "MAX_PLANNED_RUNS", 16)
    assert uc.successive_halving(oracle, U60, budget=16, eta=2, kappa=64.0).ledger.run_count == 16
    monkeypatch.setattr(uc.baselines, "MAX_PLANNED_RUNS", 15)
    with pytest.raises(ValueError, match="sh plans 16 runs"):
        uc.successive_halving(oracle, U60, budget=16, eta=2, kappa=64.0)


def test_halving_ledger_charges_capped_durations():
    times = (12.0, 3.0)
    oracle = uc.SyntheticOracle([uc.TwoPoint(t, t, 1.0) for t in times], seed=0)
    result = uc.successive_halving(oracle, U60, budget=9, eta=2, kappa=8.0)
    # 9 runs buy 3 passes over round costs (2, 1): arm 0 runs 3 times before
    # it is dropped, arm 1 runs 6.  Runtimes cap at 8, so arm 0 charges 8 per
    # run and arm 1 charges 3
    selected = [uc.TraceRow(*row).selected for row in result.trace]
    assert (selected.count(0), selected.count(1)) == (3, 6)
    assert (result.ledger.total_seconds, result.ledger.run_count) == (8.0 * 3 + 3.0 * 6, 9)


# ---------------------------------------------------------------------------
# Doubling-rule comparison
# ---------------------------------------------------------------------------


def test_new_doubling_not_slower_smoke():
    for seed in (0, 1):
        by_rule = {}
        for rule in ("old", "new"):
            result = uc.OupRun(a8_oracle(seed), UTILITY, 0.1, doubling=rule).run_until(
                uc.StopRule(epsilon=0.2)
            )
            by_rule[rule] = result.ledger.total_seconds
        assert by_rule["new"] <= by_rule["old"]

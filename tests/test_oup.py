import math

import pytest

import utilcap as uc
from utilcap.arms import ArmState, pull_arm
from utilcap.bounds import alpha

from helpers import (
    UTILITY,
    a2_oracle,
    a8_oracle,
    instrumented_oup,
    make_snapshot,
    observations,
    trace_lines,
)

U60 = uc.LogLaplaceUtility(60.0, 1.0)


def two_arm_oracle(seed=0):
    # true utilities ~0.989 and ~0.05 under Uniform(60): gap ~0.94
    return uc.SyntheticOracle(
        [uc.TwoPoint(0.5, 2.0, 0.9), uc.TwoPoint(0.0, 100.0, 0.05)], seed=seed
    )


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def test_fresh_pool_selects_lowest_index():
    run = uc.OupRun(a2_oracle(0), U60, 0.1)
    assert run.select_arm() == 0


def test_selection_is_argmax_with_index_tie_break():
    run = uc.OupRun(a2_oracle(0), U60, 0.1)
    for i, ucb in enumerate([0.4, 0.9, 0.7]):
        run.arms[i].snapshot = run.arms[i].snapshot._replace(ucb=ucb)
    run.survivors = [0, 1, 2]
    run.rebuild_index()
    assert run.select_arm() == 1
    run.arms[2].snapshot = run.arms[2].snapshot._replace(ucb=0.9)
    run.rebuild_index()
    assert run.select_arm() == 1


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------


def test_first_step_executes_one_run_without_doubling():
    # alpha(1, 1) > 1 makes the original condition unsatisfiable on a fresh arm
    run = uc.OupRun(two_arm_oracle(), uc.UniformUtility(60.0), 0.5, doubling="old")
    run.step()
    assert run.trace[-1].selected == 0
    assert not run.trace[-1].doubled
    assert run.ledger.run_count == 1


def test_doubling_refreshes_only_capped_observations():
    # 3 prior observations, 2 capped: a forced doubling reruns 2 and adds 1
    oracle = uc.SyntheticOracle([uc.TwoPoint(0.5, 4.0, 0.4)], seed=11)
    ctx = uc.BoundContext(n=1, delta=0.1)
    ledger = uc.CostLedger()
    arm = ArmState(0)
    never = lambda a, u_k, f: False
    always = lambda a, u_k, f: True
    while arm.m < 3 or sum(d < arm.kappa for d in arm.durations) != 1:
        if arm.m >= 3:
            arm = ArmState(0)
            oracle = uc.SyntheticOracle([uc.TwoPoint(0.5, 4.0, 0.4)], seed=oracle.seed + 1)
        pull_arm(arm, ctx, U60, oracle, never, ledger, 0)
    kappa_before = arm.kappa
    durations_before = list(arm.durations)
    runs_before = ledger.run_count
    doubled = pull_arm(arm, ctx, U60, oracle, always, ledger, 0)
    assert doubled
    assert arm.kappa == 2 * kappa_before
    assert ledger.run_count - runs_before == 3  # 2 refreshed + 1 new
    # completed runs are reused verbatim; a refreshed capped run resolves
    # between the two captimes or sits exactly at the new one
    for before, after in zip(durations_before, arm.durations):
        if before < kappa_before:
            assert after == before
        else:
            assert kappa_before <= after <= arm.kappa
    assert arm.snapshot.f_hat == sum(d < arm.kappa for d in arm.durations) / arm.m


def test_doubling_condition_sees_incremented_count():
    # the rule compares against the width at the incremented m but the
    # completion fraction of the previous snapshot; pick a threshold that
    # separates alpha(m) from alpha(m+1) to pin the order
    oracle = uc.SyntheticOracle([uc.TwoPoint(0.25, 0.25, 1.0)], seed=0)
    utility = uc.UniformUtility(2.0)
    ctx = uc.BoundContext(n=1, delta=0.1)
    ledger = uc.CostLedger()
    arm = ArmState(0)
    never = lambda a, u_k, f: False
    for _ in range(5):
        pull_arm(arm, ctx, utility, oracle, never, ledger, 0)
    a_now = alpha(ctx, 5, arm.kappa)
    a_next = alpha(ctx, 6, arm.kappa)
    assert a_next < a_now
    threshold = (a_next + a_now)  # between 2*alpha(6) and 2*alpha(5)
    rule = lambda a, u_k, f: 2.0 * a <= threshold
    doubled = pull_arm(arm, ctx, utility, oracle, rule, ledger, 0)
    assert doubled  # fires only because m was incremented first


def test_doubling_condition_sees_previous_completion_fraction():
    # first pull of a fresh arm: the sentinel snapshot reports no completions,
    # so a rule keyed on the completion fraction fires even though the run
    # about to happen would complete
    oracle = uc.SyntheticOracle([uc.TwoPoint(0.25, 0.25, 1.0)], seed=0)
    utility = uc.UniformUtility(2.0)
    ctx = uc.BoundContext(n=1, delta=0.1)
    arm = ArmState(0)
    seen = {}
    rule = lambda a, u_k, f: seen.setdefault("f", f) is None
    pull_arm(arm, ctx, utility, oracle, rule, uc.CostLedger(), 0)
    assert seen["f"] == 0.0
    assert arm.snapshot.f_hat == 1.0


def test_elimination_removes_provably_bad_arm():
    # large gap two-point pool; greedy selection parks the bad arm early and
    # elimination follows once the incumbent's own width is small enough
    oracle = uc.SyntheticOracle(
        [uc.TwoPoint(0.1, 5.0, 0.9), uc.TwoPoint(0.1, 5.0, 0.05)], seed=0
    )
    run = uc.OupRun(oracle, uc.UniformUtility(4.0), 0.25, doubling="new")
    result = run.run_until(uc.SingleSurvivor())
    assert run.survivors == [0]
    assert result.incumbent == 0
    assert run.arms[1].eliminated
    # with a single survivor the guarantee equals the incumbent's own width
    snap = run.arms[0].snapshot
    assert run.guaranteed_epsilon() == pytest.approx(snap.ucb - snap.lcb)


def test_elimination_is_strict_and_final():
    # hand-set bounds: arm 0 is pulled first, arm 1 becomes the incumbent
    # with LCB 0.5, arm 2 sits level with it and survives, arm 3 falls below
    run = uc.OupRun(a2_oracle(0), U60, 0.1, pool=[0, 1, 2, 3])
    for arm, (ucb, lcb) in zip(run.arms, [(6.0, -1.0), (5.0, 0.5), (0.5, 0.0), (0.49, 0.45)]):
        arm.snapshot = arm.snapshot._replace(ucb=ucb, lcb=lcb)
    run.rebuild_index()
    run.step()
    assert (run.trace[-1].selected, run.trace[-1].incumbent) == (0, 1)
    assert run.survivors == [0, 1, 2] and run.arms[3].eliminated
    # pulling arm 1 drops its LCB below arm 3's, which stays out of the race
    run.step()
    assert run.trace[-1].selected == 1
    assert run.arms[1].snapshot.lcb < 0.45
    assert run.trace[-1].incumbent == 2 and run.incumbent() == 2


def test_eliminated_arm_state_never_changes():
    oracle = uc.SyntheticOracle(
        [uc.TwoPoint(0.1, 5.0, 0.9), uc.TwoPoint(0.1, 5.0, 0.05)], seed=0
    )
    run = uc.OupRun(oracle, uc.UniformUtility(4.0), 0.25, doubling="new")
    frozen = None
    while len(run.survivors) > 1:
        run.step()
    frozen = (run.arms[1].m, run.arms[1].kappa, list(run.arms[1].durations), run.arms[1].snapshot)
    for _ in range(200):
        run.step()
    assert (
        run.arms[1].m,
        run.arms[1].kappa,
        list(run.arms[1].durations),
        run.arms[1].snapshot,
    ) == frozen


def test_ledger_matches_step_reports():
    run = uc.OupRun(a2_oracle(3), U60, 0.1, doubling="new")
    spent = 0.0
    runs = 0
    for _ in range(200):
        seconds_before, runs_before = run.ledger.total_seconds, run.ledger.run_count
        run.step()
        spent += run.ledger.total_seconds - seconds_before
        runs += run.ledger.run_count - runs_before
    assert run.ledger.total_seconds == pytest.approx(spent, rel=1e-12)
    assert run.ledger.run_count == runs
    assert run.ledger.total_seconds == pytest.approx(
        sum(run.ledger.per_config_seconds.values()), rel=1e-12
    )


@pytest.mark.parametrize("doubling", ["old", "new"])
@pytest.mark.parametrize("engine", [uc.OupRun, uc.UpRun])
def test_running_sums_match_a_from_scratch_recomputation(engine, doubling):
    # the running sums, and the completions the oracle counted, must equal a
    # recomputation from the stored durations alone, bit for bit; every arm
    # of this pool caps often at captime 1, so both rules double within 300
    # rounds
    oracle = uc.SyntheticOracle([uc.Exponential(m) for m in (3.0, 8.0, 30.0)], seed=5)
    run = engine(oracle, U60, 0.1, doubling=doubling)
    for _ in range(300):
        run.step()
        for arm in run.arms:
            reference = make_snapshot(run.ctx, arm.m, arm.kappa, observations(arm), U60)
            assert arm.snapshot == reference.engine()
    assert any(row.doubled for row in run.trace)


@pytest.mark.parametrize("doubling", ["old", "new"])
def test_alpha_is_computed_once_per_pull_and_once_per_doubling(monkeypatch, doubling):
    calls = 0

    def counted(ctx, m, kappa):
        nonlocal calls
        calls += 1
        return alpha(ctx, m, kappa)

    monkeypatch.setattr(uc.arms, "alpha", counted)
    # the old rule first doubles after some hundreds of rounds on this pool
    result = uc.OupRun(a8_oracle(5), U60, 0.1, doubling=doubling).run_until(uc.MaxRounds(2000))
    doublings = sum(row.doubled for row in result.trace)
    assert doublings > 0
    assert calls == len(result.trace) + doublings


@pytest.mark.parametrize("doubling", ["old", "new"])
def test_u_at_kappa_is_computed_on_first_pulls_and_after_doublings(doubling):
    calls = 0

    def counted(t):
        nonlocal calls
        calls += 1
        return U60(t)

    # every run is valued once; later pulls read u(kappa) off the snapshot
    result = uc.OupRun(a8_oracle(5), counted, 0.1, doubling=doubling).run_until(uc.MaxRounds(2000))
    doublings = sum(row.doubled for row in result.trace)
    pulled = len({row.selected for row in result.trace})
    assert doublings > 0
    assert calls == result.ledger.run_count + pulled + doublings


# ---------------------------------------------------------------------------
# Anytime guarantee
# ---------------------------------------------------------------------------


def test_fresh_pool_guarantee_is_one():
    run = uc.OupRun(a2_oracle(0), U60, 0.1)
    assert run.guaranteed_epsilon() == 1.0
    assert run.eps_min == 1.0


def test_eps_min_is_running_minimum_with_round():
    run = uc.OupRun(a2_oracle(1), U60, 0.1, doubling="new")
    best = 1.0
    for _ in range(400):
        run.step()
        row = run.trace[-1]
        best = min(best, row.eps_raw)
        assert row.eps_min == best
    # the running minimum is the eps of the round that first reached it
    first = next(row for row in run.trace if row.eps_min == run.eps_min)
    assert first.eps_raw == run.eps_min


def test_guarantee_driven_by_best_arm_after_others_stop():
    run = uc.OupRun(two_arm_oracle(), uc.UniformUtility(60.0), 0.1, doubling="new")
    result = run.run_until(uc.TargetEpsilon(0.3))
    star = result.incumbent
    snaps = [a.snapshot for a in run.arms]
    assert snaps[star].ucb == max(s.ucb for i, s in enumerate(snaps) if i in run.survivors)
    assert run.guaranteed_epsilon() == pytest.approx(snaps[star].ucb - snaps[star].lcb)


# ---------------------------------------------------------------------------
# Stop rules
# ---------------------------------------------------------------------------


def test_zero_budget_returns_immediately():
    run = uc.OupRun(a2_oracle(0), U60, 0.1)
    result = run.run_until(uc.BudgetSeconds(0.0))
    assert result.incumbent == 0
    assert result.epsilon == 1.0
    assert result.trace == []
    assert result.stop_reason == "budget_exhausted"


def test_max_rounds_stop():
    run = uc.OupRun(a2_oracle(0), U60, 0.1, doubling="new")
    result = run.run_until(uc.MaxRounds(25))
    assert len(result.trace) == 25


def test_target_epsilon_single_arm_round_count_matches_formula():
    # mass at zero runtime, utility zero at the initial captime: the width is
    # exactly 2 alpha(m, 1), so the stopping m solves 2 alpha(m, 1) <= 0.1
    oracle = uc.SyntheticOracle([uc.TwoPoint(0.0, 0.0, 1.0)], seed=0)
    utility = uc.UniformUtility(1.0)
    delta = 0.1
    m_star = None
    for m in range(1, 20000):
        a = math.sqrt(math.log(11 * 1 * m * m * 1 / delta) / (2 * m))
        if 2 * a <= 0.1:
            m_star = m
            break
    assert m_star is not None
    run = uc.OupRun(oracle, utility, delta)
    result = run.run_until(uc.TargetEpsilon(0.1))
    assert len(result.trace) == m_star
    assert result.epsilon == pytest.approx(2 * alpha(run.ctx, m_star, 1.0), rel=1e-12)
    assert not any(row.doubled for row in run.trace)


def test_instance_exhaustion_carries_diagnostics(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,1,1,1\nb,2,2,2\n")
    oracle = uc.load_runtime_matrix(path, seed=0)
    run = uc.OupRun(oracle, U60, 0.1, doubling="new")
    with pytest.raises(uc.InstanceExhaustedError) as err:
        run.run_until(uc.TargetEpsilon(0.01))
    assert err.value.achieved_epsilon is not None
    assert err.value.partial is not None
    assert err.value.partial.stop_reason == "instance_exhausted"
    assert err.value.partial.trace


# ---------------------------------------------------------------------------
# Determinism and ground-truth behavior
# ---------------------------------------------------------------------------


def test_identical_seeds_give_bit_identical_traces():
    first = uc.OupRun(a2_oracle(7), U60, 0.1, doubling="new").run_until(uc.MaxRounds(300))
    second = uc.OupRun(a2_oracle(7), U60, 0.1, doubling="new").run_until(uc.MaxRounds(300))
    assert trace_lines(first.trace) == trace_lines(second.trace)


def test_instrumented_run_properties_smoke():
    for seed in range(3):
        record = instrumented_oup(a2_oracle(seed), UTILITY, 0.1, "new", 0.2)
        assert record.result.epsilon <= 0.2
        if record.clean:
            assert record.stop_selection_ok
            assert record.eps_sound
            assert record.width_bound_ok
            assert record.optimal_surviving


def test_paired_dominance_smoke():
    # a pool with large gaps: greedy selection beats round-robin on spent time
    for seed in range(3):
        oup = uc.OupRun(a2_oracle(seed), UTILITY, 0.1, doubling="new").run_until(
            uc.TargetEpsilon(0.2)
        )
        up = uc.UpRun(a2_oracle(seed), UTILITY, 0.1, doubling="new").run_until(
            uc.TargetEpsilon(0.2)
        )
        assert oup.ledger.total_seconds <= up.ledger.total_seconds

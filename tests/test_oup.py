import math

import pytest

import utilcap as uc
from utilcap.arms import ArmState
from utilcap.bounds import alpha

from helpers import (
    UTILITY,
    a2_oracle,
    always_double,
    a8_oracle,
    durations,
    instrumented_oup,
    make_snapshot,
    never_double,
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
    assert uc.TraceRow(*run.trace[-1]).selected == 0
    assert not uc.TraceRow(*run.trace[-1]).doubled
    assert run.ledger.run_count == 1


def one_arm_run(oracle, utility, rule) -> uc.OupRun:
    """A greedy run over the oracle's configuration 0 alone, doubling by
    ``rule``: every round pulls its one arm."""
    run = uc.OupRun(oracle, utility, 0.1, pool=[0])
    run.doubling_rule = rule
    return run


def test_doubling_refreshes_only_capped_observations():
    # 3 prior observations, 2 capped: a forced doubling reruns 2 and adds 1
    oracle = uc.SyntheticOracle([uc.TwoPoint(0.5, 4.0, 0.4)], seed=11)
    run = one_arm_run(oracle, U60, never_double)
    arm = run.arms[0]
    while arm.m < 3 or sum(d < arm.kappa for d in durations(oracle, arm)) != 1:
        if arm.m >= 3:
            oracle = uc.SyntheticOracle([uc.TwoPoint(0.5, 4.0, 0.4)], seed=oracle.seed + 1)
            run = one_arm_run(oracle, U60, never_double)
            arm = run.arms[0]
        run.step()
    kappa_before = arm.kappa
    durations_before = durations(oracle, arm)
    runs_before = run.ledger.run_count
    run.doubling_rule = always_double
    run.step()
    assert uc.TraceRow(*run.trace[-1]).doubled
    assert arm.kappa == 2 * kappa_before
    assert run.ledger.run_count - runs_before == 3  # 2 refreshed + 1 new
    # completed runs are reused verbatim; a refreshed capped run resolves
    # between the two captimes or sits exactly at the new one
    for before, after in zip(durations_before, durations(oracle, arm)):
        if before < kappa_before:
            assert after == before
        else:
            assert kappa_before <= after <= arm.kappa
    assert arm.snapshot.f_hat == sum(d < arm.kappa for d in durations(oracle, arm)) / arm.m


def test_doubling_condition_sees_incremented_count():
    # the rule compares against the width at the incremented m but the
    # completion fraction of the previous snapshot; pick a lead that
    # separates alpha(m) from alpha(m+1) to pin the order.  Every run caps
    # at captime 1, so the test reads lead * alpha <= u(1) (1 - 0) = 1/2
    oracle = uc.SyntheticOracle([uc.TwoPoint(4.0, 4.0, 1.0)], seed=0)
    utility = uc.UniformUtility(2.0)
    run = one_arm_run(oracle, utility, never_double)
    for _ in range(5):
        run.step()
    ctx = run.ctx
    assert ctx == uc.BoundContext(n=1, delta=0.1)
    arm = run.arms[0]
    assert (arm.kappa, arm.snapshot.f_hat, arm.snapshot.u_at_kappa) == (1.0, 0.0, 0.5)
    a_now = alpha(ctx, 5, arm.kappa)
    a_next = alpha(ctx, 6, arm.kappa)
    assert a_next < a_now
    lead = 1.0 / (a_next + a_now)  # 2 * alpha(6) < 1 / lead < 2 * alpha(5)
    assert lead * a_next <= 0.5 < lead * a_now
    run.doubling_rule = lambda u_k: (lead, 0.0)
    run.step()
    assert uc.TraceRow(*run.trace[-1]).doubled  # fires only because m was incremented first


def test_doubling_condition_sees_previous_completion_fraction():
    # first pull of a fresh arm: the sentinel snapshot reports no completions,
    # so a rule keyed on the completion fraction fires even though the run
    # about to happen would complete.  With terms (1e-9, 0) the test is
    # 1e-9 * alpha <= u(kappa) (1 - f_hat), and u(kappa) > 0: it fires
    # exactly while f_hat < 1
    oracle = uc.SyntheticOracle([uc.TwoPoint(0.25, 0.25, 1.0)], seed=0)
    run = one_arm_run(oracle, U60, lambda u_k: (1e-9, 0.0))
    run.step()
    assert uc.TraceRow(*run.trace[-1]).doubled  # read FRESH's f_hat, 0.0
    assert run.arms[0].snapshot.f_hat == 1.0
    run.step()
    assert not uc.TraceRow(*run.trace[-1]).doubled  # read the first run's 1.0


def test_elimination_removes_provably_bad_arm():
    # large gap two-point pool; greedy selection parks the bad arm early and
    # elimination follows once the incumbent's own width is small enough
    oracle = uc.SyntheticOracle(
        [uc.TwoPoint(0.1, 5.0, 0.9), uc.TwoPoint(0.1, 5.0, 0.05)], seed=0
    )
    run = uc.OupRun(oracle, uc.UniformUtility(4.0), 0.25, doubling="new")
    result = run.run_until(uc.StopRule(survivors=1))
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
    row = uc.TraceRow(*run.trace[-1])
    assert (row.selected, row.incumbent) == (0, 1)
    assert run.survivors == [0, 1, 2] and run.arms[3].eliminated
    # pulling arm 1 drops its LCB below arm 3's, which stays out of the race
    run.step()
    assert uc.TraceRow(*run.trace[-1]).selected == 1
    assert run.arms[1].snapshot.lcb < 0.45
    assert uc.TraceRow(*run.trace[-1]).incumbent == 2 and run.incumbent() == 2


def test_eliminated_arm_state_never_changes():
    oracle = uc.SyntheticOracle(
        [uc.TwoPoint(0.1, 5.0, 0.9), uc.TwoPoint(0.1, 5.0, 0.05)], seed=0
    )
    run = uc.OupRun(oracle, uc.UniformUtility(4.0), 0.25, doubling="new")
    frozen = None
    while len(run.survivors) > 1:
        run.step()
    frozen = (run.arms[1].m, run.arms[1].kappa, durations(oracle, run.arms[1]), run.arms[1].snapshot)
    for _ in range(200):
        run.step()
    assert (
        run.arms[1].m,
        run.arms[1].kappa,
        durations(oracle, run.arms[1]),
        run.arms[1].snapshot,
    ) == frozen


def test_ledger_matches_step_reports():
    # the charges replayed from the rows and the runtime tables, summed left
    # to right in charge order: a doubling reruns the arm's capped runs in
    # run order, then the round makes its own run
    oracle = a2_oracle(3)
    run = uc.OupRun(oracle, U60, 0.1, doubling="new")
    for _ in range(200):
        run.step()
    rows = [uc.TraceRow(*row) for row in run.trace]
    pulls = [0] * len(run.arms)
    kappa = [1.0] * len(run.arms)
    total = 0.0
    runs = 0
    for row in rows:
        i = row.selected
        times, _ = oracle.runtime_of(run.arms[i].config)
        pulls[i] += 1
        if row.doubled:
            for t in times[: pulls[i] - 1]:
                if t >= kappa[i]:
                    total += min(t, 2.0 * kappa[i])
                    runs += 1
            kappa[i] *= 2.0
        total += min(times[pulls[i] - 1], kappa[i])
        runs += 1
        assert row.ledger_seconds == total
    assert any(row.doubled for row in rows)
    assert (run.ledger.total_seconds, run.ledger.run_count) == (total, runs)
    assert [arm.m for arm in run.arms] == pulls


# U60 and, by the suffix of their test ids, utilities where ``**`` is not the
# identity
SUM_UTILITIES = {
    "": U60,
    "-a1.7": uc.LogLaplaceUtility(60.0, 1.7),
    "-a0.5": uc.LogLaplaceUtility(60.0, 0.5),
    "-uniform": uc.UniformUtility(60.0),
}


@pytest.mark.parametrize(
    "engine, doubling, utility",
    [
        pytest.param(engine, doubling, utility, id=f"{engine.__name__}-{doubling}{suffix}")
        for engine in (uc.OupRun, uc.UpRun)
        for doubling in ("new", "old")
        for suffix, utility in SUM_UTILITIES.items()
    ],
)
def test_running_sums_match_a_from_scratch_recomputation(engine, doubling, utility):
    # the running sums, and the completions the oracle counted, must equal a
    # recomputation from the runs' durations alone, bit for bit, also after
    # a doubling recomputes the utility sum; every arm of this pool caps
    # often at captime 1, so both rules double within 300 rounds
    oracle = uc.SyntheticOracle([uc.Exponential(m) for m in (3.0, 8.0, 30.0)], seed=5)
    run = engine(oracle, utility, 0.1, doubling=doubling)
    for _ in range(300):
        run.step()
        for arm in run.arms:
            reference = make_snapshot(
                run.ctx, arm.m, arm.kappa, observations(oracle, arm), utility
            )
            assert arm.snapshot == reference.engine()
    assert any(uc.TraceRow(*row).doubled for row in run.trace)


@pytest.fixture()
def width_count(monkeypatch):
    """A one-element list counting the widths computed while the test runs,
    through ``bounds.width_at``; every width table is dropped before and
    after, so none made with the counting width outlives the test."""
    count = [0]
    width_at = uc.bounds.width_at

    def counted_width_at(ctx, kappa):
        width = width_at(ctx, kappa)

        def counted(m):
            count[0] += 1
            return width(m)

        return counted

    monkeypatch.setattr(uc.bounds, "width_at", counted_width_at)
    uc.bounds.width_table.cache_clear()
    yield count
    uc.bounds.width_table.cache_clear()


@pytest.mark.parametrize("doubling", ["old", "new"])
def test_alpha_is_computed_once_per_pull_and_once_per_doubling(width_count, doubling):
    # a round reads its width from the table of its captime, which computes
    # a width only past its end.  So a first run computes at most one width
    # per round and one per doubling, beside the counts below the one a
    # doubling reads at a captime no arm has reached (a table holds every
    # count from 1); a second run of the same spec computes none
    # the old rule first doubles after some hundreds of rounds on this pool
    result = uc.OupRun(a8_oracle(5), U60, 0.1, doubling=doubling).run_until(
        uc.StopRule(rounds=2000)
    )
    rows = [uc.TraceRow(*row) for row in result.trace]
    counts = {}
    skipped = 0
    for row in rows:
        counts[row.selected] = counts.get(row.selected, 0) + 1
        if row.doubled:
            skipped += counts[row.selected] - 1
    doublings = sum(row.doubled for row in rows)
    assert doublings > 0
    assert 0 < width_count[0] <= len(rows) + doublings + skipped
    width_count[0] = 0
    again = uc.OupRun(a8_oracle(5), U60, 0.1, doubling=doubling).run_until(
        uc.StopRule(rounds=2000)
    )
    assert again.trace == result.trace and width_count[0] == 0


def test_trials_of_one_context_compute_few_widths(width_count):
    # the trials of a validation share one context, so their rounds read the
    # same width tables: on a pool shaped as the benchmark's validate_trials
    # pool (32 lognormal configurations, delta 0.1, the new rule, eps 0.2),
    # 40 trials in one process compute widths for under 5% of their rounds
    n = 32
    dists = [
        uc.LogNormal(1.0 + 3.0 * (k + 0.5) / n, 0.5 + 0.5 * ((7 * k) % n + 0.5) / n)
        for k in range(n)
    ]
    rounds = 0
    for seed in range(40):
        oracle = uc.SyntheticOracle(dists, seed=seed)
        result = uc.OupRun(oracle, U60, 0.1, doubling="new").run_until(uc.StopRule(epsilon=0.2))
        rounds += len(result.trace)
    assert 0 < width_count[0] < 0.05 * rounds


@pytest.mark.parametrize("doubling", ["old", "new"])
def test_u_at_kappa_is_computed_on_first_pulls_and_after_doublings(doubling):
    calls = 0

    class Counted(uc.LogLaplaceUtility):
        def __call__(self, t):
            nonlocal calls
            calls += 1
            return super().__call__(t)

    # a round calls the utility for no run of its own: it values a completed
    # run inline and a capped run at u(kappa), which it holds.  u(kappa) is
    # computed on an arm's first pull and once per doubling, which also
    # values every earlier run of the arm that completes at the new captime.
    # On this slow pool both rules double, and runs cap, doubling rounds'
    # runs among them
    oracle = uc.SyntheticOracle([uc.Exponential(mean) for mean in (30.0, 45.0, 60.0, 90.0)], 5)
    result = uc.OupRun(oracle, Counted(60.0, 1.0), 0.1, doubling=doubling).run_until(
        uc.StopRule(rounds=2000)
    )
    rows = [uc.TraceRow(*row) for row in result.trace]
    pulls = {}
    kappas = {}
    expected = capped_doublings = 0
    for row in rows:
        # the pool is every configuration, so a position is a configuration
        times = oracle.runtime_of(row.selected)[0]
        m = pulls[row.selected] = pulls.get(row.selected, 0) + 1
        kappa = kappas.setdefault(row.selected, 1.0)
        if m == 1:
            expected += 1
        if row.doubled:
            kappa = kappas[row.selected] = 2.0 * kappa
            expected += 1 + sum(t < kappa for t in times[: m - 1])
        if times[m - 1] >= kappa:
            capped_doublings += row.doubled
    assert capped_doublings > 0
    assert calls == expected


def test_a_doubling_computes_u_at_kappa_once():
    calls = 0

    def counted(t):
        nonlocal calls
        calls += 1
        return U60(t)

    # the pull under way is the seventh; of the six earlier runs at captime
    # 2, the second and fifth complete at 4, the fourth and sixth cap again
    times = [0.5, 3.0, 1.5, 5.0, 2.5, 7.0, 9.0]
    arm = ArmState(0)
    arm.m, arm.kappa, arm._completed_count = 7, 2.0, 2
    charged, u_kappa = arm.double_captime(times, counted)
    assert arm.kappa == 4.0 and arm._completed_count == 4
    assert charged == [3.0, 4.0, 2.5, 4.0] and u_kappa == U60(4.0)
    usum = 0.0
    for t in times[:6]:
        usum += U60(min(t, 4.0))
    assert arm._utility_sum == usum
    # u(4) once for both runs that cap again, and one call per completed run
    assert calls == 1 + 4


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
        row = uc.TraceRow(*run.trace[-1])
        best = min(best, row.eps_raw)
        assert row.eps_min == best
    # the running minimum is the eps of the round that first reached it
    rows = [uc.TraceRow(*row) for row in run.trace]
    first = next(row for row in rows if row.eps_min == run.eps_min)
    assert first.eps_raw == run.eps_min


def test_guarantee_driven_by_best_arm_after_others_stop():
    run = uc.OupRun(two_arm_oracle(), uc.UniformUtility(60.0), 0.1, doubling="new")
    result = run.run_until(uc.StopRule(epsilon=0.3))
    star = result.incumbent
    snaps = [a.snapshot for a in run.arms]
    assert snaps[star].ucb == max(s.ucb for i, s in enumerate(snaps) if i in run.survivors)
    assert run.guaranteed_epsilon() == pytest.approx(snaps[star].ucb - snaps[star].lcb)


# ---------------------------------------------------------------------------
# Stop rules
# ---------------------------------------------------------------------------


def test_zero_budget_returns_immediately():
    run = uc.OupRun(a2_oracle(0), U60, 0.1)
    result = run.run_until(uc.StopRule(seconds=0.0, stop_reason="budget_exhausted"))
    assert result.incumbent == 0
    assert result.epsilon == 1.0
    assert result.trace == []
    assert result.stop_reason == "budget_exhausted"


def test_max_rounds_stop():
    run = uc.OupRun(a2_oracle(0), U60, 0.1, doubling="new")
    result = run.run_until(uc.StopRule(rounds=25))
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
    result = run.run_until(uc.StopRule(epsilon=0.1))
    assert len(result.trace) == m_star
    assert result.epsilon == pytest.approx(2 * alpha(run.ctx, m_star, 1.0), rel=1e-12)
    assert not any(uc.TraceRow(*row).doubled for row in run.trace)


def test_instance_exhaustion_carries_diagnostics(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,1,1,1\nb,2,2,2\n")
    oracle = uc.load_runtime_matrix(path, seed=0)
    run = uc.OupRun(oracle, U60, 0.1, doubling="new")
    with pytest.raises(uc.InstanceExhaustedError) as err:
        run.run_until(uc.StopRule(epsilon=0.01))
    assert err.value.achieved_epsilon is not None
    assert err.value.partial is not None
    assert err.value.partial.stop_reason == "instance_exhausted"
    assert err.value.partial.trace


# ---------------------------------------------------------------------------
# Determinism and ground-truth behavior
# ---------------------------------------------------------------------------


def test_identical_seeds_give_bit_identical_traces():
    first = uc.OupRun(a2_oracle(7), U60, 0.1, doubling="new").run_until(uc.StopRule(rounds=300))
    second = uc.OupRun(a2_oracle(7), U60, 0.1, doubling="new").run_until(uc.StopRule(rounds=300))
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
            uc.StopRule(epsilon=0.2)
        )
        up = uc.UpRun(a2_oracle(seed), UTILITY, 0.1, doubling="new").run_until(
            uc.StopRule(epsilon=0.2)
        )
        assert oup.ledger.total_seconds <= up.ledger.total_seconds

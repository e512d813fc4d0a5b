import dataclasses
import math

import pytest

import utilcap as uc
from utilcap import bounds
from utilcap.arms import ArmState
from utilcap.rng import SAMPLER_STREAM, stream_generator

from helpers import (
    PARAMETRIC_GROWTH,
    PARAMETRIC_SCALE,
    UTILITY,
    NoElimination,
    a2_oracle,
    drawn_pool,
    durations,
    make_snapshot,
    observations,
    parametric_setup,
    phase_one_engine,
    trace_lines,
    true_runtimes,
)

U60 = uc.LogLaplaceUtility(60.0, 1.0)
PARAMETRIC = f"{PARAMETRIC_SCALE},{PARAMETRIC_GROWTH}"


def finite_setup(seed=0, replace=True):
    oracle = uc.SyntheticOracle(
        [uc.Exponential(m) for m in (1.0, 5.0, 20.0, 80.0, 200.0)], seed=seed
    )
    sampler = uc.FinitePoolSampler(oracle, seed=seed, replace=replace)
    return oracle, sampler


def make_run(seed=0, schedule="default", delta=0.05, parametric=True, **kwargs):
    if parametric:
        oracle, sampler = parametric_setup(seed)
    else:
        oracle, sampler = finite_setup(seed)
    return uc.CoupRun(
        sampler, oracle, UTILITY, delta, uc.Schedule.from_spec(schedule), doubling="new", **kwargs
    )


def draw_whole_pool(run):
    """Give every position of the run's pool an arm: its sampler draws the
    configurations past the frontier, in the order the run would."""
    run.arms.extend(ArmState(c) for c in run.sampler.sample(run.ctx.n - len(run.arms)))


# ---------------------------------------------------------------------------
# Schedules and phase sizing
# ---------------------------------------------------------------------------


def test_phase_size_examples():
    assert uc.phase_size(1, math.exp(-1 / 3), 0.01) == 9
    assert uc.phase_size(1, 0.5, 0.5) == 4


def test_phase_size_monotone_in_gamma():
    sizes = [uc.phase_size(1, g, 0.01) for g in (0.9, 0.5, 0.25, 0.1, 0.05)]
    assert sizes == sorted(sizes)


def test_phase_size_validation():
    with pytest.raises(ValueError):
        uc.phase_size(0, 0.5, 0.1)
    with pytest.raises(ValueError):
        uc.phase_size(1, 1.5, 0.1)


def test_preset_schedules_match_formulas():
    cases = {
        "default": lambda p: (math.exp(-p / 6), math.exp(-p / 3)),
        "gamma_focus": lambda p: (math.exp(-p / 30), math.exp(-p / 3)),
        "epsilon_focus": lambda p: (math.exp(-p / 3), math.exp(-p / 30)),
        "balanced": lambda p: (math.exp(-p / 5), math.exp(-p / 5)),
        "gamma_then_epsilon": lambda p: (math.exp(-p ** 3 / 300), math.exp(-p ** 2 / 30)),
    }
    for name, fn in cases.items():
        schedule = uc.Schedule.from_spec(name)
        for p in range(1, 8):
            assert schedule.at(p) == fn(p)


def test_custom_schedule_parsing():
    schedule = uc.Schedule.from_spec("custom:eps=e^-p/6,gamma=e^-p/3")
    default = uc.Schedule.from_spec("default")
    for p in range(1, 6):
        assert schedule.at(p) == default.at(p)
    powered = uc.Schedule.from_spec("custom:eps=e^-p^3/300,gamma=e^-p^2/30")
    assert powered.at(2) == (math.exp(-8 / 300), math.exp(-4 / 30))


def test_bad_schedules_rejected():
    for bad in ("nope", "custom:eps=e^-p/6", "custom:eps=2p,gamma=e^-p/3",
                "custom:eps=e^-p/0,gamma=e^-p/3"):
        with pytest.raises(ValueError):
            uc.Schedule.from_spec(bad)
    with pytest.raises(ValueError, match="bad custom schedule item 'eps' in 'custom:eps'"):
        uc.Schedule.from_spec("custom:eps")
    with pytest.raises(ValueError, match="unknown custom schedule name 'gama'"):
        uc.Schedule.from_spec("custom:eps=e^-p/6,gamma=e^-p/3,gama=e^-p/100")
    with pytest.raises(ValueError, match="custom schedule name 'eps' given twice"):
        uc.Schedule.from_spec("custom:eps=e^-p/6,gamma=e^-p/3,eps=e^-p/5")


def test_explicit_schedule_values_validated():
    # e^-p^3 underflows to 0.0 at p = 10, which lies outside (0, 1)
    schedule = uc.Schedule.from_spec("custom:eps=e^-p^3/1,gamma=e^-p/3")
    assert schedule.at(1) == (math.exp(-1.0), math.exp(-1.0 / 3.0))
    assert schedule.at(9)[0] > 0.0
    with pytest.raises(ValueError):
        schedule.at(10)
    with pytest.raises(ValueError):
        schedule.at(0)


# ---------------------------------------------------------------------------
# Phase lifecycle
# ---------------------------------------------------------------------------


def test_first_phase_initializes_fresh_arms():
    run = make_run(seed=1)
    run.begin_phase()
    assert run.p == 1
    assert run.ctx.n == len(run.survivors) == uc.phase_size(1, run.gamma_p, 0.05)
    # every position is fresh: the frontier arm at 0 stands for them all,
    # and it is the only configuration drawn
    (frontier,) = run.arms
    assert frontier.m == 0 and frontier.snapshot is uc.FRESH
    assert run.oracle.n_configs == 1


def test_phase_step_selects_lowest_index_on_fresh_pool():
    run = make_run(seed=1)
    run.begin_phase()
    run.phase_step()
    assert uc.TraceRow(*run.trace[-1]).selected == 0


def test_carryover_keeps_observations_and_widens_bounds():
    run = make_run(seed=2)
    run.begin_phase()
    for _ in range(40):
        run.phase_step()
    kept = {
        i: (durations(run.oracle, a), a.m, a.kappa, a.snapshot.ucb - a.snapshot.lcb)
        for i, a in enumerate(run.arms)
        if a.m > 0
    }
    pool_before = len(run.arms)
    run.begin_phase()
    assert len(run.arms) >= pool_before  # pool only grows
    for i, (observed, m, kappa, width) in kept.items():
        arm = run.arms[i]
        assert durations(run.oracle, arm) == observed
        assert (arm.m, arm.kappa) == (m, kappa)
        # same observations, larger phase log factor: width weakly increases
        assert arm.snapshot.ucb - arm.snapshot.lcb >= width - 1e-12


def test_phase_start_rebuilds_pulled_arms_under_the_new_context():
    run = make_run(seed=2)
    run.begin_phase()
    for _ in range(40):
        run.phase_step()
    run.begin_phase()
    assert run.ctx.phase == 2
    pulled = [arm for arm in run.arms if arm.m > 0]
    assert pulled and len(pulled) < len(run.arms)
    for arm in run.arms:
        reference = make_snapshot(run.ctx, arm.m, arm.kappa, observations(run.oracle, arm), UTILITY)
        assert arm.snapshot == reference.engine()


def test_phase_start_makes_no_utility_call():
    # a pulled arm's snapshot holds its completion fraction and u(kappa),
    # which no bound context changes, so a phase start reuses them
    calls = 0

    class Counted(uc.LogLaplaceUtility):
        def __call__(self, t):
            nonlocal calls
            calls += 1
            return super().__call__(t)

    oracle, sampler = finite_setup(seed=0)
    schedule = uc.Schedule.from_spec("default")
    run = uc.CoupRun(sampler, oracle, Counted(60.0, 1.0), 0.05, schedule, doubling="new")
    run.run_phases(uc.StopRule(phases=2))
    # four pulled arms, each past its first captime
    assert sum(arm.m > 0 and arm.kappa > 1.0 for arm in run.arms) == 4
    calls = 0
    run.begin_phase()
    assert calls == 0
    for arm in run.arms:
        reference = make_snapshot(run.ctx, arm.m, arm.kappa, observations(run.oracle, arm), UTILITY)
        assert arm.snapshot == reference.engine()


def test_shrinking_requirement_keeps_pool():
    # second phase needs fewer configurations than already exist
    oracle, sampler = parametric_setup(3)
    pairs = [(0.5, 0.05), (0.5, 0.9)]
    schedule = uc.Schedule(lambda p: pairs[p - 1], "explicit")
    run = uc.CoupRun(sampler, oracle, UTILITY, 0.1, schedule, doubling="new")
    run.run_phases(uc.StopRule(phases=1))
    n_1 = run.ctx.n
    assert n_1 == uc.phase_size(1, 0.05, 0.1) == 70
    result = run.run_phases(uc.StopRule(phases=2))
    assert len(run.survivors) == n_1  # nothing added, nothing removed
    assert uc.phase_size(2, 0.9, 0.1) < n_1
    # the union bound counts the pool searched, not the phase requirement
    assert run.ctx.n == n_1
    assert [c.n for c in result.certificates] == [70, 70]


def test_phase_done_uses_both_maxima():
    run = make_run(seed=1)
    run.begin_phase()
    draw_whole_pool(run)
    run.eps_p = 0.1
    snap = run.arms[0].snapshot
    run.arms[0].snapshot = snap._replace(ucb=0.9, lcb=0.1)
    run.arms[1].snapshot = snap._replace(ucb=0.85, lcb=0.84)
    for arm in run.arms[2:]:
        arm.snapshot = arm.snapshot._replace(ucb=0.5, lcb=0.0)
    run.rebuild_index()
    # max UCB comes from arm 0, max LCB from arm 1
    assert run.guaranteed_epsilon() == pytest.approx(0.9 - 0.84)
    assert run.guaranteed_epsilon() < run.eps_p
    run.eps_p = 0.05
    assert not run.guaranteed_epsilon() < run.eps_p


def test_fresh_pool_is_never_done():
    run = make_run(seed=1)
    run.begin_phase()
    # the phase test reads the eps that begin_phase left
    assert run.eps_min == 1.0 and not run.eps_min < run.eps_p


def test_rounds_make_no_full_pool_pass(monkeypatch):
    # a round updates the bound index for the pulled arm only; the whole pool
    # is indexed when a bound context is entered (at an oup run's
    # construction, at each begin_phase), and otherwise only to compact a
    # heap whose stale entries outgrew the survivors
    compacting = []
    rebuild = uc.OupRun.rebuild_index

    def heap_sizes(run):
        return [len(getattr(run, name, ())) for name in ("_by_ucb", "_by_lcb", "_low_ucb")]

    def counting_rebuild(run):
        compacting.append(max(heap_sizes(run)) > 2 * len(run.survivors) + 64)
        rebuild(run)

    monkeypatch.setattr(uc.OupRun, "rebuild_index", counting_rebuild)
    run = make_run(seed=4)
    result = run.run_phases(uc.StopRule(phases=3))
    assert result.trace and len(result.certificates) == 3
    assert compacting == [False] * run.p
    # a streak pushes the pulled arm's keys once, at its end, so a step call
    # grows each heap by at most one entry however many rounds it makes, and
    # a single-leader run's heaps never need compacting
    compacting.clear()
    run = NoElimination(a2_oracle(1), UTILITY, 0.1)
    step = run.step
    growth = []

    def sized_step(*args):
        before = heap_sizes(run)
        step(*args)
        growth.append([b - a for a, b in zip(before, heap_sizes(run))])

    run.step = sized_step
    run.run_until(uc.StopRule(rounds=1000))
    assert len(run.trace) == 1000
    assert all(grown <= 1 for sizes in growth for grown in sizes)
    assert len(growth) < 200  # 102: after the ten fresh arms, mostly one leader
    assert compacting == [False]


# ---------------------------------------------------------------------------
# Multi-phase runs
# ---------------------------------------------------------------------------


def test_phase_start_touches_only_the_pulled_arms():
    # the benchmark's large-pool space: phase 15 searches 1,426 positions,
    # and the run keeps arms for those it pulled and the frontier alone
    oracle, sampler = parametric_setup(0)
    run = uc.CoupRun(
        sampler, oracle, UTILITY, 0.05, uc.Schedule.from_spec("default"), doubling="new"
    )
    result = run.run_phases(uc.StopRule(phases=15))
    pulled = sum(arm.m > 0 for arm in run.arms)
    assert len(run.arms) == oracle.n_configs == pulled + 1
    assert run.ctx.n == len(run.survivors) == 1426
    assert run.arms[-1].snapshot is uc.FRESH
    # a fresh position is an incumbent while no pulled arm's LCB beats 0, and
    # the frontier names it
    assert max(uc.TraceRow(*row).incumbent for row in result.trace) == pulled


def test_a_run_computes_only_the_widths_it_reads(tmp_path, monkeypatch):
    # command 0 of the benchmark's coup_large_pool workload, seed 5: each
    # width computed is read by a round, by a doubling at its new captime or
    # by a phase start's refresh of a pulled arm, however high the count
    path = tmp_path / "space.txt"
    path.write_text(f"family=parametric_exponential\nparams={PARAMETRIC}\n")
    spec = uc.ExperimentSpec(
        procedure="coup", oracle=f"synthetic:{path}", utility="loglaplace:kappa0=60,a=1",
        stop="phases:15", seed=500000, delta=0.05, doubling="new", schedule="default",
    )
    computed = []
    width_at = bounds.width_at

    def counted_width_at(ctx, kappa):
        width = width_at(ctx, kappa)

        def counted(m):
            computed.append(m)
            return width(m)

        return counted

    refreshed = []
    begin_phase = uc.CoupRun.begin_phase

    def counted_begin_phase(run):
        refreshed.append(sum(arm.m > 0 for arm in run.arms))
        begin_phase(run)

    monkeypatch.setattr(bounds, "width_at", counted_width_at)
    monkeypatch.setattr(uc.CoupRun, "begin_phase", counted_begin_phase)
    bounds.width_table.cache_clear()
    try:
        result = uc.harness.execute(spec)
    finally:
        # the cached tables compute through the counter
        bounds.width_table.cache_clear()
    doublings = sum(uc.TraceRow(*row).doubled for row in result.trace)
    assert len(refreshed) == 15 and doublings > 0 and sum(refreshed) > 0
    assert len(computed) <= result.rounds + doublings + sum(refreshed)


def test_without_replacement_frontier_takes_the_queue_in_order():
    # each arm takes the next configuration of the queue, one at a time, and
    # the positions never reached take none
    oracle = uc.SyntheticOracle([uc.Exponential(30.0 + 2 * i) for i in range(30)], seed=1)
    sampler = uc.FinitePoolSampler(oracle, seed=1, replace=False)
    asked = []
    draw = sampler.sample
    sampler.sample = lambda k: asked.append(k) or draw(k)
    run = uc.CoupRun(
        sampler, oracle, UTILITY, 0.1, uc.Schedule.from_spec("default"), doubling="new"
    )
    run.run_phases(uc.StopRule(phases=3))
    assert run.ctx.n == 16 and 3 < len(run.arms) < 16
    assert asked == [1] * len(run.arms)
    queue = uc.FinitePoolSampler(oracle, seed=1, replace=False).sample(30)
    assert [arm.config for arm in run.arms] == queue[: len(run.arms)]


def test_zero_budget_yields_no_certificates():
    run = make_run(seed=4)
    result = run.run_phases(uc.StopRule(seconds=0.0, stop_reason="budget_exhausted"))
    assert result.certificates == []
    assert result.trace == []
    assert result.incumbent is None
    assert result.stop_reason == "budget_exhausted"


def test_max_phases_gives_one_certificate_per_phase():
    run = make_run(seed=4)
    result = run.run_phases(uc.StopRule(phases=3))
    assert [c.phase for c in result.certificates] == [1, 2, 3]
    for c in result.certificates:
        eps_p, gamma_p = uc.Schedule.from_spec("default").at(c.phase)
        assert (c.epsilon, c.gamma) == (eps_p, gamma_p)
        assert c.n == uc.phase_size(c.phase, gamma_p, 0.05)
    assert result.incumbent == result.certificates[-1].incumbent


@pytest.mark.parametrize("into_phase_two", [0.0, 0.5], ids=["phase_boundary", "mid_phase_two"])
def test_budget_exhaustion_mid_phase_keeps_previous_certificate(into_phase_two):
    # a budget of exactly phase 1's cost stops at the phase boundary; one
    # halfway to phase 2's total runs out inside phase 2
    first, second = (
        make_run(seed=4).run_phases(uc.StopRule(phases=p)).ledger.total_seconds for p in (1, 2)
    )
    budget = first + into_phase_two * (second - first)
    run = make_run(seed=4)
    result = run.run_phases(uc.StopRule(seconds=budget, stop_reason="budget_exhausted"))
    assert run.p == (1 if into_phase_two == 0.0 else 2)
    assert len(result.certificates) == 1
    assert result.incumbent == result.certificates[0].incumbent
    assert result.stop_reason == "budget_exhausted"


def test_monotone_pool_and_observation_retention():
    run = make_run(seed=6)
    sizes = []
    totals = []
    for p in range(1, 4):
        run.run_phases(uc.StopRule(phases=p))
        sizes.append(len(run.arms))
        totals.append(sum(a.m for a in run.arms))
    assert sizes == sorted(sizes)
    assert totals == sorted(totals)


def test_phases_never_eliminate():
    # later phases need every sampled configuration, so an arm whose UCB is
    # below the incumbent's LCB stays in the pool
    run = make_run(seed=1)
    run.begin_phase()
    draw_whole_pool(run)
    snap = run.arms[0].snapshot
    run.arms[0].snapshot = snap._replace(ucb=2.0, lcb=0.0)
    run.arms[1].snapshot = snap._replace(ucb=0.95, lcb=0.9)
    for arm in run.arms[2:]:
        arm.snapshot = arm.snapshot._replace(ucb=0.5, lcb=0.0)
    run.rebuild_index()
    run.phase_step()
    assert uc.TraceRow(*run.trace[-1]).incumbent == 1
    assert not any(arm.eliminated for arm in run.arms)
    assert uc.TraceRow(*run.trace[-1]).survivors == len(run.survivors) == run.ctx.n


def test_runs_are_deterministic():
    a = make_run(seed=9).run_phases(uc.StopRule(phases=2))
    b = make_run(seed=9).run_phases(uc.StopRule(phases=2))
    assert trace_lines(a.trace) == trace_lines(b.trace)
    assert [dataclasses.astuple(c) for c in a.certificates] == [
        dataclasses.astuple(c) for c in b.certificates
    ]


# ---------------------------------------------------------------------------
# Samplers and ground truth
# ---------------------------------------------------------------------------


def test_finite_quantile_examples():
    assert uc.finite_population_quantile([0.1, 0.5, 0.9], 1 / 3) == 0.5
    assert uc.finite_population_quantile([0.1, 0.5, 0.9], 1e-9) == 0.9
    grid = [i / 10000 for i in range(10001)]
    assert uc.finite_population_quantile(grid, 0.25) == 0.75


def coup_trial(tmp_path, pool: str, seed: int):
    """The spec, parse and rows of a phases:3 coup validation trial on a
    synthetic pool file, handed the truths that validate_guarantee hands a
    finite pool's trials."""
    path = tmp_path / "pool.txt"
    path.write_text(pool)
    spec = uc.ExperimentSpec(
        procedure="coup", oracle=f"synthetic:{path}", utility="loglaplace:kappa0=60,a=1",
        stop="phases:3", seed=seed, delta=0.05, doubling="new",
    )
    parsed = uc.harness.parse_spec(spec)
    utility, _, _, oracle, make = parsed
    truths = None
    if make is None:
        values = oracle.true_utilities(utility)
        truths = (max(values), values)
    return spec, parsed, uc.harness._trial(spec, parsed, seed, truths)


def test_opt_gamma_parametric_matches_direct_quantile(tmp_path):
    # a parametric trial checks each certificate against the utility at
    # theta = gamma, less eps
    spec, parsed, rows = coup_trial(
        tmp_path, f"family=parametric_exponential\nparams={PARAMETRIC}\n", seed=0
    )
    make = parsed[4]
    schedule = uc.Schedule.from_spec(spec.schedule)
    oracle, sampler = parametric_setup(0)
    sampler.sample(40)
    # configuration j is the j-th draw of the sampler's stream
    thetas = stream_generator(0, SAMPLER_STREAM).random(40).tolist()
    assert [phase for phase, *_ in rows] == [1, 2, 3]
    for phase, _, threshold, _ in rows:
        eps, gamma = schedule.at(phase)
        quantile = uc.true_capped_utility(make(gamma), UTILITY, math.inf)
        assert threshold == quantile - eps
        # the map is strictly decreasing, so exactly the thetas below gamma beat it
        assert [oracle.true_utility(c, UTILITY) > quantile for c in range(40)] == [
            theta < gamma for theta in thetas
        ]


def test_opt_gamma_finite_sampler(tmp_path):
    # a finite-pool trial checks each certificate against the best truth
    # left after removing the top gamma fraction of the pool, less eps
    means = ";".join(map(str, (1.0, 5.0, 20.0, 80.0, 200.0, 3.0, 9.0, 40.0)))
    spec, parsed, rows = coup_trial(tmp_path, f"family=exponential\nparams={means}\n", seed=2)
    utility, _, schedule, oracle, _ = parsed
    values = oracle.true_utilities(utility)
    assert [phase for phase, *_ in rows] == [1, 2, 3]
    for phase, _, threshold, _ in rows:
        eps, gamma = schedule.at(phase)
        quantile = uc.finite_population_quantile(values, gamma)
        assert threshold == quantile - eps
        assert quantile in values and sum(v > quantile for v in values) <= gamma * len(values)


def test_with_replacement_duplicates_share_runtimes():
    oracle, sampler = finite_setup(seed=3)
    draws = sampler.sample(40)
    assert len(set(draws)) < len(draws)  # duplicates occur
    first = draws.index(draws[0], 1) if draws[0] in draws[1:] else None
    # any duplicated configuration replays the same runtime stream
    seen = {}
    for config in draws:
        runs = true_runtimes(oracle, config, 5)
        if config in seen:
            assert runs == seen[config]
        seen[config] = runs


def test_without_replacement_exhaustion_names_maximum():
    oracle, sampler = finite_setup(seed=3, replace=False)
    sampler.sample(4)
    with pytest.raises(uc.SamplerExhaustedError) as err:
        sampler.sample(2)
    assert err.value.available == 5
    assert "5" in str(err.value)


def test_without_replacement_draws_are_distinct():
    oracle, sampler = finite_setup(seed=7, replace=False)
    draws = sampler.sample(5)
    assert sorted(draws) == [0, 1, 2, 3, 4]


def test_begin_phase_surfaces_sampler_exhaustion():
    oracle, sampler = finite_setup(seed=1, replace=False)
    run = uc.CoupRun(
        sampler, oracle, UTILITY, 0.05, uc.Schedule.from_spec("default"), doubling="new"
    )
    # the first phase already needs 6 distinct configurations, one more than exist
    assert uc.phase_size(1, math.exp(-1 / 3), 0.05) == 6
    with pytest.raises(uc.SamplerExhaustedError, match="only 5"):
        run.begin_phase()


def test_dataset_backed_phases_match_size_formula(tmp_path):
    import numpy as np
    from utilcap.rng import stream_generator

    gen = stream_generator(99, 7)
    rows = []
    for i in range(8):
        mean = (1.0, 4.0, 10.0, 25.0, 60.0, 120.0, 240.0, 480.0)[i]
        rows.append(
            f"cfg{i}," + ",".join(repr(float(v)) for v in -mean * np.log1p(-gen.random(1500)))
        )
    path = tmp_path / "runtimes.csv"
    path.write_text("\n".join(rows) + "\n")
    oracle = uc.load_runtime_matrix(path, seed=2)
    sampler = uc.FinitePoolSampler(oracle, seed=2, replace=True)
    run = uc.CoupRun(
        sampler, oracle, UTILITY, 0.1, uc.Schedule.from_spec("default"), doubling="new"
    )
    result = run.run_phases(uc.StopRule(phases=2))
    schedule = uc.Schedule.from_spec("default")
    for cert in result.certificates:
        _, gamma_p = schedule.at(cert.phase)
        assert cert.n == uc.phase_size(cert.phase, gamma_p, 0.1)
    assert run.ctx.n == result.certificates[-1].n
    # the pool's configurations, as a second sampler on the seed draws them;
    # the run drew them in the same order, as far as it got
    configs = uc.FinitePoolSampler(oracle, seed=2, replace=True).sample(run.ctx.n)
    assert [arm.config for arm in run.arms] == configs[: len(run.arms)]
    # duplicated rows are distinct arms sharing one runtime row
    assert len(set(configs)) < len(configs)
    # a certificate names its incumbent's configuration
    for cert in result.certificates:
        assert cert.incumbent_config == configs[cert.incumbent]


def test_mid_phase_selection_ignores_sampling_phase():
    # a carried-over arm with the top bound is selected ahead of newer arms
    run = make_run(seed=5)
    run.run_phases(uc.StopRule(phases=1))
    run.begin_phase()
    boosted = 0  # sampled in phase 1
    for i, arm in enumerate(run.arms):
        lift = 2.0 if i == boosted else 0.0
        arm.snapshot = arm.snapshot._replace(ucb=arm.snapshot.ucb + lift)
    run.rebuild_index()
    run.phase_step()
    assert uc.TraceRow(*run.trace[-1]).selected == boosted


def test_every_preset_schedule_runs():
    for name in ("default", "gamma_focus", "epsilon_focus", "balanced", "gamma_then_epsilon"):
        run = make_run(seed=3, schedule=name)
        result = run.run_phases(uc.StopRule(phases=2))
        assert len(result.certificates) == 2
        schedule = uc.Schedule.from_spec(name)
        assert result.certificates[1].epsilon == schedule.at(2)[0]


def test_phase_cost_within_factor_three_of_direct_search():
    # searching the space phase by phase should not cost much more than
    # running the greedy engine directly on the final pool of each phase
    oracle, sampler = parametric_setup(0)
    run = uc.CoupRun(
        sampler, oracle, UTILITY, 0.01, uc.Schedule.from_spec("default"), doubling="new"
    )
    ledgers = {}
    for p in range(1, 7):
        run.run_phases(uc.StopRule(phases=p))
        ledgers[p] = run.ledger.total_seconds
    # the run drew only the configurations it pulled; the pools drawn in full
    drawn = drawn_pool(0, run.ctx.n)
    for cert in run.certificates:
        # the phase's pool is the first cert.n configurations
        pool = list(range(cert.n))
        direct = uc.OupRun(
            drawn, UTILITY, 0.01, doubling="new", pool=pool
        ).run_until(uc.StopRule(epsilon=cert.epsilon))
        assert ledgers[cert.phase] <= 3.0 * direct.ledger.total_seconds


# ---------------------------------------------------------------------------
# Differential equivalence against the greedy engine
# ---------------------------------------------------------------------------


def test_single_phase_matches_greedy_engine_trace():
    for seed in range(3):
        oracle_c, sampler = parametric_setup(seed)
        coup = uc.CoupRun(
            sampler, oracle_c, UTILITY, 0.05, uc.Schedule.from_spec("default"), doubling="new"
        )
        coup.begin_phase()
        n_1 = coup.ctx.n
        for _ in range(120):
            coup.phase_step()

        # the engine holds all n_1 arms, the coup run only those it pulled
        oup = phase_one_engine(seed, 0.05, n_1)
        for _ in range(120):
            oup.step()
        assert trace_lines(coup.trace) == trace_lines(oup.trace)
        assert coup.ledger.total_seconds == oup.ledger.total_seconds

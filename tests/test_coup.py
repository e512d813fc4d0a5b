import dataclasses
import math

import pytest

import utilcap as uc

from helpers import (
    UTILITY,
    NoElimination,
    a2_oracle,
    make_snapshot,
    observations,
    parametric_setup,
    phase_one_engine,
    trace_lines,
)

U60 = uc.LogLaplaceUtility(60.0, 1.0)


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
    assert len(run.arms) == uc.phase_size(1, run.gamma_p, 0.05)
    for arm in run.arms:
        assert arm.m == 0 and arm.snapshot is uc.FRESH


def test_phase_step_selects_lowest_index_on_fresh_pool():
    run = make_run(seed=1)
    run.begin_phase()
    run.phase_step()
    assert run.trace[-1].selected == 0


def test_carryover_keeps_observations_and_widens_bounds():
    run = make_run(seed=2)
    run.begin_phase()
    for _ in range(40):
        run.phase_step()
    kept = {
        i: (list(a.durations), a.m, a.kappa, a.snapshot.ucb - a.snapshot.lcb)
        for i, a in enumerate(run.arms)
        if a.m > 0
    }
    pool_before = len(run.arms)
    run.begin_phase()
    assert len(run.arms) >= pool_before  # pool only grows
    for i, (durations, m, kappa, width) in kept.items():
        arm = run.arms[i]
        assert arm.durations == durations
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
        reference = make_snapshot(run.ctx, arm.m, arm.kappa, observations(arm), UTILITY)
        assert arm.snapshot == reference.engine()


def test_shrinking_requirement_keeps_pool():
    # second phase needs fewer configurations than already exist
    oracle, sampler = parametric_setup(3)
    pairs = [(0.5, 0.05), (0.5, 0.9)]
    schedule = uc.Schedule(lambda p: pairs[p - 1], "explicit")
    run = uc.CoupRun(sampler, oracle, UTILITY, 0.1, schedule, doubling="new")
    run.run_phases(uc.MaxPhases(1))
    n_1 = len(run.arms)
    assert n_1 == uc.phase_size(1, 0.05, 0.1) == 70
    result = run.run_phases(uc.MaxPhases(2))
    assert len(run.arms) == n_1  # nothing added, nothing removed
    assert uc.phase_size(2, 0.9, 0.1) < n_1
    # the union bound counts the pool searched, not the phase requirement
    assert run.ctx.n == len(run.arms)
    assert [c.n for c in result.certificates] == [70, 70]


def test_phase_done_uses_both_maxima():
    run = make_run(seed=1)
    run.begin_phase()
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
    # is indexed at construction, at each begin_phase, and otherwise only to
    # compact a heap whose stale entries outgrew the survivors
    compacting = []
    rebuild = uc.OupRun.rebuild_index

    def heap_sizes(run):
        return [len(getattr(run, name, ())) for name in ("_by_ucb", "_by_lcb", "_low_ucb")]

    def counting_rebuild(run):
        compacting.append(max(heap_sizes(run)) > 2 * len(run.survivors) + 64)
        rebuild(run)

    monkeypatch.setattr(uc.OupRun, "rebuild_index", counting_rebuild)
    run = make_run(seed=4)
    result = run.run_phases(uc.MaxPhases(3))
    assert result.trace and len(result.certificates) == 3
    assert compacting == [False] * (1 + run.p)
    # a single-leader run pushes nothing while it re-pulls the held arm, so
    # its heaps neither grow nor need compacting
    compacting.clear()
    run = NoElimination(a2_oracle(1), UTILITY, 0.1)
    repulls = 0
    for _ in range(1000):
        held, before = run._held, heap_sizes(run)
        run.step()
        after = heap_sizes(run)
        if run.trace[-1].selected == held:
            repulls += 1
            assert after == before
        assert max(after) <= 2 * len(run.survivors) + 64
    assert repulls > 800  # 898: after the ten fresh arms, mostly one leader
    assert compacting == [False]


# ---------------------------------------------------------------------------
# Multi-phase runs
# ---------------------------------------------------------------------------


def test_zero_budget_yields_no_certificates():
    run = make_run(seed=4)
    result = run.run_phases(uc.BudgetSeconds(0.0))
    assert result.certificates == []
    assert result.trace == []
    assert result.incumbent is None
    assert result.stop_reason == "budget_exhausted"


def test_max_phases_gives_one_certificate_per_phase():
    run = make_run(seed=4)
    result = run.run_phases(uc.MaxPhases(3))
    assert [c.phase for c in result.certificates] == [1, 2, 3]
    for c in result.certificates:
        eps_p, gamma_p = uc.Schedule.from_spec("default").at(c.phase)
        assert (c.epsilon, c.gamma) == (eps_p, gamma_p)
        assert c.n == uc.phase_size(c.phase, gamma_p, 0.05)
    assert result.incumbent == result.certificates[-1].incumbent


def test_budget_exhaustion_mid_phase_keeps_previous_certificate():
    probe = make_run(seed=4).run_phases(uc.MaxPhases(1))
    first_phase_cost = probe.ledger.total_seconds
    run = make_run(seed=4)
    result = run.run_phases(uc.BudgetSeconds(first_phase_cost))
    assert len(result.certificates) == 1
    assert result.incumbent == result.certificates[0].incumbent
    assert result.stop_reason == "budget_exhausted"


def test_monotone_pool_and_observation_retention():
    run = make_run(seed=6)
    sizes = []
    totals = []
    for p in range(1, 4):
        run.run_phases(uc.MaxPhases(p))
        sizes.append(len(run.arms))
        totals.append(sum(a.m for a in run.arms))
    assert sizes == sorted(sizes)
    assert totals == sorted(totals)


def test_phases_never_eliminate():
    # later phases need every sampled configuration, so an arm whose UCB is
    # below the incumbent's LCB stays in the pool
    run = make_run(seed=1)
    run.begin_phase()
    snap = run.arms[0].snapshot
    run.arms[0].snapshot = snap._replace(ucb=2.0, lcb=0.0)
    run.arms[1].snapshot = snap._replace(ucb=0.95, lcb=0.9)
    for arm in run.arms[2:]:
        arm.snapshot = arm.snapshot._replace(ucb=0.5, lcb=0.0)
    run.rebuild_index()
    run.phase_step()
    assert run.trace[-1].incumbent == 1
    assert not any(arm.eliminated for arm in run.arms)
    assert run.trace[-1].survivors == len(run.survivors) == len(run.arms)


def test_runs_are_deterministic():
    a = make_run(seed=9).run_phases(uc.MaxPhases(2))
    b = make_run(seed=9).run_phases(uc.MaxPhases(2))
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


def test_opt_gamma_parametric_matches_direct_quantile():
    oracle, sampler = parametric_setup(0)
    gamma = 0.3
    threshold = sampler.optimum_quantile(UTILITY, gamma)
    assert threshold == pytest.approx(sampler.utility_at(gamma, UTILITY), rel=1e-12)
    # the map is strictly decreasing, so exactly the top gamma of thetas beat it
    assert sampler.utility_at(gamma - 0.01, UTILITY) > threshold
    assert sampler.utility_at(gamma + 0.01, UTILITY) < threshold


def test_opt_gamma_finite_sampler():
    oracle, sampler = finite_setup()
    values = oracle.true_utilities(UTILITY)
    assert sampler.optimum_quantile(UTILITY, 0.19) == uc.finite_population_quantile(values, 0.19)


def test_with_replacement_duplicates_share_runtimes():
    oracle, sampler = finite_setup(seed=3)
    draws = sampler.sample(40)
    assert len(set(draws)) < len(draws)  # duplicates occur
    first = draws.index(draws[0], 1) if draws[0] in draws[1:] else None
    # any duplicated configuration replays the same runtime stream
    seen = {}
    for config in draws:
        runs = [oracle.true_runtime(config, j) for j in range(5)]
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
    result = run.run_phases(uc.MaxPhases(2))
    schedule = uc.Schedule.from_spec("default")
    for cert in result.certificates:
        _, gamma_p = schedule.at(cert.phase)
        assert cert.n == uc.phase_size(cert.phase, gamma_p, 0.1)
    assert len(result.extra["arm_configs"]) == result.certificates[-1].n
    # duplicated rows are distinct arms sharing one runtime row
    configs = result.extra["arm_configs"]
    assert len(set(configs)) < len(configs)


def test_mid_phase_selection_ignores_sampling_phase():
    # a carried-over arm with the top bound is selected ahead of newer arms
    run = make_run(seed=5)
    run.run_phases(uc.MaxPhases(1))
    run.begin_phase()
    boosted = 0  # sampled in phase 1
    for i, arm in enumerate(run.arms):
        lift = 2.0 if i == boosted else 0.0
        arm.snapshot = arm.snapshot._replace(ucb=arm.snapshot.ucb + lift)
    run.rebuild_index()
    run.phase_step()
    assert run.trace[-1].selected == boosted


def test_every_preset_schedule_runs():
    for name in ("default", "gamma_focus", "epsilon_focus", "balanced", "gamma_then_epsilon"):
        run = make_run(seed=3, schedule=name)
        result = run.run_phases(uc.MaxPhases(2))
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
        run.run_phases(uc.MaxPhases(p))
        ledgers[p] = run.ledger.total_seconds
    for cert in run.certificates:
        pool = [sampler.make_distribution(t) for t in sampler.thetas[: cert.n]]
        direct = uc.OupRun(
            uc.SyntheticOracle(pool, seed=0), UTILITY, 0.01, doubling="new"
        ).run_until(uc.TargetEpsilon(cert.epsilon))
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
        n_1 = len(coup.arms)
        for _ in range(120):
            coup.phase_step()

        oup = phase_one_engine(sampler, seed, 0.05, n_1)
        for _ in range(120):
            oup.step()
        assert trace_lines(coup.trace) == trace_lines(oup.trace)
        assert coup.ledger.total_seconds == oup.ledger.total_seconds

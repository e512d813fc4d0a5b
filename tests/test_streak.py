"""A streak of rounds equals the same rounds made one at a time.

``run_until`` and ``run_phases`` let ``OupRun.step`` go on for as long as it
re-pulls one arm, with that arm's state and the ledger's sums in locals.  A
twin run makes every round with its own ``step()`` call, which stops after
one round, and tests the stop rule between rounds itself.  The two must
agree on the trace, the ledger, every arm's fields and snapshot, the
survivors, ``eps_min``, the result, and, for ``coup``, the certificates.
Pools repeat configurations, so arms tie exactly; a matrix oracle runs out
of instances, and the partial results must agree too.
"""

import pytest
from hypothesis import given, settings, strategies as st

import utilcap as uc

from helpers import UTILITY, a2_oracle, durations

DISTS = (
    uc.TwoPoint(0.5, 4.0, 0.8),
    uc.Exponential(2.0),
    uc.Exponential(20.0),
    uc.TwoPoint(1.0, 200.0, 0.5),
    # under UNIFORM the last two are 0.9 apart, so up eliminates within a few
    # hundred rounds, and then makes a streak on the last survivor
    uc.TwoPoint(0.1, 5.0, 0.9),
    uc.TwoPoint(0.1, 5.0, 0.05),
)
UNIFORM = uc.UniformUtility(4.0)


def state(run):
    """Everything a round may change, arm by arm and in the ledger."""
    arms = [
        (arm.config, arm.m, arm.kappa, durations(run.oracle, arm), arm.snapshot,
         arm.eliminated, arm._utility_sum, arm._completed_count)
        for arm in run.arms
    ]
    ledger = run.ledger
    return arms, run.survivors, run.eps_min, run.trace, ledger.total_seconds, ledger.run_count


def result_fields(result):
    return (
        result.procedure, result.incumbent, result.incumbent_config, result.incumbent_name,
        result.epsilon, result.trace, result.stop_reason, result.certificates,
        result.ledger.total_seconds, result.ledger.run_count,
    )


def stepped_until(run, stop):
    """``run_until``, made one ``step()`` at a time, with the stop rule's
    test spelt out here."""
    while True:
        if isinstance(stop, uc.MaxRounds) and len(run.trace) >= stop.rounds:
            return run._result("max_rounds")
        if isinstance(stop, uc.BudgetSeconds) and run.ledger.total_seconds >= stop.seconds:
            return run._result("budget_exhausted")
        if isinstance(stop, uc.TargetEpsilon) and run.eps_min <= stop.epsilon:
            return run._result("target_epsilon")
        rounds = len(run.trace)
        run.step()
        assert len(run.trace) == rounds + 1


def stepped_phases(run, phases):
    """``run_phases(MaxPhases(phases))``, made one ``phase_step()`` at a time."""
    while run.p < phases:
        run.begin_phase()
        eps = run.eps_min
        while not eps < run.eps_p:
            run.phase_step()
            eps = uc.TraceRow(*run.trace[-1]).eps_raw
        run._certify()
    return run._result("max_phases")


def engine(procedure, oracle, pool, doubling, utility=UTILITY):
    cls = uc.OupRun if procedure == "oup" else uc.UpRun
    return cls(oracle, utility, 0.1, doubling=doubling, pool=pool)


@settings(max_examples=60, deadline=None)
@given(
    procedure=st.sampled_from(["oup", "up"]),
    pool=st.lists(st.integers(0, len(DISTS) - 1), min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
    doubling=st.sampled_from(["old", "new"]),
    utility=st.sampled_from([UTILITY, UNIFORM]),
    stop=st.one_of(
        st.builds(uc.MaxRounds, st.integers(1, 600)),
        st.builds(uc.BudgetSeconds, st.floats(0.0, 400.0)),
        st.builds(uc.TargetEpsilon, st.floats(0.45, 0.9)),
    ),
)
def test_run_until_equals_single_rounds(procedure, pool, seed, doubling, utility, stop):
    def make():
        oracle = uc.SyntheticOracle(list(DISTS), seed=seed)
        return engine(procedure, oracle, pool, doubling, utility)

    streaked, stepped = make(), make()
    result = streaked.run_until(stop)
    assert result_fields(result) == result_fields(stepped_until(stepped, stop))
    assert state(streaked) == state(stepped)
    # the run is left as step() alone finds it: one more round is one round
    streaked.step()
    stepped.step()
    assert state(streaked) == state(stepped)


def test_eliminations_in_the_middle_of_a_streak():
    # rivals with hand-set bounds below arm 0's UCB: oup pulls arm 0 round
    # after round, and its LCB passes each rival's UCB in turn
    def make():
        run = uc.OupRun(a2_oracle(0), UTILITY, 0.1, pool=[0, 5, 6, 7])
        for arm, (ucb, lcb) in zip(run.arms[1:], [(0.5, 0.0), (0.45, 0.1), (0.3, 0.2)]):
            arm.snapshot = arm.snapshot._replace(ucb=ucb, lcb=lcb)
        run.rebuild_index()
        run.eps_min = run.guaranteed_epsilon()
        return run

    streaked, stepped = make(), make()
    result = streaked.run_until(uc.MaxRounds(400))
    assert result_fields(result) == result_fields(stepped_until(stepped, uc.MaxRounds(400)))
    assert state(streaked) == state(stepped)
    trace = [uc.TraceRow(*row) for row in result.trace]
    falls = [k for k in range(1, len(trace)) if trace[k].survivors < trace[k - 1].survivors]
    assert len(falls) == 3 and streaked.survivors == [0]
    assert all(trace[k].selected == trace[k - 1].selected == 0 for k in falls)


@settings(max_examples=12, deadline=None)
@given(
    finite=st.booleans(),
    seed=st.integers(0, 2**16),
    doubling=st.sampled_from(["old", "new"]),
    phases=st.integers(3, 4),
)
def test_run_phases_equals_single_rounds(finite, seed, doubling, phases):
    def make():
        if finite:
            oracle = uc.SyntheticOracle(list(DISTS), seed=seed)
            sampler = uc.FinitePoolSampler(oracle, seed=seed)
        else:
            oracle = uc.SyntheticOracle([], seed=seed)
            make_dist = uc.exponential_mean_map(0.1, 10000.0)
            sampler = uc.ParametricSampler(oracle, seed=seed, make_distribution=make_dist)
        schedule = uc.Schedule.from_spec("default")
        return uc.CoupRun(sampler, oracle, UTILITY, 0.1, schedule, doubling=doubling)

    streaked, stepped = make(), make()
    result = streaked.run_phases(uc.MaxPhases(phases))
    assert result_fields(result) == result_fields(stepped_phases(stepped, phases))
    assert len(result.certificates) == phases
    assert state(streaked) == state(stepped)


def exhausted(run, drive):
    with pytest.raises(uc.InstanceExhaustedError) as info:
        drive(run)
    err = info.value
    return err, (err.config, err.instance, err.achieved_epsilon, result_fields(err.partial))


@settings(max_examples=25, deadline=None)
@given(
    procedure=st.sampled_from(["oup", "up"]),
    rows=st.lists(
        st.lists(st.sampled_from([0.1, 0.5, 1.0, 3.0, 10.0, 80.0]), min_size=30, max_size=30),
        min_size=1, max_size=3,
    ),
    instances=st.integers(5, 30),
    doubling=st.sampled_from(["old", "new"]),
)
def test_exhaustion_equals_single_rounds(procedure, rows, instances, doubling):
    def make():
        matrix = tuple(tuple(row[:instances]) for row in rows)
        names = tuple(f"c{k}" for k in range(len(rows)))
        oracle = uc.MatrixOracle(matrix, names, tuple(reversed(range(instances))))
        return engine(procedure, oracle, None, doubling)

    # no run of at most 30 instances per configuration reaches eps 0.01
    stop = uc.TargetEpsilon(0.01)
    streaked, stepped = make(), make()
    _, got = exhausted(streaked, lambda run: run.run_until(stop))
    _, want = exhausted(stepped, lambda run: stepped_until(run, stop))
    assert got == want
    assert state(streaked) == state(stepped)


def test_exhaustion_in_the_middle_of_a_streak():
    # configuration 0 completes every run fast, so oup pulls it round after
    # round once it leads, and its instances run out while it is held
    matrix = ((0.1,) * 12, (50.0,) * 12, (9.0, 0.2) * 6)
    oracle = uc.MatrixOracle(matrix, ("fast", "slow", "mixed"), tuple(range(12)))
    run = uc.OupRun(oracle, UTILITY, 0.1)
    err, got = exhausted(run, lambda run: run.run_until(uc.TargetEpsilon(0.01)))
    trace = [uc.TraceRow(*row) for row in err.partial.trace]
    assert err.config == 0 and trace[-1].selected == trace[-2].selected == 0
    twin = uc.OupRun(uc.MatrixOracle(matrix, oracle.names, oracle.instance_order), UTILITY, 0.1)
    _, want = exhausted(twin, lambda run: stepped_until(run, uc.TargetEpsilon(0.01)))
    assert got == want
    assert state(run) == state(twin)
    # the failed pull counted the observation, and made no run
    arm = run.arms[0]
    assert arm.m == len(durations(run.oracle, arm)) + 1 == 13


def test_a_first_run_that_fails_charges_nothing():
    # an oracle without instances fails the first pull of the first arm: the
    # arm counts the observation, and the ledger holds no run and no seconds
    oracle = uc.MatrixOracle(((), ()), ("a", "b"), ())
    run = uc.OupRun(oracle, UTILITY, 0.1)
    err, _ = exhausted(run, lambda run: run.run_until(uc.MaxRounds(5)))
    assert (err.config, err.instance, err.partial.trace) == (0, 0, [])
    assert run.arms[0].m == 1 and run.arms[0].snapshot is uc.FRESH
    assert (run.ledger.run_count, run.ledger.total_seconds) == (0, 0.0)

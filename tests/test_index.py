"""The engine's bound index answers exactly what a full scan would.

Random ``oup``, ``up`` and ``coup`` runs over small pools are checked round
by round against ``scan`` over the survivors: each round's trace row
(selection, incumbent and ``eps_raw``), the survivors and the eliminations.
Those checks read only the trace and the arms' snapshots, so the pulled arm
stays held out of the heaps across rounds, as in a real run; the queries
that push it back (``leaders``, ``incumbent``, ``guaranteed_epsilon``) are
checked only at the end of each segment.  After every round, each cached
rival top must be what a scan of the other survivors finds.  Pools repeat
configurations, so pulled arms tie exactly as well as fresh ones (UCB 1.0,
LCB 0.0), and runs are long enough for the heaps to be compacted.

The pulled arms of every engine are a prefix ``[0, k)`` of its pool, and
every arm never pulled shares the sentinel snapshot ``FRESH``; the prefix
tests check that after every round and every phase start.
"""

import pytest
from hypothesis import given, settings, strategies as st

import utilcap as uc
from utilcap.oup import _NO_RIVAL

from helpers import UTILITY, parametric_setup, scan

DISTS = (
    uc.TwoPoint(0.5, 4.0, 0.8),
    uc.Exponential(2.0),
    uc.Exponential(20.0),
    uc.TwoPoint(1.0, 200.0, 0.5),
)


def step_and_check(run):
    """Make one round; it must select, read the leaders and eliminate as
    scans of the snapshots before and after it would."""
    before = list(run.survivors)
    selected = scan(run.arms, before)[0]
    run.step()
    row = run.trace[-1]
    if not isinstance(run, uc.UpRun):  # up selects round-robin
        assert row.selected == selected
    _, star, eps = scan(run.arms, before)
    assert (row.incumbent, row.eps_raw) == (star, eps)
    expected = before
    if run._eliminates():
        threshold = run.arms[star].snapshot.lcb
        expected = [j for j in before if run.arms[j].snapshot.ucb >= threshold]
    assert run.survivors == expected
    assert all(run.arms[j].eliminated for j in set(before) - set(expected))
    check_rival_tops(run)


def check_rival_tops(run):
    """Each cached rival top is the least entry over the survivors other
    than the held arm."""
    rivals = [(j, run.arms[j].snapshot) for j in run.survivors if j != run._held]
    for top, key in (
        (run._rival_ucb, lambda s: -s.ucb),
        (run._rival_lcb, lambda s: -s.lcb),
        (run._rival_low, lambda s: s.ucb),
    ):
        if top is not None:
            assert top == min(((key(s), j) for j, s in rivals), default=_NO_RIVAL)


def check_index(run):
    reference = scan(run.arms, run.survivors)
    if not isinstance(run, uc.UpRun):
        assert run.select_arm() == reference[0]
    assert run.leaders() == reference
    assert run.incumbent() == reference[1]
    assert run.guaranteed_epsilon() == reference[2]


@settings(max_examples=60, deadline=None)
@given(
    procedure=st.sampled_from(["oup", "up", "coup"]),
    pool=st.lists(st.integers(0, len(DISTS) - 1), min_size=1, max_size=8),
    seed=st.integers(0, 2**16),
    doubling=st.sampled_from(["old", "new"]),
    segments=st.lists(st.integers(0, 80), min_size=1, max_size=4),
)
def test_index_matches_full_scan(procedure, pool, seed, doubling, segments):
    oracle = uc.SyntheticOracle(list(DISTS), seed=seed)
    if procedure == "coup":
        # coup samples its pool, with replacement, instead of taking ``pool``
        sampler = uc.FinitePoolSampler(oracle, seed=seed)
        schedule = uc.Schedule.from_spec("default")
        run = uc.CoupRun(sampler, oracle, UTILITY, 0.1, schedule, doubling=doubling)
    else:
        engine = uc.OupRun if procedure == "oup" else uc.UpRun
        run = engine(oracle, UTILITY, 0.1, doubling=doubling, pool=pool)
        check_index(run)
    # a coup segment starts a phase, finished or not, over a grown pool
    for rounds in segments:
        if procedure == "coup":
            run.begin_phase()
            check_index(run)
        for _ in range(rounds):
            step_and_check(run)
        check_index(run)


def test_held_arm_eliminated_at_a_sweep_boundary():
    # golden cell up_new_seed1: round 460 ends a sweep with arm 4, which that
    # round eliminates, and round 461 starts the next sweep with arm 0.  No
    # rival top cached while arm 4 was held may outlive it: one may hold
    # arm 0's key from before its pull
    oracle = uc.SyntheticOracle([uc.Exponential(m) for m in (1.0, 5.0, 20.0, 60.0, 200.0)], seed=1)
    run = uc.UpRun(oracle, UTILITY, 0.1, doubling="new")
    for _ in range(459):
        run.step()
    step_and_check(run)
    assert run.trace[-1].selected == 4 and run.arms[4].eliminated
    step_and_check(run)
    assert run.trace[-1].selected == 0
    check_index(run)


def test_rival_eliminated_by_the_held_incumbent_leaves_no_cached_top():
    # round 386 pulls arm 1 at the end of a sweep; arm 1, held and the
    # incumbent, eliminates arm 0, the top of every rival heap.  Arm 1 stays
    # held, so only dropping the cached tops keeps arm 0 out of them
    oracle = uc.SyntheticOracle(list(DISTS), seed=6164)
    run = uc.UpRun(oracle, UTILITY, 0.1, doubling="new", pool=[3, 0])
    for _ in range(385):
        run.step()
    step_and_check(run)
    assert run.arms[0].eliminated and run._held == run.trace[-1].incumbent == 1
    step_and_check(run)
    check_index(run)


def check_prefix(run) -> int:
    """The pulled arms are exactly the positions ``[0, k)``; every arm never
    pulled shares the sentinel snapshot and is never eliminated.  Returns k."""
    k = sum(arm.m > 0 for arm in run.arms)
    assert all(arm.m > 0 for arm in run.arms[:k])
    assert all(arm.snapshot is uc.FRESH and not arm.eliminated for arm in run.arms[k:])
    return k


def checked(run, name, fresh_seen: list):
    """Check the prefix invariant after every call of the run's method
    ``name``, and record whether a fresh arm was left."""
    method = getattr(run, name)

    def call():
        method()
        fresh_seen.append(check_prefix(run) < len(run.arms))

    setattr(run, name, call)


GOLDEN_POOLS = {
    "exponential": [uc.Exponential(m) for m in (1.0, 5.0, 20.0, 60.0, 200.0)],
    "lognormal": [uc.LogNormal(*p) for p in ((0.0, 1.0), (1.5, 0.8), (2.5, 1.2), (3.5, 0.5))],
}


@pytest.mark.parametrize("doubling", ["old", "new"])
@pytest.mark.parametrize("pool", sorted(GOLDEN_POOLS))
@pytest.mark.parametrize("engine", [uc.OupRun, uc.UpRun])
def test_pulled_arms_are_a_prefix_of_a_fixed_pool(engine, pool, doubling):
    # ties go to the lowest position, and no fresh arm is eliminated, so the
    # first pulls are in pool order
    fresh_seen = []
    for seed in (1, 2, 3):
        run = engine(uc.SyntheticOracle(GOLDEN_POOLS[pool], seed=seed), UTILITY, 0.1,
                     doubling=doubling)
        check_prefix(run)
        checked(run, "step", fresh_seen)
        run.run_until(uc.TargetEpsilon(0.2))
    assert any(fresh_seen)


@pytest.mark.parametrize("doubling", ["old", "new"])
@pytest.mark.parametrize("space", ["parametric", "finite"])
def test_pulled_arms_are_a_prefix_of_a_coup_pool(space, doubling):
    # coup appends the arms it samples, so a phase start keeps the prefix
    fresh_seen = []
    for seed in (1, 2, 3):
        if space == "parametric":
            oracle, sampler = parametric_setup(seed)
        else:
            oracle = uc.SyntheticOracle(GOLDEN_POOLS["exponential"], seed=seed)
            sampler = uc.FinitePoolSampler(oracle, seed=seed)
        run = uc.CoupRun(sampler, oracle, UTILITY, 0.1, uc.Schedule.from_spec("default"),
                         doubling=doubling)
        checked(run, "begin_phase", fresh_seen)
        checked(run, "phase_step", fresh_seen)
        run.run_phases(uc.MaxPhases(4))
        assert len(run.certificates) == 4
    assert any(fresh_seen)

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
"""

from hypothesis import given, settings, strategies as st

import utilcap as uc
from utilcap.oup import _NO_RIVAL

from helpers import UTILITY, scan

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

"""The engine's bound index answers exactly what a full scan would.

Random ``oup``, ``up`` and ``coup`` runs over small pools are checked after
every round against ``scan`` over the survivors.  Pools repeat
configurations, so pulled arms tie exactly as well as fresh ones (UCB 1.0,
LCB 0.0), and runs are long enough for the heaps to be compacted.
"""

from hypothesis import given, settings, strategies as st

import utilcap as uc

from helpers import UTILITY, scan

DISTS = (
    uc.TwoPoint(0.5, 4.0, 0.8),
    uc.Exponential(2.0),
    uc.Exponential(20.0),
    uc.TwoPoint(1.0, 200.0, 0.5),
)


def check_round(run, before):
    """The round just made read the leaders and eliminated as a scan would."""
    row = run.trace[-1]
    _, star, eps = scan(run.arms, before)
    assert (row.incumbent, row.eps_raw) == (star, eps)
    expected = before
    if run._eliminates():
        threshold = run.arms[star].snapshot.lcb
        expected = [j for j in before if run.arms[j].snapshot.ucb >= threshold]
    assert run.survivors == expected
    assert all(run.arms[j].eliminated for j in set(before) - set(expected))
    check_index(run)


def check_index(run):
    reference = scan(run.arms, run.survivors)
    assert run.leaders() == reference
    assert run.incumbent() == reference[1]
    assert run.guaranteed_epsilon() == reference[2]
    if not isinstance(run, uc.UpRun):  # up selects round-robin
        assert run.select_arm() == reference[0]


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
            before = list(run.survivors)
            run.step()
            check_round(run, before)

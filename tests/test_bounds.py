import math

import pytest
from hypothesis import example, given, settings, strategies as st

from utilcap import (
    FRESH,
    BoundContext,
    BoundSnapshot,
    LogLaplaceUtility,
    UniformUtility,
    alpha,
    doubling_new,
    doubling_old,
)
from utilcap.arms import ArmState
from utilcap.bounds import width_at, width_table

from helpers import (
    CappedObservation,
    empirical_cdf_at_cap,
    empirical_utility,
    make_snapshot,
    reference_doubling_new,
    reference_doubling_old,
    rule_fires,
)

CTX10 = BoundContext(n=10, delta=0.1)


# ---------------------------------------------------------------------------
# Confidence width
# ---------------------------------------------------------------------------


def test_alpha_direct_values():
    # sqrt(ln(11 * 10 * 100^2 * (log2(k)+1)^2 / 0.1) / 200), frozen from
    # 50-digit evaluation of the same expression
    assert alpha(CTX10, 100, 1.0) == pytest.approx(0.28472272328322027, abs=1e-14)
    assert alpha(CTX10, 100, 2.0) == pytest.approx(0.29664541284067191, abs=1e-14)


def test_alpha_phase_variant():
    ctx = BoundContext(n=9, delta=0.05, phase=2)
    expected = math.sqrt(math.log(36 * 4 * 9 * 49 * 9 / 0.05) / 14)
    assert alpha(ctx, 7, 4.0) == pytest.approx(expected, rel=1e-15)


def test_alpha_strictly_decreasing_in_m():
    assert alpha(CTX10, 400, 1.0) < alpha(CTX10, 100, 1.0)
    values = [alpha(CTX10, m, 8.0) for m in range(1, 400)]
    for a, b in zip(values, values[1:]):
        assert b < a


def test_alpha_increasing_in_kappa_and_decreasing_delta():
    for m in (1, 10, 1000):
        assert alpha(CTX10, m, 2.0) > alpha(CTX10, m, 1.0)
        assert alpha(CTX10, m, 1024.0) > alpha(CTX10, m, 2.0)
    tight = BoundContext(n=10, delta=0.01)
    assert alpha(tight, 50, 4.0) > alpha(CTX10, 50, 4.0)


def test_alpha_rejects_m_zero_and_bad_kappa():
    with pytest.raises(ValueError):
        alpha(CTX10, 0, 1.0)
    with pytest.raises(ValueError):
        alpha(CTX10, 5, 0.5)
    with pytest.raises(ValueError):
        alpha(CTX10, 5, 3.0)


def test_alpha_reads_every_level_of_the_doubling_grid():
    # log2 of each captime from 1 to the largest finite power of two, as
    # the formula writes it
    ctx = BoundContext(n=5, delta=0.25)
    for level in range(1024):
        kappa = 2.0**level
        log_term = (math.log2(kappa) + 1) ** 2
        assert alpha(ctx, 7, kappa) == math.sqrt(
            math.log(11.0 * 5 * 7 * 7 * log_term / 0.25) / 14
        )
    for kappa in (0.0, -1.0, 0.5, 3.0, 1.0 + 2**-52, 2.0**10 + 1, math.inf, math.nan):
        with pytest.raises(ValueError):
            alpha(ctx, 7, kappa)


def test_first_pull_width_exceeds_one():
    # on a fresh pool the width cannot certify anything: alpha(1, 1) > 1
    # whenever delta <= 0.5 and n >= 2
    assert alpha(BoundContext(n=2, delta=0.5), 1, 1.0) == pytest.approx(
        1.3755343750554294, abs=1e-13
    )
    for n in (2, 5, 100):
        for delta in (0.5, 0.1, 0.01):
            assert alpha(BoundContext(n=n, delta=delta), 1, 1.0) > 1.0


def test_alpha_sums_logs_only_when_the_argument_overflows():
    # 11 * 5 * 7^2 * 2^2 / 1e-320 overflows to inf; its log is about 746
    tiny = BoundContext(n=5, delta=1e-320)
    log_arg = math.log(11.0) + math.log(5) + math.log(49) + math.log(4) - math.log(1e-320)
    assert alpha(tiny, 7, 2.0) == pytest.approx(math.sqrt(log_arg / 14), rel=1e-15)
    phased = BoundContext(n=5, delta=1e-320, phase=3)
    log_arg = math.log(36.0 * 9) + math.log(5) + math.log(49) + math.log(4) - math.log(1e-320)
    assert alpha(phased, 7, 2.0) == pytest.approx(math.sqrt(log_arg / 14), rel=1e-15)
    # a finite argument keeps the direct formula's bits
    small = BoundContext(n=5, delta=1e-300)
    assert alpha(small, 7, 2.0) == math.sqrt(math.log(11.0 * 5 * 7 * 7 * 4 / 1e-300) / 14)
    assert alpha(small, 7, 2.0) < alpha(tiny, 7, 2.0) < alpha(phased, 7, 2.0)
    values = [alpha(tiny, m, 2.0) for m in range(1, 200)]
    assert all(math.isfinite(a) for a in values)
    assert all(b < a for a, b in zip(values, values[1:]))


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(1, 10**6),
    m=st.integers(1, 10**9),
    level=st.integers(0, 1023),
    phase=st.none() | st.integers(1, 10**4),
    delta=st.sampled_from([0.5, 0.1, 1e-6, 1e-300, 1e-320, 5e-324]) | st.floats(5e-324, 0.99),
)
@example(n=5, m=7, level=1, phase=None, delta=1e-320)
@example(n=5, m=7, level=1, phase=3, delta=1e-320)
def test_width_at_equals_alpha_bit_for_bit(n, m, level, phase, delta):
    ctx = BoundContext(n=n, delta=delta, phase=phase)
    kappa = 2.0**level
    # the width as the formula writes it, log2 of the captime included, with
    # the logs summed only when the argument overflows
    lead = 11.0 if phase is None else 36.0 * phase * phase
    log_term = (math.log2(kappa) + 1) ** 2
    arg = lead * n * m * m * log_term / delta
    if arg == math.inf:
        log_arg = (
            math.log(lead) + math.log(n) + math.log(m * m) + math.log(log_term) - math.log(delta)
        )
    else:
        log_arg = math.log(arg)
    expected = math.sqrt(log_arg / (2.0 * m))
    assert width_at(ctx, kappa)(m) == expected
    assert alpha(ctx, m, kappa) == expected


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 10**6),
    level=st.integers(0, 1023),
    phase=st.none() | st.integers(1, 10**4),
    delta=st.sampled_from([0.1, 1e-300, 1e-320, 5e-324]) | st.floats(5e-324, 0.99),
    requests=st.lists(st.integers(1, 3000), min_size=1, max_size=12),
)
@example(n=5, level=1, phase=None, delta=1e-320, requests=[7, 3, 9, 1])
@example(n=10**6, level=1023, phase=10**4, delta=5e-324, requests=[2999, 5])
def test_width_table_equals_width_at_bit_for_bit(n, level, phase, delta, requests):
    # counts read out of order and read again, as the round loop and the
    # runs sharing a table read them; the examples take the overflow branch
    # of the width
    width_table.cache_clear()
    ctx = BoundContext(n=n, delta=delta, phase=phase)
    kappa = 2.0**level
    width = width_at(ctx, kappa)
    table = width_table(ctx, kappa)
    read = [table[m] for m in requests]
    assert read == [width(m) for m in requests]
    # the table holds exactly the counts read, each computed on its first
    # read and returned as stored on every later one
    assert table.keys() == set(requests)
    assert all(table[m] is value for m, value in zip(requests, read))
    # an equal context and captime share the table; another pool size at the
    # same captime reads its own widths
    assert width_table(BoundContext(n=n, delta=delta, phase=phase), kappa) is table
    other = BoundContext(n=n + 1, delta=delta, phase=phase)
    assert [width_table(other, kappa)[m] for m in requests] == [
        width_at(other, kappa)(m) for m in requests
    ]


def test_width_at_rejects_a_captime_off_the_grid():
    for kappa in (0.5, 3.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="captime must be a power of two"):
            width_at(CTX10, kappa)
        with pytest.raises(ValueError, match="captime must be a power of two"):
            width_table(CTX10, kappa)


def test_bound_context_validation():
    with pytest.raises(ValueError):
        BoundContext(n=0, delta=0.1)
    with pytest.raises(ValueError):
        BoundContext(n=1, delta=1.0)
    with pytest.raises(ValueError):
        BoundContext(n=1, delta=0.1, phase=0)


# ---------------------------------------------------------------------------
# Empirical summaries
# ---------------------------------------------------------------------------


def test_empirical_cdf_counts_completions():
    obs = [
        CappedObservation(0.5, True),
        CappedObservation(1.0, False),
        CappedObservation(1.0, False),
    ]
    assert empirical_cdf_at_cap(obs) == pytest.approx(1 / 3)
    assert empirical_cdf_at_cap([CappedObservation(0.1, True)] * 4) == 1.0
    assert empirical_cdf_at_cap([CappedObservation(1.0, False)] * 4) == 0.0


def test_empirical_utility_direct():
    u = UniformUtility(60.0)
    obs = [
        CappedObservation(0.5, True),
        CappedObservation(1.0, False),
        CappedObservation(1.0, False),
    ]
    assert empirical_utility(obs, u) == pytest.approx(355.0 / 360.0, abs=1e-15)
    assert empirical_utility([CappedObservation(0.0, True)], u) == 1.0
    ll = LogLaplaceUtility(60.0, 1.0)
    assert empirical_utility([CappedObservation(60.0, True)], ll) == 0.5


def test_empirical_summaries_reject_empty():
    with pytest.raises(ValueError):
        empirical_cdf_at_cap([])
    with pytest.raises(ValueError):
        empirical_utility([], UniformUtility(60.0))


# ---------------------------------------------------------------------------
# Doubling conditions
# ---------------------------------------------------------------------------


def test_doubling_old_cases():
    assert rule_fires(doubling_old, 0.1, 0.5, 0.2)  # 0.2 <= 0.4
    assert not rule_fires(doubling_old, 0.1, 0.0, 0.2)  # utility floor reached
    assert not rule_fires(doubling_old, 0.1, 0.5, 1.0)  # everything completes


def test_doubling_new_cases():
    assert rule_fires(doubling_new, 0.1, 0.5, 0.2)  # 0.1 <= 0.45
    assert rule_fires(doubling_new, 0.3, 1.0, 0.9)  # left side is zero
    assert not rule_fires(doubling_new, 0.1, 0.0, 0.2)  # right side is zero


@given(
    st.floats(min_value=1e-6, max_value=2.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_doubling_new_boundary_behavior(a, uk):
    # with every run completing and no width left, there is nothing to gain
    if uk < 1.0 and a > 0.0:
        assert rule_fires(doubling_new, a, uk, 1.0) == (2.0 * (1.0 - uk) * a <= uk * a)
    # with nothing completing, fire as soon as the capping term dominates
    assert rule_fires(doubling_new, a, uk, 0.0) == (2.0 * (1.0 - uk) * a <= uk * (1.0 + a))


@given(
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@example(0.1, 0.5, 0.2)
@example(1.5, 1.0 - 2.0**-53, 1.0)
@example(5e-324, 5e-324, 1.0 - 2.0**-53)
def test_rule_terms_give_the_formulas_bit_for_bit(a, uk, f_hat):
    # the round tests a rule's terms, lead * a <= u_k (1 - f_hat + share * a);
    # both sides equal the formula's, so the round doubles exactly when the
    # formula fires.  Widths are finite and positive, u(kappa) and f_hat lie
    # in [0, 1], and 1 - f_hat is never -0.0, so adding 0.0 * a keeps its bits
    for rule, reference, sides in (
        (doubling_old, reference_doubling_old, (2.0 * a, uk * (1.0 - f_hat))),
        (
            doubling_new,
            reference_doubling_new,
            (2.0 * (1.0 - uk) * a, uk * (1.0 - f_hat + a)),
        ),
    ):
        lead, share = rule(uk)
        assert (lead * a, uk * (1.0 - f_hat + share * a)) == sides
        assert rule_fires(rule, a, uk, f_hat) == reference(a, uk, f_hat)


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


def test_snapshot_single_completed_run():
    # one completed run at u(t) = 1 with u(kappa) = 1/2
    u = UniformUtility(2.0)
    ctx = BoundContext(n=3, delta=0.2)
    snap = make_snapshot(ctx, 1, 1.0, [CappedObservation(0.0, True)], u)
    a = alpha(ctx, 1, 1.0)
    assert snap.u_hat == 1.0 and snap.f_hat == 1.0
    assert snap.ucb == pytest.approx(1.0 + 0.5 * a, rel=1e-15)
    assert snap.lcb == pytest.approx(1.0 - a, rel=1e-15)


def test_snapshot_all_capped_is_not_clamped():
    u = UniformUtility(2.0)
    ctx = BoundContext(n=3, delta=0.2)
    snap = make_snapshot(ctx, 2, 1.0, [CappedObservation(1.0, False)] * 2, u)
    a = alpha(ctx, 2, 1.0)
    assert snap.u_hat == 0.5 and snap.f_hat == 0.0
    assert snap.lcb == pytest.approx(-a, rel=1e-14)


def test_snapshot_fresh_sentinel():
    # a snapshot holds what the engine reads; every fresh arm shares one
    assert BoundSnapshot._fields == ("f_hat", "u_at_kappa", "ucb", "lcb")
    assert (FRESH.f_hat, FRESH.ucb, FRESH.lcb) == (0.0, 1.0, 0.0)
    assert math.isnan(FRESH.u_at_kappa)
    assert ArmState(0).snapshot is FRESH and ArmState(1).snapshot is FRESH


def test_snapshot_count_mismatch_rejected():
    u = UniformUtility(2.0)
    with pytest.raises(ValueError):
        make_snapshot(CTX10, 2, 1.0, [CappedObservation(0.0, True)], u)
    with pytest.raises(ValueError):
        make_snapshot(CTX10, 0, 1.0, [CappedObservation(0.0, True)], u)


@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=10),
    st.data(),
)
@settings(max_examples=1000, deadline=None)
def test_width_identity_on_random_snapshots(m, level, data):
    kappa = 2.0 ** level
    u = LogLaplaceUtility(60.0, 1.0)
    # the m runtimes in one draw, far cheaper for hypothesis than m draws
    times = data.draw(st.lists(st.floats(min_value=0.0, max_value=kappa), min_size=m, max_size=m))
    obs = [CappedObservation.observe(t, kappa) if t < kappa else CappedObservation(kappa, False)
           for t in times]
    snap = make_snapshot(CTX10, m, kappa, obs, u)
    identity = (2.0 - snap.u_at_kappa) * snap.alpha + snap.u_at_kappa * (1.0 - snap.f_hat)
    assert snap.ucb - snap.lcb == pytest.approx(identity, rel=1e-12)
    assert snap.lcb <= snap.ucb

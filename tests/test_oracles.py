import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp
from scipy.special import ndtri

from utilcap import (
    BoundContext,
    Exponential,
    InstanceExhaustedError,
    LogLaplaceUtility,
    LogNormal,
    MatrixOracle,
    OupRun,
    SyntheticOracle,
    TwoPoint,
    UniformUtility,
    alpha,
    expected_capped_utility,
    load_runtime_matrix,
    true_capped_utility,
)
from utilcap import oracles
from utilcap.baselines import halving_plan, naive_plan, naive_run, run_plan
from utilcap.records import StopRule
from utilcap.rng import RUNTIME_STREAM, stream_generator

from helpers import capped_run, completion_probability, durations, never_double, true_runtimes


# ---------------------------------------------------------------------------
# Capped runs: an oracle gives the true runtime, and the engines cap it
# ---------------------------------------------------------------------------

U60 = UniformUtility(60.0)


def observe(runtimes, kappa=1.0):
    """Pull one arm once per runtime at captime 1, and sample the same runs
    as naive does at ``kappa``; both must charge the same capped durations.
    Returns the arm and its durations."""
    n = len(runtimes)
    oracle = MatrixOracle((tuple(runtimes),), ("a",), tuple(range(n)))
    run = OupRun(oracle, U60, 0.1)
    run.doubling_rule = never_double
    for _ in range(n):
        run.step()
    arm = run.arms[0]
    sampled = run_plan("naive", oracle, U60, kappa, [(n, 1)], math.nan).ledger
    observed = durations(oracle, arm)
    assert sampled.total_seconds == run.ledger.total_seconds == sum(observed)
    return arm, observed


def test_observe_capped_and_completed():
    arm, observed = observe([2.7, 0.4])
    assert observed == [1.0, 0.4]
    assert arm.snapshot.f_hat == 0.5


def test_observe_boundary_is_capped():
    # landing exactly on the captime counts as capped
    arm, observed = observe([1.0])
    assert observed == [1.0] and arm.snapshot.f_hat == 0.0


def test_observe_zero_runtime_allowed():
    arm, observed = observe([0.0])
    assert observed == [0.0] and arm.snapshot.f_hat == 1.0


def test_observe_rejects_bad_inputs():
    # a negative runtime: the distributions and the matrix loader refuse it
    # (tests below), and so does the matrix oracle, the boundary every
    # recorded runtime passes before an engine values it
    with pytest.raises(ValueError, match="nonnegative"):
        observe([0.5, -1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        MatrixOracle(((-1.0,),), ("a",), (0,))
    # a captime: every pull's width looks the arm's up on the doubling grid,
    # naive's is a power of two, and sh's is checked by its plan
    ctx = BoundContext(n=1, delta=0.1)
    for kappa in (0.0, -1.0, 3.0, math.nan):
        with pytest.raises(ValueError, match="power of two"):
            alpha(ctx, 1, kappa)
    kappa, _ = naive_plan(3, U60, 0.4, 0.1)
    assert kappa >= 1.0 and math.frexp(kappa)[0] == 0.5
    for kappa in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="captime must be positive"):
            halving_plan(4, 8, 2, kappa)


# ---------------------------------------------------------------------------
# Synthetic oracle
# ---------------------------------------------------------------------------


def test_synthetic_run_is_deterministic():
    a = SyntheticOracle([Exponential(2.0)], seed=4)
    b = SyntheticOracle([Exponential(2.0)], seed=4)
    assert true_runtimes(a, 0, 10) == true_runtimes(b, 0, 10)


@pytest.fixture(scope="module")
def three_families():
    oracle = SyntheticOracle(
        [Exponential(3.0), LogNormal(1.0, 1.5), TwoPoint(0.5, 40.0, 0.6)], seed=13
    )
    # the first lognormal draw imports scipy; make it before the first example,
    # so that the import is not charged to an example's deadline
    true_runtimes(oracle, 1, 1)
    return oracle


@given(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
)
@settings(max_examples=200)
def test_oracle_consistency_across_captimes(three_families, config, instance, l1, l2):
    k1, k2 = 2.0 ** min(l1, l2), 2.0 ** max(l1, l2)
    lo = capped_run(three_families, config, instance, k1)
    hi = capped_run(three_families, config, instance, k2)
    assert lo.duration <= hi.duration
    if lo.completed:
        assert hi.completed and hi.duration == lo.duration


def scalar_runtime(dist, v: float) -> float:
    """One runtime from one uniform, as the oracle computed it draw by draw
    before it mapped a block at a time."""
    if isinstance(dist, Exponential):
        return -dist.mean * math.log1p(-v)
    if isinstance(dist, LogNormal):
        return math.exp(dist.mu + dist.sigma * ndtri(v)) if v > 0.0 else 0.0
    return dist.t_fast if v < dist.p_fast else dist.t_slow


DISTRIBUTIONS = st.one_of(
    st.builds(Exponential, st.floats(1e-3, 1e6)),
    st.builds(LogNormal, st.floats(-50.0, 50.0), st.floats(1e-3, 10.0)),
    st.builds(TwoPoint, st.floats(0.0, 1e6), st.floats(0.0, 1e6), st.floats(0.0, 1.0)),
)
# the least and the largest uniform a stream can draw, and one subnormal
EDGE_UNIFORMS = [0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53]


@settings(max_examples=300, deadline=None)
@given(
    dist=DISTRIBUTIONS,
    vs=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=300),
)
@example(dist=Exponential(3.0), vs=EDGE_UNIFORMS)
@example(dist=LogNormal(1.0, 1.5), vs=EDGE_UNIFORMS)
@example(dist=LogNormal(-50.0, 10.0), vs=EDGE_UNIFORMS)
@example(dist=TwoPoint(0.5, 40.0, 0.6), vs=EDGE_UNIFORMS)
@example(dist=TwoPoint(0.5, 40.0, 0.0), vs=EDGE_UNIFORMS)
@example(dist=TwoPoint(0.5, 40.0, 1.0), vs=EDGE_UNIFORMS)
def test_runtimes_from_uniforms_equal_the_scalar_formula_bit_for_bit(dist, vs):
    # a block of uniforms as the oracle draws it, a float64 array
    got = dist.runtimes_from_uniforms(np.array(vs))
    assert all(type(t) is float for t in got)
    assert [t.hex() for t in got] == [scalar_runtime(dist, v).hex() for v in vs]
    # ground truth integrates the same map, one probability at a time
    if not isinstance(dist, TwoPoint):
        assert [dist.quantile(v).hex() for v in vs] == [t.hex() for t in got]


@settings(max_examples=60, deadline=None)
@given(
    config=st.integers(0, 2),
    requests=st.lists(st.integers(0, 3000), min_size=1, max_size=8),
    added=st.integers(0, 3),
)
@example(config=1, requests=[2999, 0, 255, 256], added=2)
def test_a_runtime_ignores_request_order_and_added_configs(config, requests, added):
    # runtime j is the old pipeline's, the j-th uniform of the configuration's
    # stream mapped on its own, whichever instances were asked for first and
    # however many configurations were registered before
    dists = [Exponential(3.0), LogNormal(1.0, 1.5), TwoPoint(0.5, 40.0, 0.6)]
    # one block that covers every table a request can grow: instances up
    # to 3000 fill whole blocks of 128, up to 3,072 draws
    uniforms = stream_generator(13, RUNTIME_STREAM, config).random(3072).tolist()
    oracle = SyntheticOracle(dists, seed=13)
    for k in range(added):
        oracle.add_config(Exponential(10.0 + k))
    times, draw = oracle.runtime_of(config)
    for j in requests:
        assert draw(j).hex() == scalar_runtime(dists[config], uniforms[j]).hex()
    # the same table on every request, grown in place
    again = oracle.runtime_of(config)
    assert again[0] is times and again[1] is draw
    assert [t.hex() for t in times] == [
        scalar_runtime(dists[config], uniforms[j]).hex() for j in range(len(times))
    ]


@pytest.mark.parametrize("procedure", ["oup", "naive"])
def test_a_run_draws_less_than_a_block_past_each_arms_last_run(procedure):
    # tables grow by whole blocks of 128, with no doubling, and a table
    # grown block by block holds the runtimes of one large draw
    dists = [LogNormal(1.0 + 0.3 * k, 0.5 + 0.1 * k) for k in range(6)]
    oracle = SyntheticOracle(dists, seed=21)
    u = LogLaplaceUtility(60.0)
    if procedure == "oup":
        run = OupRun(oracle, u, 0.1, doubling="new")
        run.run_until(StopRule(epsilon=0.2))
        counts = [arm.m for arm in run.arms]
    else:
        counts = [naive_plan(len(dists), u, 0.5, 0.1)[1]] * len(dists)
        naive_run(oracle, u, 0.5, 0.1)
    for config, count in enumerate(counts):
        times = oracle.runtime_of(config)[0]
        assert count <= len(times) < count + 128 and len(times) % 128 == 0
        block = stream_generator(21, RUNTIME_STREAM, config).random(len(times))
        assert times.tolist() == dists[config].runtimes_from_uniforms(block)


def test_adding_configs_does_not_perturb_existing_streams():
    a = SyntheticOracle([Exponential(1.0)], seed=6)
    before = true_runtimes(a, 0, 20)
    a.add_config(Exponential(50.0))
    after = true_runtimes(a, 0, 20)
    assert before == after


# ---------------------------------------------------------------------------
# Ground truth
# ---------------------------------------------------------------------------


def test_two_point_mass_closed_form():
    u = UniformUtility(60.0)
    dist = TwoPoint(0.0, 1e9, 0.5)
    for kappa in (64.0, 128.0, math.inf):
        value = true_capped_utility(dist, u, kappa)
        assert value == pytest.approx(0.5, abs=1e-15)


def test_exponential_cdf_value():
    dist = Exponential(1.0)
    f = dist.completion_probability(1.0)
    assert f == pytest.approx(0.6321205588285577, abs=1e-12)


def test_lognormal_cdf_matches_mpmath():
    # the normal CDF through erfc, at z = (ln kappa - mu) / sigma in [-37, 9]:
    # below -37 it underflows towards 0, above 9 it rounds to 1
    dist = LogNormal(0.7, 1.3)
    with mp.workdps(40):
        for z in np.linspace(-37.0, 9.0, 2001).tolist():
            kappa = math.exp(dist.mu + dist.sigma * z)
            exact = mp.ncdf((mp.log(kappa) - dist.mu) / dist.sigma)
            assert float(abs(dist.completion_probability(kappa) - exact) / exact) < 1e-12


def test_cap_near_zero_returns_full_utility():
    u = LogLaplaceUtility(60.0)
    for dist in (Exponential(1.0), LogNormal(0.0, 1.0), TwoPoint(0.0, 5.0, 0.3)):
        value = true_capped_utility(dist, u, 1e-9)
        assert value == pytest.approx(1.0, abs=1e-6)


def partial_moment(dist, s, lo, hi):
    """E[T^s; lo <= T < hi] in closed form, at the working precision of mp."""
    if isinstance(dist, Exponential):
        m = mp.mpf(dist.mean)
        return m ** s * mp.gammainc(s + 1, lo / m, hi / m)
    mu, sigma = mp.mpf(dist.mu), mp.mpf(dist.sigma)

    def z(c):
        return (mp.log(c) - mu - s * sigma**2) / sigma if c > 0 else -mp.inf

    # P(z(lo) <= Z < z(hi)), taken from the tail where it does not cancel
    zl, zh = z(lo), z(hi)
    mass = mp.ncdf(-zl) - mp.ncdf(-zh) if zl > 0 else mp.ncdf(zh) - mp.ncdf(zl)
    return mp.exp(s * mu + s**2 * sigma**2 / 2) * mass


def closed_form_capped_utility(dist, u, kappa):
    """E[u(min(T, kappa))] from partial moments: u is a polynomial in t
    below kappa0 and, for log-Laplace, in 1/t above it."""
    with mp.workdps(30):
        k0, kappa = mp.mpf(u.kappa0), mp.mpf(kappa)
        below = min(kappa, k0)
        capped = u(float(kappa)) * (1 - partial_moment(dist, 0, 0, kappa))
        if isinstance(u, UniformUtility):
            value = partial_moment(dist, 0, 0, below) - partial_moment(dist, 1, 0, below) / k0
        else:
            a = mp.mpf(u.a)
            value = partial_moment(dist, 0, 0, below)
            value -= partial_moment(dist, a, 0, below) / (2 * k0**a)
            if kappa > k0:
                value += k0**a / 2 * partial_moment(dist, -a, k0, kappa)
        return float(value + capped)


# the validate_trials pool's shape (mu 1-4, sigma 0.5-1), runtimes far
# below the utility's pivot, and far above it, where a quadrature over the
# runtime t misses the mass: at kappa0 = 60, quad over t gave 9.0e-27 for
# Exponential(0.001) and 0.0 for LogNormal(-5, 0.05); and a mean so far
# above it that u(Q(p)) falls from u(kappa0) to nearly 0 between the piece's
# end and its first node, which a check of interval estimates alone missed
# by 2.0e-11 under a = 2.5 at kappa = inf
TRUTH_DISTRIBUTIONS = [
    LogNormal(1.0, 0.5), LogNormal(1.2343, 0.7258), LogNormal(2.5, 0.75), LogNormal(4.0, 1.0),
    Exponential(0.001), LogNormal(-5.0, 0.05), LogNormal(-5.0, 3.0), Exponential(1e4),
    Exponential(1e12),
]


@pytest.mark.parametrize("dist", TRUTH_DISTRIBUTIONS, ids=repr)
def test_ground_truth_matches_closed_forms(dist):
    utilities = [LogLaplaceUtility(60.0, 1.0), LogLaplaceUtility(60.0, 2.5), UniformUtility(60.0)]
    for u in utilities:
        for kappa in (1.0, 64.0, 2.0**20, math.inf):
            exact = closed_form_capped_utility(dist, u, kappa)
            assert abs(expected_capped_utility(dist, u, kappa) - exact) <= 1e-12, (u, kappa)


def test_capped_utility_decreases_with_larger_caps():
    # capping can only overstate utility, so it shrinks toward the true value
    u = LogLaplaceUtility(60.0)
    dist = Exponential(30.0)
    values = [expected_capped_utility(dist, u, 2.0 ** l) for l in range(0, 12)]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12
    assert values[-1] == pytest.approx(expected_capped_utility(dist, u, math.inf), abs=1e-6)


@pytest.mark.parametrize(
    "dist",
    [Exponential(5.0), LogNormal(1.2, 0.8), TwoPoint(0.5, 100.0, 0.9)],
    ids=["exponential", "lognormal", "twopoint"],
)
def test_monte_carlo_consistency(dist):
    # 10^6 simulated draws must agree with the analytic capped utility
    u = LogLaplaceUtility(60.0)
    kappa = 8.0
    oracle = SyntheticOracle([dist], seed=123)
    runtimes = np.array(true_runtimes(oracle, 0, 10 ** 6))
    capped = np.minimum(runtimes, kappa)
    values = np.array([u(t) for t in capped.tolist()])
    estimate = float(np.mean(values))
    spread = float(np.std(values))
    truth = true_capped_utility(dist, u, kappa)
    f_truth = completion_probability(dist, kappa)
    assert abs(estimate - truth) <= 3.0 * spread / 1e3 + 1e-9
    completed = float(np.mean(runtimes < kappa))
    assert abs(completed - f_truth) <= 3.0 * 0.5 / 1e3 + 1e-9


# ---------------------------------------------------------------------------
# Runtime matrix loading
# ---------------------------------------------------------------------------


def test_load_small_matrix(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,1,2,3\nb,4,5,6\n")
    oracle = load_runtime_matrix(path, seed=0)
    assert oracle.names == ("a", "b")
    assert sorted(oracle.instance_order) == [0, 1, 2]
    # the rows as read, stored in instance order
    assert oracle.times == tuple(
        tuple(row[k] for k in oracle.instance_order) for row in ((1.0, 2.0, 3.0), (4.0, 5.0, 6.0))
    )


def test_load_permutation_depends_on_seed(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a," + ",".join(str(i) for i in range(30)) + "\n")
    first = load_runtime_matrix(path, seed=1).instance_order
    again = load_runtime_matrix(path, seed=1).instance_order
    other = load_runtime_matrix(path, seed=2).instance_order
    assert first == again
    assert first != other


def test_load_empty_file_fails(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_runtime_matrix(path, seed=0)


def test_load_rejects_nan_with_position(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,1,NaN,3\n")
    with pytest.raises(ValueError, match=r":1: column 3"):
        load_runtime_matrix(path, seed=0)


def test_load_rejects_non_numeric_and_ragged(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,1,x\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_runtime_matrix(path, seed=0)
    path.write_text("a,1,2\nb,3\n")
    with pytest.raises(ValueError, match="ragged"):
        load_runtime_matrix(path, seed=0)


def test_lognormal_refuses_draws_past_the_largest_float():
    # the largest uniform a stream draws is 1 - 2^-53; its deviate is the
    # literal the check uses, so that building a lognormal imports no scipy
    assert oracles._LARGEST_Z == ndtri(1.0 - 2.0**-53)
    top = np.array([1.0 - 2.0**-53])
    for mu, sigma in ((701.0, 1.0), (-800.0, 90.0), (0.0, 86.0)):
        assert math.isfinite(LogNormal(mu, sigma).runtimes_from_uniforms(top)[0])
    for mu, sigma in ((702.0, 1.0), (800.0, 1.0), (0.0, 87.0), (0.0, 1e308)):
        with pytest.raises(ValueError, match="overflows"):
            LogNormal(mu, sigma)


def test_load_rejects_negative_runtime(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,1,-2\n")
    with pytest.raises(ValueError, match="nonnegative"):
        load_runtime_matrix(path, seed=0)


def test_matrix_oracle_replays_permuted_columns(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,1,2,3,4\nb,5,6,7,8\n")
    oracle = load_runtime_matrix(path, seed=3)
    runtimes = true_runtimes(oracle, 0, 4)
    for j in range(4):
        col = oracle.instance_order[j]
        assert runtimes[j] == (1.0, 2.0, 3.0, 4.0)[col]


def test_matrix_oracle_instance_exhaustion(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,1,2\n")
    oracle = load_runtime_matrix(path, seed=0)
    with pytest.raises(InstanceExhaustedError) as err:
        true_runtimes(oracle, 0, 3)
    assert err.value.available == 2


def test_instance_exhaustion_survives_pickling():
    # a sweep worker returns the error to the parent, which reports it
    err = InstanceExhaustedError(1, 2, 3)
    err.achieved_epsilon = 0.25
    copy = pickle.loads(pickle.dumps(err))
    assert type(copy) is InstanceExhaustedError
    assert str(copy) == str(err) == "configuration 1 has no instance 2: only 3 instances available"
    assert (copy.config, copy.instance, copy.available) == (1, 2, 3)
    assert copy.achieved_epsilon == 0.25 and copy.partial is None


def test_distribution_parameter_validation():
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        LogNormal(0.0, 0.0)
    with pytest.raises(ValueError):
        TwoPoint(1.0, 2.0, 1.5)
    with pytest.raises(ValueError):
        TwoPoint(-1.0, 2.0, 0.5)


def test_unsupported_family_not_implemented():
    class Weird:
        pass

    with pytest.raises(NotImplementedError):
        true_capped_utility(Weird(), LogLaplaceUtility(60.0), 2.0)

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from utilcap import (
    BoundContext,
    CostLedger,
    Exponential,
    InstanceExhaustedError,
    LogLaplaceUtility,
    LogNormal,
    MatrixOracle,
    SyntheticOracle,
    TwoPoint,
    UniformUtility,
    alpha,
    expected_capped_utility,
    load_runtime_matrix,
    true_capped_utility,
)
from utilcap.arms import ArmState, pull_arm
from utilcap.baselines import _sample_to, halving_plan, naive_plan

from helpers import capped_run


# ---------------------------------------------------------------------------
# Capped runs: an oracle gives the true runtime, and the engines cap it
# ---------------------------------------------------------------------------

U60 = UniformUtility(60.0)


def never_double(alpha_value, u_at_kappa, f_hat):
    return False


def observe(runtimes, kappa=1.0):
    """Pull one arm once per runtime at captime 1, and sample the same runs
    as naive does at ``kappa``; both must charge the same capped durations.
    Returns the arm."""
    n = len(runtimes)
    oracle = MatrixOracle((tuple(runtimes),), ("a",), tuple(range(n)))
    arm = ArmState(0)
    ledger = CostLedger()
    ctx = BoundContext(n=1, delta=0.1)
    for _ in range(n):
        pull_arm(arm, ctx, U60, oracle, never_double, ledger, 0)
    sampled = CostLedger()
    _sample_to(oracle, U60, kappa, [0], n, [0.0], [0], sampled, [])
    assert sampled.total_seconds == ledger.total_seconds == sum(arm.durations)
    return arm


def test_observe_capped_and_completed():
    arm = observe([2.7, 0.4])
    assert arm.durations == [1.0, 0.4]
    assert arm.snapshot.f_hat == 0.5


def test_observe_boundary_is_capped():
    # landing exactly on the captime counts as capped
    arm = observe([1.0])
    assert arm.durations == [1.0] and arm.snapshot.f_hat == 0.0


def test_observe_zero_runtime_allowed():
    arm = observe([0.0])
    assert arm.durations == [0.0] and arm.snapshot.f_hat == 1.0


def test_observe_rejects_bad_inputs():
    # a negative runtime: the distributions and the matrix loader refuse it
    # (tests below), and past them the utility checks every run it values
    with pytest.raises(ValueError, match="nonnegative"):
        observe([0.5, -1.0])
    negative = MatrixOracle(((-1.0,),), ("a",), (0,))
    with pytest.raises(ValueError, match="nonnegative"):
        _sample_to(negative, U60, 1.0, [0], 1, [0.0], [0], CostLedger(), [])
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
    for j in range(10):
        assert a.true_runtime(0, j) == b.true_runtime(0, j)


@pytest.fixture(scope="module")
def three_families():
    oracle = SyntheticOracle(
        [Exponential(3.0), LogNormal(1.0, 1.5), TwoPoint(0.5, 40.0, 0.6)], seed=13
    )
    # the first lognormal draw imports scipy; make it before the first example,
    # so that the import is not charged to an example's deadline
    oracle.true_runtime(1, 0)
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


def test_adding_configs_does_not_perturb_existing_streams():
    a = SyntheticOracle([Exponential(1.0)], seed=6)
    before = [a.true_runtime(0, j) for j in range(20)]
    a.add_config(Exponential(50.0))
    after = [a.true_runtime(0, j) for j in range(20)]
    assert before == after


# ---------------------------------------------------------------------------
# Ground truth
# ---------------------------------------------------------------------------


def test_two_point_mass_closed_form():
    u = UniformUtility(60.0)
    dist = TwoPoint(0.0, 1e9, 0.5)
    for kappa in (64.0, 128.0, math.inf):
        value, _ = true_capped_utility(dist, u, kappa)
        assert value == pytest.approx(0.5, abs=1e-15)


def test_exponential_cdf_value():
    dist = Exponential(1.0)
    _, f = true_capped_utility(dist, LogLaplaceUtility(60.0), 1.0)
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
        value, _ = true_capped_utility(dist, u, 1e-9)
        assert value == pytest.approx(1.0, abs=1e-6)


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
    runtimes = np.array([oracle.true_runtime(0, j) for j in range(10 ** 6)])
    capped = np.minimum(runtimes, kappa)
    values = np.array([u(t) for t in capped.tolist()])
    estimate = float(np.mean(values))
    spread = float(np.std(values))
    truth, f_truth = true_capped_utility(dist, u, kappa)
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
    assert oracle.runtimes == ((1.0, 2.0, 3.0), (4.0, 5.0, 6.0))
    assert sorted(oracle.instance_order) == [0, 1, 2]


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


def test_load_rejects_negative_runtime(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,1,-2\n")
    with pytest.raises(ValueError, match="nonnegative"):
        load_runtime_matrix(path, seed=0)


def test_matrix_oracle_replays_permuted_columns(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,1,2,3,4\nb,5,6,7,8\n")
    oracle = load_runtime_matrix(path, seed=3)
    for j in range(4):
        col = oracle.instance_order[j]
        assert oracle.true_runtime(0, j) == oracle.runtimes[0][col]


def test_matrix_oracle_instance_exhaustion(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,1,2\n")
    oracle = load_runtime_matrix(path, seed=0)
    with pytest.raises(InstanceExhaustedError) as err:
        oracle.true_runtime(0, 2)
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

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from utilcap import LogLaplaceUtility, MatrixOracle, OupRun, UniformUtility, parse_utility

from helpers import never_double


def test_loglaplace_branch_continuity_at_pivot():
    u = LogLaplaceUtility(60.0, 1.0)
    assert u(60.0) == 0.5


def test_loglaplace_direct_values():
    u = LogLaplaceUtility(60.0, 1.0)
    assert u(30.0) == pytest.approx(0.75, abs=1e-15)  # 1 - (30/60)/2
    assert u(0.0) == 1.0
    assert u(120.0) == pytest.approx(0.25, abs=1e-15)  # (60/120)/2


def test_loglaplace_shape_exponent():
    u = LogLaplaceUtility(60.0, 2.0)
    assert u(30.0) == pytest.approx(1.0 - 0.5 * 0.25, abs=1e-15)
    assert u(120.0) == pytest.approx(0.5 * 0.25, abs=1e-15)


def test_uniform_endpoints():
    u = UniformUtility(60.0)
    assert u(0.0) == 1.0
    assert u(60.0) == 0.0
    assert u(1e9) == 0.0


def test_uniform_direct_value():
    u = UniformUtility(60.0)
    assert u(45.0) == pytest.approx(0.25, abs=1e-15)  # 1 - 45/60


def test_negative_runtime_rejected():
    for u in (LogLaplaceUtility(60.0, 1.0), UniformUtility(60.0)):
        with pytest.raises(ValueError):
            u(-1.0)


@given(
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.01, max_value=1e4),
    st.floats(min_value=0.25, max_value=4.0),
)
def test_monotone_weakly_decreasing(t1, t2, kappa0, a):
    lo, hi = min(t1, t2), max(t1, t2)
    for u in (LogLaplaceUtility(kappa0, a), UniformUtility(kappa0)):
        assert u(lo) >= u(hi)
        assert 0.0 <= u(lo) <= 1.0
        assert 0.0 <= u(hi) <= 1.0


def test_parse_utility_round_trip():
    u = parse_utility("loglaplace:kappa0=60,a=1")
    assert u == LogLaplaceUtility(60.0, 1.0)
    v = parse_utility("uniform:kappa0=7.5")
    assert v == UniformUtility(7.5)
    # keys and values are stripped
    assert parse_utility("loglaplace: kappa0 = 60 ,a=1") == u


def test_parse_utility_rejects_garbage():
    for bad in (
        "loglaplace", "loglaplace:kappa0", "gauss:kappa0=1", "uniform:k=1",
        # a parameter given twice, which would otherwise keep the last value
        "loglaplace:kappa0=60,kappa0=30", "uniform:kappa0=60, kappa0=30",
    ):
        with pytest.raises(ValueError):
            parse_utility(bad)


@pytest.mark.parametrize(
    "text, message",
    [
        ("loglaplace:a=2", "missing parameters for utility 'loglaplace': ['kappa0']"),
        ("loglaplace:kappa0=60,b=1",
         "'loglaplace:kappa0=60,b=1': unknown utility parameter 'b'; "
         "expected one of ('kappa0', 'a')"),
        # an empty item, as a trailing comma leaves, is an item without '='
        ("uniform:kappa0=60,", "'uniform:kappa0=60,': expected key=value, got ''"),
        ("uniform:kappa0=x", "bad utility parameter value 'x' in 'uniform:kappa0=x'"),
    ],
)
def test_parse_utility_names_the_wrong_parameter(text, message):
    with pytest.raises(ValueError) as err:
        parse_utility(text)
    assert str(err.value) == message


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        LogLaplaceUtility(0.0, 1.0)
    with pytest.raises(ValueError):
        LogLaplaceUtility(60.0, 0.0)
    with pytest.raises(ValueError):
        UniformUtility(-1.0)


# ---------------------------------------------------------------------------
# The one formula, and the round's inline copy of it
# ---------------------------------------------------------------------------


def test_shape_constants_are_not_fields():
    # equality, hashing, repr and parse_utility see only a spec's parameters
    assert [f.name for f in dataclasses.fields(LogLaplaceUtility)] == ["kappa0", "a"]
    assert [f.name for f in dataclasses.fields(UniformUtility)] == ["kappa0"]
    assert repr(UniformUtility(60.0)) == "UniformUtility(kappa0=60.0)"
    assert repr(LogLaplaceUtility(60.0, 1.7)) == "LogLaplaceUtility(kappa0=60.0, a=1.7)"
    assert hash(UniformUtility(60.0)) == hash(UniformUtility(60.0))
    assert parse_utility("uniform:kappa0=60") == UniformUtility(60.0)


@given(
    st.floats(min_value=0.0, max_value=1e300),
    st.floats(min_value=1e-300, max_value=1e300),
)
def test_uniform_shape_is_the_plain_formula_bit_for_bit(t, kappa0):
    # near = a = 1 and far = 0 give 1 - t/kappa0 and 0.0: x ** 1.0 == x
    expected = 1.0 - t / kappa0 if t < kappa0 else 0.0
    assert UniformUtility(kappa0)(t).hex() == expected.hex()


KAPPA0 = 60.0
# zero, a subnormal, kappa0 and the floats next to it, and two far tails
RUNTIMES = (
    0.0, 5e-324, math.nextafter(KAPPA0, 0.0), KAPPA0, math.nextafter(KAPPA0, math.inf),
    1e6, 2.0**1000,
)


@pytest.mark.parametrize(
    "utility",
    [LogLaplaceUtility(KAPPA0, a) for a in (0.5, 1.0, 1.7, 2.5)] + [UniformUtility(KAPPA0)],
    ids=repr,
)
def test_round_values_a_completed_run_as_the_utility_does(utility):
    # one arm per runtime, each pulled once at a captime above every runtime,
    # so its run completes and its utility sum is the round's valuation of it
    oracle = MatrixOracle(tuple((t,) for t in RUNTIMES), tuple(map(repr, RUNTIMES)), (0,))
    for config, t in enumerate(RUNTIMES):
        run = OupRun(oracle, utility, 0.1, pool=[config])
        run.doubling_rule = never_double
        arm = run.arms[0]
        arm.kappa = 2.0**1001
        run.step()
        assert (arm.m, arm._completed_count) == (1, 1)
        assert arm._utility_sum.hex() == utility(t).hex(), t

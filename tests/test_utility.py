import pytest
from hypothesis import given, strategies as st

from utilcap import LogLaplaceUtility, UniformUtility, parse_utility


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
        ("loglaplace:kappa0=60,b=1", "unknown parameters for utility 'loglaplace': ['b']"),
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

import collections
import csv
import dataclasses
import io
import math
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import utilcap as uc
from utilcap.harness import (
    PROCEDURES,
    SpecError,
    _write_csv,
    build_oracle,
    load_synthetic_spec,
    output_directory,
    parse_spec,
    parse_stop,
    trace_csv_lines,
)
from utilcap.records import TraceRow, format_value

from helpers import UTILITY, trace_lines


def write_pool(tmp_path, body, name="pool.txt") -> str:
    path = tmp_path / name
    path.write_text(body)
    return f"synthetic:{path}"


EXP_POOL = "family=exponential\nparams=1.0;50.0;150.0\nn_configs=3\nseed=0\n"


def spec_for(tmp_path, **overrides) -> uc.ExperimentSpec:
    fields = dict(
        procedure="oup",
        oracle=write_pool(tmp_path, EXP_POOL),
        utility="loglaplace:kappa0=60,a=1",
        stop="epsilon:0.4",
        seed=3,
        delta=0.1,
        doubling="new",
    )
    fields.update(overrides)
    return uc.ExperimentSpec(**fields)


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------


def test_load_synthetic_spec_families(tmp_path):
    pool = load_synthetic_spec(Path(write_pool(tmp_path, EXP_POOL).split(":", 1)[1]))
    assert pool == (uc.Exponential(1.0), uc.Exponential(50.0), uc.Exponential(150.0))
    path = tmp_path / "tp.txt"
    path.write_text("family=twopoint\nparams=0.5,100,0.9;1,200,0.5\n")
    assert load_synthetic_spec(path)[0] == uc.TwoPoint(0.5, 100.0, 0.9)
    path.write_text("family=lognormal\nparams=1.0,0.5\n")
    assert load_synthetic_spec(path) == (uc.LogNormal(1.0, 0.5),)
    path.write_text("family=parametric_exponential\nparams=0.1,10000\n")
    make = load_synthetic_spec(path)
    assert make(0.5) == uc.exponential_mean_map(0.1, 10000.0)(0.5) == uc.Exponential(10.0)


def test_load_synthetic_spec_errors(tmp_path):
    path = tmp_path / "bad.txt"
    for body, match in [
        ("params=1.0\n", "family"),
        ("family=exponential\nparams=\n", "no configurations"),
        ("family=exponential\nparams=1.0;2.0\nn_configs=3\n", "n_configs"),
        ("family=exponential\nnot a kv line\n", "key=value"),
        ("family=weird\nparams=1\n", "unknown family"),
        # the family is named before the params are read
        ("family=weird\n", "unknown family 'weird'"),
        # a wrong field count names the fields
        ("family=parametric_exponential\nparams=1\n", "scale,growth"),
        ("family=parametric_exponential\nparams=0.1,10;0.2,10\n", "one params entry"),
        ("family=lognormal\nparams=1.0\n", "expected mu,sigma, got 1 values"),
        ("family=twopoint\nparams=1,2,0.5,9\n", "expected t_fast,t_slow,p_fast, got 4"),
        ("family=exponential\nparams=1.0;2.0\nseed=x\n", "seed must be an integer"),
        # a misspelt key and a repeated one name the file, the line and the key
        ("family=exponential\nparams=1.0;2.0\nn_config=7\n", "bad.txt:3: unknown key 'n_config'"),
        ("family=exponential\nparams=1.0;2.0\nparams=3.0\n", "bad.txt:3: key 'params' given twice"),
    ]:
        path.write_text(body)
        with pytest.raises(SpecError, match=match):
            load_synthetic_spec(path)


def test_build_oracle_kinds(tmp_path):
    oracle, parametric = build_oracle(write_pool(tmp_path, EXP_POOL), seed=1)
    assert oracle.n_configs == 3 and parametric is None
    matrix = tmp_path / "m.csv"
    matrix.write_text("a,1,2\nb,3,4\n")
    oracle, parametric = build_oracle(f"matrix:{matrix}", seed=1)
    assert oracle.n_configs == 2 and parametric is None
    with pytest.raises(SpecError):
        build_oracle("nonsense", seed=1)
    with pytest.raises(SpecError):
        build_oracle("csv:/tmp/x", seed=1)
    with pytest.raises(SpecError):
        build_oracle(f"matrix:{tmp_path}/missing.csv", seed=1)


def test_parse_stop_rules():
    assert parse_stop("epsilon:0.2", "oup") == uc.TargetEpsilon(0.2)
    assert parse_stop("budget:100", "up") == uc.BudgetSeconds(100.0)
    assert parse_stop("single_survivor", "oup") == uc.SingleSurvivor()
    assert parse_stop("rounds:50", "up") == uc.MaxRounds(50)
    # every round makes a run, so the round cap is the plan cap of naive and sh
    assert parse_stop("rounds:100000000", "oup") == uc.MaxRounds(10**8)
    assert parse_stop("phases:3", "coup") == uc.MaxPhases(3)
    assert parse_stop("budget:1e6", "coup") == uc.BudgetSeconds(1e6)
    for text, procedure in [
        ("phases:3", "oup"),
        ("epsilon:0.2", "coup"),
        ("budget:10", "naive"),
        ("epsilon:0.2", "sh"),
        ("epsilon:abc", "oup"),
        ("epsilon:0.2", "hyperband"),
        ("rounds:100000001", "oup"),
    ]:
        with pytest.raises(SpecError):
            parse_stop(text, procedure)


def test_run_experiment_parses_each_part_once(tmp_path, monkeypatch):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    harness = uc.harness
    for name in ("parse_utility", "parse_stop", "load_synthetic_spec"):
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    from_spec = counted("Schedule.from_spec", uc.Schedule.from_spec.__func__)
    monkeypatch.setattr(uc.Schedule, "from_spec", classmethod(from_spec))
    spec = spec_for(tmp_path, procedure="coup", stop="phases:2", delta=0.05)
    uc.run_experiment(spec, tmp_path / "out")
    assert calls == {
        "parse_utility": 1, "Schedule.from_spec": 1, "parse_stop": 1, "load_synthetic_spec": 1
    }


# text that float() reads as each class of number: nan, both infinities,
# zero, a subnormal, an underflow to 0, huge and negative values
NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e-320", "1e-400", "1e400", "0.5", "3",
                     "60", "1e300", "abc", ""]),
    st.floats(allow_nan=False).map(repr),
    st.integers(-(10**400), 10**400).map(str),
)
STOPS = st.one_of(
    st.sampled_from(["single_survivor", "phases:1", "phases:3", "phases:40", "epsilon:0.2",
                     "budget:100", "rounds:50", "phases:1" + "0" * 320, "nonsense", ""]),
    st.builds(
        "{}:{}".format,
        st.sampled_from(["epsilon", "budget", "rounds", "phases", "single_survivor", "bogus"]),
        NUMBERS,
    ),
)
TERMS = st.builds(
    "e^-p{}/{}".format,
    st.sampled_from(["", "^2", "^3", "^4"]),
    st.sampled_from(["6", "3", "0.0014", "0.0000001", "0", "1" + "0" * 400, "1000000000000000"]),
)
SCHEDULES = st.one_of(
    st.sampled_from(["default", "gamma_focus", "epsilon_focus", "balanced", "gamma_then_epsilon",
                     "custom:eps", "custom:", "bogus", ""]),
    st.builds("custom:eps={},gamma={}".format, TERMS, TERMS),
    st.text(max_size=20),
)
UTILITIES = st.one_of(
    st.sampled_from(["loglaplace:kappa0=60,a=1", "uniform:kappa0=60", "step:k=1", "uniform", ""]),
    st.builds("loglaplace:kappa0={},a={}".format, NUMBERS, NUMBERS),
    st.builds("uniform:kappa0={}".format, NUMBERS),
)
ENTRIES = st.lists(NUMBERS, min_size=0, max_size=4).map(",".join)
POOLS = st.builds(
    "family={}\nparams={}\n{}".format,
    st.sampled_from(["exponential", "lognormal", "twopoint", "parametric_exponential", "bogus"]),
    st.lists(ENTRIES, min_size=0, max_size=4).map(";".join),
    st.sampled_from(["", "n_configs=2\n", "n_configs=x\n", "seed=7\n", "seed=-1\n", "seed=x\n"]),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(
    procedure=st.sampled_from(PROCEDURES + ("bandit",)),
    stop=STOPS,
    schedule=SCHEDULES,
    utility=UTILITIES,
    delta=st.one_of(st.sampled_from([0.0, 1.0, math.nan, 1e-320, 0.05, -0.1]), st.floats()),
    seed=st.one_of(st.integers(-5, 5), st.integers(-(2**80), 2**80)),
    doubling=st.sampled_from(["old", "new", "fast"]),
    pool=POOLS,
    sh_eta=st.one_of(st.integers(-3, 5), st.integers(-(2**80), 2**80)),
    sh_kappa=st.one_of(st.sampled_from([math.nan, 0.0, -1.0, math.inf, 5e-324, 8.0]), st.floats()),
    without_replacement=st.booleans(),
)
# a delta that overflows the phase-size argument; a gamma_1 that overflows its quotient
@example(procedure="coup", stop="phases:1", schedule="default", utility="uniform:kappa0=60",
         delta=1e-320, seed=1, doubling="old", pool="family=exponential\nparams=1;2\n",
         sh_eta=2, sh_kappa=1.0, without_replacement=False)
@example(procedure="coup", stop="budget:10", schedule="custom:eps=e^-p/6,gamma=e^-p/0.0014",
         utility="uniform:kappa0=60", delta=0.1, seed=1, doubling="old",
         pool="family=exponential\nparams=1;2\n", sh_eta=2, sh_kappa=1.0,
         without_replacement=False)
# sh's captime nan; a pool that phase 1 outgrows without replacement
@example(procedure="sh", stop="budget:100", schedule="default", utility="uniform:kappa0=60",
         delta=0.1, seed=1, doubling="old", pool="family=exponential\nparams=1;2\n",
         sh_eta=2, sh_kappa=math.nan, without_replacement=False)
@example(procedure="coup", stop="budget:10", schedule="default", utility="uniform:kappa0=60",
         delta=0.1, seed=1, doubling="old", pool="family=exponential\nparams=1;2\n",
         sh_eta=2, sh_kappa=1.0, without_replacement=True)
def test_spec_boundary_returns_or_raises_spec_error(
    fuzz_dir, procedure, stop, schedule, utility, delta, seed, doubling, pool, sh_eta, sh_kappa,
    without_replacement,
):
    path = fuzz_dir / "pool.txt"
    path.write_text(pool)
    spec = uc.ExperimentSpec(procedure=procedure, oracle=f"synthetic:{path}", utility=utility,
                             stop=stop, seed=seed, delta=delta, doubling=doubling,
                             schedule=schedule, without_replacement=without_replacement,
                             sh_eta=sh_eta, sh_kappa=sh_kappa)
    try:
        parse_spec(spec)
    except SpecError:
        pass


def test_output_directory_env_override(tmp_path, monkeypatch):
    monkeypatch.delenv("UTILCAP_OUT", raising=False)
    assert output_directory(tmp_path / "a") == tmp_path / "a"
    monkeypatch.setenv("UTILCAP_OUT", str(tmp_path / "b"))
    assert output_directory(tmp_path / "a") == tmp_path / "b"
    # the override is the path checked: a file there, or above it, is refused
    (tmp_path / "afile").write_text("")
    monkeypatch.setenv("UTILCAP_OUT", str(tmp_path / "afile"))
    with pytest.raises(SpecError, match="is not a directory"):
        output_directory(tmp_path / "a")
    monkeypatch.setenv("UTILCAP_OUT", str(tmp_path / "afile" / "sub"))
    with pytest.raises(SpecError, match="is not a directory"):
        output_directory(tmp_path / "a")


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


def test_run_experiment_writes_trace_and_summary(tmp_path):
    spec = spec_for(tmp_path)
    summary = uc.run_experiment(spec, tmp_path / "out")
    assert float(summary["final_epsilon"]) <= 0.4
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert trace[0].startswith("procedure,round,ledger_seconds")
    assert len(trace) == int(summary["rounds"]) + 1
    last = trace[-1].split(",")
    assert float(last[6]) <= 0.4  # eps_min column


def test_run_experiment_is_byte_deterministic(tmp_path):
    spec = spec_for(tmp_path)
    uc.run_experiment(spec, tmp_path / "r1")
    uc.run_experiment(spec, tmp_path / "r2")
    for name in ("trace.csv", "summary.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_run_experiment_coup_certificates(tmp_path):
    spec = spec_for(tmp_path, procedure="coup", stop="phases:3", delta=0.05)
    summary = uc.run_experiment(spec, tmp_path / "out")
    lines = (tmp_path / "out" / "certificates.csv").read_text().splitlines()
    assert lines[0] == "phase,epsilon_p,gamma_p,n_p,incumbent_name,incumbent_lcb,ledger_seconds"
    assert len(lines) == 4
    assert [row.split(",")[0] for row in lines[1:]] == ["1", "2", "3"]


TRACE_COLUMNS = ("procedure",) + TraceRow._fields

# every float class: nan, both infinities, signed zero, subnormals, and
# values whose repr switches to exponent form
FLOATS = st.one_of(
    st.sampled_from(
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1e16, 1e22, 0.1]
    ),
    st.floats(),
)
INTS = st.one_of(st.integers(min_value=-1, max_value=10**6), st.integers(-(2**80), 2**80))
TRACE_ROWS = st.builds(
    TraceRow,
    round=INTS,
    ledger_seconds=FLOATS,
    selected=INTS,
    doubled=st.booleans(),
    eps_raw=FLOATS,
    eps_min=FLOATS,
    survivors=INTS,
    incumbent=INTS,
)


@settings(max_examples=300, deadline=None)
@given(procedure=st.sampled_from(PROCEDURES), rows=st.lists(TRACE_ROWS, max_size=4))
def test_trace_lines_match_csv_writer(procedure, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in rows:
        writer.writerow([format_value(v) for v in (procedure, *row)])
    rendered = "".join(trace_csv_lines(procedure, rows))
    assert rendered == buffer.getvalue()
    assert rendered.splitlines() == trace_lines((procedure, *row) for row in rows)


@pytest.mark.parametrize("procedure", ["bandit", "oup,x", 'o"up', ""])
def test_trace_writer_refuses_unknown_procedure(tmp_path, monkeypatch, procedure):
    row = TraceRow(1, 0.5, 0, False, 1.0, 1.0, 3, 0)
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match="unknown procedure"):
        _write_csv(path, TRACE_COLUMNS, trace_csv_lines(procedure, [row]))
    assert not path.exists()
    # the same through a whole run: no file at all is left behind
    spec = spec_for(tmp_path)
    result = uc.harness.execute(spec)
    monkeypatch.setattr(
        uc.harness, "execute", lambda spec: dataclasses.replace(result, procedure=procedure)
    )
    with pytest.raises(ValueError, match="unknown procedure"):
        uc.run_experiment(spec, tmp_path / "out")
    assert list((tmp_path / "out").iterdir()) == []


def test_run_experiment_validates_fields(tmp_path):
    with pytest.raises(SpecError):
        uc.run_experiment(spec_for(tmp_path, procedure="bandit"), tmp_path / "x")
    with pytest.raises(SpecError):
        uc.run_experiment(spec_for(tmp_path, doubling="fast"), tmp_path / "x")
    with pytest.raises(SpecError):
        uc.run_experiment(spec_for(tmp_path, delta=2.0), tmp_path / "x")
    with pytest.raises(SpecError):
        uc.run_experiment(spec_for(tmp_path, utility="step:k=1"), tmp_path / "x")


def test_run_experiment_parametric_needs_phases(tmp_path):
    oracle = write_pool(
        tmp_path, "family=parametric_exponential\nparams=0.1,10000\n", name="theta.txt"
    )
    with pytest.raises(SpecError, match="coup"):
        uc.run_experiment(spec_for(tmp_path, oracle=oracle), tmp_path / "x")


def test_run_experiment_instance_exhaustion_writes_partial(tmp_path):
    matrix = tmp_path / "m.csv"
    matrix.write_text("a,1,1\nb,2,2\n")
    spec = spec_for(tmp_path, oracle=f"matrix:{matrix}", stop="epsilon:0.001")
    with pytest.raises(uc.InstanceExhaustedError) as err:
        uc.run_experiment(spec, tmp_path / "out")
    # the partial run is in its files; the error no longer carries it
    assert err.value.partial is None
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1]
    assert "instance_exhausted" in summary
    assert (tmp_path / "out" / "trace.csv").exists()


def test_coup_instance_exhaustion_keeps_its_certificates(tmp_path):
    # coup certifies two phases on this 4 x 20 matrix, then runs out of columns
    draws = random.Random(2)
    matrix = tmp_path / "m.csv"
    matrix.write_text("".join(
        ",".join([f"c{i}"] + ["%.4f" % draws.expovariate(1 / (0.01 + 5 * i)) for _ in range(20)])
        + "\n"
        for i in range(4)
    ))
    spec = spec_for(
        tmp_path, procedure="coup", oracle=f"matrix:{matrix}", stop="phases:12", delta=0.2,
        doubling="old",
    )
    with pytest.raises(uc.InstanceExhaustedError):
        uc.run_experiment(spec, tmp_path / "out")
    with (tmp_path / "out" / "summary.csv").open(newline="") as handle:
        summary = dict(zip(*csv.reader(handle)))
    with (tmp_path / "out" / "certificates.csv").open(newline="") as handle:
        header, *certificates = csv.reader(handle)
    assert summary["stop_reason"] == "instance_exhausted"
    assert [int(c[0]) for c in certificates] == list(range(1, len(certificates) + 1))
    assert len(certificates) == 2
    # the summary's incumbent and eps are the last certificate's
    last = dict(zip(header, certificates[-1]))
    assert (summary["final_epsilon"], summary["incumbent_name"]) == (
        last["epsilon_p"], last["incumbent_name"]
    )


# ---------------------------------------------------------------------------
# Curves and profiles
# ---------------------------------------------------------------------------


def run_pair(tmp_path):
    oup = uc.run_experiment(spec_for(tmp_path), tmp_path / "oup")
    up = uc.run_experiment(spec_for(tmp_path, procedure="up"), tmp_path / "up")
    return oup, up


def test_curve_alignment_and_monotonicity(tmp_path):
    from utilcap.cli import _read_run_dir

    uc.run_experiment(spec_for(tmp_path), tmp_path / "oup")
    uc.run_experiment(spec_for(tmp_path, procedure="up"), tmp_path / "up")
    runs = [_read_run_dir(tmp_path / "oup"), _read_run_dir(tmp_path / "up")]
    rows = uc.epsilon_vs_time_curve(runs)
    assert {r[0] for r in rows} == {"oup", "up"}
    for procedure in ("oup", "up"):
        eps = [r[2] for r in rows if r[0] == procedure]
        assert eps == sorted(eps, reverse=True)
    # single run: passthrough of its own points
    solo = uc.epsilon_vs_time_curve(runs[:1])
    assert len(solo) == len(runs[0][1])
    assert uc.epsilon_vs_time_curve([]) == []


def test_curve_of_zero_round_run_is_empty(tmp_path):
    from utilcap.cli import _read_run_dir

    uc.run_experiment(spec_for(tmp_path, stop="budget:0"), tmp_path / "idle")
    summary, trace = _read_run_dir(tmp_path / "idle")
    assert trace == []
    assert uc.epsilon_vs_time_curve([(summary, trace)]) == []


def test_interleaved_runs_sharing_one_oracle_match_isolated_runs():
    # an oracle instance memoizes streams lazily; interleaved consumers must
    # see exactly what isolated consumers see
    dists = [uc.Exponential(m) for m in (1.0, 20.0, 90.0)]
    shared = uc.SyntheticOracle(dists, seed=5)
    a = uc.OupRun(shared, UTILITY, 0.1, doubling="new")
    b = uc.UpRun(shared, UTILITY, 0.1, doubling="new")
    for _ in range(150):
        a.step()
        b.step()
    a_alone = uc.OupRun(uc.SyntheticOracle(dists, seed=5), UTILITY, 0.1, doubling="new")
    b_alone = uc.UpRun(uc.SyntheticOracle(dists, seed=5), UTILITY, 0.1, doubling="new")
    for _ in range(150):
        a_alone.step()
        b_alone.step()
    assert a.trace == a_alone.trace
    assert b.trace == b_alone.trace


def test_curve_rejects_mismatched_runs(tmp_path):
    from utilcap.cli import _read_run_dir

    uc.run_experiment(spec_for(tmp_path), tmp_path / "a")
    uc.run_experiment(spec_for(tmp_path, seed=4), tmp_path / "b")
    with pytest.raises(SpecError, match="not comparable"):
        uc.epsilon_vs_time_curve([_read_run_dir(tmp_path / "a"), _read_run_dir(tmp_path / "b")])


def test_greedy_concentrates_time_on_the_good_arm():
    oracle = uc.SyntheticOracle(
        [uc.TwoPoint(0.1, 5.0, 0.9), uc.TwoPoint(0.1, 5.0, 0.05)], seed=1
    )
    run = uc.OupRun(oracle, uc.UniformUtility(4.0), 0.25, doubling="new")
    result = run.run_until(uc.TargetEpsilon(0.25))
    assert run.arms[1].m * 4 < run.arms[0].m
    assert result.ledger.per_config_seconds[1] < result.ledger.per_config_seconds[0]


def test_round_robin_spends_evenly_on_identical_arms():
    oracle = uc.SyntheticOracle([uc.TwoPoint(2.0, 2.0, 1.0)] * 4, seed=0)
    run = uc.UpRun(oracle, UTILITY, 0.1, doubling="new")
    run.run_until(uc.MaxRounds(41))
    spent = [run.ledger.per_config_seconds[i] for i in range(4)]
    assert max(spent) - min(spent) <= 2.0 + 1e-12  # one run's cost


# ---------------------------------------------------------------------------
# Guarantee validation
# ---------------------------------------------------------------------------


def test_validate_guarantee_oup(tmp_path):
    report = uc.validate_guarantee(spec_for(tmp_path), trials=20)
    assert report.trials == 20
    assert report.failure_rate <= report.bound


def test_validate_guarantee_naive(tmp_path):
    spec = spec_for(tmp_path, procedure="naive", stop="epsilon:0.5")
    report = uc.validate_guarantee(spec, trials=10)
    assert report.failure_rate <= report.bound


def test_validate_guarantee_coup_per_phase(tmp_path):
    oracle = write_pool(tmp_path, "family=parametric_exponential\nparams=0.1,10000\n")
    spec = spec_for(tmp_path, procedure="coup", oracle=oracle, stop="phases:2", delta=0.05)
    report = uc.validate_guarantee(spec, trials=10)
    assert set(report.per_phase_rates) == {1, 2}
    assert report.failure_rate <= report.bound


def test_ground_truth_is_cached_across_trials(tmp_path, monkeypatch):
    from utilcap import harness, oracles

    space = "family=parametric_exponential\nparams=0.1,10000\n"
    oracle = write_pool(tmp_path, space, name="space.txt")
    spec = spec_for(tmp_path, procedure="coup", oracle=oracle, stop="phases:3", delta=0.05)
    make = uc.exponential_mean_map(0.1, 10000.0)
    schedule = uc.Schedule.from_spec(spec.schedule)
    quantiles = {make(schedule.at(p)[1]) for p in (1, 2, 3)}
    computed = []
    quadrature = oracles.expected_capped_utility

    def counted(dist, u, kappa):
        computed.append(dist)
        return quadrature(dist, u, kappa)

    monkeypatch.setattr(oracles, "expected_capped_utility", counted)
    oracles.true_capped_utility.cache_clear()
    harness._trial(dataclasses.replace(spec, seed=0))
    assert quantiles <= set(computed)
    computed.clear()
    harness._trial(dataclasses.replace(spec, seed=1))
    assert computed and not quantiles & set(computed)


def test_finite_pool_truths_are_computed_once_per_process(tmp_path, monkeypatch):
    # every certificate scans the whole pool's truths for its quantile, so a
    # bounded cache smaller than the pool would recompute them per certificate
    from utilcap import harness, oracles

    means = [1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0]
    pool = "family=exponential\nparams=" + ";".join(map(str, means)) + "\n"
    oracle = write_pool(tmp_path, pool, name="finite.txt")
    spec = spec_for(tmp_path, procedure="coup", oracle=oracle, stop="phases:3", delta=0.05)
    computed = []
    quadrature = oracles.expected_capped_utility

    def counted(dist, u, kappa):
        computed.append((dist, kappa))
        return quadrature(dist, u, kappa)

    monkeypatch.setattr(oracles, "expected_capped_utility", counted)
    oracles.true_capped_utility.cache_clear()
    assert oracles.true_capped_utility.cache_info().maxsize is None
    assert len({cert[0] for cert in harness._trial(dataclasses.replace(spec, seed=0))}) == 3
    assert sorted(dist.mean for dist, _ in computed) == means
    computed.clear()
    harness._trial(dataclasses.replace(spec, seed=1))
    assert computed == []


def test_validate_computes_finite_pool_truths_before_the_fork(tmp_path, monkeypatch):
    # forked workers inherit the parent's cache, so a coup validate on a
    # finite pool computes each truth once, not once in every worker
    from utilcap import harness, oracles

    means = [1.0, 2.0, 3.0, 5.0]
    pool = "family=exponential\nparams=" + ";".join(map(str, means)) + "\n"
    oracle = write_pool(tmp_path, pool, name="finite.txt")
    spec = spec_for(tmp_path, procedure="coup", oracle=oracle, stop="phases:1", delta=0.05)
    utility = uc.parse_utility(spec.utility)
    fork = harness.map_in_workers
    missed = []

    def cache_checked(fn, items):
        before = oracles.true_capped_utility.cache_info().misses
        for mean in means:
            oracles.true_capped_utility(uc.Exponential(mean), utility, math.inf)
        missed.append(oracles.true_capped_utility.cache_info().misses - before)
        return fork(fn, items)

    monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "map_in_workers", cache_checked)
    oracles.true_capped_utility.cache_clear()
    assert uc.validate_guarantee(spec, trials=2).trials == 2
    assert missed == [0]


def test_validate_guarantee_requires_synthetic(tmp_path):
    matrix = tmp_path / "m.csv"
    matrix.write_text("a,1,1\n")
    spec = spec_for(tmp_path, oracle=f"matrix:{matrix}")
    with pytest.raises(SpecError, match="synthetic"):
        uc.validate_guarantee(spec, trials=5)


def test_validate_guarantee_rejects_procedure_without_guarantee(tmp_path):
    spec = spec_for(tmp_path, procedure="sh", stop="budget:64")
    with pytest.raises(SpecError, match="no guarantee"):
        uc.validate_guarantee(spec, trials=5)

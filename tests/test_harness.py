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
from utilcap.records import NO_TRACE, TraceRow, format_value

from helpers import UTILITY, seconds_by_arm, trace_lines


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
    for text, procedure, want in [
        ("epsilon:0.2", "oup", uc.StopRule(epsilon=0.2, stop_reason="target_epsilon")),
        ("budget:100", "up", uc.StopRule(seconds=100.0, stop_reason="budget_exhausted")),
        ("single_survivor", "oup", uc.StopRule(survivors=1, stop_reason="single_survivor")),
        ("rounds:50", "up", uc.StopRule(rounds=50, stop_reason="max_rounds")),
        # every round makes a run, so the round cap is the plan cap of naive and sh
        ("rounds:100000000", "oup", uc.StopRule(rounds=10**8, stop_reason="max_rounds")),
        ("phases:3", "coup", uc.StopRule(phases=3, stop_reason="max_phases")),
        # every phase writes a certificate row, so phases share the round cap
        ("phases:100000000", "coup", uc.StopRule(phases=10**8, stop_reason="max_phases")),
        ("budget:1e6", "coup", uc.StopRule(seconds=1e6, stop_reason="budget_exhausted")),
        ("budget:64", "sh", uc.StopRule(seconds=64.0, stop_reason="budget_exhausted")),
    ]:
        assert parse_stop(text, procedure) == want
    pool_usage = "epsilon:X, budget:SECONDS, single_survivor or rounds:N (N >= 1)"
    for text, procedure, message in [
        ("phases:3", "oup", f"stop rule for oup must be {pool_usage}, got 'phases:3'"),
        ("epsilon:0.2", "coup",
         "stop rule for coup must be phases:N (N >= 1) or budget:SECONDS, got 'epsilon:0.2'"),
        ("budget:10", "naive", "stop rule for naive must be epsilon:X, got 'budget:10'"),
        ("epsilon:0.2", "sh", "stop rule for sh must be budget:RUNS, got 'epsilon:0.2'"),
        ("rounds:0", "up", f"stop rule for up must be {pool_usage}, got 'rounds:0'"),
        ("phases:0", "coup",
         "stop rule for coup must be phases:N (N >= 1) or budget:SECONDS, got 'phases:0'"),
        ("epsilon:abc", "oup",
         "bad stop rule value in 'epsilon:abc': could not convert string to float: 'abc'"),
        # a rule that takes a value, given none
        ("epsilon", "naive",
         "bad stop rule value in 'epsilon': could not convert string to float: ''"),
        ("rounds", "oup",
         "bad stop rule value in 'rounds': invalid literal for int() with base 10: ''"),
        ("budget:nan", "sh", "budget must be a finite number >= 0, got 'nan'"),
        # sh plans whole runs
        ("budget:64.9", "sh", "stop rule for sh must be budget:RUNS, got 'budget:64.9'"),
        ("epsilon:0.2", "hyperband",
         "unknown procedure 'hyperband'; expected one of ('oup', 'coup', 'up', 'naive', 'sh')"),
        ("rounds:100000001", "oup",
         "rounds:N asks for 100000001 rounds, more than the 100000000 a run can finish; "
         "lower the round count"),
        ("phases:100000001", "coup",
         "phases:N asks for 100000001 phases, more than the 100000000 a run can finish; "
         "lower the phase count"),
        # single_survivor takes no value
        ("single_survivor:junk", "up",
         f"stop rule for up must be {pool_usage}, got 'single_survivor:junk'"),
        ("single_survivor:", "oup",
         f"stop rule for oup must be {pool_usage}, got 'single_survivor:'"),
    ]:
        with pytest.raises(SpecError) as refused:
            parse_stop(text, procedure)
        assert str(refused.value) == message


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


def twin(value: float) -> float:
    """Another float object equal to ``value`` (both NaN for a NaN), whose
    text differs from it only for a zero: 0.0 and -0.0 are == but print apart."""
    return -value if value == 0.0 else float(repr(value))


@st.composite
def shared_float_rows(draw):
    """Trace rows whose eps_min is the very object of the row's eps_raw or
    of the previous row's eps_min, an equal twin of one of them, or its own."""
    rows = []
    for row in draw(st.lists(TRACE_ROWS, max_size=6)):
        carried = rows[-1].eps_min if rows else row.eps_raw
        eps_min = {
            "raw": row.eps_raw,
            "carried": carried,
            "raw_twin": twin(row.eps_raw),
            "carried_twin": twin(carried),
            "own": row.eps_min,
        }[draw(st.sampled_from(["raw", "carried", "raw_twin", "carried_twin", "own"]))]
        rows.append(row._replace(eps_min=eps_min))
    return rows


ZERO, NEG_ZERO, NAN = float("0.0"), float("-0.0"), float("nan")


@settings(max_examples=300, deadline=None)
@given(procedure=st.sampled_from(PROCEDURES), rows=shared_float_rows())
@example(
    procedure="oup",
    rows=[
        TraceRow(1, 0.5, 0, False, ZERO, ZERO, 3, 0),
        # equal to the previous eps_min, and to this eps_raw, but not them
        TraceRow(2, 1.5, 0, False, ZERO, float("-0.0"), 3, 0),
        TraceRow(3, 2.5, 0, False, NEG_ZERO, float("0.0"), 3, 0),
        TraceRow(4, 3.5, 1, True, NAN, NAN, 2, 1),
        TraceRow(5, 4.5, 1, False, float("nan"), NAN, 2, 1),
        TraceRow(6, 5.5, 1, False, 1.0, float("nan"), 2, 1),
    ],
)
def test_trace_lines_match_csv_writer(procedure, rows):
    # the trace reuses eps_min's text by identity: every row still renders
    # as csv.writer renders it through format_value
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in rows:
        writer.writerow([format_value(v) for v in (procedure, *row)])
    rendered = "".join(trace_csv_lines(procedure, rows))
    assert rendered == buffer.getvalue()
    assert rendered.splitlines() == trace_lines((procedure, *row) for row in rows)


# a stop rule for each procedure that ends a run on EXP_POOL quickly
ENGINE_STOPS = [
    ("oup", "epsilon:0.4"),
    ("up", "epsilon:0.4"),
    ("coup", "phases:2"),
    ("naive", "epsilon:0.5"),
    ("sh", "budget:100"),
]


@pytest.mark.parametrize("procedure, stop", ENGINE_STOPS)
def test_engines_append_plain_tuple_rows(tmp_path, procedure, stop):
    # a row is laid out as TraceRow but built as a plain tuple, naive's
    # rewritten last row included
    result = uc.harness.execute(spec_for(tmp_path, procedure=procedure, stop=stop, delta=0.05))
    assert result.trace
    assert all(type(row) is tuple for row in result.trace)
    assert {len(row) for row in result.trace} == {len(TraceRow._fields)}


@pytest.mark.parametrize("procedure, stop", ENGINE_STOPS)
def test_summary_rounds_count_the_trace_rows(tmp_path, procedure, stop):
    # the engines count their rounds themselves; the count is the rows'
    spec = spec_for(tmp_path, procedure=procedure, stop=stop, delta=0.05)
    result = uc.harness.execute(spec)
    assert result.rounds == len(result.trace) > 0
    summary = uc.run_experiment(spec, tmp_path / "out")
    lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert summary["rounds"] == result.rounds == len(lines) - 1


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
    result = run.run_until(uc.StopRule(epsilon=0.25))
    assert run.arms[1].m * 4 < run.arms[0].m
    seconds = seconds_by_arm(result.trace)
    assert seconds[1] < seconds[0]


def test_round_robin_spends_evenly_on_identical_arms():
    oracle = uc.SyntheticOracle([uc.TwoPoint(2.0, 2.0, 1.0)] * 4, seed=0)
    run = uc.UpRun(oracle, UTILITY, 0.1, doubling="new")
    run.run_until(uc.StopRule(rounds=41))
    spent = list(seconds_by_arm(run.trace).values())
    assert len(spent) == 4
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


def test_validation_details_are_pinned(tmp_path):
    # the per-trial evidence, values and types, that a validation reports:
    # (seed, gap, epsilon, violated) for a finite pool, and for coup one
    # (seed, phase, truth, threshold, violated) per certificate
    close = write_pool(tmp_path, "family=exponential\nparams=30.0;31.0;33.0\n", name="close.txt")
    report = uc.validate_guarantee(spec_for(tmp_path, oracle=close, stop="epsilon:0.3"), trials=3)
    assert report.details == [
        (0, 0.0, 0.29990379899508224, False),
        (1, 0.0065257836430907545, 0.29987610306366064, False),
        (2, 0.019255366827409692, 0.29995867971097734, False),
    ]
    assert [tuple(map(type, entry)) for entry in report.details] == [(int, float, float, bool)] * 3
    space = "family=parametric_exponential\nparams=0.1,10000\n"
    space = write_pool(tmp_path, space, name="space.txt")
    spec = spec_for(tmp_path, procedure="coup", oracle=space, stop="phases:2", delta=0.05)
    report = uc.validate_guarantee(spec, trials=2)
    assert report.details == [
        (0, 1, 0.9984281821605305, -0.286060884628765, False),
        (0, 2, 0.9984281821605305, 0.18929152922791848, False),
        (1, 1, 0.9868378568674758, -0.286060884628765, False),
        (1, 2, 0.9868378568674758, 0.18929152922791848, False),
    ]
    assert [tuple(map(type, entry)) for entry in report.details] == [
        (int, int, float, float, bool)
    ] * 4
    assert report.per_phase_rates == {1: 0.0, 2: 0.0} and report.failures == 0
    # a coup run on a finite pool reads its quantile off the pool's truths
    finite = "family=exponential\nparams=1.0;2.0;3.0;5.0;8.0;13.0;21.0;34.0\n"
    finite = write_pool(tmp_path, finite, name="finite.txt")
    spec = spec_for(tmp_path, procedure="coup", oracle=finite, stop="phases:3", delta=0.05)
    report = uc.validate_guarantee(spec, trials=3)
    thresholds = [0.045479694393367076, 0.21680921871556502, 0.36846934029187095]
    truths = [0.7396051030727416, 0.828707386351018, 0.828707386351018]
    truths += [0.9750000000045044] * 3 + [0.9583333678850998] * 3
    assert report.details == [
        (k // 3, k % 3 + 1, truth, thresholds[k % 3], False) for k, truth in enumerate(truths)
    ]
    assert [tuple(map(type, entry)) for entry in report.details] == [
        (int, int, float, float, bool)
    ] * 9
    assert report.per_phase_rates == {1: 0.0, 2: 0.0, 3: 0.0} and report.failures == 0


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
    harness._trial(spec, harness.parse_spec(spec), 0)
    assert quantiles <= set(computed)
    computed.clear()
    harness._trial(spec, harness.parse_spec(spec), 1)
    assert computed and not quantiles & set(computed)


def test_finite_pool_truths_are_computed_once_per_process(tmp_path, monkeypatch):
    # a trial is handed the pool's truths, as validate_guarantee computes
    # them, and reads every certificate's quantile and truth without
    # computing a truth again
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
    parsed = harness.parse_spec(spec)
    utility, _, _, pool_oracle, _ = parsed
    true_utilities = pool_oracle.true_utilities(utility)
    truths = (max(true_utilities), true_utilities)
    assert sorted(dist.mean for dist, _ in computed) == means
    computed.clear()
    assert len({cert[0] for cert in harness._trial(spec, parsed, 0, truths)}) == 3
    harness._trial(spec, parsed, 1, truths)
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


@pytest.mark.parametrize("trials", [1, 7])
def test_validate_reads_the_pool_file_once(tmp_path, monkeypatch, trials):
    # the template is parsed once; a trial builds only its seed's oracle
    harness = uc.harness
    load = harness.load_synthetic_spec
    calls = []

    def counted(path):
        calls.append(path)
        return load(path)

    monkeypatch.setattr(harness, "usable_cpus", lambda: 1)
    monkeypatch.setattr(harness, "load_synthetic_spec", counted)
    report = uc.validate_guarantee(spec_for(tmp_path), trials=trials)
    assert report.trials == trials and len(calls) == 1


@pytest.mark.parametrize(
    "procedure, stop",
    [("oup", "epsilon:0.4"), ("up", "epsilon:0.4"), ("naive", "epsilon:0.5"), ("coup", "phases:2")],
)
def test_a_validation_trial_keeps_no_rows(tmp_path, monkeypatch, procedure, stop):
    # a trial reads no rows, so its run builds none; what it reads of the run
    # is what a run of the same seed that keeps every row ends with
    harness = uc.harness
    execute = harness.execute
    results = []

    def kept(*args):
        results.append(execute(*args))
        return results[-1]

    monkeypatch.setattr(harness, "usable_cpus", lambda: 1)
    monkeypatch.setattr(harness, "execute", kept)
    spec = spec_for(tmp_path, procedure=procedure, stop=stop, delta=0.05)
    if procedure == "coup":
        space = "family=parametric_exponential\nparams=0.1,10000\n"
        spec = dataclasses.replace(spec, oracle=write_pool(tmp_path, space, name="space.txt"))
    uc.validate_guarantee(spec, trials=3)
    assert len(results) == 3
    for seed, result in enumerate(results):
        assert result.trace is NO_TRACE and len(result.trace) == 0 and result.rounds > 1
        full = execute(dataclasses.replace(spec, seed=seed))
        last = TraceRow(*full.trace[-1])
        assert last.round == full.rounds == result.rounds
        assert last.ledger_seconds == full.ledger.total_seconds == result.ledger.total_seconds
        assert full.ledger.run_count == result.ledger.run_count
        # repr, so that equal nans compare equal
        assert repr(result.epsilon) == repr(full.epsilon)
        if procedure != "coup":
            assert last.eps_min == result.epsilon and last.incumbent == result.incumbent
        assert (result.incumbent, result.incumbent_config, result.incumbent_name) == (
            full.incumbent, full.incumbent_config, full.incumbent_name
        )
        assert result.stop_reason == full.stop_reason
        assert result.certificates == full.certificates
        if procedure == "coup":
            assert len(result.certificates) == 2


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

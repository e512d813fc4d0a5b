import contextlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from utilcap import cli, harness
from utilcap.cli import build_parser, main

POOL = "family=exponential\nparams=1.0;50.0;150.0\nn_configs=3\nseed=0\n"


@pytest.fixture()
def pool_path(tmp_path):
    path = tmp_path / "pool.txt"
    path.write_text(POOL)
    return str(path)


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the test, instead of hanging, if its body runs longer than ``seconds``."""

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_args(pool_path, out, extra=()):
    return [
        "run",
        "--procedure", "oup",
        "--oracle", f"synthetic:{pool_path}",
        "--stop", "epsilon:0.4",
        "--delta", "0.1",
        "--doubling", "new",
        "--seed", "3",
        "--out", str(out),
        *extra,
    ]


def test_run_exit_zero_and_outputs(tmp_path, pool_path, capsys):
    assert main(run_args(pool_path, tmp_path / "out")) == 0
    assert (tmp_path / "out" / "trace.csv").exists()
    assert (tmp_path / "out" / "summary.csv").exists()
    assert "incumbent" in capsys.readouterr().out


def test_repeat_runs_are_byte_identical(tmp_path, pool_path):
    assert main(run_args(pool_path, tmp_path / "a")) == 0
    assert main(run_args(pool_path, tmp_path / "b")) == 0
    for name in ("trace.csv", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_spec_error_exits_two(tmp_path, pool_path, capsys):
    args = run_args(pool_path, tmp_path / "out")
    args[args.index("--stop") + 1] = "phases:2"
    assert main(args) == 2
    assert "spec error" in capsys.readouterr().err


def test_missing_pool_exits_two(tmp_path, capsys):
    assert main(run_args(tmp_path / "nope.txt", tmp_path / "out")) == 2


def test_instance_exhaustion_exits_three(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    matrix.write_text("a,1,1\nb,2,2\n")
    args = [
        "run", "--procedure", "oup", "--oracle", f"matrix:{matrix}",
        "--stop", "epsilon:0.001", "--delta", "0.1", "--doubling", "new",
        "--seed", "0", "--out", str(tmp_path / "out"),
    ]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "instance exhaustion" in err and "achieved eps" in err


def test_validate_exit_codes(tmp_path, pool_path, capsys):
    args = [
        "validate", "--procedure", "oup", "--oracle", f"synthetic:{pool_path}",
        "--stop", "epsilon:0.4", "--delta", "0.1", "--doubling", "new",
        "--trials", "8",
    ]
    assert main(args) == 0
    assert "violations" in capsys.readouterr().out
    # an impossible operational bound forces the validation-failure exit path
    assert main(args + ["--max-failure-rate", "-1"]) == 4
    assert "validation failure" in capsys.readouterr().err


def test_sweep_and_curve_round_trip(tmp_path, pool_path, capsys):
    sweep = [
        "sweep", "--procedure", "oup,up", "--seeds", "3,4",
        "--oracle", f"synthetic:{pool_path}", "--stop", "epsilon:0.4",
        "--delta", "0.1", "--doubling", "new", "--out", str(tmp_path / "grid"),
    ]
    assert main(sweep) == 0
    for cell in ("oup_seed3", "oup_seed4", "up_seed3", "up_seed4"):
        assert (tmp_path / "grid" / cell / "trace.csv").exists()
    curve = [
        "curve",
        "--runs", str(tmp_path / "grid" / "oup_seed3"), str(tmp_path / "grid" / "up_seed3"),
        "--out", str(tmp_path / "curve.csv"),
    ]
    assert main(curve) == 0
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0] == "procedure,ledger_seconds,eps_min"
    assert any(line.startswith("up,") for line in lines[1:])
    # mixing seeds is a spec error
    bad = ["curve", "--runs", str(tmp_path / "grid" / "oup_seed3"), str(tmp_path / "grid" / "up_seed4")]
    assert main(bad) == 2


def _drop_seed_column(lines):
    header, row = (line.split(",") for line in lines)
    k = header.index("seed")
    return [",".join(header[:k] + header[k + 1:]), ",".join(row[:k] + row[k + 1:])]


@pytest.mark.parametrize(
    "name, edit",
    [
        ("summary.csv", lambda lines: lines[:1]),
        ("summary.csv", _drop_seed_column),
        ("trace.csv", lambda lines: [lines[0], "oup,abc" + lines[1][lines[1].index(",", 4):]]),
        ("trace.csv", lambda lines: [lines[0], lines[1].rsplit(",", 1)[0]]),
    ],
    ids=["summary_one_line", "summary_without_seed", "trace_field_not_a_number", "trace_row_short"],
)
def test_curve_bad_run_directory_exits_two(tmp_path, pool_path, name, edit, capsys):
    run = tmp_path / "run"
    assert main(run_args(pool_path, run)) == 0
    path = run / name
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert main(["curve", "--runs", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error:") and err.count("\n") == 1 and str(path) in err


def test_env_var_overrides_output_dir(tmp_path, pool_path, monkeypatch):
    monkeypatch.setenv("UTILCAP_OUT", str(tmp_path / "forced"))
    assert main(run_args(pool_path, tmp_path / "ignored")) == 0
    assert (tmp_path / "forced" / "trace.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_env_var_sets_sweep_base_directory(tmp_path, pool_path, monkeypatch):
    monkeypatch.setenv("UTILCAP_OUT", str(tmp_path / "forced"))
    sweep = [
        "sweep", "--procedure", "oup,up", "--seeds", "3,4",
        "--oracle", f"synthetic:{pool_path}", "--stop", "epsilon:0.4",
        "--delta", "0.1", "--doubling", "new", "--out", str(tmp_path / "ignored"),
    ]
    assert main(sweep) == 0
    cells = sorted(p.name for p in (tmp_path / "forced").iterdir())
    assert cells == ["oup_seed3", "oup_seed4", "up_seed3", "up_seed4"]
    for cell in cells:
        assert (tmp_path / "forced" / cell / "summary.csv").exists()
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize(
    "body, procedure, stop",
    [
        ("family=exponential\nparams=1.0;abc\n", "oup", "epsilon:0.4"),
        ("family=exponential\nparams=1.0;2.0\nseed=x\n", "oup", "epsilon:0.4"),
        ("family=exponential\nparams=1.0;2.0\nn_configs=two\n", "oup", "epsilon:0.4"),
        ("family=parametric_exponential\nparams=0.1,abc\n", "coup", "phases:1"),
        ("family=parametric_exponential\nparams=0.1,0.5\n", "coup", "phases:1"),
        # non-finite parameters, one family at a time
        ("family=exponential\nparams=nan;2.0\n", "oup", "epsilon:0.4"),
        ("family=exponential\nparams=inf;2.0\n", "oup", "epsilon:0.4"),
        ("family=lognormal\nparams=1.0,nan;2.0,1.0\n", "oup", "epsilon:0.4"),
        ("family=lognormal\nparams=inf,1.0;2.0,1.0\n", "oup", "epsilon:0.4"),
        ("family=twopoint\nparams=nan,5,0.5\n", "oup", "epsilon:0.4"),
        ("family=twopoint\nparams=1,inf,0.5\n", "oup", "epsilon:0.4"),
        ("family=parametric_exponential\nparams=nan,5\n", "coup", "phases:1"),
        ("family=parametric_exponential\nparams=0.1,nan\n", "coup", "phases:1"),
        # finite, but the largest mean, scale * growth, overflows
        ("family=parametric_exponential\nparams=1e300,1e300\n", "coup", "phases:1"),
        # a misspelt key, and a key given twice, would be silently ignored
        ("family=exponential\nparams=1.0;2.0\nn_config=7\n", "oup", "epsilon:0.4"),
        ("family=exponential\nparams=1.0;2.0\nparams=3.0\n", "oup", "epsilon:0.4"),
    ],
)
def test_malformed_pool_file_exits_two(tmp_path, body, procedure, stop, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    args = run_args(path, tmp_path / "out")
    args[args.index("--procedure") + 1] = procedure
    args[args.index("--stop") + 1] = stop
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def validate_output(monkeypatch, capsys, args, cpus):
    """(exit code, stdout, stderr, report) of one validate command on a
    machine with ``cpus`` usable CPUs."""
    reports = []
    real = harness.validate_guarantee

    def capture(*a, **kw):
        reports.append(real(*a, **kw))
        return reports[-1]

    monkeypatch.setattr(cli, "validate_guarantee", capture)
    monkeypatch.setattr(harness, "usable_cpus", lambda: cpus)
    code = main(["validate", *args])
    out, err = capsys.readouterr()
    return code, out, err, reports


@pytest.mark.parametrize(
    "body, args",
    [
        (
            "family=lognormal\nparams=0.0,1.0;1.5,0.8;1.0,0.5;2.0,0.7\n",
            ("--procedure", "oup", "--stop", "epsilon:0.3", "--trials", "8"),
        ),
        (
            "family=parametric_exponential\nparams=0.1,10000\n",
            ("--procedure", "coup", "--stop", "phases:3", "--delta", "0.05", "--trials", "4"),
        ),
        (
            # phase 1 needs more configurations than the pool has
            "family=exponential\nparams=1.0;2.0;3.0\n",
            ("--procedure", "coup", "--stop", "phases:3", "--without-replacement",
             "--trials", "4"),
        ),
    ],
    ids=["oup_lognormal", "coup_parametric", "coup_pool_exhausted"],
)
def test_validate_output_does_not_depend_on_cpus(tmp_path, monkeypatch, capsys, body, args):
    path = tmp_path / "pool.txt"
    path.write_text(body)
    args = ("--oracle", f"synthetic:{path}", "--doubling", "new", "--base-seed", "7", *args)
    # one CPU runs the trials in this process; two start a pool of two
    # workers, even on a one-CPU machine
    with time_limit(30.0):
        serial = validate_output(monkeypatch, capsys, args, 1)
        parallel = validate_output(monkeypatch, capsys, args, 2)
    assert serial == parallel
    code, out, err, reports = serial
    if "--without-replacement" in args:
        assert (code, out, reports) == (2, "", [])
        assert err.startswith("spec error: cannot grow the pool") and err.count("\n") == 1
    else:
        assert code == 0 and "violations" in out
        (report,) = reports
        assert report.trials == len({entry[0] for entry in report.details})


def sweep_output(monkeypatch, capsys, args, out, cpus):
    """(exit code, stdout, stderr, {file: bytes}) of one sweep command into
    ``out`` on a machine with ``cpus`` usable CPUs."""
    monkeypatch.setattr(harness, "usable_cpus", lambda: cpus)
    code = main(["sweep", *args, "--out", str(out)])
    stdout, stderr = capsys.readouterr()
    files = {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()}
    return code, stdout, stderr, files


@pytest.mark.parametrize(
    "oracle, args",
    [
        (
            ("pool.txt", POOL),
            ("--procedure", "oup,up,naive", "--stop", "epsilon:0.4", "--seeds", "0:3"),
        ),
        (
            # every cell runs out of dataset columns; each writes its partial files
            ("m.csv", "a,1,1\nb,2,2\n"),
            ("--procedure", "oup,up", "--stop", "epsilon:0.001", "--seeds", "0:2"),
        ),
    ],
    ids=["ok", "exhausted"],
)
def test_sweep_output_does_not_depend_on_cpus(tmp_path, monkeypatch, capsys, oracle, args):
    name, body = oracle
    (tmp_path / name).write_text(body)
    kind = "matrix" if name.endswith(".csv") else "synthetic"
    args = ("--oracle", f"{kind}:{tmp_path / name}", "--delta", "0.1", "--doubling", "new", *args)
    # one CPU runs the cells in this process; two start a pool of two
    # workers, even on a one-CPU machine
    with time_limit(30.0):
        serial = sweep_output(monkeypatch, capsys, args, tmp_path / "serial", 1)
        parallel = sweep_output(monkeypatch, capsys, args, tmp_path / "parallel", 2)
    assert serial == parallel
    code, out, err, files = serial
    procedures = args[args.index("--procedure") + 1].split(",")
    seeds = range(*map(int, args[args.index("--seeds") + 1].split(":")))
    cells = [f"{p}_seed{s}" for p in procedures for s in seeds]
    assert {path.split("/")[0] for path in files} == set(cells)
    if kind == "synthetic":
        assert (code, err) == (0, "")
        assert [line.partition(":")[0] for line in out.splitlines()] == [
            c.replace("_seed", " seed=") for c in cells
        ]
    else:
        # every cell ran and wrote its files; the first in cell order is reported
        assert (code, out) == (3, "")
        assert err.startswith("instance exhaustion: ") and "achieved eps=" in err
        assert err.count("\n") == 1
        assert all(f"{c}/summary.csv" in files for c in cells)


@pytest.mark.parametrize(
    "verb, procedure, stop, extra",
    [
        ("run", "coup", "phases:1", ("--seed", "3", "--schedule", "bogus")),
        ("run", "coup", "phases:1", ("--seed", "3", "--without-replacement")),
        ("sweep", "oup", "epsilon:0.4", ("--seeds", "a:b")),
        ("sweep", "oup", "epsilon:0.4", ("--seeds", "5:3")),
        ("run", "naive", "epsilon:0", ("--seed", "3")),
        ("run", "oup", "rounds:-5", ("--seed", "3")),
        ("run", "coup", "phases:-1", ("--seed", "3")),
        ("run", "sh", "budget:inf", ("--seed", "3")),
        # stop rules that never fire (nan, inf, eps <= 0) or fire before any run
        ("run", "oup", "budget:nan", ("--seed", "3")),
        ("run", "oup", "budget:inf", ("--seed", "3")),
        ("run", "oup", "budget:-5", ("--seed", "3")),
        ("run", "oup", "epsilon:0", ("--seed", "3")),
        ("run", "oup", "epsilon:nan", ("--seed", "3")),
        ("run", "oup", "epsilon:-1", ("--seed", "3")),
        ("run", "coup", "budget:nan", ("--seed", "3")),
        ("run", "coup", "budget:-5", ("--seed", "3")),
        ("run", "naive", "epsilon:inf", ("--seed", "3")),
        # non-finite utility parameters and captimes
        ("run", "oup", "epsilon:0.4", ("--seed", "3", "--utility", "loglaplace:kappa0=nan")),
        ("run", "oup", "epsilon:0.4", ("--seed", "3", "--utility", "loglaplace:kappa0=60,a=nan")),
        ("run", "oup", "epsilon:0.4", ("--seed", "3", "--utility", "uniform:kappa0=inf")),
        ("run", "sh", "budget:64", ("--seed", "3", "--sh-kappa", "nan")),
        # plans of about 10^19 and 10^18 runs
        ("run", "naive", "epsilon:1e-9", ("--seed", "3")),
        ("run", "sh", "budget:1e18", ("--seed", "3")),
        # every round makes a run, so 10^12 rounds is a plan of 10^12 runs
        ("run", "oup", "rounds:1000000000000", ("--seed", "3")),
        ("run", "up", "rounds:1000000000000", ("--seed", "3")),
        # phase 50 of the default schedule needs about 2 * 10^8 configurations;
        # phase 10^12 and phase 80 of gamma_then_epsilon have eps underflow to 0
        ("run", "coup", "phases:50", ("--seed", "3")),
        ("run", "coup", "phases:1000000000000", ("--seed", "3")),
        ("run", "coup", "phases:80", ("--seed", "3", "--schedule", "gamma_then_epsilon")),
        ("run", "coup", "phases:1", ("--seed", "3", "--schedule", "custom:eps")),
        # seeds below 0, for run and sweep alike
        ("run", "oup", "epsilon:0.4", ("--seed", "-1")),
        ("sweep", "oup", "epsilon:0.4", ("--seeds=-3:-1",)),
        # a budget's schedule is checked at phase 1: eps underflows to 0 there
        ("run", "coup", "budget:100",
         ("--seed", "3", "--schedule", "custom:eps=e^-p/0.0000001,gamma=e^-p/3")),
        # a subnormal gamma_1 overflows even the log-summed pool size
        ("run", "coup", "phases:1",
         ("--seed", "3", "--schedule", "custom:eps=e^-p/6,gamma=e^-p/0.0014")),
        ("run", "coup", "budget:10",
         ("--seed", "3", "--schedule", "custom:eps=e^-p/6,gamma=e^-p/0.0014")),
        # eps^2 underflows to 0 and to a subnormal: the sample count overflows
        ("run", "naive", "epsilon:1e-170", ("--seed", "3", "--utility", "uniform:kappa0=60")),
        ("run", "naive", "epsilon:1e-160", ("--seed", "3", "--utility", "uniform:kappa0=60")),
        # a phase count past any float, and one whose cube is
        ("run", "coup", "phases:1" + "0" * 320, ("--seed", "3")),
        ("run", "coup", "phases:" + "9" * 320, ("--seed", "3")),
        ("run", "coup", "phases:1" + "0" * 105, ("--seed", "3", "--schedule", "gamma_then_epsilon")),
        # a later procedure's stop rule is refused before any cell runs
        ("sweep", "oup,coup", "epsilon:0.4", ("--seeds", "0:2")),
        ("sweep", "oup", "epsilon:0.4", ("--seeds", "0,-1")),
        # a later procedure's plan, captime or pool is refused before any cell
        # runs: naive's captime never brings u under eps/2, sh's eta < 2, sh's
        # captime is negative, and coup's phase 1 needs 5 of the 3 configurations
        ("sweep", "oup,naive", "epsilon:0.4",
         ("--seeds", "0:2", "--utility", "loglaplace:kappa0=1e300")),
        ("sweep", "oup,sh", "budget:100", ("--seeds", "0:2", "--sh-eta", "1")),
        ("sweep", "oup,sh", "budget:100", ("--seeds", "0:2", "--sh-kappa", "-1")),
        ("sweep", "oup,coup", "budget:50", ("--seeds", "0:2", "--without-replacement")),
        # misspelt and repeated custom schedule names
        ("run", "coup", "phases:1",
         ("--seed", "3", "--schedule", "custom:eps=e^-p/6,gamma=e^-p/3,gama=e^-p/100")),
        ("run", "coup", "phases:1",
         ("--seed", "3", "--schedule", "custom:eps=e^-p/6,gamma=e^-p/3,gamma=e^-p/4")),
        # an output directory that is a file, or lies under one (relative
        # to the test's directory, which holds the file ``afile``)
        ("run", "oup", "epsilon:0.4", ("--seed", "3", "--out", "afile")),
        ("run", "oup", "epsilon:0.4", ("--seed", "3", "--out", "afile/sub")),
        ("sweep", "oup", "epsilon:0.4", ("--seeds", "0:2", "--out", "afile")),
    ],
    ids=[
        "unknown_schedule",
        "pool_exhausted",
        "seeds_not_integers",
        "seeds_empty",
        "naive_epsilon_zero",
        "rounds_negative",
        "phases_negative",
        "sh_budget_infinite",
        "oup_budget_nan",
        "oup_budget_infinite",
        "oup_budget_negative",
        "oup_epsilon_zero",
        "oup_epsilon_nan",
        "oup_epsilon_negative",
        "coup_budget_nan",
        "coup_budget_negative",
        "naive_epsilon_infinite",
        "utility_kappa0_nan",
        "utility_decay_nan",
        "utility_kappa0_infinite",
        "sh_kappa_nan",
        "naive_plan_too_large",
        "sh_plan_too_large",
        "oup_rounds_too_large",
        "up_rounds_too_large",
        "coup_phases_pool_too_large",
        "coup_phases_far_past_underflow",
        "coup_phases_schedule_underflows",
        "custom_schedule_item_without_value",
        "seed_negative",
        "sweep_seeds_negative",
        "coup_budget_schedule_underflows",
        "coup_phases_gamma_subnormal",
        "coup_budget_gamma_subnormal",
        "naive_epsilon_squared_underflows",
        "naive_epsilon_squared_subnormal",
        "coup_phases_past_float",
        "coup_phases_nines_past_float",
        "coup_phases_cube_past_float",
        "sweep_later_procedure_bad",
        "sweep_later_seed_negative",
        "sweep_later_naive_captime_unreachable",
        "sweep_later_sh_eta_one",
        "sweep_later_sh_kappa_negative",
        "sweep_later_coup_pool_exhausted",
        "custom_schedule_name_misspelt",
        "custom_schedule_name_repeated",
        "out_is_a_file",
        "out_under_a_file",
        "sweep_out_is_a_file",
    ],
)
def test_bad_spec_exits_two(
    tmp_path, pool_path, monkeypatch, verb, procedure, stop, extra, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    args = [
        verb, "--procedure", procedure, "--oracle", f"synthetic:{pool_path}",
        "--stop", stop, "--delta", "0.1", "--out", str(tmp_path / "out"), *extra,
    ]
    with time_limit(10.0):
        assert main(args) == 2
    out, err = capsys.readouterr()
    assert err.startswith("spec error:") and err.count("\n") == 1
    # no run, and so no sweep cell, got as far as its output
    assert out == "" and not (tmp_path / "out").exists()
    assert (tmp_path / "afile").read_text() == ""
    if stop.startswith("phases:") and len(stop) > 100:
        # a phase count too large for the schedule's arithmetic names itself
        assert "phases:N" in err and "lower the phase count" in err


def test_validate_refuses_a_phase_count_before_any_trial(pool_path, monkeypatch, capsys):
    def no_trials(fn, items):
        raise AssertionError("a trial started")

    monkeypatch.setattr(harness, "map_in_workers", no_trials)
    args = [
        "validate", "--procedure", "coup", "--oracle", f"synthetic:{pool_path}",
        "--stop", "phases:50", "--trials", "2",
    ]
    with time_limit(10.0):
        assert main(args) == 2
    assert "configurations, more than the 1000000" in capsys.readouterr().err


PARAMETRIC = "family=parametric_exponential\nparams=0.1,10000\n"


@pytest.mark.parametrize(
    "body, extra",
    [
        (PARAMETRIC, ("--procedure", "oup", "--stop", "epsilon:0.5")),
        (PARAMETRIC, ("--procedure", "up", "--stop", "epsilon:0.5")),
        (PARAMETRIC, ("--procedure", "naive", "--stop", "epsilon:0.5")),
        (POOL, ("--procedure", "oup", "--stop", "epsilon:0.5", "--base-seed", "-2")),
        # every failure rate compares false with nan, so nan would always pass
        (POOL, ("--procedure", "oup", "--stop", "epsilon:0.5", "--max-failure-rate", "nan")),
        (POOL, ("--procedure", "oup", "--stop", "epsilon:0.5", "--max-failure-rate", "inf")),
        # a plan of about 10^19 runs; phase 3 needs more than the 3 configurations
        (POOL, ("--procedure", "naive", "--stop", "epsilon:1e-9")),
        (POOL, ("--procedure", "coup", "--stop", "phases:3", "--without-replacement")),
    ],
    ids=["oup_parametric", "up_parametric", "naive_parametric", "base_seed_negative",
         "max_failure_rate_nan", "max_failure_rate_infinite", "naive_plan_too_large",
         "coup_pool_exhausted"],
)
def test_validate_bad_spec_exits_two_before_any_trial(tmp_path, monkeypatch, capsys, body, extra):
    def no_trials(fn, items):
        raise AssertionError("a trial started")

    monkeypatch.setattr(harness, "map_in_workers", no_trials)
    path = tmp_path / "pool.txt"
    path.write_text(body)
    with time_limit(10.0):
        assert main(["validate", "--oracle", f"synthetic:{path}", "--trials", "2", *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error:") and err.count("\n") == 1


def test_curve_of_a_coup_run_exits_two(tmp_path, capsys):
    # coup restarts eps_min at every phase; its guarantee is the certificates
    path = tmp_path / "pool.txt"
    path.write_text("family=exponential\nparams=1.0;5.0;20.0\n")
    run = tmp_path / "coup"
    args = ["run", "--procedure", "coup", "--oracle", f"synthetic:{path}",
            "--stop", "phases:2", "--delta", "0.05", "--seed", "1", "--out", str(run)]
    assert main(args) == 0
    assert len((run / "trace.csv").read_text().splitlines()) == 1 + 27
    capsys.readouterr()
    assert main(["curve", "--runs", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error: the coup run's eps_min rises at round ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "body, procedure, stop, expected",
    [
        # n_p = ceil((ln(pi^2/3) - ln(1e-320)) / e^-1/3) = 1030
        (PARAMETRIC, "coup", "phases:1", "1030"),
        (PARAMETRIC, "coup", "budget:100", None),
        # 2 n / delta overflows; the plan is 5,909 runs per configuration
        ("family=exponential\nparams=1.0;5.0;20.0\n", "naive", "epsilon:0.5", None),
    ],
    ids=["coup_phases", "coup_budget", "naive"],
)
def test_tiny_delta_plans_stay_finite(tmp_path, body, procedure, stop, expected):
    path = tmp_path / "pool.txt"
    path.write_text(body)
    out = tmp_path / "out"
    args = ["run", "--procedure", procedure, "--oracle", f"synthetic:{path}", "--stop", stop,
            "--delta", "1e-320", "--seed", "1", "--out", str(out)]
    with time_limit(10.0):
        assert main(args) == 0
    if expected is not None:
        _, row = (out / "certificates.csv").read_text().splitlines()
        assert row.split(",")[3] == expected
    if procedure == "naive":
        _, row = (out / "summary.csv").read_text().splitlines()
        assert row.split(",")[-3] == str(3 * 5909)  # run_count


def test_tiny_delta_run_ends(tmp_path):
    # 11 n m^2 (level+1)^2 / delta overflows at delta = 1e-320; the width
    # stays finite, so the target is reached
    path = tmp_path / "pool.txt"
    path.write_text("family=exponential\nparams=1.0;5.0;20.0;60.0;200.0\nseed=0\n")
    out = tmp_path / "out"
    args = run_args(path, out, ("--delta", "1e-320", "--doubling", "old", "--seed", "1"))
    with time_limit(10.0):
        assert main(args) == 0
    _, row = (out / "summary.csv").read_text().splitlines()
    assert row.endswith(",17654,target_epsilon")  # rounds, stop reason


# Runs in a fresh interpreter; prints which of scipy and the process-pool
# modules are loaded after the import, after a coup run on a parametric
# pool, after a one-trial validate (which runs in this process, with no
# pool) on a two-point pool and after an oup run on
# a lognormal pool.
SCIPY_PROBE = """
import contextlib, io, json, sys
from utilcap.cli import main

def loaded_after(*args):
    if args:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*args, "--delta", "0.1"]) == 0
    return [m for m in ("scipy", "multiprocessing", "concurrent.futures") if m in sys.modules]

print(json.dumps([
    loaded_after(),
    loaded_after("run", "--procedure", "coup", "--oracle", "synthetic:parametric.txt",
                 "--stop", "phases:3", "--seed", "1", "--out", "coup"),
    loaded_after("validate", "--procedure", "oup", "--oracle", "synthetic:twopoint.txt",
                 "--stop", "epsilon:0.4", "--trials", "1"),
    loaded_after("run", "--procedure", "oup", "--oracle", "synthetic:lognormal.txt",
                 "--stop", "rounds:20", "--seed", "1", "--out", "lognormal"),
]))
"""


def test_scipy_loads_only_for_lognormal_runs(tmp_path):
    # other tests import scipy into this process, so a fresh one is asked
    (tmp_path / "parametric.txt").write_text("family=parametric_exponential\nparams=0.1,10000\n")
    (tmp_path / "twopoint.txt").write_text("family=twopoint\nparams=1,30,0.9;2,100,0.5\n")
    (tmp_path / "lognormal.txt").write_text("family=lognormal\nparams=0.0,1.0;1.5,0.8\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("UTILCAP_OUT", None)
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    imported, coup, validate, lognormal = json.loads(proc.stdout.splitlines()[-1])
    # a one-trial validate starts no pool, and ground truth for a two-point
    # pool is closed-form, so it loads none of them
    assert imported == coup == validate == []
    assert "scipy" in lognormal and "multiprocessing" not in lognormal

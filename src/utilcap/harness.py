"""Experiment orchestration: specs, runs, trace files, curves, validators.

Everything here is simulation-only: time is the sum of observed capped
durations, never the wall clock, so a spec plus a seed fully determines
every output byte.  All outputs are CSV with ``repr`` float formatting.
"""

from __future__ import annotations

import csv
import io
import math
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path

from .baselines import (
    MAX_PLANNED_RUNS,
    UpRun,
    halving_plan,
    naive_plan,
    naive_run,
    successive_halving,
)
from .coup import (
    CoupRun,
    FinitePoolSampler,
    ParametricSampler,
    SamplerExhaustedError,
    Schedule,
    exponential_mean_map,
    phase_size,
)
from .oracles import (
    Exponential,
    InstanceExhaustedError,
    LogNormal,
    SyntheticOracle,
    TwoPoint,
    load_runtime_matrix,
)
from .oup import OupRun
from .records import (
    BudgetSeconds,
    MaxPhases,
    MaxRounds,
    SingleSurvivor,
    TargetEpsilon,
    TraceRow,
    format_value,
)
from .utility import parse_utility

OUTPUT_DIR_ENV = "UTILCAP_OUT"

PROCEDURES = ("oup", "coup", "up", "naive", "sh")

_TOL = 1e-12


class SpecError(ValueError):
    """An experiment spec failed validation; maps to exit code 2."""


class GuaranteeViolation(AssertionError):
    """A Monte Carlo validation exceeded its failure bound; exit code 4."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to replay one run byte for byte."""

    procedure: str
    oracle: str
    utility: str
    stop: str
    seed: int
    delta: float = 0.01
    doubling: str = "old"
    schedule: str = "default"
    without_replacement: bool = False
    sh_eta: int = 2
    sh_kappa: float = 1.0


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------


def _budget(value: str) -> BudgetSeconds:
    # nan or inf would never be reached and a negative budget spends nothing
    seconds = float(value)
    if not 0.0 <= seconds < math.inf:
        raise SpecError(f"budget must be a finite number >= 0, got {value.strip()!r}")
    return BudgetSeconds(seconds)


def _epsilon(value: str) -> TargetEpsilon:
    # eps stays above 0 and is never <= nan, so such a target is never reached
    epsilon = float(value)
    if not 0.0 < epsilon < math.inf:
        raise SpecError(f"target epsilon must be a finite number > 0, got {value.strip()!r}")
    return TargetEpsilon(epsilon)


def _count(name: str, value: str) -> int:
    # every round makes at least one run and every phase writes a certificate
    # row, so a count past the cap on planned runs would never finish either
    count = int(value)
    if count > MAX_PLANNED_RUNS:
        raise SpecError(
            f"{name}:N asks for {count} {name}, more than the {MAX_PLANNED_RUNS} "
            f"a run can finish; lower the {name[:-1]} count"
        )
    return count


def parse_stop(text: str, procedure: str):
    name, _, value = text.partition(":")
    name = name.strip()
    try:
        if procedure == "coup":
            if name == "phases" and int(value) >= 1:
                return MaxPhases(_count("phases", value))
            if name == "budget":
                return _budget(value)
            raise SpecError(
                f"stop rule for coup must be phases:N (N >= 1) or budget:SECONDS, got {text!r}"
            )
        if procedure in ("oup", "up"):
            if name == "epsilon":
                return _epsilon(value)
            if name == "budget":
                return _budget(value)
            if name == "single_survivor":
                return SingleSurvivor()
            if name == "rounds" and int(value) >= 1:
                return MaxRounds(_count("rounds", value))
            raise SpecError(
                f"stop rule for {procedure} must be epsilon:X, budget:SECONDS, "
                f"single_survivor or rounds:N (N >= 1), got {text!r}"
            )
        if procedure == "naive":
            if name == "epsilon":
                return _epsilon(value)
            raise SpecError(f"stop rule for naive must be epsilon:X, got {text!r}")
        if procedure == "sh":
            if name == "budget":
                return _budget(value)
            raise SpecError(f"stop rule for sh must be budget:RUNS, got {text!r}")
    except ValueError as err:
        if isinstance(err, SpecError):
            raise
        raise SpecError(f"bad stop rule value in {text!r}: {err}") from None
    raise SpecError(f"unknown procedure {procedure!r}; expected one of {PROCEDURES}")


# each family's runtime distribution (for the parametric space, the map from
# theta to one) and the fields of one params entry
_FAMILIES = {
    "exponential": (Exponential, ("mean",)),
    "lognormal": (LogNormal, ("mu", "sigma")),
    "twopoint": (TwoPoint, ("t_fast", "t_slow", "p_fast")),
    "parametric_exponential": (exponential_mean_map, ("scale", "growth")),
}

_POOL_KEYS = ("family", "params", "n_configs", "seed")


def load_synthetic_spec(path: str | Path):
    """Parse a synthetic pool file of key=value lines into its tuple of
    runtime distributions, or for ``parametric_exponential`` the map from
    theta to one.

    Keys: ``family`` (a key of ``_FAMILIES``), ``params`` (semicolon-separated
    entries; comma-separated fields within an entry), ``n_configs`` and
    ``seed``.  The seed must be an integer but is never used: the run's
    ``--seed`` decides.  Any other key, or a key given twice, is refused.
    """
    path = Path(path)
    fields: dict[str, str] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise SpecError(f"cannot read synthetic pool file {path}: {err}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise SpecError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key = key.strip()
        if key not in _POOL_KEYS:
            raise SpecError(f"{path}:{lineno}: unknown key {key!r}; expected one of {_POOL_KEYS}")
        if key in fields:
            raise SpecError(f"{path}:{lineno}: key {key!r} given twice")
        fields[key] = value.strip()
    family = fields.get("family")
    if family is None:
        raise SpecError(f"{path}: missing required key 'family'")
    if family not in _FAMILIES:
        raise SpecError(f"{path}: unknown family {family!r}; expected one of {sorted(_FAMILIES)}")
    make, names = _FAMILIES[family]
    _integer(path, "seed", fields.get("seed", "0"))
    params = fields.get("params", "")
    entries = []
    for i, chunk in enumerate(filter(None, (c.strip() for c in params.split(";"))), start=1):
        try:
            values = [float(v) for v in chunk.split(",")]
            if len(values) != len(names):
                raise ValueError(f"expected {','.join(names)}, got {len(values)} values")
            entries.append(make(*values))
        except ValueError as err:
            raise SpecError(f"{path}: params entry {i} ({chunk!r}): {err}") from None
    if family == "parametric_exponential":
        if len(entries) != 1:
            raise SpecError(f"{path}: parametric_exponential needs one params entry scale,growth")
        return entries[0]
    if not entries:
        raise SpecError(f"{path}: no configurations in params")
    declared = fields.get("n_configs")
    if declared is not None and _integer(path, "n_configs", declared) != len(entries):
        raise SpecError(
            f"{path}: n_configs={declared} but params lists {len(entries)} entries"
        )
    return tuple(entries)


def _integer(path: Path, key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SpecError(f"{path}: {key} must be an integer, got {text!r}") from None


def build_oracle(oracle_spec: str, seed: int):
    """Build the runtime oracle named by an oracle spec string, and for a
    parametric space the map from theta to a runtime distribution (else None)."""
    kind, _, target = oracle_spec.partition(":")
    if not target:
        raise SpecError(f"oracle spec must look like matrix:PATH or synthetic:PATH, got {oracle_spec!r}")
    if kind == "matrix":
        try:
            return load_runtime_matrix(target, seed), None
        except (OSError, ValueError) as err:
            raise SpecError(f"cannot load runtime matrix: {err}") from None
    if kind == "synthetic":
        pool = load_synthetic_spec(target)
        make = None if isinstance(pool, tuple) else pool
        return SyntheticOracle(() if make else pool, seed), make
    raise SpecError(f"unknown oracle kind {kind!r} in {oracle_spec!r}")


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _write_csv(path: Path, columns: tuple[str, ...], lines: Iterable[str]) -> None:
    """Write a header of ``columns`` and the rendered ``lines`` (each ending
    in a newline); every CSV file goes through here."""
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(columns) + "\n")
        handle.writelines(lines)


def _quoted_lines(rows: Iterable[tuple]) -> Iterator[str]:
    """Rows through ``csv.writer`` and ``format_value``: a cell with a comma,
    a quote or a newline (a spec string, a name) comes out quoted."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in rows:
        writer.writerow([format_value(v) for v in row])
        yield buffer.getvalue()
        buffer.seek(0)
        buffer.truncate()


def trace_csv_lines(procedure: str, trace: Iterable[tuple]) -> Iterator[str]:
    """The lines of ``trace.csv``: one format per row, the text that
    ``csv.writer`` and ``format_value`` would give.

    Trace cells are numbers, booleans and a name from ``PROCEDURES``, so
    none ever needs quoting.  Any other name raises here, before a file is
    opened, so a name that could need quoting never reaches a file.
    """
    if procedure not in PROCEDURES:
        raise ValueError(
            f"unknown procedure {procedure!r} in a trace; expected one of {PROCEDURES}"
        )
    return (
        f"{procedure},{round_},{seconds!r},{selected},"
        f"{'true' if doubled else 'false'},{eps_raw!r},{eps_min!r},{survivors},{incumbent}\n"
        for round_, seconds, selected, doubled, eps_raw, eps_min, survivors, incumbent in trace
    )


SUMMARY_COLUMNS = (
    "procedure",
    "oracle",
    "utility",
    "delta",
    "doubling",
    "schedule",
    "stop",
    "seed",
    "incumbent",
    "incumbent_name",
    "final_epsilon",
    "total_seconds",
    "run_count",
    "rounds",
    "stop_reason",
)

CERTIFICATE_COLUMNS = (
    "phase",
    "epsilon_p",
    "gamma_p",
    "n_p",
    "incumbent_name",
    "incumbent_lcb",
    "ledger_seconds",
)


def output_directory(requested: str | Path) -> Path:
    """Resolve a requested output directory; the environment override wins.

    The command line resolves it once per command, so for ``sweep`` the
    override replaces the base directory and the cells stay apart.
    Raises ``SpecError`` when the directory, or any existing ancestor of
    it, exists as something other than a directory, so that no run is made
    whose files could not be written.
    """
    override = os.environ.get(OUTPUT_DIR_ENV)
    path = Path(override) if override else Path(requested)
    for part in (path, *path.parents):
        if part.exists() and not part.is_dir():
            raise SpecError(f"output directory {str(path)!r}: {str(part)!r} is not a directory")
    return path


# ---------------------------------------------------------------------------
# Running experiments
# ---------------------------------------------------------------------------


# a sampled configuration takes about 800 bytes with its arm state, oracle
# entry and index heap entries, so a pool of this many takes about 0.8 GB
MAX_POOL_CONFIGS = 10**6


def parse_spec(spec: ExperimentSpec):
    """The spec boundary: parse and check every field once, before any run.
    Returns ``(utility, stop, schedule, oracle, make)``, the last two as
    ``build_oracle`` gives them; raises ``SpecError``.

    Every refusal that the spec alone decides is made here: a naive or sh
    plan no run can finish, and a coup pool that a population without
    replacement cannot fill by the last phase known in advance."""
    if spec.procedure not in PROCEDURES:
        raise SpecError(f"unknown procedure {spec.procedure!r}; expected one of {PROCEDURES}")
    if spec.doubling not in ("old", "new"):
        raise SpecError(f"doubling must be 'old' or 'new', got {spec.doubling!r}")
    if not 0.0 < spec.delta < 1.0:
        raise SpecError(f"delta must lie in (0, 1), got {spec.delta}")
    if spec.seed < 0:
        raise SpecError(f"seed must be an integer >= 0, got {spec.seed}")
    try:
        utility = parse_utility(spec.utility)
        schedule = Schedule.from_spec(spec.schedule)
        stop = parse_stop(spec.stop, spec.procedure)
        oracle, make = build_oracle(spec.oracle, spec.seed)
        if spec.procedure != "coup" and make is not None:
            raise SpecError(
                "a parametric configuration space needs phased sampling; "
                "only the coup procedure can search it"
            )
        if spec.procedure == "naive":
            naive_plan(oracle.n_configs, utility, stop.epsilon, spec.delta)
        if spec.procedure == "sh":
            halving_plan(oracle.n_configs, int(stop.seconds), spec.sh_eta, spec.sh_kappa)
        if spec.procedure == "coup":
            # every schedule term e^-p^k/D decreases in p, so the last phase
            # known in advance (N of phases:N, 1 of a budget) has the largest
            # pool and the first value outside (0, 1); parse_stop caps N, so
            # p^3 stays far inside a float
            last = stop.phases if isinstance(stop, MaxPhases) else 1
            gamma = schedule.at(last)[1]
            size = phase_size(last, gamma, spec.delta)
            if size > MAX_POOL_CONFIGS:
                raise SpecError(
                    f"phase {last} needs a pool of {size} configurations, more than the "
                    f"{MAX_POOL_CONFIGS} a run may hold; lower the phase count or raise gamma_p"
                )
            if spec.without_replacement and make is None and size > oracle.n_configs:
                raise SpecError(str(SamplerExhaustedError(size, oracle.n_configs)))
    except ValueError as err:
        raise SpecError(str(err)) from None
    return utility, stop, schedule, oracle, make


def execute(spec: ExperimentSpec):
    """Run the procedure of a spec in memory; returns the engine result."""
    utility, stop, schedule, oracle, make = parse_spec(spec)
    if spec.procedure == "oup":
        return OupRun(oracle, utility, spec.delta, doubling=spec.doubling).run_until(stop)
    if spec.procedure == "up":
        return UpRun(oracle, utility, spec.delta, doubling=spec.doubling).run_until(stop)
    if spec.procedure == "naive":
        return naive_run(oracle, utility, stop.epsilon, spec.delta)
    if spec.procedure == "sh":
        budget = int(stop.seconds)
        return successive_halving(oracle, utility, budget, spec.sh_eta, spec.sh_kappa)
    if make is not None:
        sampler = ParametricSampler(oracle, spec.seed, make)
    else:
        sampler = FinitePoolSampler(oracle, spec.seed, replace=not spec.without_replacement)
    run = CoupRun(sampler, oracle, utility, spec.delta, schedule, doubling=spec.doubling)
    try:
        result = run.run_phases(stop)
    except SamplerExhaustedError as err:
        # a budget run that outgrew a population without replacement after
        # phase 1: how many phases a budget buys is known only once it is spent
        raise SpecError(str(err)) from None
    result.extra["sampler"] = sampler
    return result


def _summary_row(spec: ExperimentSpec, result) -> tuple:
    return (
        spec.procedure,
        spec.oracle,
        spec.utility,
        spec.delta,
        spec.doubling,
        spec.schedule if spec.procedure == "coup" else "",
        spec.stop,
        spec.seed,
        -1 if result.incumbent is None else result.incumbent,
        result.incumbent_name,
        result.epsilon,
        result.ledger.total_seconds,
        result.ledger.run_count,
        len(result.trace),
        result.stop_reason,
    )


def run_experiment(spec: ExperimentSpec, outdir: str | Path) -> dict:
    """Execute a spec and write trace.csv, summary.csv (and certificates.csv).

    The directory is created only once the run has ended.  On instance
    exhaustion the partial trace and summary (and a coup run's certificates
    of the phases it finished) are still written, then the error
    propagates, without its partial result, so callers can surface the
    diagnostic.
    """
    exhausted = None
    try:
        result = execute(spec)
    except InstanceExhaustedError as err:
        if err.partial is None:
            raise
        # the files below are all that is kept of the partial run
        exhausted, result, err.partial = err, err.partial, None
    # only now, so that a refused spec leaves no directory behind
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        outdir / "trace.csv",
        ("procedure",) + TraceRow._fields,
        trace_csv_lines(result.procedure, result.trace),
    )
    row = _summary_row(spec, result)
    _write_csv(outdir / "summary.csv", SUMMARY_COLUMNS, _quoted_lines([row]))
    if spec.procedure == "coup":
        rows = [
            (
                c.phase,
                c.epsilon,
                c.gamma,
                c.n,
                c.incumbent_name,
                c.incumbent_lcb,
                c.ledger_seconds,
            )
            for c in result.certificates
        ]
        _write_csv(outdir / "certificates.csv", CERTIFICATE_COLUMNS, _quoted_lines(rows))
    if exhausted is not None:
        raise exhausted
    summary = dict(zip(SUMMARY_COLUMNS, row))
    summary["outdir"] = str(outdir)
    return summary


# ---------------------------------------------------------------------------
# Post-processing
# ---------------------------------------------------------------------------


def epsilon_vs_time_curve(runs: list[tuple[dict, list[TraceRow]]]) -> list[tuple]:
    """Align (simulated seconds, running-minimum guarantee) across procedures.

    All runs must share the oracle, utility and seed; the output is one
    passthrough row per trace round, long-form, ordered by procedure then
    round.
    """
    if not runs:
        return []
    key = None
    for summary, _ in runs:
        this = (summary["oracle"], summary["utility"], summary["seed"])
        if key is None:
            key = this
        elif this != key:
            raise SpecError(
                f"runs are not comparable: {this} differs from {key}; "
                f"curves require a shared oracle, utility and seed"
            )
    rows = []
    for summary, trace in runs:
        last = math.inf
        for row in trace:
            if row.eps_min > last + _TOL:
                raise SpecError(
                    f"the {summary['procedure']} run's eps_min rises at round {row.round}; "
                    f"curve takes runs whose eps_min never rises (coup's is in certificates.csv)"
                )
            last = row.eps_min
            rows.append((summary["procedure"], row.ledger_seconds, row.eps_min))
    return rows


# ---------------------------------------------------------------------------
# Monte Carlo guarantee validation
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    procedure: str
    trials: int
    failures: int
    failure_rate: float
    bound: float
    per_phase_rates: dict[int, float]
    details: list


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _trial(spec: ExperimentSpec):
    """The evidence of one validation trial, a pure function of its spec.

    ``(incumbent_config, epsilon)`` for a finite pool.  For ``coup``, one
    ``(phase, truth, threshold, violated)`` per certificate: the truths are
    computed where the run is, so a worker returns plain numbers, never a
    sampler or a trace.
    """
    result = execute(spec)
    if spec.procedure != "coup":
        return result.incumbent_config, result.epsilon
    utility = parse_utility(spec.utility)
    sampler = result.extra["sampler"]
    arm_configs = result.extra["arm_configs"]
    evidence = []
    for cert in result.certificates:
        threshold = sampler.optimum_quantile(utility, cert.gamma) - cert.epsilon
        # certificates name arms by pool position; map back to the oracle
        truth = sampler.oracle.true_utility(arm_configs[cert.incumbent], utility)
        evidence.append((cert.phase, truth, threshold, truth < threshold - _TOL))
    return evidence


def map_in_workers(fn, items: list) -> Iterator:
    """``fn`` of each item, in the order of ``items``.

    The calls run in one forked worker process per usable CPU, but in no
    more workers than items.  With one worker, or off Linux, they run in
    this process, because ``fork`` is unsafe on macOS and missing on
    Windows.  A call that raises raises when its result is reached, so the
    first failure in item order is the one raised, as in a serial run.
    ``validate`` trials and ``sweep`` cells both run through here.
    """
    jobs = min(usable_cpus(), len(items))
    if jobs <= 1 or not sys.platform.startswith("linux"):
        yield from map(fn, items)
        return
    # imported only here: they take about 40 ms, and a serial run needs neither
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, so the workers inherit the loaded modules and the cached ground
    # truth.  The only other threads are OpenBLAS's, which registers fork
    # handlers, and neither a trial nor a sweep cell makes a BLAS call.
    pool = ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("fork"))
    try:
        yield from pool.map(fn, items, chunksize=max(1, len(items) // (4 * jobs)))
    finally:
        pool.shutdown(cancel_futures=True)


def validate_guarantee(
    template: ExperimentSpec, trials: int, base_seed: int = 0
) -> ValidationReport:
    """Replay a spec across seeded trials and measure certificate violations.

    Needs analytic ground truth, so the oracle must be synthetic.  A coup
    trial is checked phase by phase against the sampled space's quantile; any
    other trial checks its incumbent's true gap against the certified eps.
    The empirical failure rate is compared against delta plus three binomial
    standard errors.

    Trials run in one worker process per usable CPU, but no more workers
    than trials.  Their results are reduced in seed order, so the report
    does not depend on the number of workers.
    """
    if trials < 1:
        raise SpecError(f"trials must be positive, got {trials}")
    if not template.oracle.startswith("synthetic:"):
        raise SpecError("guarantee validation needs a synthetic oracle with ground truth")
    utility, _, _, oracle, make = parse_spec(template)
    if template.procedure == "sh":
        raise SpecError("sh certifies no guarantee, so there is nothing to validate")
    if make is None:
        # a finite synthetic pool's true utilities do not depend on the seed;
        # they are computed once, before any worker starts, and the workers
        # inherit them in the cache of true_capped_utility
        true_utilities = oracle.true_utilities(utility)
        best = max(true_utilities)
    failures = 0
    details = []
    phase_failures: dict[int, int] = {}
    phase_counts: dict[int, int] = {}
    specs = [replace(template, seed=base_seed + k) for k in range(trials)]
    results = map_in_workers(_trial, specs)
    for seed, evidence in enumerate(results, start=base_seed):
        if template.procedure == "coup":
            violated = False
            for phase, truth, threshold, bad in evidence:
                phase_counts[phase] = phase_counts.get(phase, 0) + 1
                if bad:
                    phase_failures[phase] = phase_failures.get(phase, 0) + 1
                    violated = True
                details.append((seed, phase, truth, threshold, bad))
            failures += int(violated)
        else:
            config, epsilon = evidence
            gap = best - true_utilities[config]
            bad = gap > epsilon + _TOL
            failures += int(bad)
            details.append((seed, gap, epsilon, bad))
    rate = failures / trials
    bound = template.delta + 3.0 * math.sqrt(template.delta * (1.0 - template.delta) / trials)
    per_phase = {
        p: phase_failures.get(p, 0) / phase_counts[p] for p in sorted(phase_counts)
    }
    return ValidationReport(
        procedure=template.procedure,
        trials=trials,
        failures=failures,
        failure_rate=rate,
        bound=bound,
        per_phase_rates=per_phase,
        details=details,
    )

"""Experiment orchestration: specs, runs, trace files, curves, validators.

Everything here is simulation-only: time is the sum of observed capped
durations, never the wall clock, so a spec plus a seed fully determines
every output byte.  All outputs are CSV with ``repr`` float formatting.
"""

from __future__ import annotations

import csv
import functools
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
    finite_population_quantile,
    phase_size,
)
from .oracles import (
    Exponential,
    InstanceExhaustedError,
    LogNormal,
    SyntheticOracle,
    TwoPoint,
    load_runtime_matrix,
    scipy_ndtri,
    true_capped_utility,
)
from .oup import OupRun
from .records import NO_TRACE, StopRule, TraceRow, format_value, spec_items
from .utility import parse_utility

OUTPUT_DIR_ENV = "UTILCAP_OUT"

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


# A stop rule's parser takes the text after the rule's colon, and is called
# with no argument when the text has none.  It returns None for a value
# outside the rule's form, which ``parse_stop`` refuses with the usage text.


def _budget(value: str = "") -> StopRule:
    # nan or inf would never be reached and a negative budget spends nothing
    seconds = float(value)
    if not 0.0 <= seconds < math.inf:
        raise SpecError(f"budget must be a finite number >= 0, got {value.strip()!r}")
    return StopRule(seconds=seconds, stop_reason="budget_exhausted")


def _runs(value: str = "") -> StopRule | None:
    # sh plans whole runs, so a fraction of one would be dropped unsaid
    rule = _budget(value)
    return rule if rule.seconds.is_integer() else None


def _epsilon(value: str = "") -> StopRule:
    # eps stays above 0 and is never <= nan, so such a target is never reached
    epsilon = float(value)
    if not 0.0 < epsilon < math.inf:
        raise SpecError(f"target epsilon must be a finite number > 0, got {value.strip()!r}")
    return StopRule(epsilon=epsilon, stop_reason="target_epsilon")


def _single_survivor(value: str | None = None) -> StopRule | None:
    # the rule takes no value, not even an empty one
    return StopRule(survivors=1, stop_reason="single_survivor") if value is None else None


def _count(name: str, value: str) -> StopRule | None:
    # every round makes at least one run and every phase writes a certificate
    # row, so a count past the cap on planned runs would never finish either
    count = int(value)
    if count < 1:
        return None
    if count > MAX_PLANNED_RUNS:
        raise SpecError(
            f"{name}:N asks for {count} {name}, more than the {MAX_PLANNED_RUNS} "
            f"a run can finish; lower the {name[:-1]} count"
        )
    return StopRule(**{name: count}, stop_reason=f"max_{name}")


def _rounds(value: str = "") -> StopRule | None:
    return _count("rounds", value)


def _phases(value: str = "") -> StopRule | None:
    return _count("phases", value)


_POOL_STOPS = (
    "epsilon:X, budget:SECONDS, single_survivor or rounds:N (N >= 1)",
    {"epsilon": _epsilon, "budget": _budget, "single_survivor": _single_survivor,
     "rounds": _rounds},
)

# each procedure's usage text and its stop rules, by name
STOP_RULES = {
    "oup": _POOL_STOPS,
    "coup": ("phases:N (N >= 1) or budget:SECONDS", {"phases": _phases, "budget": _budget}),
    "up": _POOL_STOPS,
    "naive": ("epsilon:X", {"epsilon": _epsilon}),
    "sh": ("budget:RUNS", {"budget": _runs}),
}

PROCEDURES = tuple(STOP_RULES)


def parse_stop(text: str, procedure: str) -> StopRule:
    """The stop rule of ``--stop`` for a procedure: one limit, and its reason."""
    if procedure not in STOP_RULES:
        raise SpecError(f"unknown procedure {procedure!r}; expected one of {PROCEDURES}")
    usage, rules = STOP_RULES[procedure]
    name, colon, value = text.partition(":")
    parse = rules.get(name.strip())
    try:
        rule = parse and (parse(value) if colon else parse())
    except ValueError as err:
        if isinstance(err, SpecError):
            raise
        raise SpecError(f"bad stop rule value in {text!r}: {err}") from None
    if rule is None:
        raise SpecError(f"stop rule for {procedure} must be {usage}, got {text!r}")
    return rule


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
    ``--seed`` decides.  Blank lines and ``#`` lines are skipped; the others
    go through ``records.spec_items``, which refuses a line without ``=``,
    any other key and a key given twice.
    """
    path = Path(path)
    try:
        lines = enumerate(map(str.strip, path.read_text(encoding="utf-8").splitlines()), 1)
        fields = spec_items(
            ((f"{path}:{n}", line) for n, line in lines if line and not line.startswith("#")),
            _POOL_KEYS, "key",
        )
    except OSError as err:
        raise SpecError(f"cannot read synthetic pool file {path}: {err}") from None
    except ValueError as err:
        raise SpecError(str(err)) from None
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
    """The lines of ``trace.csv``: the text that ``csv.writer`` and
    ``format_value`` would give.

    Trace cells are numbers, booleans and a name from ``PROCEDURES``, so
    none ever needs quoting.  Any other name raises here, before a file is
    opened, so a name that could need quoting never reaches a file.
    """
    if procedure not in PROCEDURES:
        raise ValueError(
            f"unknown procedure {procedure!r} in a trace; expected one of {PROCEDURES}"
        )
    return _trace_lines(procedure, trace)


def _trace_lines(procedure: str, trace: Iterable[tuple]) -> Iterator[str]:
    # float repr is most of a row's cost.  A row's eps_raw is often the very
    # object of the previous row's (naive's 1.0 on every row but the last),
    # and its eps_min almost always that of its eps_raw or of the previous
    # row's eps_min, so their text is reused then.  Identity, not ==: 0.0 and
    # -0.0 are == yet print differently, and a NaN is == to nothing, itself
    # included.
    last_raw, raw_text = object(), ""
    last_min, min_text = object(), ""
    for round_, seconds, selected, doubled, eps_raw, eps_min, survivors, incumbent in trace:
        if eps_raw is not last_raw:
            last_raw = eps_raw
            raw_text = repr(eps_raw)
        if eps_min is not last_min:
            last_min = eps_min
            min_text = raw_text if eps_min is eps_raw else repr(eps_min)
        yield (
            f"{procedure},{round_},{seconds!r},{selected},{'true' if doubled else 'false'},"
            f"{raw_text},{min_text},{survivors},{incumbent}\n"
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


# the most configurations a run may hold.  A configuration costs nothing
# until its first pull; the cap stays until the trace's memory is bounded
# (ROADMAP item 13)
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
        # a lognormal pool draws through scipy's ndtri: it is imported here,
        # before validate or sweep forks the workers that inherit it
        dists = oracle.dists if isinstance(oracle, SyntheticOracle) else ()
        if any(isinstance(d, LogNormal) for d in dists):
            scipy_ndtri()
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
            last = 1 if stop.phases == math.inf else stop.phases
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


def execute(spec: ExperimentSpec, parsed: tuple | None = None, trace=None):
    """Run the procedure of a spec in memory; returns the engine result.

    ``parsed`` is what ``parse_spec`` gives for the spec, which is parsed
    here when it is omitted.  The run appends its trace rows to ``trace``,
    a new list when it is omitted."""
    utility, stop, schedule, oracle, make = parsed or parse_spec(spec)
    engine = {"oup": OupRun, "up": UpRun}.get(spec.procedure)
    if engine is not None:
        run = engine(oracle, utility, spec.delta, doubling=spec.doubling, trace=trace)
        return run.run_until(stop)
    if spec.procedure == "naive":
        return naive_run(oracle, utility, stop.epsilon, spec.delta, trace)
    if spec.procedure == "sh":
        budget = int(stop.seconds)
        return successive_halving(oracle, utility, budget, spec.sh_eta, spec.sh_kappa, trace)
    if make is not None:
        sampler = ParametricSampler(oracle, spec.seed, make)
    else:
        sampler = FinitePoolSampler(oracle, spec.seed, replace=not spec.without_replacement)
    run = CoupRun(
        sampler, oracle, utility, spec.delta, schedule, doubling=spec.doubling, trace=trace
    )
    try:
        return run.run_phases(stop)
    except SamplerExhaustedError as err:
        # a budget run that outgrew a population without replacement after
        # phase 1: how many phases a budget buys is known only once it is spent
        raise SpecError(str(err)) from None


def _summary_row(spec: ExperimentSpec, result) -> tuple:
    return (
        spec.procedure,
        spec.oracle,
        spec.utility,
        spec.delta,
        spec.doubling,
        "" if result.certificates is None else spec.schedule,
        spec.stop,
        spec.seed,
        -1 if result.incumbent is None else result.incumbent,
        result.incumbent_name,
        result.epsilon,
        result.ledger.total_seconds,
        result.ledger.run_count,
        result.rounds,
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
    if result.certificates is not None:
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


def _trial(template: ExperimentSpec, parsed: tuple, seed: int, truths: tuple | None = None):
    """The evidence of one validation trial, a pure function of its seed.

    The trial runs ``template`` at ``seed``.  ``parsed`` is what
    ``parse_spec`` gave for the template, so only the seed's oracle is
    built here, over the parsed pool, and the run keeps no trace rows
    (``NO_TRACE``).  Returns the trial's rows, each ending in whether it is
    violated.  ``truths`` is a finite pool's best true utility and the list of its
    true utilities.  A run that certifies no phases gives one ``(gap,
    epsilon, violated)``, its incumbent's true gap read off ``truths``.  A
    ``coup`` run gives one ``(phase, truth, threshold, violated)`` per
    certificate: the truth of its incumbent, read from the trial's oracle,
    against the (1 - gamma)-quantile of the space, less eps.  A finite
    pool's quantile is read off ``truths``; a parametric space's is the
    utility of ``make(gamma)``, since its utility falls as theta grows.  So
    a worker returns plain numbers, never a run or a trace.
    """
    utility, stop, schedule, oracle, make = parsed
    spec = replace(template, seed=seed)
    oracle = oracle.reseeded(seed)
    result = execute(spec, (utility, stop, schedule, oracle, make), NO_TRACE)
    if result.certificates is None:
        best, true_utilities = truths
        gap = best - true_utilities[result.incumbent_config]
        return [(gap, result.epsilon, gap > result.epsilon + _TOL)]
    evidence = []
    for cert in result.certificates:
        if make is None:
            quantile = finite_population_quantile(truths[1], cert.gamma)
        else:
            quantile = true_capped_utility(make(cert.gamma), utility, math.inf)
        threshold = quantile - cert.epsilon
        truth = oracle.true_utility(cert.incumbent_config, utility)
        evidence.append((cert.phase, truth, threshold, truth < threshold - _TOL))
    return evidence


# the function and items of the map in progress: forked workers inherit
# them, so only an item's index and its result cross a process
_work: tuple | None = None


def _call_at(k: int):
    fn, items = _work
    return fn(items[k])


def map_in_workers(fn, items) -> Iterator:
    """``fn`` of each item, in the order of ``items``, a sequence.

    The calls run in one forked worker process per usable CPU, but in no
    more workers than items.  With one worker, or off Linux, they run in
    this process, because ``fork`` is unsafe on macOS and missing on
    Windows.  A worker inherits ``fn`` and ``items`` from this process and
    is sent only item indices, so neither needs to pickle: a validation
    trial's ``fn`` holds the parsed template, lambdas included.  Only the
    results are pickled.  A serial run calls the same ``_call_at`` as a
    worker.  A call that raises raises when its result is reached, so the
    first failure in item order is the one raised, as in a serial run.
    ``validate`` trials and ``sweep`` cells both run through here.
    """
    global _work
    jobs = min(usable_cpus(), len(items))
    _work = (fn, items)
    try:
        if jobs <= 1 or not sys.platform.startswith("linux"):
            yield from map(_call_at, range(len(items)))
            return
        # imported only here: they take about 40 ms, and a serial run needs neither
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, so the workers inherit the loaded modules, the cached ground
        # truth and ``_work``; a fork pool starts its workers at the first
        # submit, after ``_work`` is set.  The only other threads are
        # OpenBLAS's, which registers fork handlers, and neither a trial nor
        # a sweep cell makes a BLAS call.
        pool = ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("fork"))
        try:
            chunksize = max(1, len(items) // (4 * jobs))
            yield from pool.map(_call_at, range(len(items)), chunksize=chunksize)
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        _work = None


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
    # every trial is a run
    if trials > MAX_PLANNED_RUNS:
        raise SpecError(
            f"validation asks for {trials} trials, more than the {MAX_PLANNED_RUNS} "
            f"it can finish; lower the trial count"
        )
    if not template.oracle.startswith("synthetic:"):
        raise SpecError("guarantee validation needs a synthetic oracle with ground truth")
    # the template is parsed once; each trial builds only its seed's oracle
    parsed = parse_spec(template)
    utility, _, _, oracle, make = parsed
    if template.procedure == "sh":
        raise SpecError("sh certifies no guarantee, so there is nothing to validate")
    truths = None
    if make is None:
        # a finite synthetic pool's true utilities do not depend on the seed;
        # they are computed once, before any worker starts, and the workers
        # inherit them: as the trials' truths and coup's quantiles, and in
        # the cache of true_capped_utility for a coup incumbent's truth
        true_utilities = oracle.true_utilities(utility)
        truths = (max(true_utilities), true_utilities)
    failures = 0
    details = []
    phases: dict[int, list[bool]] = {}
    seeds = range(base_seed, base_seed + trials)
    results = map_in_workers(functools.partial(_trial, template, parsed, truths=truths), seeds)
    for seed, rows in zip(seeds, results):
        failures += any(row[-1] for row in rows)
        for row in rows:
            details.append((seed, *row))
            if template.procedure == "coup":
                phases.setdefault(row[0], []).append(row[-1])
    rate = failures / trials
    bound = template.delta + 3.0 * math.sqrt(template.delta * (1.0 - template.delta) / trials)
    per_phase = {p: sum(bad) / len(bad) for p, bad in sorted(phases.items())}
    return ValidationReport(
        procedure=template.procedure,
        trials=trials,
        failures=failures,
        failure_rate=rate,
        bound=bound,
        per_phase_rates=per_phase,
        details=details,
    )

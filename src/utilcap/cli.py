"""Command-line entry points.

Verbs:
  run       execute one experiment spec, writing trace and summary CSVs
  sweep     run a grid of (procedure, seed) cells under one base spec
  validate  Monte Carlo check of the certificate across seeded trials
  curve     merge run directories into a guarantee-versus-time table

Exit codes: 0 success, 2 bad spec, 3 instance exhaustion, 4 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import fields
from pathlib import Path

from .baselines import MAX_PLANNED_RUNS
from .harness import (
    ExperimentSpec,
    GuaranteeViolation,
    InstanceExhaustedError,
    SpecError,
    _quoted_lines,
    _write_csv,
    epsilon_vs_time_curve,
    map_in_workers,
    output_directory,
    parse_spec,
    run_experiment,
    validate_guarantee,
)
from .records import TraceRow

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_EXHAUSTED = 3
EXIT_VALIDATION = 4

CURVE_COLUMNS = ("procedure", "ledger_seconds", "eps_min")


def _add_spec_arguments(parser: argparse.ArgumentParser, require_stop: bool = True) -> None:
    parser.add_argument("--procedure", required=True, help="oup, coup, up, naive or sh")
    parser.add_argument("--oracle", required=True, help="matrix:PATH or synthetic:PATH")
    parser.add_argument(
        "--utility",
        default="loglaplace:kappa0=60,a=1",
        help="utility spec, e.g. loglaplace:kappa0=60,a=1 or uniform:kappa0=60",
    )
    parser.add_argument("--stop", required=require_stop, help="stop rule, e.g. epsilon:0.2")
    # no defaults below: ExperimentSpec declares them
    parser.add_argument("--delta", type=float, help="failure probability")
    parser.add_argument("--doubling", help="captime doubling rule: old or new")
    parser.add_argument("--schedule", help="phase schedule (coup)")
    parser.add_argument(
        "--without-replacement",
        action="store_true",
        help="sample dataset configurations without replacement (coup)",
    )
    parser.add_argument("--sh-eta", type=int, help="elimination factor (sh)")
    parser.add_argument("--sh-kappa", type=float, help="fixed captime (sh)")


def _spec_from_args(args, procedure: str, seed: int) -> ExperimentSpec:
    # every other field is the option of its name; an option not given
    # (None) takes the field's default
    given = {f.name: getattr(args, f.name, None) for f in fields(ExperimentSpec)}
    given.update(procedure=procedure, seed=seed)
    return ExperimentSpec(**{name: value for name, value in given.items() if value is not None})


def _parse_seeds(text: str) -> range | list[int]:
    """The seeds ``LO:HI`` as a range, or ``A,B,...`` as a list."""
    lo, sep, hi = text.partition(":")
    try:
        seeds = range(int(lo), int(hi)) if sep else [int(s) for s in text.split(",")]
    except ValueError:
        seeds = []
    if not seeds:
        raise SpecError(f"seeds must name at least one seed, as in 0:50 or 0,3,7; got {text!r}")
    # every seed is a sweep cell, which makes at least one run; a range is
    # counted from its ends, as len() of a range overflows past 2^63
    count = seeds.stop - seeds.start if sep else len(seeds)
    if count > MAX_PLANNED_RUNS:
        raise SpecError(
            f"seeds {text!r} name {count} seeds, more than the {MAX_PLANNED_RUNS} "
            f"a sweep can finish; name fewer seeds"
        )
    lowest = seeds.start if sep else min(seeds)
    if lowest < 0:
        raise SpecError(f"seeds must be integers >= 0, got {lowest} in {text!r}")
    if not sep:
        # two cells of one seed would write the same directory at once
        _refuse_repeats("seed", seeds, text)
    return seeds


def _refuse_repeats(name: str, items, text: str) -> None:
    """Raise ``SpecError`` naming the first of ``items`` (parsed from
    ``text``) that repeats an earlier one."""
    seen = set()
    for item in items:
        if item in seen:
            raise SpecError(f"{name} {item!r} is named more than once in {text!r}")
        seen.add(item)


# one parser per TraceRow field; a trace line is the procedure, then the fields
_TRACE_PARSERS = (int, float, int, "true".__eq__, float, float, int, int)


def _read_run_dir(path: Path) -> tuple[dict, list[TraceRow]]:
    summary_path = path / "summary.csv"
    trace_path = path / "trace.csv"
    if not summary_path.exists() or not trace_path.exists():
        raise SpecError(f"{path} does not contain summary.csv and trace.csv")
    with summary_path.open("r", encoding="utf-8", newline="") as handle:
        lines = list(csv.reader(handle))
    if len(lines) != 2:
        raise SpecError(f"{summary_path}: expected a header and one row, got {len(lines)} lines")
    summary = dict(zip(*lines))
    missing = {"procedure", "oracle", "utility", "seed"} - summary.keys()
    if missing:
        raise SpecError(f"{summary_path}: missing columns {sorted(missing)}")
    try:
        summary["seed"] = int(summary["seed"])
    except ValueError as err:
        raise SpecError(f"{summary_path}: seed: {err}") from None
    with trace_path.open("r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    width = 1 + len(_TRACE_PARSERS)
    trace = []
    for lineno, fields in enumerate(rows[1:], start=2):
        try:
            if len(fields) != width:
                raise ValueError(f"expected {width} fields, got {len(fields)}")
            trace.append(TraceRow(*(parse(v) for parse, v in zip(_TRACE_PARSERS, fields[1:]))))
        except ValueError as err:
            raise SpecError(f"{trace_path}:{lineno}: {err}") from None
    return summary, trace


def cmd_run(args) -> int:
    spec = _spec_from_args(args, args.procedure, args.seed)
    summary = run_experiment(spec, output_directory(args.out))
    print(
        f"{spec.procedure} seed={spec.seed}: incumbent={summary['incumbent_name']} "
        f"eps={summary['final_epsilon']} total_seconds={summary['total_seconds']} "
        f"-> {summary['outdir']}"
    )
    return EXIT_OK


def _sweep_cell(cell: tuple[ExperimentSpec, Path]):
    """One sweep cell: run its spec into its directory.  Returns the two
    numbers its stdout line prints, or the spec or exhaustion error it
    raised (an exhausted cell has written its partial files), so that the
    other cells still run."""
    spec, outdir = cell
    try:
        summary = run_experiment(spec, outdir)
    except (SpecError, InstanceExhaustedError) as err:
        return err
    return summary["final_epsilon"], summary["total_seconds"]


def cmd_sweep(args) -> int:
    procedures = args.procedure.split(",")
    _refuse_repeats("procedure", procedures, args.procedure)
    seeds = _parse_seeds(args.seeds)
    # a spec depends on its seed only through the sign, checked above, and a
    # matrix's column order, which cannot fail: one parse per procedure
    # refuses a bad spec before any cell runs
    for procedure in procedures:
        parse_spec(_spec_from_args(args, procedure, seeds[0]))
    base = output_directory(args.out)
    cells = [
        (_spec_from_args(args, procedure, seed), base / f"{procedure}_seed{seed}")
        for procedure in procedures
        for seed in seeds
    ]
    # naive cells start first: naive runs its whole fixed plan, and in an
    # oup,up,naive sweep it is the longest cell, which should not wait for a
    # free worker.  A line is printed once every cell before it in cell
    # order has its result; the results are keyed by the directory no two
    # cells share.  A spec or exhaustion failure comes back as a value, so
    # it does not stop the other cells, and the first such failure in cell
    # order is raised once all have run.  Any other error propagates when
    # its result is reached in start order, and stops the sweep there
    started = sorted(cells, key=lambda cell: cell[0].procedure != "naive")
    results = {}
    printed = 0
    failed = None
    for (_, done), result in zip(started, map_in_workers(_sweep_cell, started)):
        results[done] = result
        while printed < len(cells) and cells[printed][1] in results:
            spec, outdir = cells[printed]
            printed += 1
            result = results.pop(outdir)
            if isinstance(result, Exception):
                failed = result if failed is None else failed
                continue
            epsilon, seconds = result
            print(f"{spec.procedure} seed={spec.seed}: eps={epsilon} total_seconds={seconds}")
    if failed is not None:
        raise failed
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.max_failure_rate is not None and not math.isfinite(args.max_failure_rate):
        raise SpecError(f"max failure rate must be finite, got {args.max_failure_rate}")
    spec = _spec_from_args(args, args.procedure, args.base_seed)
    report = validate_guarantee(spec, args.trials, base_seed=args.base_seed)
    bound = args.max_failure_rate if args.max_failure_rate is not None else report.bound
    print(
        f"{report.procedure}: {report.failures}/{report.trials} violations "
        f"(rate={report.failure_rate:.4f}, bound={bound:.4f})"
    )
    for phase, rate in report.per_phase_rates.items():
        print(f"  phase {phase}: violation rate {rate:.4f}")
    if report.failure_rate > bound:
        raise GuaranteeViolation(
            f"failure rate {report.failure_rate:.4f} exceeds bound {bound:.4f}"
        )
    return EXIT_OK


def _output_file(requested: str) -> Path:
    """Check an output file before any work, as ``output_directory`` checks
    a directory: its directory must exist, and it must not be a directory
    itself.  Raises ``SpecError``."""
    path = Path(requested)
    parent = path.parent
    if not parent.is_dir():
        problem = "is not a directory" if parent.exists() else "does not exist"
        raise SpecError(f"output file {requested!r}: {str(parent)!r} {problem}")
    if path.is_dir():
        raise SpecError(f"output file {requested!r} is a directory")
    return path


def cmd_curve(args) -> int:
    out = _output_file(args.out) if args.out else None
    runs = [_read_run_dir(Path(p)) for p in args.runs]
    rows = epsilon_vs_time_curve(runs)
    if out is not None:
        _write_csv(out, CURVE_COLUMNS, _quoted_lines(rows))
        print(f"wrote {len(rows)} curve points to {args.out}")
    else:
        sys.stdout.write(",".join(CURVE_COLUMNS) + "\n")
        sys.stdout.writelines(_quoted_lines(rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="utilcap",
        description="Utility-driven algorithm configuration on simulated capped runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_spec_arguments(p_run)
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a (procedure, seed) grid")
    _add_spec_arguments(p_sweep)
    p_sweep.add_argument("--seeds", required=True, help="e.g. 0:50 or 0,3,7")
    p_sweep.add_argument("--out", required=True, help="base output directory")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="Monte Carlo guarantee validation")
    _add_spec_arguments(p_val)
    p_val.add_argument("--trials", type=int, required=True)
    p_val.add_argument("--base-seed", type=int, default=0)
    p_val.add_argument(
        "--max-failure-rate",
        type=float,
        default=None,
        help="override the delta-plus-margin failure bound (operational use)",
    )
    p_val.set_defaults(func=cmd_validate)

    p_curve = sub.add_parser("curve", help="merge run directories into a curve table")
    p_curve.add_argument("--runs", nargs="+", required=True, help="run directories")
    p_curve.add_argument("--out", default=None, help="output CSV (default stdout)")
    p_curve.set_defaults(func=cmd_curve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as err:
        print(f"spec error: {err}", file=sys.stderr)
        return EXIT_SPEC
    except InstanceExhaustedError as err:
        eps = err.achieved_epsilon
        achieved = f"; achieved eps={eps!r}" if eps is not None else ""
        print(f"instance exhaustion: {err}{achieved}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except GuaranteeViolation as err:
        print(f"validation failure: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

"""Fresh-interpreter probes, started by run.py.

    python3 child.py setup SRC PROCEDURE SEED -- CLI-ARGS...
        Imports utilcap.cli, parses the command line, the utility and the
        stop rule, reads the pool file and builds the oracle with
        ``harness.build_oracle``, then prints ``time.monotonic()``.  The
        parent subtracts its own monotonic clock from just before the launch.

    python3 child.py once SRC -- CLI-ARGS...
        Runs the command once through ``utilcap.cli.main`` and prints, as the
        last line, JSON with the exit code, the process's peak resident
        memory and, for ``validate``, the report's per-trial details.
"""

import sys
import time


def capture_reports(cli) -> list:
    """Keep every ValidationReport that ``cli`` computes; the CLI prints only
    a summary of it."""
    reports = []
    validate = getattr(cli, "validate_guarantee", None)
    if validate is not None:
        def capture(*args, **kwargs):
            report = validate(*args, **kwargs)
            reports.append(report)
            return report

        cli.validate_guarantee = capture
    return reports


def setup(src: str, procedure: str, seed: int, argv: list[str]) -> None:
    sys.path.insert(0, src)
    from utilcap import cli, harness

    args = cli.build_parser().parse_args(argv)
    harness.parse_utility(args.utility)
    harness.parse_stop(args.stop, procedure)
    harness.build_oracle(args.oracle, seed)
    print(time.monotonic())


def once(src: str, argv: list[str]) -> None:
    import contextlib
    import io
    import json
    import resource

    sys.path.insert(0, src)
    from utilcap import cli

    reports = capture_reports(cli)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    details = [list(entry) for entry in reports[-1].details] if reports else None
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"exit": code, "maxrss_kb": peak_kb, "details": details}, default=float))


if __name__ == "__main__":
    mode, src = sys.argv[1], sys.argv[2]
    split = sys.argv.index("--")
    if mode == "setup":
        setup(src, sys.argv[3], int(sys.argv[4]), sys.argv[split + 1:])
    else:
        once(src, sys.argv[split + 1:])

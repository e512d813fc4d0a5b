"""Per-layer timing of one in-process command, from the benchmark's side.

The tracer replaces each layer's public functions with timing wrappers,
where they are looked up at call time: ``alpha`` inside ``arms``,
``best_by`` inside ``oup``, ``coup`` and ``baselines``, ``write_trace_csv``
inside ``harness``, and methods on their classes.  A wrapper keeps a stack
of child time, so each layer is charged its self time, and it aggregates
per layer as the command runs; a sweep or validate command makes hundreds
of thousands of layer calls, too many to keep as spans.  Only per-round
durations are kept, for the percentiles.  A target that a later version of
the program no longer has is skipped and listed, and its metrics read 0.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
import weakref
from collections import defaultdict

# (module, attribute path, layer key).  Several targets may share a key.
TARGETS = (
    ("rng", "UniformStream.value", "rng.value"),
    ("rng", "UniformStream.__init__", "rng.stream_init"),
    ("oracles", "SyntheticOracle.run", "oracles.run"),
    ("oracles", "MatrixOracle.run", "oracles.run"),
    ("oracles", "true_capped_utility", "oracles.truth"),
    ("coup", "true_capped_utility", "oracles.truth"),
    ("utility", "LogLaplaceUtility.__call__", "utility"),
    ("utility", "UniformUtility.__call__", "utility"),
    ("arms", "alpha", "bounds.alpha"),
    ("bounds", "alpha", "bounds.alpha"),
    ("arms", "ArmState.recompute_snapshot", "arms.snapshot"),
    ("oup", "pull_arm", "arms.pull"),
    ("coup", "pull_arm", "arms.pull"),
    ("baselines", "pull_arm", "arms.pull"),
    ("oup", "best_by", "arms.best_by"),
    ("coup", "best_by", "arms.best_by"),
    ("baselines", "best_by", "arms.best_by"),
    ("oup", "OupRun.step", "oup.step"),
    ("oup", "OupRun.guaranteed_epsilon", "oup.eps_scan"),
    ("coup", "CoupRun.phase_step", "coup.phase_step"),
    ("coup", "CoupRun.begin_phase", "coup.begin_phase"),
    ("coup", "CoupRun.guaranteed_epsilon", "coup.eps_scan"),
    ("coup", "ParametricSampler.sample", "coup.sample"),
    ("coup", "FinitePoolSampler.sample", "coup.sample"),
    ("baselines", "UpRun.step", "baselines.step"),
    ("baselines", "UpRun.guaranteed_epsilon", "baselines.eps_scan"),
    ("harness", "naive_run", "baselines.naive"),
    ("harness", "execute", "harness.execute"),
    ("harness", "build_oracle", "harness.spec"),
    ("harness", "parse_stop", "harness.spec"),
    ("harness", "parse_utility", "harness.spec"),
    ("harness", "write_trace_csv", "harness.csv"),
    ("harness", "_write_csv", "harness.csv"),
    ("harness", "trace_row_values", "records.trace_row"),
)

SMALL_POOL = 100
LARGE_POOL = 1000


class Tracer:
    """Self time and call counts per layer for the commands run while it is
    installed."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.stack: list[float] = []
        self.best_by_arms = 0
        self.fresh_runs = 0
        self.reruns = 0
        self.sim_s = 0.0
        self.rerun_sim_s = 0.0
        self.csv_bytes = 0
        self.rounds = 0
        self.ledger_runs = 0
        self.ledger_s = 0.0
        self.oup_rounds: list[float] = []
        self.coup_rounds: list[float] = []
        self.coup_small: list[float] = []
        self.coup_large: list[float] = []
        self._seen = weakref.WeakKeyDictionary()
        self._hooks = {
            "arms.best_by": self._on_best_by,
            "oracles.run": self._on_run,
            "harness.csv": self._on_csv,
            "harness.execute": self._on_execute,
            "oup.step": self._on_oup_step,
            "coup.phase_step": self._on_coup_step,
        }
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- hooks, called after the wrapped call with its arguments and result --

    def _on_best_by(self, args, result, elapsed):
        self.best_by_arms += len(args[1])

    def _on_run(self, args, result, elapsed):
        oracle, config, instance = args[0], args[1], args[2]
        seen = self._seen.get(oracle)
        if seen is None:
            seen = self._seen[oracle] = set()
        if (config, instance) in seen:
            self.reruns += 1
            self.rerun_sim_s += result.duration
        else:
            seen.add((config, instance))
            self.fresh_runs += 1
        self.sim_s += result.duration

    def _on_csv(self, args, result, elapsed):
        self.csv_bytes += os.path.getsize(args[0])

    def _on_execute(self, args, result, elapsed):
        self.rounds += len(result.trace)
        self.ledger_runs += result.ledger.run_count
        self.ledger_s += result.ledger.total_seconds

    def _on_oup_step(self, args, result, elapsed):
        self.oup_rounds.append(elapsed)

    def _on_coup_step(self, args, result, elapsed):
        self.coup_rounds.append(elapsed)
        pool = len(args[0].arms)
        if pool <= SMALL_POOL:
            self.coup_small.append(elapsed)
        elif pool >= LARGE_POOL:
            self.coup_large.append(elapsed)

    # -- wrapping --

    def _wrap(self, fn, key):
        clock = time.perf_counter
        stack = self.stack
        self_s = self.self_s
        calls = self.calls
        hook = self._hooks.get(key)

        def timed(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[key] += elapsed - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(args, result, elapsed)
            return result

        return timed

    def install(self) -> None:
        for module_name, path, key in TARGETS:
            owner = importlib.import_module(f"utilcap.{module_name}")
            *owners, name = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self._patched.append((owner, name, original))
            setattr(owner, name, self._wrap(original, key))

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- results --

    def metrics(self) -> dict[str, float]:
        s, n = self.self_s, self.calls
        runs = self.fresh_runs + self.reruns
        return {
            "arms.best_by_calls": n["arms.best_by"],
            "arms.best_by_arms": self.best_by_arms,
            "arms.best_by_s": s["arms.best_by"],
            "oup.eps_scan_s": s["oup.eps_scan"],
            "coup.eps_scan_s": s["coup.eps_scan"],
            "baselines.eps_scan_s": s["baselines.eps_scan"],
            "coup.phase_step_s": s["coup.phase_step"],
            "coup.begin_phase_s": s["coup.begin_phase"],
            "coup.sample_s": s["coup.sample"],
            "coup.round_p50_us": _percentile_us(self.coup_rounds, 50),
            "coup.round_p99_us": _percentile_us(self.coup_rounds, 99),
            "coup.round_us_small_pool": _percentile_us(self.coup_small, 50),
            "coup.round_us_large_pool": _percentile_us(self.coup_large, 50),
            "arms.pull_calls": n["arms.pull"],
            "arms.pull_s": s["arms.pull"],
            "arms.snapshot_s": s["arms.snapshot"],
            "bounds.alpha_calls": n["bounds.alpha"],
            "bounds.alpha_s": s["bounds.alpha"],
            "utility.calls": n["utility"],
            "utility.s": s["utility"],
            "oracles.run_calls": n["oracles.run"],
            "oracles.run_s": s["oracles.run"],
            "oracles.rerun_calls": self.reruns,
            "oracles.useful_run_share": self.fresh_runs / runs if runs else 0.0,
            "oracles.rerun_sim_share": self.rerun_sim_s / self.sim_s if self.sim_s else 0.0,
            "rng.value_calls": n["rng.value"],
            "rng.value_s": s["rng.value"],
            "rng.streams": n["rng.stream_init"],
            "rng.stream_init_s": s["rng.stream_init"],
            "oup.step_s": s["oup.step"],
            "oup.round_p50_us": _percentile_us(self.oup_rounds, 50),
            "oup.round_p99_us": _percentile_us(self.oup_rounds, 99),
            "baselines.step_s": s["baselines.step"],
            "baselines.naive_s": s["baselines.naive"],
            "oracles.truth_calls": n["oracles.truth"],
            "oracles.truth_s": s["oracles.truth"],
            "harness.execute_s": s["harness.execute"],
            "harness.spec_s": s["harness.spec"],
            "harness.csv_s": s["harness.csv"] + s["records.trace_row"],
            "harness.csv_bytes": self.csv_bytes,
            "records.trace_rows": n["records.trace_row"],
            "rounds": self.rounds,
            "runs": self.ledger_runs,
            "rerun_runs": self.reruns,
            "sim_s": self.ledger_s,
            "rerun_sim_s": self.rerun_sim_s,
        }


def _percentile_us(durations: list[float], pct: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e6
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    return cuts[pct - 1] * 1e6


# Metrics that count work: they must repeat exactly between runs of one
# command, so they are reported as they are, not as medians.
EXACT = frozenset((
    "arms.best_by_calls", "arms.best_by_arms", "arms.pull_calls", "bounds.alpha_calls",
    "utility.calls", "oracles.run_calls", "oracles.rerun_calls",
    "oracles.useful_run_share", "oracles.rerun_sim_share", "rng.value_calls",
    "rng.streams", "oracles.truth_calls", "harness.csv_bytes", "records.trace_rows",
    "rounds", "runs", "rerun_runs", "sim_s", "rerun_sim_s",
))

"""The three benchmark workloads: generated pool files and CLI commands.

A workload seed ``n`` fixes everything a run executes.  It generates the
pool file the program reads, and it derives the CLI seeds of the workload's
commands: command ``k`` uses the seed base ``n * 100000 + k * 1000``.  The
program receives only the pool file and the command line.

Each pool is a small random perturbation of one fixed shape, so the work a
command does stays close across workload seeds while its outputs, and so
its digests, change with the seed.  The median over several commands with
different CLI seeds absorbs the rest of the per-seed spread: a ``coup`` seed
now and then needs half again as many rounds as the typical one.
"""

from __future__ import annotations

import random
from pathlib import Path

UTILITY = "loglaplace:kappa0=60,a=1"

# The A5/A7 parametric space: theta ~ U[0, 1] maps to exponential runtimes
# with mean 0.1 * 10000^theta.
PARAMETRIC = (0.1, 10000.0)

# Shaped like the A8 pool: one fast arm, nine far behind with means 60-500.
A8_MEANS = (1.0, 60.0, 80.0, 100.0, 130.0, 170.0, 220.0, 300.0, 400.0, 500.0)

LOGNORMAL_CONFIGS = 32
SWEEP_SEEDS = 1
VALIDATE_TRIALS = 100
COUP_PHASES = 15

# Commands per measured cycle, sized so that one cycle takes about 15 s on a
# 2-vCPU machine, and up to twice that when the machine is busy.  An odd
# count keeps the coup median off its heavy tail of long seeds.
COMMANDS = {"coup_large_pool": 5, "sweep_small_pool": 7, "validate_trials": 3}

PROCEDURES = {
    "coup_large_pool": ("coup",),
    "sweep_small_pool": ("oup", "up", "naive"),
    "validate_trials": ("oup",),
}

EXPECTED_STOP = {
    "coup": "max_phases",
    "oup": "target_epsilon",
    "up": "target_epsilon",
    "naive": "completed",
}

TARGET_EPSILON = {"sweep_small_pool": 0.05}


def pool_text(workload: str, seed: int) -> str:
    """Contents of the pool file for a workload seed."""
    rng = random.Random(seed)
    if workload == "coup_large_pool":
        scale, growth = PARAMETRIC
        return f"family=parametric_exponential\nparams={scale!r},{growth!r}\n"
    if workload == "sweep_small_pool":
        means = [m * (1.0 + 0.02 * (rng.random() - 0.5)) for m in A8_MEANS]
        params = ";".join(repr(m) for m in means)
        return f"family=exponential\nparams={params}\nn_configs={len(means)}\n"
    if workload == "validate_trials":
        n = LOGNORMAL_CONFIGS
        entries = [""] * n
        for k in range(n):
            mu = 1.0 + 3.0 * (k + 0.5 + 0.2 * (rng.random() - 0.5)) / n
            sigma = 0.5 + 0.5 * ((7 * k) % n + rng.random()) / n
            # a fixed scatter puts the best configuration (k = 0) at position
            # 3, so a search visits worse configurations before it finds it
            entries[(13 * k + 3) % n] = f"{mu!r},{sigma!r}"
        return f"family=lognormal\nparams={';'.join(entries)}\nn_configs={n}\n"
    raise KeyError(workload)


def write_pool(workload: str, seed: int, directory: Path) -> Path:
    path = directory / f"{workload}_pool{seed}.txt"
    path.write_text(pool_text(workload, seed), encoding="utf-8")
    return path


def seed_base(seed: int, k: int) -> int:
    return seed * 100000 + k * 1000


def command(workload: str, pool: Path, seed: int, k: int, out: Path) -> list[str]:
    """CLI arguments of command ``k`` of a workload seed.  ``out`` must be a
    fresh directory; ``validate`` writes no files and ignores it."""
    base = seed_base(seed, k)
    oracle = f"synthetic:{pool}"
    if workload == "coup_large_pool":
        return [
            "run", "--procedure", "coup", "--oracle", oracle, "--utility", UTILITY,
            "--delta", "0.05", "--doubling", "new", "--schedule", "default",
            "--stop", f"phases:{COUP_PHASES}", "--seed", str(base), "--out", str(out),
        ]
    if workload == "sweep_small_pool":
        return [
            "sweep", "--procedure", ",".join(PROCEDURES[workload]), "--oracle", oracle,
            "--utility", UTILITY, "--delta", "0.01", "--doubling", "old",
            "--stop", f"epsilon:{TARGET_EPSILON[workload]}",
            "--seeds", f"{base}:{base + SWEEP_SEEDS}", "--out", str(out),
        ]
    if workload == "validate_trials":
        return [
            "validate", "--procedure", "oup", "--oracle", oracle, "--utility", UTILITY,
            "--delta", "0.1", "--doubling", "new", "--stop", "epsilon:0.2",
            "--trials", str(VALIDATE_TRIALS), "--base-seed", str(base),
        ]
    raise KeyError(workload)


def cells(workload: str, seed: int, k: int) -> list[tuple[str, int, str]]:
    """(procedure, CLI seed, output subdirectory) of every run or sweep cell
    that command ``k`` makes; empty for ``validate``."""
    base = seed_base(seed, k)
    if workload == "coup_large_pool":
        return [("coup", base, "")]
    if workload == "sweep_small_pool":
        return [
            (p, base + s, f"{p}_seed{base + s}")
            for p in PROCEDURES[workload]
            for s in range(SWEEP_SEEDS)
        ]
    return []


def trial_seeds(workload: str, seed: int, k: int) -> list[int]:
    """Trial seeds of a ``validate`` command; empty for the other verbs."""
    if workload != "validate_trials":
        return []
    base = seed_base(seed, k)
    return list(range(base, base + VALIDATE_TRIALS))


def first_cli_seed(workload: str, seed: int, k: int) -> tuple[str, int]:
    """(procedure, seed) of the first oracle a command builds."""
    return PROCEDURES[workload][0], seed_base(seed, k)

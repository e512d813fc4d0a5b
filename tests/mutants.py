"""The recorded mutations of the golden grid, and a runner that re-applies them.

Each entry of ``MUTANTS`` is ``(name, file, old text, new text, cells)``:
an edit that replaces the one occurrence of ``old text`` in
``src/utilcap/<file>`` with ``new text``, and the golden cells
(``tests/test_golden.py``) that CHANGES.md recorded as changed by it.  The
runner applies each edit to a temporary copy of ``src/``, runs
``tests/test_golden.py`` on that copy in a subprocess (every cell in order,
in one process, as the test runs them), and prints the cells whose digests
changed:

    PYTHONPATH=src python tests/mutants.py [NAME ...]

A mutant is caught when at least one cell changes; the runner exits 1 if
any is not.  A changed set that differs from the recorded one is printed
with the difference, for the change that moved it to explain.  Tier-1
checks only that every old text still occurs exactly once
(``tests/test_mutants.py``), so a refactor cannot leave this list silently
stale; add a mutant with every new golden cell.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from test_golden import EXPECTED

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

COUP_ALL = (
    "coup_a0.5", "coup_a1.7", "coup_budget_at_phase_boundary", "coup_budget_mid_phase2",
    "coup_budget_uncertified", "coup_custom_schedule", "coup_finite_pool", "coup_finite_slow",
    "coup_gamma_then_epsilon", "coup_new_seed1", "coup_new_seed2", "coup_old_seed1",
    "coup_old_seed2", "coup_uniform", "coup_without_replacement",
)

MUTANTS = (
    # the without-replacement queue in the opposite shuffle order
    (
        "queue_by_negated_keys", "coup.py",
        "key=lambda c: (keys[c], c))",
        "key=lambda c: (-keys[c], c))",
        ("coup_without_replacement",),
    ),
    # Recorded as each phase's with-replacement draws reversed.  The
    # frontier has drawn one configuration per call since, so reversing a
    # call's draws changes nothing; this mutant reverses each draw's place
    # in the population instead, and its cells are those it changed when
    # it was adapted (the reversal's, and coup_finite_pool)
    (
        "with_replacement_draws_mirrored", "coup.py",
        "return [int(v * n) for v in",
        "return [n - 1 - int(v * n) for v in",
        ("coup_a0.5", "coup_a1.7", "coup_finite_pool", "coup_finite_slow", "coup_uniform"),
    ),
    # Recorded as each phase's parametric draws reversed; as above, it now
    # reverses each draw's theta in [0, 1] instead, and changes the
    # reversal's cells
    (
        "parametric_draws_mirrored", "coup.py",
        "add(make(theta))",
        "add(make(1.0 - theta))",
        (
            "coup_budget_at_phase_boundary", "coup_budget_mid_phase2", "coup_budget_uncertified",
            "coup_custom_schedule", "coup_gamma_then_epsilon", "coup_new_seed1",
            "coup_new_seed2", "coup_old_seed1", "coup_old_seed2",
        ),
    ),
    # a capped run's utility at the last snapshot's captime, not the pull's
    (
        "capped_run_reads_u_k", "oup.py",
        "usum += u_now",
        "usum += u_k",
        (
            "coup_a0.5", "coup_a1.7", "coup_finite_pool", "coup_finite_slow", "coup_new_seed2",
            "coup_uniform", "coup_without_replacement", "oup_a0.5", "oup_a1.7", "oup_old_seed1",
            "oup_uniform", "up_new_seed2", "up_old_seed1", "up_rival_eliminated",
            "up_single_survivor",
        ),
    ),
    # a run that caps again keeps the old captime's utility
    (
        "double_captime_keeps_old_u", "arms.py",
        "usum += u_kappa",
        "usum += u(capped)",
        (
            "coup_a0.5", "coup_a1.7", "coup_finite_pool", "coup_finite_slow", "coup_new_seed2",
            "coup_uniform", "oup_a0.5", "oup_a1.7", "oup_old_seed1", "oup_old_seed2",
            "oup_uniform", "up_held_arm_kept", "up_new_seed1", "up_new_seed2", "up_old_seed1",
            "up_old_seed2", "up_rival_eliminated", "up_rounds", "up_single_survivor",
        ),
    ),
    # a fixed plan's completed run counted at the captime's utility
    (
        "run_plan_completed_reads_u_kappa", "baselines.py",
        "sum_a += u(t)",
        "sum_a += u_kappa",
        ("naive_a1.7", "sh_new_seed1", "sh_new_seed2", "sh_old_seed1", "sh_old_seed2"),
    ),
    # width tables cached by captime alone: a later context reads the first
    # context's widths
    (
        "width_table_by_kappa_alone", "bounds.py",
        "@functools.lru_cache(maxsize=_WIDTH_TABLES)",
        "@lambda table: lambda ctx, kappa, _seen={}: _seen.setdefault(kappa, table(ctx, kappa))",
        COUP_ALL + (
            "oup_a0.5", "oup_a1.7", "oup_lognormal", "oup_matrix_exhausted", "oup_one_config",
            "oup_twopoint", "oup_uniform", "up_single_survivor",
        ),
    ),
    # the uniform shape's tail as the log-Laplace's, kappa0 / t, not zero
    (
        "uniform_far_one", "utility.py",
        "far = 0.0",
        "far = 1.0",
        ("coup_uniform", "naive_uniform", "oup_uniform"),
    ),
    # the new rule without the capped runs' share of the width
    (
        "new_rule_share_zero", "bounds.py",
        "return 2.0 * (1.0 - u_at_kappa), 1.0",
        "return 2.0 * (1.0 - u_at_kappa), 0.0",
        (
            "coup_a0.5", "coup_a1.7", "coup_budget_at_phase_boundary", "coup_budget_mid_phase2",
            "coup_budget_uncertified", "coup_custom_schedule", "coup_finite_pool",
            "coup_finite_slow", "coup_new_seed1", "coup_new_seed2", "coup_uniform",
            "coup_without_replacement", "oup_a0.5", "oup_a1.7", "oup_budget", "oup_lognormal",
            "oup_matrix_exhausted", "oup_new_seed1", "oup_new_seed2", "oup_rounds",
            "oup_twopoint", "oup_uniform", "up_budget", "up_held_arm_kept", "up_new_seed1",
            "up_new_seed2", "up_rival_eliminated", "up_rounds", "up_single_survivor",
        ),
    ),
    # the round's inline valuation of a completed run past kappa0 inverted
    (
        "inline_far_branch_inverted", "oup.py",
        "else far * (kappa0 / t) ** decay",
        "else far * (t / kappa0) ** decay",
        (
            "coup_a0.5", "coup_a1.7", "coup_finite_slow", "oup_a0.5", "oup_a1.7",
            "up_held_arm_kept", "up_new_seed1", "up_new_seed2", "up_rival_eliminated", "up_rounds",
            "up_single_survivor",
        ),
    ),
    # a doubling's rerun that caps again charged at the old captime
    (
        "rerun_charged_old_captime", "arms.py",
        "total += kappa",
        "total += capped",
        (
            "coup_a0.5", "coup_a1.7", "coup_finite_pool", "coup_finite_slow", "coup_new_seed2",
            "coup_uniform", "oup_a0.5", "oup_a1.7", "oup_old_seed1", "oup_old_seed2",
            "oup_uniform", "up_budget", "up_held_arm_kept", "up_new_seed1", "up_new_seed2",
            "up_old_seed1", "up_old_seed2", "up_rival_eliminated", "up_rounds",
            "up_single_survivor",
        ),
    ),
    # a phase start that reads the stored completion fraction and u(kappa)
    # in each other's places
    (
        "enter_swaps_stored_values", "oup.py",
        "f_hat, u_k, _, _ = arm.snapshot",
        "u_k, f_hat, _, _ = arm.snapshot",
        tuple(
            c for c in COUP_ALL
            if c not in ("coup_budget_at_phase_boundary", "coup_budget_uncertified")
        ),
    ),
    # the runtime table's fallback draws the next instance, not the missing one
    (
        "table_fallback_draws_next", "oup.py",
        "t = draw(m - 1)",
        "t = draw(m)",
        (
            "coup_a0.5", "coup_a1.7", "coup_budget_at_phase_boundary", "coup_budget_mid_phase2",
            "coup_budget_uncertified", "coup_custom_schedule", "coup_gamma_then_epsilon",
            "coup_new_seed1", "coup_old_seed1", "coup_old_seed2", "coup_uniform", "oup_a0.5",
            "oup_a1.7", "oup_budget", "oup_lognormal", "oup_new_seed1", "oup_new_seed2",
            "oup_old_seed1", "oup_old_seed2", "oup_one_config", "oup_rounds", "oup_uniform",
            "up_budget", "up_held_arm_kept", "up_new_seed1", "up_new_seed2", "up_old_seed1",
            "up_old_seed2", "up_rival_eliminated", "up_rounds", "up_single_survivor",
        ),
    ),
    # the memo stores width(m) under the next count
    (
        "width_stored_under_next_count", "bounds.py",
        "value = self[m] = self.width(m)",
        "value = self[m + 1] = self.width(m)",
        tuple(c for c in COUP_ALL if c != "coup_budget_uncertified") + (
            "oup_a0.5", "oup_a1.7", "oup_budget", "oup_lognormal", "oup_new_seed1",
            "oup_new_seed2", "oup_old_seed1", "oup_old_seed2", "oup_one_config", "oup_rounds",
            "oup_twopoint", "oup_uniform", "up_budget", "up_held_arm_kept", "up_new_seed1",
            "up_new_seed2", "up_old_seed1", "up_old_seed2", "up_rival_eliminated", "up_rounds",
            "up_single_survivor",
        ),
    ),
)


def changed_cells(file: str, old: str, new: str) -> tuple[list[str], str]:
    """The golden cells whose digests the edit changes, and the error text
    of a grid run that failed (empty when it ran through)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src)
        path = src / "utilcap" / file
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise ValueError(f"{file} holds {text.count(old)} copies of {old!r}, not one")
        path.write_text(text.replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, str(TESTS / "test_golden.py")],
            capture_output=True, text=True, env=env, cwd=tmp,
        )
    if done.returncode:
        return [], done.stderr.strip().splitlines()[-1]
    got = ast.literal_eval(done.stdout)
    return sorted(name for name in EXPECTED if got.get(name) != EXPECTED[name]), ""


def main(names: list[str]) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    missed = 0
    for name, file, old, new, recorded in MUTANTS:
        if names and name not in names:
            continue
        cells, error = changed_cells(file, old, new)
        if error:
            print(f"{name}: caught, the grid fails: {error}")
            continue
        if not cells:
            missed += 1
            print(f"{name}: NOT CAUGHT, no cell changed")
            continue
        line = f"{name}: caught, {len(cells)} cells: {', '.join(cells)}"
        gained = sorted(set(cells) - set(recorded))
        lost = sorted(set(recorded) - set(cells))
        if gained or lost:
            line += f" (recorded {len(recorded)}; now also {gained}, no longer {lost})"
        print(line)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

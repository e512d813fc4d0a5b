"""End-to-end acceptance suite.

Each criterion prints one `[PASS]`/`[FAIL]` line (run pytest with -s to see
them inline).  The heavy suites are session fixtures shared across criteria:
the instrumented greedy runs back both the guarantee-soundness and the
stop-selection checks, and the paired-seed pools back both the procedure
comparison and the baseline comparison.
"""

import math
import statistics
import time

import pytest
from mpmath import mp, mpf

import utilcap as uc
from utilcap.bounds import BoundContext
from utilcap.cli import main
from utilcap.rng import UniformStream

from helpers import (
    UTILITY,
    CappedObservation,
    a2_oracle,
    a3_oracle,
    a8_oracle,
    instrumented_oup,
    make_snapshot,
    parametric_setup,
    phase_one_engine,
    trace_lines,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# Shared suites
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def a2_suite():
    records = []
    for seed in range(200):
        records.append(instrumented_oup(a2_oracle(seed), UTILITY, 0.1, "new", 0.2))
    return records


@pytest.fixture(scope="session")
def a3_suite():
    rows = []
    for seed in range(50):
        oup = uc.OupRun(a3_oracle(seed), UTILITY, 0.1, doubling="new").run_until(
            uc.TargetEpsilon(0.2)
        )
        up = uc.UpRun(a3_oracle(seed), UTILITY, 0.1, doubling="new").run_until(
            uc.TargetEpsilon(0.2)
        )
        naive = uc.naive_run(a3_oracle(seed), UTILITY, 0.2, 0.1)
        rows.append((oup, up, naive))
    return rows


@pytest.fixture(scope="session")
def a5_suite():
    runs = []
    for seed in range(200):
        oracle, sampler = parametric_setup(seed)
        run = uc.CoupRun(
            sampler, oracle, UTILITY, 0.05, uc.Schedule.from_spec("default"), doubling="new"
        )
        result = run.run_phases(uc.MaxPhases(4))
        runs.append((sampler, result))
    return runs


@pytest.fixture(scope="session")
def a8_suite():
    cells = {("oup", "old"): [], ("oup", "new"): [], ("up", "old"): [], ("up", "new"): []}
    for seed in range(50):
        for procedure, engine in (("oup", uc.OupRun), ("up", uc.UpRun)):
            for rule in ("old", "new"):
                result = engine(a8_oracle(seed), UTILITY, 0.1, doubling=rule).run_until(
                    uc.TargetEpsilon(0.1)
                )
                cells[(procedure, rule)].append(result.ledger.total_seconds)
    return cells


# ---------------------------------------------------------------------------
# A1: exact width identity
# ---------------------------------------------------------------------------


def test_a1_exact_width_identity():
    utility = uc.LogLaplaceUtility(60.0, 1.0)
    draws = UniformStream(2024, 3)
    ctx = BoundContext(n=7, delta=0.05)
    worst = 0.0
    start = time.perf_counter()
    position = 0
    for _ in range(10_000):
        m = 1 + int(draws.value(position) * 40)
        level = int(draws.value(position + 1) * 11)
        kappa = 2.0 ** level
        position += 2
        observations = []
        for _ in range(m):
            t = draws.value(position) * kappa * 1.25
            position += 1
            observations.append(
                CappedObservation.observe(t, kappa)
                if t < kappa
                else CappedObservation(kappa, False)
            )
        snap = make_snapshot(ctx, m, kappa, observations, utility)
        identity = (2.0 - snap.u_at_kappa) * snap.alpha + snap.u_at_kappa * (1.0 - snap.f_hat)
        worst = max(worst, abs(snap.ucb - snap.lcb - identity) / identity)
    elapsed = time.perf_counter() - start
    report(
        "A1",
        worst <= 1e-12 and elapsed < 1.0,
        f"max relative identity error {worst:.2e} over 10^4 snapshots in {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# A2: guarantee soundness for the greedy engine
# ---------------------------------------------------------------------------


def test_a2_guarantee_soundness(a2_suite):
    utilities = a2_oracle(0).true_utilities(UTILITY)
    best = max(utilities)
    violations = 0
    for record in a2_suite:
        gap = best - utilities[record.result.incumbent_config]
        violations += gap > 0.2
    rate = violations / len(a2_suite)
    bound = 0.1 + 3.0 * math.sqrt(0.1 * 0.9 / len(a2_suite))
    report("A2", rate <= bound, f"violation rate {rate:.4f} <= {bound:.4f} over 200 runs")


def test_a2_clean_coverage_invariant(a2_suite):
    clean = sum(r.clean for r in a2_suite) / len(a2_suite)
    report("A2-coverage", clean >= 0.9, f"clean-execution fraction {clean:.3f} >= 0.9")


def test_a2_optimal_survives_invariant(a2_suite):
    surviving = sum(r.optimal_surviving for r in a2_suite) / len(a2_suite)
    report("A2-survival", surviving >= 0.9, f"optimal arm survived in {surviving:.3f} >= 0.9")


def test_a2_epsilon_soundness_invariant(a2_suite):
    clean = [r for r in a2_suite if r.clean]
    ok = all(r.eps_sound for r in clean)
    report(
        "A2-eps-sound",
        ok,
        f"incumbent gap <= reported guarantee at every round of {len(clean)} clean runs",
    )


def test_a2_width_bound_invariant(a2_suite):
    clean = [r for r in a2_suite if r.clean]
    ok = all(r.width_bound_ok for r in clean)
    report(
        "A2-width-bound",
        ok,
        f"width <= 2a + u(k)(1-F(k)) at every round of {len(clean)} clean runs",
    )


# ---------------------------------------------------------------------------
# A3: greedy vs round-robin paired dominance
# ---------------------------------------------------------------------------


def test_a3_dominance_over_round_robin(a3_suite):
    wins = sum(oup.ledger.total_seconds <= up.ledger.total_seconds for oup, up, _ in a3_suite)
    speedups = [up.ledger.total_seconds / oup.ledger.total_seconds for oup, up, _ in a3_suite]
    med = statistics.median(speedups)
    ok = wins >= 0.9 * len(a3_suite) and med >= 2.0
    report(
        "A3",
        ok,
        f"wins {wins}/{len(a3_suite)}, median speedup {med:.1f}x (need >=90% and >=2x)",
    )


# ---------------------------------------------------------------------------
# A4: stop-selection, exact on clean executions
# ---------------------------------------------------------------------------


def test_a4_stop_selection_exact(a2_suite):
    clean = [r for r in a2_suite if r.clean]
    bad = [r for r in clean if not r.stop_selection_ok]
    report(
        "A4",
        not bad,
        f"no post-trigger selections in {len(clean)}/{len(a2_suite)} clean executions",
    )


# ---------------------------------------------------------------------------
# A5: phased certificates
# ---------------------------------------------------------------------------


def test_a5_phase_certificates(a5_suite):
    failures = {p: 0 for p in (1, 2, 3, 4)}
    counts = {p: 0 for p in (1, 2, 3, 4)}
    for sampler, result in a5_suite:
        for cert in result.certificates:
            threshold = sampler.optimum_quantile(UTILITY, cert.gamma) - cert.epsilon
            truth = sampler.utility_at(sampler.thetas[cert.incumbent], UTILITY)
            counts[cert.phase] += 1
            failures[cert.phase] += truth < threshold - 1e-12
    bound = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 200)
    rates = {p: failures[p] / counts[p] for p in counts}
    ok = all(counts[p] == 200 for p in counts) and all(rates[p] <= bound for p in rates)
    report(
        "A5",
        ok,
        f"per-phase violation rates {[round(rates[p], 4) for p in sorted(rates)]} <= {bound:.4f}",
    )


def test_a5_characteristic_sampling_invariant(a5_suite):
    # each phase's pool should usually contain a top-gamma configuration
    characteristic = 0
    phases = 0
    for sampler, result in a5_suite:
        for cert in result.certificates:
            threshold = sampler.optimum_quantile(UTILITY, cert.gamma)
            pool_thetas = sampler.thetas[: cert.n]
            phases += 1
            characteristic += any(
                sampler.utility_at(t, UTILITY) >= threshold for t in pool_thetas
            )
    rate = characteristic / phases
    report(
        "A5-characteristic",
        rate >= 1 - 0.05 / 2,
        f"pool contained a top-gamma configuration in {rate:.4f} of {phases} phases",
    )


# ---------------------------------------------------------------------------
# A6: phase-size replay against high-precision arithmetic
# ---------------------------------------------------------------------------


def test_a6_phase_size_replay():
    mp.dps = 50
    schedule = uc.Schedule.from_spec("default")
    got = []
    expected = []
    for p in range(1, 11):
        _, gamma_p = schedule.at(p)
        got.append(uc.phase_size(p, gamma_p, 0.01))
        value = mp.log(mp.pi ** 2 * p * p / mpf("0.03")) * mp.e ** (mpf(p) / 3)
        expected.append(int(mp.ceil(value)))
    ok = got == expected and got[0] == 9
    report("A6", ok, f"n_p for p=1..10: {got} (independent evaluation: {expected})")


# ---------------------------------------------------------------------------
# A7: differential trace equality
# ---------------------------------------------------------------------------


def test_a7_differential_trace_equality():
    mismatches = []
    for seed in range(20):
        oracle_c, sampler = parametric_setup(seed)
        coup = uc.CoupRun(
            sampler, oracle_c, UTILITY, 0.05, uc.Schedule.from_spec("default"), doubling="new"
        )
        coup.begin_phase()
        n_1 = len(coup.arms)
        for _ in range(200):
            coup.phase_step()
        oup = phase_one_engine(sampler, seed, 0.05, n_1)
        for _ in range(200):
            oup.step()
        if trace_lines(coup.trace) != trace_lines(oup.trace):
            mismatches.append(seed)
    report("A7", not mismatches, f"20 seeds x 200 rounds byte-equal (mismatches: {mismatches})")


# ---------------------------------------------------------------------------
# A8: doubling-rule improvement
# ---------------------------------------------------------------------------


def test_a8_new_doubling_improvement(a8_suite):
    details = []
    ok = True
    for procedure in ("oup", "up"):
        old = a8_suite[(procedure, "old")]
        new = a8_suite[(procedure, "new")]
        wins = sum(n <= o for n, o in zip(new, old))
        ok &= wins >= 0.8 * len(old)
        details.append(f"{procedure}: {wins}/{len(old)}")
    report("A8", ok, "new rule at least as fast to eps=0.1 on " + ", ".join(details) + " seeds")


# ---------------------------------------------------------------------------
# A9: naive baseline soundness and dominance
# ---------------------------------------------------------------------------


def test_a9_naive_soundness_and_dominance(a3_suite):
    utilities = a2_oracle(0).true_utilities(UTILITY)
    best = max(utilities)
    violations = 0
    trials = 200
    for seed in range(trials):
        result = uc.naive_run(a2_oracle(seed), UTILITY, 0.2, 0.1)
        violations += (best - utilities[result.incumbent_config]) > 0.2
    rate = violations / trials
    bound = 0.1 + 3.0 * math.sqrt(0.1 * 0.9 / trials)
    wins = sum(
        oup.ledger.total_seconds <= naive.ledger.total_seconds for oup, _, naive in a3_suite
    )
    ok = rate <= bound and wins >= 0.9 * len(a3_suite)
    report(
        "A9",
        ok,
        f"naive violation rate {rate:.4f} <= {bound:.4f}; greedy at most naive time on "
        f"{wins}/{len(a3_suite)} seeds",
    )


# ---------------------------------------------------------------------------
# A10: byte-identical replays through the command line
# ---------------------------------------------------------------------------


def test_a10_byte_identical_runs(tmp_path):
    pool = tmp_path / "pool.txt"
    pool.write_text("family=exponential\nparams=1.0;15.0;80.0;300.0\nn_configs=4\n")
    base = [
        "--oracle", f"synthetic:{pool}",
        "--delta", "0.1",
        "--doubling", "new",
        "--seed", "11",
    ]
    same = True
    for procedure, stop, files in (
        ("oup", "epsilon:0.3", ("trace.csv", "summary.csv")),
        ("up", "budget:5000", ("trace.csv", "summary.csv")),
        ("coup", "phases:2", ("trace.csv", "summary.csv", "certificates.csv")),
        ("naive", "epsilon:0.4", ("trace.csv", "summary.csv")),
        ("sh", "budget:60", ("trace.csv", "summary.csv")),
    ):
        first = tmp_path / f"{procedure}_1"
        second = tmp_path / f"{procedure}_2"
        for out in (first, second):
            code = main(
                ["run", "--procedure", procedure, "--stop", stop, "--out", str(out)]
                + base
                + (["--sh-kappa", "64"] if procedure == "sh" else [])
            )
            assert code == 0
        for name in files:
            same &= (first / name).read_bytes() == (second / name).read_bytes()
    report("A10", same, "all five procedures replay byte-identically (trace, summary, certificates)")

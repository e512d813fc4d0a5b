"""Phased anytime search over a sampled, growing configuration pool.

The run proceeds in phases p = 1, 2, ...; phase p targets a pair
(eps_p, gamma_p) and tops the pool up to

    n_p = ceil( ln(pi^2 p^2 / (3 delta)) / gamma_p )

configurations sampled from the configuration distribution, enough that with
high probability some sampled configuration sits in the top gamma_p fraction.
Within a phase the mechanics are exactly the greedy engine's, with a
phase-indexed width over the whole pool (at least n_p arms) and no
elimination: configurations are kept because later phases still need them
for their guarantees, but selection stops visiting poor ones.  A phase ends once

    max_i UCB_i - max_i LCB_i < eps_p      (both maxima over the whole pool)

at which point the incumbent (largest lower bound) is certified: with
probability 1 - delta its true utility is within eps_p of the top
(1 - gamma_p)-quantile of the configuration distribution, in every phase
simultaneously.  State carries across phases; entering a new phase only
refreshes the bounds of existing arms under the new width, without any runs
(``OupRun._enter``).

A configuration is drawn only when the run reaches it; ``CoupRun``
describes the frontier arm that stands for the rest of the pool.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from heapq import heappush

from .arms import ArmState
from .bounds import FRESH, BoundContext
from .oracles import Exponential, RuntimeOracle, SyntheticOracle
from .oup import OupRun
from .records import RunResult, StopRule, spec_items
from .rng import SAMPLER_STREAM, stream_generator
from .utility import UtilityFunction

# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

# each preset, as the custom spec it abbreviates
_PRESETS = {
    "default": "custom:eps=e^-p/6,gamma=e^-p/3",
    "gamma_focus": "custom:eps=e^-p/30,gamma=e^-p/3",
    "epsilon_focus": "custom:eps=e^-p/3,gamma=e^-p/30",
    "balanced": "custom:eps=e^-p/5,gamma=e^-p/5",
    "gamma_then_epsilon": "custom:eps=e^-p^3/300,gamma=e^-p^2/30",
}

_CUSTOM_TERM = re.compile(r"^e\^-p(?:\^([123]))?/([0-9]+(?:\.[0-9]+)?)$")


def _parse_custom_term(text: str):
    match = _CUSTOM_TERM.match(text)
    if match is None:
        raise ValueError(
            f"bad schedule term {text!r}; expected the form e^-p/D, e^-p^2/D or e^-p^3/D"
        )
    power = int(match.group(1) or 1)
    divisor = float(match.group(2))
    if divisor <= 0:
        raise ValueError(f"schedule divisor must be positive in {text!r}")
    return lambda p: math.exp(-(p ** power) / divisor)


class Schedule:
    """Generator of (eps_p, gamma_p) pairs, both always in (0, 1)."""

    def __init__(self, fn, name: str):
        self._fn = fn
        self.name = name

    def at(self, p: int) -> tuple[float, float]:
        if p < 1:
            raise ValueError(f"phase index must be at least 1, got {p}")
        eps, gamma = self._fn(p)
        if not (0.0 < eps < 1.0 and 0.0 < gamma < 1.0):
            raise ValueError(
                f"schedule {self.name!r} produced (eps, gamma) = ({eps}, {gamma}) "
                f"at phase {p}; both must lie in (0, 1)"
            )
        return eps, gamma

    @classmethod
    def from_spec(cls, spec: str) -> "Schedule":
        """Build from a preset name or ``custom:eps=e^-p/6,gamma=e^-p/3``."""
        custom = _PRESETS.get(spec, spec)
        if not custom.startswith("custom:"):
            raise ValueError(
                f"unknown schedule {spec!r}; presets are {sorted(_PRESETS)} "
                f"and custom specs look like custom:eps=e^-p/6,gamma=e^-p/3"
            )
        items = [(repr(spec), item) for item in custom[len("custom:"):].split(",")]
        terms = spec_items(items, ("eps", "gamma"), "schedule name")
        missing = {"eps", "gamma"} - terms.keys()
        if missing:
            raise ValueError(f"custom schedule is missing {sorted(missing)}: {spec!r}")
        eps_fn = _parse_custom_term(terms["eps"])
        gamma_fn = _parse_custom_term(terms["gamma"])
        return cls(lambda p: (eps_fn(p), gamma_fn(p)), spec)


def phase_size(p: int, gamma_p: float, delta: float) -> int | float:
    """Pool size needed in phase p to cover the top gamma_p fraction; inf
    when even the float quotient overflows (a subnormal gamma_p)."""
    if p < 1:
        raise ValueError(f"phase index must be at least 1, got {p}")
    if not 0.0 < gamma_p < 1.0:
        raise ValueError(f"gamma_p must lie in (0, 1), got {gamma_p}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    top = math.pi ** 2 * p * p
    arg = top / (3.0 * delta)
    # as in bounds.alpha: only an argument that overflows (a tiny delta)
    # sums its logs, so every finite case keeps its bits
    log_arg = math.log(arg) if arg < math.inf else math.log(top / 3.0) - math.log(delta)
    size = log_arg / gamma_p
    return math.ceil(size) if size < math.inf else size


# ---------------------------------------------------------------------------
# Configuration samplers
# ---------------------------------------------------------------------------


class SamplerExhaustedError(RuntimeError):
    """A without-replacement sampler ran out of distinct configurations."""

    def __init__(self, requested_total: int, available: int):
        super().__init__(
            f"cannot grow the pool to {requested_total} configurations: "
            f"only {available} are available without replacement"
        )
        self.requested_total = requested_total
        self.available = available


class FinitePoolSampler:
    """Uniform draws from a finite configuration population, the oracle's
    ids ``0 .. n_configs - 1``, in order: ``sample(k)`` gives the next
    ``k`` draws, whether asked for at once or one at a time.

    With replacement (the default) draws are independent, and a repeated
    configuration becomes a distinct arm sharing the same runtime source.
    Without replacement the population is consumed in a seeded shuffle order
    and exhaustion is an error.  ``population`` is how many draws the
    sampler can make: infinite with replacement.
    """

    def __init__(self, oracle: RuntimeOracle, seed: int, replace: bool = True):
        self.oracle = oracle
        self.replace = replace
        self.population = math.inf if replace else oracle.n_configs
        self._generator = stream_generator(seed, SAMPLER_STREAM)
        if not replace:
            keys = self._generator.random(oracle.n_configs).tolist()
            self._queue = sorted(range(oracle.n_configs), key=lambda c: (keys[c], c))
            self._taken = 0

    def sample(self, k: int) -> list[int]:
        if self.replace:
            n = self.oracle.n_configs
            return [int(v * n) for v in self._generator.random(k).tolist()]
        if self._taken + k > self.population:
            raise SamplerExhaustedError(self._taken + k, self.population)
        out = self._queue[self._taken : self._taken + k]
        self._taken += k
        return out


class ParametricSampler:
    """Continuous configuration space: theta ~ Uniform[0, 1] mapped to a runtime
    distribution, registered with a synthetic oracle when drawn.  Draws come
    in order, as ``FinitePoolSampler``'s do, so the j-th configuration drawn
    is the oracle's configuration j."""

    population = math.inf

    def __init__(self, oracle: SyntheticOracle, seed: int, make_distribution):
        self.oracle = oracle
        self.make_distribution = make_distribution
        self._generator = stream_generator(seed, SAMPLER_STREAM)

    def sample(self, k: int) -> list[int]:
        make, add = self.make_distribution, self.oracle.add_config
        return [add(make(theta)) for theta in self._generator.random(k).tolist()]


def exponential_mean_map(scale: float, growth: float):
    """theta in [0, 1] -> exponential runtimes with mean scale * growth^theta."""
    # the largest mean, at theta = 1, must be finite too
    if not (0 < scale < math.inf and 1 < growth < math.inf and scale * growth < math.inf):
        raise ValueError(
            f"scale must be positive and growth above 1, with a finite product; "
            f"got scale={scale}, growth={growth}"
        )
    return lambda theta: Exponential(mean=scale * growth ** theta)


def finite_population_quantile(values: list[float], gamma: float) -> float:
    """Utility of the best configuration left after removing the top gamma
    fraction of a finite population: the (1 - gamma)-quantile."""
    if not values:
        raise ValueError("population is empty")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    ordered = sorted(values)
    rank = math.ceil((1.0 - gamma) * len(ordered))
    rank = min(max(rank, 1), len(ordered))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# Phased run
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseCertificate:
    phase: int
    epsilon: float
    gamma: float
    n: int
    incumbent: int
    incumbent_config: int
    incumbent_name: str
    incumbent_lcb: float
    ledger_seconds: float


class CoupRun(OupRun):
    """Phased run over a pool that grows across phases.

    Each round is the greedy engine's round (``OupRun.step``) over the
    whole pool, with no elimination; this class only keeps the phases: it
    grows the pool, enters each phase's bound context (``OupRun._enter``),
    and certifies each phase's incumbent.  It starts as every engine does
    (``OupRun._start``), from an empty pool, and sets no engine state of
    its own.  So a single phase is the greedy engine without elimination,
    byte for byte.

    The pool grows by count, and a configuration is drawn only when the run
    reaches it.  Every position survives (``survivors`` is
    ``range(ctx.n)``), but ``arms`` holds only the pulled prefix ``[0, k)``
    and, while ``k < ctx.n``, one never-pulled *frontier* arm at ``k``.
    Every fresh position has the same bounds (UCB 1, LCB 0) and a tie goes
    to the lowest position, so the frontier stands for all of them: it is
    what a scan of the whole pool would select, or name as the incumbent,
    among them, and the bound index holds only the arms.  Selecting the
    frontier draws the next configuration and pushes the new frontier's
    keys before the streak reads its rivals (``select_arm``).  The samplers
    draw in order, and Philox draws do not depend on how they are chunked,
    so every configuration, runtime, trace row and certificate is the one a
    phase start that drew its whole pool would give.  A phase start
    touches the ``k + 1`` arms, not the pool (``begin_phase``).
    """

    procedure = "coup"
    eliminate = False

    def __init__(
        self,
        sampler,
        oracle: RuntimeOracle,
        utility: UtilityFunction,
        delta: float,
        schedule: Schedule,
        *,
        doubling: str = "old",
        trace=None,
    ):
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        # the pool starts empty and grows in begin_phase, which enters each
        # phase's bound context
        self._start(oracle, utility, doubling, [], trace)
        self.sampler = sampler
        self.delta = delta
        self.schedule = schedule
        self.p = 0
        self.eps_p = math.nan
        self.gamma_p = math.nan
        self.certificates: list[PhaseCertificate] = []

    def begin_phase(self) -> None:
        """Enter the next phase: grow the pool, then enter the phase's bound
        context (``OupRun._enter``), which refreshes the pulled arms' bounds
        and restarts ``eps_min``; no runs.

        A frontier arm is made only if every arm has been pulled.  A
        without-replacement sampler refuses here a pool larger than its
        population."""
        self.p += 1
        self.eps_p, self.gamma_p = self.schedule.at(self.p)
        # the union bound counts the pool searched, which exceeds n_p when
        # an earlier phase needed more configurations
        n = max(phase_size(self.p, self.gamma_p, self.delta), len(self.survivors))
        if n > self.sampler.population:
            raise SamplerExhaustedError(n, self.sampler.population)
        self.survivors = range(n)
        if len(self.arms) < n and (not self.arms or self.arms[-1].m):
            self.arms.append(ArmState(self.sampler.sample(1)[0]))
        self._enter(BoundContext(n=n, delta=self.delta, phase=self.p))

    def select_arm(self) -> int:
        """The greedy selection, which makes a new frontier when it selects
        the frontier."""
        i = super().select_arm()
        arms = self.arms
        if i == len(arms) - 1 and len(arms) < len(self.survivors):
            arms.append(ArmState(self.sampler.sample(1)[0]))
            heappush(self._by_ucb, (-FRESH.ucb, i + 1))
            heappush(self._by_lcb, (-FRESH.lcb, i + 1))
        return i

    # coup's streaks run under this name, which the benchmark's per-layer
    # tracer times apart from oup's
    phase_step = OupRun.step

    def step(self, stop: StopRule | None = None) -> None:
        self.phase_step(stop)

    def _certify(self) -> PhaseCertificate:
        star = self.incumbent()
        arm = self.arms[star]
        certificate = PhaseCertificate(
            phase=self.p,
            epsilon=self.eps_p,
            gamma=self.gamma_p,
            n=self.ctx.n,
            incumbent=star,
            incumbent_config=arm.config,
            incumbent_name=self.oracle.name(arm.config),
            incumbent_lcb=arm.snapshot.lcb,
            ledger_seconds=self.ledger.total_seconds,
        )
        self.certificates.append(certificate)
        return certificate

    def run_phases(self, stop: StopRule) -> RunResult:
        """Run phases until ``stop.phases`` are certified or the ledger
        holds ``stop.seconds``, certifying each phase that ends first."""
        while self.p < stop.phases and self.ledger.total_seconds < stop.seconds:
            self.begin_phase()
            # The phase ends once the eps of begin_phase or of its last round
            # is below eps_p.  No eps before it was, so that eps is the
            # phase's eps_min, and the test is eps_min <= the float just
            # below eps_p: a limit of the round loop.
            phase_end = math.nextafter(self.eps_p, -math.inf)
            self._advance(stop._replace(epsilon=phase_end))
            if not self.eps_min <= phase_end:
                # the budget ran out: no certificate; the previous phase's
                # certificate remains the standing recommendation
                break
            self._certify()
        return self._result(stop.stop_reason)

    def _result(self, stop_reason: str) -> RunResult:
        last = self.certificates[-1] if self.certificates else None
        return RunResult(
            procedure=self.procedure,
            incumbent=last.incumbent if last else None,
            incumbent_config=last.incumbent_config if last else None,
            incumbent_name=last.incumbent_name if last else "",
            epsilon=last.epsilon if last else math.nan,
            trace=self.trace,
            rounds=self.rounds,
            ledger=self.ledger,
            stop_reason=stop_reason,
            certificates=list(self.certificates),
        )

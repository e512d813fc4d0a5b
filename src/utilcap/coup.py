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
refreshes the bounds of existing arms under the new width, without any runs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .arms import ArmState, refresh_snapshots
from .bounds import DOUBLING_RULES, BoundContext
from .oracles import Exponential, RuntimeOracle, SyntheticOracle, true_capped_utility
from .oup import OupRun
from .records import BudgetSeconds, CostLedger, MaxPhases, PhasedStopRule, RunResult, TraceRow
from .rng import SAMPLER_STREAM, UniformStream
from .utility import UtilityFunction

# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

_PRESETS = {
    "default": lambda p: (math.exp(-p / 6.0), math.exp(-p / 3.0)),
    "gamma_focus": lambda p: (math.exp(-p / 30.0), math.exp(-p / 3.0)),
    "epsilon_focus": lambda p: (math.exp(-p / 3.0), math.exp(-p / 30.0)),
    "balanced": lambda p: (math.exp(-p / 5.0), math.exp(-p / 5.0)),
    "gamma_then_epsilon": lambda p: (math.exp(-(p ** 3) / 300.0), math.exp(-(p ** 2) / 30.0)),
}

_CUSTOM_TERM = re.compile(r"^e\^-p(?:\^([123]))?/([0-9]+(?:\.[0-9]+)?)$")


def _parse_custom_term(text: str):
    match = _CUSTOM_TERM.match(text.strip())
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
        if spec in _PRESETS:
            return cls(_PRESETS[spec], spec)
        if spec.startswith("custom:"):
            parts = {}
            for item in filter(None, spec[len("custom:"):].split(",")):
                name, sep, term = item.partition("=")
                if not sep:
                    raise ValueError(
                        f"bad custom schedule item {item!r} in {spec!r}; expected name=term"
                    )
                if name not in ("eps", "gamma"):
                    raise ValueError(
                        f"unknown custom schedule name {name!r} in {spec!r}; "
                        f"expected eps and gamma"
                    )
                if name in parts:
                    raise ValueError(f"custom schedule name {name!r} given twice in {spec!r}")
                parts[name] = term
            missing = {"eps", "gamma"} - parts.keys()
            if missing:
                raise ValueError(f"custom schedule is missing {sorted(missing)}: {spec!r}")
            eps_fn = _parse_custom_term(parts["eps"])
            gamma_fn = _parse_custom_term(parts["gamma"])
            return cls(lambda p: (eps_fn(p), gamma_fn(p)), spec)
        raise ValueError(
            f"unknown schedule {spec!r}; presets are {sorted(_PRESETS)} "
            f"and custom specs look like custom:eps=e^-p/6,gamma=e^-p/3"
        )


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
    ids ``0 .. n_configs - 1``.

    With replacement (the default) draws are independent, and a repeated
    configuration becomes a distinct arm sharing the same runtime source.
    Without replacement the population is consumed in a seeded shuffle order
    and exhaustion is an error.
    """

    def __init__(self, oracle: RuntimeOracle, seed: int, replace: bool = True):
        self.oracle = oracle
        self.replace = replace
        self._stream = UniformStream(seed, SAMPLER_STREAM)
        self._draws = 0
        if not replace:
            self._queue = sorted(
                range(oracle.n_configs),
                key=lambda c: (self._stream.value(c), c),
            )

    def sample(self, k: int) -> list[int]:
        if self.replace:
            n = self.oracle.n_configs
            out = []
            for _ in range(k):
                v = self._stream.value(self._draws)
                self._draws += 1
                out.append(int(v * n))
            return out
        if self._draws + k > len(self._queue):
            raise SamplerExhaustedError(self._draws + k, len(self._queue))
        out = self._queue[self._draws : self._draws + k]
        self._draws += k
        return out

    def optimum_quantile(self, u: UtilityFunction, gamma: float) -> float:
        return finite_population_quantile(self.oracle.true_utilities(u), gamma)


class ParametricSampler:
    """Continuous configuration space: theta ~ Uniform[0, 1] mapped to a runtime
    distribution, registered with a synthetic oracle on first draw."""

    def __init__(self, oracle: SyntheticOracle, seed: int, make_distribution):
        self.oracle = oracle
        self.make_distribution = make_distribution
        self._stream = UniformStream(seed, SAMPLER_STREAM)
        self._draws = 0
        self.thetas: list[float] = []

    def sample(self, k: int) -> list[int]:
        out = []
        for _ in range(k):
            theta = self._stream.value(self._draws)
            self._draws += 1
            self.thetas.append(theta)
            out.append(self.oracle.add_config(self.make_distribution(theta)))
        return out

    def utility_at(self, theta: float, u: UtilityFunction) -> float:
        return true_capped_utility(self.make_distribution(theta), u, math.inf)[0]

    def optimum_quantile(self, u: UtilityFunction, gamma: float) -> float:
        """Closed-form quantile for a utility map strictly decreasing in theta:
        excluding the top gamma fraction leaves theta = gamma as the best."""
        return self.utility_at(gamma, u)


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
    incumbent_name: str
    incumbent_lcb: float
    ledger_seconds: float


class CoupRun(OupRun):
    """Phased run holding a growing arm store shared across phases.

    Each round is the greedy engine's round over the whole pool, with no
    elimination; this class only keeps the phases: it grows the pool, swaps
    the bound context, and certifies each phase's incumbent.
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
    ):
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        # the pool starts empty and grows in begin_phase, so the engine's
        # state is set here rather than by OupRun.__init__
        self.sampler = sampler
        self.oracle = oracle
        self.utility = utility
        self.delta = delta
        self.schedule = schedule
        self.doubling_rule = DOUBLING_RULES[doubling]
        self.arms: list[ArmState] = []
        self.survivors: list[int] = []
        self.p = 0
        self.eps_p = math.nan
        self.gamma_p = math.nan
        self.ctx: BoundContext | None = None
        self.ledger = CostLedger()
        self.trace: list[TraceRow] = []
        self.certificates: list[PhaseCertificate] = []
        self.eps_min = math.nan
        self.rebuild_index()

    def begin_phase(self) -> None:
        """Enter the next phase: top up the pool, refresh bounds, no runs."""
        self.p += 1
        self.eps_p, self.gamma_p = self.schedule.at(self.p)
        needed = phase_size(self.p, self.gamma_p, self.delta) - len(self.arms)
        if needed > 0:
            self.arms.extend(ArmState(config) for config in self.sampler.sample(needed))
            self.survivors = list(range(len(self.arms)))
        # the union bound counts the pool searched, which exceeds n_p when
        # an earlier phase needed more configurations
        self.ctx = BoundContext(n=len(self.arms), delta=self.delta, phase=self.p)
        refresh_snapshots(self.arms, self.ctx, self.utility)
        self.rebuild_index()
        # the per-phase guarantee restarts with the refreshed bounds
        self.eps_min = self.guaranteed_epsilon()

    phase_step = OupRun.step

    def _certify(self) -> PhaseCertificate:
        star = self.incumbent()
        certificate = PhaseCertificate(
            phase=self.p,
            epsilon=self.eps_p,
            gamma=self.gamma_p,
            n=self.ctx.n,
            incumbent=star,
            incumbent_name=self.oracle.name(self.arms[star].config),
            incumbent_lcb=self.arms[star].snapshot.lcb,
            ledger_seconds=self.ledger.total_seconds,
        )
        self.certificates.append(certificate)
        return certificate

    def run_phases(self, stop: PhasedStopRule) -> RunResult:
        budget = stop.seconds if isinstance(stop, BudgetSeconds) else None
        max_phases = stop.phases if isinstance(stop, MaxPhases) else None
        if budget is None and max_phases is None:
            raise TypeError(f"unsupported stop rule {stop!r}")
        while True:
            if max_phases is not None and self.p >= max_phases:
                return self._result("max_phases")
            if budget is not None and self.ledger.total_seconds >= budget:
                return self._result("budget_exhausted")
            self.begin_phase()
            # the phase test reads the eps that begin_phase or the last round computed
            eps = self.eps_min
            while not eps < self.eps_p:
                if budget is not None and self.ledger.total_seconds >= budget:
                    # unfinished phase: no certificate; the previous phase's
                    # certificate remains the standing recommendation
                    return self._result("budget_exhausted")
                self.phase_step()
                eps = self.trace[-1].eps_raw
            self._certify()

    def _result(self, stop_reason: str) -> RunResult:
        last = self.certificates[-1] if self.certificates else None
        return RunResult(
            procedure=self.procedure,
            incumbent=last.incumbent if last else None,
            incumbent_config=self.arms[last.incumbent].config if last else None,
            incumbent_name=last.incumbent_name if last else "",
            epsilon=last.epsilon if last else math.nan,
            trace=self.trace,
            ledger=self.ledger,
            stop_reason=stop_reason,
            certificates=list(self.certificates),
            extra={"arm_configs": tuple(arm.config for arm in self.arms)},
        )

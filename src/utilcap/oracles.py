"""Runtime sources: dataset replay and synthetic distributions with ground truth.

An oracle gives the true runtime ``t`` of (configuration, instance) through
``runtime_of(config)``, a function of the instance that an engine binds
once for every stretch of runs of one configuration; the engines cap ``t``
themselves.  A run at captime ``kappa`` observes
``min(t, kappa)`` and completed exactly when ``t < kappa``, so repeating a
run at a higher captime reveals strictly more of the same runtime.

Two oracle kinds are provided.  ``MatrixOracle`` replays a recorded runtime
matrix with a seeded column order, so every procedure consuming it sees the
same instance sequence.  ``SyntheticOracle`` draws runtimes from closed-form
distributions through keyed uniform streams, and can report exact capped
expected utilities for use as ground truth in tests and validators.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

from .rng import RUNTIME_STREAM, UniformStream, seeded_permutation
from .utility import UtilityFunction


class InstanceExhaustedError(RuntimeError):
    """A run was requested past the last available instance.

    Engines annotate the exception with the guarantee achieved so far
    (``achieved_epsilon``) and the partial result (``partial``) before
    letting it propagate.  The constructor's arguments are the exception's
    ``args``, so it pickles, as a sweep worker returns it, with its
    attributes; ``run_experiment`` drops ``partial`` once it is written.
    """

    def __init__(self, config: int, instance: int, available: int):
        super().__init__(config, instance, available)
        self.config = config
        self.instance = instance
        self.available = available
        self.achieved_epsilon: float | None = None
        self.partial = None

    def __str__(self) -> str:
        return (
            f"configuration {self.config} has no instance {self.instance}: "
            f"only {self.available} instances available"
        )


# ---------------------------------------------------------------------------
# Runtime distributions with closed-form ground truth
# ---------------------------------------------------------------------------

# scipy takes most of the start-up time and only lognormal draws and ground
# truth use it, so it is imported on first use.  The stand-in below rebinds
# its global to the scipy ufunc, so later calls go straight to the ufunc.


def ndtri(p):
    global ndtri
    from scipy.special import ndtri

    return ndtri(p)


@dataclass(frozen=True)
class Exponential:
    mean: float

    def __post_init__(self):
        if not 0 < self.mean < math.inf:
            raise ValueError(f"exponential mean must be positive and finite, got {self.mean}")

    def runtime_from_uniform(self, v: float) -> float:
        return -self.mean * math.log1p(-v)

    def completion_probability(self, kappa: float) -> float:
        """P(t < kappa); the distribution is continuous so ties have no mass."""
        if math.isinf(kappa):
            return 1.0
        return -math.expm1(-kappa / self.mean)

    def pdf(self, t: float) -> float:
        return math.exp(-t / self.mean) / self.mean

    def label(self) -> str:
        return f"exp(mean={self.mean!r})"


@dataclass(frozen=True)
class LogNormal:
    mu: float
    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError(f"lognormal mu must be finite, got {self.mu}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"lognormal sigma must be positive and finite, got {self.sigma}")

    def runtime_from_uniform(self, v: float) -> float:
        return math.exp(self.mu + self.sigma * ndtri(v)) if v > 0.0 else 0.0

    def completion_probability(self, kappa: float) -> float:
        if math.isinf(kappa):
            return 1.0
        if kappa <= 0:
            return 0.0
        # the normal CDF at (ln kappa - mu) / sigma, through erfc for its tail
        return 0.5 * math.erfc((self.mu - math.log(kappa)) / (self.sigma * math.sqrt(2.0)))

    def pdf(self, t: float) -> float:
        if t <= 0:
            return 0.0
        z = (math.log(t) - self.mu) / self.sigma
        return math.exp(-0.5 * z * z) / (t * self.sigma * math.sqrt(2 * math.pi))

    def label(self) -> str:
        return f"lognormal(mu={self.mu!r},sigma={self.sigma!r})"


@dataclass(frozen=True)
class TwoPoint:
    """Mass ``p_fast`` at ``t_fast`` and the rest at ``t_slow``."""

    t_fast: float
    t_slow: float
    p_fast: float

    def __post_init__(self):
        if not (0 <= self.t_fast < math.inf and 0 <= self.t_slow < math.inf):
            raise ValueError(
                f"two-point runtimes must be finite and nonnegative, "
                f"got {self.t_fast} and {self.t_slow}"
            )
        if not 0.0 <= self.p_fast <= 1.0:
            raise ValueError(f"mixture weight must lie in [0, 1], got {self.p_fast}")

    def runtime_from_uniform(self, v: float) -> float:
        return self.t_fast if v < self.p_fast else self.t_slow

    def completion_probability(self, kappa: float) -> float:
        """P(t < kappa), strict, matching the completion flag of capped runs."""
        prob = 0.0
        if self.t_fast < kappa:
            prob += self.p_fast
        if self.t_slow < kappa:
            prob += 1.0 - self.p_fast
        return prob

    def label(self) -> str:
        return f"twopoint(t_fast={self.t_fast!r},t_slow={self.t_slow!r},p={self.p_fast!r})"


RuntimeDistribution = Exponential | LogNormal | TwoPoint

_QUAD_ABS_TOL = 1e-12  # target for each quadrature piece; well under the 1e-9 contract


def expected_capped_utility(dist: RuntimeDistribution, u: UtilityFunction, kappa: float) -> float:
    """E[u(min(t, kappa))] by closed form (atoms) or adaptive quadrature."""
    if kappa <= 0:
        raise ValueError(f"captime must be positive, got {kappa}")
    if not isinstance(dist, (Exponential, LogNormal, TwoPoint)):
        raise NotImplementedError(
            f"no ground-truth formula for distribution {type(dist).__name__}"
        )
    if isinstance(dist, TwoPoint):
        return (
            dist.p_fast * u(min(dist.t_fast, kappa))
            + (1.0 - dist.p_fast) * u(min(dist.t_slow, kappa))
        )
    from scipy import integrate

    kink = u.kappa0

    def integrand(t: float) -> float:
        return u(t) * dist.pdf(t)

    if math.isinf(kappa):
        head, _ = integrate.quad(integrand, 0.0, kink, epsabs=_QUAD_ABS_TOL, limit=200)
        tail, _ = integrate.quad(integrand, kink, math.inf, epsabs=_QUAD_ABS_TOL, limit=200)
        return head + tail
    points = [kink] if kink < kappa else None
    body, _ = integrate.quad(
        integrand, 0.0, kappa, points=points, epsabs=_QUAD_ABS_TOL, limit=200
    )
    survival = 1.0 - dist.completion_probability(kappa)
    return body + u(kappa) * survival


@functools.lru_cache(maxsize=None)
def true_capped_utility(
    dist: RuntimeDistribution, u: UtilityFunction, kappa: float
) -> tuple[float, float]:
    """Exact (capped expected utility, completion probability) at ``kappa``.

    ``kappa = inf`` yields the uncapped expected utility and probability 1.
    Distributions and utilities are frozen dataclasses, so the result is
    cached by value: every trial of a validation asks for the same truths,
    such as a parametric space's quantile at each phase's ``gamma_p``, and a
    finite pool's truths are computed once however often it is scanned.  The
    cache has no bound: it holds one small entry per distribution, utility
    and captime this process has asked about.
    """
    return expected_capped_utility(dist, u, kappa), dist.completion_probability(kappa)


# ---------------------------------------------------------------------------
# Dataset-backed oracle
# ---------------------------------------------------------------------------


def load_runtime_matrix(path: str | Path, seed: int) -> "MatrixOracle":
    """Load a runtime matrix CSV, ``name,t1,t2,...`` per row and no header,
    as an oracle.

    Columns are permuted once by the seed; every consumer of the oracle sees
    the same instance sequence, so comparisons between procedures are paired.
    """
    path = Path(path)
    names: list[str] = []
    rows: list[tuple[float, ...]] = []
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) < 2:
                raise ValueError(f"{path}:{lineno}: expected 'name,runtimes...', got {line!r}")
            name, *cells = fields
            values = []
            for col, cell in enumerate(cells, start=2):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: column {col}: non-numeric runtime {cell!r}"
                    ) from None
                if not math.isfinite(value) or value < 0:
                    raise ValueError(
                        f"{path}:{lineno}: column {col}: runtime must be finite and "
                        f"nonnegative, got {cell!r}"
                    )
                values.append(value)
            if rows and len(values) != len(rows[0]):
                raise ValueError(
                    f"{path}:{lineno}: ragged row: {len(values)} runtimes, expected {len(rows[0])}"
                )
            names.append(name)
            rows.append(tuple(values))
    if not rows:
        raise ValueError(f"{path}: empty runtime matrix")
    return MatrixOracle(tuple(rows), tuple(names), seeded_permutation(len(rows[0]), seed))


class MatrixOracle:
    """Runtimes replayed from a recorded matrix in a seeded column order:
    ``runtimes[config]`` is a configuration's row, and instance j is column
    ``instance_order[j]``."""

    def __init__(
        self,
        runtimes: tuple[tuple[float, ...], ...],
        names: tuple[str, ...],
        instance_order: tuple[int, ...],
    ):
        self.runtimes = runtimes
        self.names = names
        self.instance_order = instance_order
        self.n_configs = len(runtimes)
        self.n_instances = len(instance_order)

    def name(self, config: int) -> str:
        return self.names[config]

    def runtime_of(self, config: int):
        """The true runtime of ``config`` as a function of the instance;
        past the last instance it raises ``InstanceExhaustedError``."""
        row = self.runtimes[config]
        order = self.instance_order
        available = self.n_instances

        def runtime(instance: int) -> float:
            if instance >= available:
                raise InstanceExhaustedError(config, instance, available)
            return row[order[instance]]

        return runtime


# ---------------------------------------------------------------------------
# Synthetic oracle with analytic ground truth
# ---------------------------------------------------------------------------


class SyntheticOracle:
    """Runtimes drawn from per-configuration distributions.

    Instances are unbounded.  The runtime of (config, instance) is a pure
    function of (seed, config, instance): one uniform double drawn from the
    configuration's keyed stream, pushed through the inverse CDF.  New
    configurations may be registered at any time without disturbing the
    runtimes of existing ones.
    """

    def __init__(self, distributions, seed: int):
        self.seed = int(seed)
        self._dists: list[RuntimeDistribution] = list(distributions)
        self._streams: dict[int, UniformStream] = {}

    @property
    def n_configs(self) -> int:
        return len(self._dists)

    def add_config(self, dist: RuntimeDistribution) -> int:
        self._dists.append(dist)
        return len(self._dists) - 1

    def name(self, config: int) -> str:
        return self._dists[config].label()

    def runtime_of(self, config: int):
        """The true runtime of ``config`` as a function of the instance.  It
        reads the stream's buffer, and asks the stream to draw only past its
        end."""
        stream = self._streams.get(config)
        if stream is None:
            stream = self._streams[config] = UniformStream(self.seed, RUNTIME_STREAM, config)
        values = stream.values
        draw = stream.value
        to_runtime = self._dists[config].runtime_from_uniform

        def runtime(instance: int) -> float:
            return to_runtime(values[instance] if instance < len(values) else draw(instance))

        return runtime

    def true_capped_utility(
        self, config: int, u: UtilityFunction, kappa: float
    ) -> tuple[float, float]:
        return true_capped_utility(self._dists[config], u, kappa)

    def true_utility(self, config: int, u: UtilityFunction) -> float:
        return self.true_capped_utility(config, u, math.inf)[0]

    def true_utilities(self, u: UtilityFunction) -> list[float]:
        return [self.true_utility(c, u) for c in range(self.n_configs)]


RuntimeOracle = MatrixOracle | SyntheticOracle

"""Runtime sources: dataset replay and synthetic distributions with ground truth.

An oracle gives the true runtimes ``t`` of a configuration as a table:
``runtime_of(config)`` returns ``(times, draw)``, where ``times[j]`` is the
true runtime at instance ``j`` for every ``j`` below its length, and
``draw(j)`` makes ``times`` hold instance ``j`` and returns ``times[j]``.
``times`` only ever grows, at its end, so an engine binds it once per
stretch of runs of one configuration and reads it directly, calling
``draw`` only past its end; the engines cap ``t`` themselves.  A run at
captime ``kappa`` observes ``min(t, kappa)`` and completed exactly when
``t < kappa``, so repeating a run at a higher captime reveals strictly more
of the same runtime.

Two oracle kinds are provided.  ``MatrixOracle`` replays a recorded runtime
matrix with a seeded column order, so every procedure consuming it sees the
same instance sequence; its table is the row in that order, and ``draw``
past it raises ``InstanceExhaustedError``.  ``SyntheticOracle`` draws
runtimes from closed-form distributions through keyed uniform streams, a
block at a time, and can report exact capped expected utilities for use as
ground truth in tests and validators.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

from .rng import RUNTIME_STREAM, grown_size, seeded_permutation, stream_generator
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

# Each distribution maps a block of uniforms, a numpy array, to a list of
# runtimes with ``runtimes_from_uniforms``, with the bits that one draw at a
# time in ``math`` would give.  numpy's log1p, exp and log round differently
# from ``math`` on some inputs, so every such call stays in ``math``, element
# by element; only IEEE-exact ``+`` and ``*`` run in numpy, on the whole
# block (the lognormal's ``mu + sigma * z``).
#
# scipy takes most of the start-up time and only lognormal draws and ground
# truth use it, so it is imported on first use.  The stand-in below rebinds
# its global to the scipy ufunc, so later calls go straight to the ufunc,
# once per block of lognormal draws.


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

    def runtimes_from_uniforms(self, vs) -> list[float]:
        scale = -self.mean
        log1p = math.log1p
        return [scale * log1p(-v) for v in vs.tolist()]

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

    def runtimes_from_uniforms(self, vs) -> list[float]:
        # ndtri(0) is -inf, and exp(-inf) is 0.0
        return list(map(math.exp, (self.mu + self.sigma * ndtri(vs)).tolist()))

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

    def runtimes_from_uniforms(self, vs) -> list[float]:
        fast, slow, p = self.t_fast, self.t_slow, self.p_fast
        return [fast if v < p else slow for v in vs.tolist()]

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
    """Runtimes replayed from a recorded matrix in a seeded column order.

    ``runtimes[config]`` is a configuration's recorded row, and instance j
    is its column ``instance_order[j]``.  The rows are stored in instance
    order, as ``times``: ``times[config][j]`` is the runtime at instance j.
    """

    def __init__(
        self,
        runtimes: tuple[tuple[float, ...], ...],
        names: tuple[str, ...],
        instance_order: tuple[int, ...],
    ):
        self.times = tuple(tuple(row[k] for k in instance_order) for row in runtimes)
        self.names = names
        self.instance_order = instance_order
        self.n_configs = len(runtimes)
        self.n_instances = len(instance_order)

    def name(self, config: int) -> str:
        return self.names[config]

    def runtime_of(self, config: int):
        """``(times, draw)`` of ``config``: its whole row in instance order,
        and a ``draw`` that raises ``InstanceExhaustedError`` past it, for
        the first instance missing."""
        times = self.times[config]
        available = self.n_instances

        def draw(instance: int) -> float:
            if instance >= available:
                # the first instance missing, whichever was asked for: a
                # reader that grows the table ahead reports what one
                # reading instance by instance would
                raise InstanceExhaustedError(config, available, available)
            return times[instance]

        return times, draw


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
        self._tables: dict[int, tuple] = {}

    @property
    def n_configs(self) -> int:
        return len(self._dists)

    def reseeded(self, seed: int) -> "SyntheticOracle":
        """A fresh oracle over this one's configurations that draws from
        ``seed``'s streams: the oracle that the same pool file gives at
        ``seed``, as long as no configuration was added to this one."""
        return SyntheticOracle(self._dists, seed)

    def add_config(self, dist: RuntimeDistribution) -> int:
        self._dists.append(dist)
        return len(self._dists) - 1

    def name(self, config: int) -> str:
        return self._dists[config].label()

    def runtime_of(self, config: int):
        """``(times, draw)`` of ``config``, made on its first request.

        ``draw`` grows ``times``, an ``array('d')``, by whole blocks of
        ``rng.grown_size``, each drawn in order from the configuration's
        runtime stream and mapped to runtimes at once; the uniforms are not
        kept."""
        table = self._tables.get(config)
        if table is None:
            generator = stream_generator(self.seed, RUNTIME_STREAM, config)
            to_runtimes = self._dists[config].runtimes_from_uniforms
            times = array("d")

            def draw(instance: int) -> float:
                size = len(times)
                if instance >= size:
                    times.fromlist(to_runtimes(generator.random(grown_size(instance) - size)))
                return times[instance]

            table = self._tables[config] = (times, draw)
        return table

    def true_capped_utility(
        self, config: int, u: UtilityFunction, kappa: float
    ) -> tuple[float, float]:
        return true_capped_utility(self._dists[config], u, kappa)

    def true_utility(self, config: int, u: UtilityFunction) -> float:
        return self.true_capped_utility(config, u, math.inf)[0]

    def true_utilities(self, u: UtilityFunction) -> list[float]:
        return [self.true_utility(c, u) for c in range(self.n_configs)]


RuntimeOracle = MatrixOracle | SyntheticOracle

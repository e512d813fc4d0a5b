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
ground truth in tests and validators.  Ground truth is an integral over the
probability ``p`` of the utility of the distribution's quantile ``Q(p)``,
by an adaptive Gauss-Kronrod rule in pure Python; only a lognormal's draws
and quantile need scipy, for its inverse normal CDF ``ndtri``.
"""

from __future__ import annotations

import functools
import math
import operator
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
# block (the lognormal's ``mu + sigma * z``).  ``quantile`` maps one
# probability in [0, 1] the same way, for ground truth.
#
# scipy takes most of the start-up time and memory, and only a lognormal's
# draws and quantile use it, through ``scipy_ndtri``.  ``parse_spec`` calls
# it for a pool with a lognormal configuration, so that the forked workers
# of ``validate`` and ``sweep`` inherit the module instead of each importing
# it.


@functools.cache
def scipy_ndtri():
    """scipy's inverse normal CDF, a ufunc, imported on the first call."""
    from scipy.special import ndtri

    return ndtri


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

    def quantile(self, p: float) -> float:
        return -self.mean * math.log1p(-p) if p < 1.0 else math.inf

    def label(self) -> str:
        return f"exp(mean={self.mean!r})"


# ndtri(1 - 2^-53): the largest normal deviate a lognormal draws, at the
# largest uniform a stream gives (tests/test_oracles.py pins it against scipy)
_LARGEST_Z = 8.209536151601387


@dataclass(frozen=True)
class LogNormal:
    mu: float
    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError(f"lognormal mu must be finite, got {self.mu}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"lognormal sigma must be positive and finite, got {self.sigma}")
        try:
            largest = math.exp(self.mu + self.sigma * _LARGEST_Z)
        except OverflowError:
            largest = math.inf
        if largest == math.inf:
            raise ValueError(
                f"lognormal mu={self.mu!r}, sigma={self.sigma!r} draws runtimes past the "
                f"largest float: exp(mu + {_LARGEST_Z!r} sigma) overflows"
            )

    def runtimes_from_uniforms(self, vs) -> list[float]:
        # ndtri(0) is -inf, and exp(-inf) is 0.0
        return list(map(math.exp, (self.mu + self.sigma * scipy_ndtri()(vs)).tolist()))

    def completion_probability(self, kappa: float) -> float:
        if math.isinf(kappa):
            return 1.0
        if kappa <= 0:
            return 0.0
        # the normal CDF at (ln kappa - mu) / sigma, through erfc for its tail
        return 0.5 * math.erfc((self.mu - math.log(kappa)) / (self.sigma * math.sqrt(2.0)))

    def quantile(self, p: float) -> float:
        # 0.0 at p = 0 and inf at p = 1, as for the draws
        return math.exp(self.mu + self.sigma * scipy_ndtri()(p))

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

    def label(self) -> str:
        return f"twopoint(t_fast={self.t_fast!r},t_slow={self.t_slow!r},p={self.p_fast!r})"


RuntimeDistribution = Exponential | LogNormal | TwoPoint

# Gauss-Kronrod G7-K15 on [-1, 1]: the seven Kronrod nodes below 0, mirrored
# above it, then 0; the Kronrod weights in that order, and the Gauss weights,
# 0 at the nodes that only Kronrod adds
_NODES = (
    -0.991455371120812639, -0.949107912342758525, -0.864864423359769073, -0.741531185599394440,
    -0.586087235467691130, -0.405845151377397167, -0.207784955007898468,
)
_KRONROD = (
    0.022935322010529225, 0.063092092629978553, 0.104790010322250184, 0.140653259715525919,
    0.169004726639267903, 0.190350578064785410, 0.204432940075298892, 0.209482141084727828,
)
_GAUSS = (
    0.0, 0.129484966168869693, 0.0, 0.279705391489276668,
    0.0, 0.381830050505118945, 0.0, 0.417959183673469388,
)

# the most by which an accepted interval's K15 and G7 values may differ.
# |K15 - G7| is about G7's error, far above K15's own, so a truth lands within
# about 1e-14 of its closed form (tests/test_oracles.py checks 1e-12), well
# under the 1e-9 contract
_QUAD_ABS_TOL = 1e-12


def _quantile_integral(
    dist: Exponential | LogNormal, u: UtilityFunction, a: float, b: float
) -> float:
    """The integral of ``u(dist.quantile(p))`` over ``p`` in ``[a, b]``.

    The integrand lies in [0, 1] and falls as ``p`` grows.  A narrow spike
    of density, which a rule over the runtime can miss whole, is here an
    interval of ``p`` as wide as its mass.  A quantile is singular at
    ``p = 1``, and a lognormal's also at 0, so the rule runs over ``s`` in
    [0, 1] with ``p = a + (b - a) s^3 (10 - 15 s + 6 s^2)``, whose
    derivative ``30 (b - a) s^2 (1 - s)^2`` flattens both ends.

    Adaptive G7-K15: an interval of ``s`` whose two estimates differ by more
    than ``_QUAD_ABS_TOL`` is halved, else its K15 estimate is kept.  Both
    estimates of an interval of half-length ``h`` lie in [0, 3.75 h (b - a)],
    so the halving ends.  Both estimates can miss a step of ``u(Q(p))``
    between the piece's end and an interval's outermost node, where the
    flattened ends put the nodes far apart in ``p``: a mean-1e12
    exponential's whole fall from ``u(kappa0)`` lies below the first node.
    So an interval at an end is kept only when the change of ``u(Q(p))``
    from the end to that node, times their distance in ``p``, is within
    ``_QUAD_ABS_TOL`` too.  An end at ``p = 1`` is not checked: the runtime
    there is infinite, ``u`` is 0, and the rule's weight vanishes.
    """
    width = b - a

    def p_at(s: float) -> float:
        # rounding can carry p past b, and past 1 no quantile is a number
        return min(b, a + width * s**3 * (10.0 - s * (15.0 - 6.0 * s)))

    def g(s: float) -> float:
        return u(dist.quantile(p_at(s))) * 30.0 * width * (s * (1.0 - s)) ** 2

    def settled(p_end: float, s_node: float) -> bool:
        if p_end == 1.0:
            return True
        p_node = p_at(s_node)
        step = u(dist.quantile(p_end)) - u(dist.quantile(p_node))
        return abs(step) * abs(p_node - p_end) <= _QUAD_ABS_TOL

    total = 0.0
    intervals = [(0.0, 1.0)]
    while intervals:
        lo, hi = intervals.pop()
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        values = [g(mid + half * x) + g(mid - half * x) for x in _NODES]
        values.append(g(mid))
        kronrod = half * sum(map(operator.mul, _KRONROD, values))
        gauss = half * sum(map(operator.mul, _GAUSS, values))
        if (
            abs(kronrod - gauss) <= _QUAD_ABS_TOL
            and (lo > 0.0 or settled(a, mid + half * _NODES[0]))
            and (hi < 1.0 or settled(b, mid - half * _NODES[0]))
        ):
            total += kronrod
        else:
            intervals += ((lo, mid), (mid, hi))
    return total


def expected_capped_utility(dist: RuntimeDistribution, u: UtilityFunction, kappa: float) -> float:
    """E[u(min(t, kappa))], by closed form for the atoms of ``TwoPoint``.

    For a continuous distribution with CDF ``F`` and quantile ``Q`` it is
    the integral of ``u(Q(p))`` over ``p`` in ``[0, F(kappa)]``, split at
    ``F(kappa0)`` where ``u`` has its kink, plus ``u(kappa) (1 - F(kappa))``
    for the runs that ``kappa`` caps.
    """
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
    top = dist.completion_probability(kappa)
    kink = min(dist.completion_probability(u.kappa0), top)
    body = _quantile_integral(dist, u, 0.0, kink) + _quantile_integral(dist, u, kink, top)
    return body + u(kappa) * (1.0 - top)


@functools.lru_cache(maxsize=None)
def true_capped_utility(dist: RuntimeDistribution, u: UtilityFunction, kappa: float) -> float:
    """The exact capped expected utility at ``kappa``; ``kappa = inf`` yields
    the uncapped expected utility.

    Distributions and utilities are frozen dataclasses, so the result is
    cached by value: every trial of a validation asks for the same truths,
    such as a parametric space's quantile at each phase's ``gamma_p``, and a
    finite pool's truths are computed once however often it is scanned.  The
    cache has no bound: it holds one small entry per distribution, utility
    and captime this process has asked about.
    """
    return expected_capped_utility(dist, u, kappa)


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
        # the one check of every recorded runtime: the round of
        # ``OupRun.step`` values a run without the utility's
        if not all(0.0 <= t < math.inf for row in runtimes for t in row):
            raise ValueError("recorded runtimes must be finite and nonnegative")
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
    runtimes of existing ones.  ``dists`` lists the configurations'
    distributions, in configuration order.
    """

    def __init__(self, distributions, seed: int):
        self.seed = int(seed)
        self.dists: list[RuntimeDistribution] = list(distributions)
        self._tables: dict[int, tuple] = {}

    @property
    def n_configs(self) -> int:
        return len(self.dists)

    def reseeded(self, seed: int) -> "SyntheticOracle":
        """A fresh oracle over this one's configurations that draws from
        ``seed``'s streams: the oracle that the same pool file gives at
        ``seed``, as long as no configuration was added to this one."""
        return SyntheticOracle(self.dists, seed)

    def add_config(self, dist: RuntimeDistribution) -> int:
        self.dists.append(dist)
        return len(self.dists) - 1

    def name(self, config: int) -> str:
        return self.dists[config].label()

    def runtime_of(self, config: int):
        """``(times, draw)`` of ``config``, made on its first request.

        ``draw`` grows ``times``, an ``array('d')``, by whole blocks of
        ``rng.grown_size``, each drawn in order from the configuration's
        runtime stream and mapped to runtimes at once; the uniforms are not
        kept."""
        table = self._tables.get(config)
        if table is None:
            generator = stream_generator(self.seed, RUNTIME_STREAM, config)
            to_runtimes = self.dists[config].runtimes_from_uniforms
            times = array("d")

            def draw(instance: int) -> float:
                size = len(times)
                if instance >= size:
                    times.fromlist(to_runtimes(generator.random(grown_size(instance) - size)))
                return times[instance]

            table = self._tables[config] = (times, draw)
        return table

    def true_utility(self, config: int, u: UtilityFunction) -> float:
        return true_capped_utility(self.dists[config], u, math.inf)

    def true_utilities(self, u: UtilityFunction) -> list[float]:
        return [self.true_utility(c, u) for c in range(self.n_configs)]


RuntimeOracle = MatrixOracle | SyntheticOracle

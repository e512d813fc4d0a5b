"""Confidence widths, bound snapshots, and captime-doubling rules.

The confidence width for a configuration observed ``m`` times at captime
``kappa`` is

    alpha(m, kappa) = sqrt( ln(11 n m^2 (log2(kappa) + 1)^2 / delta) / (2 m) )

for a fixed pool of ``n`` configurations, and

    alpha_p(m, kappa) = sqrt( ln(36 p^2 n_p m^2 (log2(kappa) + 1)^2 / delta) / (2 m) )

inside phase ``p`` of a phased run over a pool of size ``n_p``.  The log is
base 2 because captimes live on the doubling grid ``kappa = 2^(l-1)``; the
union bound behind the width is indexed by ``l = log2(kappa) + 1``.
Within a run (or a phase) only ``m`` and ``kappa`` vary, so
``width_at(ctx, kappa)`` binds the rest and returns the width as a function
of ``m``, and the round reads it through ``width_table``.

Upper and lower utility bounds for empirical mean utility ``u_hat`` and
completion fraction ``f_hat`` at captime ``kappa`` are

    UCB = u_hat + (1 - u(kappa)) * alpha
    LCB = u_hat - alpha - u(kappa) * (1 - f_hat)

so the width obeys the exact identity

    UCB - LCB = (2 - u(kappa)) * alpha + u(kappa) * (1 - f_hat)

which holds to floating-point accuracy at every snapshot and serves as a
test oracle.  Bounds are never clamped to [0, 1]; clamping would break the
identity, and consumers only ever compare bounds.

A captime-doubling rule is the two terms ``(lead, share)`` of one test,
which fires while

    lead * alpha <= u(kappa) * (1 - f_hat + share * alpha)

``doubling_old`` gives ``(2, 0)`` and ``doubling_new`` gives
``(2 (1 - u(kappa)), 1)``.  Both terms depend on ``u(kappa)`` alone, which
changes only when the captime doubles, so the round of ``OupRun.step``
binds them at a streak's start and after each doubling and evaluates the
test inline, with no call per pull.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class BoundContext:
    """Pool size, failure probability, and (for phased runs) the phase index."""

    n: int
    delta: float
    phase: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"pool size must be at least 1, got {self.n}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"failure probability must lie in (0, 1), got {self.delta}")
        if self.phase is not None and self.phase < 1:
            raise ValueError(f"phase index must be at least 1, got {self.phase}")


# captimes live on the doubling grid 1, 2, 4, ..., up to the largest finite
# power of two; a width looks its captime's level up here once per captime
_GRID_LEVELS = {2.0**level: level for level in range(1024)}


def width_at(ctx: BoundContext, kappa: float):
    """The confidence width at captime kappa, as a function of m >= 1.

    Checks the captime and binds what no count at it changes: the lead
    constant times ``n``, ``delta`` and the squared grid level, which it
    looks up in a table of the doubling grid, so a captime off the grid
    raises ``ValueError``.  Each call computes only the terms in ``m``.
    This is the one place the formula is written: ``alpha`` returns
    ``width_at(ctx, kappa)(m)``, and ``width_table`` reads through it.
    """
    level = _GRID_LEVELS.get(kappa)
    if level is None:
        raise ValueError(f"captime must be a power of two and at least 1, got {kappa}")
    log_term = (level + 1) ** 2
    lead = 11.0 if ctx.phase is None else 36.0 * ctx.phase * ctx.phase
    n = ctx.n
    scale = lead * n
    delta = ctx.delta
    inf = math.inf
    log = math.log
    sqrt = math.sqrt

    def width(m: int) -> float:
        arg = scale * m * m * log_term / delta
        if arg == inf:
            # a tiny delta overflows the product, though its log is modest; only
            # then is the log summed over the factors, so finite cases keep their bits
            log_arg = log(lead) + log(n) + log(m * m) + log(log_term) - log(delta)
            return sqrt(log_arg / (2.0 * m))
        return sqrt(log(arg) / (2.0 * m))

    return width


class WidthTable(dict):
    """The memo that ``width_table`` returns: ``table[m]`` is ``width(m)``."""

    __slots__ = ("width",)

    def __init__(self, width):
        self.width = width

    def __missing__(self, m: int) -> float:
        value = self[m] = self.width(m)
        return value


# the most width tables kept at once.  A run reads the tables of its context,
# one per captime it reaches (at most 1024), and a validation's trials share
# one context; a phased run switches context every phase, so old phases'
# tables are dropped first.
_WIDTH_TABLES = 256


@functools.lru_cache(maxsize=_WIDTH_TABLES)
def width_table(ctx: BoundContext, kappa: float) -> WidthTable:
    """The widths at captime kappa, as a memo over ``width_at(ctx, kappa)``.

    Reading ``table[m]``, for ``m >= 1``, returns ``width_at(ctx,
    kappa)(m)``; the ``WidthTable``'s ``__missing__`` computes and stores
    it on the first read of ``m``, so a count that no arm reads is never
    computed.  Tables are cached by value of the context and captime for
    the whole process, least recently used dropped first, so every arm,
    run and trial with the same ones, such as the trials of a validation,
    shares them.  A width is a pure function of the context, captime and
    count, so sharing changes no result.  A stored width costs a dict
    entry, several times a slot of a dense table of every count, so a deep
    run's tables hold more memory than dense ones would for the fewer
    counts they hold.
    """
    return WidthTable(width_at(ctx, kappa))


def alpha(ctx: BoundContext, m: int, kappa: float) -> float:
    """Confidence width after m observations at captime kappa.

    Strictly decreasing in m, weakly increasing in kappa, increasing as
    delta shrinks.  Undefined at m = 0: fresh configurations share the
    sentinel snapshot ``FRESH`` (UCB = 1, LCB = 0) instead.
    """
    if m < 1:
        raise ValueError("confidence width is undefined before the first observation")
    return width_at(ctx, kappa)(m)


def doubling_old(u_at_kappa: float) -> tuple[float, float]:
    """Double the captime once sampling error falls below the capping error:
    ``2 alpha <= u(kappa) (1 - f_hat)``."""
    return 2.0, 0.0


def doubling_new(u_at_kappa: float) -> tuple[float, float]:
    """Balanced rule: compare the two terms of the exact confidence width.

    The width splits into ``2 (1 - u(kappa)) alpha`` (uncertainty from runs
    below the captime) plus ``u(kappa) (1 - f_hat + alpha)`` (uncertainty
    from runs above it); doubling fires while the second term dominates.
    """
    return 2.0 * (1.0 - u_at_kappa), 1.0


DOUBLING_RULES = {"old": doubling_old, "new": doubling_new}


class BoundSnapshot(NamedTuple):
    """The bounds of one configuration that the engine reads.

    ``f_hat`` is the completion fraction the next pull's doubling rule
    reads, ``u_at_kappa`` the utility at the arm's captime that the next
    pull reuses (a change of bound context, ``OupRun._enter``, reuses both),
    and ``ucb`` and ``lcb`` the keys of the bound index.  The
    observation count and captime live on the arm; ``u_hat`` and ``alpha``
    are intermediates that are not kept.  A named tuple because one is
    built at the end of every streak of pulls: a tuple is built without a
    per-field ``__setattr__``.
    """

    f_hat: float
    u_at_kappa: float
    ucb: float
    lcb: float


# the sentinel bounds of every configuration never run; one immutable
# snapshot that every fresh arm shares, since no bound context enters it
FRESH = BoundSnapshot(0.0, math.nan, 1.0, 0.0)

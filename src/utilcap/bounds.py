"""Confidence widths, bound snapshots, and captime-doubling rules.

The confidence width for a configuration observed ``m`` times at captime
``kappa`` is

    alpha(m, kappa) = sqrt( ln(11 n m^2 (log2(kappa) + 1)^2 / delta) / (2 m) )

for a fixed pool of ``n`` configurations, and

    alpha_p(m, kappa) = sqrt( ln(36 p^2 n_p m^2 (log2(kappa) + 1)^2 / delta) / (2 m) )

inside phase ``p`` of a phased run over a pool of size ``n_p``.  The log is
base 2 because captimes live on the doubling grid ``kappa = 2^(l-1)``; the
union bound behind the width is indexed by ``l = log2(kappa) + 1``.

Upper and lower utility bounds for empirical mean utility ``u_hat`` and
completion fraction ``f_hat`` at captime ``kappa`` are

    UCB = u_hat + (1 - u(kappa)) * alpha
    LCB = u_hat - alpha - u(kappa) * (1 - f_hat)

so the width obeys the exact identity

    UCB - LCB = (2 - u(kappa)) * alpha + u(kappa) * (1 - f_hat)

which holds to floating-point accuracy at every snapshot and serves as a
test oracle.  Bounds are never clamped to [0, 1]; clamping would break the
identity, and consumers only ever compare bounds.
"""

from __future__ import annotations

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
# power of two; a width looks its captime's level up here on every pull
_GRID_LEVELS = {2.0**level: level for level in range(1024)}


def alpha(ctx: BoundContext, m: int, kappa: float) -> float:
    """Confidence width after m observations at captime kappa.

    Strictly decreasing in m, weakly increasing in kappa, increasing as
    delta shrinks.  Undefined at m = 0: fresh configurations share the
    sentinel snapshot ``FRESH`` (UCB = 1, LCB = 0) instead.
    """
    if m < 1:
        raise ValueError("confidence width is undefined before the first observation")
    level = _GRID_LEVELS.get(kappa)
    if level is None:
        raise ValueError(f"captime must be a power of two and at least 1, got {kappa}")
    log_term = (level + 1) ** 2
    lead = 11.0 if ctx.phase is None else 36.0 * ctx.phase * ctx.phase
    arg = lead * ctx.n * m * m * log_term / ctx.delta
    if arg == math.inf:
        # a tiny delta overflows the product, though its log is modest; only
        # then is the log summed over the factors, so finite cases keep their bits
        log_arg = (
            math.log(lead)
            + math.log(ctx.n)
            + math.log(m * m)
            + math.log(log_term)
            - math.log(ctx.delta)
        )
        return math.sqrt(log_arg / (2.0 * m))
    return math.sqrt(math.log(arg) / (2.0 * m))


def doubling_old(alpha_value: float, u_at_kappa: float, f_hat: float) -> bool:
    """Double the captime once sampling error falls below the capping error."""
    return 2.0 * alpha_value <= u_at_kappa * (1.0 - f_hat)

def doubling_new(alpha_value: float, u_at_kappa: float, f_hat: float) -> bool:
    """Balanced rule: compare the two terms of the exact confidence width.

    The width splits into ``2 (1 - u(kappa)) alpha`` (uncertainty from runs
    below the captime) plus ``u(kappa) (1 - f_hat + alpha)`` (uncertainty
    from runs above it); doubling fires while the second term dominates.
    """
    return 2.0 * (1.0 - u_at_kappa) * alpha_value <= u_at_kappa * (1.0 - f_hat + alpha_value)


DOUBLING_RULES = {"old": doubling_old, "new": doubling_new}


class BoundSnapshot(NamedTuple):
    """The bounds of one configuration that the engine reads.

    ``f_hat`` is the completion fraction the next pull's doubling rule
    reads, ``u_at_kappa`` the utility at the arm's captime that the next
    pull reuses, and ``ucb`` and ``lcb`` the keys of the bound index.  The
    observation count and captime live on the arm; ``u_hat`` and ``alpha``
    are intermediates that are not kept.  A named tuple because one is
    built on every pull: a tuple is built without a per-field
    ``__setattr__``.
    """

    f_hat: float
    u_at_kappa: float
    ucb: float
    lcb: float


# the sentinel bounds of every configuration never run; one immutable
# snapshot that every fresh arm shares, since no bound context enters it
FRESH = BoundSnapshot(0.0, math.nan, 1.0, 0.0)

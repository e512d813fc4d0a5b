"""Utility functions over runtimes.

A utility function maps a runtime in seconds to a value in [0, 1].  It is 1
at t = 0 and weakly decreasing in t.  Every shape is one formula over the
pivot ``kappa0``, a decay exponent ``a`` and two constants, ``near`` and
``far``:

    u(t) = 1 - near * (t / kappa0)^a     for t < kappa0
    u(t) = far * (kappa0 / t)^a          for t >= kappa0

Two shapes are provided:

* log-Laplace: ``near = far = 1/2``, with the field ``a``.  Both branches
  meet at 1/2, and the tail decays polynomially but never reaches zero.
* uniform: ``near = 1``, ``a = 1`` and ``far = 0``, so ``1 - t/kappa0``
  below ``kappa0`` and exactly zero from there on (``x ** 1.0 == x``).

``near``, ``far`` and the uniform shape's ``a`` are class constants, not
dataclass fields, so equality, hashing and ``repr`` see only the
parameters a spec gives.  ``UtilityShape.__call__`` is the one place the
formula is written in full; the round of ``OupRun.step`` binds a shape's
constants and values its completed runs with the same expression inline.

The decay exponent of the log-Laplace shape is called ``a`` to keep it
clearly apart from the confidence width alpha used elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

from .records import spec_items


class UtilityShape:
    """The valuation every shape shares, over the shape's constants."""

    def __call__(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"runtime must be nonnegative, got {t}")
        kappa0 = self.kappa0
        if t < kappa0:
            return 1.0 - self.near * (t / kappa0) ** self.a
        return self.far * (kappa0 / t) ** self.a


@dataclass(frozen=True)
class LogLaplaceUtility(UtilityShape):
    kappa0: float
    a: float = 1.0
    near = far = 0.5

    def __post_init__(self):
        if not 0 < self.kappa0 < math.inf:
            raise ValueError(f"kappa0 must be positive and finite, got {self.kappa0}")
        if not 0 < self.a < math.inf:
            raise ValueError(f"decay exponent must be positive and finite, got {self.a}")


@dataclass(frozen=True)
class UniformUtility(UtilityShape):
    kappa0: float
    near = a = 1.0
    far = 0.0

    def __post_init__(self):
        if not 0 < self.kappa0 < math.inf:
            raise ValueError(f"kappa0 must be positive and finite, got {self.kappa0}")


UtilityFunction = LogLaplaceUtility | UniformUtility


def parse_utility(text: str) -> UtilityFunction:
    """Parse a utility spec like ``loglaplace:kappa0=60,a=1`` or ``uniform:kappa0=60``."""
    name, _, rest = text.partition(":")
    name = name.strip().lower()
    shape = {"loglaplace": LogLaplaceUtility, "uniform": UniformUtility}.get(name)
    if shape is None:
        raise ValueError(f"unknown utility shape {name!r} (expected loglaplace or uniform)")
    defaults = {f.name: f.default for f in fields(shape)}
    items = [(repr(text), item) for item in rest.split(",")] if rest else []
    params = spec_items(items, tuple(defaults), "utility parameter")
    missing = [k for k, default in defaults.items() if default is MISSING and k not in params]
    if missing:
        raise ValueError(f"missing parameters for utility {name!r}: {missing}")
    for key, value in params.items():
        try:
            params[key] = float(value)
        except ValueError:
            raise ValueError(f"bad utility parameter value {value!r} in {text!r}") from None
    return shape(**params)

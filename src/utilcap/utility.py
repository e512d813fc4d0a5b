"""Utility functions over runtimes.

A utility function maps a runtime in seconds to a value in [0, 1].  It is 1
at t = 0 and weakly decreasing in t.  Two shapes are provided:

* log-Laplace: ``1 - (t/kappa0)^a / 2`` below the pivot ``kappa0`` and
  ``(kappa0/t)^a / 2`` at or above it.  Both branches meet at 1/2, and the
  tail decays polynomially but never reaches zero.
* uniform: ``1 - t/kappa0`` below ``kappa0`` and exactly zero from there on.

The decay exponent of the log-Laplace shape is called ``a`` to keep it
clearly apart from the confidence width alpha used elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields


@dataclass(frozen=True)
class LogLaplaceUtility:
    kappa0: float
    a: float = 1.0

    def __post_init__(self):
        if not 0 < self.kappa0 < math.inf:
            raise ValueError(f"kappa0 must be positive and finite, got {self.kappa0}")
        if not 0 < self.a < math.inf:
            raise ValueError(f"decay exponent must be positive and finite, got {self.a}")

    def __call__(self, t: float) -> float:
        # checked inline: a utility is called on every run
        if t < 0:
            raise ValueError(f"runtime must be nonnegative, got {t}")
        if t < self.kappa0:
            return 1.0 - 0.5 * (t / self.kappa0) ** self.a
        return 0.5 * (self.kappa0 / t) ** self.a


@dataclass(frozen=True)
class UniformUtility:
    kappa0: float

    def __post_init__(self):
        if not 0 < self.kappa0 < math.inf:
            raise ValueError(f"kappa0 must be positive and finite, got {self.kappa0}")

    def __call__(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"runtime must be nonnegative, got {t}")
        if t < self.kappa0:
            return 1.0 - t / self.kappa0
        return 0.0


UtilityFunction = LogLaplaceUtility | UniformUtility


def parse_utility(text: str) -> UtilityFunction:
    """Parse a utility spec like ``loglaplace:kappa0=60,a=1`` or ``uniform:kappa0=60``."""
    name, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"bad utility parameter {item!r} in {text!r}")
            key = key.strip()
            if key in params:
                raise ValueError(f"utility parameter {key!r} given twice in {text!r}")
            try:
                params[key] = float(value)
            except ValueError:
                raise ValueError(f"bad utility parameter value {value!r} in {text!r}") from None
    name = name.strip().lower()
    shape = {"loglaplace": LogLaplaceUtility, "uniform": UniformUtility}.get(name)
    if shape is None:
        raise ValueError(f"unknown utility shape {name!r} (expected loglaplace or uniform)")
    defaults = {f.name: f.default for f in fields(shape)}
    unknown = sorted(params.keys() - defaults.keys())
    if unknown:
        raise ValueError(f"unknown parameters for utility {name!r}: {unknown}")
    missing = [k for k, default in defaults.items() if default is MISSING and k not in params]
    if missing:
        raise ValueError(f"missing parameters for utility {name!r}: {missing}")
    return shape(**params)

"""Deterministic counter-based random streams.

All simulated randomness flows through keyed Philox streams.  A logical
stream is identified by ``(seed, purpose, index)``; Philox is counter-based
and the key is derived through ``SeedSequence``, so every stream is a pure
function of its identifier.  Streams are materialized lazily in blocks,
which makes the j-th draw independent of access order and of how many other
streams exist: adding configurations never perturbs the runtimes of existing
ones.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

# Purpose codes for stream splitting.
RUNTIME_STREAM = 0      # per-configuration runtime draws, one uniform per instance
PERMUTATION_STREAM = 1  # dataset column order
SAMPLER_STREAM = 2      # configuration sampling draws

_BLOCK = 256


def stream_generator(seed: int, purpose: int, index: int = 0) -> Generator:
    """Fresh generator positioned at the start of the identified stream."""
    return Generator(Philox(SeedSequence([int(seed), int(purpose), int(index)])))


class UniformStream:
    """Lazily materialized stream of uniform doubles on [0, 1).

    ``value(j)`` returns the j-th double of the stream regardless of which
    draws were requested before it; the buffer only ever grows at its end.
    """

    def __init__(self, seed: int, purpose: int, index: int = 0):
        self._gen = stream_generator(seed, purpose, index)
        self._values = np.empty(0, dtype=np.float64)

    def value(self, j: int) -> float:
        if j < 0:
            raise IndexError(f"stream position must be nonnegative, got {j}")
        if j >= self._values.size:
            # at least double the buffer, so a long stream costs amortized
            # O(1) copying per draw; draws do not depend on the chunking
            size = max(((j // _BLOCK) + 1) * _BLOCK, 2 * self._values.size)
            need = size - self._values.size
            self._values = np.concatenate([self._values, self._gen.random(need)])
        return float(self._values[j])


def seeded_permutation(n: int, seed: int, index: int = 0) -> tuple[int, ...]:
    """Fisher-Yates permutation of range(n) driven by a keyed stream.

    Implemented directly over uniform doubles rather than a library shuffle
    so the result depends only on the Philox bit stream, not on the RNG
    library's shuffle implementation.
    """
    order = list(range(n))
    stream = UniformStream(seed, PERMUTATION_STREAM, index)
    draw = 0
    for i in range(n - 1, 0, -1):
        j = int(stream.value(draw) * (i + 1))
        draw += 1
        order[i], order[j] = order[j], order[i]
    return tuple(order)

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
    It is a list of Python floats, the same doubles the generator drew, so a
    draw is read without converting a numpy scalar.
    """

    def __init__(self, seed: int, purpose: int, index: int = 0):
        self._gen = stream_generator(seed, purpose, index)
        self._values: list[float] = []

    def value(self, j: int) -> float:
        if j < 0:
            raise IndexError(f"stream position must be nonnegative, got {j}")
        values = self._values
        if j >= len(values):
            # at least double the buffer, so a long stream draws in amortized
            # O(1) per value; draws do not depend on the chunking
            size = max(((j // _BLOCK) + 1) * _BLOCK, 2 * len(values))
            values += self._gen.random(size - len(values)).tolist()
        return values[j]


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

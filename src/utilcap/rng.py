"""Deterministic counter-based random streams.

All simulated randomness flows through keyed Philox streams.  A logical
stream is identified by ``(seed, purpose, index)``; Philox is counter-based
and the key is derived through ``SeedSequence``, so every stream is a pure
function of its identifier.  Streams are materialized lazily in blocks,
which makes the j-th draw independent of access order and of how many other
streams exist: adding configurations never perturbs the runtimes of existing
ones.  A stream grows one whole block at a time, to the block that holds the
draw asked for, so it holds at most a block beyond the last draw read.
``UniformStream`` keeps the uniforms of a stream (the samplers and the
dataset column order read them); a synthetic oracle draws the same blocks
from ``stream_generator`` itself, sized by ``grown_size``, and keeps only
the runtimes it maps them to.
"""

from __future__ import annotations

from numpy.random import Generator, Philox, SeedSequence

# Purpose codes for stream splitting.
RUNTIME_STREAM = 0      # per-configuration runtime draws, one uniform per instance
PERMUTATION_STREAM = 1  # dataset column order
SAMPLER_STREAM = 2      # configuration sampling draws

_BLOCK = 128


def stream_generator(seed: int, purpose: int, index: int = 0) -> Generator:
    """Fresh generator positioned at the start of the identified stream."""
    return Generator(Philox(SeedSequence([int(seed), int(purpose), int(index)])))


def grown_size(j: int) -> int:
    """The length a buffer of draws grows to so that it holds draw ``j``:
    the end of the block of 128 that holds ``j``, so a buffer never holds
    more than 127 draws past the last one read.  The draws do not depend on
    the chunking, so a buffer grown block by block holds the values of one
    large draw."""
    return ((j // _BLOCK) + 1) * _BLOCK


class UniformStream:
    """Lazily materialized stream of uniform doubles on [0, 1).

    ``value(j)`` returns the j-th double of the stream regardless of which
    draws were requested before it.  The buffer ``values`` holds the draws
    made so far and only ever grows, in place, at its end, so a reader may
    keep it and index it directly below its length.  It is a list of Python
    floats, the same doubles the generator drew, so a draw is read without
    converting a numpy scalar.
    """

    def __init__(self, seed: int, purpose: int, index: int = 0):
        self._gen = stream_generator(seed, purpose, index)
        self.values: list[float] = []

    def value(self, j: int) -> float:
        if j < 0:
            raise IndexError(f"stream position must be nonnegative, got {j}")
        values = self.values
        if j >= len(values):
            values += self._gen.random(grown_size(j) - len(values)).tolist()
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

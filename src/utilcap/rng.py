"""Deterministic counter-based random streams.

All simulated randomness flows through keyed Philox streams.  A logical
stream is identified by ``(seed, purpose, index)``; Philox is counter-based
and the key is derived through ``SeedSequence``, so every stream is a pure
function of its identifier, and its draws do not depend on how they are
chunked: k draws and then m give the values of one draw of k + m.  Every
reader takes a ``stream_generator`` and draws from it in order.  A
sampler draws the uniforms of the configurations it is asked for in one
call, and ``coup`` asks for one at a time, as its run reaches each; the
dataset column order draws its uniforms in one call.  A synthetic oracle grows each
configuration's runtime table one block at a time, to the block that holds
the instance asked for (``grown_size``), and keeps only the runtimes it
maps the uniforms to; adding configurations never perturbs the runtimes of
existing ones.
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


def seeded_permutation(n: int, seed: int) -> tuple[int, ...]:
    """Fisher-Yates permutation of range(n) driven by a keyed stream.

    Implemented directly over uniform doubles rather than a library shuffle
    so the result depends only on the Philox bit stream, not on the RNG
    library's shuffle implementation.
    """
    order = list(range(n))
    uniforms = stream_generator(seed, PERMUTATION_STREAM).random(n - 1).tolist()
    for i, v in zip(range(n - 1, 0, -1), uniforms):
        j = int(v * (i + 1))
        order[i], order[j] = order[j], order[i]
    return tuple(order)

from utilcap.rng import (
    PERMUTATION_STREAM,
    RUNTIME_STREAM,
    UniformStream,
    seeded_permutation,
    stream_generator,
)


def test_stream_is_pure_function_of_key():
    a = UniformStream(7, RUNTIME_STREAM, 3)
    b = UniformStream(7, RUNTIME_STREAM, 3)
    assert [a.value(j) for j in range(20)] == [b.value(j) for j in range(20)]


def test_access_order_does_not_matter():
    a = UniformStream(7, RUNTIME_STREAM, 3)
    b = UniformStream(7, RUNTIME_STREAM, 3)
    forward = [a.value(j) for j in range(600)]
    scattered = [b.value(j) for j in (599, 3, 0, 17, 255, 256)]
    assert scattered == [forward[j] for j in (599, 3, 0, 17, 255, 256)]


def test_streams_split_by_every_key_component():
    def first8(seed, purpose, index):
        s = UniformStream(seed, purpose, index)
        return [s.value(j) for j in range(8)]

    base = first8(1, RUNTIME_STREAM, 0)
    assert base != first8(2, RUNTIME_STREAM, 0)
    assert base != first8(1, PERMUTATION_STREAM, 0)
    assert base != first8(1, RUNTIME_STREAM, 1)


def test_generator_matches_stream():
    gen = stream_generator(5, RUNTIME_STREAM, 2)
    s = UniformStream(5, RUNTIME_STREAM, 2)
    assert list(gen.random(10)) == [s.value(j) for j in range(10)]


def test_seeded_permutation_is_bijection_and_stable():
    p = seeded_permutation(40, seed=9)
    assert sorted(p) == list(range(40))
    assert p == seeded_permutation(40, seed=9)
    assert p != seeded_permutation(40, seed=10)


def test_seeded_permutation_small_sizes():
    assert seeded_permutation(1, seed=0) == (0,)
    assert sorted(seeded_permutation(2, seed=0)) == [0, 1]

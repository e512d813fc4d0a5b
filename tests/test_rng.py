import utilcap as uc
from utilcap.rng import (
    PERMUTATION_STREAM,
    RUNTIME_STREAM,
    SAMPLER_STREAM,
    seeded_permutation,
    stream_generator,
)


def first8(seed, purpose, index):
    return stream_generator(seed, purpose, index).random(8).tolist()


def test_stream_is_pure_function_of_key():
    assert first8(7, RUNTIME_STREAM, 3) == first8(7, RUNTIME_STREAM, 3)


def test_streams_split_by_every_key_component():
    base = first8(1, RUNTIME_STREAM, 0)
    assert base != first8(2, RUNTIME_STREAM, 0)
    assert base != first8(1, PERMUTATION_STREAM, 0)
    assert base != first8(1, RUNTIME_STREAM, 1)


def test_samplers_read_their_stream_in_order():
    # a sampler's draws do not depend on how they are chunked into phases:
    # sample(a) then sample(b) gives what one sample(a + b) gives.  Draws
    # are compared by the names of the configurations they give, which
    # tell the pool's distinct means and the space's thetas apart.
    make = uc.exponential_mean_map(0.1, 10000.0)
    pool = [uc.Exponential(float(m)) for m in range(1, 41)]

    def drawn(sampler, *sizes):
        return [sampler.oracle.name(c) for k in sizes for c in sampler.sample(k)]

    def samplers(seed):
        return {
            "with replacement": uc.FinitePoolSampler(uc.SyntheticOracle(pool, seed), seed),
            "without replacement": uc.FinitePoolSampler(
                uc.SyntheticOracle(pool, seed), seed, replace=False
            ),
            "parametric": uc.ParametricSampler(uc.SyntheticOracle([], seed), seed, make),
        }

    for seed in (0, 5):
        for a, b in ((1, 1), (3, 17), (6, 0), (0, 9)):
            chunked, whole = samplers(seed), samplers(seed)
            for mode, sampler in chunked.items():
                assert drawn(sampler, a, b) == drawn(whole[mode], a + b), (mode, seed, a, b)
    # the parametric sampler registers make(v_j) for the j-th uniform of its
    # stream, as configurations 0, 1, ... of its oracle
    oracle = uc.SyntheticOracle([], 5)
    sampler = uc.ParametricSampler(oracle, 5, make)
    assert sampler.sample(4) + sampler.sample(6) == list(range(10))
    uniforms = stream_generator(5, SAMPLER_STREAM).random(10).tolist()
    assert [oracle.name(c) for c in range(10)] == [make(v).label() for v in uniforms]
    assert oracle.n_configs == 10


def test_seeded_permutation_is_bijection_and_stable():
    p = seeded_permutation(40, seed=9)
    assert sorted(p) == list(range(40))
    assert p == seeded_permutation(40, seed=9)
    assert p != seeded_permutation(40, seed=10)


def test_seeded_permutation_small_sizes():
    assert seeded_permutation(1, seed=0) == (0,)
    assert sorted(seeded_permutation(2, seed=0)) == [0, 1]

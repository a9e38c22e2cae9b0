import numpy as np

from asrnoise.rng import derive_seed, mix64, uniforms_at


def _reference(seed, position):
    """One draw in plain Python integers: SplitMix64 of the seed's base plus
    ``position + 1`` golden-ratio increments, top 53 bits over 2**53."""
    golden = 0x9E3779B97F4A7C15
    x = mix64((mix64(seed ^ golden) + (position + 1) * golden) & ((1 << 64) - 1))
    return (x >> 11) * 2.0**-53


def test_an_array_of_seeds_draws_as_each_seed_alone():
    seeds = [0, 1, 2**63, 2**64 - 1] + [derive_seed(7, i) for i in range(6)]
    counters = (np.array([0, 3, 40])[:, None] + 1) * 2**32 + np.arange(4)
    together = uniforms_at(np.array(seeds, dtype=np.uint64)[:, None, None], counters)
    assert together.shape == (len(seeds), *counters.shape)
    for seed, draws in zip(seeds, together):
        assert draws.tobytes() == uniforms_at(seed, counters).tobytes()


def test_draws_match_the_integer_reference():
    for seed in (0, 5, 2**64 - 1, derive_seed(3, 9)):
        for position in (0, 1, 17, 2**32 + 4, 2**40 * 3):
            assert float(uniforms_at(seed, position)) == _reference(seed, position)

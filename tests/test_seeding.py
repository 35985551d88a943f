"""The trial streams: every trial's PCG64 seeded in one array program must
equal numpy's SeedSequence children, word for word and draw for draw."""

import numpy as np
import pytest

from amwave.cli import _uniform
from amwave.seeding import seeded_generators, spawn_states
from amwave.zitter import DiracContext

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3, 2**200)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", (1, 2, 37, 300))
def test_spawned_streams_equal_numpys_children_word_for_word_and_draw_for_draw(seed, n):
    children = np.random.SeedSequence(seed).spawn(n)
    want = np.array([child.generate_state(4, np.uint64) for child in children])
    got = spawn_states(seed, np.arange(n))
    assert got.dtype == np.uint64 and got.shape == (n, 4)
    assert got.tobytes() == want.tobytes()
    for rng, child in zip(seeded_generators(got), children):
        ref = np.random.default_rng(child)
        assert rng.random(3).tobytes() == ref.random(3).tobytes()
        assert rng.normal(size=2).tobytes() == ref.normal(size=2).tobytes()


@pytest.mark.parametrize("seed", (0, 42, 2**200))
def test_a_spawn_key_of_two_words_is_mixed_as_numpy_mixes_it(seed):
    # keys of 2**32 or more, with keys of one word in the same call
    keys = np.array([2**32, 3, 2**32 + 7, 2**40 + 3, 2**63 - 1, 2**64 - 1], dtype=np.uint64)
    want = np.array([np.random.SeedSequence(seed, spawn_key=(int(k),)).generate_state(4, np.uint64)
                     for k in keys])
    assert spawn_states(seed, keys).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed, keys", [(-1, [0]), (1, [-1]), (1, [0.5]), (1, [[0]])])
def test_a_negative_or_fractional_seed_or_key_is_refused(seed, keys):
    with pytest.raises(ValueError, match="non-negative integer"):
        spawn_states(seed, np.array(keys))


def test_no_keys_give_no_streams():
    assert spawn_states(7, np.arange(0)).shape == (0, 4)
    assert seeded_generators(spawn_states(7, np.arange(0))) == []


def test_a_spawned_seed_sequence_gives_only_the_words_pcg64_reads():
    seq = seeded_generators(spawn_states(5, [0]))[0].bit_generator.seed_seq
    assert seq.generate_state(4, np.uint64).tobytes() == spawn_states(5, [0])[0].tobytes()
    for n_words, dtype in ((4, np.uint32), (8, np.uint64)):
        with pytest.raises(ValueError):
            seq.generate_state(n_words, dtype)


def _zitter_time_highs():
    ctx = DiracContext(p=np.array([[0.0, 0.0, 0.2], [0.3, -0.9, 1.2], [1.0, 1.0, 1.0]]))
    wide = DiracContext(p=np.array([0.1, 0.2, 0.7]), hbar=1e3, c=3.0)
    return [float(hi) for hi in 4.0 * np.pi * ctx.hbar / ctx.energy] + [
        float(4.0 * np.pi * wide.hbar / wide.energy)]


@pytest.mark.parametrize("low, high", [(-1.0, 1.0), (0.0, np.pi / 2.0), (0.5, 1.0)]
                         + [(0.0, hi) for hi in _zitter_time_highs()])
def test_uniform_is_low_plus_range_times_random_bit_for_bit(low, high):
    size = 100_000
    want = np.random.default_rng(11).uniform(low, high, size)
    got = _uniform(low, high, np.random.default_rng(11).random(size))
    assert got.tobytes() == want.tobytes()

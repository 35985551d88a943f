"""Every trial's random stream, seeded in one array program.

Trial i draws from ``default_rng(SeedSequence(seed).spawn(trials)[i])``
(PCG64: O'Neill, HMC-CS-2014-0905).  The children share the run's mixed
entropy, so only each child's spawn word and the output hash run over the
trial axis, in uint32 arrays that wrap as SeedSequence's arithmetic does.
"""

from functools import cache

import numpy as np

MASK32, XSHIFT, POOL_SIZE = 0xFFFFFFFF, 16, 4
# SeedSequence's constants: entropy mix (A), output hash (B), mix multipliers
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# step j of a hash from constant init meets init * mult**j: output word 4 a + b
# hashes pool word b at OUTPUT_STEPS[a, b], and a spawn key's word a mixes into
# pool word b at KEY_STEPS[a, b] times the constant the key starts from
OUTPUT_STEPS, KEY_STEPS = (
    np.array([init * pow(mult, j, 1 << 32) & MASK32 for j in range(8)], np.uint32).reshape(2, 4)
    for init, mult in ((INIT_B, MULT_B), (1, MULT_A)))


def _hash(value: np.ndarray, const: np.ndarray, mult: int) -> np.ndarray:
    """SeedSequence's hashmix (mult A) or output hash (mult B) of uint32 words."""
    value = (value ^ const) * (const * mult)
    return value ^ value >> XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = MIX_MULT_L * x - MIX_MULT_R * y
    return result ^ result >> XSHIFT


def spawn_states(seed: int, keys) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64)`` for
    each i in ``keys``, shape (len(keys), 4).  A key of 2**32 or more is two
    spawn words, as numpy splits it."""
    from numpy.random import SeedSequence

    seed, keys = int(seed), np.asarray(keys)
    if seed < 0 or keys.ndim != 1 or keys.size and (keys.dtype.kind not in "iu" or keys.min() < 0):
        raise ValueError("the seed and each spawn key must be a non-negative integer")
    # a child pads the run's words to the pool and mixes them, 4 hash steps each
    words = [seed >> s & MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (POOL_SIZE - len(words))
    pool = SeedSequence(np.array(words, dtype=np.uint32)).pool
    consts = (INIT_A * pow(MULT_A, 4 * len(words), 1 << 32) & MASK32) * KEY_STEPS
    keys = keys.astype(np.uint64)
    pool = _mix(pool, _hash(keys.astype(np.uint32)[:, None], consts[0], MULT_A))
    if (high := keys >> np.uint64(32)).any():
        mixed = _mix(pool, _hash(high.astype(np.uint32)[:, None], consts[1], MULT_A))
        pool = np.where(high[:, None] != 0, mixed, pool)
    state = _hash(pool[:, None, :], OUTPUT_STEPS, MULT_B).reshape(len(keys), 8)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@cache
def _seeded_generator():
    """words -> a Generator on PCG64 seeded with them, built on first use, so
    importing the package does not import numpy.random."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class KnownWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != POOL_SIZE or np.dtype(dtype) != np.uint64:
                raise ValueError("holds only the four uint64 words that seed PCG64")
            return self.words

    return lambda words: Generator(PCG64(KnownWords(words)))


def seeded_generators(states: np.ndarray) -> list:
    """For each row of ``spawn_states(seed, keys)``, the Generator of that key's child."""
    return list(map(_seeded_generator(), states))

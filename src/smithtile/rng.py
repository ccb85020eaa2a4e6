"""Seeded counter-based random generator used across the package."""

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class _Key(ISeedSequence):
    """A seed sequence whose state is one 64-bit key.  Philox keyed through
    it draws the stream of ``Philox(key=key)`` without first building an
    unused ``SeedSequence`` from OS entropy."""

    def __init__(self, key):
        self.key = np.uint64(key)       # raises on a negative or too large seed

    def generate_state(self, n_words, dtype=np.uint64):
        state = np.zeros(n_words, dtype=np.uint64)
        state[0] = self.key
        return state


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator keyed by an explicit 64-bit seed; streams are
    reproducible across platforms and runs."""
    return np.random.Generator(np.random.Philox(_Key(seed)))

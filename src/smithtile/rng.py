"""Seeded counter-based random generator used across the package.

Philox is counter-based: its stream is fixed by a key and a counter
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).
Setting the key and a zero counter on an existing generator therefore gives
the stream of a new one, without building it.
"""

import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class _Key(ISeedSequence):
    """A seed sequence whose state is one 64-bit key.  Philox keyed through
    it draws the stream of ``Philox(key=key)`` without first building an
    unused ``SeedSequence`` from OS entropy."""

    def __init__(self, key):
        # raises on a negative or too large seed, and on one that is not an
        # integer (np.uint64 would truncate a float to another seed's key)
        self.key = np.uint64(operator.index(key))

    def generate_state(self, n_words, dtype=np.uint64):
        state = np.zeros(n_words, dtype=np.uint64)
        state[0] = self.key
        return state


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator keyed by an explicit 64-bit seed; streams are
    reproducible across platforms and runs."""
    return np.random.Generator(np.random.Philox(_Key(seed)))


# keyed through _Key, so that importing the module draws no OS entropy
_SHARED = np.random.Generator(np.random.Philox(_Key(0)))
_ZEROS = (0, 0, 0, 0)


def rekeyed_rng(seed: int) -> np.random.Generator:
    """One process-wide generator, re-keyed to the stream of ``make_rng(seed)``:
    counter 0, key (seed, 0) and an empty buffer.  Re-keying costs a fraction
    of a new generator's build.

    The next call re-keys the same generator, so a caller must consume the
    stream before it makes or lets another call, and must not hand the
    generator out; calls from two threads at once are not safe.  Raises the
    ``OverflowError`` of ``make_rng`` on a seed outside [0, 2**64), and its
    ``TypeError`` on a seed that is not an integer."""
    _SHARED.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": (np.uint64(operator.index(seed)), 0)},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return _SHARED

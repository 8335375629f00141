"""Deterministic random-stream construction.

Two stream families, each a pure function of integer indices:

- Serial and multichain streams are PCG64 generators seeded by
  ``SeedSequence(entropy=seed, spawn_key=(chain_index,))``. A chain builds
  its stream once and consumes it continuously.

- Fork-join attempt streams are counter-based (Salmon et al. 2011, "Parallel
  random numbers: as easy as 1, 2, 3"). The run's Philox4x64 key is the two
  64-bit words ``SeedSequence(seed).generate_state(2, uint64)``, derived once
  per ``RoundGenerator``. Proposal attempt ``n`` owns the counter blocks
  whose two high words are ``(n, 0)``, the attempt and the chain: its stream
  starts at counter ``(0, 0, n, 0)`` and its draws advance only the two low
  words, so no attempt's stream can run into another's, and any worker may
  draw it. Nothing is hashed or built per stream: a ``RoundGenerator`` owns
  one Philox bit generator and one Generator and reseats them by assigning a
  reused state dict whose counter list is rewritten in place.

Lifetime rule: the Generator that ``round_stream`` returns is the owner's one
Generator, valid only until that owner's next reseat. Owners share nothing,
so two of them may be used in alternation.
"""

from __future__ import annotations

import numpy as np


def chain_stream(seed: int, chain_index: int) -> np.random.Generator:
    """Independent stream for one chain of a multi-chain run."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(chain_index),))
    return np.random.Generator(np.random.PCG64(ss))


class RoundGenerator:
    """One Philox4x64 generator, reseated to the stream of any attempt.

    ``reseat`` returns the same Generator every time; what it drew for one
    attempt is gone after the next reseat.
    """

    def __init__(self, seed: int):
        key = np.random.SeedSequence(int(seed)).generate_state(2, np.uint64)
        self._bit_generator = np.random.Philox(key=key)
        self.generator = np.random.Generator(self._bit_generator)
        # Python ints: the state setter reads them faster than numpy scalars
        self._counter = [0, 0, 0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": [int(k) for k in key]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,  # empty buffer: the first draw computes a block
            "has_uint32": 0,
            "uinteger": 0,
        }

    def reseat(self, attempt: int) -> np.random.Generator:
        self._counter[2] = attempt
        self._bit_generator.state = self._state
        return self.generator


# Named for the per-(round, rank) streams it once served; it keeps the name
# because the benchmark's tracer counts its calls by it, one per attempt now.
def round_stream(owner: RoundGenerator, attempt: int) -> np.random.Generator:
    """Stream of proposal attempt ``attempt``: ``owner``'s generator,
    reseated; it is valid until the owner's next reseat."""
    return owner.reseat(attempt)

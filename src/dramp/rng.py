"""Deterministic random-stream construction and exact state transport.

Two stream families, each a pure function of integer indices:

- Serial and multichain streams are PCG64 generators seeded by
  ``SeedSequence(entropy=seed, spawn_key=(chain_index,))``. A chain builds
  its stream once and consumes it continuously; ``stream_state`` and
  ``restore_stream`` carry its exact position through a restart snapshot.

- Fork-join round streams are counter-based (Salmon et al. 2011, "Parallel
  random numbers: as easy as 1, 2, 3"). The run's Philox4x64 key is the two
  64-bit words ``SeedSequence(seed).generate_state(2, uint64)``, derived once
  per ``RoundGenerator``. Worker ``rank`` of round ``i`` owns the counter
  blocks whose two high words are ``(i, rank)``: its stream starts at counter
  ``(0, 0, i, rank)`` and its draws advance only the two low words, so no
  (round, rank) stream can run into another's. Nothing is hashed or built
  per stream: a ``RoundGenerator`` owns one Philox bit generator and one
  Generator and reseats them by assigning a reused state dict whose counter
  list is rewritten in place.

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
    """One Philox4x64 generator, reseated to the stream of any (round, rank).

    ``reseat`` returns the same Generator every time; what it drew for one
    (round, rank) is gone after the next reseat.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        key = np.random.SeedSequence(self.seed).generate_state(2, np.uint64)
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

    def reseat(self, round_index: int, rank: int) -> np.random.Generator:
        counter = self._counter
        counter[2] = round_index
        counter[3] = rank
        self._bit_generator.state = self._state
        return self.generator


def round_stream(
    seed: int, round_index: int, rank: int, owner: RoundGenerator
) -> np.random.Generator:
    """Per-round, per-rank stream for the fork-join protocol.

    rank is 1-based; every (round, rank) pair gets its own stream so a
    worker's draws never depend on scheduling or on other workers. The
    stream is ``owner``'s generator, which must be built from the same seed,
    reseated; it is valid until the owner's next reseat.
    """
    if owner.seed != seed:
        raise ValueError(
            "round stream for seed %d requested from the owner of seed %d"
            % (seed, owner.seed)
        )
    return owner.reseat(round_index, rank)


def stream_state(gen: np.random.Generator) -> dict:
    """Bit-generator state as a JSON-safe dict (Python ints are exact)."""
    st = gen.bit_generator.state
    return {
        "bit_generator": st["bit_generator"],
        "state": int(st["state"]["state"]),
        "inc": int(st["state"]["inc"]),
        "has_uint32": int(st["has_uint32"]),
        "uinteger": int(st["uinteger"]),
    }


def restore_stream(state: dict) -> np.random.Generator:
    """Rebuild a Generator bit-for-bit from stream_state output."""
    if state.get("bit_generator") != "PCG64":
        raise ValueError("unsupported bit generator %r" % state.get("bit_generator"))
    bg = np.random.PCG64()
    bg.state = {
        "bit_generator": "PCG64",
        "state": {"state": int(state["state"]), "inc": int(state["inc"])},
        "has_uint32": int(state["has_uint32"]),
        "uinteger": int(state["uinteger"]),
    }
    return np.random.Generator(bg)

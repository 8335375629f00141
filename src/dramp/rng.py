"""Deterministic random-stream construction.

Every chain of every mode draws from one PCG64 generator seeded by
``SeedSequence(entropy=seed, spawn_key=(chain_index,))``, with the seed of
its KernelConfig. Its Kernel builds that stream once and consumes it
continuously, one proposal attempt after the other; a fork-join run's
workers take the chain's attempts in order from that stream too, so the
chain does not depend on the worker count. A snapshot holds the stream's
position as numpy's own PCG64 state dict.
"""

from __future__ import annotations

import numpy as np


def chain_stream(seed: int, chain_index: int) -> np.random.Generator:
    """The stream of chain ``chain_index`` of a run seeded with ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(chain_index),))
    return np.random.Generator(np.random.PCG64(ss))


# Every attempt draws from its chain's stream, so nothing calls this; it
# stays importable here for tools that patch it by name.
def round_stream(*args, **kwargs):
    raise NotImplementedError(
        "attempts draw from their chain's stream; see rng.chain_stream"
    )

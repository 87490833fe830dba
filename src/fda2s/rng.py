"""Deterministic random substreams for replicated Monte Carlo work.

Each replicate draws from a Philox counter-based generator keyed by
(seed, replicate index), so a replicate's stream never depends on how many
other replicates ran before it or on which thread ran it.
"""

from __future__ import annotations

import secrets
from collections.abc import Iterable, Iterator

import numpy as np

from .errors import InvalidParams, count

_WORD = 1 << 64
_ZEROS = (0, 0, 0, 0)


def _check_key(seed: int, index: int) -> None:
    for value, name in ((seed, "seed"), (index, "replicate index")):
        if count(value, name, 0) >= _WORD:
            raise InvalidParams(f"{name} must lie in [0, 2**64), got {value}")


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one replicate of a seeded run."""
    _check_key(seed, index)
    return np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(index)]))


def rekeyed(rng: np.random.Generator, indices: Iterable[int]) -> Iterator[np.random.Generator]:
    """Yield `rng` re-keyed in place as `substream(seed, r)` for each r in `indices`.

    `rng` must be a generator from `substream(seed, ...)`; the seed is read
    from its key.  A Philox stream is fully set by its state -- counter 0,
    key [seed, r], an empty buffer and no cached 32-bit half -- so setting
    that state gives the draws a freshly built `substream(seed, r)` gives,
    without building a new generator.  The same generator is yielded each
    time: take all of replicate r's draws before advancing to the next.
    """
    bit_generator = rng.bit_generator
    seed = int(bit_generator.state["state"]["key"][0])
    # one mapping for every index: the state setter copies the values it reads
    state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": None},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for index in indices:
        # the seed came from a key, so only the index can fail the check
        if type(index) is not int or not 0 <= index < _WORD:
            _check_key(seed, index)
        state["state"]["key"] = (seed, index)
        bit_generator.state = state
        yield rng


def fresh_seed() -> int:
    """Entropy-derived 63-bit seed for runs where none was supplied."""
    return secrets.randbits(63)


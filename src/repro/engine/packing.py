"""Bit-lane packing for the vectorized march backend.

The behavioural :class:`repro.memory.SRAM` stores each word as one Python
integer of arbitrary width.  The batched backend re-packs that state into a
``(words, lanes)`` array of ``uint64`` lanes (lane ``i`` holds word bits
``64 * i`` .. ``64 * i + 63``), so march writes become whole-array
assignments and march reads become whole-array compares.

numpy itself is an *optional* dependency of the engine (the ``[fast]``
extra); every entry point gates on :data:`HAVE_NUMPY` and falls back to the
pure-Python reference backend when it is missing.  The per-word lane
helpers live in :mod:`repro.util.lanes`, shared with the failure logs, and
are re-exported here.
"""

from __future__ import annotations

from repro.util.lanes import (
    LANE_BITS,
    lanes_for,
    lanes_to_word,
    pack_state,
    unpack_words,
    word_to_lanes,
)
from repro.util.rng import HAVE_NUMPY, np, require_numpy

__all__ = [
    "HAVE_NUMPY",
    "LANE_BITS",
    "lanes_for",
    "lanes_to_word",
    "np",
    "pack_bank",
    "pack_state",
    "require_numpy",
    "unpack_words",
    "word_to_lanes",
]

def pack_bank(memories):
    """Pack same-geometry memories into one stacked fleet array.

    Returns ``(states, clean_masks, dirty_masks, lanes)`` where ``states``
    is ``(n_mem, words, lanes)`` uint64 and the masks are ``(n_mem,
    words)`` bool (dirty = some fault hook can fire on that word).  Row
    ``states[i]`` is authoritative for memory ``i``'s vector-lane words
    only (behavioural-replay rows live in the memory objects); hand each
    slice back through
    :func:`repro.engine.kernel.sync_clean_rows` when the run finishes.

    All memories must share ``(words, bits)`` -- the geometry-bucketing
    planner in :mod:`repro.engine.batched` guarantees that.
    """
    from repro.util.validation import require

    require(bool(memories), "pack_bank needs at least one memory")
    words, bits = memories[0].words, memories[0].bits
    require(
        all(m.words == words and m.bits == bits for m in memories),
        "pack_bank requires a same-geometry bucket",
    )
    lanes = lanes_for(bits)
    states = np.empty((len(memories), words, lanes), dtype=np.uint64)
    dirty_masks = np.zeros((len(memories), words), dtype=bool)
    for index, memory in enumerate(memories):
        states[index] = pack_state(memory.dump(), lanes)
        for word in memory.hooked_words():
            dirty_masks[index, word] = True
    return states, ~dirty_masks, dirty_masks, lanes

"""Word <-> uint64-lane packing shared by the engine and the failure logs.

A word of ``bits`` bits is stored as ``lanes_for(bits)`` uint64 lanes:
lane ``i`` holds word bits ``64 * i`` .. ``64 * i + 63``.  The batched
backend packs memory state this way, and
:class:`repro.core.report.FailureLog` keeps its expected and observed
words in the same ``(n, lanes)`` layout.  Everything here needs numpy
(the ``[fast]`` extra) except :func:`lanes_for`.
"""

from __future__ import annotations

from repro.util.rng import np

#: Width of one packed lane.
LANE_BITS = 64
_LANE_MASK = (1 << LANE_BITS) - 1


def lanes_for(bits: int) -> int:
    """Number of 64-bit lanes needed for a word of ``bits`` bits."""
    return (bits + LANE_BITS - 1) // LANE_BITS


def word_to_lanes(word: int, lanes: int):
    """Split one Python-int word into a ``(lanes,)`` uint64 array."""
    return np.array(
        [(word >> (LANE_BITS * i)) & _LANE_MASK for i in range(lanes)],
        dtype=np.uint64,
    )


def lanes_to_word(row) -> int:
    """Reassemble one packed row back into a Python-int word."""
    word = 0
    for i in range(row.shape[0]):
        word |= int(row[i]) << (LANE_BITS * i)
    return word


def pack_state(words: list[int], lanes: int):
    """Pack Python-int words into a ``(len(words), lanes)`` uint64 array."""
    if lanes == 1:
        # Words already fit one lane: a single C-level conversion.
        return np.fromiter(words, dtype=np.uint64, count=len(words)).reshape(-1, 1)
    state = np.empty((len(words), lanes), dtype=np.uint64)
    for lane in range(lanes):
        shift = LANE_BITS * lane
        state[:, lane] = [(w >> shift) & _LANE_MASK for w in words]
    return state


def unpack_words(state) -> list[int]:
    """Reassemble a packed ``(n, lanes)`` uint64 array into Python-int words.

    Bulk counterpart of :func:`lanes_to_word`: one C-level ``tolist`` per
    lane instead of one array slice per row.
    """
    values = state[:, 0].tolist()
    for lane in range(1, state.shape[1]):
        shift = LANE_BITS * lane
        values = [
            value | (high << shift)
            for value, high in zip(values, state[:, lane].tolist())
        ]
    return values

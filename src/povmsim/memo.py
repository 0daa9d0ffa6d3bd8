"""The one byte-bounded least-recently-used memo of the process, keyed by content.

Every value worth keeping between calls lives in one store under one cap,
``CAP``: parsed problem files, protocol bases and their type-class factors,
targets, n-copy states, K's target data on a state and the ``all_vectors``
tables.  ``memoised(key, build)`` returns a key's value, building it on a
miss.  A key is a tuple tagged by its kind first, then content: file bytes,
array bytes with dtype and shape (``array_key``) and sizes, never object
ids, which a new object can reuse once the old one is freed.  A value gives
its size as ``nbytes`` and is complete when it is stored, so its size is
counted once, at insert, and the store keeps its byte total as it inserts
and evicts.  The memo belongs to its process and is not locked.
"""

from __future__ import annotations

import collections

import numpy as np

CAP = 2 ** 26       # cap on the bytes the store keeps, read at every insert
_STORE = collections.OrderedDict()      # key -> (value, its nbytes when stored), LRU first
_held = 0                               # the bytes of the values in _STORE


def array_key(arrays) -> tuple:
    """The content of each array: its bytes, dtype and shape."""
    return tuple((a.tobytes(), a.dtype.str, a.shape) for a in arrays)


def nbytes(*parts) -> int:
    """The bytes of the numpy arrays among ``parts``, looking into tuples, lists and dicts."""
    total = 0
    for part in parts:
        if isinstance(part, np.ndarray):
            total += part.nbytes
        elif isinstance(part, dict):
            total += nbytes(*part.values())
        elif isinstance(part, (tuple, list)):
            total += nbytes(*part)
    return total


def clear() -> None:
    """Empty the store."""
    global _held
    _STORE.clear()
    _held = 0


def _trim() -> None:
    """Drop the least recently used values until the store holds at most ``CAP`` bytes."""
    global _held
    while _held > CAP:
        _held -= _STORE.popitem(last=False)[1][1]


def memoised(key, build):
    """The value of ``key``, ``build()`` on a miss, now the most recently used.

    A built value above ``CAP`` bytes is returned but not kept, and drops
    nothing; any other is kept.  Every call leaves the store within the cap,
    so a lowered cap takes effect at the next call.  A failed build stores
    nothing, so the next call builds again.
    """
    global _held
    hit = _STORE.get(key)
    if hit is not None:
        _STORE.move_to_end(key)
        value = hit[0]
    else:
        value = build()
        size = value.nbytes
        if size <= CAP:
            _STORE[key] = (value, size)
            _held += size
    _trim()
    return value

"""Byte-bounded least-recently-used memos keyed by content.

A memo is an ``OrderedDict``, least recently used first, whose values give
their size as ``nbytes``.  ``memoised`` returns a key's value, building it on
a miss, and keeps the memo within a byte cap that it reads on every call.
Keys are content: file bytes, array bytes with dtype and shape
(``array_key``) and sizes, never object ids, which a new object can reuse
once the old one is freed.  A memo belongs to its process and is not locked.
"""

from __future__ import annotations

import numpy as np


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


def trim(memo, cap: int) -> None:
    """Drop the least recently used values until the memo holds at most ``cap`` bytes."""
    held = sum(v.nbytes for v in memo.values())
    while held > cap:
        held -= memo.popitem(last=False)[1].nbytes


def memoised(memo, cap: int, key, build):
    """The value of ``key`` in ``memo``, ``build()`` on a miss, now the most recently used.

    A built value above ``cap`` bytes is returned but not kept, and drops
    nothing; any other is kept, and the memo is trimmed to the cap.  A hit
    only reorders the memo, so a value that grows after it is kept (say, by
    filling a cache of its own) counts at its new size at the next insert,
    or when its owner calls ``trim``.  A failed build stores nothing, so the
    next call builds again.
    """
    value = memo.get(key)
    if value is not None:
        memo.move_to_end(key)
        return value
    value = build()
    if value.nbytes <= cap:
        memo[key] = value
        trim(memo, cap)
    return value

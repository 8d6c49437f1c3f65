"""Zeroed numpy arrays on 2MB pages, for arrays that reach megabytes.

Two users: the cycle engine's per-packet and per-buffer state, whose
scattered touches miss the TLB on 4K pages (and hardware drops
prefetches that miss the TLB, defeating the kernel's software-prefetch
passes), and the route table's per-candidate images, whose first touch
is otherwise one page fault per 4K -- several times the cost of
computing them on a virtualised host.
"""

from __future__ import annotations

import ctypes
import mmap

import numpy as np

__all__ = ["zeros"]

_HUGE = 2 * 1024 * 1024  # transparent-hugepage granule
_HUGE_MIN = 128 * 1024  # route allocations this large through hugepages


def zeros(shape, dtype) -> np.ndarray:
    """``np.zeros(shape, dtype)``; hugepage-backed when large.

    Anonymous mmap, 2MB-aligned slice, ``MADV_HUGEPAGE``: purely an
    allocation detail, contents and layout are ``np.zeros``'s.  Pages
    never written are never resident, so a generous capacity is free.
    """
    dt = np.dtype(dtype)
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
    if nbytes < _HUGE_MIN or not hasattr(mmap, "MADV_HUGEPAGE"):
        return np.zeros(shape, dt)
    mm = mmap.mmap(-1, nbytes + _HUGE)
    addr = ctypes.addressof(ctypes.c_char.from_buffer(mm))
    off = (-addr) % _HUGE
    try:
        mm.madvise(mmap.MADV_HUGEPAGE, off, nbytes)
    except OSError:  # pragma: no cover - advisory only
        pass
    arr = np.frombuffer(mm, dtype=dt, count=nbytes // dt.itemsize, offset=off)
    return arr.reshape(shape)

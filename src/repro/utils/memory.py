"""Handing freed heap memory back to the operating system.

glibc gives every thread that allocates its own malloc arena and keeps the
pages of freed chunks mapped, in the arena, after the thread has exited.  A
solver thread's transient working set therefore stays resident after its
work is done, and a process that runs one hub after another (a test run, a
batch job, a benchmark's rounds) carries each earlier hub's freed memory
into the next: the next hub's threads may be handed fresh arenas instead.
:func:`release_freed_memory` asks the allocator to return those pages.
"""

from __future__ import annotations

import ctypes
import sys
from collections.abc import Callable


def _load_malloc_trim() -> Callable[[int], int] | None:
    if not sys.platform.startswith("linux"):
        return None
    try:
        trim = ctypes.CDLL(None).malloc_trim  # glibc only; musl has none
    except (OSError, AttributeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


_MALLOC_TRIM = _load_malloc_trim()


def release_freed_memory() -> bool:
    """Return the free pages of every malloc arena to the operating system.

    Live allocations are untouched; the pages come back zero-filled the next
    time the allocator hands them out.  It walks every arena's free chunks:
    a few milliseconds for a heap of ~100 MB.  Returns ``False``, and does
    nothing, where the C library has no ``malloc_trim`` (anything but glibc).
    """
    if _MALLOC_TRIM is None:
        return False
    _MALLOC_TRIM(0)
    return True

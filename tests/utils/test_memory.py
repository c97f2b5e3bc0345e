"""Tests for handing freed heap memory back to the operating system."""

import ctypes
import os

import pytest

from repro.utils import memory
from repro.utils.memory import release_freed_memory

#: Below glibc's smallest mmap threshold (128 KiB), so every block comes
#: from a malloc arena, not from its own mapping.
BLOCK = 96 * 1024
N_BLOCKS = 256


def _resident_bytes():
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(memory._MALLOC_TRIM is None, reason="C library has no malloc_trim")
def test_freed_arena_pages_leave_the_resident_set():
    libc = ctypes.CDLL(None)
    libc.malloc.argtypes = [ctypes.c_size_t]
    libc.malloc.restype = ctypes.c_void_p
    libc.free.argtypes = [ctypes.c_void_p]
    blocks = [libc.malloc(BLOCK) for _ in range(N_BLOCKS)]
    assert all(blocks)
    for block in blocks:
        ctypes.memset(block, 1, BLOCK)
    # Every other block stays live, so the freed ones cannot coalesce into
    # the heap top that free() itself would shrink: a fragmented heap, as a
    # solver thread leaves its arena when some of its results outlive it.
    freed, live = blocks[::2], blocks[1::2]
    for block in freed:
        libc.free(block)
    before = _resident_bytes()
    assert release_freed_memory() is True
    released = before - _resident_bytes()
    for block in live:
        libc.free(block)
    assert released >= BLOCK * len(freed) // 2


def test_without_malloc_trim_it_is_a_no_op(monkeypatch):
    monkeypatch.setattr(memory, "_MALLOC_TRIM", None)
    assert release_freed_memory() is False

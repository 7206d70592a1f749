"""glibc malloc thresholds that keep a training step's pages in the process.

A training step allocates and frees the same few dozen arrays of 1-10 MB
every step. Under glibc's defaults a block above the mmap threshold
(128 KiB at start, raised only as far as the largest block freed so far)
is an ``mmap`` of its own, unmapped again on ``free``, and free space at
the top of the heap beyond the trim threshold goes back to the system.
So every step faults its arrays in again: a fresh process spent 2.4 s of
system time on 953k minor faults in 200 steps at the acceptance shape,
and its steps ran 1.3-1.7x slower than with the thresholds below. With
them, blocks below 32 MiB come from the heap, and up to 128 MiB of freed
heap stays mapped for the next step.

``import dftlab`` sets them once, through ctypes, for this process only:
no environment variable and no re-exec. Allocation does not change
arithmetic, so every result keeps its bits. On a C library without
``mallopt`` (not glibc) nothing is set.
"""

from __future__ import annotations

import ctypes

M_TRIM_THRESHOLD = -1  # glibc's malloc.h parameter numbers
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20  # glibc's upper limit on 64-bit
TRIM_THRESHOLD = 128 << 20


def set_malloc_thresholds(libc) -> bool:
    """Set the mmap and trim thresholds through ``libc.mallopt``.

    Returns False, having done nothing, when ``libc`` has no ``mallopt``.
    """
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    return True


def process_libc():
    """The C library this process runs on, or None where ctypes cannot open it."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):  # TypeError: no dlopen(NULL), as on Windows
        return None

import ctypes
import types

from dftlab.allocator import (
    M_MMAP_THRESHOLD,
    M_TRIM_THRESHOLD,
    process_libc,
    set_malloc_thresholds,
)


def test_set_malloc_thresholds_calls_mallopt_with_both_parameters():
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    assert set_malloc_thresholds(types.SimpleNamespace(mallopt=mallopt))
    assert calls == [(M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 128 << 20)]
    assert (M_MMAP_THRESHOLD, M_TRIM_THRESHOLD) == (-3, -1)  # glibc's malloc.h
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
    assert mallopt.restype is ctypes.c_int


def test_set_malloc_thresholds_is_a_no_op_without_mallopt():
    libc = types.SimpleNamespace(free=lambda p: None)
    assert not set_malloc_thresholds(libc)
    assert vars(libc).keys() == {"free"}
    assert not set_malloc_thresholds(None)


def test_the_process_libc_takes_the_thresholds_where_it_has_mallopt():
    libc = process_libc()
    assert set_malloc_thresholds(libc) == hasattr(libc, "mallopt")

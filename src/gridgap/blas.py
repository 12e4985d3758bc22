"""numpy's bundled OpenBLAS, reached through ctypes to read and pin its thread count."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from pathlib import Path

import numpy as np

# held while a caller has OpenBLAS pinned, so that concurrent pins in one
# process cannot read each other's pin as their budget or restore it early
BLAS_PIN = threading.Lock()


@functools.cache
def openblas():
    """``(get, set)`` for the thread count of numpy's bundled OpenBLAS, or None.

    numpy wheels ship OpenBLAS in ``numpy.libs`` (``numpy/.dylibs`` on
    macOS); opening that file again returns the library numpy already loaded.
    """
    root = Path(np.__file__).parent
    found = [*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]
    for path in sorted(found):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore its count.

    Without an OpenBLAS handle nothing is pinned.
    """
    blas = openblas()
    if blas is None:
        yield
        return
    get, put = blas
    with BLAS_PIN:
        budget = get()
        put(1)
        try:
            yield
        finally:
            put(budget)

"""The bundled OpenBLAS of numpy and of scipy, reached through ctypes to read
and pin their thread counts, and the process pool that keeps every worker on
one BLAS thread.

Never call ``set_num_threads`` with the count OpenBLAS already has: a fork
stops its thread server, and ``set_num_threads`` starts it again in the child
at any count, whose helper thread spins about 0.12 s of CPU before it sleeps.
The pool pins numpy's while it runs, plain loop or processes, then restores
it. A forked pool worker inherits the parent's pin and so keeps it without a
call; a spawned or forkserver worker pins itself on start. scipy's, which
runs the rvar least squares, loads and is pinned on the first statistic,
before any pool forks: ``gridgap.rvar.ols.scipy_routines``, the one importer
of scipy, pins it to one thread and never sets it again, so no restore ever
restarts it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

# held while a caller has OpenBLAS pinned, so that concurrent pins in one
# process cannot restore each other's pin early
BLAS_PIN = threading.Lock()


def _bundled_openblas(package):
    """``(get, set)`` for the thread count of the OpenBLAS bundled in ``package``'s
    wheel, or None.

    Wheels ship it in ``<package>.libs`` (``<package>/.dylibs`` on macOS);
    opening that file again returns the library the package already loaded.
    """
    root = Path(package.__file__).parent
    found = [*root.parent.glob(f"{root.name}.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]
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


@functools.cache
def openblas():
    """``(get, set)`` for the thread count of numpy's bundled OpenBLAS, or None."""
    return _bundled_openblas(np)


@functools.cache
def scipy_openblas(scipy):
    """``(get, set)`` for the thread count of the OpenBLAS bundled in the
    imported ``scipy`` package, or None, also when it is numpy's own, whose
    count only ``one_blas_thread`` sets."""
    handle, own = _bundled_openblas(scipy), openblas()
    if handle is None or (own is not None and _address(handle[0]) == _address(own[0])):
        return None
    return handle


def _address(func) -> int:
    return ctypes.cast(func, ctypes.c_void_p).value


def pin_threads(blas, count: int) -> None:
    """Set the ``(get, set)`` handle's thread count unless it already reads ``count``."""
    get, put = blas
    if get() != count:
        put(count)


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore its count.
    Without an OpenBLAS handle nothing is pinned."""
    blas = openblas()
    if blas is None:
        yield
        return
    with BLAS_PIN:
        count = blas[0]()
        pin_threads(blas, 1)
        try:
            yield
        finally:
            pin_threads(blas, count)


_POOL_STATE: dict = {}


def _pool_initializer(fn, shared):
    _POOL_STATE["job"] = fn, shared
    handle = openblas()
    if handle is not None:
        pin_threads(handle, 1)  # a forked worker has the pin already; a spawned one does not


def _pool_task(item):
    fn, shared = _POOL_STATE["job"]
    return fn(item, *shared)


def pool_map(fn, items, shared: tuple, workers: int) -> Iterator:
    """Yield ``fn(item, *shared)`` for each of ``items``, in their order, on
    ``workers`` processes.

    One worker or fewer is a plain loop in this process. Otherwise each item
    is one task on a process pool whose workers receive ``fn`` and ``shared``
    once. Results are yielded lazily, each as the caller asks for it, so the
    caller holds only those it keeps; nothing runs, and no worker starts,
    before the first is asked for. The pool pins numpy's OpenBLAS to one
    thread from then until the last result, an error or ``close()``, on
    either path, and restores it after: forked workers inherit the pin.
    ``fn`` must be a module-level function unless the start method is fork.
    """
    with one_blas_thread():
        if workers <= 1:
            for item in items:
                yield fn(item, *shared)
            return
        pool = ProcessPoolExecutor(workers, initializer=_pool_initializer, initargs=(fn, shared))
        with pool:
            yield from pool.map(_pool_task, items)

"""A process pool for tests: a chosen start method, and a log written inside each worker.

``probed_pool(method, log, started)`` returns a ``ProcessPoolExecutor``
subclass to patch in, as ``gridgap.blas.ProcessPoolExecutor``, for the one
``gridgap.blas.pool_map`` starts. It runs on start method ``method``, appends
each pool's worker count to ``started``, and after every task appends the
worker's pid and the thread counts of numpy's and scipy's OpenBLAS to ``log``.
The task wrapper is a module-level function, so spawned and forkserver
workers, which import this module by name, run it too.
"""

import functools
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from gridgap import blas


def blas_threads() -> tuple[int | None, int | None]:
    """The thread counts of numpy's and scipy's OpenBLAS in this process, each
    None without a handle. scipy's is None too while scipy is not loaded, so
    that a read never loads it."""
    scipy = sys.modules.get("scipy")
    handles = blas.openblas(), (blas.scipy_openblas(scipy) if scipy else None)
    return tuple(handle[0]() if handle else None for handle in handles)


def scipy_openblas():
    """``blas.scipy_openblas`` of scipy, imported here if it is not loaded yet."""
    import scipy

    return blas.scipy_openblas(scipy)


def _probe(task, log, *args):
    result = task(*args)
    with open(log, "a") as fh:
        fh.write(" ".join(map(str, (os.getpid(), *blas_threads()))) + "\n")
    return result


def probed_pool(method: str, log, started: list):
    context = multiprocessing.get_context(method)

    class ProbedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, mp_context=context, **kwargs)
            started.append(self._max_workers)

        def map(self, fn, *iterables, **kwargs):
            return super().map(functools.partial(_probe, fn, str(log)), *iterables, **kwargs)

    return ProbedPool


def worker_reads(log) -> list[tuple[int, int | None, int | None]]:
    """``(pid, numpy's BLAS threads, scipy's BLAS threads)`` per task the probed
    pools ran, in finishing order; a count is None in a worker without that
    OpenBLAS handle."""
    with open(log) as fh:
        rows = [line.split() for line in fh]
    return [tuple(None if v == "None" else int(v) for v in row) for row in rows]

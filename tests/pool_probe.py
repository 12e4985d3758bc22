"""A process pool for tests: a chosen start method, and a log written inside each worker.

``probed_pool(method, log, started)`` returns a ``ProcessPoolExecutor``
subclass to patch in, as ``gridgap.blas.ProcessPoolExecutor``, for the one
``gridgap.blas.pool_map`` starts. It runs on start method ``method``, appends
each pool's worker count to ``started``, and after every task appends the
worker's pid and numpy's OpenBLAS thread count to ``log``.
The task wrapper is a module-level function, so spawned and forkserver
workers, which import this module by name, run it too.
"""

import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

from gridgap import blas


def _probe(task, log, *args):
    result = task(*args)
    handle = blas.openblas()
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()} {handle[0]() if handle else None}\n")
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


def worker_reads(log) -> list[tuple[int, int | None]]:
    """``(pid, BLAS threads)`` per task the probed pools ran, in finishing order;
    the thread count is None in a worker without an OpenBLAS handle."""
    with open(log) as fh:
        rows = [line.split() for line in fh]
    return [(int(pid), None if threads == "None" else int(threads)) for pid, threads in rows]

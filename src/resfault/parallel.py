"""Independent jobs on one worker process per usable CPU.

The protocol's (realisation, model) jobs, and the fleet slices that synth
writes and the protocol prepares, run through run_jobs. The results are the
same whatever the worker count, so a caller takes its count from
worker_count and nothing else: `taskset -c 0` runs the jobs serially, in
the calling process.
"""

from __future__ import annotations

import functools
import os

from .errors import ComputeError

# The job function with its shared arguments bound. run_jobs sets it before
# the workers fork, so they inherit it and each job sends only its own
# arguments.
_worker_job = None


def worker_count(n_jobs: int) -> int:
    """One worker per usable CPU, up to one per job."""
    return min(len(os.sched_getaffinity(0)), n_jobs)


def slices(items: list, n: int) -> list[list]:
    """``items`` cut into ``n`` contiguous slices in order, one per job of a pool."""
    bounds = [len(items) * i // n for i in range(n + 1)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _run_worker_job(args: tuple):
    return _worker_job(*args)


def run_jobs(fn, shared: tuple, jobs: list[tuple], workers: int) -> list:
    """``[fn(*shared, *args) for args in jobs]``, on ``workers`` processes.

    With ``workers`` 1 the jobs run one after another in this process, and no
    pool module is imported. With more, they run on that many worker
    processes forked from this one: ``fn`` and ``shared`` are inherited, not
    sent, and so is the one BLAS thread that importing resfault sets. A job's
    exception is raised here once every running job has ended, and a worker
    that dies raises ComputeError.
    """
    global _worker_job
    if workers == 1:
        return [fn(*shared, *args) for args in jobs]
    # imported here: the CLI imports this module and may never start a pool
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    _worker_job = functools.partial(fn, *shared)
    try:
        # safe to fork: the pool forks every worker before it starts a thread, and
        # OpenBLAS stops its own threads at fork
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        try:
            return list(pool.map(_run_worker_job, jobs))
        except BrokenProcessPool:
            raise ComputeError("a worker process ended abruptly") from None
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        _worker_job = None

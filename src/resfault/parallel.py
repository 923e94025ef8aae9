"""Independent jobs on one worker process per usable CPU.

The protocol's (realisation, model) jobs and synth's fleet slices run
through run_jobs. The results are the same whatever the worker count, so a
caller takes its count from worker_count and nothing else: `taskset -c 0`
runs the jobs serially, in the calling process.
"""

from __future__ import annotations

import functools
import os

from .errors import ComputeError

# Each of these sizes a BLAS thread pool when a process imports numpy; a
# worker runs one thread so that the workers do not contend for cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The job function with its shared arguments bound, set once per worker
# process by _init_worker so that each job sends only its own arguments.
_worker_job = None


def worker_count(n_jobs: int) -> int:
    """One worker per usable CPU, up to one per job."""
    return min(len(os.sched_getaffinity(0)), n_jobs)


def _init_worker(fn, shared: tuple) -> None:
    global _worker_job
    _worker_job = functools.partial(fn, *shared)


def _run_worker_job(args: tuple):
    return _worker_job(*args)


def run_jobs(fn, shared: tuple, jobs: list[tuple], workers: int) -> list:
    """``[fn(*shared, *args) for args in jobs]``, on ``workers`` processes.

    With ``workers`` 1 the jobs run one after another in this process, and no
    pool module is imported. With more, they run on that many ``spawn``
    worker processes, each with one BLAS thread; ``fn`` and ``shared`` are
    sent once per worker, and a job's exception is raised here once every
    running job has ended. A spawned worker imports the caller's main
    module, so a program that calls this with ``workers`` > 1 must guard its
    entry point with ``if __name__ == "__main__":``; a worker that dies,
    as one does without that guard, raises ComputeError.
    """
    if workers == 1:
        return [fn(*shared, *args) for args in jobs]
    # imported here: the CLI imports this module and may never start a pool
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        pool = ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_init_worker,
            initargs=(fn, shared),
        )
        try:
            return list(pool.map(_run_worker_job, jobs))
        except BrokenProcessPool:
            raise ComputeError(
                "a worker process ended abruptly; a program that starts workers must "
                'guard its entry point with `if __name__ == "__main__":`'
            ) from None
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value

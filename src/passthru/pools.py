"""One pool of forked worker processes, kept between calls.

`map_tasks` runs a module-level function over a list of tasks on a pool of
worker processes started with `fork`, and keeps the pool for the next call.
Two stages use it: `synth_lab.monte_carlo` and `tree_forest.fit_forest`.
Forked workers start with the caller's imports: on a 2-vCPU VM the first
50-replication `monte_carlo` call on 2 workers in a fresh process took
66-69 ms, against 288-303 ms when the pool's workers came from a fresh
interpreter that imported numpy and the task's module.

Forking a process that has run numpy's BLAS is safe on the assumption that
its OpenBLAS stops its threads before a fork and the child starts its own:
numpy 2.4's bundled OpenBLAS (0.3.31, a pthreads build) exports
`openblas_fork_handler` and registers it with `pthread_atfork`. The
executor must also fork every worker before its manager thread starts (the
fix for gh-90622, CPython 3.11.0b2 on); a kept pool does not fork again. An
executor without it forks workers on demand while its threads run, so
`_FORK_POOLS` checks for the fix when this module is imported, and where it
is missing (some 3.10 releases), or the platform cannot fork, the tasks run
in the calling process. numpy's OpenBLAS thread makes every process
multi-threaded, so CPython 3.12 and later warn (`DeprecationWarning`) each
time the pool forks, for the Monte Carlo and the forest alike.

A task gets all it needs in its arguments: a kept fork pool keeps the module
state of the moment it started.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

# The pool kept between calls, as (creating pid, workers, pool), and the lock a
# call holds while it finds, uses or discards it. A forked process, a worker
# among them, gets a fresh lock, as the one it inherits may be held.
_pool: tuple[int, int, ProcessPoolExecutor] | None = None
_lock = threading.Lock()


def _new_lock() -> None:
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_lock)
# Whether the pool may start here: the platform forks, and the executor forks
# every worker before its threads start (see the docstring).
_FORK_POOLS = (
    "fork" in multiprocessing.get_all_start_methods()
    and "_safe_to_dynamically_spawn_children" in ProcessPoolExecutor.__init__.__code__.co_names
)


def usable_cpus() -> int:
    """The CPUs this process may run on, or the machine's count where the platform cannot tell."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def map_tasks(fn: Callable, tasks: Sequence, workers: int) -> list:
    """[fn(task) for task in tasks], on the kept pool of `workers` forked processes.

    The tasks run in the calling process when `workers` is 1, or where the
    platform cannot fork or the executor forks workers on demand. The pool is
    kept for the next call: a call needing the same number of workers reuses
    it, one needing another number shuts it down and starts a new one, and a
    pool started by another process (before an os.fork) is never reused. An
    exception out of the pool (a worker's error, a dead worker, an interrupt)
    shuts the pool down before it propagates, so the next call starts afresh.
    Idle workers live until the interpreter exits, which joins them; calls
    from several threads take turns on the pool.
    """
    if workers < 2 or not _FORK_POOLS:
        return [fn(task) for task in tasks]
    with _lock:
        pool = _kept_pool(workers)
        try:
            return list(pool.map(fn, tasks))
        except BaseException:
            discard()
            raise


def _kept_pool(workers: int) -> ProcessPoolExecutor:
    """The kept pool with `workers` processes, started or resized as needed."""
    global _pool
    if _pool is not None and _pool[:2] == (os.getpid(), workers):
        return _pool[2]
    discard()
    _pool = (os.getpid(), workers, ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")))
    return _pool[2]


def discard() -> None:
    """Forget the kept pool, shutting it down if this process started it.

    A pool inherited through os.fork belongs to the parent, which still uses
    its queues and workers, so a child only drops its copy.
    """
    global _pool
    kept, _pool = _pool, None
    if kept is not None and kept[0] == os.getpid():
        kept[2].shutdown(wait=True, cancel_futures=True)

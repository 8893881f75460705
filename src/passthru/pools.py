"""Worker process pools kept between calls, one per start method.

`map_tasks` runs a module-level function over a list of tasks on a pool of
worker processes and keeps the pool for the next call. Two stages use one:

- `synth_lab.monte_carlo` starts its workers from a `forkserver`, a fresh
  interpreter that imports the task's module once and forks each worker.
  Its blocks run numpy's BLAS and LAPACK, which are not run here in a plain
  fork of a process whose BLAS threads are running; under fork, a
  50-replication call also measured slower on a 2-vCPU VM (34.2-34.3 ms
  against 30.9-32.6 ms).
- `tree_forest.fit_forest` starts its workers with `fork`. Starting a
  forkserver pool (a fresh interpreter plus the numpy import) took 289-380 ms
  on a 2-vCPU VM, more than a whole 1,000-tree forest, against 13-14 ms for
  fork. The forest's workers call no BLAS or LAPACK, and an executor with
  the fix for gh-90622 (CPython 3.11.0b2 on) forks every worker of a fork
  pool before its manager thread starts; a kept pool does not fork again.
  An executor without it forks workers on demand while its threads run, so
  `_FORK_POOLS` checks for the fix when this module is imported, and where
  it is missing (some 3.10 releases), or the platform cannot fork, a fork
  pool's tasks run in the calling process. numpy's OpenBLAS thread makes
  every process multi-threaded, so CPython 3.12 and later warn
  (`DeprecationWarning`) when the pool forks.

A task gets all it needs in its arguments: a kept fork pool keeps the module
state of the moment it started.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

# The pools kept between calls, by start method, as (creating pid, workers, pool),
# and the lock of each method, held by a call while it finds, uses or discards
# that method's pool. A forked process, a fork pool's worker among them, gets
# fresh locks, as the ones it inherits may be held.
_pools: dict[str, tuple[int, int, ProcessPoolExecutor]] = {}
_locks: dict[str, threading.Lock] = {}


def _new_locks() -> None:
    _locks.update(fork=threading.Lock(), forkserver=threading.Lock())


_new_locks()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_locks)
# Whether a fork pool may start here: the platform forks, and the executor forks
# every worker before its threads start (see the docstring).
_FORK_POOLS = (
    "fork" in multiprocessing.get_all_start_methods()
    and "_safe_to_dynamically_spawn_children" in ProcessPoolExecutor.__init__.__code__.co_names
)
# The pid of the process whose first pool started the forkserver. multiprocessing
# keeps that server for the process and its forks alike, and only the process that
# started it can start workers from it.
_server_pid: int | None = None


def usable_cpus() -> int:
    """The CPUs this process may run on, or the machine's count where the platform cannot tell."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def map_tasks(fn: Callable, tasks: Sequence, workers: int, method: str) -> list:
    """[fn(task) for task in tasks], on the kept pool of `workers` processes started by `method`.

    The tasks run in the calling process when `workers` is 1, and in a
    process forked (os.fork) from the one that started the forkserver, which
    cannot start workers from it. A forkserver imports fn's module once. The
    pool is kept for the next call: a call needing the same method and number
    of workers reuses it, one needing another number shuts it down and starts
    a new one, and a pool started by another process (before an os.fork) is
    never reused. An exception out of the pool (a worker's error, a dead
    worker, an interrupt) shuts the pool down before it propagates, so the
    next call starts afresh. Idle workers live until the interpreter exits,
    which joins them; calls from several threads take turns on a method's
    pool. A fork pool's tasks run in the calling process where the platform
    cannot fork or the executor forks workers on demand.
    """
    if (
        workers < 2
        or (method == "fork" and not _FORK_POOLS)
        or (method == "forkserver" and _server_pid not in (None, os.getpid()))
    ):
        return [fn(task) for task in tasks]
    with _locks[method]:
        pool = _kept_pool(fn, workers, method)
        try:
            return list(pool.map(fn, tasks))
        except BaseException:
            discard(method)
            raise


def _kept_pool(fn: Callable, workers: int, method: str) -> ProcessPoolExecutor:
    """The kept pool of `method` with `workers` processes, started or resized as needed."""
    global _server_pid
    kept = _pools.get(method)
    if kept is not None and kept[:2] == (os.getpid(), workers):
        return kept[2]
    discard(method)
    context = multiprocessing.get_context(method)
    if method == "forkserver":
        _server_pid = _server_pid or os.getpid()
        context.set_forkserver_preload([getattr(fn, "func", fn).__module__])  # a partial's function
    _pools[method] = (os.getpid(), workers, ProcessPoolExecutor(workers, mp_context=context))
    return _pools[method][2]


def discard(method: str) -> None:
    """Forget the kept pool of `method`, shutting it down if this process started it.

    A pool inherited through os.fork belongs to the parent, which still uses
    its queues and workers, so a child only drops its copy.
    """
    kept = _pools.pop(method, None)
    if kept is not None and kept[0] == os.getpid():
        kept[2].shutdown(wait=True, cancel_futures=True)

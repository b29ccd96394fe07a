"""One process-pool helper for loops whose iterations share nothing.

``fork_map(fn, items)`` yields ``fn(item)`` for each item, in item order,
from forked workers: one per CPU the process may run on, at most one per
item.  With fewer than two it is a plain loop in this process.  Every random
draw in the package comes from a substream named by its unit of work (see
``rng``), so results do not depend on which process computes them, and no
option chooses the worker count.

``fn`` and ``items`` sit in a module slot before the pool forks, so the
workers inherit them: only item indices travel to the workers and only
results travel back, and ``fn`` may be a closure.  Anything ``fn`` records
in module state inside a worker stays in that worker.

A worker that dies mid-task (killed, or out of memory) fails the map with
``errors.WorkerLostError`` instead of leaving it waiting for the lost result.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, Sequence, TypeVar

from .errors import WorkerLostError

T = TypeVar("T")
R = TypeVar("R")

_TASK: tuple[Callable, Sequence] | None = None


def _call(i: int):
    fn, items = _TASK
    return fn(items[i])


def cpus() -> int:
    """The number of CPUs this process may run on: ``fork_map``'s most
    workers."""
    return len(os.sched_getaffinity(0))


def fork_map(fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
    """``fn(item)`` for each item, in item order.  The first item, in item
    order, that raises re-raises its exception here.  The pool is shut down
    after the last result; if an item raises or the caller stops early, the
    items not yet started are cancelled and the running ones are waited
    for."""
    global _TASK
    workers = min(cpus(), len(items))
    if workers < 2:
        yield from map(fn, items)
        return
    # ~20 ms to import; an in-process run never pays it
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    _TASK = (fn, items)
    try:
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        try:
            yield from pool.map(_call, range(len(items)))
        except BrokenProcessPool as exc:
            raise WorkerLostError(str(exc)) from exc
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        _TASK = None

"""One helper for loops whose iterations share nothing.

``fork_map(fn, items)`` yields ``fn(item)`` for each item, in item order,
from worker processes it forks itself: one per CPU the process may run on,
at most one per item.  With fewer than two it is a plain loop in this
process.  Every random draw in the package comes from a substream named by
its unit of work (see ``rng``), so results do not depend on which process
computes them, and no option chooses the worker count.

The workers are ``os.fork`` children, so each inherits ``fn`` and ``items``
as they are: ``fn`` may be a closure, and anything it records in module
state inside a worker stays in that worker.  The package starts no thread
of its own.  numpy's OpenBLAS starts a thread pool when numpy is imported,
unless ``OPENBLAS_NUM_THREADS`` is 1, and its ``pthread_atfork`` handler
stops that pool before each fork, so a fork still copies the whole state
of the work.  An ``adtomo`` process never starts the pool: ``cli.entry``
sets ``OPENBLAS_NUM_THREADS`` to 1 unless the user set it.

There is no executor: each worker has a task pipe, on which the parent
writes one item index at a time, and a result pipe, on which it sends back
``fn(item)`` or the exception it raised as one length-prefixed pickle.
The parent hands every worker one index at the start and the next
unstarted index to whichever worker returns a result, so a worker with
cheap items takes more of them.

A worker that dies mid-task (killed, or out of memory) fails the map with
``errors.WorkerLostError`` instead of leaving it waiting for the lost result.
"""

from __future__ import annotations

import os
import pickle
import sys
from typing import Callable, Iterator, Sequence, TypeVar

from .errors import WorkerLostError

T = TypeVar("T")
R = TypeVar("R")

_SIZE = 8  # bytes of an item index, and of a result's length prefix


def cpus() -> int:
    """The number of CPUs this process may run on: ``fork_map``'s most
    workers."""
    return len(os.sched_getaffinity(0))


def _read(fd: int, size: int) -> bytearray | None:
    """The next ``size`` bytes of the pipe ``fd``, or None if it ends
    first."""
    buf = bytearray(size)
    view = memoryview(buf)
    got = 0
    while got < size:
        n = os.readv(fd, [view[got:]])
        if not n:
            return None
        got += n
    return buf


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _serve(fn: Callable, items: Sequence, tasks: int, results: int) -> None:
    """A worker's loop: for each item index read from ``tasks``, write to
    ``results`` a status byte (0 for a value, 1 for an exception) and the
    pickled value or exception, behind their length.  Ends when ``tasks``
    is closed."""
    while (index := _read(tasks, _SIZE)) is not None:
        try:
            reply = b"\0" + pickle.dumps(fn(items[int.from_bytes(index, "little")]), -1)
        except BaseException as exc:  # sent to the parent, which re-raises it
            import traceback

            exc.add_note(f"Raised in worker process {os.getpid()}:\n"
                         + "".join(traceback.format_exception(exc)).rstrip())
            try:
                reply = b"\1" + pickle.dumps(exc, -1)
            except Exception as why:
                reply = b"\1" + pickle.dumps(RuntimeError(f"{exc!r}, not picklable: {why}"), -1)
        _write(results, len(reply).to_bytes(_SIZE, "little") + reply)


def _lost(index: int, pid: int) -> WorkerLostError:
    """The error for the worker ``pid``, which died running item
    ``index``; reaps it."""
    import signal

    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    status = (f"was killed by {signal.Signals(-code).name}" if code < 0
              else f"exited with status {code}")
    return WorkerLostError(f"item {index}: worker {pid} {status}")


def fork_map(fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
    """``fn(item)`` for each item, in item order.  The first item, in item
    order, that raises re-raises its exception here, and once any item has
    raised no further item starts.  Every worker is reaped before this
    returns or raises; if an item raises or the caller stops early, the
    items not yet started are cancelled and the running ones are waited
    for."""
    workers = min(cpus(), len(items))
    if workers < 2:
        yield from map(fn, items)
        return
    import selectors

    # A worker leaves through os._exit, but what the parent has buffered
    # would reach the worker's copy of the buffers, and be written twice.
    sys.stdout.flush()
    sys.stderr.flush()
    fds: set[int] = set()  # this process's open pipe ends
    pids: dict[int, int] = {}  # a worker's result pipe -> its pid, until reaped
    tasks: dict[int, int] = {}  # a worker's result pipe -> its task pipe
    running: dict[int, int] = {}  # a worker's result pipe -> its item
    done: dict[int, bytearray] = {}  # item -> its reply, until its turn
    pending = iter(range(len(items)))  # the items not yet started
    selector = selectors.DefaultSelector()

    def pipe() -> tuple[int, int]:
        r, w = os.pipe()
        fds.update((r, w))
        return r, w

    def close(fd: int) -> None:
        fds.remove(fd)
        os.close(fd)

    def hand_out(result: int) -> None:
        """Send the next unstarted item to the worker of ``result``, or
        close its pipes if there is none, so that it exits."""
        index = next(pending, None)
        if index is None:
            selector.unregister(result)
            close(result)
            close(tasks.pop(result))
        else:
            try:
                _write(tasks[result], index.to_bytes(_SIZE, "little"))
            except BrokenPipeError:
                raise _lost(index, pids.pop(result)) from None
            running[result] = index

    def receive(timeout: float | None) -> None:
        """Take the results the workers have sent within ``timeout``
        seconds (None: until one comes), and hand each of those workers its
        next item."""
        nonlocal pending
        for key, _ in selector.select(timeout):
            result = key.fd
            head = _read(result, _SIZE)
            reply = head and _read(result, int.from_bytes(head, "little"))
            if reply is None:
                raise _lost(running[result], pids.pop(result))
            done[running.pop(result)] = reply
            if reply[0]:
                pending = iter(())
            hand_out(result)

    try:
        for _ in range(workers):
            task_r, task_w = pipe()
            result_r, result_w = pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for fd in fds - {task_r, result_w}:
                        os.close(fd)
                    _serve(fn, items, task_r, result_w)
                    code = 0
                finally:  # never return into the parent's code
                    try:
                        sys.stdout.flush()
                        sys.stderr.flush()
                    finally:
                        os._exit(code)
            pids[result_r] = pid
            close(task_r)
            close(result_w)
            tasks[result_r] = task_w
            selector.register(result_r, selectors.EVENT_READ)
            hand_out(result_r)
        for index in range(len(items)):
            receive(0)  # no worker waits while the caller holds a result
            while index not in done:
                receive(None)
            reply = done.pop(index)
            value = pickle.loads(memoryview(reply)[1:])
            if reply[0]:
                raise value
            yield value
    finally:
        # A worker with no item left exits; one still running its item
        # finishes it, and fails to send the result.
        selector.close()
        for fd in list(fds):
            close(fd)
        for pid in pids.values():
            os.waitpid(pid, 0)

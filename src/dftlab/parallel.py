"""Two-way parallelism: one helper thread, or one forked child.

Both primitives take ``(fn, first, second)`` and return ``(fn(first),
fn(second))``, with ``fn(first)`` run by the caller and ``fn(second)``
elsewhere, or None, having run nothing, when they decline; the caller
then runs both itself. An error in either call reaches the caller after
both calls have ended. This is the only module that starts a thread,
forks or reads the CPU affinity.

``on_two_threads`` runs ``fn(second)`` on one persistent helper thread,
made at its first use. ``dftlab.model`` splits a forward's batch rows
over it, and ``dftlab.autodiff`` walks the two row halves of a
``row_join`` on it. A caller that finds the helper busy with another
caller's work is declined. A forked child drops its parent's helper and
starts its own.

``on_two_processes`` runs ``fn(second)`` in a child made by ``os.fork``,
for work whose time is Python's, not BLAS's: two threads take turns
holding the interpreter, two processes do not. ``dftlab.theory`` runs
half of the ``dftlab verify`` oracle checks there. The child runs
``fn(second)``, pickles its result, or its error and that error's
formatted traceback, to a pipe and leaves through ``os._exit``; the
caller runs ``fn(first)``, reads the pipe to its end and reaps the
child, killing it first if its own half raises or is interrupted. It
declines in a process allowed one CPU, on a platform without
``os.fork``, and in such a child, so a child never forks again. On a
2-core VM the fork of a 55 MB process took 1.6-3 ms; after it, the
caller takes a minor page fault on each page it first writes: about
1,800 over the benchmark's ``oracle`` verify, and 4,400 more in the
training round after it.
"""

import os
import pickle
import signal
import threading
import traceback


def usable_cpus() -> int:
    """The CPUs this process may run on (1 where the platform cannot tell)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


_helper_lock = threading.Lock()  # held by the one caller whose work the helper runs
_helper = None  # the helper thread: a one-worker executor, made at its first use


def _drop_helper() -> None:
    """A forked child has no helper thread, only its parent's record of one."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helper)


def on_two_threads(fn, first, second):
    """``(fn(first), fn(second))``, with ``fn(second)`` run on the helper thread.

    Returns None, having run nothing, when the helper is busy with another
    caller's work. An error in either call reaches the caller, after both
    calls have ended.
    """
    global _helper
    lock = _helper_lock
    if not lock.acquire(blocking=False):
        return None
    try:
        if _helper is None:
            from concurrent.futures import ThreadPoolExecutor  # loads logging: not at import

            _helper = ThreadPoolExecutor(1, thread_name_prefix="dftlab-rows")
        rest = _helper.submit(fn, second)
        try:
            mine = fn(first)
        except BaseException:
            rest.exception()  # wait for the helper's call; the caller's error wins
            raise
        return mine, rest.result()
    finally:
        lock.release()


_in_split_child = False  # True in a child made by on_two_processes


def on_two_processes(fn, first, second):
    """``(fn(first), fn(second))``, with ``fn(second)`` run in a forked child.

    Returns None, having run nothing, when the process may use one CPU, when
    the platform has no ``os.fork``, or when the caller is itself such a
    child. The child sends its result, or its error, back pickled, so
    ``fn(second)`` must return something picklable; what it changes in
    memory stays in the child, and what it prints through ``sys.stdout``
    is never flushed. An error in either call reaches the caller, after
    both calls have ended; the child's carries the child's traceback as a
    note. A child that leaves no result is a RuntimeError naming its wait
    status. No child outlives the call.
    """
    if _in_split_child or not hasattr(os, "fork") or usable_cpus() < 2:
        return None
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        _child_half(fn, second, read_end, write_end)  # never returns
    os.close(write_end)
    with open(read_end, "rb") as pipe:
        try:
            mine = fn(first)
            payload = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = _reap(pid)
    if status != 0 or not payload:  # 0: exited with code 0
        raise RuntimeError(f"the forked half left no result (wait status {status}, "
                           f"exit code {os.waitstatus_to_exitcode(status)})")
    ok, theirs, trace = pickle.loads(payload)
    if not ok:
        theirs.add_note(f"raised in the forked half (pid {pid}):\n{trace}")
        raise theirs
    return mine, theirs


def _child_half(fn, second, read_end: int, write_end: int) -> None:
    """The child's side of ``on_two_processes``: it leaves only through
    ``os._exit``, so no atexit handler runs, no stdio buffer inherited from
    the parent is flushed, and control never returns into the parent's stack."""
    global _in_split_child
    code = 1
    try:
        _in_split_child = True
        os.close(read_end)
        try:
            result = (True, fn(second), None)
        except BaseException as exc:
            result = (False, exc, traceback.format_exc())
        payload = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)  # if this fails: exit code 1
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _reap(pid: int) -> int:
    """Child ``pid``'s wait status; an interrupt while waiting kills and reaps it."""
    try:
        return os.waitpid(pid, 0)[1]
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise

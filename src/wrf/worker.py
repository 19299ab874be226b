"""One forked worker, under one start rule, behind one submit interface.

fn and what it closes over reach the child by fork; only arguments and
results cross the pipe. available() is the start rule: fork exists (it
shares memory without pickling), the process runs one thread (fork
copies only the caller) and is not daemonic (a daemon has no children),
and BLAS leaves a CPU free; otherwise the worker costs more than it
saves. train() evaluates epochs in one, landscape_probe probes directions.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import signal
import threading
from contextlib import contextmanager

# Unset, OpenBLAS and MKL start one BLAS thread per usable CPU.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_threads(cpus: int) -> int:
    """BLAS threads per process, as the environment sets them."""
    for var in _BLAS_THREAD_VARS:
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if n >= 1:
            return min(n, cpus)
    return cpus


def available() -> bool:
    """Whether forked() may fork: see the module docstring."""
    if "fork" not in multiprocessing.get_all_start_methods() or not hasattr(os, "sched_getaffinity"):
        return False
    cpus = len(os.sched_getaffinity(0))
    return (
        cpus > _blas_threads(cpus)
        and threading.active_count() == 1
        and not multiprocessing.current_process().daemon
    )


def _worker_loop(conn, parent_end, fn) -> None:
    """Worker body: an argument in, (ok, fn(argument) or exception) out."""
    # Without the parent's end of the pipe, a parent that dies leaves
    # this process an EOF instead of a recv that never returns.
    parent_end.close()
    # Ctrl-C reaches the whole process group; the parent stops this process.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            arg = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, fn(arg))
        except Exception as exc:
            reply = (False, exc)
        conn.send(reply)


@contextmanager
def forked(fn, name: str):
    """Yield submit(x), which returns the call that gives fn(x).

    In-process the call evaluates when it is made; with a worker
    (available()) submit() hands x to a forked child and the call waits
    for its reply, raising the child's exception if fn raised and
    RuntimeError(f"{name} exited with code N") if the child died.
    Leaving the block stops the worker; an exception leaving it
    terminates the worker first.
    """
    if not available():
        yield lambda arg: functools.partial(fn, arg)
        return
    ctx = multiprocessing.get_context("fork")
    conn, child_end = ctx.Pipe()
    proc = ctx.Process(
        target=_worker_loop, args=(child_end, conn, fn), name=f"wrf {name}", daemon=True
    )
    proc.start()
    child_end.close()

    def exited() -> RuntimeError:
        proc.join()
        return RuntimeError(f"{name} exited with code {proc.exitcode}")

    def result():
        # The worker holds the only other end of the pipe, so its exit
        # ends a blocked recv() with EOFError.
        try:
            ok, value = conn.recv()
        except EOFError:
            raise exited() from None
        if not ok:
            raise value
        return value

    def submit(arg):
        try:
            conn.send(arg)
        except BrokenPipeError:
            raise exited() from None
        return result

    try:
        yield submit
    except BaseException:
        proc.terminate()  # KeyboardInterrupt included; the worker ignores SIGINT
        raise
    finally:
        conn.close()  # an idle worker sees EOF and returns
        proc.join(timeout=10.0)
        if proc.is_alive():
            proc.terminate()
            proc.join()

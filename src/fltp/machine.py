"""What this process computes on: numpy's BLAS build, the OpenBLAS core type
and thread count, and the CPUs the process may run on; and fork_map, which
spreads work over forked processes when those facts make it safe."""
from __future__ import annotations

import ctypes
import multiprocessing
import os
import threading
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Callable, Sequence, TypeVar

import numpy as np

Item = TypeVar("Item")
Result = TypeVar("Result")


def usable_cpus() -> int:
    """The CPUs in this process's affinity mask; 1 where the platform
    cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _openblas(symbol: str, restype: type):
    """What numpy's bundled OpenBLAS returns from its no-argument function
    `symbol`, or None where numpy bundles no OpenBLAS that exports it."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            fn = getattr(ctypes.CDLL(str(lib)), symbol)
        except (OSError, AttributeError):
            continue
        fn.argtypes, fn.restype = [], restype
        return fn()
    return None


def blas_threads() -> int | None:
    """The threads numpy's OpenBLAS runs a call on, or None where numpy's
    BLAS is not a bundled OpenBLAS."""
    return _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)


def describe() -> str:
    """One line: numpy's BLAS build, the OpenBLAS core type this process runs
    (the one OpenBLAS picked for the CPU or the one OPENBLAS_CORETYPE named),
    the BLAS thread count and the usable CPUs."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    core = _openblas("scipy_openblas_get_corename64_", ctypes.c_char_p)
    threads = blas_threads()
    return (
        f"BLAS {blas.get('name')} {blas.get('version')}, "
        f"OpenBLAS core type {'unknown' if core is None else core.decode()}, "
        f"BLAS threads {'unknown' if threads is None else threads}, usable CPUs {usable_cpus()}"
    )


def _run_share(conn: Connection, fn: Callable[[Item], Result], share: Sequence[Item]) -> None:
    """A forked worker's body: send (None, fn of each item of its share), or
    (the exception that stopped it, None)."""
    try:
        result = (None, [fn(item) for item in share])
    except Exception as exc:  # re-raised by the parent
        result = (exc, None)
    conn.send(result)
    conn.close()


def fork_map(fn: Callable[[Item], Result], items: Sequence[Item], max_workers: int | None = None) -> list[Result]:
    """fn of each item, in order.

    With W = min(max_workers, usable CPUs, items) of at least 2, in the main
    process (a worker's own fork_map calls run in the worker, so one level
    forks), which runs no other thread (a fork beside a running thread can
    deadlock the child) and whose BLAS runs one thread or an unknown number
    (W workers of several BLAS threads each would oversubscribe the cores),
    W forked children run items k, k + W, ...: each reads the inputs it
    inherited and sends back only its results. Otherwise the items run here,
    one after another. Every child is joined before this returns or raises;
    a child's exception is raised here, and a child that exits without
    sending its results raises RuntimeError.
    """
    workers = min(usable_cpus(), len(items), max_workers or len(items))
    in_worker = multiprocessing.parent_process() is not None
    if workers < 2 or in_worker or threading.active_count() > 1 or (blas_threads() or 1) > 1:
        return [fn(item) for item in items]

    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for k in range(workers):
            receiver, sender = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_run_share, args=(sender, fn, items[k::workers]))
            child.start()
            sender.close()  # so the receiver sees EOF once the child exits
            children.append((child, receiver))
        results: list = [None] * len(items)
        failure: Exception | None = None
        for k, (child, receiver) in enumerate(children):
            try:
                error, share = receiver.recv()
            except EOFError:  # the child exited without sending
                child.join()
                error = RuntimeError(
                    f"worker process {child.pid} exited with code {child.exitcode} "
                    f"before sending the results of its {len(items[k::workers])} items"
                )
            if error is None:
                results[k::workers] = share
            elif failure is None:
                failure = error
        if failure is not None:
            raise failure
        return results
    finally:
        for child, receiver in children:
            receiver.close()
            if child.is_alive():
                child.terminate()
            child.join()

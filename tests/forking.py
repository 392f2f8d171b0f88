"""Helpers for tests of the forked paths: a spy that records which process
made each call, and a patch for the facts fork_map reads."""
import os

from fltp import machine


def pid_spy(monkeypatch, record, module, name):
    """Replaces module.<name> with a spy that appends the pid of each call,
    in this process or a forked one, to the file record; returns the
    function that reads and clears the record."""
    real = getattr(module, name)

    def spy(*args, **kwargs):
        with open(record, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)

    def read():
        pids = [int(line) for line in record.read_text(encoding="utf-8").split()] if record.exists() else []
        record.unlink(missing_ok=True)
        return pids

    return read


def set_cpus(monkeypatch, n, blas_threads=1):
    """n usable CPUs, and a BLAS that reports blas_threads threads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(machine, "blas_threads", lambda: blas_threads)

"""What this process computes on: numpy's BLAS build, the OpenBLAS core type
and thread count, and the CPUs the process may run on."""
from __future__ import annotations

import ctypes
import os
from pathlib import Path

import numpy as np


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

"""Reference figures for benchmark/README.md.

    python3 benchmark/reference.py

Run from the root of a checkout (a few minutes on 2 cores). It times one
desk fl-tp round, one paper-profile fl-tp round at 4, 10 and 20 vehicles,
the desk sweep on 1 and 2 workers, and prints the desk output fingerprint:
the sha256 of summary.csv from `fltp run --profile desk` at penetration 0.75.
"""
from __future__ import annotations

import hashlib
import os
import sys
import time
from pathlib import Path

from run import BLAS_ENV, BLAS_THREADS

for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import workloads as wl
    from fltp.cli import main as fltp_main

    print(wl.machine_info(BLAS_THREADS))
    out = root / ".bench_out" / "reference"
    out.mkdir(parents=True, exist_ok=True)
    for profile, n in (("desk", 4), ("paper", 4), ("paper", 10), ("paper", 20)):
        w = wl.Workload(f"{profile}-round-v{n}", "train", profile, n, "fl-tp", 1, 1)
        cfg = wl.make_config(w, 1, out)
        t0 = time.perf_counter()
        cells = wl.build_cells(w, cfg, 1)
        build = time.perf_counter() - t0
        t0 = time.perf_counter()
        wl.Operation(w, cfg, cells, out).run()
        print(f"{profile} fl-tp round, {n} vehicles: build {build:.2f} s, round {time.perf_counter() - t0:.2f} s")

    desk = wl.WORKLOADS["desk-sweep"]
    for workers in (1, 2):
        cfg = wl.make_config(desk, 1, out / f"sweep-{workers}w")
        t0 = time.perf_counter()
        wl.run_experiment(cfg, threads=workers)
        print(f"desk sweep (6 cells x {desk.rounds} rounds), {workers} worker(s): {time.perf_counter() - t0:.2f} s")

    cfg_file = out / "desk75.cfg"
    cfg_file.write_text("penetrations = 0.75\n", encoding="utf-8")
    fp_dir = out / "fingerprint"
    fltp_main(["run", "--config", str(cfg_file), "--profile", "desk", "--out", str(fp_dir)])
    digest = hashlib.sha256((fp_dir / "summary.csv").read_bytes()).hexdigest()
    print(f"desk fingerprint (sha256 of summary.csv): {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

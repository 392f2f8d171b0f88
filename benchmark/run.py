"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload desk-sweep --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: it imports fltp from ./src. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of a traced run, whose spans are written to
.bench_out/. Everything else goes to standard error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: BLAS threads per process; workers times this never exceeds nproc
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # BLAS reads its thread count when numpy is first imported, below
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    root = Path.cwd()
    if not (root / "src" / "fltp").is_dir():
        print(f"no fltp sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parent)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {sorted(workloads.WORKLOADS)})")
    workers = workloads.PROBE_WORKERS if args.trace else 1
    nproc = os.cpu_count() or 1
    if workers * BLAS_THREADS > nproc:
        print(f"{workers} workers x {BLAS_THREADS} BLAS threads exceed nproc = {nproc}", file=sys.stderr)
        return 2

    print(json.dumps(workloads.machine_info(BLAS_THREADS)), file=sys.stderr)
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), root, BLAS_THREADS)
    for problem in result.pop("problems"):
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

    fltp run --config exp.cfg [--profile desk|paper] [--seed N] [--out DIR] [--threads N]
    fltp summarize --in DIR --out FILE
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

# One BLAS thread unless the caller chose otherwise. BLAS reads these when
# numpy is first imported, by the imports below; the forked workers inherit
# them, so W workers never run W x nproc BLAS threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .config import PROFILES, load_config
from .experiment import export_summary, run_experiment
from .machine import describe


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fltp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a sweep")
    run_p.add_argument("--config", required=True, help="flat key = value config file")
    run_p.add_argument("--profile", choices=sorted(PROFILES), default=None, help="scale preset applied under the config file")
    run_p.add_argument("--seed", type=int, default=None, help="override master_seed")
    run_p.add_argument("--out", default=None, help="override out_dir")
    run_p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="data seeds run at once, each on a forked worker process, at most one per usable CPU; with 1, each round "
        "trains its vehicles and evaluates its pool on forked processes instead, unless BLAS runs more than one thread",
    )

    sum_p = sub.add_parser("summarize", help="rebuild summary.csv from per-round CSVs")
    sum_p.add_argument("--in", dest="in_dir", required=True, help="directory holding rounds_*.csv")
    sum_p.add_argument("--out", dest="out_file", required=True, help="summary CSV to write")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr)
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            logging.getLogger("fltp").info("%s", describe())
            cfg = load_config(args.config, profile=args.profile)
            if args.seed is not None:
                cfg = replace(cfg, master_seed=args.seed)
            if args.out is not None:
                cfg = replace(cfg, out_dir=args.out)
            written = run_experiment(cfg, threads=args.threads)
            print(f"wrote {len(written)} files under {cfg.out_dir}")
        else:
            out = export_summary(args.in_dir, args.out_file)
            print(f"wrote {out}")
    except (ValueError, OSError) as exc:  # a ConfigError, a divergence or a malformed rounds file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

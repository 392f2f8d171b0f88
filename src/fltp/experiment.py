"""Sweep execution: every (penetration, vehicle count, repeat) data seed is
built once and runs every method on that build, so methods are compared on
the same scenario, datasets and initial model; all artifacts are
byte-reproducible for any worker count."""
from __future__ import annotations

import csv
import io
import logging
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .config import ExperimentConfig
from .federated import METHODS, EvalSet, VehicleData, run_flt_round, save_checkpoint
from .machine import fork_map
from .metrics import MetricSummary, RoundReport, mean_std
from .model import ModelParams, forward, loss
from .seeding import TAG_CELL, TAG_INIT, TAG_SCENARIO, derive_rng, derive_seed
from .simulate import assemble_datasets, pooled_training_set
from .trace import generate_scenario

log = logging.getLogger(__name__)

#: a round whose pool loss exceeds this multiple of the initial model's pool
#: loss has diverged, even while the loss is still finite
DIVERGENCE_FACTOR = 1e6

ROUNDS_HEADER = [
    "run_id",
    "method",
    "penetration",
    "n_vehicles",
    "repeat",
    "round",
    "mode",
    "pred_error_m",
    "atk_accuracy",
    "loss",
]

SUMMARY_HEADER = [
    "method",
    "penetration",
    "n_vehicles",
    "repeats",
    "final_round",
    "acc_mean",
    "acc_std",
    "err_mean",
    "err_std",
    "acc_improvement_pct",
    "err_improvement_pct",
]


@dataclass(frozen=True)
class SweepCell:
    method: str
    penetration: float
    n_vehicles: int
    repeat: int
    pen_idx: int
    veh_idx: int

    @property
    def run_id(self) -> str:
        return f"{self.method}_p{self.penetration:g}_v{self.n_vehicles}_rep{self.repeat}"


def cell_seed(master_seed: int, pen_idx: int, veh_idx: int, repeat: int) -> int:
    """Per-cell seed. Method identity is deliberately excluded so all methods
    of a cell share scenario, datasets, and initialization."""
    return derive_seed(master_seed, TAG_CELL, pen_idx, veh_idx, repeat)


def accuracy_improvement_pct(value: float, baseline: float) -> float:
    """Relative accuracy gain over a baseline, in percent; nan unless the
    baseline is > 0, so a nan baseline gives nan too."""
    return (value - baseline) / baseline * 100.0 if baseline > 0 else float("nan")


def error_improvement_pct(value: float, baseline: float) -> float:
    """Relative error reduction against a baseline, in percent; nan unless
    the baseline is > 0, so a nan baseline gives nan too."""
    return (baseline - value) / baseline * 100.0 if baseline > 0 else float("nan")


def build_cell_data(cfg: ExperimentConfig, penetration: float, n_vehicles: int, seed: int):
    """Scenario + datasets + initial model for one cell seed. The vehicles'
    features and labels are in cfg.train.precision, which local training
    follows; the pool and the initial model stay float64."""
    scen_cfg = replace(
        cfg.scenario,
        n_vehicles=n_vehicles,
        penetration=penetration,
        rng_seed=derive_seed(seed, TAG_SCENARIO),
    )
    scenario = generate_scenario(scen_cfg)
    vehicles, eval_set = assemble_datasets(scenario, cfg.attack, cfg.norm, cfg.train_fraction, cfg.train.precision)
    initial = ModelParams.init(cfg.train.hidden_size, derive_rng(seed, TAG_INIT))
    return scenario, vehicles, eval_set, initial


def divergence_limit(initial: ModelParams, eval_set: EvalSet) -> float:
    """The pool loss above which a round has diverged, even while finite:
    DIVERGENCE_FACTOR times the initial model's. All methods of a data seed
    share it."""
    return DIVERGENCE_FACTOR * loss(forward(initial, eval_set.features), eval_set.labels)


def run_method_rounds(
    cfg: ExperimentConfig,
    method: str,
    vehicles: list[VehicleData],
    eval_set: EvalSet,
    initial: ModelParams,
    seed: int,
    loss_limit: float,
) -> Iterator[tuple[ModelParams, RoundReport]]:
    """Yield (params, report) after each of cfg.train.global_rounds rounds of
    one method on prepared data; METHODS says how the method trains.

    Raises ValueError as soon as a round's loss or trajectory error is not
    finite, or the loss exceeds loss_limit, so a diverged run never becomes
    result rows.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method: {method!r}")
    spec = METHODS[method]
    if spec.pooled:
        vehicles = [VehicleData(0, *pooled_training_set(vehicles))]
    gate = cfg.gate if spec.gated else None
    params = initial
    prev_accuracy = 0.0
    for round_idx in range(1, cfg.train.global_rounds + 1):
        params, report = run_flt_round(
            params,
            vehicles,
            eval_set,
            round_idx=round_idx,
            prev_accuracy=prev_accuracy,
            gate=gate,
            influence=cfg.influence,
            train=cfg.train,
            norm=cfg.norm,
            seed=seed,
            judgment_threshold=cfg.judgment_threshold,
            method=method,
        )
        if spec.pooled:
            report = replace(report, mode=method)
        if not (report.loss <= loss_limit and np.isfinite(report.prediction_error)):
            raise ValueError(
                f"{method} diverged at round {round_idx} (cell seed {seed}): "
                f"loss {report.loss!r} (limit {loss_limit!r}), pred_error_m {report.prediction_error!r}"
            )
        prev_accuracy = report.prediction_accuracy
        yield params, report


def run_cells(cfg: ExperimentConfig, cells: list[SweepCell]) -> list[list[RoundReport]]:
    """Build the data of one data seed once and run each cell's method on it,
    in the given order. The cells share penetration, vehicle count and repeat.
    With cfg.checkpoints, each round's parameters go to
    checkpoints/<run_id>/ under out_dir, replacing a previous run's."""
    first = cells[0]
    seed = cell_seed(cfg.master_seed, first.pen_idx, first.veh_idx, first.repeat)
    _, vehicles, eval_set, initial = build_cell_data(cfg, first.penetration, first.n_vehicles, seed)
    limit = divergence_limit(initial, eval_set)
    all_reports = []
    for cell in cells:
        t0 = time.perf_counter()
        reports = []
        for params, report in run_method_rounds(cfg, cell.method, vehicles, eval_set, initial, seed, limit):
            if cfg.checkpoints:
                save_checkpoint(Path(cfg.out_dir) / "checkpoints" / cell.run_id, report.round_idx, params, report)
            reports.append(report)
        all_reports.append(reports)
        log.info("cell %s finished in %.1fs", cell.run_id, time.perf_counter() - t0)
    return all_reports


def run_cell(cfg: ExperimentConfig, cell: SweepCell) -> list[RoundReport]:
    return run_cells(cfg, [cell])[0]


def _fmt(x: float) -> str:
    return repr(float(x))


def write_rounds_csv(path: Path, cell: SweepCell, reports: list[RoundReport]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROUNDS_HEADER)
        for rep in reports:
            writer.writerow(
                [
                    cell.run_id,
                    cell.method,
                    _fmt(cell.penetration),
                    cell.n_vehicles,
                    cell.repeat,
                    rep.round_idx,
                    rep.mode,
                    _fmt(rep.prediction_error),
                    _fmt(rep.prediction_accuracy),
                    _fmt(rep.loss),
                ]
            )


def sweep_cells(cfg: ExperimentConfig) -> list[SweepCell]:
    cells = []
    for method in cfg.methods:
        for pen_idx, pen in enumerate(cfg.penetrations):
            for veh_idx, n_veh in enumerate(cfg.vehicle_counts):
                for repeat in range(cfg.repeats):
                    cells.append(SweepCell(method, pen, n_veh, repeat, pen_idx, veh_idx))
    return cells


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> list[Path]:
    """Execute the full sweep; returns the paths of all files written.

    The cells of one data seed share one build (run_cells). Up to `threads`
    data seeds run at once, each on a forked worker process, at most one per
    usable CPU, and their rounds run in-process, since only the main process
    forks (fork_map). With one thread, the data seeds run here and each
    round forks instead (run_flt_round). Every data seed is seeded and
    written independently, so the bytes are the same for any `threads` and
    CPU count; a worker's exception, such as a divergence, is raised here.
    An out_dir whose nearest existing path (itself or an ancestor; a dangling
    symlink exists) is not a directory raises ValueError before any cell
    runs; the check creates nothing.
    out_dir is created once every cell has finished, so a failed run leaves
    none behind (checkpoints make their own directories). The summary is
    rebuilt from the rounds files this run wrote, by the same reader as
    export_summary; other files in out_dir are ignored.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    out_dir = Path(cfg.out_dir)
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists() or p.is_symlink())
    if not existing.is_dir():
        raise ValueError(f"out_dir {out_dir}: {existing} is not a directory")
    cells = sweep_cells(cfg)
    groups: dict[tuple[int, int, int], list[SweepCell]] = {}
    for cell in cells:  # method-major, so each group keeps cfg.methods order
        groups.setdefault((cell.pen_idx, cell.veh_idx, cell.repeat), []).append(cell)

    group_reports = fork_map(lambda group: run_cells(cfg, group), list(groups.values()), threads)
    reports_of: dict[SweepCell, list[RoundReport]] = {}
    for group, reports in zip(groups.values(), group_reports):
        reports_of.update(zip(group, reports))

    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for cell in cells:
        path = out_dir / f"rounds_{cell.run_id}.csv"
        write_rounds_csv(path, cell, reports_of[cell])
        written.append(path)

    summary_path = out_dir / "summary.csv"
    write_summary_csv(summary_path, read_final_rows(written))
    written.append(summary_path)
    return written


def write_summary_csv(path: Path, final_rows: list[dict]) -> None:
    """One row per (method, penetration, n_vehicles) of the final-round rows,
    in that order: the repeat count, the final round, the mean and sample
    std (nan for one repeat) of accuracy and error across repeats, and each
    mean's improvement over the group's centralized mean (nan where no
    centralized group exists or its mean is not > 0)."""
    groups: dict[tuple[str, float, int], list[dict]] = {}
    for row in final_rows:
        groups.setdefault((row["method"], row["penetration"], row["n_vehicles"]), []).append(row)
    summaries = {
        key: (mean_std([r["atk_accuracy"] for r in rows]), mean_std([r["pred_error_m"] for r in rows]))
        for key, rows in groups.items()
    }
    no_baseline = (MetricSummary(float("nan"), None),) * 2

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for method, pen, n_veh in sorted(groups):
            rows = groups[method, pen, n_veh]
            acc, err = summaries[method, pen, n_veh]
            base_acc, base_err = summaries.get(("centralized", pen, n_veh), no_baseline)
            values = (
                acc.mean,
                acc.std,
                err.mean,
                err.std,
                accuracy_improvement_pct(acc.mean, base_acc.mean),
                error_improvement_pct(err.mean, base_err.mean),
            )
            writer.writerow(
                [method, _fmt(pen), n_veh, len(rows), max(r["round"] for r in rows)]
                + [_fmt(float("nan") if x is None else x) for x in values]
            )


#: the rounds-file columns the summary reads, each with its parser
FINAL_COLUMNS = dict(
    run_id=str, method=str, penetration=float, n_vehicles=int, repeat=int, round=int, pred_error_m=float, atk_accuracy=float
)


def read_final_rows(paths: list[Path]) -> list[dict]:
    """The final-round row of every run in the given rounds files, in
    (method, penetration, n_vehicles, repeat) order. A row lacking one of
    FINAL_COLUMNS or holding a value its parser refuses raises ValueError
    naming path:line and the column; a file that is not UTF-8 raises
    ValueError naming the path."""
    final_by_run: dict[str, dict] = {}
    for path in paths:
        try:
            content = Path(path).read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        reader = csv.DictReader(io.StringIO(content, newline=""))
        for rec in reader:
            row = {}
            for column, parse in FINAL_COLUMNS.items():
                if (text := rec.get(column)) is None:  # the header or a short row lacks the column
                    raise ValueError(f"{path}:{reader.line_num}: column {column!r}: no value")
                try:
                    row[column] = parse(text)
                except ValueError:
                    raise ValueError(f"{path}:{reader.line_num}: column {column!r}: cannot read {text!r}") from None
            prev = final_by_run.get(row["run_id"])
            if prev is None or row["round"] > prev["round"]:
                final_by_run[row["run_id"]] = row
    # Numeric sort (not run_id string sort: "rep10" < "rep2") fixes the
    # per-group accumulation order, and so every output bit.
    return sorted(
        final_by_run.values(),
        key=lambda r: (r["method"], r["penetration"], r["n_vehicles"], r["repeat"]),
    )


def export_summary(rounds_dir: str | Path, out_file: str | Path) -> Path:
    """Rebuild the summary from the per-round CSV files in a directory."""
    rounds_dir = Path(rounds_dir)
    files = sorted(rounds_dir.glob("rounds_*.csv"))
    if not files:
        raise ValueError(f"no rounds_*.csv files under {rounds_dir}")
    if not (rows := read_final_rows(files)):
        raise ValueError(f"no rounds rows under {rounds_dir}")
    out_file = Path(out_file)
    write_summary_csv(out_file, rows)
    return out_file

"""The benchmark's workloads, their timed operations, checks and layer probes.

Every workload builds its inputs from the seed through fltp's public
functions, times whole operations (a sweep, a federated round, an
evaluation) until the run's seconds are spent, and then checks the outputs
with refcheck. The traced run adds spans around each call into the program
and drives the layers the program only reaches from inside another layer.
"""
from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from fltp.config import config_from_kv
from fltp.experiment import build_cell_data, cell_seed, run_cell, run_experiment, sweep_cells, write_rounds_csv
from fltp.features import windows_from_stream
from fltp.federated import LocalUpdate, aggregate, evaluate_global, mre_weights, run_flt_round
from fltp.model import (
    ModelParams,
    OptimizerState,
    backward,
    flat_length,
    forward,
    forward_cached,
    sgd_step,
    train_local,
)
from fltp.seeding import TAG_INIT, TAG_SCENARIO, TAG_TRAIN, derive_rng, derive_seed
from fltp.simulate import assemble_datasets, broadcast_streams
from fltp.trace import generate_scenario

import refcheck
from spans import Tracer

PENETRATION = 0.75
DESK_METHODS = "fl-tp, fed-avg, centralized"
DESK_ROUNDS = 5
EVAL_MODELS = 8
#: worker threads of the traced run's second desk sweep
PROBE_WORKERS = 2
#: seed tag of the extra evaluation models; far from fltp's own tags
TAG_EVAL_MODEL = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" | "train" | "eval"
    profile: str
    n_vehicles: int
    methods: str
    repeats: int
    rounds: int
    #: input builds before the first timed operation and after each one
    setup_builds: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-sweep", "sweep", "desk", 4, DESK_METHODS, 2, DESK_ROUNDS, setup_builds=3),
        Workload("paper-v10", "train", "paper", 10, "fl-tp", 1, 1, setup_builds=2),
        Workload("paper-v20-eval", "eval", "paper", 20, "fl-tp", 1, 1),
    )
}


def make_config(w: Workload, seed: int, out_dir: Path, **overrides: str):
    kv = {
        "methods": w.methods,
        "penetrations": str(PENETRATION),
        "vehicle_counts": str(w.n_vehicles),
        "repeats": str(w.repeats),
        "global_rounds": str(w.rounds),
        "master_seed": str(seed),
        "out_dir": str(out_dir),
    }
    kv.update(overrides)
    return config_from_kv(kv, profile=w.profile)


@dataclass
class Cell:
    seed: int
    scenario: object
    vehicles: list
    eval_set: object
    initial: ModelParams


def build_cells(w: Workload, cfg, seed: int) -> list[Cell]:
    """One cell per repeat; methods of a repeat share its data."""
    cells = []
    for rep in range(w.repeats):
        cseed = cell_seed(seed, 0, 0, rep)
        cells.append(Cell(cseed, *build_cell_data(cfg, PENETRATION, w.n_vehicles, cseed)))
    return cells


def windows_per_round(cfg, cell: Cell) -> int:
    """Windows one round pushes through the model: every training sample once
    per local episode, then every pool window once for evaluation. The
    centralized trainer sees the same samples pooled."""
    samples = sum(v.n_samples for v in cell.vehicles)
    return cfg.train.local_episodes * samples + cell.eval_set.features.shape[0]


def eval_models(cfg, cell: Cell) -> list[ModelParams]:
    """The cell's initial global model plus further seeded initializations."""
    extra = [
        ModelParams.init(cfg.train.hidden_size, derive_rng(cell.seed, TAG_EVAL_MODEL, k))
        for k in range(1, EVAL_MODELS)
    ]
    return [cell.initial] + extra


# --- timed operations ------------------------------------------------------


class Operation:
    """One whole unit of timed work; `ops` is what it counts as attempted."""

    def __init__(self, w: Workload, cfg, cells: list[Cell], scratch: Path):
        self.w, self.cfg, self.cells, self.scratch = w, cfg, cells, scratch
        if w.kind == "sweep":
            self.ops = len(sweep_cells(cfg))
            self.windows = self.ops * w.rounds * windows_per_round(cfg, cells[0])
        elif w.kind == "train":
            self.ops = w.rounds
            self.windows = w.rounds * windows_per_round(cfg, cells[0])
        else:
            self.models = eval_models(cfg, cells[0])
            self.ops = len(self.models)
            self.windows = self.ops * cells[0].eval_set.features.shape[0]

    def run(self, tracer: Tracer | None = None):
        span = tracer.span if tracer else _no_span
        cfg, cell = self.cfg, self.cells[0]
        if self.w.kind == "sweep":
            out = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.scratch))
            with span("experiment.run_experiment.1w"):
                run_experiment(replace(cfg, out_dir=str(out)), threads=1)
            return out
        if self.w.kind == "train":
            params, prev_accuracy, reports = cell.initial, 0.0, []
            for round_idx in range(1, self.w.rounds + 1):
                with span("federated.run_flt_round"):
                    params, report = run_flt_round(
                        params,
                        cell.vehicles,
                        cell.eval_set,
                        round_idx=round_idx,
                        prev_accuracy=prev_accuracy,
                        gate=cfg.gate,
                        influence=cfg.influence,
                        train=cfg.train,
                        norm=cfg.norm,
                        seed=cell.seed,
                        judgment_threshold=cfg.judgment_threshold,
                    )
                prev_accuracy = report.prediction_accuracy
                reports.append(report)
            return params, reports
        results = []
        for model in self.models:
            with span("federated.evaluate_global"):
                results.append(evaluate_global(model, cell.eval_set, cfg.norm, cfg.judgment_threshold))
        return results


def _no_span(name: str):
    return nullcontext()


def timed_loop(op: Operation, seconds: float, tracer: Tracer | None = None, between=None):
    """Run whole operations until they have taken `seconds` (at least one),
    calling `between` after each one, outside its timing.

    Returns (durations, results, failures). An operation that raises is
    counted as failed and its result is None.
    """
    durations, results, failures = [], [], []
    while True:
        t0 = time.perf_counter()
        try:
            results.append(op.run(tracer))
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append(f"{type(exc).__name__}: {exc}")
            results.append(None)
        durations.append(time.perf_counter() - t0)
        if between is not None:
            between()
        if sum(durations) >= seconds:
            return durations, results, failures


# --- checks ----------------------------------------------------------------


def _digest(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


def _round_one(cfg, cell: Cell):
    return run_flt_round(
        cell.initial,
        cell.vehicles,
        cell.eval_set,
        round_idx=1,
        prev_accuracy=0.0,
        gate=cfg.gate,
        influence=cfg.influence,
        train=cfg.train,
        norm=cfg.norm,
        seed=cell.seed,
        judgment_threshold=cfg.judgment_threshold,
    )


def check_inputs(w: Workload, cfg, cells: list[Cell]) -> list[str]:
    problems = []
    for cell in cells:
        problems += refcheck.check_cell_data(
            cell.scenario, cell.vehicles, cell.eval_set, PENETRATION, cfg.scenario.n_steps, cfg.train_fraction
        )
        updates = [LocalUpdate(v.vehicle_id, np.zeros(1), v.attack_histogram(), v.n_samples) for v in cell.vehicles]
        problems += refcheck.check_weights(mre_weights(updates, cfg.influence), cell.vehicles, cfg.influence)
    return problems


def check_outputs(op: Operation, results: list) -> list[str]:
    """Check the first operation's outputs against independent computations;
    every later operation of the run must reproduce them exactly."""
    w, cfg, cells = op.w, op.cfg, op.cells
    thr, side = cfg.judgment_threshold, cfg.norm.region_side
    problems = []
    if w.kind == "sweep":
        out = results[0]
        problems += refcheck.check_sweep(out, cfg.methods, PENETRATION, w.n_vehicles, w.repeats, w.rounds)
        digest = _digest(out)
        if any(_digest(other) != digest for other in results[1:]):
            problems.append("repeated sweeps wrote different bytes")
        runs = refcheck.read_rounds(out)
        for rep, cell in enumerate(cells):
            params, report = _round_one(cfg, cell)
            row = runs[f"fl-tp_p{PENETRATION:g}_v{w.n_vehicles}_rep{rep}"][0]
            if [row["pred_error_m"], row["atk_accuracy"], row["loss"]] != [
                repr(report.prediction_error),
                repr(report.prediction_accuracy),
                repr(report.loss),
            ]:
                problems.append(f"repeat {rep}: fl-tp round-1 row differs from a serial recomputation")
            problems += refcheck.check_evaluation(
                params, cell.eval_set.features, cell.eval_set.labels, side, thr,
                float(row["pred_error_m"]), float(row["atk_accuracy"]), float(row["loss"]),
                what=f"fl-tp repeat {rep} round 1",
            )
    elif w.kind == "train":
        params, reports = results[0]
        cell = cells[0]
        for report in reports:
            if not math.isfinite(report.loss):
                problems.append(f"round {report.round_idx}: loss {report.loss}")
            if report.mode == "uniform":
                expected = [1.0 / len(cell.vehicles)] * len(cell.vehicles)
                if list(report.lambdas) != expected:
                    problems.append(f"round {report.round_idx}: uniform weights {report.lambdas}")
            else:
                problems += refcheck.check_weights(report.lambdas, cell.vehicles, cfg.influence)
        if reports[0].mode != "uniform":
            problems.append(f"round 1 mode {reports[0].mode}, the accuracy gate starts uniform")
        last = reports[-1]
        problems += refcheck.check_evaluation(
            params, cell.eval_set.features, cell.eval_set.labels, side, thr,
            last.prediction_error, last.prediction_accuracy, last.loss, what=f"round {last.round_idx}",
        )
        for other in results[1:]:
            if not np.array_equal(other[0].flatten(), params.flatten()):
                problems.append("repeated rounds trained different parameters")
    else:
        cell = cells[0]
        for k, (model, (err, acc, _, loss)) in enumerate(zip(op.models, results[0])):
            problems += refcheck.check_evaluation(
                model, cell.eval_set.features, cell.eval_set.labels, side, thr, err, acc, loss, what=f"model {k}"
            )
        if any(other != results[0] for other in results[1:]):
            problems.append("repeated evaluations gave different results")
    return problems


def quality(op: Operation, result) -> tuple[float, float]:
    """(attack-judgment accuracy, mean displacement in metres) of fl-tp's
    final round; on the evaluation workload, the mean over its models."""
    if op.w.kind == "sweep":
        runs = refcheck.read_rounds(result)
        finals = [rows[-1] for run_id, rows in runs.items() if run_id.startswith("fl-tp_")]
        return (
            math.fsum(float(r["atk_accuracy"]) for r in finals) / len(finals),
            math.fsum(float(r["pred_error_m"]) for r in finals) / len(finals),
        )
    if op.w.kind == "train":
        last = result[1][-1]
        return last.prediction_accuracy, last.prediction_error
    return (
        math.fsum(r[1] for r in result) / len(result),
        math.fsum(r[0] for r in result) / len(result),
    )


# --- runs ------------------------------------------------------------------


def machine_info(blas_threads: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(),
        "blas_threads": blas_threads,
    }


def _blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(w: Workload, cfg, seed: int, builds: int, tracer: Tracer | None = None):
    span = tracer.span if tracer else _no_span
    times = []
    for _ in range(builds):
        t0 = time.perf_counter()
        with span("experiment.build_cell_data"):
            cells = build_cells(w, cfg, seed)
        times.append(time.perf_counter() - t0)
    return cells, times


def run(name: str, seed: int, seconds: float, traced: bool, root: Path, blas_threads: int) -> dict:
    w = WORKLOADS[name]
    out_root = root / ".bench_out"
    out_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_root))
    try:
        cfg = make_config(w, seed, scratch)
        if traced:
            return _traced(w, cfg, seed, seconds, scratch, out_root, blas_threads)
        return _untraced(w, cfg, seed, seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _result(problems: list[str], op: Operation, n_runs: int, failures: list[str], metrics: dict) -> dict:
    return {
        "correct": not problems,
        "attempted": n_runs * op.ops,
        "failed": len(failures) * op.ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems + failures,
    }


def _untraced(w: Workload, cfg, seed: int, seconds: float, scratch: Path) -> dict:
    # the inputs are built again after every operation, so that the set-up
    # samples are spread over the run like the operations are
    cells, setup_times = _setup(w, cfg, seed, w.setup_builds)
    op = Operation(w, cfg, cells, scratch)
    durations, results, failures = timed_loop(
        op, seconds, between=lambda: setup_times.extend(_setup(w, cfg, seed, w.setup_builds)[1])
    )
    good = [(d, r) for d, r in zip(durations, results) if r is not None]
    problems = check_inputs(w, cfg, cells)
    if good:
        problems += check_outputs(op, [r for _, r in good])
        rate = op.windows / statistics.median(d for d, _ in good)
    else:
        rate = float("nan")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "windows_per_s": (rate, "window/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    return _result(problems, op, len(durations), failures, metrics)


# --- traced run ------------------------------------------------------------


def _flops_per_sample(hidden: int, steps: int = refcheck.INPUT_STEPS, features: int = 9, outputs: int = 15) -> int:
    """Multiply-add FLOPs of one training sample's GEMMs: per step the input
    and recurrent projections forward, their weight gradients and the
    hidden-state gradient backward; once per sample the head forward and its
    two gradients."""
    gates = 4 * hidden
    forward_step = 2 * gates * (features + hidden)
    backward_step = 2 * gates * (features + hidden) + 2 * gates * hidden
    return steps * (forward_step + backward_step) + 3 * 2 * outputs * hidden


def probe_kernel(tracer: Tracer, vd, seed: int, shape: str) -> list[str]:
    """Train one vehicle's set at a profile's shape, then drive forward_cached,
    backward and sgd_step on the same batches and the full-set forward that
    train_local computes for a loss its callers discard."""
    train = config_from_kv({}, profile=shape).train
    params = ModelParams.init(train.hidden_size, derive_rng(seed, TAG_INIT))
    kw = dict(episodes=train.local_episodes, batch_size=train.batch_size,
              learning_rate=train.learning_rate, momentum=train.momentum)
    with tracer.span(f"model.train_local.{shape}"):
        trained, _ = train_local(params, vd.features, vd.labels, rng=derive_rng(seed, TAG_TRAIN, 1, vd.vehicle_id), **kw)

    rng = derive_rng(seed, TAG_TRAIN, 1, vd.vehicle_id)
    opt = OptimizerState.fresh(flat_length(train.hidden_size), train.learning_rate, train.momentum)
    n = vd.n_samples
    for _ in range(train.local_episodes):
        order = rng.permutation(n)
        for start in range(0, n, train.batch_size):
            idx = order[start : start + train.batch_size]
            with tracer.span(f"model.forward_cached.{shape}"):
                _, cache = forward_cached(params, vd.features[idx])
            with tracer.span(f"model.backward.{shape}"):
                grad = backward(cache, vd.labels[idx])
            with tracer.span(f"model.sgd_step.{shape}"):
                params, opt = sgd_step(params, opt, grad)
    with tracer.span(f"model.forward.{shape}"):
        forward(trained, vd.features)
    tracer.count(f"model.train_flop.{shape}", train.local_episodes * n * _flops_per_sample(train.hidden_size))
    if not np.array_equal(params.flatten(), trained.flatten()):
        return [f"{shape} kernel drive did not reproduce train_local"]
    return []


def probe_eval(tracer: Tracer, cfg, cell: Cell) -> None:
    """One forward over the pool, timed, then again under tracemalloc."""
    with tracer.span("model.forward_eval"):
        forward(cell.initial, cell.eval_set.features)
    tracemalloc.start()
    try:
        forward(cell.initial, cell.eval_set.features)
        tracer.count("model.forward_eval_peak_bytes", tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


def probe_round(tracer: Tracer, cfg, cell: Cell, ran=None) -> list[str]:
    """Round 1 through run_flt_round (`ran` when the timed operation already
    ran it), then the same round rebuilt from train_local, aggregate and
    evaluate_global on the same seeds; both must agree bit for bit. Shares
    are taken within the rebuilt round, whose parts run back to back."""
    if ran is None:
        with tracer.span("federated.run_flt_round"):
            ran = _round_one(cfg, cell)
    reference, report = ran
    train = cfg.train
    updates = []
    with tracer.span("federated.rebuilt_round"):
        for vd in sorted(cell.vehicles, key=lambda v: v.vehicle_id):
            with tracer.span("model.train_local"):
                trained, _ = train_local(
                    cell.initial, vd.features, vd.labels,
                    episodes=train.local_episodes, batch_size=train.batch_size,
                    learning_rate=train.learning_rate, momentum=train.momentum,
                    rng=derive_rng(cell.seed, TAG_TRAIN, 1, vd.vehicle_id),
                )
            updates.append(LocalUpdate(vd.vehicle_id, trained.flatten(), vd.attack_histogram(), vd.n_samples))
        weights = np.full(len(updates), 1.0 / len(updates))  # round 1: the gate starts uniform
        with tracer.span("federated.aggregate"):
            flat = aggregate(updates, weights)
        params = ModelParams.unflatten(flat, train.hidden_size)
        with tracer.span("federated.evaluate_global"):
            err, acc, _, loss = evaluate_global(params, cell.eval_set, cfg.norm, cfg.judgment_threshold)
    tracer.count("model.batches", sum(train.local_episodes * math.ceil(v.n_samples / train.batch_size) for v in cell.vehicles))
    if not np.array_equal(flat, reference.flatten()) or (err, acc, loss) != (
        report.prediction_error, report.prediction_accuracy, report.loss
    ):
        return ["round rebuilt from its layers differs from run_flt_round"]
    return []


def probe_experiment(tracer: Tracer, cfg, scratch: Path, outs: dict) -> list[str]:
    """A desk sweep at 1 and 2 workers (each unless the timed operation ran
    it; `outs` maps the worker counts already run to their output digests),
    one cell through run_cell and write_rounds_csv, and desk cell builds.
    Both worker counts must write the same bytes."""
    outs = dict(outs)
    for workers in (1, PROBE_WORKERS):
        name = f"experiment.run_experiment.{workers}w"
        out = scratch / f"probe-{workers}w"
        if not tracer.has(name):
            with tracer.span(name):
                run_experiment(replace(cfg, out_dir=str(out)), threads=workers)
            outs[workers] = _digest(out)
    cell = sweep_cells(cfg)[0]
    seed = cell_seed(cfg.master_seed, cell.pen_idx, cell.veh_idx, cell.repeat)
    for _ in range(3):
        with tracer.span("experiment.build_cell_data.desk"):
            build_cell_data(cfg, cell.penetration, cell.n_vehicles, seed)
    with tracer.span("experiment.run_cell.desk"):
        reports = run_cell(cfg, cell)
    path = scratch / f"probe_rounds_{cell.run_id}.csv"
    with tracer.span("experiment.write_rounds_csv"):
        write_rounds_csv(path, cell, reports)
    problems = []
    if len(outs) == 2 and outs[1] != outs[PROBE_WORKERS]:
        problems.append("1-worker and 2-worker sweeps wrote different bytes")
    for digest in outs.values():
        if digest.get(f"rounds_{cell.run_id}.csv") != hashlib.sha256(path.read_bytes()).hexdigest():
            problems.append(f"{cell.run_id}: run_cell output differs from the sweep's")
    return problems


def probe_data(tracer: Tracer, w: Workload, cfg, seed: int) -> None:
    """The layers build_cell_data reaches, driven one by one on cell 0."""
    cseed = cell_seed(seed, 0, 0, 0)
    scen_cfg = replace(cfg.scenario, n_vehicles=w.n_vehicles, penetration=PENETRATION,
                       rng_seed=derive_seed(cseed, TAG_SCENARIO))
    with tracer.span("trace.generate_scenario"):
        scenario = generate_scenario(scen_cfg)
    with tracer.span("simulate.broadcast_streams"):
        streams = broadcast_streams(scenario, cfg.attack)
    tracer.count("simulate.messages", sum(len(s) for s in streams.values()))
    for (sender, receiver), stream in streams.items():
        with tracer.span("features.windows_from_stream"):
            windows_from_stream(stream, scenario.vehicle_track(receiver), scenario.vehicle_track(sender),
                                scenario.attacker_types[sender], cfg.norm)
    with tracer.span("simulate.assemble_datasets"):
        assemble_datasets(scenario, cfg.attack, cfg.norm, cfg.train_fraction)


def _desk_probe_config(w: Workload, cfg, seed: int, scratch: Path):
    """The desk sweep itself on desk workloads; elsewhere a two-cell desk
    sweep (fl-tp, two repeats) of the same seed."""
    if w.kind == "sweep":
        return cfg
    desk = WORKLOADS["desk-sweep"]
    return make_config(desk, seed, scratch, methods="fl-tp")


def _traced(w: Workload, cfg, seed: int, seconds: float, scratch: Path, out_root: Path, blas_threads: int) -> dict:
    tracer = Tracer()
    with tracer.span("setup"):
        cells, _ = _setup(w, cfg, seed, 1, tracer)
        probe_data(tracer, w, cfg, seed)
    op = Operation(w, cfg, cells, scratch)

    # the same operations untraced, then traced, half the seconds each: the
    # gap is the tracing overhead
    plain, _, plain_failures = timed_loop(op, seconds / 2)
    with tracer.span("timed"):
        durations, results, failures = timed_loop(op, seconds / 2, tracer)
    failures += plain_failures
    problems = check_inputs(w, cfg, cells)
    good = [r for r in results if r is not None]
    if not good:
        return _result(problems, op, len(plain) + len(durations), failures, {})
    problems += check_outputs(op, good)

    cell = cells[0]
    ran_round = None
    if w.kind == "train" and w.rounds == 1:
        ran_round = (good[0][0], good[0][1][0])
    round_cfg = cfg
    if w.kind == "eval":
        # the evaluation workload trains nothing; its round is probed with one local episode
        round_cfg = replace(cfg, train=replace(cfg.train, local_episodes=1))
    with tracer.span("probes"):
        for shape in ("desk", "paper"):
            problems += probe_kernel(tracer, cell.vehicles[0], cell.seed, shape)
        probe_eval(tracer, cfg, cell)
        problems += probe_round(tracer, round_cfg, cell, ran_round)
        outs = {1: _digest(good[0])} if w.kind == "sweep" else {}
        problems += probe_experiment(tracer, _desk_probe_config(w, cfg, seed, scratch), scratch, outs)

    acc, ade = quality(op, good[0])
    plain_rate = op.windows / statistics.median(plain)
    traced_rate = op.windows / statistics.median(durations)
    round_s = tracer.median("federated.run_flt_round")
    sweep_1w = tracer.median("experiment.run_experiment.1w")
    sweep_2w = tracer.median(f"experiment.run_experiment.{PROBE_WORKERS}w")
    metrics = {
        "trace.generate_scenario_s": (tracer.median("trace.generate_scenario"), "s"),
        "simulate.broadcast_streams_s": (tracer.median("simulate.broadcast_streams"), "s"),
        "simulate.messages": (tracer.counts["simulate.messages"], "count"),
        "features.windows_from_stream_s": (tracer.total("features.windows_from_stream"), "s"),
        "simulate.assemble_datasets_s": (tracer.median("simulate.assemble_datasets"), "s"),
        "experiment.build_cell_data_s": (tracer.median("experiment.build_cell_data"), "s"),
    }
    for shape in ("desk", "paper"):
        for layer in ("forward_cached", "backward", "sgd_step", "train_local"):
            metrics[f"model.{layer}_s.{shape}"] = (tracer.median(f"model.{layer}.{shape}"), "s")
    train_paper = tracer.median("model.train_local.paper")
    metrics.update({
        "model.batches": (tracer.counts["model.batches"], "count"),
        "model.train_gflop_per_s.paper": (tracer.counts["model.train_flop.paper"] / train_paper / 1e9, "GFLOP/s"),
        "model.discarded_forward_share.paper": (tracer.median("model.forward.paper") / train_paper, "fraction"),
        "model.forward_eval_s": (tracer.median("model.forward_eval"), "s"),
        "model.forward_eval_peak_mb": (tracer.counts["model.forward_eval_peak_bytes"] / 2**20, "MB"),
        "federated.run_flt_round_s": (round_s, "s"),
        "federated.local_train_share": (
            tracer.total("model.train_local") / tracer.median("federated.rebuilt_round"), "fraction"
        ),
        "federated.aggregate_s": (tracer.median("federated.aggregate"), "s"),
        "federated.evaluate_global_s": (tracer.median("federated.evaluate_global"), "s"),
        "experiment.build_cell_data_s.desk": (tracer.median("experiment.build_cell_data.desk"), "s"),
        "experiment.run_cell_s.desk": (tracer.median("experiment.run_cell.desk"), "s"),
        "experiment.write_csv_s": (tracer.median("experiment.write_rounds_csv"), "s"),
        "experiment.sweep_1w_s": (sweep_1w, "s"),
        "experiment.sweep_2w_s": (sweep_2w, "s"),
        "experiment.worker_speedup": (sweep_1w / sweep_2w, "x"),
        "metrics.fltp_detect_acc": (acc, "fraction"),
        "metrics.fltp_ade_m": (ade, "m"),
        "bench.untraced_windows_per_s": (plain_rate, "window/s"),
        "bench.traced_windows_per_s": (traced_rate, "window/s"),
        "bench.trace_overhead_pct": ((plain_rate - traced_rate) / plain_rate * 100.0, "%"),
    })
    tracer.write(out_root / f"trace-{w.name}-seed{seed}.json",
                 {"workload": w.name, "seed": seed, **machine_info(blas_threads)})
    return _result(problems, op, len(plain) + len(durations), failures, metrics)

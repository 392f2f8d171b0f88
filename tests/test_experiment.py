"""Sweep orchestration: seeding, CSV artifacts, summaries, reproducibility."""
import csv
import hashlib
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fltp import experiment, federated
from fltp.cli import main as cli_main
from fltp.config import config_from_kv
from fltp.experiment import (
    ROUNDS_HEADER,
    SUMMARY_HEADER,
    SweepCell,
    accuracy_improvement_pct,
    build_cell_data,
    cell_seed,
    divergence_limit,
    error_improvement_pct,
    export_summary,
    read_final_rows,
    run_cell,
    run_cells,
    run_experiment,
    run_method_rounds,
    sweep_cells,
    write_rounds_csv,
)
from fltp.federated import evaluate_global, run_flt_round
from fltp.machine import describe
from fltp.model import flat_length, load_params, train_local
from fltp.seeding import TAG_TRAIN, derive_rng
from fltp.simulate import pooled_training_set
from forking import pid_spy, set_cpus


def _tiny_cfg(out_dir, **overrides):
    kv = {
        "methods": "fl-tp, fed-avg, centralized",
        "penetrations": "0.5",
        "vehicle_counts": "4",
        "repeats": "2",
        "n_steps": "20",
        "hidden_size": "4",
        "learning_rate": "0.001",
        "local_episodes": "1",
        "batch_size": "16",
        "global_rounds": "2",
        "master_seed": "7",
        "out_dir": str(out_dir),
    }
    kv.update(overrides)
    return config_from_kv(kv)


def _build_spy(monkeypatch, record):
    """Replaces experiment.build_cell_data with a spy that appends the pid
    and the data seed of each call, in this process or a forked one, to the
    file record; returns the function that reads and clears the record as
    (pid, seed) pairs."""
    build = experiment.build_cell_data

    def spy(cfg, penetration, n_vehicles, seed):
        with open(record, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {seed}\n")
        return build(cfg, penetration, n_vehicles, seed)

    monkeypatch.setattr(experiment, "build_cell_data", spy)

    def read():
        lines = record.read_text(encoding="utf-8").splitlines() if record.exists() else []
        record.unlink(missing_ok=True)
        return [tuple(int(field) for field in line.split()) for line in lines]

    return read


def _assert_same_bytes(files_a, files_b):
    assert [p.name for p in files_a] == [p.name for p in files_b]
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes(), pa.name


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestCellSeed:
    def test_deterministic(self):
        assert cell_seed(42, 0, 1, 2) == cell_seed(42, 0, 1, 2)

    def test_sensitive_to_every_index(self):
        base = cell_seed(42, 0, 0, 0)
        assert cell_seed(43, 0, 0, 0) != base
        assert cell_seed(42, 1, 0, 0) != base
        assert cell_seed(42, 0, 1, 0) != base
        assert cell_seed(42, 0, 0, 1) != base


class TestImprovements:
    def test_reference_accuracy_case(self):
        gain = accuracy_improvement_pct(0.979, 0.915)
        assert abs(gain - 6.99) <= 0.1

    def test_error_reduction(self):
        assert error_improvement_pct(80.0, 100.0) == pytest.approx(20.0)
        assert error_improvement_pct(120.0, 100.0) == pytest.approx(-20.0)

    def test_self_is_zero(self):
        assert accuracy_improvement_pct(0.5, 0.5) == 0.0
        assert error_improvement_pct(42.0, 42.0) == 0.0

    @pytest.mark.parametrize("baseline", [0.0, -1.0, float("nan")])
    def test_no_positive_baseline_gives_nan(self, baseline):
        assert math.isnan(accuracy_improvement_pct(0.5, baseline))
        assert math.isnan(error_improvement_pct(10.0, baseline))


class TestSweepCells:
    def test_order_and_count(self, tmp_path):
        cfg = _tiny_cfg(tmp_path, penetrations="0.25, 0.75", repeats="2")
        cells = sweep_cells(cfg)
        assert len(cells) == 3 * 2 * 1 * 2
        # method-major, then penetration, then vehicles, then repeat
        assert [c.method for c in cells[:4]] == ["fl-tp"] * 4
        assert [(c.penetration, c.repeat) for c in cells[:4]] == [
            (0.25, 0),
            (0.25, 1),
            (0.75, 0),
            (0.75, 1),
        ]

    def test_run_id_format(self):
        cell = SweepCell("fl-tp", 0.5, 4, 0, 0, 0)
        assert cell.run_id == "fl-tp_p0.5_v4_rep0"
        assert SweepCell("centralized", 0.25, 10, 3, 0, 1).run_id == "centralized_p0.25_v10_rep3"


class TestBuildCellData:
    def test_methods_share_scenario_and_init(self, tmp_path):
        cfg = _tiny_cfg(tmp_path)
        seed = cell_seed(cfg.master_seed, 0, 0, 0)
        scen_a, veh_a, eval_a, init_a = build_cell_data(cfg, 0.5, 4, seed)
        scen_b, veh_b, eval_b, init_b = build_cell_data(cfg, 0.5, 4, seed)
        assert scen_a.attacker_types == scen_b.attacker_types
        assert (init_a.flatten() == init_b.flatten()).all()
        assert (eval_a.features == eval_b.features).all()
        for a, b in zip(veh_a, veh_b):
            assert (a.features == b.features).all()

    def test_different_repeats_differ(self, tmp_path):
        cfg = _tiny_cfg(tmp_path)
        _, _, eval_a, init_a = build_cell_data(cfg, 0.5, 4, cell_seed(7, 0, 0, 0))
        _, _, eval_b, init_b = build_cell_data(cfg, 0.5, 4, cell_seed(7, 0, 0, 1))
        assert not (init_a.flatten() == init_b.flatten()).all()
        assert eval_a.features.shape == eval_b.features.shape
        assert not (eval_a.features == eval_b.features).all()

    def test_outputs_pinned(self):
        """sha256 over every build_cell_data output on 9 cells: desk n=4
        (float64) and paper n=10/20 (float32 vehicle sets), penetration
        0.25/0.75/1.0, master seed 42. The build runs no BLAS GEMM, so unlike
        test_desk_fingerprint this holds whatever kernel OpenBLAS picks."""
        h = hashlib.sha256()

        def add(a):
            a = np.ascontiguousarray(a)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())

        for profile, veh_idx, n in (("desk", 0, 4), ("paper", 1, 10), ("paper", 2, 20)):
            cfg = config_from_kv({}, profile=profile)
            for pen_idx, pen in enumerate((0.25, 0.75, 1.0)):
                scenario, vehicles, pool, initial = build_cell_data(cfg, pen, n, cell_seed(42, pen_idx, veh_idx, 0))
                add(scenario.kinematics)
                add(np.array(sorted(scenario.attacker_types.items()), dtype=np.int64))
                for vd in vehicles:
                    add(vd.features)
                    add(vd.labels)
                add(pool.features)
                add(pool.labels)
                add(initial.flatten())
        assert h.hexdigest() == "f83597eeae1e2900bd5faf363400c53c4de6c77009d89519e83178364574df03"


def _stream(cfg, method, vehicles, eval_set, initial, seed):
    return run_method_rounds(cfg, method, vehicles, eval_set, initial, seed, divergence_limit(initial, eval_set))


class TestRunMethodRounds:
    def test_round_indices_and_modes(self, tmp_path):
        cfg = _tiny_cfg(tmp_path, global_rounds="3")
        seed = cell_seed(cfg.master_seed, 0, 0, 0)
        _, vehicles, eval_set, initial = build_cell_data(cfg, 0.5, 4, seed)
        reports = [rep for _, rep in _stream(cfg, "fl-tp", vehicles, eval_set, initial, seed)]
        assert [r.round_idx for r in reports] == [1, 2, 3]
        assert reports[0].mode == "uniform"  # no accuracy before the first round
        assert all(r.method == "fl-tp" for r in reports)
        central = [rep for _, rep in _stream(cfg, "centralized", vehicles, eval_set, initial, seed)]
        assert all(r.mode == "centralized" for r in central)
        fedavg = [rep for _, rep in _stream(cfg, "fed-avg", vehicles, eval_set, initial, seed)]
        assert all((r.method, r.mode, r.lambdas) == ("fed-avg", "uniform", (0.25,) * 4) for r in fedavg)

    def test_centralized_is_pooled_training(self, tmp_path):
        """Reference: train_local on the pooled set with vehicle 0's training
        stream of each round, then evaluate_global, bit for bit."""
        cfg = config_from_kv({"global_rounds": "3"}, profile="desk")
        seed = cell_seed(cfg.master_seed, 0, 0, 0)
        _, vehicles, eval_set, initial = build_cell_data(cfg, 0.75, 4, seed)
        rounds = list(_stream(cfg, "centralized", vehicles, eval_set, initial, seed))
        pooled_x, pooled_y = pooled_training_set(vehicles)
        params = initial
        for r, (got, rep) in enumerate(rounds, start=1):
            params, _ = train_local(
                params,
                pooled_x,
                pooled_y,
                episodes=cfg.train.local_episodes,
                batch_size=cfg.train.batch_size,
                learning_rate=cfg.train.learning_rate,
                momentum=cfg.train.momentum,
                rng=derive_rng(seed, TAG_TRAIN, r, 0),
            )
            err, acc, per_type, loss_value = evaluate_global(params, eval_set, cfg.norm, cfg.judgment_threshold)
            assert (rep.round_idx, rep.method, rep.mode) == (r, "centralized", "centralized")
            assert (rep.prediction_error, rep.prediction_accuracy, rep.loss) == (err, acc, loss_value)
            assert rep.per_type_accuracy == per_type
            assert (got.flatten() == params.flatten()).all()
        assert len(rounds) == 3

    def test_unknown_method(self, tmp_path):
        cfg = _tiny_cfg(tmp_path)
        seed = cell_seed(cfg.master_seed, 0, 0, 0)
        _, vehicles, eval_set, initial = build_cell_data(cfg, 0.5, 4, seed)
        with pytest.raises(ValueError, match="unknown method"):
            list(_stream(cfg, "gossip", vehicles, eval_set, initial, seed))

    def test_one_pool_forward_per_data_seed(self, tmp_path, monkeypatch):
        calls = []
        pool_forward = experiment.forward

        def counted(params, features, *args, **kwargs):
            calls.append(features.shape)
            return pool_forward(params, features, *args, **kwargs)

        monkeypatch.setattr(experiment, "forward", counted)
        cfg = _tiny_cfg(tmp_path, repeats="1")
        cells = sweep_cells(cfg)
        assert [c.method for c in cells] == ["fl-tp", "fed-avg", "centralized"]
        run_cells(cfg, cells)
        assert len(calls) == 1


class TestRunExperiment:
    def test_artifacts_and_schema(self, tmp_path):
        cfg = _tiny_cfg(tmp_path / "out")
        written = run_experiment(cfg)
        rounds_files = sorted(p for p in written if p.name.startswith("rounds_"))
        assert len(rounds_files) == 6  # 3 methods x 1 pen x 1 count x 2 repeats
        assert written[-1].name == "summary.csv"

        header, rows = _read_csv(rounds_files[0])
        assert header == ROUNDS_HEADER
        assert len(rows) == cfg.train.global_rounds
        for row in rows:
            assert row[0] == rows[0][0]  # stable run_id
            float(row[7]), float(row[8]), float(row[9])  # parseable metrics
            assert row[6] in ("uniform", "mre", "centralized")
        assert [int(r[5]) for r in rows] == [1, 2]

        header, srows = _read_csv(tmp_path / "out" / "summary.csv")
        assert header == SUMMARY_HEADER
        assert len(srows) == 3  # one per (method, pen, count)
        assert [r[0] for r in srows] == ["centralized", "fed-avg", "fl-tp"]
        for row in srows:
            assert int(row[3]) == 2  # repeats
            assert int(row[4]) == cfg.train.global_rounds
            float(row[5]), float(row[6]), float(row[7]), float(row[8])

    def test_centralized_improvement_is_zero(self, tmp_path):
        cfg = _tiny_cfg(tmp_path / "out")
        run_experiment(cfg)
        _, srows = _read_csv(tmp_path / "out" / "summary.csv")
        central = next(r for r in srows if r[0] == "centralized")
        assert float(central[9]) == 0.0
        assert float(central[10]) == 0.0
        for row in srows:
            assert not math.isnan(float(row[9]))  # baseline present for all rows

    def test_no_centralized_baseline_gives_nan(self, tmp_path):
        cfg = _tiny_cfg(tmp_path / "out", methods="fed-avg", repeats="1")
        run_experiment(cfg)
        _, srows = _read_csv(tmp_path / "out" / "summary.csv")
        assert len(srows) == 1
        row = srows[0]
        assert math.isnan(float(row[6]))  # single repeat: no std
        assert math.isnan(float(row[9])) and math.isnan(float(row[10]))

    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        cfg_a = _tiny_cfg(tmp_path / "a")
        cfg_b = _tiny_cfg(tmp_path / "b")
        files_a = run_experiment(cfg_a, threads=1)
        files_b = run_experiment(cfg_b, threads=3)
        _assert_same_bytes(files_a, files_b)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_one_build_per_data_seed(self, tmp_path, monkeypatch, threads):
        set_cpus(monkeypatch, 2)  # so 3 threads fork the data seeds
        builds = _build_spy(monkeypatch, tmp_path / "builds")
        cfg = _tiny_cfg(tmp_path / "out", penetrations="0.25, 0.75", global_rounds="1")
        run_experiment(cfg, threads=threads)
        seeds = [seed for _, seed in builds()]
        assert len(seeds) == len(set(seeds)) == 4  # 3 methods x 2 penetrations x 2 repeats

    def test_data_seeds_fork_one_level(self, tmp_path, monkeypatch):
        """On 2 workers each data seed builds and trains in a forked worker,
        and its rounds train there, in-process: nothing forks twice."""
        set_cpus(monkeypatch, 2)
        builds = _build_spy(monkeypatch, tmp_path / "builds")
        trainings = pid_spy(monkeypatch, tmp_path / "trainings", federated, "train_local")
        serial = run_experiment(_tiny_cfg(tmp_path / "serial", penetrations="0.25, 0.75", global_rounds="1"))
        serial_trainings, serial_builds = trainings(), builds()
        assert {pid for pid, _ in serial_builds} == {os.getpid()}
        assert set(serial_trainings) - {os.getpid()}  # one thread: rounds of several vehicles fork
        forked = run_experiment(_tiny_cfg(tmp_path / "forked", penetrations="0.25, 0.75", global_rounds="1"), threads=2)
        build_pids = [pid for pid, _ in builds()]
        assert len(build_pids) == 4 and os.getpid() not in build_pids
        assert len(set(build_pids)) == 2  # min(2 workers, 4 data seeds)
        forked_trainings = trainings()
        assert len(forked_trainings) == len(serial_trainings)
        assert set(forked_trainings) == set(build_pids)
        assert multiprocessing.active_children() == []
        _assert_same_bytes(serial, forked)

    def test_out_of_range_threads_start_one_worker_per_cpu(self, tmp_path, monkeypatch):
        set_cpus(monkeypatch, 2)
        builds = _build_spy(monkeypatch, tmp_path / "builds")
        serial = run_experiment(_tiny_cfg(tmp_path / "serial", penetrations="0.25, 0.75", global_rounds="1"))
        builds()
        wide = run_experiment(_tiny_cfg(tmp_path / "wide", penetrations="0.25, 0.75", global_rounds="1"), threads=10**6)
        pids = [pid for pid, _ in builds()]
        assert len(pids) == 4 and os.getpid() not in pids
        assert len(set(pids)) == 2  # 4 data seeds on the 2 usable CPUs
        assert multiprocessing.active_children() == []
        _assert_same_bytes(serial, wide)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_divergence_fails_loudly_on_any_worker_count(self, tmp_path, monkeypatch, threads):
        """A diverged data seed stops the sweep with the same message whether
        it ran here or on a forked worker, and no out_dir is created."""
        set_cpus(monkeypatch, 2)
        builds = _build_spy(monkeypatch, tmp_path / "builds")
        cfg = _tiny_cfg(tmp_path / "out", methods="fl-tp", learning_rate="5000")
        seed = cell_seed(cfg.master_seed, 0, 0, 0)
        with pytest.raises(ValueError, match=rf"^fl-tp diverged at round 1 \(cell seed {seed}\): "):
            run_experiment(cfg, threads=threads)
        assert not (tmp_path / "out").exists()
        assert (os.getpid() in {pid for pid, _ in builds()}) == (threads == 1)
        assert multiprocessing.active_children() == []

    def test_run_cell_writes_the_sweeps_bytes(self, tmp_path):
        cfg = _tiny_cfg(tmp_path / "out")
        run_experiment(cfg)
        for cell in sweep_cells(cfg):
            alone = tmp_path / f"alone_{cell.run_id}.csv"
            write_rounds_csv(alone, cell, run_cell(cfg, cell))
            assert alone.read_bytes() == (tmp_path / "out" / f"rounds_{cell.run_id}.csv").read_bytes(), cell.run_id

    def test_summary_row_count_scales_with_grid(self, tmp_path):
        cfg = _tiny_cfg(
            tmp_path / "out", penetrations="0.25, 0.75", repeats="1", global_rounds="1"
        )
        run_experiment(cfg)
        _, srows = _read_csv(tmp_path / "out" / "summary.csv")
        assert len(srows) == 6  # 3 methods x 2 penetrations
        keys = [(r[0], float(r[1])) for r in srows]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("method", ["fl-tp", "fed-avg", "centralized"])
    def test_checkpoints_written_when_enabled(self, tmp_path, method):
        cfg = _tiny_cfg(
            tmp_path / "out", methods=method, repeats="1", checkpoints="true"
        )
        run_experiment(cfg)
        ckdir = tmp_path / "out" / "checkpoints" / f"{method}_p0.5_v4_rep0"
        assert sorted(p.name for p in ckdir.iterdir()) == [
            "round_0001.json",
            "round_0001.params",
            "round_0002.json",
            "round_0002.params",
        ]
        _, rows = _read_csv(tmp_path / "out" / f"rounds_{method}_p0.5_v4_rep0.csv")
        for row in rows:
            meta = json.loads((ckdir / f"round_{int(row[5]):04d}.json").read_text())
            assert (meta["method"], meta["mode"]) == (method, row[6])
            if method != "fl-tp":
                assert meta["mode"] == {"fed-avg": "uniform", "centralized": "centralized"}[method]

    def test_rerun_replaces_stale_checkpoints(self, tmp_path):
        """A rerun with fewer rounds into the same out_dir leaves only its
        own round files, and no other file in the checkpoint directory."""
        cfg = _tiny_cfg(tmp_path / "out", methods="fl-tp", repeats="1", checkpoints="true", global_rounds="3")
        run_experiment(cfg)
        ckdir = tmp_path / "out" / "checkpoints" / "fl-tp_p0.5_v4_rep0"
        (ckdir / "notes.txt").write_text("kept\n", encoding="utf-8")
        run_experiment(_tiny_cfg(tmp_path / "out", methods="fl-tp", repeats="1", checkpoints="true", global_rounds="1"))
        assert sorted(p.name for p in ckdir.iterdir()) == ["notes.txt", "round_0001.json", "round_0001.params"]
        assert (ckdir / "notes.txt").read_text(encoding="utf-8") == "kept\n"
        fresh = _tiny_cfg(tmp_path / "fresh", methods="fl-tp", repeats="1", checkpoints="true", global_rounds="1")
        run_experiment(fresh)
        for name in ("round_0001.json", "round_0001.params"):
            assert (ckdir / name).read_bytes() == (tmp_path / "fresh" / "checkpoints" / ckdir.name / name).read_bytes()
        # a rerun that diverges in round 1 has no checkpoint to write and deletes none
        before = {p.name: p.read_bytes() for p in ckdir.iterdir()}
        with pytest.raises(ValueError, match="diverged at round 1 "):
            run_experiment(_tiny_cfg(tmp_path / "out", methods="fl-tp", repeats="1", checkpoints="true", learning_rate="5000"))
        assert {p.name: p.read_bytes() for p in ckdir.iterdir()} == before

    def test_stale_rounds_files_are_ignored(self, tmp_path):
        cfg = _tiny_cfg(tmp_path / "clean")
        run_experiment(cfg)
        clean = (tmp_path / "clean" / "summary.csv").read_bytes()

        out = tmp_path / "stale"
        out.mkdir()
        # a leftover from some earlier sweep: another run of a method in this
        # sweep's group, and a method this sweep does not run at all
        header, rows = _read_csv(tmp_path / "clean" / "rounds_fl-tp_p0.5_v4_rep0.csv")
        for name, run_id, method in (
            ("rounds_fl-tp_p0.5_v4_rep9.csv", "fl-tp_p0.5_v4_rep9", "fl-tp"),
            ("rounds_gossip_p0.5_v4_rep0.csv", "gossip_p0.5_v4_rep0", "gossip"),
        ):
            with open(out / name, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in rows:
                    writer.writerow([run_id, method, row[2], row[3], "9", *row[5:7], "0.123", "0.5", row[9]])
        written = run_experiment(_tiny_cfg(out))
        assert (out / "summary.csv").read_bytes() == clean
        assert not any("rep9" in p.name or "gossip" in p.name for p in written)

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_dir_under_a_file_rejected_before_any_cell(self, tmp_path, monkeypatch, below):
        """An out_dir that is, or lies under, a regular file fails before any
        cell runs, naming the path, and creates nothing."""
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n", encoding="utf-8")
        monkeypatch.setattr(experiment, "run_cells", lambda cfg, cells: pytest.fail("a cell ran"))
        out = afile / below
        with pytest.raises(ValueError, match=f"^out_dir {re.escape(str(out))}: {re.escape(str(afile))} is not a directory$"):
            run_experiment(_tiny_cfg(out))
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_dir_at_a_dangling_symlink_rejected_before_any_cell(self, tmp_path, monkeypatch, below):
        """A symlink to a missing path exists for the check: an out_dir that
        is, or lies under, one fails before any cell runs, naming the link,
        and creates nothing (mkdir would refuse the link after the sweep)."""
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "missing")
        monkeypatch.setattr(experiment, "run_cells", lambda cfg, cells: pytest.fail("a cell ran"))
        out = link / below
        with pytest.raises(ValueError, match=f"^out_dir {re.escape(str(out))}: {re.escape(str(link))} is not a directory$"):
            run_experiment(_tiny_cfg(out))
        assert [p.name for p in tmp_path.iterdir()] == ["link"]

    def test_thread_validation(self, tmp_path):
        cfg = _tiny_cfg(tmp_path / "out")
        with pytest.raises(ValueError):
            run_experiment(cfg, threads=0)


class TestPrecision:
    """precision = float32 trains on float32 vehicle sets; the pool, the
    initial model, aggregation, evaluation and checkpoints stay float64."""

    def test_build_casts_only_the_vehicle_sets(self, tmp_path):
        seed = cell_seed(7, 0, 0, 0)
        _, veh64, eval64, init64 = build_cell_data(_tiny_cfg(tmp_path), 0.5, 4, seed)
        _, veh32, eval32, init32 = build_cell_data(_tiny_cfg(tmp_path, precision="float32"), 0.5, 4, seed)
        for a, b in zip(veh64, veh32):
            assert (b.features.dtype, b.labels.dtype) == (np.float32, np.float32)
            assert (b.features == a.features.astype(np.float32)).all()
            assert (b.labels == a.labels.astype(np.float32)).all()
            assert b.attack_histogram() == a.attack_histogram()
        assert (eval32.features.dtype, eval32.labels.dtype, init32.flatten().dtype) == (np.float64,) * 3
        assert (eval32.features == eval64.features).all() and (eval32.labels == eval64.labels).all()
        assert (init32.flatten() == init64.flatten()).all()

    def test_centralized_trains_on_a_float32_pool(self, tmp_path, monkeypatch):
        dtypes = []
        train = federated.train_local

        def recorded(params, features, labels, **kw):
            dtypes.append((features.dtype, labels.dtype))
            return train(params, features, labels, **kw)

        monkeypatch.setattr(federated, "train_local", recorded)
        cfg = _tiny_cfg(tmp_path, precision="float32", global_rounds="1")
        seed = cell_seed(cfg.master_seed, 0, 0, 0)
        _, vehicles, eval_set, initial = build_cell_data(cfg, 0.5, 4, seed)
        list(_stream(cfg, "centralized", vehicles, eval_set, initial, seed))
        assert dtypes == [(np.float32, np.float32)]

    def test_checkpoints_are_float64(self, tmp_path):
        cfg = _tiny_cfg(tmp_path, precision="float32", methods="fl-tp", repeats="1", checkpoints="true")
        seed = cell_seed(cfg.master_seed, 0, 0, 0)
        _, vehicles, eval_set, initial = build_cell_data(cfg, 0.5, 4, seed)
        reports = run_cell(cfg, sweep_cells(cfg)[0])
        params, prev_accuracy = initial, 0.0
        for r, rep in enumerate(reports, start=1):
            params, again = run_flt_round(
                params, vehicles, eval_set, round_idx=r, prev_accuracy=prev_accuracy, gate=cfg.gate,
                influence=cfg.influence, train=cfg.train, norm=cfg.norm, seed=seed,
                judgment_threshold=cfg.judgment_threshold,
            )
            prev_accuracy = again.prediction_accuracy
            blob = tmp_path / "checkpoints" / "fl-tp_p0.5_v4_rep0" / f"round_{r:04d}.params"
            assert blob.stat().st_size == 16 + 8 * flat_length(cfg.train.hidden_size)
            loaded = load_params(blob).flatten()
            assert loaded.dtype == params.flatten().dtype == np.float64
            assert (loaded == params.flatten()).all()
            assert (rep.prediction_error, rep.prediction_accuracy, rep.loss) == (
                again.prediction_error, again.prediction_accuracy, again.loss
            )
        assert len(reports) == 2

    def test_float32_desk_cell_stays_close_to_float64(self):
        # bounds fixed before any run: 1e-5 relative on the final trajectory
        # error and loss, 0.01 absolute on the final attack accuracy
        finals = {}
        for precision in ("float64", "float32"):
            cfg = config_from_kv({"penetrations": "0.75", "repeats": "1", "precision": precision}, profile="desk")
            cells = sweep_cells(cfg)
            finals[precision] = {c.method: r[-1] for c, r in zip(cells, run_cells(cfg, cells))}
        assert list(finals["float32"]) == ["fl-tp", "fed-avg", "centralized"]
        for method, ref in finals["float64"].items():
            got = finals["float32"][method]
            assert got.prediction_error == pytest.approx(ref.prediction_error, rel=1e-5), method
            assert got.loss == pytest.approx(ref.loss, rel=1e-5), method
            assert abs(got.prediction_accuracy - ref.prediction_accuracy) <= 0.01, method


class TestExportSummary:
    def test_rebuild_matches_original(self, tmp_path):
        cfg = _tiny_cfg(tmp_path / "out")
        run_experiment(cfg)
        rebuilt = export_summary(tmp_path / "out", tmp_path / "rebuilt.csv")
        assert rebuilt.read_bytes() == (tmp_path / "out" / "summary.csv").read_bytes()

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no rounds_"):
            export_summary(tmp_path, tmp_path / "x.csv")

    def test_files_without_rows_rejected(self, tmp_path):
        """Rounds files holding only a header give no summary to write."""
        (tmp_path / "rounds_x.csv").write_text(",".join(ROUNDS_HEADER) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^no rounds rows under {re.escape(str(tmp_path))}$"):
            export_summary(tmp_path, tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()


#: a rounds file of two rounds, and how each malformation of it is named
GOOD_ROUNDS = [
    ",".join(ROUNDS_HEADER),
    "fl-tp_p0.5_v4_rep0,fl-tp,0.5,4,0,1,uniform,1.5,0.5,0.1",
    "fl-tp_p0.5_v4_rep0,fl-tp,0.5,4,0,2,mre,1.25,0.75,0.05",
]
MALFORMED_ROUNDS = {
    "missing column": ([GOOD_ROUNDS[0].replace(",round,", ",rnd,"), *GOOD_ROUNDS[1:]], ":2: column 'round': no value"),
    "truncated row": ([*GOOD_ROUNDS[:2], GOOD_ROUNDS[2][:24]], ":3: column 'penetration': no value"),
    "bad number": ([*GOOD_ROUNDS[:2], GOOD_ROUNDS[2].replace("1.25", "abc")], ":3: column 'pred_error_m': cannot read 'abc'"),
}


def test_zero_centralized_accuracy_gives_nan_accuracy_improvement(tmp_path):
    """A centralized group whose final accuracy is 0 is no accuracy baseline:
    every method's accuracy improvement is nan, while its error, which is
    > 0, stays the baseline of the error improvement."""
    finals = {"centralized": ("0.0", "10.0"), "fed-avg": ("0.25", "5.0"), "fl-tp": ("0.5", "2.5")}
    for method, (acc, err) in finals.items():
        run_id = f"{method}_p0.5_v4_rep0"
        (tmp_path / f"rounds_{run_id}.csv").write_text(
            f"{','.join(ROUNDS_HEADER)}\n"
            f"{run_id},{method},0.5,4,0,1,uniform,20.0,0.75,0.3\n"
            f"{run_id},{method},0.5,4,0,2,uniform,{err},{acc},0.2\n",
            encoding="utf-8",
        )
    export_summary(tmp_path, tmp_path / "summary.csv")
    header, srows = _read_csv(tmp_path / "summary.csv")
    gains = {row[0]: (row[header.index("acc_improvement_pct")], row[header.index("err_improvement_pct")]) for row in srows}
    assert gains == {"centralized": ("nan", "0.0"), "fed-avg": ("nan", "50.0"), "fl-tp": ("nan", "75.0")}


def test_read_final_rows_reads_the_last_round(tmp_path):
    path = tmp_path / "rounds_x.csv"
    path.write_text("\n".join(GOOD_ROUNDS) + "\n", encoding="utf-8")
    (row,) = read_final_rows([path])
    assert row == dict(
        run_id="fl-tp_p0.5_v4_rep0", method="fl-tp", penetration=0.5, n_vehicles=4, repeat=0, round=2,
        pred_error_m=1.25, atk_accuracy=0.75,
    )
    assert [type(row[k]) for k in ("n_vehicles", "repeat", "round")] == [int] * 3


@pytest.mark.parametrize("case", MALFORMED_ROUNDS)
def test_malformed_rounds_file_named(tmp_path, case):
    """A missing column, a short row or a value that does not parse raises
    ValueError naming the file, the line and the column."""
    lines, where = MALFORMED_ROUNDS[case]
    path = tmp_path / "rounds_x.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path) + where)}$"):
        read_final_rows([path])


def test_rounds_file_not_utf8_named(tmp_path):
    path = tmp_path / "rounds_x.csv"
    path.write_bytes(("\n".join(GOOD_ROUNDS) + "\n").encode("utf-8") + b"\xff\xfe\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8 text "):
        read_final_rows([path])


# sha256 of the desk protocol's outputs at penetration 0.75 (4 vehicles,
# 3 methods x 2 repeats, 30 rounds, master seed 42) on OpenBLAS's Haswell
# kernels with one BLAS thread; other kernels round differently, so the sweep
# runs in a subprocess that pins them (any x86-64 CPU with AVX2 runs them).
DESK_FINGERPRINT = {
    "summary.csv": "865d1b6e1deb390a399da3e196961b20033dc387431d9e828f0ef1d34dc0abdd",
    "rounds_centralized_p0.75_v4_rep0.csv": "8c6f07b4d9ccbd85342a2be52e43258195bf8e0436a2629d872cd99828107232",
    "rounds_centralized_p0.75_v4_rep1.csv": "e139625246d91cb9f274373d01eb7f2aa00940e168af418ea5c0040f08597764",
    "rounds_fed-avg_p0.75_v4_rep0.csv": "7c9103a8750a496a9b4a5426f6438747eef4c4b26ce2eece08bff31503b8665e",
    "rounds_fed-avg_p0.75_v4_rep1.csv": "98ddd91c2c7b1f7addacf6967997e836b3532e75fcd2d98614366bbcc47be2c7",
    "rounds_fl-tp_p0.75_v4_rep0.csv": "499b359ccc9453f3af5b3cd481cc8a3b9d56e986a059779dc4a9c9e295be8e32",
    "rounds_fl-tp_p0.75_v4_rep1.csv": "11441f5032fb469a99f81809ce331dfdee429ceb3ace3159b47599f2f357c981",
}

#: the environment the fingerprint sweep runs under; under the Haswell
#: kernels float64 bits also depend on the BLAS thread count
PINNED_KERNEL = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"}


def _pinned_kernel_missing() -> str | None:
    """Why this machine cannot run the pinned kernel, or None if it can."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if "openblas" not in str(blas.get("name")):
        return f"numpy's BLAS is {blas.get('name')}, not OpenBLAS"
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        return "no /proc/cpuinfo to show the CPU's avx2 flag"
    if "avx2" not in cpuinfo.split():
        return "the CPU has no avx2 flag"
    return None


@pytest.mark.acceptance
def test_desk_fingerprint(tmp_path):
    """The desk sweep at penetration 0.75 writes the pinned bytes, run by
    this file in a subprocess on the pinned kernel. A machine that cannot run
    that kernel cannot check the bytes, so the test skips there and says why."""
    if (missing := _pinned_kernel_missing()) is not None:
        pytest.skip(f"the desk fingerprint is pinned to OpenBLAS's Haswell kernels: {missing}")
    cfg_file = tmp_path / "desk75.cfg"
    cfg_file.write_text("penetrations = 0.75\n", encoding="utf-8")
    out = tmp_path / "out"
    src = str(Path(experiment.__file__).parent.parent)
    env = {**os.environ, **PINNED_KERNEL, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = [sys.executable, __file__, "run", "--config", str(cfg_file), "--profile", "desk", "--out", str(out)]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
    assert run.returncode == 0, run.stderr
    kernel = run.stdout.strip().splitlines()[-1]
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == DESK_FINGERPRINT, f"desk outputs differ from the pinned bytes; they were made by {kernel}"


if __name__ == "__main__":
    # the fingerprint sweep: fltp's command line, then the kernel that ran it
    code = cli_main(sys.argv[1:])
    print(describe())
    sys.exit(code)

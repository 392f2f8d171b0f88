"""Sweep orchestration: seeding, CSV artifacts, summaries, reproducibility."""
import csv
import math
from pathlib import Path

import pytest

from fltp.config import config_from_kv
from fltp.experiment import (
    ROUNDS_HEADER,
    SUMMARY_HEADER,
    SweepCell,
    accuracy_improvement_pct,
    build_cell_data,
    cell_seed,
    error_improvement_pct,
    export_summary,
    run_experiment,
    run_method_rounds,
    sweep_cells,
)


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

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            accuracy_improvement_pct(0.5, 0.0)
        with pytest.raises(ValueError):
            error_improvement_pct(10.0, 0.0)


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


class TestRunMethodRounds:
    def test_round_indices_and_modes(self, tmp_path):
        cfg = _tiny_cfg(tmp_path, global_rounds="3")
        seed = cell_seed(cfg.master_seed, 0, 0, 0)
        _, vehicles, eval_set, initial = build_cell_data(cfg, 0.5, 4, seed)
        reports = run_method_rounds(cfg, "fl-tp", vehicles, eval_set, initial, seed)
        assert [r.round_idx for r in reports] == [1, 2, 3]
        assert reports[0].mode == "uniform"  # no accuracy before the first round
        assert all(r.method == "fl-tp" for r in reports)
        central = run_method_rounds(cfg, "centralized", vehicles, eval_set, initial, seed)
        assert all(r.mode == "centralized" for r in central)

    def test_unknown_method(self, tmp_path):
        cfg = _tiny_cfg(tmp_path)
        seed = cell_seed(cfg.master_seed, 0, 0, 0)
        _, vehicles, eval_set, initial = build_cell_data(cfg, 0.5, 4, seed)
        with pytest.raises(ValueError, match="unknown method"):
            run_method_rounds(cfg, "gossip", vehicles, eval_set, initial, seed)


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
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes(), pa.name

    def test_summary_row_count_scales_with_grid(self, tmp_path):
        cfg = _tiny_cfg(
            tmp_path / "out", penetrations="0.25, 0.75", repeats="1", global_rounds="1"
        )
        run_experiment(cfg)
        _, srows = _read_csv(tmp_path / "out" / "summary.csv")
        assert len(srows) == 6  # 3 methods x 2 penetrations
        keys = [(r[0], float(r[1])) for r in srows]
        assert keys == sorted(keys)

    def test_checkpoints_written_when_enabled(self, tmp_path):
        cfg = _tiny_cfg(
            tmp_path / "out", methods="fl-tp", repeats="1", checkpoints="true"
        )
        run_experiment(cfg)
        ckdir = tmp_path / "out" / "checkpoints" / "fl-tp_p0.5_v4_rep0"
        assert sorted(p.name for p in ckdir.iterdir()) == [
            "round_0001.json",
            "round_0001.params",
            "round_0002.json",
            "round_0002.params",
        ]

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

    def test_thread_validation(self, tmp_path):
        cfg = _tiny_cfg(tmp_path / "out")
        with pytest.raises(ValueError):
            run_experiment(cfg, threads=0)


class TestExportSummary:
    def test_rebuild_matches_original(self, tmp_path):
        cfg = _tiny_cfg(tmp_path / "out")
        run_experiment(cfg)
        rebuilt = export_summary(tmp_path / "out", tmp_path / "rebuilt.csv")
        assert rebuilt.read_bytes() == (tmp_path / "out" / "summary.csv").read_bytes()

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no rounds_"):
            export_summary(tmp_path, tmp_path / "x.csv")

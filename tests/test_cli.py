"""Command-line interface: argument handling, exit codes, artifact writing."""
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fltp.cli
from fltp.cli import main
from fltp.machine import blas_threads, usable_cpus

TINY = """\
methods = fl-tp, centralized
penetrations = 0.5
vehicle_counts = 4
repeats = 1
n_steps = 20
hidden_size = 4
learning_rate = 0.001
local_episodes = 1
batch_size = 16
global_rounds = 2
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY, encoding="utf-8")
    return path


class TestRun:
    def test_writes_artifacts(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "results"
        rc = main(["run", "--config", str(tiny_config), "--out", str(out)])
        assert rc == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "rounds_centralized_p0.5_v4_rep0.csv",
            "rounds_fl-tp_p0.5_v4_rep0.csv",
            "summary.csv",
        ]
        assert "wrote 3 files" in capsys.readouterr().out

    def test_seed_override_changes_output(self, tiny_config, tmp_path):
        out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
        assert main(["run", "--config", str(tiny_config), "--out", str(out_a), "--seed", "1"]) == 0
        assert main(["run", "--config", str(tiny_config), "--out", str(out_b), "--seed", "1"]) == 0
        assert main(["run", "--config", str(tiny_config), "--out", str(out_c), "--seed", "2"]) == 0
        summary = "summary.csv"
        assert (out_a / summary).read_bytes() == (out_b / summary).read_bytes()
        assert (out_a / summary).read_bytes() != (out_c / summary).read_bytes()

    def test_negative_seed_rejected(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["run", "--config", str(tiny_config), "--out", str(out), "--seed", "-1"])
        assert rc == 1
        assert "error: master_seed: must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_out_rejected(self, tiny_config, tmp_path, capsys, monkeypatch):
        """An empty --out would write into the working directory."""
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        rc = main(["run", "--config", str(tiny_config), "--out", ""])
        assert rc == 1
        assert "error: out_dir: must not be empty" in capsys.readouterr().err
        assert list(cwd.iterdir()) == []

    def test_missing_config_is_error(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "absent.cfg")])
        assert rc == 1
        assert "error: cannot read config" in capsys.readouterr().err

    def test_bad_config_key_is_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("warp_speed = 9\n", encoding="utf-8")
        rc = main(["run", "--config", str(path)])
        assert rc == 1
        assert "unknown config key: warp_speed" in capsys.readouterr().err

    def test_diverged_run_is_error(self, tmp_path, capsys):
        path = tmp_path / "diverge.cfg"
        path.write_text("methods = centralized\nglobal_rounds = 3\nlearning_rate = 50\n", encoding="utf-8")
        out = tmp_path / "results"
        rc = main(["run", "--config", str(path), "--profile", "desk", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: centralized diverged at round " in err
        assert "cell seed" in err
        assert not (out / "summary.csv").exists()

    def test_finite_blowup_is_error(self, tmp_path, capsys):
        # lr=50 explodes the loss within one round while it stays finite
        path = tmp_path / "blowup.cfg"
        path.write_text(
            "methods = centralized\npenetrations = 0.75\nrepeats = 1\nglobal_rounds = 1\nlearning_rate = 50\n",
            encoding="utf-8",
        )
        out = tmp_path / "results"
        rc = main(["run", "--config", str(path), "--profile", "desk", "--out", str(out)])
        assert rc == 1
        assert "error: centralized diverged at round 1 " in capsys.readouterr().err

    def test_failed_run_leaves_no_out_dir(self, tmp_path, capsys):
        path = tmp_path / "diverge.cfg"
        path.write_text("methods = centralized\nglobal_rounds = 3\nlearning_rate = 50\n", encoding="utf-8")
        out = tmp_path / "results"
        assert main(["run", "--config", str(path), "--profile", "desk", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_under_a_file_is_error_before_any_cell(self, tiny_config, tmp_path, capsys, caplog, below):
        """`--out` naming a regular file, or a path under one, stops the run
        before its first cell with one error line naming the file."""
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        caplog.set_level(logging.INFO, logger="fltp")
        assert main(["run", "--config", str(tiny_config), "--out", str(afile / below)]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and f"{afile} is not a directory" in errors[0]
        assert not any("finished" in record.getMessage() for record in caplog.records)
        assert afile.read_bytes() == b""

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_at_a_dangling_symlink_is_error_before_any_cell(self, tiny_config, tmp_path, capsys, caplog, below):
        """`--out` naming a symlink to a missing path, or a path under one,
        stops the run before its first cell with one error line naming the
        link."""
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "missing")
        caplog.set_level(logging.INFO, logger="fltp")
        assert main(["run", "--config", str(tiny_config), "--out", str(link / below)]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and f"{link} is not a directory" in errors[0]
        assert not any("finished" in record.getMessage() for record in caplog.records)
        assert [p.name for p in tmp_path.iterdir() if p.name != tiny_config.name] == ["link"]

    def test_non_finite_config_value_is_error(self, tmp_path, capsys):
        # a NaN threshold would judge every window wrong rather than fail
        path = tmp_path / "nan.cfg"
        path.write_text("judgment_threshold = nan\n", encoding="utf-8")
        out = tmp_path / "results"
        assert main(["run", "--config", str(path), "--profile", "desk", "--out", str(out)]) == 1
        assert "error: judgment_threshold: not a finite number: 'nan'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_profile_rejected_by_argparse(self, tiny_config):
        with pytest.raises(SystemExit):
            main(["run", "--config", str(tiny_config), "--profile", "mainframe"])


class TestSummarize:
    def test_rebuilds_summary(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
        target = tmp_path / "again.csv"
        rc = main(["summarize", "--in", str(out), "--out", str(target)])
        assert rc == 0
        assert target.read_bytes() == (out / "summary.csv").read_bytes()

    def test_empty_dir_is_error(self, tmp_path, capsys):
        rc = main(["summarize", "--in", str(tmp_path), "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_rounds_file_is_one_error_line(self, tmp_path, capsys):
        """A rounds file cut inside a row exits 1 with one error line naming
        the file, the line and the column, and writes no summary."""
        path = tmp_path / "rounds_x.csv"
        path.write_text(
            "run_id,method,penetration,n_vehicles,repeat,round,mode,pred_error_m,atk_accuracy,loss\n"
            "fl-tp_p0.5_v4_rep0,fl-tp,0.5,4,0,1,uniform,1.5,0.5,0.1\n"
            "fl-tp_p0.5_v4_rep0,fl-tp,0.5\n",
            encoding="utf-8",
        )
        assert main(["summarize", "--in", str(tmp_path), "--out", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}:3: column 'n_vehicles': no value"]
        assert not (tmp_path / "s.csv").exists()

    def test_rounds_file_not_utf8_is_one_error_line(self, tmp_path, capsys):
        """A rounds file that is not UTF-8 exits 1 with one error line naming
        the file, and writes no summary."""
        path = tmp_path / "rounds_x.csv"
        path.write_bytes(b"\xff\xfe")
        assert main(["summarize", "--in", str(tmp_path), "--out", str(tmp_path / "s.csv")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {path}: not UTF-8 text ")
        assert not (tmp_path / "s.csv").exists()


class TestArgparse:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_run_requires_config(self):
        with pytest.raises(SystemExit):
            main(["run"])


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("2", "2")])
def test_cli_sets_one_blas_thread_unless_the_caller_chose(preset, expected):
    """Importing the CLI sets each unset BLAS thread variable to 1, before
    numpy is imported, and keeps a value the caller set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if preset is not None:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, preset))
    src = str(Path(fltp.cli.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = f"import os, fltp.cli; print(*(os.environ[v] for v in {BLAS_THREAD_VARS!r}))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=False, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [expected] * 3


def test_run_logs_the_blas_build_and_the_usable_cpus(tiny_config, tmp_path):
    """`fltp run` logs one stderr line with numpy's BLAS build, the OpenBLAS
    core type, the BLAS thread count (the CLI's 1) and the usable CPUs that
    size the round's workers; no output file carries it."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    src = str(Path(fltp.cli.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = tmp_path / "out"
    argv = [sys.executable, "-m", "fltp.cli", "run", "--config", str(tiny_config), "--out", str(out)]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, check=False, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = [line for line in run.stderr.splitlines() if "usable CPUs" in line]
    threads = "unknown" if blas_threads() is None else "1"
    pattern = rf"INFO BLAS \S+ \S+, OpenBLAS core type \S+, BLAS threads {threads}, usable CPUs {usable_cpus()}"
    assert len(lines) == 1 and re.fullmatch(pattern, lines[0]), run.stderr
    assert lines[0] == run.stderr.splitlines()[0]
    assert "usable CPUs" not in run.stdout
    assert all(b"usable CPUs" not in p.read_bytes() for p in out.iterdir())

import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import resfault
from resfault import experiment, parallel, synth
from resfault.cli import main
from resfault.data_model import DEFAULT_W_CHANNELS, DEFAULT_X_CHANNELS
from resfault.detector import DetectionReport
from resfault.config import load_config
from resfault.persist import (
    REPORT_COLUMNS,
    load_checkpoint,
    load_csv,
    load_ground_truth,
    save_reports,
    stats_to_blob,
    write_table,
)

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_experiment.py"

MINI_CONFIG = {
    "seed": 123,
    "split": {"healthy_cycles": 6, "validation_fraction": 0.15},
    "training": {
        "epochs": 12,
        "batch_size": 32,
        "patience": 12,
        "learning_rate": 0.01,
        "realisations": 2,
    },
    "synth": {
        "n_units": 3,
        "n_families": 2,
        "cycles_per_unit": 36,
        "rows_per_cycle": 100,
        "fault_start_lo": 8,
        "fault_start_hi": 10,
        "noise_std": 0.25,
    },
    "segmentation": {"k_max": 12},
}


def write_config(path: Path, overrides: dict | None = None) -> Path:
    blob = json.loads(json.dumps(MINI_CONFIG))
    for section, values in (overrides or {}).items():
        if isinstance(values, dict):
            blob.setdefault(section, {}).update(values)
        else:
            blob[section] = values
    path.write_text(yaml.safe_dump(blob))
    return path


def run_fresh(args: list[str]) -> subprocess.CompletedProcess:
    """Run ``python args...`` in a fresh interpreter that imports this resfault."""
    env = dict(os.environ)
    src = str(Path(resfault.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_cli_import_leaves_the_process_pool_out():
    proc = run_fresh(["-c", "import sys, resfault.cli; print(*sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "resfault.experiment" in loaded
    assert "multiprocessing" not in loaded
    assert "concurrent.futures.process" not in loaded


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth + train run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root / "mini.yaml")
    data = root / "data"
    assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    ckpt = root / "oc.json"
    assert main(
        ["train", "--config", str(cfg), "--data", str(data), "--model", "oc",
         "--out", str(ckpt)]
    ) == 0
    return {"root": root, "config": cfg, "data": data, "oc": ckpt}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSynth:
    def test_outputs_exist_with_expected_sizes(self, workspace):
        data = workspace["data"]
        fleet_rows = read_rows(data / "fleet.csv")
        assert len(fleet_rows) == 6 * 36 * 100
        truth_rows = read_rows(data / "ground_truth.csv")
        assert len(truth_rows) == 6
        # the worker jobs' part files are gone
        assert sorted(p.name for p in data.iterdir()) == [
            "fleet.csv", "ground_truth.csv", "synth_manifest.txt"
        ]
        workers = parallel.worker_count(6)
        assert f"workers: {workers}" in (data / "synth_manifest.txt").read_text().splitlines()

    def test_same_seed_same_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "mini.yaml", {"synth": {"cycles_per_unit": 12,
                                                              "fault_start_lo": 8,
                                                              "fault_start_hi": 9}})
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        assert main(["synth", "--config", str(cfg), "--seed", "7", "--out", str(out1)]) == 0
        assert main(["synth", "--config", str(cfg), "--seed", "7", "--out", str(out2)]) == 0
        assert (out1 / "fleet.csv").read_bytes() == (out2 / "fleet.csv").read_bytes()
        assert (out1 / "ground_truth.csv").read_bytes() == (out2 / "ground_truth.csv").read_bytes()

    def test_invalid_family_count_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "bad.yaml", {"synth": {"n_families": 0}})
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError("cannot allocate 7 TiB"), "error: out of memory: cannot allocate 7 TiB"),
            (MemoryError(), "error: out of memory"),
        ],
        ids=["numpy_message", "bare"],
    )
    def test_out_of_memory_is_computation_error(self, tmp_path, monkeypatch, capsys, exc, line):
        # a real allocation that large may succeed under overcommit and start paging
        def exhausted(*args):
            raise exc

        monkeypatch.setattr(synth, "save_fleet", exhausted)
        cfg = write_config(tmp_path / "mini.yaml")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err.splitlines() == [line]


class TestTrain:
    def test_checkpoint_and_log_written(self, workspace):
        ckpt = workspace["oc"]
        model, metadata = load_checkpoint(ckpt)
        assert model.kind == "OC"
        assert model.net.layer_dims == (4, 128, 128, 14)
        assert "healthy_stats" in metadata
        assert set(metadata["healthy_stats"]) == {"aggregated", "sensorwise"}
        log = read_rows(ckpt.with_name("oc_log.csv"))
        assert len(log) == metadata["epochs_run"]
        assert (ckpt.with_name("oc_manifest.txt")).exists()

    def test_checkpoint_seeds_are_the_protocols(self, workspace):
        _, metadata = load_checkpoint(workspace["oc"])
        seeds = (metadata["split_seed"], metadata["train_seed"])
        assert seeds == experiment.realisation_seeds(MINI_CONFIG["seed"], 0)

    def test_checkpoint_stats_are_the_protocols(self, workspace):
        # train and the protocol's job for the same realisation fit one model
        _, metadata = load_checkpoint(workspace["oc"])
        cfg = load_config(workspace["config"])
        data = workspace["data"]
        truths = load_ground_truth(data / "ground_truth.csv")
        units = experiment.preprocess_fleet(load_csv(data / "fleet.csv"), cfg, truths)
        run = experiment.run_realisation(units, truths, cfg, 0, "OC")
        for hi_kind in experiment.HI_KINDS:
            blob = stats_to_blob(run.detections[hi_kind].stats)
            assert metadata["healthy_stats"][hi_kind] == blob

    def test_missing_data_dir_is_data_error(self, workspace, tmp_path):
        code = main(
            ["train", "--config", str(workspace["config"]), "--data",
             str(tmp_path / "nowhere"), "--model", "oc", "--out", str(tmp_path / "x.json")]
        )
        assert code == 3

    def test_non_integer_fault_cycle_is_data_error(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "fleet.csv").write_bytes((workspace["data"] / "fleet.csv").read_bytes())
        truth = (workspace["data"] / "ground_truth.csv").read_text().splitlines()
        unit, family, _, sensors = truth[1].split(",")
        truth[1] = ",".join([unit, family, "x", sensors])
        (data / "ground_truth.csv").write_text("\n".join(truth) + "\n")
        code = main(
            ["train", "--config", str(workspace["config"]), "--data", str(data),
             "--model", "oc", "--out", str(tmp_path / "oc.json")]
        )
        assert code == 3
        assert "'fault_cycle', line 2" in capsys.readouterr().err


    def test_healthy_stats_take_one_residual_pass(self, workspace, tmp_path, monkeypatch):
        from resfault import experiment, parallel, synth

        calls = []
        residuals = experiment.unit_residuals

        def counting(model, unit):
            calls.append(unit.unit_id)
            return residuals(model, unit)

        monkeypatch.setattr(experiment, "unit_residuals", counting)
        code = main(
            ["train", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--model", "ae", "--out", str(tmp_path / "ae.json")]
        )
        assert code == 0
        assert len(calls) == 6
        assert len(set(calls)) == 6

    def test_diverging_training_is_computation_error(self, workspace, tmp_path, capsys):
        cfg = write_config(tmp_path / "diverge.yaml", {"training": {"learning_rate": 1e300}})
        out = tmp_path / "oc.json"
        code = main(
            ["train", "--config", str(cfg), "--data", str(workspace["data"]),
             "--model", "oc", "--out", str(out)]
        )
        assert code == 4
        assert "error: epoch 0: training loss nan" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_training_prints_only_the_error(self, workspace, tmp_path):
        cfg = write_config(tmp_path / "diverge.yaml", {"training": {"learning_rate": 1e300}})
        proc = run_fresh(
            ["-m", "resfault", "train", "--config", str(cfg),
             "--data", str(workspace["data"]), "--model", "oc",
             "--out", str(tmp_path / "oc.json")]
        )
        assert proc.returncode == 4
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.startswith("error: epoch 0:")

    def test_empty_validation_split_exits_3(self, tmp_path):
        # one unit of five one-row cycles: three healthy rows, 0.1 of them rounds to none
        data = tmp_path / "data"
        data.mkdir()
        header = ["unit", "cycle", *DEFAULT_W_CHANNELS, *DEFAULT_X_CHANNELS]
        cells = ["1.0"] * (len(header) - 2)
        rows = [",".join(["u1", str(cycle), *cells]) for cycle in range(5)]
        (data / "fleet.csv").write_text("\n".join([",".join(header), *rows]) + "\n")
        cfg = write_config(
            tmp_path / "tiny.yaml", {"split": {"healthy_cycles": 3, "validation_fraction": 0.1}}
        )
        out = tmp_path / "oc.json"
        proc = run_fresh(
            ["-m", "resfault", "train", "--config", str(cfg), "--data", str(data),
             "--model", "oc", "--out", str(out)]
        )
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "error: split.validation_fraction 0.1 of 3 healthy rows leaves 0 validation "
            "and 3 training rows"
        ]
        assert not out.exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("preprocess", "order", "cruise_first"),
        ("detection", "stats_source", "train+validation"),
        ("segmentation", "normalization", "zscore"),
    ],
)
def test_removed_config_key_exits_2(tmp_path, capsys, section, key, value):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({section: {key: value}}))
    code = main(["train", "--config", str(cfg), "--data", str(tmp_path), "--model", "oc",
                 "--out", str(tmp_path / "oc.json")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: unknown key(s) in {section!r}: [{key!r}]"
    ]


class TestUnwritableOut:
    """An --out that cannot be created is a data error (exit 3), never a traceback."""

    @pytest.fixture(params=["existing_file", "below_a_file"])
    def out(self, request, tmp_path):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        return blocker if request.param == "existing_file" else blocker / "sub"

    def test_synth(self, tmp_path, out, capsys):
        cfg = write_config(tmp_path / "mini.yaml")
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(out) in err[0]

    def test_script(self, tmp_path, out):
        cfg = write_config(tmp_path / "mini.yaml")
        proc = run_fresh([str(SCRIPT), "--config", str(cfg), "--out", str(out)])
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_failed_synth_leaves_no_fleet_csv(tmp_path, monkeypatch, capsys):
    """A fleet.csv cut by a failed write would read as a smaller fleet with exit 0."""
    copy = shutil.copyfileobj
    calls = []

    def second_copy_fails(src, dst):
        calls.append(src)
        if len(calls) == 2:
            raise OSError(27, "File too large")
        copy(src, dst)

    def in_process(fn, shared, jobs, workers):
        return [fn(*shared, *args) for args in jobs]

    # two part files, written in this process; the join fails after the first
    monkeypatch.setattr(parallel, "worker_count", lambda n_jobs: 2)
    monkeypatch.setattr(parallel, "run_jobs", in_process)
    monkeypatch.setattr(shutil, "copyfileobj", second_copy_fails)
    out = tmp_path / "data"
    cfg = write_config(tmp_path / "mini.yaml")
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == "error: [Errno 27] File too large"
    assert len(calls) == 2
    assert list(out.iterdir()) == []


class TestNegativeSeeds:
    """A negative seed is a config error (exit 2), never numpy's traceback."""

    def assert_config_error(self, proc, message):
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"error: {message}\n"

    def test_synth_seed_option(self, tmp_path):
        out = tmp_path / "o"
        proc = run_fresh(["-m", "resfault", "synth", "--seed", "-1", "--out", str(out)])
        self.assert_config_error(proc, "seed must be >= 0, got -1")
        assert not out.exists()

    def test_script_config_seed(self, tmp_path):
        cfg = write_config(tmp_path / "neg.yaml", {"seed": -5})
        proc = run_fresh([str(SCRIPT), "--config", str(cfg), "--out", str(tmp_path / "o")])
        self.assert_config_error(proc, "seed must be >= 0, got -5")

    def test_synth_map_seed(self, tmp_path):
        cfg = write_config(tmp_path / "neg.yaml", {"synth": {"map_seed": -1}})
        out = tmp_path / "o"
        proc = run_fresh(["-m", "resfault", "synth", "--config", str(cfg), "--out", str(out)])
        self.assert_config_error(proc, "synth.map_seed must be >= 0")
        assert not out.exists()

    def test_train_realisation(self, workspace, tmp_path):
        out = tmp_path / "oc.json"
        proc = run_fresh(
            ["-m", "resfault", "train", "--config", str(workspace["config"]),
             "--data", str(workspace["data"]), "--model", "oc", "--realisation", "-1",
             "--out", str(out)]
        )
        self.assert_config_error(proc, "--realisation must be >= 0, got -1")
        assert not out.exists()


class TestDetect:
    def test_reports_and_stats_written(self, workspace, tmp_path):
        out = tmp_path / "oc_sens.csv"
        code = main(
            ["detect", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--checkpoint", str(workspace["oc"]), "--hi", "sensorwise", "--out", str(out)]
        )
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 6
        assert all(r["model"] == "OC" and r["hi_kind"] == "sensorwise" for r in rows)
        assert all(r["alarm_cycle"] != "" for r in rows)
        assert all(int(r["delay"]) > 0 for r in rows)
        stats_rows = read_rows(out.with_name("oc_sens_stats.csv"))
        assert len(stats_rows) == 14

    def test_healthy_only_fleet_never_alarms(self, workspace, tmp_path):
        cfg = write_config(
            tmp_path / "healthy.yaml",
            {"seed": 5555,
             "synth": {"severity_scale": 0.0, "map_seed": 123, "unit_prefix": "h-"}},
        )
        data = tmp_path / "healthy_data"
        assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
        out = tmp_path / "healthy_reports.csv"
        code = main(
            ["detect", "--config", str(workspace["config"]), "--data", str(data),
             "--checkpoint", str(workspace["oc"]), "--hi", "aggregated", "--out", str(out)]
        )
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 6
        assert all(r["alarm_cycle"] == "" for r in rows)
        assert all(r["fault_cycle"] == "" and r["gt_known"] == "1" for r in rows)

    def test_checkpoint_of_unknown_kind_is_data_error(self, workspace, tmp_path, capsys):
        blob = json.loads(workspace["oc"].read_text())
        blob["kind"] = "RNN"
        ckpt = tmp_path / "rnn.json"
        ckpt.write_text(json.dumps(blob))
        code = main(
            ["detect", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--checkpoint", str(ckpt), "--hi", "sensorwise", "--out", str(tmp_path / "r.csv")]
        )
        assert code == 3
        assert "unknown model kind 'RNN'" in capsys.readouterr().err

    def test_waiting_one_cycle_never_alarms_later(self, workspace, tmp_path):
        alarms = {}
        for n_wait in (1, 3):
            cfg = write_config(tmp_path / f"w{n_wait}.yaml", {"detection": {"n_wait": n_wait}})
            out = tmp_path / f"reports_w{n_wait}.csv"
            assert main(
                ["detect", "--config", str(cfg), "--data", str(workspace["data"]),
                 "--checkpoint", str(workspace["oc"]), "--hi", "sensorwise", "--out", str(out)]
            ) == 0
            alarms[n_wait] = {
                r["unit"]: int(r["alarm_cycle"]) for r in read_rows(out) if r["alarm_cycle"]
            }
        for unit, early in alarms[1].items():
            assert unit in alarms[3]
            assert early <= alarms[3][unit]


def fabricate_report(unit, dataset, alarm, n_true, known=True):
    return DetectionReport(
        unit_id=unit,
        dataset_id=dataset,
        alarm_cycle=alarm,
        n_true=n_true,
        triggered_first=(),
        ground_truth_known=known,
    )


class TestEvaluate:
    def test_five_identical_sets_average_to_single(self, tmp_path):
        reports = [
            fabricate_report("u1", "fan", 30, 20),
            fabricate_report("u2", "fan", 26, 20),
        ]
        paths = []
        for i in range(5):
            p = tmp_path / f"r{i}.csv"
            save_reports(reports, "OC", "sensorwise", p)
            paths.append(str(p))
        out = tmp_path / "eval"
        assert main(["evaluate", "--reports", *paths, "--out", str(out)]) == 0
        summary = read_rows(out / "evaluation_summary.csv")[0]
        assert summary["n_realisations"] == "5"
        assert float(summary["mean_delay"]) == 8.0
        assert float(summary["fpr_percent"]) == 0.0

    def test_hand_built_two_report_average(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_reports([fabricate_report("u1", "fan", 30, 20)], "OC", "sensorwise", p1)
        save_reports([fabricate_report("u1", "fan", 33, 20)], "OC", "sensorwise", p2)
        out = tmp_path / "eval"
        assert main(["evaluate", "--reports", str(p1), str(p2), "--out", str(out)]) == 0
        units = read_rows(out / "evaluation_units.csv")
        assert float(units[0]["avg_delay"]) == pytest.approx(11.5, abs=1e-12)

    def test_undetected_unit_rendered_as_dash(self, tmp_path):
        reports = [
            fabricate_report("u1", "fan", 30, 20),
            fabricate_report("u2", "fan", None, 20),
        ]
        p = tmp_path / "r.csv"
        save_reports(reports, "AE", "aggregated", p)
        out = tmp_path / "eval"
        assert main(["evaluate", "--reports", str(p), "--out", str(out)]) == 0
        units = {r["unit"]: r for r in read_rows(out / "evaluation_units.csv")}
        assert units["u2"]["avg_delay"] == "-"
        assert units["u2"]["n_detected"] == "0"
        summary = read_rows(out / "evaluation_summary.csv")[0]
        assert float(summary["mean_delay"]) == 10.0  # u2 excluded from the mean

    def test_negative_average_counts_toward_fpr(self, tmp_path):
        reports = [
            fabricate_report("u1", "fan", 15, 20),
            fabricate_report("u2", "fan", 25, 20),
        ]
        p = tmp_path / "r.csv"
        save_reports(reports, "OC", "aggregated", p)
        out = tmp_path / "eval"
        assert main(["evaluate", "--reports", str(p), "--out", str(out)]) == 0
        summary = read_rows(out / "evaluation_summary.csv")[0]
        assert float(summary["fpr_percent"]) == pytest.approx(50.0)

    def test_non_integer_alarm_cycle_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "r.csv"
        save_reports([fabricate_report("u1", "fan", 30, 20)], "OC", "sensorwise", p)
        p.write_text(p.read_text().replace(",30,", ",abc,"))
        assert main(["evaluate", "--reports", str(p), "--out", str(tmp_path / "eval")]) == 3
        assert "'alarm_cycle', line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "alarm, n_true, delay", [(30, 20, -11), (30, 20, None), (None, 20, 5), (30, None, 10)]
    )
    def test_delay_that_contradicts_the_cycles_exits_3(
        self, tmp_path, capsys, alarm, n_true, delay
    ):
        p = tmp_path / "r.csv"
        save_reports(
            [fabricate_report("u0", "fan", 30, 20), fabricate_report("u1", "fan", alarm, n_true)],
            "OC", "sensorwise", p,
        )
        # a report cannot hold a delay apart from its cycles, so the written cell is changed
        with p.open(newline="") as fh:
            rows = list(csv.reader(fh))
        cell = "" if delay is None else str(delay)
        rows[2][REPORT_COLUMNS.index("delay")] = cell
        write_table(p, rows[0], rows[1:])
        out = tmp_path / "eval"
        assert main(["evaluate", "--reports", str(p), "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: {p}: line 3, unit 'u1': delay {cell!r} is not alarm_cycle - fault_cycle"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "dataset, n_true, known, column",
        [("hpc", 30, True, "dataset"), ("fan", 30, True, "fault_cycle"),
         ("fan", 20, False, "gt_known")],
    )
    def test_report_sets_that_disagree_on_a_unit_exit_3(
        self, tmp_path, capsys, dataset, n_true, known, column
    ):
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        save_reports([fabricate_report("u1", "fan", 25, 20)], "OC", "sensorwise", p1)
        save_reports(
            [fabricate_report("u1", dataset, 25, n_true, known)], "OC", "sensorwise", p2
        )
        out = tmp_path / "eval"
        assert main(["evaluate", "--reports", str(p1), str(p2), "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: the OC sensorwise report sets disagree on the {column} of unit 'u1'"
        ]
        assert not out.exists()

    def test_no_ground_truth_fpr_is_dash(self, tmp_path, capsys):
        reports = [
            fabricate_report("u1", "", 30, None, known=False),
            fabricate_report("u2", "", None, None, known=False),
        ]
        p = tmp_path / "r.csv"
        save_reports(reports, "OC", "aggregated", p)
        out = tmp_path / "eval"
        assert main(["evaluate", "--reports", str(p), "--out", str(out)]) == 0
        summary = read_rows(out / "evaluation_summary.csv")[0]
        assert summary["fpr_percent"] == "-"
        assert summary["n_detected_units"] == "1"
        assert "FPR - over 2 units" in capsys.readouterr().out

    def test_fpr_denominator_is_units_with_ground_truth(self, tmp_path):
        reports = [
            fabricate_report("u1", "fan", 15, 20),
            fabricate_report("u2", "fan", 25, 20),
            fabricate_report("u3", "", 12, None, known=False),
            fabricate_report("u4", "", None, None, known=False),
            fabricate_report("u5", "", None, None, known=False),
        ]
        p = tmp_path / "r.csv"
        save_reports(reports, "OC", "aggregated", p)
        out = tmp_path / "eval"
        assert main(["evaluate", "--reports", str(p), "--out", str(out)]) == 0
        summary = read_rows(out / "evaluation_summary.csv")[0]
        assert summary["n_units"] == "5"
        assert float(summary["fpr_percent"]) == pytest.approx(50.0)


@pytest.fixture(scope="module")
def seg_out(workspace, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("seg")
    reports = tmp / "reports.csv"
    assert main(
        ["detect", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
         "--checkpoint", str(workspace["oc"]), "--hi", "sensorwise", "--out", str(reports)]
    ) == 0
    out = tmp / "seg"
    assert main(
        ["segment", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
         "--checkpoint", str(workspace["oc"]), "--reports", str(reports), "--out", str(out)]
    ) == 0
    return out


class TestSegment:
    def test_outputs_parse_with_expected_counts(self, seg_out):
        signatures = read_rows(seg_out / "signatures.csv")
        assert len(signatures) == 6
        assert len(signatures[0]) == 2 + 14
        coords = read_rows(seg_out / "pca_coords.csv")
        assert len(coords) == 6
        assert {r["label"] for r in coords} == {"fan", "hpc"}
        curve = read_rows(seg_out / "silhouette_curve.csv")
        assert [int(r["k"]) for r in curve] == list(range(0, 13))
        timeline = read_rows(seg_out / "trigger_timeline.csv")
        assert len(timeline) == 6 * 14
        categories = {r["triggered_at"] for r in timeline}
        assert "10" in categories and "No" in categories

    @pytest.mark.parametrize("k_max", [10, 9])
    def test_prints_the_silhouette_at_the_offset(self, workspace, seg_out, tmp_path, capsys, k_max):
        cfg = write_config(tmp_path / "k_max.yaml", {"segmentation": {"k_max": k_max}})
        out = tmp_path / "seg"
        capsys.readouterr()
        assert main(
            ["segment", "--config", str(cfg), "--data", str(workspace["data"]),
             "--checkpoint", str(workspace["oc"]), "--reports", str(seg_out.parent / "reports.csv"),
             "--out", str(out)]
        ) == 0
        curve = {int(r["k"]): float(r["score"]) for r in read_rows(out / "silhouette_curve.csv")}
        # the default snapshot offset is 10; a curve that stops before it has no score there
        at_offset = f"{curve[10]:.3f}" if k_max >= 10 else "n/a"
        assert capsys.readouterr().out == f"segmented 6 units; silhouette at +10: {at_offset}\n"

    def test_signature_rows_are_max_normalized(self, seg_out):
        for row in read_rows(seg_out / "signatures.csv"):
            values = [float(row[k]) for k in row if k not in ("unit", "label")]
            assert max(values) == pytest.approx(1.0)
            assert min(values) >= 0.0

    def test_single_family_is_computation_error(self, workspace, tmp_path):
        reports = tmp_path / "reports.csv"
        assert main(
            ["detect", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--checkpoint", str(workspace["oc"]), "--hi", "sensorwise", "--out", str(reports)]
        ) == 0
        rows = read_rows(reports)
        one_family = tmp_path / "one_family.csv"
        kept = [
            fabricate_report(r["unit"], r["dataset"], int(r["alarm_cycle"]), int(r["fault_cycle"]))
            for r in rows
            if r["dataset"] == "fan"
        ]
        save_reports(kept, "OC", "sensorwise", one_family)
        code = main(
            ["segment", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--checkpoint", str(workspace["oc"]), "--reports", str(one_family),
             "--out", str(tmp_path / "seg")]
        )
        assert code == 4


    @pytest.mark.parametrize("n_alarmed", [0, 2])
    def test_fewer_than_three_signatures_is_data_error(
        self, workspace, tmp_path, capsys, n_alarmed
    ):
        reports = tmp_path / "reports.csv"
        assert main(
            ["detect", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--checkpoint", str(workspace["oc"]), "--hi", "sensorwise", "--out", str(reports)]
        ) == 0
        rows = read_rows(reports)
        few = tmp_path / "few.csv"
        kept = [
            fabricate_report(
                r["unit"],
                r["dataset"],
                int(r["alarm_cycle"]) if i < n_alarmed else None,
                int(r["fault_cycle"]),
            )
            for i, r in enumerate(rows)
        ]
        save_reports(kept, "OC", "sensorwise", few)
        capsys.readouterr()
        code = main(
            ["segment", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--checkpoint", str(workspace["oc"]), "--reports", str(few),
             "--out", str(tmp_path / "seg")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert f"got {n_alarmed}" in err and "10 cycles after" in err


    def test_alarm_cycle_outside_the_series_exits_3(self, workspace, tmp_path, capsys):
        reports = tmp_path / "reports.csv"
        assert main(
            ["detect", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--checkpoint", str(workspace["oc"]), "--hi", "sensorwise", "--out", str(reports)]
        ) == 0
        rows = read_rows(reports)
        shifted = tmp_path / "shifted.csv"
        kept = [
            fabricate_report(
                r["unit"],
                r["dataset"],
                int(r["alarm_cycle"]) + (1000 if i == 1 else 0),
                int(r["fault_cycle"]),
            )
            for i, r in enumerate(rows)
        ]
        save_reports(kept, "OC", "sensorwise", shifted)
        capsys.readouterr()
        out = tmp_path / "seg"
        code = main(
            ["segment", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--checkpoint", str(workspace["oc"]), "--reports", str(shifted),
             "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(shifted) in err[0]
        assert repr(rows[1]["unit"]) in err[0]
        assert str(int(rows[1]["alarm_cycle"]) + 1000) in err[0]
        assert not out.exists()

    def test_alarmed_unit_missing_from_the_fleet_exits_3(self, workspace, tmp_path, capsys):
        reports = tmp_path / "reports.csv"
        assert main(
            ["detect", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--checkpoint", str(workspace["oc"]), "--hi", "sensorwise", "--out", str(reports)]
        ) == 0
        with open(reports, "a", newline="") as fh:
            fh.write("OC,sensorwise,ghost-u09,fan,20,25,5,,1\n")
        capsys.readouterr()
        out = tmp_path / "seg"
        code = main(
            ["segment", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--checkpoint", str(workspace["oc"]), "--reports", str(reports),
             "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(reports) in err[0] and "'ghost-u09'" in err[0]
        assert not out.exists()


CORRUPT_STATS = ["metadata_is_a_list", "healthy_stats_is_a_list", "unequal_lengths",
                 "thirteen_channels", "thirteen_names"]


def corrupt_checkpoint(source: Path, target: Path, case: str) -> str:
    """Write ``source`` with its healthy statistics damaged; returns the expected error."""
    blob = json.loads(source.read_text())
    sensorwise = blob["metadata"]["healthy_stats"]["sensorwise"]
    if case == "metadata_is_a_list":
        blob["metadata"] = []
        expected = "checkpoint metadata must be a JSON object"
    elif case == "healthy_stats_is_a_list":
        blob["metadata"]["healthy_stats"] = []
        expected = "checkpoint healthy_stats must be a JSON object"
    elif case == "unequal_lengths":
        sensorwise["tau"].pop()
        expected = "mu, sigma, tau must be 1-D vectors of equal length"
    elif case == "thirteen_names":
        sensorwise["channels"].pop()
        expected = "healthy statistics name 13 channels for 14 values"
    else:
        # 13 channels for the 14-sensor OC model
        for key in ("channels", "mu", "sigma", "tau"):
            sensorwise[key].pop()
        expected = "checkpoint has 13 sensorwise statistics channels, the OC model needs 14"
    target.write_text(json.dumps(blob))
    return expected


class TestCorruptCheckpointStats:
    """Bad healthy statistics in a checkpoint are a data error, exit 3."""

    def assert_data_error(self, code, capsys, expected):
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert expected in err[0]

    @pytest.mark.parametrize("case", CORRUPT_STATS)
    def test_detect(self, workspace, tmp_path, capsys, case):
        ckpt = tmp_path / "corrupt.json"
        expected = corrupt_checkpoint(workspace["oc"], ckpt, case)
        out = tmp_path / "r.csv"
        code = main(
            ["detect", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--checkpoint", str(ckpt), "--hi", "sensorwise", "--out", str(out)]
        )
        self.assert_data_error(code, capsys, expected)
        assert not out.exists()

    def test_segment(self, workspace, seg_out, tmp_path, capsys):
        ckpt = tmp_path / "corrupt.json"
        expected = corrupt_checkpoint(workspace["oc"], ckpt, "thirteen_channels")
        code = main(
            ["segment", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--checkpoint", str(ckpt), "--reports", str(seg_out.parent / "reports.csv"),
             "--out", str(tmp_path / "seg")]
        )
        self.assert_data_error(code, capsys, expected)


NON_FINITE_PARTS = ["weight", "bias", "mean", "std", "epsilon", "mu", "sigma", "tau"]


def non_finite_checkpoint(source: Path, target: Path, part: str, value: float) -> None:
    """Write ``source`` with one number of ``part`` replaced by ``value``."""
    blob = json.loads(source.read_text())
    if part == "weight":
        blob["weights"][1][2][0] = value
    elif part == "bias":
        blob["biases"][0][3] = value
    elif part == "epsilon":
        blob["standardizer"]["epsilon"] = value
    elif part in ("mean", "std"):
        blob["standardizer"][part][5] = value
    else:
        blob["metadata"]["healthy_stats"]["sensorwise"][part][4] = value
    target.write_text(json.dumps(blob))


class TestCheckpointContents:
    """A checkpoint number that is not finite, or a tag that does not fit, is exit 3."""

    def detect(self, workspace, ckpt, out):
        return main(
            ["detect", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--checkpoint", str(ckpt), "--hi", "sensorwise", "--out", str(out)]
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("part", NON_FINITE_PARTS)
    def test_non_finite_number_exits_3(self, workspace, tmp_path, capsys, part, value):
        ckpt = tmp_path / "bad.json"
        non_finite_checkpoint(workspace["oc"], ckpt, part, value)
        out = tmp_path / "r.csv"
        capsys.readouterr()
        assert self.detect(workspace, ckpt, out) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "non-finite number" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("activations", ["relu", "relu", "relu"]),
        ("activations", ["relu", "linear"]),
        ("layer_dims", [4, 128, 64, 14]),
    ])
    def test_tags_or_dims_that_do_not_fit_exit_3(
        self, workspace, tmp_path, capsys, key, value
    ):
        blob = json.loads(workspace["oc"].read_text())
        assert blob["activations"] == ["relu", "relu", "linear"]
        assert blob["layer_dims"] == [4, 128, 128, 14]
        blob[key] = value
        ckpt = tmp_path / "bad.json"
        ckpt.write_text(json.dumps(blob))
        capsys.readouterr()
        assert self.detect(workspace, ckpt, tmp_path / "r.csv") == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "do not fit weights" in err[0]


class TestMalformedFleet:
    """A fleet row whose cell count differs from the header's is a data error."""

    @pytest.mark.parametrize("damage", ["trailing_blank_line", "short_row", "extra_cell"])
    def test_ragged_row_exits_3_without_traceback(self, workspace, tmp_path, damage):
        lines = (workspace["data"] / "fleet.csv").read_text().splitlines()
        n_cells = len(lines[0].split(","))
        if damage == "trailing_blank_line":
            lines.append("")
            bad_line, bad_cells = len(lines), 0
        elif damage == "short_row":
            lines[4] = lines[4].rsplit(",", 1)[0]
            bad_line, bad_cells = 5, n_cells - 1
        else:
            lines[4] = lines[4] + ",0.5"
            bad_line, bad_cells = 5, n_cells + 1
        data = tmp_path / "data"
        data.mkdir()
        (data / "fleet.csv").write_text("\n".join(lines) + "\n")
        proc = run_fresh(
            ["-m", "resfault", "train", "--config", str(workspace["config"]), "--data",
             str(data), "--model", "oc", "--out", str(tmp_path / "oc.json")]
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"error: {data / 'fleet.csv'}: line {bad_line} has {bad_cells} cells, "
            f"the header has {n_cells}"
        ]


class TestMalformedSidecars:
    """Ground-truth and report rows follow the fleet's cell-count rule."""

    @pytest.mark.parametrize("damage", ["short_row", "extra_cell"])
    def test_ground_truth_ragged_row_exits_3(self, workspace, tmp_path, damage):
        lines = (workspace["data"] / "ground_truth.csv").read_text().splitlines()
        if damage == "short_row":
            lines[2] = lines[2].rsplit(",", 1)[0]
            bad_cells = 3
        else:
            lines[2] = lines[2] + ",extra"
            bad_cells = 5
        data = tmp_path / "data"
        data.mkdir()
        (data / "fleet.csv").write_bytes((workspace["data"] / "fleet.csv").read_bytes())
        (data / "ground_truth.csv").write_text("\n".join(lines) + "\n")
        proc = run_fresh(
            ["-m", "resfault", "detect", "--config", str(workspace["config"]), "--data",
             str(data), "--checkpoint", str(workspace["oc"]), "--hi", "sensorwise",
             "--out", str(tmp_path / "reports.csv")]
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"error: {data / 'ground_truth.csv'}: line 3 has {bad_cells} cells, "
            "the header has 4"
        ]

    @pytest.mark.parametrize("damage", ["six_cells_short", "extra_cell"])
    def test_report_ragged_row_exits_3(self, tmp_path, damage):
        path = tmp_path / "reports.csv"
        save_reports(
            [fabricate_report("u1", "fan", 30, 20), fabricate_report("u2", "fan", 26, 20)],
            "OC", "sensorwise", path,
        )
        lines = path.read_text().splitlines()
        if damage == "six_cells_short":
            lines[2] = ",".join(lines[2].split(",")[:3])
            bad_cells = 3
        else:
            lines[2] = lines[2] + ",extra"
            bad_cells = 10
        path.write_text("\n".join(lines) + "\n")
        proc = run_fresh(
            ["-m", "resfault", "evaluate", "--reports", str(path), "--out",
             str(tmp_path / "eval")]
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"error: {path}: line 3 has {bad_cells} cells, the header has 9"
        ]


    def test_repeated_ground_truth_unit_exits_3(self, workspace, tmp_path):
        lines = (workspace["data"] / "ground_truth.csv").read_text().splitlines()
        lines.append(lines[1].split(",", 1)[0] + ",hpc,,")
        data = tmp_path / "data"
        data.mkdir()
        (data / "fleet.csv").write_bytes((workspace["data"] / "fleet.csv").read_bytes())
        (data / "ground_truth.csv").write_text("\n".join(lines) + "\n")
        proc = run_fresh(
            ["-m", "resfault", "detect", "--config", str(workspace["config"]), "--data",
             str(data), "--checkpoint", str(workspace["oc"]), "--hi", "sensorwise",
             "--out", str(tmp_path / "reports.csv")]
        )
        assert proc.returncode == 3
        unit = lines[1].split(",", 1)[0]
        assert proc.stderr.splitlines() == [
            f"error: {data / 'ground_truth.csv'}: line {len(lines)} repeats unit {unit!r}"
        ]

    def test_repeated_report_row_exits_3(self, tmp_path):
        path = tmp_path / "reports.csv"
        save_reports(
            [fabricate_report("u1", "fan", 30, 20)] * 2, "OC", "sensorwise", path
        )
        out = tmp_path / "eval"
        proc = run_fresh(["-m", "resfault", "evaluate", "--reports", str(path), "--out", str(out)])
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            f"error: {path}: line 3 repeats unit 'u1' of the OC sensorwise reports"
        ]
        assert not out.exists()


class TestChannelNamesFromCheckpoint:
    """Indicator channels are named after the checkpoint's statistics, not the fleet."""

    def test_renamed_sensorwise_channels(self, workspace, tmp_path):
        blob = json.loads(workspace["oc"].read_text())
        sensorwise = blob["metadata"]["healthy_stats"]["sensorwise"]
        names = [f"s-{name}" for name in sensorwise["channels"]]
        sensorwise["channels"] = names
        ckpt = tmp_path / "renamed.json"
        ckpt.write_text(json.dumps(blob))
        common = ["--config", str(workspace["config"]), "--data", str(workspace["data"]),
                  "--checkpoint", str(ckpt)]
        out = tmp_path / "r.csv"
        assert main(["detect", *common, "--hi", "sensorwise", "--out", str(out), "--dump-hi"]) == 0
        triggered = {n for r in read_rows(out) for n in r["triggered_first"].split(";") if n}
        assert triggered and triggered <= set(names)
        assert {r["channel"] for r in read_rows(out.with_name("r_hi.csv"))} == set(names)
        assert [r["channel"] for r in read_rows(out.with_name("r_stats.csv"))] == names
        seg = tmp_path / "seg"
        assert main(["segment", *common, "--reports", str(out), "--out", str(seg)]) == 0
        assert list(read_rows(seg / "signatures.csv")[0])[2:] == names
        assert {r["channel"] for r in read_rows(seg / "trigger_timeline.csv")} == set(names)


class TestAeEmbedding:
    def test_embedding_projection_emitted_for_ae(self, workspace, tmp_path):
        cfg = workspace["config"]
        ae_ckpt = tmp_path / "ae.json"
        assert main(
            ["train", "--config", str(cfg), "--data", str(workspace["data"]),
             "--model", "ae", "--out", str(ae_ckpt)]
        ) == 0
        reports = tmp_path / "ae_reports.csv"
        assert main(
            ["detect", "--config", str(cfg), "--data", str(workspace["data"]),
             "--checkpoint", str(ae_ckpt), "--hi", "sensorwise", "--out", str(reports)]
        ) == 0
        out = tmp_path / "seg"
        assert main(
            ["segment", "--config", str(cfg), "--data", str(workspace["data"]),
             "--checkpoint", str(ae_ckpt), "--reports", str(reports), "--out", str(out)]
        ) == 0
        emb = read_rows(out / "ae_embedding_pca.csv")
        assert len(emb) >= 3
        assert set(emb[0]) == {"unit", "pc1", "pc2"}
        # AE signatures carry all 18 channels
        signatures = read_rows(out / "signatures.csv")
        assert len(signatures[0]) == 2 + 18


class TestNotUtf8:
    """An input file that is not UTF-8 text exits with one error line naming it."""

    @staticmethod
    def spoil_unit_cell(source: Path, target: Path) -> Path:
        """``source`` with a 0xE9 byte after the first character of line 2's unit cell."""
        lines = source.read_bytes().split(b"\n")
        cells = lines[1].split(b",")
        at = lines[0].split(b",").index(b"unit")
        cells[at] = cells[at][:1] + b"\xe9" + cells[at][1:]
        lines[1] = b",".join(cells)
        target.write_bytes(b"\n".join(lines))
        return target

    def assert_exit(self, code, capsys, expected_code, path):
        assert code == expected_code
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path} is not UTF-8 text: byte 0xe9 (invalid continuation byte)"
        ]

    def data_dir(self, workspace, tmp_path, spoiled):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("fleet.csv", "ground_truth.csv"):
            if name == spoiled:
                self.spoil_unit_cell(workspace["data"] / name, data / name)
            else:
                (data / name).write_bytes((workspace["data"] / name).read_bytes())
        return data

    @pytest.mark.parametrize("command", ["detect", "train"])
    def test_fleet(self, workspace, tmp_path, capsys, command):
        data = self.data_dir(workspace, tmp_path, "fleet.csv")
        args = ["--config", str(workspace["config"]), "--data", str(data)]
        if command == "detect":
            args += ["--checkpoint", str(workspace["oc"]), "--hi", "sensorwise",
                     "--out", str(tmp_path / "reports.csv")]
        else:
            args += ["--model", "oc", "--out", str(tmp_path / "oc.json")]
        self.assert_exit(main([command, *args]), capsys, 3, data / "fleet.csv")

    def test_ground_truth(self, workspace, tmp_path, capsys):
        data = self.data_dir(workspace, tmp_path, "ground_truth.csv")
        code = main(
            ["detect", "--config", str(workspace["config"]), "--data", str(data),
             "--checkpoint", str(workspace["oc"]), "--hi", "sensorwise",
             "--out", str(tmp_path / "reports.csv")]
        )
        self.assert_exit(code, capsys, 3, data / "ground_truth.csv")

    def test_report(self, tmp_path, capsys):
        path = tmp_path / "reports.csv"
        save_reports([fabricate_report("u1", "fan", 30, 20)], "OC", "sensorwise", path)
        self.spoil_unit_cell(path, path)
        code = main(["evaluate", "--reports", str(path), "--out", str(tmp_path / "eval")])
        self.assert_exit(code, capsys, 3, path)

    def test_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_bytes(b'synth:\n  unit_prefix: "\xe9a"\n')
        code = main(["synth", "--config", str(path), "--out", str(tmp_path / "data")])
        self.assert_exit(code, capsys, 2, path)

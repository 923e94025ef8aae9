import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import resfault
from resfault.cli import main
from resfault.detector import DetectionReport
from resfault.persist import load_checkpoint, save_reports

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
        assert (data / "synth_manifest.txt").exists()

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

    def test_missing_data_dir_is_data_error(self, workspace, tmp_path):
        code = main(
            ["train", "--config", str(workspace["config"]), "--data",
             str(tmp_path / "nowhere"), "--model", "oc", "--out", str(tmp_path / "x.json")]
        )
        assert code == 3


    def test_healthy_stats_take_one_residual_pass(self, workspace, tmp_path, monkeypatch):
        from resfault import experiment

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
        env = dict(os.environ)
        src = str(Path(resfault.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "resfault", "train", "--config", str(cfg),
             "--data", str(workspace["data"]), "--model", "oc",
             "--out", str(tmp_path / "oc.json")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 4
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.startswith("error: epoch 0:")


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
    delay = None if alarm is None or n_true is None else alarm - n_true
    return DetectionReport(
        unit_id=unit,
        dataset_id=dataset,
        alarm_cycle=alarm,
        n_true=n_true,
        delay=delay,
        triggered_first=(),
        cycle_ids=np.arange(3),
        exceedance=np.zeros((3, 1), dtype=bool),
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

"""scripts/run_experiment.py run in process on a tiny fleet."""

import csv
import importlib.util
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from resfault import experiment
from resfault.cli import main as cli_main
from resfault.detector import DetectionReport
from resfault.persist import save_reports

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_experiment.py"
TINY = {
    "synth": {"n_units": 2, "rows_per_cycle": 40},
    "training": {"epochs": 3, "patience": 2, "realisations": 2},
}


def load_script():
    spec = importlib.util.spec_from_file_location("run_experiment", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def header(path):
    with open(path, newline="") as fh:
        return next(csv.reader(fh))


@pytest.fixture(scope="module")
def experiment_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("experiment")
    cfg = root / "tiny.yaml"
    cfg.write_text(json.dumps(TINY))
    script = load_script()
    curves = []
    silhouette_curve = script.silhouette_curve

    def recording(*args, **kwargs):
        curves.append(silhouette_curve(*args, **kwargs))
        return curves[-1]

    script.silhouette_curve = recording
    out = root / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = script.main(["--config", str(cfg), "--seed", "3", "--out", str(out)])
    assert code == 0
    return out, curves


def test_evaluation_headers_match_evaluate(experiment_run, tmp_path):
    out, _ = experiment_run
    reports = tmp_path / "r.csv"
    report = DetectionReport("u1", "fan", 30, 20, 10, (), np.arange(1), np.zeros((1, 1), bool))
    save_reports([report], "OC", "sensorwise", reports)
    eval_out = tmp_path / "eval"
    assert cli_main(["evaluate", "--reports", str(reports), "--out", str(eval_out)]) == 0
    for name in ("evaluation_units.csv", "evaluation_summary.csv"):
        assert header(out / name) == header(eval_out / name)


def test_silhouette_counts_only_finite_scores(experiment_run):
    out, curves = experiment_run
    realisations = TINY["training"]["realisations"]
    assert len(curves) == len(experiment.MODEL_KINDS) * realisations
    with open(out / "silhouette_vs_k.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    saw_partial = False
    for i, kind in enumerate(experiment.MODEL_KINDS):
        per_model = curves[i * realisations : (i + 1) * realisations]
        for row in (r for r in rows if r["model"] == kind):
            k = int(row["k"])
            scores = [p.score for curve in per_model for p in curve if p.k == k]
            finite = [s for s in scores if math.isfinite(s)]
            assert int(row["n_realisations"]) == len(finite)
            saw_partial |= len(finite) < realisations
            if finite:
                assert float(row["mean_score"]) == pytest.approx(sum(finite) / len(finite))
            else:
                assert math.isnan(float(row["mean_score"]))
    # the tiny fleet ends before the largest offsets, so some scores are nan
    assert saw_partial

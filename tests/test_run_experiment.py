"""scripts/run_experiment.py run in process on a tiny fleet."""

import contextlib
import csv
import dataclasses
import importlib.util
import json
import math
import os
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from resfault import experiment
from resfault.cli import main as cli_main
from resfault.config import config_from_dict, load_config
from resfault.detector import DetectionReport
from resfault.persist import format_float, save_reports
from resfault.synth import gen_fleet, unit_plan
from test_cli import run_fresh

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


@contextlib.contextmanager
def usable_cpus(cpus):
    """Restrict this thread, and the processes it starts, to ``cpus``."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def one_cpu():
    return usable_cpus({min(os.sched_getaffinity(0))})


def header(path):
    with open(path, newline="") as fh:
        return next(csv.reader(fh))


@pytest.fixture(scope="module")
def experiment_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("experiment")
    cfg = root / "tiny.yaml"
    cfg.write_text(json.dumps(TINY))
    script = load_script()
    runs = []
    run_realisation = experiment.run_realisation

    def recording(*args):
        runs.append(run_realisation(*args))
        return runs[-1]

    out = root / "out"
    # one usable CPU: training runs in this process, under the warnings filter
    with pytest.MonkeyPatch.context() as patch, one_cpu(), warnings.catch_warnings():
        patch.setattr(experiment, "run_realisation", recording)
        warnings.simplefilter("error")
        code = script.main(["--config", str(cfg), "--seed", "3", "--out", str(out)])
    assert code == 0
    return out, runs


def test_manifest_records_workers_and_training_outcomes(experiment_run):
    out, _ = experiment_run
    lines = (out / "experiment_manifest.txt").read_text().splitlines()
    assert "workers: 1" in lines
    pattern = re.compile(
        r"training (\d+) (\w+): epochs_run (\d+), best_epoch (\d+), best_val_loss (\S+)"
    )
    found = {
        (int(m[1]), m[2]): (int(m[3]), int(m[4]), m[5])
        for m in map(pattern.fullmatch, lines)
        if m
    }
    realisations = range(TINY["training"]["realisations"])
    assert list(found) == [(r, kind) for r in realisations for kind in experiment.MODEL_KINDS]
    # the recorded outcome is the one the job's training returned
    cfg = dataclasses.replace(load_config(out.parent / "tiny.yaml"), seed=3)
    fleet = gen_fleet(cfg)
    truths = {t.unit_id: t for _, t in fleet}
    preprocessed = experiment.preprocess_fleet([s for s, _ in fleet], cfg, truths)
    for r, kind in found:
        train = experiment.run_realisation(preprocessed, truths, cfg, r, kind).train_result
        assert found[(r, kind)] == (
            train.epochs_run,
            train.best_epoch,
            format_float(train.val_losses[train.best_epoch]),
        )


def test_fleet_is_prepared_one_raw_unit_at_a_time():
    cfg = config_from_dict({"synth": {"n_units": 4}})  # 12 units of 9,600 rows
    fleet = gen_fleet(cfg)
    unit_bytes = sum(s.w.nbytes + s.x.nbytes + s.cycle_of.nbytes for s, _ in fleet) / len(fleet)
    truths = {t.unit_id: t for _, t in fleet}
    expected = experiment.preprocess_fleet([s for s, _ in fleet], cfg, truths)
    del fleet
    prepared_slice = load_script().prepared_slice
    # tracemalloc sees numpy's buffers; a raw unit alone is unit_bytes
    tracemalloc.start()
    try:
        units, got_truths = prepared_slice(cfg, unit_plan(cfg))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * unit_bytes
    assert got_truths == list(truths.values())
    np.testing.assert_equal(
        [dataclasses.asdict(u) for u in units], [dataclasses.asdict(u) for u in expected]
    )


def test_fleet_slices_on_the_pool_join_in_plan_order():
    cfg = config_from_dict(TINY)
    prepared_fleet = load_script().prepared_fleet
    serial_units, serial_truths = prepared_fleet(cfg, 1)
    pooled_units, pooled_truths = prepared_fleet(cfg, 2)
    plan_ids = [unit_id for _, _, unit_id in unit_plan(cfg)]
    assert [u.unit_id for u in pooled_units] == plan_ids
    assert list(pooled_truths) == list(serial_truths) == plan_ids
    assert pooled_truths == serial_truths
    np.testing.assert_equal(
        [dataclasses.asdict(u) for u in pooled_units],
        [dataclasses.asdict(u) for u in serial_units],
    )


def test_one_usable_cpu_starts_no_pool(tmp_path):
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(json.dumps(TINY))
    out, data = tmp_path / "out", tmp_path / "data"
    code = f"""
import importlib.util, os, sys
import resfault.cli
os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
assert resfault.cli.main(["synth", "--config", {str(cfg)!r}, "--out", {str(data)!r}]) == 0
spec = importlib.util.spec_from_file_location("run_experiment", {str(SCRIPT)!r})
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)
assert script.main(["--config", {str(cfg)!r}, "--out", {str(out)!r}]) == 0
print(sorted(m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules))
"""
    proc = run_fresh(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert "workers: 1" in (data / "synth_manifest.txt").read_text().splitlines()
    assert "workers: 1" in (out / "experiment_manifest.txt").read_text().splitlines()


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="a worker pool needs 2 usable CPUs"
)
def test_failing_job_fails_the_pool_run_cleanly(tmp_path):
    blob = {**TINY, "training": {**TINY["training"], "learning_rate": 1e300}}
    cfg = tmp_path / "diverge.yaml"
    cfg.write_text(yaml.safe_dump(blob))
    with usable_cpus(sorted(os.sched_getaffinity(0))[:2]):
        # run_fresh times out rather than wait on a hung pool
        proc = run_fresh([str(SCRIPT), "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert proc.returncode == 4
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: epoch 0:")
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="a worker pool needs 2 usable CPUs"
)
def test_unguarded_program_runs_the_pool(tmp_path):
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(json.dumps(TINY))
    unguarded, guarded = tmp_path / "unguarded", tmp_path / "guarded"
    program = tmp_path / "unguarded.py"
    # no `if __name__ == "__main__":`: forked workers never import the program
    program.write_text(
        "import sys\n"
        "from resfault.cli import main\n"
        f"sys.exit(main(['synth', '--config', {str(cfg)!r}, '--out', {str(unguarded)!r}]))\n"
    )
    with usable_cpus(sorted(os.sched_getaffinity(0))[:2]):
        proc = run_fresh([str(program)])
        reference = run_fresh(
            ["-m", "resfault", "synth", "--config", str(cfg), "--out", str(guarded)]
        )
    assert proc.returncode == 0, proc.stderr
    assert reference.returncode == 0, reference.stderr
    assert proc.stderr == ""
    assert "workers: 2" in (unguarded / "synth_manifest.txt").read_text().splitlines()
    fleet = (unguarded / "fleet.csv").read_bytes()
    assert fleet == (guarded / "fleet.csv").read_bytes()
    assert sorted(p.name for p in unguarded.iterdir()) == sorted(p.name for p in guarded.iterdir())


def test_one_family_fleet_writes_every_table(tmp_path):
    blob = {**TINY, "synth": {**TINY["synth"], "n_families": 1}}
    cfg = tmp_path / "one_family.yaml"
    cfg.write_text(json.dumps(blob))
    out = tmp_path / "out"
    with one_cpu():
        assert load_script().main(["--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "evaluation_summary.csv",
        "evaluation_units.csv",
        "experiment_manifest.txt",
        "silhouette_vs_k.csv",
        "trigger_timeline.csv",
    ]
    with open(out / "silhouette_vs_k.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(experiment.MODEL_KINDS) * (load_config(cfg).segmentation.k_max + 1)
    # one family alarmed: no realisation gives a score at any offset
    for row in rows:
        assert math.isnan(float(row["mean_score"]))
        assert row["n_realisations"] == "0"


def test_evaluation_headers_match_evaluate(experiment_run, tmp_path):
    out, _ = experiment_run
    reports = tmp_path / "r.csv"
    report = DetectionReport("u1", "fan", 30, 20, ())
    save_reports([report], "OC", "sensorwise", reports)
    eval_out = tmp_path / "eval"
    assert cli_main(["evaluate", "--reports", str(reports), "--out", str(eval_out)]) == 0
    for name in ("evaluation_units.csv", "evaluation_summary.csv"):
        assert header(out / name) == header(eval_out / name)


def test_silhouette_counts_only_finite_scores(experiment_run):
    out, runs = experiment_run
    realisations = TINY["training"]["realisations"]
    assert len(runs) == len(experiment.MODEL_KINDS) * realisations
    with open(out / "silhouette_vs_k.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    saw_partial = False
    for kind in experiment.MODEL_KINDS:
        per_model = [run.silhouette for run in runs if run.kind == kind]
        assert None not in per_model
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


def test_segmentation_settings_reach_the_tables(experiment_run, tmp_path):
    default_out, _ = experiment_run
    blob = {**TINY, "segmentation": {"k_max": 5, "timeline_checkpoints": [1, 2]}}
    cfg = tmp_path / "k_max.yaml"
    cfg.write_text(json.dumps(blob))
    out = tmp_path / "out"
    assert load_script().main(["--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
    with open(out / "trigger_timeline.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert {row["triggered_at"] for row in rows} <= {"1", "2", "No"}
    with open(out / "silhouette_vs_k.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(default_out / "silhouette_vs_k.csv", newline="") as fh:
        default_rows = list(csv.DictReader(fh))
    # the same curves, cut at k_max
    assert [(row["model"], row["k"]) for row in rows] == [
        (kind, str(k)) for kind in experiment.MODEL_KINDS for k in range(6)
    ]
    assert rows == [row for row in default_rows if int(row["k"]) <= 5]

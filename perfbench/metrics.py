"""Every metric the benchmark reports: name, unit, better direction, and
for per-layer metrics the end-to-end metric they should move and the
workloads where they do most of the work or should not move at all.

Workloads, gated end-to-end metrics and per-layer metrics (name, unit,
better, bound) are read from BENCHMARK.json. This module adds what that
file has no keys for: the quality metrics every run prints but no gate
uses, and the layer -> end-to-end -> workload table that later
performance changes cite.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

WORKLOAD_WHY = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
WORKLOADS = tuple(WORKLOAD_WHY)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    kind: str  # "end_to_end", "reported", "per_layer"
    bound: float | None = None  # end_to_end only: allowed worsening, share of median
    layer: str = ""
    moves: tuple[str, ...] = ()  # end-to-end metrics a change here should move
    most: tuple[str, ...] = ()  # workloads where the layer does most of its work
    none: tuple[str, ...] = ()  # workloads where the prediction is no change
    doc: str = ""


E2E_DOC = {
    "setup_s": "median over the run's repeated set-ups: a CLI start-up probe, plus for "
    "monitor `resfault synth` and `train --model oc/ae`",
    "wall_ref_s": "median over executions of wall_s scaled to the reference machine speed: "
    "wall_s x REFERENCE_CALIBRATION_S / the mean of the calibrations before and after it",
    "peak_rss_mb": "median over executions of the largest child's peak RSS (os.wait4 rusage)",
}

END_TO_END = [
    Metric(m["name"], m["unit"], m["better"], "end_to_end", bound=m["bound"],
           doc=E2E_DOC[m["name"]])
    for m in BENCHMARK["end_to_end"]
]

# Printed by every run, not gated: the raw timings, which follow the speed of
# a shared machine, and quality figures, deterministic for a seed, some 0.
REPORTED = [
    Metric("wall_s", "s", "lower", "reported",
           doc="median wall time of one full workload execution, as measured"),
    Metric("calibration_s", "s", "lower", "reported",
           doc="median time of calibrate.py's fixed work, run before and after each "
           "execution: the machine's speed during the run"),
    Metric("failed_ops_ratio", "ratio", "lower", "reported",
           doc="failed commands and correctness checks / attempted"),
    *[
        Metric(f"delay_{model}_{hi}_cycles", "cycles", "lower", "reported",
               doc=f"mean detection delay, {model.upper()} {hi}")
        for model in ("oc", "ae") for hi in ("sensorwise", "aggregated")
    ],
    Metric("fpr_max_percent", "%", "lower", "reported",
           doc="largest false-positive rate over the groups"),
    Metric("silhouette_oc_k10", "score", "higher", "reported",
           doc="OC silhouette 10 cycles after alarm"),
    Metric("silhouette_ae_k10", "score", "higher", "reported",
           doc="AE silhouette 10 cycles after alarm"),
]

# Which reported metrics each workload produces; the others are omitted.
REPORTED_BY_WORKLOAD = {
    "protocol": [m.name for m in REPORTED],
    "monitor": [m.name for m in REPORTED],
    "ingest": ["wall_s", "calibration_s", "failed_ops_ratio"],
}

_WALL = ("wall_ref_s", "wall_s")

# layer, end-to-end metrics it should move, workloads where it does most of
# its work, workloads where the prediction is no change, {metric: doc}.
LAYER_TABLE = [
    ("nn", _WALL, ("protocol",), ("monitor", "ingest"), {
        "nn.train_s": "inclusive time in nn.train",
        "nn.steps": "Adam steps (nn.adam_step calls)",
        "nn.epochs_run": "epochs run, summed over trainings",
        "nn.train_rows_per_s": "training rows x epochs / nn.train_s",
        "nn.forward_s": "inclusive time in nn.forward",
        "nn.backward_s": "inclusive time in nn.backward",
        "nn.adam_step_s": "inclusive time in nn.adam_step",
        "nn.forward_passes_per_step":
            "forward passes inside nn.train per step: loss forward plus the one in backward",
        "nn.early_stop_waste_ratio": "epochs after the best / epochs run",
    }),
    ("models", _WALL, ("protocol",), ("ingest",), {
        "models.residual_s": "time in models.residual_ae/residual_oc",
        "models.residual_calls_per_unit":
            "experiment.unit_residuals calls per (model, unit, realisation)",
    }),
    ("persist", (*_WALL, "peak_rss_mb", "setup_s"), ("monitor", "ingest"), ("protocol",), {
        "persist.load_csv_s": "time in persist.load_csv",
        "persist.load_csv_calls": "persist.load_csv calls",
        "persist.load_csv_mb_per_s": "fleet CSV bytes read / load time",
        "persist.save_csv_s": "time in persist.save_csv",
        "persist.save_csv_mb_per_s": "fleet CSV bytes written / save time",
        "persist.checkpoint_load_s": "time in persist.load_checkpoint",
        "persist.checkpoint_save_s": "time in persist.save_checkpoint",
    }),
    ("preprocess", _WALL, ("monitor",), ("ingest",), {
        "preprocess.fleet_s": "time in preprocess.downsample/cruise_filter",
        "preprocess.rows_kept_ratio":
            "rows out / rows in of experiment.preprocess_fleet; fixed by the paper's config",
    }),
    ("data_model", _WALL, ("protocol",), ("ingest",), {
        "data_model.split_s": "time in experiment.prepare_fleet",
    }),
    ("synth", _WALL, ("ingest",), ("monitor",), {
        "synth.gen_fleet_s": "time in synth.gen_fleet",
        "synth.rows": "rows generated; fixed by the config",
    }),
    ("health/detector", _WALL, ("protocol",), ("ingest",), {
        "health.hi_s": "time in health.aggregated_hi/sensorwise_hi",
        "detector.fit_stats_s": "time in detector.fit_stats",
        "detector.cycle_average_s": "time in detector.cycle_average",
        "detector.scan_s": "time in detector.detect, the n_wait alarm scan",
        "detector.units_scanned": "detector.build_report calls",
    }),
    ("segmentation", _WALL, ("protocol", "monitor"), ("ingest",), {
        "segmentation.silhouette_curve_s": "time in segmentation.silhouette_curve",
        "segmentation.silhouette_calls": "segmentation.silhouette calls",
        "segmentation.pca_s": "time in segmentation.pca_2d",
        "segmentation.nan_points":
            "nan scores in the silhouette outputs (ROADMAP item 4; kept visible)",
        "segmentation.runtime_warnings":
            "RuntimeWarnings raised during the run (ROADMAP item 4; kept visible)",
    }),
    ("experiment", _WALL, ("protocol",), ("ingest",), {
        "experiment.realisation_s_p50": "median experiment.run_realisation time",
        "experiment.realisation_s_p90": "p90 experiment.run_realisation time",
        "experiment.self_s": "self time of experiment functions",
    }),
    ("cli", _WALL, ("monitor", "ingest"), ("protocol",), {
        "cli.startup_s": "median `python -m resfault --version` wall time: interpreter plus "
        "imports",
        "cli.detect_s": "time in cli.cmd_detect",
        "cli.segment_s": "time in cli.cmd_segment",
        "cli.evaluate_s": "time in cli.cmd_evaluate",
        "cli.synth_s": "time in cli.cmd_synth",
    }),
    ("trace", (), WORKLOADS, (), {
        "trace.overhead_s": "mean traced wall time minus untraced wall time of one execution",
    }),
]

_LAYER_OF = {
    name: {"layer": layer, "moves": moves, "most": most, "none": none, "doc": doc}
    for layer, moves, most, none, docs in LAYER_TABLE
    for name, doc in docs.items()
}

PER_LAYER = [
    Metric(m["name"], m["unit"], m["better"], "per_layer", **_LAYER_OF[m["name"]])
    for m in BENCHMARK["per_layer"]
]

ALL_METRICS = END_TO_END + REPORTED + PER_LAYER
BY_NAME = {m.name: m for m in ALL_METRICS}


def value(name: str, v: float) -> dict:
    """One metric entry of the result line."""
    return {"value": v, "unit": BY_NAME[name].unit}

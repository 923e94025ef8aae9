#!/usr/bin/env python3
"""Full comparison experiment: repeated training runs, averaged metrics.

Generates a seeded synthetic fleet, runs the multi-realisation protocol
(re-split validation, retrain, re-detect for both models and both
indicator kinds), and writes the averaged detection-delay table, false
positive rates, silhouette-versus-offset curves, and per-unit trigger
timelines under --out.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from resfault import cli, experiment, parallel
from resfault.health import SENSORWISE
from resfault.models import OC_KIND
from resfault.persist import format_float as fmt
from resfault.persist import write_evaluations, write_manifest, write_table
from resfault.segmentation import trigger_timeline
from resfault.synth import gen_units, unit_plan


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    cli.add_common_options(parser)
    parser.add_argument("--out", required=True, help="output directory")
    return parser.parse_args(argv)


def prepared_fleet(cfg) -> tuple[list, dict]:
    """The preprocessed fleet and its ground truth by unit id.

    Each raw unit is preprocessed before the next one is generated, so the
    raw fleet is never held whole.
    """
    units, truths = [], {}
    for series, truth in gen_units(cfg, unit_plan(cfg)):
        truths[truth.unit_id] = truth
        units += experiment.preprocess_fleet([series], cfg, truths)
        del series  # else it holds this raw unit while the generator makes the next
    return units, truths


def write_silhouette_table(out: Path, result, seg) -> None:
    k_range = range(0, seg.k_max + 1)
    rows = []
    for kind in experiment.MODEL_KINDS:
        per_k = {k: [] for k in k_range}
        for run in result.runs:
            # no curve: fewer than two families alarmed, so no score at any k
            if run.kind != kind or run.silhouette is None:
                continue
            for point in run.silhouette:
                per_k[point.k].append(point.score)
        for k in k_range:
            finite = [score for score in per_k[k] if np.isfinite(score)]
            mean = float(np.mean(finite)) if finite else float("nan")
            rows.append([kind, k, fmt(mean), len(finite)])
    write_table(out / "silhouette_vs_k.csv", ["model", "k", "mean_score", "n_realisations"], rows)


def write_trigger_timelines(out: Path, result, seg) -> None:
    rows = []
    for run in [run for run in result.runs if run.kind == OC_KIND]:
        detection = run.detections[SENSORWISE]
        ids, posts, _ = experiment.alarm_views(detection)
        for unit_id, post in zip(ids, posts):
            timeline = trigger_timeline(post, detection.stats, seg.timeline_checkpoints)
            rows.extend([run.realisation, unit_id, *item] for item in timeline.items())
    header = ["realisation", "unit", "channel", "triggered_at"]
    write_table(out / "trigger_timeline.csv", header, rows)


def training_outcomes(result) -> dict[str, str]:
    """One manifest entry per (realisation, kind): how its training ended."""
    outcomes = {}
    for run in result.runs:
        train = run.train_result
        outcomes[f"training {run.realisation} {run.kind}"] = (
            f"epochs_run {train.epochs_run}, best_epoch {train.best_epoch}, "
            f"best_val_loss {fmt(train.val_losses[train.best_epoch])}"
        )
    return outcomes


def main(argv=None) -> int:
    args = parse_args(argv)
    cfg = cli.effective_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    units, truths = prepared_fleet(cfg)
    print(f"generated {len(units)} units; running {cfg.training.realisations} realisations")

    # one worker per usable CPU, up to one per job; `taskset -c 0` runs serially
    workers = parallel.worker_count(cfg.training.realisations * len(experiment.MODEL_KINDS))
    result = experiment.run_protocol(units, truths, cfg, workers)
    evaluations = [result.evaluations[key] for key in sorted(result.evaluations)]
    write_evaluations(out, evaluations)

    write_silhouette_table(out, result, cfg.segmentation)
    write_trigger_timelines(out, result, cfg.segmentation)
    write_manifest(
        out / "experiment_manifest.txt",
        "run_experiment",
        cfg,
        {
            "seed": cfg.seed,
            "units": len(units),
            "out": out,
            "workers": workers,
            **training_outcomes(result),
        },
    )
    return 0


if __name__ == "__main__":
    sys.exit(cli.exit_code(main))

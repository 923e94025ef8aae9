#!/usr/bin/env python3
"""Full comparison experiment: repeated training runs, averaged metrics.

Generates a seeded synthetic fleet, runs the multi-realisation protocol
(re-split validation, retrain, re-detect for both models and both
indicator kinds), and writes the averaged detection-delay table, false
positive rates, silhouette-versus-offset curves, and per-unit trigger
timelines under --out.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from resfault import experiment, parallel
from resfault.config import load_config
from resfault.errors import DataError, ResfaultError
from resfault.health import SENSORWISE
from resfault.models import OC_KIND
from resfault.persist import format_float as fmt
from resfault.persist import write_evaluations, write_manifest, write_table
from resfault.segmentation import silhouette_curve, trigger_timeline
from resfault.synth import gen_fleet


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", help="YAML config overriding defaults")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", required=True, help="output directory")
    return parser.parse_args(argv)


def write_silhouette_table(out: Path, result, truths, seg) -> None:
    k_range = range(0, seg.k_max + 1)
    rows = []
    for kind in experiment.MODEL_KINDS:
        per_k = {k: [] for k in k_range}
        for realisation in result.realisations:
            det = realisation.detections[(kind, SENSORWISE)]
            alarms = [(r.unit_id, r.alarm_cycle) for r in det.reports]
            avgs = [det.cycle_averages[r.unit_id] for r in det.reports]
            labels = [truths[r.unit_id].family for r in det.reports]
            curve = silhouette_curve(
                alarms, avgs, labels, k_range=k_range, normalize=seg.normalization
            )
            for point in curve:
                per_k[point.k].append(point.score)
        for k in k_range:
            finite = [score for score in per_k[k] if np.isfinite(score)]
            mean = float(np.mean(finite)) if finite else float("nan")
            rows.append([kind, k, fmt(mean), len(finite)])
    write_table(out / "silhouette_vs_k.csv", ["model", "k", "mean_score", "n_realisations"], rows)


def write_trigger_timelines(out: Path, result, seg) -> None:
    rows = []
    for realisation in result.realisations:
        det = realisation.detections[(OC_KIND, SENSORWISE)]
        for report in det.reports:
            if not report.detected:
                continue
            timeline = trigger_timeline(
                report.unit_id,
                report.alarm_cycle,
                det.stats,
                det.cycle_averages[report.unit_id],
                checkpoints=seg.timeline_checkpoints,
            )
            for channel, category in timeline.items():
                rows.append([realisation.realisation, report.unit_id, channel, category])
    header = ["realisation", "unit", "channel", "triggered_at"]
    write_table(out / "trigger_timeline.csv", header, rows)


def training_outcomes(result) -> dict[str, str]:
    """One manifest entry per (realisation, kind): how its training ended."""
    outcomes = {}
    for realisation in result.realisations:
        for kind, train in realisation.train_results.items():
            outcomes[f"training {realisation.realisation} {kind}"] = (
                f"epochs_run {train.epochs_run}, best_epoch {train.best_epoch}, "
                f"best_val_loss {fmt(train.val_losses[train.best_epoch])}"
            )
    return outcomes


def main(argv=None) -> int:
    args = parse_args(argv)
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    fleet = gen_fleet(cfg)
    units = [s for s, _ in fleet]
    truths = {t.unit_id: t for _, t in fleet}
    print(f"generated {len(units)} units; running {cfg.training.realisations} realisations")

    # one worker per usable CPU, up to one per job; `taskset -c 0` runs serially
    workers = parallel.worker_count(cfg.training.realisations * len(experiment.MODEL_KINDS))
    result = experiment.run_protocol(units, truths, cfg, workers)
    evaluations = [result.evaluations[key] for key in sorted(result.evaluations)]
    write_evaluations(out, evaluations)

    write_silhouette_table(out, result, truths, cfg.segmentation)
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
    try:
        sys.exit(main())
    except ResfaultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(DataError.exit_code)

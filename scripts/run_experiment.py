#!/usr/bin/env python3
"""Full comparison experiment: repeated training runs, averaged metrics.

Generates a seeded synthetic fleet, runs the multi-realisation protocol
(re-split validation, retrain, re-detect for both models and both
indicator kinds), and writes the averaged detection-delay table, false
positive rates, silhouette-versus-offset curves, and per-unit trigger
timelines under --out.
"""

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from resfault import experiment
from resfault.cli import write_evaluations, write_manifest
from resfault.config import load_config
from resfault.errors import ResfaultError
from resfault.health import SENSORWISE
from resfault.persist import format_float as fmt
from resfault.segmentation import silhouette_curve, trigger_timeline
from resfault.synth import gen_fleet


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", help="YAML config overriding defaults")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--k-max", type=int, default=None,
        help="override the silhouette-curve offset range (default: config value)",
    )
    return parser.parse_args(argv)


def write_silhouette_table(out: Path, result, truths, k_range) -> None:
    rows = []
    for kind in experiment.MODEL_KINDS:
        per_k = {k: [] for k in k_range}
        for realisation in result.realisations:
            det = realisation.detections[(kind, SENSORWISE)]
            avgs = [det.cycle_averages[r.unit_id] for r in det.reports]
            labels = [truths[r.unit_id].family for r in det.reports]
            for point in silhouette_curve(det.reports, avgs, labels, k_range=k_range):
                per_k[point.k].append(point.score)
        for k in k_range:
            finite = [score for score in per_k[k] if np.isfinite(score)]
            mean = float(np.mean(finite)) if finite else float("nan")
            rows.append((kind, k, mean, len(finite)))
    with (out / "silhouette_vs_k.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "k", "mean_score", "n_realisations"])
        for kind, k, score, n in rows:
            writer.writerow([kind, k, fmt(score), n])


def write_trigger_timelines(out: Path, result) -> None:
    with (out / "trigger_timeline.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["realisation", "unit", "channel", "triggered_at"])
        for realisation in result.realisations:
            det = realisation.detections[("OC", SENSORWISE)]
            for report in det.reports:
                if not report.detected:
                    continue
                timeline = trigger_timeline(
                    report, det.stats, det.cycle_averages[report.unit_id]
                )
                for channel, category in timeline.items():
                    writer.writerow(
                        [realisation.realisation, report.unit_id, channel, category]
                    )


def main(argv=None) -> int:
    args = parse_args(argv)
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed).validate()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    fleet = gen_fleet(experiment.synth_config_from_run(cfg))
    units = [s for s, _ in fleet]
    truths = {t.unit_id: t for _, t in fleet}
    print(f"generated {len(units)} units; running {cfg.training.realisations} realisations")

    result = experiment.run_protocol(units, truths, cfg)
    evaluations = [result.evaluations[key] for key in sorted(result.evaluations)]
    write_evaluations(out, evaluations)

    k_max = args.k_max if args.k_max is not None else cfg.segmentation.k_max
    write_silhouette_table(out, result, truths, range(0, k_max + 1))
    write_trigger_timelines(out, result)
    write_manifest(
        out / "experiment_manifest.txt",
        "run_experiment",
        cfg,
        {"seed": cfg.seed, "units": len(units), "out": out},
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ResfaultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)

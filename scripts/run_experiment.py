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

# resfault before numpy: importing it pins numpy's BLAS to one thread
from resfault import cli, experiment, parallel, persist

import numpy as np

from resfault.models import OC_KIND
from resfault.persist import format_float as fmt
from resfault.persist import write_table
from resfault.synth import gen_units, unit_plan


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    cli.add_common_options(parser)
    parser.add_argument("--out", required=True, help="output directory")
    return parser.parse_args(argv)


def prepared_slice(cfg, plan: list) -> tuple[list, list]:
    """The preprocessed units of ``plan``, a slice of unit_plan(cfg), and their ground truth.

    Each raw unit is preprocessed before the next one is generated, so the
    raw fleet is never held whole.
    """
    units, truths = [], []
    for series, truth in gen_units(cfg, plan):
        truths.append(truth)
        units += experiment.preprocess_fleet([series], cfg, {truth.unit_id: truth})
        del series  # else it holds this raw unit while the generator makes the next
    return units, truths


def prepared_fleet(cfg, workers: int) -> tuple[list, dict]:
    """The preprocessed fleet and its ground truth by unit id, in unit_plan order.

    Up to ``workers`` jobs each run prepared_slice on one contiguous slice
    of the plan, so no process holds more than one raw unit at a time.
    """
    plan = unit_plan(cfg)
    workers = min(workers, len(plan))
    parts = parallel.run_jobs(
        prepared_slice, (cfg,), [(part,) for part in parallel.slices(plan, workers)], workers
    )
    units = [unit for part_units, _ in parts for unit in part_units]
    truths = {truth.unit_id: truth for _, part_truths in parts for truth in part_truths}
    return units, truths


def write_silhouette_table(path: Path, result, seg) -> None:
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
    write_table(path, ["model", "k", "mean_score", "n_realisations"], rows)


def write_trigger_timelines(path: Path, result) -> None:
    rows = [
        [run.realisation, unit_id, *item]
        for run in result.runs
        if run.kind == OC_KIND
        for unit_id, timeline in run.timelines.items()
        for item in timeline.items()
    ]
    header = ["realisation", "unit", "channel", "triggered_at"]
    write_table(path, header, rows)


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
    # one worker per usable CPU, up to one per job; `taskset -c 0` runs serially
    workers = parallel.worker_count(cfg.training.realisations * len(experiment.MODEL_KINDS))
    units, truths = prepared_fleet(cfg, workers)
    # after unit_plan's check, so a refused run makes none; before any training
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(f"generated {len(units)} units; running {cfg.training.realisations} realisations")

    result = experiment.run_protocol(units, truths, cfg, workers)
    evaluations = [result.evaluations[key] for key in sorted(result.evaluations)]
    silhouette, timeline = out / "silhouette_vs_k.csv", out / "trigger_timeline.csv"
    tables = (*persist.evaluation_paths(out), silhouette, timeline)
    with persist.outputs(out / "experiment_manifest.txt", "run_experiment", cfg, *tables) as extras:
        persist.write_evaluations(out, evaluations)
        write_silhouette_table(silhouette, result, cfg.segmentation)
        write_trigger_timelines(timeline, result)
        extras.update(seed=cfg.seed, units=len(units), out=out, workers=workers)
        extras.update(training_outcomes(result))
    return 0


if __name__ == "__main__":
    sys.exit(cli.exit_code(main))

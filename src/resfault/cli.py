"""Command-line interface: synth, train, detect, evaluate, segment.

Every command takes --config (YAML overrides of the built-in defaults)
and writes a run manifest next to its outputs recording the effective
configuration and seeds. Exit codes: 0 success, 2 configuration error,
3 data error (also a file that cannot be read or written), 4 computation
error (also running out of memory).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import __version__, detector, experiment, parallel, persist, segmentation, synth
from .config import RunConfig, load_config
from .errors import ComputeError, ConfigInvalid, CorruptCheckpoint, DataError
from .errors import InsufficientData, ResfaultError
from .health import AGGREGATED, SENSORWISE
from .models import AE_KIND
from .persist import format_float as fmt
from .preprocess import apply_standardizer

FLEET_FILE = "fleet.csv"
TRUTH_FILE = "ground_truth.csv"


def add_common_options(parser: argparse.ArgumentParser) -> None:
    """The --config and --seed options of every command and of the experiment script."""
    parser.add_argument("--config", help="YAML config file overriding defaults")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")


def effective_config(args) -> RunConfig:
    """The --config file's settings, with --seed in place of its seed when given."""
    cfg = load_config(getattr(args, "config", None))
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _prepared_units(data_dir: str, cfg: RunConfig):
    """The preprocessed fleet of ``data_dir`` and its ground truth, None when absent."""
    root = Path(data_dir)
    fleet_path = root / FLEET_FILE
    if not fleet_path.exists():
        raise DataError(f"no {FLEET_FILE} in {root}")
    units = persist.load_csv(fleet_path)
    truth_path = root / TRUTH_FILE
    truths = persist.load_ground_truth(truth_path) if truth_path.exists() else None
    return experiment.preprocess_fleet(units, cfg, truths), truths


def cmd_synth(args) -> int:
    cfg = effective_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workers = parallel.worker_count(len(synth.unit_plan(cfg)))
    truths = synth.save_fleet(cfg, out / FLEET_FILE, workers)
    persist.save_ground_truth(truths, out / TRUTH_FILE)
    persist.write_manifest(
        out / "synth_manifest.txt",
        "synth",
        cfg,
        {"seed": cfg.seed, "units": len(truths), "out": out, "workers": workers},
    )
    print(f"wrote {len(truths)} units to {out / FLEET_FILE}")
    return 0


def cmd_train(args) -> int:
    if args.realisation < 0:
        raise ConfigInvalid(f"--realisation must be >= 0, got {args.realisation}")
    cfg = effective_config(args)
    kind = args.model.upper()
    units, _ = _prepared_units(args.data, cfg)
    split_seed, train_seed = experiment.realisation_seeds(cfg.seed, args.realisation)
    model, result, _, stats = experiment.fit_model(units, cfg, kind, split_seed, train_seed)

    metadata = {
        "master_seed": cfg.seed,
        "realisation": args.realisation,
        "split_seed": split_seed,
        "train_seed": train_seed,
        "epochs_run": result.epochs_run,
        "best_epoch": result.best_epoch,
        "final_train_loss": result.train_losses[-1],
        "final_val_loss": result.val_losses[-1],
        "best_val_loss": result.val_losses[result.best_epoch],
        "healthy_stats": {hi: persist.stats_to_blob(st) for hi, st in stats.items()},
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    persist.save_checkpoint(model, out, metadata)

    persist.write_table(
        out.with_name(out.stem + "_log.csv"),
        ["epoch", "train_loss", "val_loss"],
        (
            [i, fmt(tr), fmt(va)]
            for i, (tr, va) in enumerate(zip(result.train_losses, result.val_losses))
        ),
    )

    persist.write_manifest(
        out.with_name(out.stem + "_manifest.txt"),
        f"train {args.model}",
        cfg,
        {
            "seed": cfg.seed,
            "realisation": args.realisation,
            "split_seed": split_seed,
            "train_seed": train_seed,
            "data": args.data,
            "checkpoint": out,
            "best_epoch": result.best_epoch,
            "best_val_loss": result.val_losses[result.best_epoch],
        },
    )
    print(
        f"trained {kind}: {result.epochs_run} epochs, "
        f"best val loss {result.val_losses[result.best_epoch]:.6g} -> {out}"
    )
    return 0


def _checkpoint_stats(model, metadata: dict, hi_kind: str):
    """The checkpoint's healthy statistics for ``hi_kind``, sized for ``model``."""
    by_kind = metadata.get("healthy_stats", {})
    if not isinstance(by_kind, dict):
        raise CorruptCheckpoint("checkpoint healthy_stats must be a JSON object")
    blob = by_kind.get(hi_kind)
    if blob is None:
        raise CorruptCheckpoint(
            f"checkpoint carries no healthy statistics for {hi_kind!r} indicators"
        )
    stats = persist.stats_from_blob(blob)
    width = 1 if hi_kind == AGGREGATED else model.net.layer_dims[-1]
    if stats.n_channels != width:
        raise CorruptCheckpoint(
            f"checkpoint has {stats.n_channels} {hi_kind} statistics channels, "
            f"the {model.kind} model needs {width}"
        )
    return stats


def cmd_detect(args) -> int:
    cfg = effective_config(args)
    model, metadata = persist.load_checkpoint(args.checkpoint)
    stats = _checkpoint_stats(model, metadata, args.hi)
    units, truths = _prepared_units(args.data, cfg)
    residuals = experiment.fleet_residuals(model, units)
    detection = experiment.detect_with_stats(units, args.hi, stats, cfg, truths, residuals)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    persist.save_reports(detection.reports, model.kind, args.hi, out)
    persist.save_stats(stats, out.with_name(out.stem + "_stats.csv"))
    if args.dump_hi:
        persist.save_cycle_hi_csv(
            detection.cycle_averages, stats.channel_names, out.with_name(out.stem + "_hi.csv")
        )
    persist.write_manifest(
        out.with_name(out.stem + "_manifest.txt"),
        f"detect {args.hi}",
        cfg,
        {"checkpoint": args.checkpoint, "data": args.data, "out": out},
    )
    n_alarms = sum(1 for r in detection.reports if r.detected)
    print(f"detected alarms on {n_alarms}/{len(detection.reports)} units -> {out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = effective_config(args)
    grouped: dict[tuple[str, str], list[list]] = {}
    for path in args.reports:
        for key, reports in persist.load_reports(path).items():
            grouped.setdefault(key, []).append(reports)
    evaluations = [
        experiment.evaluate_group(model_kind, hi_kind, sets)
        for (model_kind, hi_kind), sets in sorted(grouped.items())
    ]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    persist.write_evaluations(out, evaluations)
    persist.write_manifest(
        out / "evaluate_manifest.txt",
        "evaluate",
        cfg,
        {"reports": ", ".join(str(p) for p in args.reports), "out": out},
    )
    return 0


def cmd_segment(args) -> int:
    cfg = effective_config(args)
    offset = cfg.segmentation.snapshot_offset
    model, metadata = persist.load_checkpoint(args.checkpoint)
    stats = _checkpoint_stats(model, metadata, SENSORWISE)
    units, _ = _prepared_units(args.data, cfg)

    groups = persist.load_reports(args.reports)
    matching = {k: v for k, v in groups.items() if k[0] == model.kind}
    if not matching:
        raise DataError(
            f"report file {args.reports} has no rows for model kind {model.kind}"
        )
    key = (model.kind, SENSORWISE) if (model.kind, SENSORWISE) in matching else min(matching)
    # the report file's alarmed units in fleet order, each labelled by its
    # report or else by the unit's (ground-truth) dataset tag; `signed`
    # holds the positions of those with a signature row
    alarmed = {r.unit_id: r for r in matching[key] if r.detected}
    ghosts = alarmed.keys() - {unit.unit_id for unit in units}
    if ghosts:
        raise DataError(f"report file {args.reports}: unit {min(ghosts)!r} is not in the fleet")
    ids, labels, posts, signed, signatures, embeddings = [], [], [], [], [], []
    for unit in units:
        report = alarmed.get(unit.unit_id)
        if report is None:
            continue
        hi = experiment.unit_hi(experiment.unit_residuals(model, unit), SENSORWISE)
        avg = detector.cycle_average(hi, unit.cycle_of)
        if report.alarm_cycle not in avg.cycle_ids:
            raise DataError(
                f"report file {args.reports}: unit {unit.unit_id!r} has no cycle "
                f"{report.alarm_cycle}, its alarm cycle"
            )
        ids.append(unit.unit_id)
        labels.append(report.dataset_id or unit.dataset_id)
        posts.append(avg.since(report.alarm_cycle))
        if offset >= len(posts[-1]):
            continue
        signed.append(len(posts) - 1)
        signatures.append(segmentation.snapshot(posts[-1], offset))
        if model.kind == AE_KIND:
            emb = model.embed(apply_standardizer(model.standardizer, unit.z))
            embeddings.append(
                detector.cycle_average(emb, unit.cycle_of).since(report.alarm_cycle)[offset]
            )
    if len(signatures) < 3:
        raise InsufficientData(
            f"segmentation needs >= 3 units with a signature {offset} cycles after "
            f"their alarm, got {len(signatures)}"
        )
    pca = segmentation.pca_2d(np.array(signatures))
    k_range = range(0, cfg.segmentation.k_max + 1)
    curve = segmentation.silhouette_curve(posts, labels, k_range)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = [[ids[i], labels[i], *map(fmt, vector)] for i, vector in zip(signed, signatures)]
    persist.write_table(out / "signatures.csv", ["unit", "label", *stats.channel_names], rows)
    rows = [[ids[i], labels[i], fmt(x), fmt(y)] for i, (x, y) in zip(signed, pca.coords)]
    persist.write_table(out / "pca_coords.csv", ["unit", "label", "pc1", "pc2"], rows)
    rows = [[point.k, fmt(point.score), point.n_units] for point in curve]
    persist.write_table(out / "silhouette_curve.csv", ["k", "score", "n_units"], rows)
    rows = [
        [unit_id, channel, category]
        for unit_id, post in zip(ids, posts)
        for channel, category in segmentation.trigger_timeline(
            post, stats, cfg.segmentation.timeline_checkpoints
        ).items()
    ]
    persist.write_table(out / "trigger_timeline.csv", ["unit", "channel", "triggered_at"], rows)
    if len(embeddings) >= 3:
        coords = segmentation.pca_2d(np.array(embeddings)).coords
        rows = [[ids[i], fmt(x), fmt(y)] for i, (x, y) in zip(signed, coords)]
        persist.write_table(out / "ae_embedding_pca.csv", ["unit", "pc1", "pc2"], rows)

    persist.write_manifest(
        out / "segment_manifest.txt",
        "segment",
        cfg,
        {"checkpoint": args.checkpoint, "reports": args.reports, "out": out},
    )
    # the curve holds k = 0..k_max in order; an offset past k_max has no point
    at_offset = f"{curve[offset].score:.3f}" if offset < len(curve) else "n/a"
    print(f"segmented {len(signatures)} units; silhouette at +{offset}: {at_offset}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resfault",
        description="Residual-based fault detection and segmentation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic fleet with ground truth")
    add_common_options(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a residual model on healthy data")
    add_common_options(p)
    p.add_argument("--data", required=True, help="directory holding fleet.csv")
    p.add_argument("--model", required=True, choices=["ae", "oc"])
    p.add_argument("--realisation", type=int, default=0, help="realisation index")
    p.add_argument("--out", required=True, help="checkpoint output path (JSON)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="run fault detection with a trained model")
    add_common_options(p)
    p.add_argument("--data", required=True, help="directory holding fleet.csv")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--hi", required=True, choices=[AGGREGATED, SENSORWISE])
    p.add_argument("--out", required=True, help="detection report CSV path")
    p.add_argument(
        "--dump-hi", action="store_true",
        help="also write cycle-averaged indicator trajectories (plot data)",
    )
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="aggregate detection reports into metrics")
    add_common_options(p)
    p.add_argument("--reports", nargs="+", required=True, help="report CSVs (one per realisation)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("segment", help="fault segmentation analysis of alarmed units")
    add_common_options(p)
    p.add_argument("--data", required=True, help="directory holding fleet.csv")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--reports", required=True, help="detection report CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_segment)

    return parser


def exit_code(run) -> int:
    """Exit code of ``run()``: a ResfaultError, OSError or MemoryError prints one error line."""
    try:
        return run()
    except ResfaultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DataError.exit_code
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return ComputeError.exit_code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return exit_code(lambda: args.func(args))


if __name__ == "__main__":
    sys.exit(main())

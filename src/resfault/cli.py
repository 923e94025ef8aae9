"""Command-line interface: synth, train, detect, evaluate, segment.

Every command takes --config (YAML overrides of the built-in defaults)
and writes a run manifest next to its outputs recording the effective
configuration and seeds. Exit codes: 0 success, 2 configuration error,
3 data error, 4 computation error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

from . import __version__, experiment, persist
from .config import RunConfig, dump_config, load_config
from .data_model import UnitSeries
from .errors import CorruptCheckpoint, DataError, ResfaultError
from .health import AGGREGATED, SENSORWISE
from .persist import TruthRecord
from .persist import format_float as fmt
from .synth import gen_fleet

FLEET_FILE = "fleet.csv"
TRUTH_FILE = "ground_truth.csv"
NO_DETECTION_MARK = "-"


def _effective_config(args) -> RunConfig:
    cfg = load_config(getattr(args, "config", None))
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed).validate()
    return cfg


def write_manifest(path: Path, command: str, cfg: RunConfig, extras: dict) -> None:
    lines = [
        f"command: {command}",
        f"resfault_version: {__version__}",
    ]
    for key, value in extras.items():
        lines.append(f"{key}: {value}")
    lines.append("config:")
    lines.extend("  " + ln for ln in dump_config(cfg).splitlines())
    path.write_text("\n".join(lines) + "\n")


def _mark_none(value, text=fmt) -> str:
    return NO_DETECTION_MARK if value is None else text(value)


def write_evaluations(out: Path, evaluations) -> None:
    """Write evaluation_units.csv and evaluation_summary.csv under ``out``.

    Also prints one summary line per (model, indicator-kind) group.
    """
    with (out / "evaluation_units.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["model", "hi_kind", "dataset", "unit", "fault_cycle", "n_detected", "avg_delay"]
        )
        for ev in evaluations:
            for u in ev.units:
                writer.writerow(
                    [
                        ev.model_kind,
                        ev.hi_kind,
                        u.dataset_id,
                        u.unit_id,
                        _mark_none(u.n_true, str),
                        u.n_detected,
                        _mark_none(u.mean_delay),
                    ]
                )
    with (out / "evaluation_summary.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["model", "hi_kind", "n_realisations", "n_units", "n_detected_units",
             "mean_delay", "fpr_percent"]
        )
        for ev in evaluations:
            writer.writerow(
                [
                    ev.model_kind,
                    ev.hi_kind,
                    ev.n_realisations,
                    len(ev.units),
                    sum(1 for u in ev.units if u.n_detected > 0),
                    _mark_none(ev.mean_delay),
                    _mark_none(ev.fpr, lambda v: fmt(100.0 * v)),
                ]
            )
    for ev in evaluations:
        delay = _mark_none(ev.mean_delay, "{:.2f}".format)
        fpr = _mark_none(ev.fpr, "{:.1%}".format)
        print(
            f"{ev.model_kind} {ev.hi_kind}: mean delay {delay} cycles, "
            f"FPR {fpr} over {len(ev.units)} units"
        )


def _load_fleet_dir(data_dir: str) -> tuple[list[UnitSeries], dict[str, TruthRecord] | None]:
    root = Path(data_dir)
    fleet_path = root / FLEET_FILE
    if not fleet_path.exists():
        raise DataError(f"no {FLEET_FILE} in {root}")
    units = persist.load_csv(fleet_path)
    truth_path = root / TRUTH_FILE
    truths = persist.load_ground_truth(truth_path) if truth_path.exists() else None
    return units, truths


def _prepared_units(data_dir: str, cfg: RunConfig):
    units, truths = _load_fleet_dir(data_dir)
    units = experiment.label_fleet(experiment.preprocess_fleet(units, cfg), truths)
    return units, truths


def cmd_synth(args) -> int:
    cfg = _effective_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fleet = gen_fleet(experiment.synth_config_from_run(cfg))
    persist.save_csv([series for series, _ in fleet], out / FLEET_FILE)
    persist.save_ground_truth([truth for _, truth in fleet], out / TRUTH_FILE)
    write_manifest(
        out / "synth_manifest.txt",
        "synth",
        cfg,
        {"seed": cfg.seed, "units": len(fleet), "out": out},
    )
    print(f"wrote {len(fleet)} units to {out / FLEET_FILE}")
    return 0


def cmd_train(args) -> int:
    cfg = _effective_config(args)
    kind = args.model.upper()
    units, truths = _prepared_units(args.data, cfg)
    split_seed = experiment.derive_seed(cfg.seed, experiment.SEED_SPLIT, args.realisation)
    train_seed = experiment.derive_seed(cfg.seed, experiment.SEED_TRAIN, args.realisation)
    prepared = experiment.prepare_fleet(units, cfg, split_seed)
    model, result = experiment.train_model(prepared, kind, cfg, train_seed)

    residuals = experiment.fleet_residuals(model, prepared.units)
    healthy_stats = {}
    for hi_kind in experiment.HI_KINDS:
        stats = experiment.fit_fleet_stats(prepared, model, hi_kind, cfg, residuals)
        names = experiment.hi_channel_names(model, units[0], hi_kind)
        healthy_stats[hi_kind] = persist.stats_to_blob(stats, names)

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
        "healthy_stats": healthy_stats,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    persist.save_checkpoint(model, out, metadata)

    log_path = out.with_name(out.stem + "_log.csv")
    with log_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for i, (tr, va) in enumerate(zip(result.train_losses, result.val_losses)):
            writer.writerow([i, fmt(tr), fmt(va)])

    write_manifest(
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


def _checkpoint_stats(metadata: dict, hi_kind: str):
    blob = metadata.get("healthy_stats", {}).get(hi_kind)
    if blob is None:
        raise CorruptCheckpoint(
            f"checkpoint carries no healthy statistics for {hi_kind!r} indicators"
        )
    return persist.stats_from_blob(blob)


def cmd_detect(args) -> int:
    cfg = _effective_config(args)
    model, metadata = persist.load_checkpoint(args.checkpoint)
    stats, channel_names = _checkpoint_stats(metadata, args.hi)
    units, truths = _prepared_units(args.data, cfg)
    residuals = experiment.fleet_residuals(model, units)
    detection = experiment.detect_with_stats(
        units, model, args.hi, stats, cfg, truths, residuals
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    persist.save_reports(detection.reports, model.kind, args.hi, out)
    persist.save_stats(stats, channel_names, out.with_name(out.stem + "_stats.csv"))
    if args.dump_hi:
        persist.save_cycle_hi_csv(
            detection.cycle_averages, out.with_name(out.stem + "_hi.csv")
        )
    write_manifest(
        out.with_name(out.stem + "_manifest.txt"),
        f"detect {args.hi}",
        cfg,
        {"checkpoint": args.checkpoint, "data": args.data, "out": out},
    )
    n_alarms = sum(1 for r in detection.reports if r.detected)
    print(f"detected alarms on {n_alarms}/{len(detection.reports)} units -> {out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _effective_config(args)
    grouped: dict[tuple[str, str], list[list]] = {}
    for path in args.reports:
        for key, reports in persist.load_reports(path).items():
            grouped.setdefault(key, []).append(reports)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    evaluations = [
        experiment.evaluate_group(model_kind, hi_kind, sets)
        for (model_kind, hi_kind), sets in sorted(grouped.items())
    ]

    write_evaluations(out, evaluations)
    write_manifest(
        out / "evaluate_manifest.txt",
        "evaluate",
        cfg,
        {"reports": ", ".join(str(p) for p in args.reports), "out": out},
    )
    return 0


def cmd_segment(args) -> int:
    cfg = _effective_config(args)
    model, metadata = persist.load_checkpoint(args.checkpoint)
    stats, _ = _checkpoint_stats(metadata, SENSORWISE)
    units, truths = _prepared_units(args.data, cfg)

    groups = persist.load_reports(args.reports)
    matching = {k: v for k, v in groups.items() if k[0] == model.kind}
    if not matching:
        raise DataError(
            f"report file {args.reports} has no rows for model kind {model.kind}"
        )
    key = (model.kind, SENSORWISE) if (model.kind, SENSORWISE) in matching else next(
        iter(sorted(matching))
    )
    report_map = {}
    for r in matching[key]:
        label = r.dataset_id
        if not label and truths and r.unit_id in truths:
            label = truths[r.unit_id].family
        report_map[r.unit_id] = (r.alarm_cycle, label)

    bundle = experiment.build_segmentation(units, model, stats, report_map, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    with (out / "signatures.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "label"] + list(bundle.channel_names))
        for sig in bundle.signatures:
            writer.writerow([sig.unit_id, sig.fault_label] + [fmt(v) for v in sig.vector])

    with (out / "pca_coords.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "label", "pc1", "pc2"])
        for sig, xy in zip(bundle.signatures, bundle.pca.coords):
            writer.writerow([sig.unit_id, sig.fault_label, fmt(xy[0]), fmt(xy[1])])

    with (out / "silhouette_curve.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "score", "n_units"])
        for point in bundle.curve:
            writer.writerow([point.k, fmt(point.score), point.n_units])

    with (out / "trigger_timeline.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "channel", "triggered_at"])
        for unit_id, timeline in bundle.timelines.items():
            for channel, category in timeline.items():
                writer.writerow([unit_id, channel, category])

    if bundle.embedding_pca is not None:
        with (out / "ae_embedding_pca.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["unit", "pc1", "pc2"])
            for unit_id, xy in zip(bundle.embedding_unit_ids, bundle.embedding_pca.coords):
                writer.writerow([unit_id, fmt(xy[0]), fmt(xy[1])])

    write_manifest(
        out / "segment_manifest.txt",
        "segment",
        cfg,
        {"checkpoint": args.checkpoint, "reports": args.reports, "out": out},
    )
    print(
        f"segmented {len(bundle.signatures)} units; "
        f"silhouette at +{cfg.segmentation.snapshot_offset}: "
        f"{_curve_at(bundle.curve, cfg.segmentation.snapshot_offset)}"
    )
    return 0


def _curve_at(curve, k: int) -> str:
    for point in curve:
        if point.k == k:
            return f"{point.score:.3f}"
    return "n/a"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resfault",
        description="Residual-based fault detection and segmentation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML config file overriding defaults")
        p.add_argument("--seed", type=int, default=None, help="master seed override")

    p = sub.add_parser("synth", help="generate a synthetic fleet with ground truth")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a residual model on healthy data")
    common(p)
    p.add_argument("--data", required=True, help="directory holding fleet.csv")
    p.add_argument("--model", required=True, choices=["ae", "oc"])
    p.add_argument("--realisation", type=int, default=0, help="realisation index")
    p.add_argument("--out", required=True, help="checkpoint output path (JSON)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="run fault detection with a trained model")
    common(p)
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
    common(p)
    p.add_argument("--reports", nargs="+", required=True, help="report CSVs (one per realisation)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("segment", help="fault segmentation analysis of alarmed units")
    common(p)
    p.add_argument("--data", required=True, help="directory holding fleet.csv")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--reports", required=True, help="detection report CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_segment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResfaultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())

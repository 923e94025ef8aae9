"""Per-layer metrics from the span dump written by trace_child.py."""

from __future__ import annotations

import statistics
from collections import defaultdict

# Counts that must repeat exactly across two traced runs of one seed.
EXACT_COUNTS = (
    "nn.steps",
    "persist.load_csv_calls",
    "models.residual_calls_per_unit",
    "detector.units_scanned",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); 0 when there are no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(trace: dict, residual_pairs: int) -> dict[str, float]:
    """Layer metrics of one traced execution.

    ``residual_pairs`` is the number of (model, unit, realisation) triples
    the execution should compute residuals for; it is the base of
    ``models.residual_calls_per_unit``.
    """
    total: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    edge_count: dict[tuple[str, str], int] = defaultdict(int)
    for parent, name, n, tot, own in trace["edges"]:
        total[name] += tot
        count[name] += n
        self_s[name] += own
        edge_count[(parent, name)] += n
    probes = defaultdict(list, trace["probes"])

    def t(*names):
        return sum(total[n] for n in names)

    def probe_sum(name, key):
        return sum(p[key] for p in probes[name])

    trains = probes["nn.train"]
    epochs = sum(p["epochs_run"] for p in trains)
    steps = count["nn.adam_step"]
    realisations = [end - start for _, _, name, start, end in trace["spans"]
                    if name == "experiment.run_realisation"]
    return {
        "nn.train_s": t("nn.train"),
        "nn.steps": steps,
        "nn.epochs_run": epochs,
        "nn.train_rows_per_s": _ratio(
            sum(p["rows"] * p["epochs_run"] for p in trains), t("nn.train")
        ),
        "nn.forward_s": t("nn.forward"),
        "nn.backward_s": t("nn.backward"),
        "nn.adam_step_s": t("nn.adam_step"),
        "nn.forward_passes_per_step": _ratio(
            edge_count[("nn.train", "nn.forward")]
            + edge_count[("nn.backward", "nn.forward_activations")],
            steps,
        ),
        "nn.early_stop_waste_ratio": _ratio(
            sum(p["epochs_run"] - p["best_epoch"] - 1 for p in trains), epochs
        ),
        "models.residual_s": t("models.residual_ae", "models.residual_oc"),
        "models.residual_calls_per_unit": _ratio(
            count["experiment.unit_residuals"], residual_pairs
        ),
        "persist.load_csv_s": t("persist.load_csv"),
        "persist.load_csv_calls": count["persist.load_csv"],
        "persist.load_csv_mb_per_s": _ratio(
            probe_sum("persist.load_csv", "bytes") / 1e6, t("persist.load_csv")
        ),
        "persist.save_csv_s": t("persist.save_csv"),
        "persist.save_csv_mb_per_s": _ratio(
            probe_sum("persist.save_csv", "bytes") / 1e6, t("persist.save_csv")
        ),
        "persist.checkpoint_load_s": t("persist.load_checkpoint"),
        "persist.checkpoint_save_s": t("persist.save_checkpoint"),
        "preprocess.fleet_s": t("preprocess.downsample", "preprocess.cruise_filter"),
        "preprocess.rows_kept_ratio": _ratio(
            probe_sum("experiment.preprocess_fleet", "rows_out"),
            probe_sum("experiment.preprocess_fleet", "rows_in"),
        ),
        "data_model.split_s": t("experiment.prepare_fleet"),
        "synth.gen_fleet_s": t("synth.gen_fleet"),
        "synth.rows": probe_sum("synth.gen_fleet", "rows"),
        "health.hi_s": t("health.aggregated_hi", "health.sensorwise_hi"),
        "detector.fit_stats_s": t("detector.fit_stats"),
        "detector.cycle_average_s": t("detector.cycle_average"),
        "detector.scan_s": t("detector.detect"),
        "detector.units_scanned": count["detector.build_report"],
        "segmentation.silhouette_curve_s": t("segmentation.silhouette_curve"),
        "segmentation.silhouette_calls": count["segmentation.silhouette"],
        "segmentation.pca_s": t("segmentation.pca_2d"),
        "segmentation.runtime_warnings": trace["warnings"].get("RuntimeWarning", 0),
        "experiment.realisation_s_p50": _p(realisations, 50),
        "experiment.realisation_s_p90": _p(realisations, 90),
        "experiment.self_s": sum(v for n, v in self_s.items() if n.startswith("experiment.")),
        "cli.detect_s": t("cli.cmd_detect"),
        "cli.segment_s": t("cli.cmd_segment"),
        "cli.evaluate_s": t("cli.cmd_evaluate"),
        "cli.synth_s": t("cli.cmd_synth"),
    }

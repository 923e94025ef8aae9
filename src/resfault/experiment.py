"""End-to-end pipeline plumbing shared by the CLI and experiment scripts.

Wires together preprocessing, splitting, standardization, model training,
health-indicator construction, detection, and the multi-realisation
averaging protocol.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import detector, health, models, nn, segmentation
from .config import CRUISE_FIRST, RunConfig, STATS_ON_TRAIN_VALIDATION
from .data_model import FleetSplit, SplitSpec, UnitSeries, split, stack_rows
from .detector import CycleAverages, DetectionReport, HealthyStats
from .errors import CycleOutOfRange, EmptyFleet
from .health import AGGREGATED, SENSORWISE, HiSeries
from .models import AE_KIND, OC_KIND, AeModel, OcModel
from .persist import TruthRecord
from .preprocess import (
    Standardizer,
    apply_standardizer,
    cruise_filter,
    downsample,
    fit_standardizer,
)
from .synth import DEFAULT_FAMILIES, SynthConfig

HI_KINDS = (AGGREGATED, SENSORWISE)
MODEL_KINDS = (AE_KIND, OC_KIND)


def derive_seed(master_seed: int, *keys: int) -> int:
    """Stable child seed for a labeled purpose (realisation index etc.)."""
    seq = np.random.SeedSequence([master_seed, *keys])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


# purpose tags for derive_seed
SEED_SPLIT = 1
SEED_TRAIN = 2


def synth_config_from_run(cfg: RunConfig) -> SynthConfig:
    s = cfg.synth
    return SynthConfig(
        n_units=s.n_units,
        families=DEFAULT_FAMILIES[: s.n_families],
        cycles_per_unit=s.cycles_per_unit,
        rows_per_cycle=s.rows_per_cycle,
        fault_start_cycle=(s.fault_start_lo, s.fault_start_hi),
        severity_scale=s.severity_scale,
        severity_exponent=s.severity_exponent,
        noise_std=s.noise_std,
        healthy_cycles_per_unit=cfg.split.healthy_cycles,
        seed=cfg.seed,
        map_seed=s.map_seed,
        unit_prefix=s.unit_prefix,
    )


def preprocess_fleet(units: list[UnitSeries], cfg: RunConfig) -> list[UnitSeries]:
    """Run the split-independent row-selection steps on every unit.

    Default order is downsample then cruise-filter; the alternative order
    is available behind ``preprocess.order`` for sensitivity studies.
    """
    out = []
    for unit in units:
        if cfg.preprocess.order == CRUISE_FIRST:
            unit = cruise_filter(unit, cfg.preprocess.cruise_threshold)
            unit = downsample(unit, cfg.preprocess.downsample_factor)
        else:
            unit = downsample(unit, cfg.preprocess.downsample_factor)
            unit = cruise_filter(unit, cfg.preprocess.cruise_threshold)
        out.append(unit)
    return out


def label_fleet(
    units: list[UnitSeries], truths: dict[str, TruthRecord] | None
) -> list[UnitSeries]:
    """Stamp each unit's dataset tag from its ground-truth family, if known."""
    if not truths:
        return units
    out = []
    for unit in units:
        truth = truths.get(unit.unit_id)
        if truth is not None and truth.family and unit.dataset_id != truth.family:
            unit = dataclasses.replace(unit, dataset_id=truth.family)
        out.append(unit)
    return out


@dataclass(frozen=True)
class PreparedFleet:
    """Preprocessed units plus the split and standardizer of one realisation."""

    units: list[UnitSeries]
    fleet_split: FleetSplit
    standardizer: Standardizer


def prepare_fleet(
    preprocessed: list[UnitSeries], cfg: RunConfig, split_seed: int
) -> PreparedFleet:
    """Split healthy rows and fit the standardizer on the training rows."""
    spec = SplitSpec(
        healthy_cycles_per_unit=cfg.split.healthy_cycles,
        validation_fraction=cfg.split.validation_fraction,
        seed=split_seed,
    )
    fleet_split = split(preprocessed, spec)
    z_train = stack_rows(preprocessed, fleet_split.train, channels="z")
    return PreparedFleet(
        units=preprocessed,
        fleet_split=fleet_split,
        standardizer=fit_standardizer(z_train),
    )


def train_model(
    prepared: PreparedFleet, kind: str, cfg: RunConfig, train_seed: int
) -> tuple[AeModel | OcModel, nn.TrainResult]:
    """Train one residual model on the standardized healthy split."""
    std = prepared.standardizer
    z_train = apply_standardizer(std, stack_rows(prepared.units, prepared.fleet_split.train))
    z_val = apply_standardizer(std, stack_rows(prepared.units, prepared.fleet_split.validation))
    n_w = prepared.units[0].n_w
    train_cfg = nn.TrainConfig(
        epochs=cfg.training.epochs,
        batch_size=cfg.training.batch_size,
        patience=cfg.training.patience,
        seed=train_seed,
        lr=cfg.training.learning_rate,
        beta1=cfg.training.beta1,
        beta2=cfg.training.beta2,
    )
    if kind == AE_KIND:
        return models.train_ae(z_train, z_val, train_cfg, std, n_w)
    if kind == OC_KIND:
        return models.train_oc(
            (z_train[:, :n_w], z_train[:, n_w:]),
            (z_val[:, :n_w], z_val[:, n_w:]),
            train_cfg,
            std,
        )
    raise ValueError(f"unknown model kind {kind!r}")


def unit_residuals(model: AeModel | OcModel, unit: UnitSeries) -> np.ndarray:
    """Residual matrix over a unit's full (standardized) series."""
    z = apply_standardizer(model.standardizer, unit.z())
    if model.kind == AE_KIND:
        return models.residual_ae(model, z)
    return models.residual_oc(model, z[:, : model.n_w], z[:, model.n_w :])


def fleet_residuals(
    model: AeModel | OcModel, units: list[UnitSeries]
) -> dict[str, np.ndarray]:
    """Residual matrix of every unit, keyed by unit id.

    Both indicator kinds, the healthy statistics and the detection scan
    all derive from this one pass.
    """
    return {unit.unit_id: unit_residuals(model, unit) for unit in units}


def hi_channel_names(
    model: AeModel | OcModel, unit: UnitSeries, hi_kind: str
) -> tuple[str, ...]:
    """Channel names of a unit's indicator: one per residual column, or the aggregate.

    Autoencoder residuals cover every channel; regressor residuals cover
    the sensors only.
    """
    if hi_kind == AGGREGATED:
        return (AGGREGATED,)
    return unit.channel_names if model.kind == AE_KIND else unit.x_names


def unit_hi(
    model: AeModel | OcModel, unit: UnitSeries, residuals: np.ndarray, hi_kind: str
) -> HiSeries:
    """Health-indicator series for one unit from its unit_residuals matrix."""
    if hi_kind == AGGREGATED:
        return health.aggregated_hi(residuals, unit.cycle_of, model.kind)
    return health.sensorwise_hi(
        residuals,
        unit.cycle_of,
        model.kind,
        channel_names=hi_channel_names(model, unit, hi_kind),
    )


def fit_fleet_stats(
    prepared: PreparedFleet,
    model: AeModel | OcModel,
    hi_kind: str,
    cfg: RunConfig,
    residuals: dict[str, np.ndarray],
) -> HealthyStats:
    """Fleet-global healthy statistics from the configured healthy rows.

    ``residuals`` is the fleet_residuals of the model over the prepared
    units.
    """
    pooled = []
    for unit in prepared.units:
        rows = prepared.fleet_split.validation[unit.unit_id]
        if cfg.detection.stats_source == STATS_ON_TRAIN_VALIDATION:
            rows = np.sort(
                np.concatenate([rows, prepared.fleet_split.train[unit.unit_id]])
            )
        if len(rows) == 0:
            continue
        hi = unit_hi(model, unit, residuals[unit.unit_id], hi_kind)
        pooled.append(hi.values[rows])
    return detector.fit_stats(np.vstack(pooled))


@dataclass(frozen=True)
class FleetDetection:
    """Detection results for one (model, indicator-kind) pass over a fleet."""

    model_kind: str
    hi_kind: str
    stats: HealthyStats
    reports: list[DetectionReport]
    cycle_averages: dict[str, CycleAverages]


def detect_with_stats(
    units: list[UnitSeries],
    model: AeModel | OcModel,
    hi_kind: str,
    stats: HealthyStats,
    cfg: RunConfig,
    truths: dict[str, TruthRecord] | None,
    residuals: dict[str, np.ndarray],
) -> FleetDetection:
    """Cycle-average every unit and run the alarm scan with given thresholds.

    ``residuals`` is the fleet_residuals of the model over ``units``.
    """
    reports = []
    cycle_averages: dict[str, CycleAverages] = {}
    for unit in units:
        hi = unit_hi(model, unit, residuals[unit.unit_id], hi_kind)
        avg = detector.cycle_average(hi)
        cycle_averages[unit.unit_id] = avg
        truth = truths.get(unit.unit_id) if truths else None
        reports.append(
            detector.build_report(
                unit_id=unit.unit_id,
                dataset_id=unit.dataset_id,
                cycle_hi=avg,
                stats=stats,
                n_wait=cfg.detection.n_wait,
                n_true=truth.fault_cycle if truth else None,
                ground_truth_known=truth is not None,
            )
        )
    return FleetDetection(
        model_kind=model.kind,
        hi_kind=hi_kind,
        stats=stats,
        reports=reports,
        cycle_averages=cycle_averages,
    )


@dataclass(frozen=True)
class UnitEvaluation:
    """Per-unit delay aggregation across realisations."""

    unit_id: str
    dataset_id: str
    n_true: int | None
    ground_truth_known: bool
    n_realisations: int
    n_detected: int
    mean_delay: float | None

    @property
    def is_false_positive(self) -> bool:
        """An alarm on a known-healthy unit, or a mean delay before the fault.

        A unit without ground truth is never a false positive; it does not
        count towards the false-positive rate at all.
        """
        if not self.ground_truth_known:
            return False
        if self.n_true is None:
            return self.n_detected > 0
        return self.mean_delay is not None and self.mean_delay < 0


@dataclass(frozen=True)
class GroupEvaluation:
    """Aggregated metrics for one (model, indicator-kind) group."""

    model_kind: str
    hi_kind: str
    n_realisations: int
    units: list[UnitEvaluation]
    mean_delay: float | None
    fpr: float | None


def evaluate_group(
    model_kind: str, hi_kind: str, report_sets: list[list[DetectionReport]]
) -> GroupEvaluation:
    """Average detection delays over realisations for one group.

    A unit's delay is averaged over the realisations in which it was
    detected; units never detected are excluded from the mean delay. The
    false-positive rate is taken over the units with known ground truth,
    detected or not, and is None when no unit has any.
    """
    if not report_sets or not report_sets[0]:
        raise EmptyFleet("no detection reports to evaluate")
    by_unit: dict[str, list[DetectionReport]] = {}
    unit_order: list[str] = []
    for report_set in report_sets:
        for report in report_set:
            if report.unit_id not in by_unit:
                by_unit[report.unit_id] = []
                unit_order.append(report.unit_id)
            by_unit[report.unit_id].append(report)

    units = []
    for unit_id in unit_order:
        reports = by_unit[unit_id]
        delays = [r.delay for r in reports if r.delay is not None]
        n_detected = sum(1 for r in reports if r.detected)
        units.append(
            UnitEvaluation(
                unit_id=unit_id,
                dataset_id=reports[0].dataset_id,
                n_true=reports[0].n_true,
                ground_truth_known=reports[0].ground_truth_known,
                n_realisations=len(reports),
                n_detected=n_detected,
                mean_delay=float(np.mean(delays)) if delays else None,
            )
        )
    detected_means = [u.mean_delay for u in units if u.mean_delay is not None]
    mean_delay = float(np.mean(detected_means)) if detected_means else None
    known = [u for u in units if u.ground_truth_known]
    fpr = sum(1 for u in known if u.is_false_positive) / len(known) if known else None
    return GroupEvaluation(
        model_kind=model_kind,
        hi_kind=hi_kind,
        n_realisations=len(report_sets),
        units=units,
        mean_delay=mean_delay,
        fpr=fpr,
    )


@dataclass(frozen=True)
class RealisationResult:
    """All four (model, indicator) detection passes of one realisation."""

    realisation: int
    split_seed: int
    train_seed: int
    detections: dict[tuple[str, str], FleetDetection]
    train_results: dict[str, nn.TrainResult]


def run_realisation(
    preprocessed: list[UnitSeries],
    truths: dict[str, TruthRecord] | None,
    cfg: RunConfig,
    realisation: int,
) -> RealisationResult:
    """Re-split, retrain both models, and detect with both indicator kinds.

    Each model computes every unit's residuals once; they are released
    before the next model trains.
    """
    split_seed = derive_seed(cfg.seed, SEED_SPLIT, realisation)
    train_seed = derive_seed(cfg.seed, SEED_TRAIN, realisation)
    prepared = prepare_fleet(preprocessed, cfg, split_seed)
    detections: dict[tuple[str, str], FleetDetection] = {}
    train_results: dict[str, nn.TrainResult] = {}
    for kind in MODEL_KINDS:
        model, result = train_model(prepared, kind, cfg, train_seed)
        train_results[kind] = result
        residuals = fleet_residuals(model, prepared.units)
        for hi_kind in HI_KINDS:
            stats = fit_fleet_stats(prepared, model, hi_kind, cfg, residuals)
            detections[(kind, hi_kind)] = detect_with_stats(
                prepared.units, model, hi_kind, stats, cfg, truths, residuals
            )
        del residuals
    return RealisationResult(
        realisation=realisation,
        split_seed=split_seed,
        train_seed=train_seed,
        detections=detections,
        train_results=train_results,
    )


@dataclass(frozen=True)
class ExperimentResult:
    """Multi-realisation protocol output: per-realisation and averaged."""

    realisations: list[RealisationResult]
    evaluations: dict[tuple[str, str], GroupEvaluation]


def run_protocol(
    units: list[UnitSeries],
    truths: dict[str, TruthRecord] | None,
    cfg: RunConfig,
) -> ExperimentResult:
    """The full repeated-training protocol with averaged evaluation."""
    preprocessed = label_fleet(preprocess_fleet(units, cfg), truths)
    realisations = [
        run_realisation(preprocessed, truths, cfg, r)
        for r in range(cfg.training.realisations)
    ]
    evaluations = {}
    for key in [(m, h) for m in MODEL_KINDS for h in HI_KINDS]:
        report_sets = [r.detections[key].reports for r in realisations]
        evaluations[key] = evaluate_group(key[0], key[1], report_sets)
    return ExperimentResult(realisations=realisations, evaluations=evaluations)


@dataclass(frozen=True)
class SegmentationBundle:
    """Everything the segmentation outputs are rendered from."""

    signatures: list[segmentation.UnitSignature]
    pca: segmentation.PcaResult
    curve: list[segmentation.SilhouettePoint]
    timelines: dict[str, dict[str, int | str]]
    embedding_pca: segmentation.PcaResult | None
    embedding_unit_ids: list[str]
    channel_names: tuple[str, ...]


def build_segmentation(
    units: list[UnitSeries],
    model: AeModel | OcModel,
    stats: HealthyStats,
    reports: dict[str, tuple[int | None, str]],
    cfg: RunConfig,
) -> SegmentationBundle:
    """Sensor-wise segmentation analysis over the units with alarms.

    ``reports`` maps unit id to (alarm cycle or None, fault label) and
    ``stats`` must be the sensor-wise healthy statistics of the model.
    Snapshots, the principal-component projection, the silhouette curve,
    and per-unit trigger timelines all use sensor-wise indicators from
    the given model; for autoencoders the bottleneck embedding is also
    projected for comparison.
    """
    offset = cfg.segmentation.snapshot_offset
    normalize = cfg.segmentation.normalization

    detection_reports: list[DetectionReport] = []
    cycle_avgs: list[CycleAverages] = []
    labels: list[str] = []
    by_id = {unit.unit_id: unit for unit in units}
    for unit in units:
        if unit.unit_id not in reports:
            continue
        alarm_cycle, label = reports[unit.unit_id]
        hi = unit_hi(model, unit, unit_residuals(model, unit), SENSORWISE)
        avg = detector.cycle_average(hi)
        cycle_avgs.append(avg)
        labels.append(label or unit.dataset_id)
        detection_reports.append(
            DetectionReport(
                unit_id=unit.unit_id,
                dataset_id=unit.dataset_id,
                alarm_cycle=alarm_cycle,
                n_true=None,
                delay=None,
                triggered_first=(),
                cycle_ids=avg.cycle_ids,
                exceedance=avg.values > stats.tau,
                ground_truth_known=False,
            )
        )

    signatures = []
    timelines: dict[str, dict[str, int | str]] = {}
    embeddings = []
    embedding_unit_ids = []
    for report, avg, label in zip(detection_reports, cycle_avgs, labels):
        if report.alarm_cycle is None:
            continue
        timelines[report.unit_id] = segmentation.trigger_timeline(
            report, stats, avg, checkpoints=cfg.segmentation.timeline_checkpoints
        )
        try:
            signatures.append(
                segmentation.snapshot(
                    report, avg, k=offset, fault_label=label, normalize=normalize
                )
            )
        except CycleOutOfRange:
            continue
        if isinstance(model, AeModel):
            unit = by_id[report.unit_id]
            emb = model.embed(apply_standardizer(model.standardizer, unit.z()))
            cycle_ids, emb_means = detector.cycle_mean(emb, unit.cycle_of)
            emb_avg = CycleAverages(cycle_ids=cycle_ids, values=emb_means)
            embeddings.append(
                segmentation.snapshot(
                    report,
                    emb_avg,
                    k=offset,
                    fault_label=label,
                    normalize=segmentation.NORMALIZE_NONE,
                ).vector
            )
            embedding_unit_ids.append(report.unit_id)

    pca = segmentation.pca_2d(signatures)
    curve = segmentation.silhouette_curve(
        detection_reports,
        cycle_avgs,
        labels,
        k_range=range(0, cfg.segmentation.k_max + 1),
        normalize=normalize,
    )
    embedding_pca = None
    if embeddings and len(embeddings) >= 3:
        embedding_pca = segmentation.pca_2d(np.array(embeddings))
    return SegmentationBundle(
        signatures=signatures,
        pca=pca,
        curve=curve,
        timelines=timelines,
        embedding_pca=embedding_pca,
        embedding_unit_ids=embedding_unit_ids,
        channel_names=cycle_avgs[0].channel_names,
    )

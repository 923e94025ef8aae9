"""End-to-end pipeline plumbing shared by the CLI and experiment scripts.

Wires together preprocessing, splitting, standardization, model training,
health-indicator construction, detection, and the multi-realisation
averaging protocol.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import detector, health, models, nn, parallel, segmentation
from .config import CRUISE_FIRST, RunConfig, STATS_ON_TRAIN_VALIDATION, derive_seed
from .data_model import FleetSplit, TruthRecord, UnitSeries, split, stack_rows
from .detector import CycleAverages, DetectionReport, HealthyStats
from .errors import CycleOutOfRange, EmptyFleet, InsufficientData
from .health import AGGREGATED, SENSORWISE
from .models import AE_KIND, OC_KIND, ResidualModel
from .preprocess import (
    Standardizer,
    apply_standardizer,
    cruise_filter,
    downsample,
    fit_standardizer,
)

HI_KINDS = (AGGREGATED, SENSORWISE)
MODEL_KINDS = (AE_KIND, OC_KIND)


def realisation_seeds(master_seed: int, realisation: int) -> tuple[int, int]:
    """(split seed, train seed) of one realisation: derive_seed purpose tags 1 and 2."""
    return derive_seed(master_seed, 1, realisation), derive_seed(master_seed, 2, realisation)


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
    fleet_split = split(preprocessed, cfg.split, split_seed)
    z_train = stack_rows(preprocessed, fleet_split.train)
    return PreparedFleet(
        units=preprocessed,
        fleet_split=fleet_split,
        standardizer=fit_standardizer(z_train),
    )


def train_model(
    prepared: PreparedFleet, kind: str, cfg: RunConfig, train_seed: int
) -> tuple[ResidualModel, nn.TrainResult]:
    """Train one residual model on the standardized healthy split."""
    std = prepared.standardizer
    return models.train(
        kind,
        apply_standardizer(std, stack_rows(prepared.units, prepared.fleet_split.train)),
        apply_standardizer(std, stack_rows(prepared.units, prepared.fleet_split.validation)),
        cfg.training,
        train_seed,
        std,
        prepared.units[0].n_w,
    )


def unit_residuals(model: ResidualModel, unit: UnitSeries) -> np.ndarray:
    """Residual matrix over a unit's full (standardized) series."""
    z = apply_standardizer(model.standardizer, unit.z())
    if model.kind == AE_KIND:
        return models.residual_ae(model, z)
    return models.residual_oc(model, *models.io_blocks(model.kind, z, model.n_w))


def fleet_residuals(model: ResidualModel, units: list[UnitSeries]) -> dict[str, np.ndarray]:
    """Residual matrix of every unit, keyed by unit id.

    Both indicator kinds, the healthy statistics and the detection scan
    all derive from this one pass.
    """
    return {unit.unit_id: unit_residuals(model, unit) for unit in units}


def hi_channel_names(model: ResidualModel, unit: UnitSeries, hi_kind: str) -> tuple[str, ...]:
    """Channel names of a unit's indicator: one per residual column, or the aggregate.

    Autoencoder residuals cover every channel; regressor residuals cover
    the sensors only.
    """
    if hi_kind == AGGREGATED:
        return (AGGREGATED,)
    return unit.channel_names if model.kind == AE_KIND else unit.x_names


def unit_hi(residuals: np.ndarray, hi_kind: str) -> np.ndarray:
    """Health-indicator matrix of one unit from its unit_residuals matrix."""
    if hi_kind == AGGREGATED:
        return health.aggregated_hi(residuals)
    return health.sensorwise_hi(residuals)


def fit_fleet_stats(
    prepared: PreparedFleet,
    model: ResidualModel,
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
        pooled.append(unit_hi(residuals[unit.unit_id], hi_kind)[rows])
    names = hi_channel_names(model, prepared.units[0], hi_kind)
    return detector.fit_stats(np.vstack(pooled), names)


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
    model: ResidualModel,
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
        avg = detector.cycle_average(unit_hi(residuals[unit.unit_id], hi_kind), unit.cycle_of)
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
class ModelRun:
    """One (realisation, model kind) job: its training and both detection passes."""

    kind: str
    train_result: nn.TrainResult
    detections: dict[tuple[str, str], FleetDetection]


def run_realisation(
    preprocessed: list[UnitSeries],
    truths: dict[str, TruthRecord] | None,
    cfg: RunConfig,
    realisation: int,
    kind: str,
) -> ModelRun:
    """Re-split, retrain one model kind, and detect with both indicator kinds.

    The model computes every unit's residuals once, for both indicators.
    """
    split_seed, train_seed = realisation_seeds(cfg.seed, realisation)
    prepared = prepare_fleet(preprocessed, cfg, split_seed)
    model, result = train_model(prepared, kind, cfg, train_seed)
    residuals = fleet_residuals(model, prepared.units)
    detections: dict[tuple[str, str], FleetDetection] = {}
    for hi_kind in HI_KINDS:
        stats = fit_fleet_stats(prepared, model, hi_kind, cfg, residuals)
        detections[(kind, hi_kind)] = detect_with_stats(
            prepared.units, model, hi_kind, stats, cfg, truths, residuals
        )
    return ModelRun(kind=kind, train_result=result, detections=detections)


@dataclass(frozen=True)
class RealisationResult:
    """All four (model, indicator) detection passes of one realisation."""

    realisation: int
    split_seed: int
    train_seed: int
    detections: dict[tuple[str, str], FleetDetection]
    train_results: dict[str, nn.TrainResult]


@dataclass(frozen=True)
class ExperimentResult:
    """Multi-realisation protocol output: per-realisation and averaged."""

    realisations: list[RealisationResult]
    evaluations: dict[tuple[str, str], GroupEvaluation]


def run_protocol(
    units: list[UnitSeries],
    truths: dict[str, TruthRecord] | None,
    cfg: RunConfig,
    workers: int,
) -> ExperimentResult:
    """The full repeated-training protocol with averaged evaluation.

    Each (realisation, model kind) pair is one run_realisation job, run on
    ``workers`` processes by parallel.run_jobs. The results are the same
    bytes for any worker count.
    """
    preprocessed = label_fleet(preprocess_fleet(units, cfg), truths)
    jobs = [(r, kind) for r in range(cfg.training.realisations) for kind in MODEL_KINDS]
    runs = parallel.run_jobs(run_realisation, (preprocessed, truths, cfg), jobs, workers)
    realisations = []
    for r in range(cfg.training.realisations):
        mine = runs[r * len(MODEL_KINDS) : (r + 1) * len(MODEL_KINDS)]
        split_seed, train_seed = realisation_seeds(cfg.seed, r)
        realisations.append(
            RealisationResult(
                realisation=r,
                split_seed=split_seed,
                train_seed=train_seed,
                detections={k: d for run in mine for k, d in run.detections.items()},
                train_results={run.kind: run.train_result for run in mine},
            )
        )
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


def build_segmentation(
    units: list[UnitSeries],
    model: ResidualModel,
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
    projected for comparison. Fewer than three units with a signature
    raise InsufficientData.
    """
    offset = cfg.segmentation.snapshot_offset
    normalize = cfg.segmentation.normalization

    alarms: list[tuple[str, int]] = []
    cycle_avgs: list[CycleAverages] = []
    labels: list[str] = []
    signatures = []
    timelines: dict[str, dict[str, int | str]] = {}
    embeddings = []
    embedding_unit_ids = []
    for unit in units:
        alarm_cycle, label = reports.get(unit.unit_id, (None, ""))
        if alarm_cycle is None:
            continue
        label = label or unit.dataset_id
        hi = unit_hi(unit_residuals(model, unit), SENSORWISE)
        avg = detector.cycle_average(hi, unit.cycle_of)
        alarms.append((unit.unit_id, alarm_cycle))
        cycle_avgs.append(avg)
        labels.append(label)
        timelines[unit.unit_id] = segmentation.trigger_timeline(
            unit.unit_id, alarm_cycle, stats, avg, cfg.segmentation.timeline_checkpoints
        )
        try:
            signatures.append(
                segmentation.snapshot(unit.unit_id, alarm_cycle, avg, offset, normalize, label)
            )
        except CycleOutOfRange:
            continue
        if model.kind == AE_KIND:
            emb = model.embed(apply_standardizer(model.standardizer, unit.z()))
            emb_avg = detector.cycle_average(emb, unit.cycle_of)
            embeddings.append(
                segmentation.snapshot(
                    unit.unit_id, alarm_cycle, emb_avg, offset, segmentation.NORMALIZE_NONE
                ).vector
            )
            embedding_unit_ids.append(unit.unit_id)

    if len(signatures) < 3:
        raise InsufficientData(
            f"segmentation needs >= 3 units with a signature {offset} cycles after "
            f"their alarm, got {len(signatures)}"
        )
    pca = segmentation.pca_2d(np.array([s.vector for s in signatures]))
    curve = segmentation.silhouette_curve(
        alarms,
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
    )

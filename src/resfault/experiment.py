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
from .config import RunConfig, derive_seed
from .data_model import FleetSplit, TruthRecord, UnitSeries, split, stack_rows
from .detector import CycleAverages, DetectionReport, HealthyStats
from .errors import DataError, EmptyFleet
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


def preprocess_fleet(
    units: list[UnitSeries], cfg: RunConfig, truths: dict[str, TruthRecord] | None
) -> list[UnitSeries]:
    """Downsample, then cruise-filter, every unit: the split-independent row selection.

    Each unit's dataset tag becomes its ground-truth family, if known.
    """
    out = []
    for unit in units:
        unit = downsample(unit, cfg.preprocess.downsample_factor)
        unit = cruise_filter(unit, cfg.preprocess.cruise_threshold)
        truth = truths.get(unit.unit_id) if truths else None
        if truth is not None and truth.family and unit.dataset_id != truth.family:
            unit = dataclasses.replace(unit, dataset_id=truth.family)
        out.append(unit)
    return out


def prepare_fleet(
    preprocessed: list[UnitSeries], cfg: RunConfig, split_seed: int
) -> tuple[FleetSplit, Standardizer]:
    """Split healthy rows and fit the standardizer on the training rows."""
    fleet_split = split(preprocessed, cfg.split, split_seed)
    return fleet_split, fit_standardizer(stack_rows(preprocessed, fleet_split.train))


def unit_residuals(model: ResidualModel, unit: UnitSeries) -> np.ndarray:
    """Residual matrix over a unit's full (standardized) series."""
    z = apply_standardizer(model.standardizer, unit.z)
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
    units: list[UnitSeries],
    fleet_split: FleetSplit,
    model: ResidualModel,
    hi_kind: str,
    residuals: dict[str, np.ndarray],
) -> HealthyStats:
    """Fleet-global healthy statistics from the pooled validation rows.

    ``residuals`` is the fleet_residuals of the model over ``units``.
    """
    pooled = []
    for unit in units:
        rows = fleet_split.validation[unit.unit_id]
        if len(rows) == 0:
            continue
        pooled.append(unit_hi(residuals[unit.unit_id], hi_kind)[rows])
    names = hi_channel_names(model, units[0], hi_kind)
    return detector.fit_stats(np.vstack(pooled), names)


def fit_model(
    preprocessed: list[UnitSeries], cfg: RunConfig, kind: str, split_seed: int, train_seed: int
) -> tuple[ResidualModel, nn.TrainResult, dict[str, np.ndarray], dict[str, HealthyStats]]:
    """Train one residual model on the healthy split and fit its thresholds.

    Returns the model, its training record, every unit's residuals (one
    pass, keyed by unit id) and the healthy statistics of each indicator
    kind.
    """
    fleet_split, std = prepare_fleet(preprocessed, cfg, split_seed)
    model, result = models.train(
        kind,
        apply_standardizer(std, stack_rows(preprocessed, fleet_split.train)),
        apply_standardizer(std, stack_rows(preprocessed, fleet_split.validation)),
        cfg.training,
        train_seed,
        std,
        preprocessed[0].n_w,
    )
    residuals = fleet_residuals(model, preprocessed)
    stats = {
        hi_kind: fit_fleet_stats(preprocessed, fleet_split, model, hi_kind, residuals)
        for hi_kind in HI_KINDS
    }
    return model, result, residuals, stats


@dataclass(frozen=True)
class FleetDetection:
    """Detection results of one indicator kind's pass over a fleet."""

    stats: HealthyStats
    reports: list[DetectionReport]
    cycle_averages: dict[str, CycleAverages]


def detect_with_stats(
    units: list[UnitSeries],
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
    return FleetDetection(stats=stats, reports=reports, cycle_averages=cycle_averages)


def alarm_views(detection: FleetDetection) -> tuple[list[str], list[np.ndarray], list[str]]:
    """Ids, post-alarm rows and labels of the alarmed units, in report order.

    A unit's post-alarm rows are its cycle averages from its alarm cycle
    on; its label is its report's dataset tag.
    """
    alarmed = [r for r in detection.reports if r.detected]
    return (
        [r.unit_id for r in alarmed],
        [detection.cycle_averages[r.unit_id].since(r.alarm_cycle) for r in alarmed],
        [r.dataset_id for r in alarmed],
    )


@dataclass(frozen=True)
class UnitEvaluation:
    """Per-unit delay aggregation across realisations."""

    unit_id: str
    dataset_id: str
    n_true: int | None
    ground_truth_known: bool
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


# The fields every report of one unit shares, by their report CSV column.
_UNIT_FIELDS = {"dataset": "dataset_id", "fault_cycle": "n_true", "gt_known": "ground_truth_known"}


def evaluate_group(
    model_kind: str, hi_kind: str, report_sets: list[list[DetectionReport]]
) -> GroupEvaluation:
    """Average detection delays over realisations for one group.

    A unit's delay is averaged over the realisations in which it was
    detected; units never detected are excluded from the mean delay. The
    false-positive rate is taken over the units with known ground truth,
    detected or not, and is None when no unit has any. Report sets that
    disagree on a unit's dataset, fault cycle or ground-truth flag are a
    DataError.
    """
    if not report_sets or not report_sets[0]:
        raise EmptyFleet("no detection reports to evaluate")
    by_unit: dict[str, list[DetectionReport]] = {}
    for report_set in report_sets:
        for report in report_set:
            by_unit.setdefault(report.unit_id, []).append(report)

    units = []
    for unit_id, reports in by_unit.items():
        for column, field in _UNIT_FIELDS.items():
            if len({getattr(r, field) for r in reports}) > 1:
                raise DataError(
                    f"the {model_kind} {hi_kind} report sets disagree on the {column} "
                    f"of unit {unit_id!r}"
                )
        delays = [r.delay for r in reports if r.delay is not None]
        units.append(
            UnitEvaluation(
                unit_id=unit_id,
                dataset_id=reports[0].dataset_id,
                n_true=reports[0].n_true,
                ground_truth_known=reports[0].ground_truth_known,
                n_detected=sum(1 for r in reports if r.detected),
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
    """One (realisation, model kind) job: its seeds, training and detections.

    ``detections`` holds one FleetDetection per indicator kind.
    ``silhouette`` is the silhouette_curve of the sensor-wise alarms from 0
    to ``k_max`` cycles after them, or None when fewer than two families alarmed.
    """

    realisation: int
    split_seed: int
    train_seed: int
    kind: str
    train_result: nn.TrainResult
    detections: dict[str, FleetDetection]
    silhouette: list[segmentation.SilhouettePoint] | None


def run_realisation(
    preprocessed: list[UnitSeries],
    truths: dict[str, TruthRecord] | None,
    cfg: RunConfig,
    realisation: int,
    kind: str,
) -> ModelRun:
    """Re-split, retrain one model kind, detect with both indicator kinds, and
    score how well the sensor-wise alarms separate the fault families.

    The model computes every unit's residuals once, for both indicators.
    """
    split_seed, train_seed = realisation_seeds(cfg.seed, realisation)
    model, result, residuals, stats = fit_model(preprocessed, cfg, kind, split_seed, train_seed)
    detections = {
        hi_kind: detect_with_stats(preprocessed, hi_kind, stats[hi_kind], cfg, truths, residuals)
        for hi_kind in HI_KINDS
    }
    _, posts, labels = alarm_views(detections[SENSORWISE])
    curve = None
    if len(set(labels)) >= 2:
        k_range = range(0, cfg.segmentation.k_max + 1)
        curve = segmentation.silhouette_curve(posts, labels, k_range)
    return ModelRun(realisation, split_seed, train_seed, kind, result, detections, curve)


@dataclass(frozen=True)
class ExperimentResult:
    """Multi-realisation protocol output: every job's run, and their averages.

    ``runs`` holds the jobs in (realisation, model kind) order.
    """

    runs: list[ModelRun]
    evaluations: dict[tuple[str, str], GroupEvaluation]


def _multiply_adds(kind: str, n_w: int, n_x: int) -> int:
    """Multiply-adds of one forward pass of one row through a model of ``kind``."""
    dims = models.layer_dims(kind, n_w, n_x)
    return sum(n_in * n_out for n_in, n_out in zip(dims, dims[1:]))


def run_protocol(
    preprocessed: list[UnitSeries],
    truths: dict[str, TruthRecord] | None,
    cfg: RunConfig,
    workers: int,
) -> ExperimentResult:
    """The full repeated-training protocol with averaged evaluation.

    ``preprocessed`` is the preprocess_fleet of the fleet. Each (realisation,
    model kind) pair is one run_realisation job, run on ``workers`` processes
    by parallel.run_jobs. The jobs of the kind with the most multiply-adds
    per row are sent first, so that the pool does not end on one long job
    while the other workers idle. The results are the same bytes for any
    worker count.
    """
    unit = preprocessed[0]
    cost = {kind: _multiply_adds(kind, unit.n_w, unit.n_x) for kind in MODEL_KINDS}
    jobs = [(r, kind) for r in range(cfg.training.realisations) for kind in MODEL_KINDS]
    jobs.sort(key=lambda job: -cost[job[1]])  # stable: ties keep (realisation, kind) order
    runs = parallel.run_jobs(run_realisation, (preprocessed, truths, cfg), jobs, workers)
    runs.sort(key=lambda run: (run.realisation, MODEL_KINDS.index(run.kind)))
    evaluations = {
        (kind, hi_kind): evaluate_group(
            kind, hi_kind, [run.detections[hi_kind].reports for run in runs if run.kind == kind]
        )
        for kind in MODEL_KINDS
        for hi_kind in HI_KINDS
    }
    return ExperimentResult(runs=runs, evaluations=evaluations)

"""Fault-segmentation analysis of sensor-wise health indicators.

Per-unit signatures are cycle-averaged sensor-wise indicators captured a
fixed number of cycles after the alarm, normalized per unit. Signatures
are projected to two principal components for visualization and scored
with the silhouette coefficient against ground-truth fault labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector import CycleAverages, HealthyStats
from .errors import CycleOutOfRange, InsufficientData, NoAlarm, ShapeMismatch, SingleCluster

NORMALIZE_MAX = "max"
NORMALIZE_ZSCORE = "zscore"
NORMALIZE_NONE = "none"
NEVER_TRIGGERED = "No"


@dataclass(frozen=True)
class UnitSignature:
    """Per-unit normalized sensor-wise indicator vector at the snapshot cycle."""

    unit_id: str
    fault_label: str
    vector: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vector", np.asarray(self.vector, dtype=np.float64))
        if self.vector.ndim != 1:
            raise ShapeMismatch("signature vector must be 1-D")


def _normalize_row(row: np.ndarray, mode: str) -> np.ndarray:
    if mode == NORMALIZE_MAX:
        top = row.max()
        return row / top if top > 0 else row.copy()
    if mode == NORMALIZE_ZSCORE:
        sd = row.std()
        return (row - row.mean()) / sd if sd > 0 else row - row.mean()
    if mode == NORMALIZE_NONE:
        return row.copy()
    raise ValueError(f"unknown normalization mode {mode!r}")


def _alarm_position(unit_id: str, alarm_cycle: int | None, cycle_hi: CycleAverages) -> int:
    """Row of the alarm cycle in a unit's cycle averages.

    Raises NoAlarm when the unit never alarmed and CycleOutOfRange when
    its cycle averages do not hold the alarm cycle.
    """
    if alarm_cycle is None:
        raise NoAlarm(f"unit {unit_id!r} has no alarm cycle")
    positions = np.flatnonzero(cycle_hi.cycle_ids == alarm_cycle)
    if len(positions) == 0:
        raise CycleOutOfRange(f"alarm cycle {alarm_cycle} not present for unit {unit_id!r}")
    return int(positions[0])


def snapshot(
    unit_id: str,
    alarm_cycle: int | None,
    cycle_hi: CycleAverages,
    k: int,
    normalize: str,
    fault_label: str = "",
) -> UnitSignature:
    """Signature vector k cycles after the alarm, normalized per unit.

    The offset is counted in positions along the unit's cycle sequence.
    Raises NoAlarm when the unit never alarmed and CycleOutOfRange when
    the series ends before the snapshot cycle.
    """
    idx = _alarm_position(unit_id, alarm_cycle, cycle_hi) + k
    if idx < 0 or idx >= cycle_hi.n_cycles:
        raise CycleOutOfRange(f"unit {unit_id!r} ends before {k} cycles past the alarm")
    return UnitSignature(
        unit_id=unit_id,
        fault_label=fault_label,
        vector=_normalize_row(cycle_hi.values[idx], normalize),
    )


@dataclass(frozen=True)
class PcaResult:
    """Top-2 principal projection of a signature set."""

    coords: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray


def pca_2d(matrix: np.ndarray) -> PcaResult:
    """Project the rows of an n x d matrix onto the top two principal components.

    Components are unit-norm eigenvectors of the mean-centered covariance,
    ordered by descending eigenvalue, with each component's sign fixed so
    its largest-magnitude entry is positive.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ShapeMismatch("expected an n x d signature matrix")
    n, d = matrix.shape
    if n < 3:
        raise InsufficientData(f"need >= 3 signatures for a projection, got {n}")
    centered = matrix - matrix.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:2]
    components = []
    for col in order:
        vec = eigvecs[:, col]
        pivot = np.argmax(np.abs(vec))
        if vec[pivot] < 0:
            vec = -vec
        components.append(vec)
    components = np.array(components)
    return PcaResult(
        coords=centered @ components.T,
        components=components,
        explained_variance=eigvals[order],
    )


def silhouette(points: np.ndarray | list, labels: list | np.ndarray) -> float:
    """Mean silhouette score over all samples with Euclidean distances.

    Scores lie in [-1, 1]; samples in singleton clusters score 0.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    labels = np.asarray(labels)
    if pts.shape[0] != len(labels):
        raise ShapeMismatch("one label per point required")
    unique = np.unique(labels)
    if len(unique) < 2:
        raise SingleCluster(f"need >= 2 clusters, got {len(unique)}")
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    scores = np.zeros(len(labels))
    for i in range(len(labels)):
        own = labels == labels[i]
        own_size = int(own.sum())
        if own_size == 1:
            continue
        a = dist[i, own].sum() / (own_size - 1)
        b = min(dist[i, labels == other].mean() for other in unique if other != labels[i])
        top = max(a, b)
        scores[i] = (b - a) / top if top > 0 else 0.0
    return float(scores.mean())


@dataclass(frozen=True)
class SilhouettePoint:
    """Silhouette score at one post-alarm offset."""

    k: int
    score: float
    n_units: int


def silhouette_curve(
    alarms: list[tuple[str, int | None]],
    cycle_his: list[CycleAverages],
    fault_labels: list[str],
    k_range: range | list[int],
    normalize: str,
) -> list[SilhouettePoint]:
    """Silhouette of snapshot signatures versus cycles after detection.

    ``alarms`` holds one (unit id, alarm cycle or None) pair per unit.
    Units with no alarm are skipped entirely; units whose series end
    before a given offset are dropped at that offset. A score of NaN is
    recorded where fewer than two fault families survive the attrition.
    """
    alarmed = [
        (alarm, hi, lab)
        for alarm, hi, lab in zip(alarms, cycle_his, fault_labels)
        if alarm[1] is not None
    ]
    if len({lab for _, _, lab in alarmed}) < 2:
        raise SingleCluster("need alarms from >= 2 fault families")
    curve = []
    for k in k_range:
        sigs = []
        for (unit_id, alarm_cycle), hi, label in alarmed:
            try:
                sigs.append(snapshot(unit_id, alarm_cycle, hi, k, normalize, label))
            except CycleOutOfRange:
                continue
        labels = [s.fault_label for s in sigs]
        if len(set(labels)) < 2:
            curve.append(SilhouettePoint(k=k, score=float("nan"), n_units=len(sigs)))
            continue
        score = silhouette(np.array([s.vector for s in sigs]), labels)
        curve.append(SilhouettePoint(k=k, score=score, n_units=len(sigs)))
    return curve


def trigger_timeline(
    unit_id: str,
    alarm_cycle: int | None,
    stats: HealthyStats,
    cycle_hi: CycleAverages,
    checkpoints: tuple[int, ...],
) -> dict[str, int | str]:
    """Earliest post-alarm checkpoint at which each channel exceeds its threshold.

    Exceedance is checked instantaneously at each checkpoint cycle (no
    waiting window). Channels that never exceed by the last reachable
    checkpoint are labeled "No".
    """
    base = _alarm_position(unit_id, alarm_cycle, cycle_hi)
    if cycle_hi.n_channels != stats.n_channels:
        raise ShapeMismatch("cycle matrix and stats channel counts differ")
    timeline: dict[str, int | str] = dict.fromkeys(stats.channel_names, NEVER_TRIGGERED)
    for c in sorted(checkpoints):
        idx = base + c
        if idx >= cycle_hi.n_cycles:
            break
        exceeding = cycle_hi.values[idx] > stats.tau
        for name, hit in zip(stats.channel_names, exceeding):
            if hit and timeline[name] == NEVER_TRIGGERED:
                timeline[name] = c
    return timeline

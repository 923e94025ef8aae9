"""Fault-segmentation analysis of sensor-wise health indicators.

Each alarmed unit is read through its ``post`` rows: its cycle-averaged
sensor-wise indicators from the alarm cycle on (``CycleAverages.since``),
so row ``k`` is ``k`` cycles after the alarm. A signature is the row at a
fixed offset divided by its maximum; a unit whose series ends before an
offset has no row there. Signatures are projected to two principal
components for visualization and scored with the silhouette coefficient
against ground-truth fault labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector import HealthyStats
from .errors import InsufficientData, ShapeMismatch, SingleCluster

NEVER_TRIGGERED = "No"


def snapshot(post: np.ndarray, k: int) -> np.ndarray:
    """The signature ``k`` cycles after the alarm: row ``k`` of ``post`` over its maximum.

    A row with no positive entry is returned as a copy, unscaled. The caller
    checks ``k < len(post)``.
    """
    row = post[k]
    top = row.max()
    return row / top if top > 0 else row.copy()


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
    posts: list[np.ndarray],
    fault_labels: list[str],
    k_range: range | list[int],
) -> list[SilhouettePoint]:
    """Silhouette of snapshot signatures versus cycles after detection.

    ``posts`` holds one alarmed unit's post-alarm rows each. A unit whose
    series ends before an offset is dropped at that offset. A score of NaN
    is recorded where fewer than two fault families survive the attrition.
    """
    if len(set(fault_labels)) < 2:
        raise SingleCluster("need alarms from >= 2 fault families")
    curve = []
    for k in k_range:
        kept = [(post, lab) for post, lab in zip(posts, fault_labels) if k < len(post)]
        labels = [lab for _, lab in kept]
        if len(set(labels)) < 2:
            curve.append(SilhouettePoint(k=k, score=float("nan"), n_units=len(kept)))
            continue
        score = silhouette(np.array([snapshot(post, k) for post, _ in kept]), labels)
        curve.append(SilhouettePoint(k=k, score=score, n_units=len(kept)))
    return curve


def trigger_timeline(
    post: np.ndarray, stats: HealthyStats, checkpoints: tuple[int, ...]
) -> dict[str, int | str]:
    """Earliest post-alarm checkpoint at which each channel exceeds its threshold.

    Exceedance is checked instantaneously at each checkpoint cycle (no
    waiting window). Channels that never exceed by the last reachable
    checkpoint are labeled "No".
    """
    if post.shape[1] != stats.n_channels:
        raise ShapeMismatch("cycle matrix and stats channel counts differ")
    timeline: dict[str, int | str] = dict.fromkeys(stats.channel_names, NEVER_TRIGGERED)
    for c in sorted(checkpoints):
        if c >= len(post):
            break
        for name, hit in zip(stats.channel_names, post[c] > stats.tau):
            if hit and timeline[name] == NEVER_TRIGGERED:
                timeline[name] = c
    return timeline

"""Downsampling, cruise-phase filtering, and per-channel standardization.

Pipeline order is fixed: downsample first, then keep only cruise rows,
then fit the standardizer on training rows and apply it everywhere else.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data_model import UnitSeries, cycles
from .errors import InsufficientData, NonPositiveAltitude, ShapeMismatch

logger = logging.getLogger(__name__)

DEFAULT_CRUISE_THRESHOLD = 0.85
DEFAULT_DOWNSAMPLE_FACTOR = 10
STD_EPSILON = 1e-8


@dataclass(frozen=True)
class Standardizer:
    """Per-channel shift/scale fitted on training rows.

    ``std`` entries may be zero for constant channels; the applied divisor
    is ``max(std, epsilon)`` so application never divides by zero.
    """

    mean: np.ndarray
    std: np.ndarray
    epsilon: float = STD_EPSILON

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ShapeMismatch("mean and std must be 1-D vectors of equal length")
        if np.any(self.std < 0):
            raise ValueError("std must be non-negative")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    @property
    def n_channels(self) -> int:
        return len(self.mean)


def column_stats(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and population (1/N) standard deviation of a matrix.

    An exactly constant column gets exactly its value as mean and 0 as
    standard deviation, immune to summation rounding in the mean.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D matrix of rows, got shape {rows.shape}")
    if rows.shape[0] < 2:
        raise InsufficientData(f"need >= 2 rows to fit, got {rows.shape[0]}")
    constant = rows.min(axis=0) == rows.max(axis=0)
    mean = np.where(constant, rows[0], rows.mean(axis=0))
    std = np.where(constant, 0.0, rows.std(axis=0))
    return mean, std


def fit_standardizer(train_rows: np.ndarray, epsilon: float = STD_EPSILON) -> Standardizer:
    """Per-column mean and population (1/N) standard deviation (column_stats)."""
    mean, std = column_stats(train_rows)
    return Standardizer(mean=mean, std=std, epsilon=epsilon)


def apply_standardizer(std: Standardizer, rows: np.ndarray) -> np.ndarray:
    """(rows - mean) / max(std, epsilon), column-wise."""
    rows = np.asarray(rows, dtype=np.float64)
    single = rows.ndim == 1
    if single:
        rows = rows[None, :]
    if rows.shape[1] != std.n_channels:
        raise ShapeMismatch(
            f"standardizer fitted on {std.n_channels} channels, data has {rows.shape[1]}"
        )
    out = (rows - std.mean) / np.maximum(std.std, std.epsilon)
    return out[0] if single else out


def downsample(series: UnitSeries, factor: int) -> UnitSeries:
    """Keep rows 0, factor, 2*factor, ... of every cycle.

    The stride restarts at each cycle boundary so no cycle loses its first
    row; factor 1 is the identity.
    """
    if factor < 1:
        raise ValueError("downsample factor must be >= 1")
    if factor == 1:
        return series
    keep = np.concatenate(
        [np.arange(v.start, v.stop, factor, dtype=np.int64) for v in cycles(series)]
    )
    return series.take_rows(keep)


def cruise_filter(
    series: UnitSeries,
    threshold: float = DEFAULT_CRUISE_THRESHOLD,
    altitude_channel: int = 0,
) -> UnitSeries:
    """Keep the rows of each cycle whose normalized altitude exceeds the threshold.

    Altitude is normalized per cycle by that cycle's maximum, so the
    comparison is altitude / max_altitude > threshold. Cycles whose rows
    are all filtered away are dropped and reported via a warning.
    """
    alt = series.w[:, altitude_channel]
    keep_blocks = []
    dropped = []
    for view in cycles(series):
        cyc_alt = alt[view.start : view.stop]
        top = cyc_alt.max()
        if top <= 0:
            raise NonPositiveAltitude(
                f"unit {series.unit_id!r} cycle {view.cycle_index}: "
                f"max altitude {top} is not positive"
            )
        mask = cyc_alt / top > threshold
        if not mask.any():
            dropped.append(view.cycle_index)
            continue
        keep_blocks.append(np.flatnonzero(mask) + view.start)
    if dropped:
        logger.warning(
            "unit %s: dropped %d cycle(s) with no cruise rows: %s",
            series.unit_id,
            len(dropped),
            dropped,
        )
    keep = np.concatenate(keep_blocks) if keep_blocks else np.array([], dtype=np.int64)
    return series.take_rows(keep)

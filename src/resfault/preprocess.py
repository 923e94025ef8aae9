"""Downsampling, cruise-phase filtering, and per-channel standardization.

Each unit is downsampled, then cruise-filtered; the standardizer is then
fitted on training rows and applied everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import UnitSeries, cycle_bounds
from .errors import ComputeError, DataError

STD_EPSILON = 1e-8
# column of ``UnitSeries.w`` that holds the altitude
ALTITUDE_CHANNEL = 0


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
            raise ComputeError("mean and std must be 1-D vectors of equal length")
        if np.any(self.std < 0):
            raise ValueError("std must be non-negative")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    @property
    def n_channels(self) -> int:
        return len(self.mean)


def column_stats(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and population (1/N) standard deviation of a 2-D matrix.

    An exactly constant column gets exactly its value as mean and 0 as
    standard deviation, immune to summation rounding in the mean.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[0] < 2:
        raise DataError(f"need >= 2 rows to fit, got {rows.shape[0]}")
    constant = rows.min(axis=0) == rows.max(axis=0)
    mean = np.where(constant, rows[0], rows.mean(axis=0))
    std = np.where(constant, 0.0, rows.std(axis=0))
    return mean, std


def fit_standardizer(train_rows: np.ndarray) -> Standardizer:
    """Per-column mean and population (1/N) standard deviation (column_stats)."""
    mean, std = column_stats(train_rows)
    return Standardizer(mean=mean, std=std)


def apply_standardizer(std: Standardizer, rows: np.ndarray) -> np.ndarray:
    """(rows - mean) / max(std, epsilon), column-wise, over a 2-D batch of rows."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != std.n_channels:
        raise ComputeError(
            f"standardizer fitted on {std.n_channels} channels, data has shape {rows.shape}"
        )
    return (rows - std.mean) / np.maximum(std.std, std.epsilon)


def downsample(series: UnitSeries, factor: int) -> UnitSeries:
    """Keep rows 0, factor, 2*factor, ... of every cycle.

    The stride restarts at each cycle boundary so no cycle loses its first
    row; factor 1 is the identity. The caller passes ``factor >= 1``.
    """
    if factor == 1:
        return series
    starts, stops = cycle_bounds(series.cycle_of)
    keep = np.concatenate(
        [np.arange(a, b, factor, dtype=np.int64) for a, b in zip(starts, stops)]
    )
    return series.take_rows(keep)


def cruise_filter(series: UnitSeries, threshold: float) -> UnitSeries:
    """Keep the rows of each cycle whose normalized altitude exceeds the threshold.

    Altitude is normalized per cycle by that cycle's maximum, so the
    comparison is altitude / max_altitude > threshold. The maximum's own
    row has ratio exactly 1, so under a threshold below 1 (as every
    ``preprocess.cruise_threshold`` is) every cycle keeps a row.
    """
    alt = series.w[:, ALTITUDE_CHANNEL]
    keep_blocks = []
    for start, stop in zip(*cycle_bounds(series.cycle_of)):
        cyc_alt = alt[start:stop]
        top = cyc_alt.max()
        if top <= 0:
            raise DataError(
                f"unit {series.unit_id!r} cycle {series.cycle_of[start]}: "
                f"max altitude {top} is not positive"
            )
        keep_blocks.append(np.flatnonzero(cyc_alt / top > threshold) + start)
    return series.take_rows(np.concatenate(keep_blocks))

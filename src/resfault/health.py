"""Health indicators derived from residual matrices.

The aggregated indicator collapses each residual row to its Euclidean
norm; the sensor-wise indicator keeps per-channel absolute residuals so
faults can be localized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch

AGGREGATED = "aggregated"
SENSORWISE = "sensorwise"


@dataclass(frozen=True)
class HiSeries:
    """A health-indicator time series aligned with its source cycles.

    ``values`` is T x 1 for aggregated indicators and T x K for
    sensor-wise ones; all entries are non-negative.
    """

    values: np.ndarray
    kind: str
    cycle_of: np.ndarray
    channel_names: tuple[str, ...] | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        cyc = np.asarray(self.cycle_of, dtype=np.int64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "cycle_of", cyc)
        if values.ndim != 2:
            raise ShapeMismatch("values must be a T x K matrix")
        if cyc.shape != (values.shape[0],):
            raise ShapeMismatch("cycle_of must have one entry per row")
        if self.kind not in (AGGREGATED, SENSORWISE):
            raise ValueError(f"unknown kind {self.kind!r}")
        if (values.shape[1] == 1) != (self.kind == AGGREGATED):
            raise ShapeMismatch("width 1 if and only if the indicator is aggregated")
        if np.any(values < 0):
            raise ValueError("health indicator values must be non-negative")
        if self.channel_names is not None:
            object.__setattr__(self, "channel_names", tuple(self.channel_names))
            if len(self.channel_names) != values.shape[1]:
                raise ShapeMismatch("one channel name per column required")

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


def aggregated_hi(residuals: np.ndarray, cycle_of: np.ndarray) -> HiSeries:
    """Per-row Euclidean norm of the residual vector, one channel named ``aggregated``."""
    r = np.asarray(residuals, dtype=np.float64)
    if r.ndim != 2:
        raise ShapeMismatch("residuals must be a T x K matrix")
    values = np.sqrt(np.sum(r * r, axis=1))[:, None]
    return HiSeries(
        values=values,
        kind=AGGREGATED,
        cycle_of=cycle_of,
        channel_names=(AGGREGATED,),
    )


def sensorwise_hi(
    residuals: np.ndarray,
    cycle_of: np.ndarray,
    channel_names: tuple[str, ...] | None = None,
) -> HiSeries:
    """Per-channel absolute residuals."""
    r = np.asarray(residuals, dtype=np.float64)
    if r.ndim != 2:
        raise ShapeMismatch("residuals must be a T x K matrix")
    return HiSeries(
        values=np.abs(r),
        kind=SENSORWISE,
        cycle_of=cycle_of,
        channel_names=channel_names,
    )

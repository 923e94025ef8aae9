"""Health indicators derived from residual matrices.

The aggregated indicator collapses each residual row to its Euclidean
norm; the sensor-wise indicator keeps per-channel absolute residuals so
faults can be localized. Both are matrices with one row per residual
row, so the residuals' cycle index applies to them unchanged.
"""

from __future__ import annotations

import numpy as np

AGGREGATED = "aggregated"
SENSORWISE = "sensorwise"


def aggregated_hi(residuals: np.ndarray) -> np.ndarray:
    """Per-row Euclidean norm of a T x K residual matrix: a T x 1 matrix."""
    r = np.asarray(residuals, dtype=np.float64)
    return np.sqrt(np.sum(r * r, axis=1))[:, None]


def sensorwise_hi(residuals: np.ndarray) -> np.ndarray:
    """Per-channel absolute values of a T x K residual matrix."""
    return np.abs(np.asarray(residuals, dtype=np.float64))

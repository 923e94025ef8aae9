"""Residual-calculating models: autoencoder and operating-conditions regressor.

The autoencoder (AE) reconstructs the full channel vector (descriptors and
sensors together) through a narrow bottleneck; its residual is input minus
reconstruction. The operating-conditions model (OC) maps the descriptors to
the sensor readings; its residual is measured minus predicted sensors.
Both are one ``ResidualModel`` type tagged with its kind, and both are
trained on standardized healthy rows only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .config import TrainingSettings
from .errors import ShapeMismatch
from .preprocess import Standardizer

AE_KIND = "AE"
OC_KIND = "OC"

AE_HIDDEN = (128, 8, 128)
OC_HIDDEN = (128, 128)

# activation index of the AE bottleneck (input is index 0)
AE_BOTTLENECK = int(np.argmin(AE_HIDDEN)) + 1


def layer_dims(kind: str, n_w: int, n_x: int) -> tuple[int, ...]:
    """Layer widths of a model of ``kind`` over n_w descriptors and n_x sensors."""
    if kind == AE_KIND:
        return (n_w + n_x, *AE_HIDDEN, n_w + n_x)
    if kind == OC_KIND:
        return (n_w, *OC_HIDDEN, n_x)
    raise ValueError(f"unknown model kind {kind!r}")


def io_blocks(kind: str, z_rows: np.ndarray, n_w: int) -> tuple[np.ndarray, np.ndarray]:
    """(input, target) column blocks of standardized rows for a model of ``kind``."""
    if kind == AE_KIND:
        return z_rows, z_rows
    if kind == OC_KIND:
        return z_rows[:, :n_w], z_rows[:, n_w:]
    raise ValueError(f"unknown model kind {kind!r}")


@dataclass(frozen=True)
class ResidualModel:
    """A trained residual model: its kind, net, standardizer and descriptor count."""

    kind: str
    net: nn.DenseNet
    standardizer: Standardizer
    n_w: int

    def __post_init__(self):
        expected = layer_dims(self.kind, self.n_w, self.n_x)
        if self.net.layer_dims != expected:
            raise ShapeMismatch(
                f"{self.kind} model: expected layer dims {expected}, got {self.net.layer_dims}"
            )

    @property
    def n_x(self) -> int:
        return self.standardizer.n_channels - self.n_w

    def embed(self, z_rows: np.ndarray) -> np.ndarray:
        """Bottleneck activations for standardized rows (autoencoders only)."""
        if self.kind != AE_KIND:
            raise ValueError(f"{self.kind} models have no bottleneck embedding")
        _, acts = nn.forward_activations(self.net, z_rows)
        return acts[AE_BOTTLENECK]


def train(
    kind: str,
    z_train: np.ndarray,
    z_val: np.ndarray,
    settings: TrainingSettings,
    seed: int,
    standardizer: Standardizer,
    n_w: int,
) -> tuple[ResidualModel, nn.TrainResult]:
    """Train a model of ``kind`` on standardized healthy rows (descriptors first).

    ``seed`` draws the initial weights and the training shuffle.
    """
    z_train = np.asarray(z_train, dtype=np.float64)
    z_val = np.asarray(z_val, dtype=np.float64)
    net = nn.init_weights(layer_dims(kind, n_w, z_train.shape[1] - n_w), seed=seed)
    result = nn.train(
        net, io_blocks(kind, z_train, n_w), io_blocks(kind, z_val, n_w), settings, seed
    )
    return ResidualModel(kind, result.net, standardizer, n_w), result


def residual_ae(model: ResidualModel, z_rows: np.ndarray) -> np.ndarray:
    """Row-wise input minus reconstruction; expects standardized rows."""
    z_rows = np.asarray(z_rows, dtype=np.float64)
    return z_rows - nn.forward(model.net, z_rows)


def residual_oc(model: ResidualModel, w_rows: np.ndarray, x_rows: np.ndarray) -> np.ndarray:
    """Row-wise measured minus predicted sensors; expects standardized rows."""
    w_rows = np.asarray(w_rows, dtype=np.float64)
    x_rows = np.asarray(x_rows, dtype=np.float64)
    if w_rows.shape[0] != x_rows.shape[0]:
        raise ShapeMismatch("descriptor and sensor row counts differ")
    if x_rows.shape[-1] != model.n_x:
        raise ShapeMismatch(f"expected {model.n_x} sensor channels, got {x_rows.shape[-1]}")
    return x_rows - nn.forward(model.net, w_rows)

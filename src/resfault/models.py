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
from .data_model import CHANNEL_NAMES, N_W
from .errors import ComputeError
from .preprocess import Standardizer

AE_KIND = "AE"
OC_KIND = "OC"

AE_HIDDEN = (128, 8, 128)
OC_HIDDEN = (128, 128)

# activation index of the AE bottleneck (input is index 0)
AE_BOTTLENECK = int(np.argmin(AE_HIDDEN)) + 1


def layer_dims(kind: str) -> tuple[int, ...]:
    """Layer widths of a model of ``kind`` over the fleet's CHANNEL_NAMES."""
    if kind == AE_KIND:
        return (len(CHANNEL_NAMES), *AE_HIDDEN, len(CHANNEL_NAMES))
    if kind == OC_KIND:
        return (N_W, *OC_HIDDEN, len(CHANNEL_NAMES) - N_W)
    raise ValueError(f"unknown model kind {kind!r}")


def io_blocks(kind: str, z_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(input, target) column blocks of standardized rows for a model of ``kind``."""
    if kind == AE_KIND:
        return z_rows, z_rows
    if kind == OC_KIND:
        return z_rows[:, :N_W], z_rows[:, N_W:]
    raise ValueError(f"unknown model kind {kind!r}")


@dataclass(frozen=True)
class ResidualModel:
    """A trained residual model: its kind, net and standardizer."""

    kind: str
    net: nn.DenseNet
    standardizer: Standardizer

    def __post_init__(self):
        expected = layer_dims(self.kind)
        if self.net.layer_dims != expected:
            raise ComputeError(
                f"{self.kind} model: expected layer dims {expected}, got {self.net.layer_dims}"
            )
        if self.standardizer.n_channels != len(CHANNEL_NAMES):
            raise ComputeError(
                f"{self.kind} model: expected a standardizer over {len(CHANNEL_NAMES)} "
                f"channels, got {self.standardizer.n_channels}"
            )

    def embed(self, z_rows: np.ndarray) -> np.ndarray:
        """Bottleneck activations for standardized rows. The caller checks the
        model is an autoencoder."""
        _, acts = nn.forward_activations(self.net, z_rows)
        return acts[AE_BOTTLENECK]


def train(
    kind: str,
    z_train: np.ndarray,
    z_val: np.ndarray,
    settings: TrainingSettings,
    seed: int,
    standardizer: Standardizer,
) -> tuple[ResidualModel, nn.TrainResult]:
    """Train a model of ``kind`` on standardized healthy rows (descriptors first).

    ``seed`` draws the initial weights and the training shuffle.
    """
    z_train = np.asarray(z_train, dtype=np.float64)
    z_val = np.asarray(z_val, dtype=np.float64)
    net = nn.init_weights(layer_dims(kind), seed=seed)
    result = nn.train(net, io_blocks(kind, z_train), io_blocks(kind, z_val), settings, seed)
    return ResidualModel(kind, net, standardizer), result


def residual_ae(model: ResidualModel, z_rows: np.ndarray) -> np.ndarray:
    """Row-wise input minus reconstruction; expects standardized rows."""
    z_rows = np.asarray(z_rows, dtype=np.float64)
    return z_rows - nn.forward(model.net, z_rows)


def residual_oc(model: ResidualModel, w_rows: np.ndarray, x_rows: np.ndarray) -> np.ndarray:
    """Row-wise measured minus predicted sensors: the io_blocks of standardized rows."""
    w_rows = np.asarray(w_rows, dtype=np.float64)
    x_rows = np.asarray(x_rows, dtype=np.float64)
    return x_rows - nn.forward(model.net, w_rows)

"""Core time-series containers, cycle segmentation, and data splitting.

A fleet is a list of :class:`UnitSeries`. Each unit is one channel matrix
``z``: the operating descriptors ``w`` (altitude, Mach, throttle angle,
inlet temperature), then the sensor readings ``x``, with an explicit
per-row cycle index.
Splitting designates the first cycles of every unit as the healthy pool,
draws a seeded validation subset from the pooled healthy rows, and assigns
all remaining cycles to the test set.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .config import SplitSettings
from .errors import InsufficientData, ShapeMismatch, UnitTooShort

# Operating descriptors: altitude, Mach number, throttle-resolver angle,
# total temperature at the fan inlet.
DEFAULT_W_CHANNELS = ("alt", "XM", "TRA", "T2")
# Sensor readings ordered as in the standard flight-data layout.
DEFAULT_X_CHANNELS = (
    "T24", "T30", "T48", "T50",
    "P15", "P2", "P21", "P24", "Ps30", "P40", "P50",
    "Nf", "Nc", "Wf",
)


@dataclass(frozen=True)
class UnitSeries:
    """One unit's multivariate time series.

    ``z`` is the T x N matrix of all channels: the ``n_w`` operating
    descriptors, then the sensor readings. The properties ``w`` and ``x``
    are views of those two column blocks. ``cycle_of`` assigns every row to a
    cycle; indices must be non-decreasing so each cycle is a contiguous
    block of rows. ``channel_names`` names every column of ``z``.
    """

    unit_id: str
    dataset_id: str
    z: np.ndarray
    n_w: int
    cycle_of: np.ndarray
    channel_names: tuple[str, ...]

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.float64)
        cyc = np.asarray(self.cycle_of, dtype=np.int64)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "cycle_of", cyc)
        object.__setattr__(self, "channel_names", tuple(self.channel_names))
        if z.ndim != 2 or z.shape[0] < 1:
            raise ShapeMismatch(f"z must be a 2-D matrix with a row, got shape {z.shape}")
        if not 1 <= self.n_w < z.shape[1]:
            raise ShapeMismatch("need at least one descriptor and one sensor channel")
        if cyc.shape != (z.shape[0],):
            raise ShapeMismatch("cycle_of must have one entry per row")
        if np.any(np.diff(cyc) < 0):
            raise ShapeMismatch("cycle_of must be non-decreasing")
        if len(self.channel_names) != z.shape[1]:
            raise ShapeMismatch("channel_names must cover all columns of z")

    @property
    def w(self) -> np.ndarray:
        """The operating descriptors: a view of the first ``n_w`` columns of ``z``."""
        return self.z[:, : self.n_w]

    @property
    def x(self) -> np.ndarray:
        """The sensor readings: a view of the columns of ``z`` after ``n_w``."""
        return self.z[:, self.n_w :]

    @property
    def n_rows(self) -> int:
        return self.z.shape[0]

    @property
    def n_x(self) -> int:
        return self.z.shape[1] - self.n_w

    @property
    def x_names(self) -> tuple[str, ...]:
        return self.channel_names[self.n_w :]

    def take_rows(self, rows: np.ndarray) -> "UnitSeries":
        """New series of the rows at the integer indices ``rows``, in that order."""
        return dataclasses.replace(self, z=self.z[rows], cycle_of=self.cycle_of[rows])


@dataclass(frozen=True)
class TruthRecord:
    """One unit's fault family, fault cycle (None: healthy) and faulty sensors."""

    unit_id: str
    family: str
    fault_cycle: int | None
    fault_sensors: tuple[str, ...]


@dataclass(frozen=True)
class FleetSplit:
    """Row selections per unit id for train and validation.

    ``train`` and ``validation`` map unit id to sorted row indices into
    that unit's arrays; together they cover exactly the healthy window.
    The rows after the window form the test set.
    """

    train: dict[str, np.ndarray]
    validation: dict[str, np.ndarray]


def cycle_bounds(cycle_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row intervals [starts[i], stops[i]) of the contiguous cycle blocks, in order."""
    boundaries = np.flatnonzero(np.diff(cycle_of)) + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [len(cycle_of)]])
    return starts, stops


def split(fleet: list[UnitSeries], settings: SplitSettings, seed: int) -> FleetSplit:
    """Partition healthy rows into train/validation; the rest is the test set.

    The healthy window is the first ``settings.healthy_cycles`` cycles of
    every unit. The healthy rows of the fleet, unit after unit in fleet
    order, form one pool; validation rows are drawn uniformly at random
    from it, so the draw is not stratified by unit, and each unit takes its
    block of the pooled validation mask. The same seed always reproduces
    the same split. A pool too small to leave rows in both train and
    validation is InsufficientData.
    """
    seen: set[str] = set()
    for unit in fleet:
        if unit.unit_id in seen:
            raise ValueError(f"duplicate unit id {unit.unit_id!r} in fleet")
        seen.add(unit.unit_id)
    counts = []
    for unit in fleet:
        _, stops = cycle_bounds(unit.cycle_of)
        if len(stops) <= settings.healthy_cycles:
            raise UnitTooShort(
                f"unit {unit.unit_id!r} has {len(stops)} cycles; "
                f"needs more than {settings.healthy_cycles}"
            )
        counts.append(int(stops[settings.healthy_cycles - 1]))

    n_pool = sum(counts)
    n_val = round(settings.validation_fraction * n_pool)
    if not 0 < n_val < n_pool:
        raise InsufficientData(
            f"split.validation_fraction {settings.validation_fraction} of {n_pool} healthy "
            f"rows leaves {n_val} validation and {n_pool - n_val} training rows"
        )
    is_val = np.zeros(n_pool, dtype=bool)
    is_val[np.random.default_rng(seed).choice(n_pool, size=n_val, replace=False)] = True

    train: dict[str, np.ndarray] = {}
    validation: dict[str, np.ndarray] = {}
    for unit, val_mask in zip(fleet, np.split(is_val, np.cumsum(counts)[:-1])):
        train[unit.unit_id] = np.flatnonzero(~val_mask)
        validation[unit.unit_id] = np.flatnonzero(val_mask)
    return FleetSplit(train=train, validation=validation)


def stack_rows(fleet: list[UnitSeries], selection: dict[str, np.ndarray]) -> np.ndarray:
    """Stack the selected rows of every unit's full channel matrix ``z``.

    Units are stacked in fleet order; rows within a unit keep their stored
    order.
    """
    blocks = []
    for unit in fleet:
        rows = selection.get(unit.unit_id)
        if rows is None or len(rows) == 0:
            continue
        blocks.append(unit.z[rows])
    if not blocks:
        raise ValueError("selection picked no rows")
    return np.vstack(blocks)

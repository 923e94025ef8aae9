"""Core time-series containers, cycle segmentation, and data splitting.

A fleet is a list of :class:`UnitSeries`. Each unit carries operating
descriptors ``w`` (altitude, Mach, throttle angle, inlet temperature) and
sensor readings ``x`` side by side, with an explicit per-row cycle index.
Splitting designates the first cycles of every unit as the healthy pool,
draws a seeded validation subset from the pooled healthy rows, and assigns
all remaining cycles to the test set.
"""

from __future__ import annotations

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

    ``w`` is the T x N_w matrix of operating descriptors, ``x`` the
    T x N_x matrix of sensor readings. ``cycle_of`` assigns every row to a
    cycle; indices must be non-decreasing so each cycle is a contiguous
    block of rows. ``channel_names`` lists the N_w descriptor names
    followed by the N_x sensor names.
    """

    unit_id: str
    dataset_id: str
    w: np.ndarray
    x: np.ndarray
    cycle_of: np.ndarray
    channel_names: tuple[str, ...]

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        x = np.asarray(self.x, dtype=np.float64)
        cyc = np.asarray(self.cycle_of, dtype=np.int64)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "cycle_of", cyc)
        object.__setattr__(self, "channel_names", tuple(self.channel_names))
        if w.ndim != 2 or x.ndim != 2:
            raise ShapeMismatch("w and x must be 2-D matrices")
        if w.shape[0] != x.shape[0] or w.shape[0] < 1:
            raise ShapeMismatch(
                f"w and x must share a row count >= 1, got {w.shape[0]} and {x.shape[0]}"
            )
        if w.shape[1] < 1 or x.shape[1] < 1:
            raise ShapeMismatch("need at least one descriptor and one sensor channel")
        if cyc.shape != (w.shape[0],):
            raise ShapeMismatch("cycle_of must have one entry per row")
        if np.any(np.diff(cyc) < 0):
            raise ShapeMismatch("cycle_of must be non-decreasing")
        if len(self.channel_names) != w.shape[1] + x.shape[1]:
            raise ShapeMismatch("channel_names must cover all w and x columns")

    @property
    def n_rows(self) -> int:
        return self.w.shape[0]

    @property
    def n_w(self) -> int:
        return self.w.shape[1]

    @property
    def n_x(self) -> int:
        return self.x.shape[1]

    @property
    def x_names(self) -> tuple[str, ...]:
        return self.channel_names[self.n_w :]

    def z(self) -> np.ndarray:
        """Full channel matrix: descriptors and sensors side by side."""
        return np.hstack([self.w, self.x])

    def take_rows(self, rows: np.ndarray) -> "UnitSeries":
        """New series containing the given rows, in their original order."""
        rows = np.asarray(rows, dtype=np.int64)
        return UnitSeries(
            unit_id=self.unit_id,
            dataset_id=self.dataset_id,
            w=self.w[rows],
            x=self.x[rows],
            cycle_of=self.cycle_of[rows],
            channel_names=self.channel_names,
        )


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
    every unit. Validation rows are drawn uniformly at random from the
    pooled healthy rows of the whole fleet, so the draw is not stratified
    by unit. The same seed always reproduces the same split. A pool too
    small to leave rows in both train and validation is InsufficientData.
    """
    seen: set[str] = set()
    for unit in fleet:
        if unit.unit_id in seen:
            raise ValueError(f"duplicate unit id {unit.unit_id!r} in fleet")
        seen.add(unit.unit_id)

    pool_unit: list[str] = []
    pool_row: list[np.ndarray] = []
    for unit in fleet:
        _, stops = cycle_bounds(unit.cycle_of)
        if len(stops) <= settings.healthy_cycles:
            raise UnitTooShort(
                f"unit {unit.unit_id!r} has {len(stops)} cycles; "
                f"needs more than {settings.healthy_cycles}"
            )
        healthy_stop = int(stops[settings.healthy_cycles - 1])
        pool_unit.extend([unit.unit_id] * healthy_stop)
        pool_row.append(np.arange(healthy_stop, dtype=np.int64))

    pool_rows = np.concatenate(pool_row)
    n_pool = len(pool_rows)
    n_val = round(settings.validation_fraction * n_pool)
    if not 0 < n_val < n_pool:
        raise InsufficientData(
            f"split.validation_fraction {settings.validation_fraction} of {n_pool} healthy "
            f"rows leaves {n_val} validation and {n_pool - n_val} training rows"
        )
    rng = np.random.default_rng(seed)
    val_positions = rng.choice(n_pool, size=n_val, replace=False)
    is_val = np.zeros(n_pool, dtype=bool)
    is_val[val_positions] = True

    train: dict[str, np.ndarray] = {}
    validation: dict[str, np.ndarray] = {}
    pool_unit_arr = np.array(pool_unit)
    for unit in fleet:
        mask = pool_unit_arr == unit.unit_id
        rows = pool_rows[mask]
        val_mask = is_val[mask]
        train[unit.unit_id] = rows[~val_mask]
        validation[unit.unit_id] = rows[val_mask]

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
        blocks.append(unit.z()[rows])
    if not blocks:
        raise ValueError("selection picked no rows")
    return np.vstack(blocks)

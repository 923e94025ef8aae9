"""Healthy statistics, thresholds, and waiting-cycle alarm logic.

Thresholds are three standard deviations above the healthy mean, per
channel. Detection works on cycle-averaged indicators: an alarm fires at
the first cycle where at least one channel has stayed above its threshold
for ``n_wait`` consecutive cycles (the same channel throughout the window).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import cycle_bounds
from .errors import CycleOutOfRange, ShapeMismatch
from .preprocess import column_stats

SIGMA_MULTIPLIER = 3.0


@dataclass(frozen=True)
class HealthyStats:
    """Per-channel healthy mean, standard deviation, and alarm threshold.

    ``channel_names`` names the indicator channels, one per ``mu`` entry;
    alarm reports, trigger timelines and every written table take their
    channel names from here.
    """

    mu: np.ndarray
    sigma: np.ndarray
    tau: np.ndarray
    fitted_on: int
    channel_names: tuple[str, ...]

    def __post_init__(self):
        for name in ("mu", "sigma", "tau"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        object.__setattr__(self, "channel_names", tuple(self.channel_names))
        if not (self.mu.shape == self.sigma.shape == self.tau.shape) or self.mu.ndim != 1:
            raise ShapeMismatch("mu, sigma, tau must be 1-D vectors of equal length")
        if np.any(self.sigma < 0):
            raise ValueError("sigma must be non-negative")
        if len(self.channel_names) != len(self.mu):
            raise ShapeMismatch(
                f"healthy statistics name {len(self.channel_names)} channels "
                f"for {len(self.mu)} values"
            )

    @property
    def n_channels(self) -> int:
        return len(self.mu)


def fit_stats(values: np.ndarray, channel_names: tuple[str, ...]) -> HealthyStats:
    """Fit per-channel statistics on healthy indicator rows.

    Uses the population (1/N) variance; the threshold is mu + 3*sigma.
    Pass the rows restricted to the healthy split and one name per column.
    """
    mu, sigma = column_stats(values)
    return HealthyStats(
        mu=mu,
        sigma=sigma,
        tau=mu + SIGMA_MULTIPLIER * sigma,
        fitted_on=len(values),
        channel_names=channel_names,
    )


@dataclass(frozen=True)
class CycleAverages:
    """Cycle-averaged indicator values: one row per cycle."""

    cycle_ids: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cycle_ids", np.asarray(self.cycle_ids, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 2 or self.cycle_ids.shape != (self.values.shape[0],):
            raise ShapeMismatch("one cycle id per value row required")

    def since(self, cycle: int) -> np.ndarray:
        """A view of the value rows from ``cycle``'s row on.

        Raises CycleOutOfRange when ``cycle`` is not one of the cycle ids.
        """
        positions = np.flatnonzero(self.cycle_ids == cycle)
        if len(positions) == 0:
            raise CycleOutOfRange(f"cycle {cycle} is not among the averaged cycles")
        return self.values[positions[0]:]


def cycle_average(values: np.ndarray, cycle_of: np.ndarray) -> CycleAverages:
    """Mean of every column over each contiguous block of rows of one cycle."""
    values = np.asarray(values, dtype=np.float64)
    cyc = np.asarray(cycle_of, dtype=np.int64)
    if values.ndim != 2 or cyc.shape != (values.shape[0],):
        raise ShapeMismatch("one cycle id per value row required")
    starts, stops = cycle_bounds(cyc)
    sums = np.add.reduceat(values, starts, axis=0)
    return CycleAverages(cycle_ids=cyc[starts], values=sums / (stops - starts)[:, None])


@dataclass(frozen=True)
class DetectOutcome:
    """Positional alarm result over a cycle-averaged matrix.

    ``alarm_index`` is the row (cycle position) at which the alarm can
    first be raised, or None. ``qualifying`` flags the channels whose
    exceedance streak reached the waiting count at the alarm cycle.
    """

    alarm_index: int | None
    qualifying: np.ndarray | None


def detect(values: np.ndarray, stats: HealthyStats, n_wait: int) -> DetectOutcome:
    """Scan cycle-averaged indicators (one row per cycle) for a persistent exceedance.

    The alarm is raised at the first cycle where some single channel has
    exceeded its threshold for ``n_wait`` consecutive cycles ending there.
    """
    values = np.asarray(values)
    if n_wait < 1:
        raise ValueError("n_wait must be >= 1")
    if values.ndim != 2 or values.shape[1] != stats.n_channels:
        raise ShapeMismatch(
            f"cycle matrix width {values.shape} does not match {stats.n_channels} channels"
        )
    exceed = values > stats.tau
    streak = np.zeros(stats.n_channels, dtype=np.int64)
    for c in range(values.shape[0]):
        streak = np.where(exceed[c], streak + 1, 0)
        if np.any(streak >= n_wait):
            return DetectOutcome(alarm_index=c, qualifying=streak >= n_wait)
    return DetectOutcome(alarm_index=None, qualifying=None)


@dataclass(frozen=True)
class DetectionReport:
    """Per-unit detection result with optional ground truth.

    ``delay`` is derived from ``alarm_cycle`` and ``n_true``, so it cannot
    contradict them.
    """

    unit_id: str
    dataset_id: str
    alarm_cycle: int | None
    n_true: int | None
    triggered_first: tuple[str, ...]
    ground_truth_known: bool = True

    @property
    def detected(self) -> bool:
        return self.alarm_cycle is not None

    @property
    def delay(self) -> int | None:
        """Alarm cycle minus fault-initiation cycle (negative: before the fault),
        or None when either is unknown."""
        if self.alarm_cycle is None or self.n_true is None:
            return None
        return self.alarm_cycle - self.n_true


def build_report(
    unit_id: str,
    dataset_id: str,
    cycle_hi: CycleAverages,
    stats: HealthyStats,
    n_wait: int,
    n_true: int | None = None,
    ground_truth_known: bool = True,
) -> DetectionReport:
    """Run detection on one unit and map the outcome to cycle labels."""
    outcome = detect(cycle_hi.values, stats, n_wait)
    if outcome.alarm_index is None:
        alarm_cycle = None
        triggered: tuple[str, ...] = ()
    else:
        alarm_cycle = int(cycle_hi.cycle_ids[outcome.alarm_index])
        triggered = tuple(
            name for name, hit in zip(stats.channel_names, outcome.qualifying) if hit
        )
    return DetectionReport(
        unit_id=unit_id,
        dataset_id=dataset_id,
        alarm_cycle=alarm_cycle,
        n_true=n_true,
        triggered_first=triggered,
        ground_truth_known=ground_truth_known,
    )

"""Healthy statistics, thresholds, and waiting-cycle alarm logic.

Thresholds are three standard deviations above the healthy mean, per
channel. Detection works on cycle-averaged indicators: an alarm fires at
the first cycle where at least one channel has stayed above its threshold
for ``n_wait`` consecutive cycles (the same channel throughout the window).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .health import HiSeries
from .preprocess import column_stats

SIGMA_MULTIPLIER = 3.0
DEFAULT_N_WAIT = 3


@dataclass(frozen=True)
class HealthyStats:
    """Per-channel healthy mean, standard deviation, and alarm threshold."""

    mu: np.ndarray
    sigma: np.ndarray
    tau: np.ndarray
    fitted_on: int

    def __post_init__(self):
        for name in ("mu", "sigma", "tau"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if not (self.mu.shape == self.sigma.shape == self.tau.shape) or self.mu.ndim != 1:
            raise ShapeMismatch("mu, sigma, tau must be 1-D vectors of equal length")
        if np.any(self.sigma < 0):
            raise ValueError("sigma must be non-negative")

    @property
    def n_channels(self) -> int:
        return len(self.mu)


def fit_stats(hi: HiSeries | np.ndarray) -> HealthyStats:
    """Fit per-channel statistics on healthy indicator rows.

    Uses the population (1/N) variance; the threshold is mu + 3*sigma.
    Pass the rows restricted to the healthy split.
    """
    values = hi.values if isinstance(hi, HiSeries) else hi
    mu, sigma = column_stats(values)
    return HealthyStats(
        mu=mu, sigma=sigma, tau=mu + SIGMA_MULTIPLIER * sigma, fitted_on=len(values)
    )


@dataclass(frozen=True)
class CycleAverages:
    """Cycle-averaged indicator values: one row per cycle.

    Unnamed channels are named ``ch0``, ``ch1``, ... in column order.
    """

    cycle_ids: np.ndarray
    values: np.ndarray
    channel_names: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "cycle_ids", np.asarray(self.cycle_ids, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 2 or self.cycle_ids.shape != (self.values.shape[0],):
            raise ShapeMismatch("one cycle id per value row required")
        names = self.channel_names
        if names is None:
            names = (f"ch{i}" for i in range(self.values.shape[1]))
        object.__setattr__(self, "channel_names", tuple(names))

    @property
    def n_cycles(self) -> int:
        return len(self.cycle_ids)

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


def cycle_mean(values: np.ndarray, cycle_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row means per contiguous cycle block: (cycle ids, C x K means)."""
    values = np.asarray(values, dtype=np.float64)
    cyc = np.asarray(cycle_of, dtype=np.int64)
    if values.ndim != 2 or cyc.shape != (values.shape[0],):
        raise ShapeMismatch("one cycle id per value row required")
    boundaries = np.flatnonzero(np.diff(cyc)) + 1
    starts = np.concatenate([[0], boundaries])
    sums = np.add.reduceat(values, starts, axis=0)
    counts = np.diff(np.concatenate([starts, [len(cyc)]]))
    return cyc[starts], sums / counts[:, None]


def cycle_average(hi: HiSeries) -> CycleAverages:
    """Mean indicator value per cycle and channel."""
    cycle_ids, means = cycle_mean(hi.values, hi.cycle_of)
    return CycleAverages(
        cycle_ids=cycle_ids,
        values=means,
        channel_names=hi.channel_names,
    )


@dataclass(frozen=True)
class DetectOutcome:
    """Positional alarm result over a cycle-averaged matrix.

    ``alarm_index`` is the row (cycle position) at which the alarm can
    first be raised, or None. ``exceedance`` flags every (cycle, channel)
    above threshold; ``qualifying`` flags the channels whose exceedance
    streak reached the waiting count at the alarm cycle.
    """

    alarm_index: int | None
    exceedance: np.ndarray
    qualifying: np.ndarray | None


def detect(
    cycle_hi: np.ndarray | CycleAverages,
    stats: HealthyStats,
    n_wait: int = DEFAULT_N_WAIT,
) -> DetectOutcome:
    """Scan cycle-averaged indicators for a persistent threshold exceedance.

    The alarm is raised at the first cycle where some single channel has
    exceeded its threshold for ``n_wait`` consecutive cycles ending there.
    """
    values = cycle_hi.values if isinstance(cycle_hi, CycleAverages) else np.asarray(cycle_hi)
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
            return DetectOutcome(
                alarm_index=c, exceedance=exceed, qualifying=streak >= n_wait
            )
    return DetectOutcome(alarm_index=None, exceedance=exceed, qualifying=None)


@dataclass(frozen=True)
class DetectionReport:
    """Per-unit detection result with optional ground truth."""

    unit_id: str
    dataset_id: str
    alarm_cycle: int | None
    n_true: int | None
    delay: int | None
    triggered_first: tuple[str, ...]
    cycle_ids: np.ndarray
    exceedance: np.ndarray
    ground_truth_known: bool = True

    @property
    def detected(self) -> bool:
        return self.alarm_cycle is not None


def detection_delay(n0: int, n_true: int) -> int:
    """Alarm cycle minus fault-initiation cycle; negative means false positive."""
    return int(n0) - int(n_true)


def build_report(
    unit_id: str,
    dataset_id: str,
    cycle_hi: CycleAverages,
    stats: HealthyStats,
    n_wait: int = DEFAULT_N_WAIT,
    n_true: int | None = None,
    ground_truth_known: bool = True,
) -> DetectionReport:
    """Run detection on one unit and map the outcome to cycle labels."""
    outcome = detect(cycle_hi, stats, n_wait)
    if outcome.alarm_index is None:
        alarm_cycle = None
        triggered: tuple[str, ...] = ()
    else:
        alarm_cycle = int(cycle_hi.cycle_ids[outcome.alarm_index])
        triggered = tuple(
            name for name, hit in zip(cycle_hi.channel_names, outcome.qualifying) if hit
        )
    delay = None
    if alarm_cycle is not None and n_true is not None:
        delay = detection_delay(alarm_cycle, n_true)
    return DetectionReport(
        unit_id=unit_id,
        dataset_id=dataset_id,
        alarm_cycle=alarm_cycle,
        n_true=n_true,
        delay=delay,
        triggered_first=triggered,
        cycle_ids=cycle_hi.cycle_ids,
        exceedance=outcome.exceedance,
        ground_truth_known=ground_truth_known,
    )

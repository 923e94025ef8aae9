"""Synthetic fleet generator with known fault ground truth.

Each unit flies repeated climb-cruise-descent cycles. Sensor readings are
a fixed smooth nonlinear map of the operating descriptors, shared across
the whole fleet, plus Gaussian noise. After a unit's fault-initiation
cycle, an accelerating drift is added to that fault family's sensors.
The drift scale is calibrated in units of the sensor noise so detection
difficulty is controlled directly.

The generator is a test oracle, not an engine model: magnitudes are
plausible but carry no thermodynamic meaning.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import parallel, persist
from .config import RunConfig, SynthSettings, derive_seed
from .data_model import DEFAULT_W_CHANNELS, DEFAULT_X_CHANNELS, TruthRecord, UnitSeries
from .errors import ConfigInvalid

ALTITUDE_CEILING = 35000.0

# Fractions of each cycle spent per phase; the cruise plateau must stay
# dominant so the cruise filter keeps enough rows after downsampling.
CLIMB_FRACTION = 0.18
DESCENT_FRACTION = 0.15

# Calibration targets: the fastest-drifting sensor reaches
# DRIFT_TARGET_SIGMA * noise_std this many cycles after fault initiation.
DRIFT_TARGET_SIGMA = 6.0
DRIFT_TARGET_CYCLES = 10

_MAP_HIDDEN = 6
_MAP_CALIBRATION_CYCLES = 30
_MAP_SEED_TAG = 917


@dataclass(frozen=True)
class FamilyFault:
    """One fault family: which sensors drift, how fast, and when.

    ``rate_multipliers`` scale the drift per sensor (1.0 = full rate) and
    ``onset_offsets`` delay each sensor's drift start, in cycles after the
    unit's fault-initiation cycle.
    """

    name: str
    sensors: tuple[str, ...]
    rate_multipliers: tuple[float, ...] = ()
    onset_offsets: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.sensors:
            raise ConfigInvalid(f"family {self.name!r} must list at least one sensor")
        unknown = set(self.sensors) - set(DEFAULT_X_CHANNELS)
        if unknown:
            raise ConfigInvalid(f"family {self.name!r}: unknown sensors {sorted(unknown)}")
        if not self.rate_multipliers:
            object.__setattr__(
                self,
                "rate_multipliers",
                tuple(1.0 / (1.8**i) for i in range(len(self.sensors))),
            )
        if not self.onset_offsets:
            object.__setattr__(self, "onset_offsets", (0,) * len(self.sensors))
        if len(self.rate_multipliers) != len(self.sensors):
            raise ConfigInvalid("one rate multiplier per sensor required")
        if len(self.onset_offsets) != len(self.sensors):
            raise ConfigInvalid("one onset offset per sensor required")


DEFAULT_FAMILIES = (
    FamilyFault(name="fan", sensors=("P2", "P21", "P15", "Nf")),
    FamilyFault(name="hpc", sensors=("T30", "Ps30", "Nc")),
    FamilyFault(name="lpt", sensors=("T48", "T50", "P50")),
)


@dataclass(frozen=True)
class SensorMap:
    """Fleet-wide smooth map from normalized descriptors to sensor readings."""

    mix: np.ndarray
    offset: np.ndarray
    readout: np.ndarray
    out_mean: np.ndarray
    out_std: np.ndarray

    def apply(self, w_rows: np.ndarray) -> np.ndarray:
        hidden = np.tanh(_normalize_w(w_rows) @ self.mix.T + self.offset)
        raw = hidden @ self.readout.T
        return (raw - self.out_mean) / self.out_std


def _normalize_w(w_rows: np.ndarray) -> np.ndarray:
    alt, mach, tra, t2 = (w_rows[:, i] for i in range(4))
    return np.column_stack(
        [alt / ALTITUDE_CEILING, mach, tra / 100.0, (t2 - 420.0) / 100.0]
    )


def segment_rows(rows: int) -> tuple[int, int, int]:
    """Climb, cruise and descent row counts, in flight order, of a ``rows``-row cycle."""
    n_climb = max(2, round(CLIMB_FRACTION * rows))
    n_desc = max(2, round(DESCENT_FRACTION * rows))
    return n_climb, rows - n_climb - n_desc, n_desc


def _cycle_profile(rng: np.random.Generator, rows: int) -> np.ndarray:
    """One cycle of descriptor rows, laid out by segment_rows."""
    n_climb, n_cruise, n_desc = segment_rows(rows)
    alt_top = rng.uniform(0.8, 1.0) * ALTITUDE_CEILING
    # climb tops out at 0.80 of the plateau so the cruise filter's 0.85
    # normalized-altitude cut separates the phases exactly
    climb = np.linspace(0.05, 0.80, n_climb) * alt_top
    cruise = alt_top * rng.uniform(0.97, 1.0, size=n_cruise)
    descent = np.linspace(0.80, 0.05, n_desc) * alt_top
    alt = np.concatenate([climb, cruise, descent])
    climbing = np.arange(rows) < n_climb
    rel = alt / ALTITUDE_CEILING
    mach = 0.30 + 0.48 * rel + rng.normal(0.0, 0.01, size=rows)
    tra = 35.0 + 40.0 * rel + 18.0 * climbing + rng.normal(0.0, 1.0, size=rows)
    t2 = 518.67 - 3.0e-3 * alt + 8.0 * mach**2 + rng.normal(0.0, 0.5, size=rows)
    return np.column_stack([alt, mach, tra, t2])


def build_sensor_map(seed: int) -> SensorMap:
    """Construct the shared response map, normalized to unit signal variance."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _MAP_SEED_TAG]))
    n_w = len(DEFAULT_W_CHANNELS)
    n_x = len(DEFAULT_X_CHANNELS)
    mix = rng.uniform(-2.0, 2.0, size=(_MAP_HIDDEN, n_w))
    offset = rng.uniform(-1.0, 1.0, size=_MAP_HIDDEN)
    readout = rng.normal(0.0, 1.0, size=(n_x, _MAP_HIDDEN))
    reference = np.vstack(
        [_cycle_profile(rng, 150) for _ in range(_MAP_CALIBRATION_CYCLES)]
    )
    hidden = np.tanh(_normalize_w(reference) @ mix.T + offset)
    raw = hidden @ readout.T
    std = raw.std(axis=0)
    std[std < 1e-12] = 1.0
    return SensorMap(
        mix=mix, offset=offset, readout=readout, out_mean=raw.mean(axis=0), out_std=std
    )


def _drift_scale(settings: SynthSettings) -> float:
    """``severity_scale``, or the calibrated scale when it is unset."""
    if settings.severity_scale is not None:
        return settings.severity_scale
    return (
        DRIFT_TARGET_SIGMA
        * settings.noise_std
        / DRIFT_TARGET_CYCLES**settings.severity_exponent
    )


def gen_unit(
    settings: SynthSettings,
    family: FamilyFault,
    unit_seed: int,
    unit_id: str,
    sensor_map: SensorMap,
) -> tuple[UnitSeries, TruthRecord]:
    """Generate one unit plus its ground truth.

    The drift component is deterministic given the cycle index, so
    regenerating with the same seed and a zero severity scale yields the
    identical series minus the injected drift.
    """
    rng = np.random.default_rng(unit_seed)
    scale = _drift_scale(settings)
    n_true = int(rng.integers(settings.fault_start_lo, settings.fault_start_hi + 1))
    healthy = scale == 0.0

    sensor_idx = {name: i for i, name in enumerate(DEFAULT_X_CHANNELS)}
    rows, n_cycles = settings.rows_per_cycle, settings.cycles_per_unit
    n_w = len(DEFAULT_W_CHANNELS)
    z = np.empty((n_cycles * rows, n_w + len(DEFAULT_X_CHANNELS)))
    w, x = z[:, :n_w], z[:, n_w:]
    for cycle in range(n_cycles):
        at = slice(cycle * rows, (cycle + 1) * rows)
        w[at] = _cycle_profile(rng, rows)
        x[at] = sensor_map.apply(w[at]) + rng.normal(
            0.0, settings.noise_std, size=(rows, len(DEFAULT_X_CHANNELS))
        )
        if not healthy and cycle > n_true:
            for name, mult, onset in zip(
                family.sensors, family.rate_multipliers, family.onset_offsets
            ):
                growth = cycle - n_true - onset
                if growth > 0:
                    x[at, sensor_idx[name]] += mult * scale * growth**settings.severity_exponent

    series = UnitSeries(
        unit_id=unit_id,
        dataset_id=family.name,
        z=z,
        n_w=n_w,
        cycle_of=np.repeat(np.arange(n_cycles, dtype=np.int64), rows),
        channel_names=DEFAULT_W_CHANNELS + DEFAULT_X_CHANNELS,
    )
    truth = TruthRecord(
        unit_id=unit_id,
        family=family.name,
        fault_cycle=None if healthy else n_true,
        fault_sensors=() if healthy else tuple(family.sensors),
    )
    return series, truth


def unit_plan(cfg: RunConfig) -> list[tuple[FamilyFault, int, str]]:
    """(family, unit seed, unit id) of each unit of the fleet, in fleet order.

    The fleet is n_units units of each of the first n_families
    DEFAULT_FAMILIES, per ``cfg.synth``. Faults must start after the healthy
    window ``cfg.split.healthy_cycles``, so that models train on healthy
    rows only.
    """
    settings = cfg.synth
    if settings.fault_start_lo <= cfg.split.healthy_cycles:
        raise ConfigInvalid(
            "faults must start after the healthy window "
            f"({settings.fault_start_lo} <= {cfg.split.healthy_cycles})"
        )
    return [
        (
            family,
            derive_seed(cfg.seed, f_idx, u_idx),
            f"{settings.unit_prefix}{family.name}-u{u_idx + 1:02d}",
        )
        for f_idx, family in enumerate(DEFAULT_FAMILIES[: settings.n_families])
        for u_idx in range(settings.n_units)
    ]


def _fleet_sensor_map(cfg: RunConfig) -> SensorMap:
    settings = cfg.synth
    return build_sensor_map(cfg.seed if settings.map_seed is None else settings.map_seed)


def gen_units(cfg: RunConfig, plan: list) -> Iterator[tuple[UnitSeries, TruthRecord]]:
    """Each unit of ``plan``, a slice of unit_plan(cfg), with its ground truth.

    A unit is made when the caller asks for it, so a caller that is done with
    each unit before it asks for the next holds one raw unit at a time.
    """
    sensor_map = _fleet_sensor_map(cfg)
    for planned in plan:
        yield gen_unit(cfg.synth, *planned, sensor_map)


def gen_fleet(cfg: RunConfig) -> list[tuple[UnitSeries, TruthRecord]]:
    """Every unit of unit_plan(cfg), with its ground truth."""
    return list(gen_units(cfg, unit_plan(cfg)))


def _write_part(cfg: RunConfig, plan: list, path: Path) -> list[TruthRecord]:
    """Generate the units of ``plan`` and write their fleet rows to ``path``.

    Each unit is written as soon as it is made, so one unit is held at a time.
    """
    truths = []
    with path.open("w", newline="", encoding="utf-8") as fh:
        for series, truth in gen_units(cfg, plan):
            persist.write_fleet_rows(fh, [series])
            truths.append(truth)
    return truths


def save_fleet(cfg: RunConfig, path: Path, workers: int) -> list[TruthRecord]:
    """Write the fleet of gen_fleet(cfg) to ``path`` as persist.save_csv would.

    Each of ``workers`` jobs generates one contiguous slice of the units and
    writes it to a part file beside ``path``; the parts are then joined in
    unit order and deleted, also when a job fails. The bytes are the same for
    any worker count. Returns the units' ground truth, in fleet order.
    """
    plan = unit_plan(cfg)
    bounds = [len(plan) * i // workers for i in range(workers + 1)]
    parts = [path.with_name(f".{path.name}.part{i}") for i in range(workers)]
    jobs = [(plan[lo:hi], part) for lo, hi, part in zip(bounds, bounds[1:], parts)]
    try:
        truths = parallel.run_jobs(_write_part, (cfg,), jobs, workers)
        persist.join_fleet_parts(parts, path)
    finally:
        for part in parts:
            part.unlink(missing_ok=True)
    return [truth for part_truths in truths for truth in part_truths]

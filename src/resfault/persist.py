"""CSV ingestion/emission, ground-truth sidecars, and model checkpoints.

Data interchange is plain CSV with an explicit header. Checkpoints are
JSON: weights round-trip bit-exactly because values are written with
shortest round-trip decimal formatting and parsed back as 64-bit floats.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .data_model import DEFAULT_W_CHANNELS, DEFAULT_X_CHANNELS, UnitSeries
from .errors import (
    CorruptCheckpoint,
    EmptyFile,
    MissingColumn,
    NonNumericCell,
    RaggedRow,
    VersionMismatch,
)
from .models import ResidualModel
from .preprocess import Standardizer

CHECKPOINT_FORMAT_VERSION = 1

# Fleet CSV columns: unit id, cycle index, descriptors, sensors. The first
# descriptor column is treated as altitude by the cruise filter.
UNIT_COLUMN = "unit"
CYCLE_COLUMN = "cycle"
FLEET_COLUMNS = (UNIT_COLUMN, CYCLE_COLUMN) + DEFAULT_W_CHANNELS + DEFAULT_X_CHANNELS


def format_float(v: float) -> str:
    return repr(float(v))


def write_table(path: str | Path, header, rows) -> None:
    """Write a CSV table: the header row, then every row of ``rows``."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def load_csv(path: str | Path) -> list[UnitSeries]:
    """Read a fleet CSV into per-unit series.

    Rows are grouped by unit id (units ordered by first appearance) and
    stably sorted by cycle within each unit, preserving row order inside
    a cycle.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path} has no header row") from None
        rows = list(reader)
    if not rows:
        raise EmptyFile(f"{path} has a header but no data rows")
    if set(map(len, rows)) != {len(header)}:
        line, row = next((i, r) for i, r in enumerate(rows, 2) if len(r) != len(header))
        raise RaggedRow(f"{path}: line {line} has {len(row)} cells, the header has {len(header)}")

    col_index: dict[str, int] = {}
    for name in FLEET_COLUMNS:
        if name not in header:
            raise MissingColumn(f"{path} is missing required column {name!r}")
        col_index[name] = header.index(name)

    def numeric_column(name: str) -> np.ndarray:
        idx = col_index[name]
        raw = [row[idx] for row in rows]
        try:
            values = np.asarray(raw, dtype=np.float64)
        except ValueError:
            for line_no, tok in enumerate(raw, start=2):
                try:
                    float(tok)
                except ValueError:
                    raise NonNumericCell(
                        f"{path}: non-numeric value {tok!r} in column {name!r}, line {line_no}"
                    ) from None
            raise
        if not np.isfinite(values).all():
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise NonNumericCell(
                f"{path}: non-finite value {raw[bad]!r} in column {name!r}, line {bad + 2}"
            )
        return values

    unit_col = [row[col_index[UNIT_COLUMN]] for row in rows]
    cycle_col = numeric_column(CYCLE_COLUMN)
    if np.any(cycle_col != np.floor(cycle_col)):
        raise NonNumericCell(f"{path}: cycle column must hold integers")
    w = np.column_stack([numeric_column(name) for name in DEFAULT_W_CHANNELS])
    x = np.column_stack([numeric_column(name) for name in DEFAULT_X_CHANNELS])
    cycle_int = cycle_col.astype(np.int64)

    order: list[str] = []
    row_ids: dict[str, list[int]] = {}
    for i, uid in enumerate(unit_col):
        if uid not in row_ids:
            order.append(uid)
            row_ids[uid] = []
        row_ids[uid].append(i)

    fleet = []
    for uid in order:
        idx = np.array(row_ids[uid], dtype=np.int64)
        idx = idx[np.argsort(cycle_int[idx], kind="stable")]
        fleet.append(
            UnitSeries(
                unit_id=uid,
                dataset_id="",
                w=w[idx],
                x=x[idx],
                cycle_of=cycle_int[idx],
                channel_names=DEFAULT_W_CHANNELS + DEFAULT_X_CHANNELS,
            )
        )
    return fleet


def save_csv(fleet: list[UnitSeries], path: str | Path) -> None:
    """Write a fleet to CSV in FLEET_COLUMNS order."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FLEET_COLUMNS)
        for unit in fleet:
            for t in range(unit.n_rows):
                writer.writerow(
                    [unit.unit_id, int(unit.cycle_of[t])]
                    + [format_float(v) for v in unit.w[t]]
                    + [format_float(v) for v in unit.x[t]]
                )


@dataclass(frozen=True)
class TruthRecord:
    """Ground-truth sidecar row: fault timing and affected sensors per unit."""

    unit_id: str
    family: str
    fault_cycle: int | None
    fault_sensors: tuple[str, ...]


def save_ground_truth(truths, path: str | Path) -> None:
    """Write the ground-truth sidecar (empty fault cycle = healthy unit)."""
    write_table(
        path,
        ["unit", "family", "fault_cycle", "faulty_sensors"],
        (
            [
                t.unit_id,
                t.family,
                "" if t.fault_cycle is None else int(t.fault_cycle),
                ";".join(t.fault_sensors),
            ]
            for t in truths
        ),
    )


def _int_cell(path: Path, line: int, row: dict, column: str) -> int | None:
    """Integer value of a cell, None when empty; anything else is a NonNumericCell."""
    token = (row[column] or "").strip()
    if not token:
        return None
    try:
        return int(token)
    except ValueError:
        raise NonNumericCell(
            f"{path}: non-integer value {token!r} in column {column!r}, line {line}"
        ) from None


def load_ground_truth(path: str | Path) -> dict[str, TruthRecord]:
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptyFile(f"{path} has no header row")
        for name in ("unit", "family", "fault_cycle", "faulty_sensors"):
            if name not in reader.fieldnames:
                raise MissingColumn(f"{path} is missing required column {name!r}")
        out: dict[str, TruthRecord] = {}
        for row in reader:
            sensors = tuple(s for s in row["faulty_sensors"].split(";") if s)
            out[row["unit"]] = TruthRecord(
                unit_id=row["unit"],
                family=row["family"],
                fault_cycle=_int_cell(path, reader.line_num, row, "fault_cycle"),
                fault_sensors=sensors,
            )
    if not out:
        raise EmptyFile(f"{path} has a header but no data rows")
    return out


REPORT_COLUMNS = (
    "model",
    "hi_kind",
    "unit",
    "dataset",
    "fault_cycle",
    "alarm_cycle",
    "delay",
    "triggered_first",
    "gt_known",
)


def save_reports(reports, model_kind: str, hi_kind: str, path: str | Path) -> None:
    """Write per-unit detection rows; empty cells mean None."""
    write_table(
        path,
        REPORT_COLUMNS,
        (
            [
                model_kind,
                hi_kind,
                r.unit_id,
                r.dataset_id,
                "" if r.n_true is None else int(r.n_true),
                "" if r.alarm_cycle is None else int(r.alarm_cycle),
                "" if r.delay is None else int(r.delay),
                ";".join(r.triggered_first),
                int(r.ground_truth_known),
            ]
            for r in reports
        ),
    )


def load_reports(path: str | Path):
    """Read detection rows back, grouped as (model, hi_kind) -> reports."""
    from .detector import DetectionReport

    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptyFile(f"{path} has no header row")
        missing = set(REPORT_COLUMNS) - set(reader.fieldnames)
        if missing:
            raise MissingColumn(f"{path} is missing column(s) {sorted(missing)}")
        groups: dict[tuple[str, str], list[DetectionReport]] = {}
        for row in reader:
            if row["gt_known"] not in ("0", "1"):
                raise NonNumericCell(
                    f"{path}: gt_known must be 0 or 1, got {row['gt_known']!r}, "
                    f"line {reader.line_num}"
                )
            key = (row["model"], row["hi_kind"])
            groups.setdefault(key, []).append(
                DetectionReport(
                    unit_id=row["unit"],
                    dataset_id=row["dataset"],
                    alarm_cycle=_int_cell(path, reader.line_num, row, "alarm_cycle"),
                    n_true=_int_cell(path, reader.line_num, row, "fault_cycle"),
                    delay=_int_cell(path, reader.line_num, row, "delay"),
                    triggered_first=tuple(
                        s for s in row["triggered_first"].split(";") if s
                    ),
                    ground_truth_known=row["gt_known"] == "1",
                )
            )
    if not groups:
        raise EmptyFile(f"{path} has a header but no data rows")
    return groups


def save_stats(stats, channel_names, path: str | Path) -> None:
    """Healthy statistics sidecar: one row per indicator channel."""
    write_table(
        path,
        ["channel", "mu", "sigma", "tau", "fitted_on"],
        (
            [name, format_float(mu), format_float(sigma), format_float(tau), stats.fitted_on]
            for name, mu, sigma, tau in zip(channel_names, stats.mu, stats.sigma, stats.tau)
        ),
    )


def save_cycle_hi_csv(cycle_averages: dict, path: str | Path) -> None:
    """Cycle-averaged indicators for plotting: unit, cycle, channel, value."""
    write_table(
        path,
        ["unit", "cycle", "channel", "value"],
        (
            [unit_id, int(cyc), name, format_float(value)]
            for unit_id, avg in cycle_averages.items()
            for cyc, row in zip(avg.cycle_ids, avg.values)
            for name, value in zip(avg.channel_names, row)
        ),
    )


def stats_to_blob(stats, channel_names) -> dict:
    """JSON-ready healthy statistics (stored in checkpoint metadata)."""
    return {
        "channels": list(channel_names),
        "mu": stats.mu.tolist(),
        "sigma": stats.sigma.tolist(),
        "tau": stats.tau.tolist(),
        "fitted_on": stats.fitted_on,
    }


def stats_from_blob(blob: dict):
    """Inverse of stats_to_blob: (HealthyStats, channel names)."""
    from .detector import HealthyStats

    try:
        stats = HealthyStats(
            mu=np.asarray(blob["mu"], dtype=np.float64),
            sigma=np.asarray(blob["sigma"], dtype=np.float64),
            tau=np.asarray(blob["tau"], dtype=np.float64),
            fitted_on=int(blob["fitted_on"]),
        )
        channels = tuple(blob["channels"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptCheckpoint(f"malformed healthy statistics blob ({exc})") from None
    return stats, channels


def save_checkpoint(
    model: ResidualModel, path: str | Path, metadata: dict | None = None
) -> None:
    """Serialize a trained model, its standardizer, and training metadata."""
    net = model.net
    for p in net.params():
        if not np.all(np.isfinite(p)):
            raise ValueError("refusing to checkpoint non-finite parameters")
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": model.kind,
        "layer_dims": list(net.layer_dims),
        "activations": list(net.activations),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "standardizer": {
            "mean": model.standardizer.mean.tolist(),
            "std": model.standardizer.std.tolist(),
            "epsilon": model.standardizer.epsilon,
        },
        "n_w": model.n_w,
        "metadata": metadata or {},
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def load_checkpoint(path: str | Path) -> tuple[ResidualModel, dict]:
    """Load a checkpointed model; returns (model, training metadata)."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptCheckpoint(f"{path}: not valid checkpoint JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise CorruptCheckpoint(f"{path}: checkpoint must be a JSON object")
    version = payload.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise VersionMismatch(
            f"{path}: format version {version!r}, expected {CHECKPOINT_FORMAT_VERSION}"
        )
    try:
        kind = payload["kind"]
        dims = tuple(int(d) for d in payload["layer_dims"])
        activations = tuple(payload["activations"])
        weights = [np.asarray(w, dtype=np.float64) for w in payload["weights"]]
        biases = [np.asarray(b, dtype=np.float64) for b in payload["biases"]]
        std_blob = payload["standardizer"]
        standardizer = Standardizer(
            mean=np.asarray(std_blob["mean"], dtype=np.float64),
            std=np.asarray(std_blob["std"], dtype=np.float64),
            epsilon=float(std_blob["epsilon"]),
        )
        n_w = int(payload["n_w"])
        metadata = payload.get("metadata", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptCheckpoint(f"{path}: malformed checkpoint ({exc})") from None
    try:
        net = nn.DenseNet(dims, weights, biases, activations)
        model = ResidualModel(kind, net, standardizer, n_w)
    except Exception as exc:
        raise CorruptCheckpoint(f"{path}: inconsistent checkpoint ({exc})") from None
    return model, metadata

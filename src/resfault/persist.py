"""CSV ingestion/emission, ground-truth sidecars, and model checkpoints.

Data interchange is plain CSV with an explicit header. Checkpoints are
JSON: weights round-trip bit-exactly because values are written with
shortest round-trip decimal formatting and parsed back as 64-bit floats.
"""

from __future__ import annotations

import array
import csv
import functools
import io
import itertools
import json
import shutil
from pathlib import Path

import numpy as np

from . import __version__, nn
from .config import RunConfig, dump_config
from .data_model import DEFAULT_W_CHANNELS, DEFAULT_X_CHANNELS, TruthRecord, UnitSeries
from .detector import DetectionReport, HealthyStats
from .errors import (
    CorruptCheckpoint,
    DataError,
    EmptyFile,
    MissingColumn,
    NonNumericCell,
    RaggedRow,
    ShapeMismatch,
    VersionMismatch,
)
from .models import ResidualModel
from .preprocess import Standardizer

CHECKPOINT_FORMAT_VERSION = 1


def _activation_tags(n_layers: int) -> list[str]:
    """The checkpoint's activation tags: ReLU on every hidden layer, linear output."""
    return ["relu"] * (n_layers - 1) + ["linear"]


# The cell of a value that does not exist, such as the delay of a unit with no alarm.
NO_DETECTION_MARK = "-"

# Fleet CSV columns: unit id, cycle index, descriptors, sensors. The first
# descriptor column is treated as altitude by the cruise filter.
UNIT_COLUMN = "unit"
CYCLE_COLUMN = "cycle"
FLEET_COLUMNS = (UNIT_COLUMN, CYCLE_COLUMN) + DEFAULT_W_CHANNELS + DEFAULT_X_CHANNELS
# The columns of the table the fleet parsers return, next to the unit ids in
# order of first appearance and each row's index into them.
NUMERIC_COLUMNS = (CYCLE_COLUMN,) + DEFAULT_W_CHANNELS + DEFAULT_X_CHANNELS


def format_float(v: float) -> str:
    return repr(float(v))


def write_table(path: str | Path, header, rows) -> None:
    """Write a CSV table: the header row, then every row of ``rows``."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _utf8_input(load):
    """``load(path)``, with a file that is not UTF-8 text a DataError naming it."""

    @functools.wraps(load)
    def checked(path):
        try:
            return load(path)
        except UnicodeDecodeError as exc:
            raise DataError(
                f"{path} is not UTF-8 text: byte {exc.object[exc.start]:#04x} ({exc.reason})"
            ) from None

    return checked


@_utf8_input
def load_csv(path: str | Path) -> list[UnitSeries]:
    """Read a fleet CSV into per-unit series.

    Rows are grouped by unit id (units ordered by first appearance) and
    stably sorted by cycle within each unit, preserving row order inside
    a cycle.

    A well-formed file is parsed by ``np.loadtxt``; anything else (quotes,
    a ``\\r`` inside a line, ragged or blank lines, non-numeric or
    non-finite cells, no data) is parsed again by the ``csv`` module, which
    names the offending line.
    """
    path = Path(path)
    unit_ids, codes, table = _parse_fast(path) or _parse_csv(path)
    cycle_int = table[:, 0].astype(np.int64)
    n_w = len(DEFAULT_W_CHANNELS)
    w, x = table[:, 1 : 1 + n_w], table[:, 1 + n_w :]
    rows_by_unit = np.split(
        np.argsort(codes, kind="stable"), np.cumsum(np.bincount(codes))[:-1]
    )
    fleet = []
    for uid, idx in zip(unit_ids, rows_by_unit):
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


# Bytes read per step of the scan in _parse_fast.
_SCAN_BLOCK_BYTES = 1 << 20
_NEWLINE, _RETURN, _COMMA = b"\n\r,"


def _parse_fast(path: Path):
    """Columns of a well-formed fleet CSV, or None when the csv path must decide.

    A numpy scan of the bytes checks that no line holds a quote or a
    ``\\r`` other than before its newline, and that every line has the
    header's cell count, and codes the unit cells; then ``np.loadtxt``
    parses the numeric columns from a second handle. Neither holds more
    than a block and its partial last line in memory.
    """
    with path.open("rb") as fh:
        runs = _line_runs(fh)
        first = next(runs, None)
        if first is None:
            return None
        line, _, rest = first.partition(b"\n")
        line = line.removesuffix(b"\r")
        try:
            header = line.decode().split(",")
        except UnicodeDecodeError:
            return None
        if b"\r" in line or not set(FLEET_COLUMNS) <= set(header):
            return None
        unit_at = header.index(UNIT_COLUMN)
        index: dict[bytes, int] = {}
        codes = []
        for run in itertools.chain([rest], runs):
            if run is None:
                return None
            run_codes = _unit_codes(run, len(header), unit_at, index)
            if run_codes is None:
                return None
            codes.append(run_codes)
    codes = np.concatenate(codes)
    if not len(codes):
        return None
    try:
        unit_ids = [key.decode() for key in index]
    except UnicodeDecodeError:
        return None
    with path.open("rb") as fh:
        fh.readline()
        try:
            # numpy decodes a binary handle's lines itself, a little faster than a text handle
            table = np.loadtxt(
                fh,
                delimiter=",",
                comments=None,
                usecols=[header.index(name) for name in NUMERIC_COLUMNS],
                ndmin=2,
                encoding="utf-8",
            )
        except ValueError:
            return None
    cycle = table[:, 0]
    if (
        table.shape[0] != len(codes)
        or not np.isfinite(table).all()
        or np.any(cycle != np.floor(cycle))
    ):
        return None
    return unit_ids, codes, table


def _line_runs(fh):
    """The binary file ``fh`` as runs of whole lines, each ending in a newline.

    Reads _SCAN_BLOCK_BYTES at a time and carries the partial last line
    into the next run; the file's last line gets a newline if it lacks one.
    Yields None and stops at the first quote, or at a ``\\r`` inside the
    partial line, which no newline can follow.
    """
    carry = b""
    while data := fh.read(_SCAN_BLOCK_BYTES):
        buf = carry + data
        end = buf.rfind(b"\n") + 1
        carry = buf[end:]
        if b'"' in data or b"\r" in carry[:-1]:
            yield None
            return
        if end:
            yield buf[:end]
    if carry:
        yield carry + b"\n"


def _unit_codes(run: bytes, n_cells: int, unit_at: int, index: dict[bytes, int]):
    """Codes of the unit cells of the lines of ``run``, or None unless every
    line has ``n_cells`` cells and every ``\\r`` ends a line.

    A code is the cell's place in ``index``, which gains the cells it lacks
    in order of first appearance. Cells are grouped by width and compared
    as byte strings in numpy, so only distinct cells reach Python.
    """
    buf = np.frombuffer(run, dtype=np.uint8)
    newlines = np.flatnonzero(buf == _NEWLINE)
    commas = np.flatnonzero(buf == _COMMA)
    line_returns = buf[newlines - 1] == _RETURN
    if np.count_nonzero(buf == _RETURN) != np.count_nonzero(line_returns) or np.any(
        np.diff(np.searchsorted(commas, newlines), prepend=0) != n_cells - 1
    ):
        return None
    bounds = commas.reshape(len(newlines), n_cells - 1)
    starts = np.concatenate(([0], newlines + 1))[:-1]
    lo = starts if unit_at == 0 else bounds[:, unit_at - 1] + 1
    hi = newlines - line_returns if unit_at == n_cells - 1 else bounds[:, unit_at]
    width = hi - lo
    groups, keys = [], []  # keys: (first line, cell bytes) of each distinct cell
    for w in np.unique(width).tolist():
        rows = np.flatnonzero(width == w)
        # one zero byte stands for every empty cell
        cells = buf[lo[rows, None] + np.arange(w)] if w else np.zeros((len(rows), 1), np.uint8)
        _, first, inverse = np.unique(
            cells.view(np.dtype((np.void, max(w, 1)))).ravel(),
            return_index=True,
            return_inverse=True,
        )
        groups.append((rows, inverse + len(keys)))
        keys += [(row, run[lo[row] : lo[row] + w]) for row in rows[first].tolist()]
    lut = np.empty(len(keys), dtype=np.int64)
    for k in sorted(range(len(keys)), key=lambda k: keys[k][0]):
        lut[k] = index.setdefault(keys[k][1], len(index))
    codes = np.empty(len(newlines), dtype=np.int64)
    for rows, key in groups:
        codes[rows] = lut[key]
    return codes


def _parse_csv(path: Path):
    """Columns of any fleet CSV, read row by row with ``csv``.

    Raises the typed error of the first defect: no header or no rows, the
    first ragged row, the first missing column, then column by column in
    NUMERIC_COLUMNS order the first non-numeric or non-finite cell, as
    written, with its line.
    """
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path} has no header row") from None
        missing = [name for name in FLEET_COLUMNS if name not in header]
        numeric = [] if missing else [header.index(name) for name in NUMERIC_COLUMNS]
        unit_at = None if missing else header.index(UNIT_COLUMN)
        index: dict[str, int] = {}
        codes = []
        values = array.array("d")
        non_numeric: dict[int, tuple[int, str]] = {}  # column -> first (line, cell)
        line = 1
        for line, row in enumerate(reader, 2):
            if len(row) != len(header):
                raise _ragged_row(path, line, row, header)
            if missing:
                continue
            codes.append(index.setdefault(row[unit_at], len(index)))
            try:
                values.extend([float(row[i]) for i in numeric])
            except ValueError:
                for j, i in enumerate(numeric):
                    try:
                        values.append(float(row[i]))
                    except ValueError:
                        non_numeric.setdefault(j, (line, row[i]))
                        values.append(np.nan)
    if line == 1:
        raise EmptyFile(f"{path} has a header but no data rows")
    if missing:
        raise MissingColumn(f"{path} is missing required column {missing[0]!r}")
    table = np.frombuffer(values).reshape(len(codes), len(numeric))
    for j, name in enumerate(NUMERIC_COLUMNS):
        if j in non_numeric:
            line, cell = non_numeric[j]
            raise NonNumericCell(
                f"{path}: non-numeric value {cell!r} in column {name!r}, line {line}"
            )
        finite = np.isfinite(table[:, j])
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
            raise NonNumericCell(
                f"{path}: non-finite value {_cell(path, bad, numeric[j])!r} "
                f"in column {name!r}, line {bad + 2}"
            )
        if name == CYCLE_COLUMN and np.any(table[:, j] != np.floor(table[:, j])):
            raise NonNumericCell(f"{path}: cycle column must hold integers")
    return list(index), np.array(codes, dtype=np.int64), table


def _cell(path: Path, row: int, column: int) -> str:
    """Cell ``column`` of data row ``row`` (0-based), as written."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        return next(itertools.islice(rows, row, None))[column]


# Rows formatted per write: one string per chunk keeps memory flat, where
# one string per unit would hold a whole unit's text.
_WRITE_CHUNK_ROWS = 200


def _csv_row(cells) -> str:
    """One row as ``csv.writer`` writes it, line ending included."""
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()


def _unit_field(unit_id: str) -> str:
    """The unit id cell as ``csv.writer`` writes it inside a full row.

    A row is written, not the id alone: ``writerow([""])`` gives ``""``,
    while an empty first cell of a longer row is written as nothing.
    """
    return _csv_row([unit_id, 0])[: -len(",0\r\n")]


def save_csv(fleet: list[UnitSeries], path: str | Path) -> None:
    """Write a fleet to CSV in FLEET_COLUMNS order.

    The bytes are those of ``csv.writer`` rows of ``format_float`` cells.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_row(FLEET_COLUMNS))
        write_fleet_rows(fh, fleet)


def write_fleet_rows(fh, fleet) -> None:
    """Write the data rows of save_csv for ``fleet`` to the text file ``fh``.

    ``fh`` is opened with ``newline=""``. The rows are formatted
    ``_WRITE_CHUNK_ROWS`` at a time, one write each.
    """
    for unit in fleet:
        uid = _unit_field(unit.unit_id)
        for start in range(0, unit.n_rows, _WRITE_CHUNK_ROWS):
            rows = slice(start, start + _WRITE_CHUNK_ROWS)
            values = np.hstack([unit.w[rows], unit.x[rows]]).tolist()
            fh.write(
                "".join(
                    f"{uid},{cycle},{','.join(map(repr, row))}\r\n"
                    for cycle, row in zip(unit.cycle_of[rows].tolist(), values)
                )
            )


def join_fleet_parts(parts: list[Path], path: str | Path) -> None:
    """Write the fleet CSV whose data rows are the files ``parts``, in order.

    Each part holds write_fleet_rows rows; the header is save_csv's.
    """
    with Path(path).open("wb") as fh:
        fh.write(_csv_row(FLEET_COLUMNS).encode())
        for part in parts:
            with part.open("rb") as src:
                shutil.copyfileobj(src, fh)


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


def _ragged_row(path: Path, line: int, row: list[str], header: list[str]) -> RaggedRow:
    return RaggedRow(f"{path}: line {line} has {len(row)} cells, the header has {len(header)}")


def _records(path: Path, fh):
    """Header and ``(line, {column: cell})`` rows of a CSV sidecar.

    A row whose cell count differs from the header's, a blank line
    included, is a RaggedRow, the rule of load_csv.
    """
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        raise EmptyFile(f"{path} has no header row")

    def rows():
        for row in reader:
            if len(row) != len(header):
                raise _ragged_row(path, reader.line_num, row, header)
            yield reader.line_num, dict(zip(header, row))

    return header, rows()


def _int_cell(path: Path, line: int, row: dict, column: str) -> int | None:
    """Integer value of a cell, None when empty; anything else is a NonNumericCell."""
    token = row[column].strip()
    if not token:
        return None
    try:
        return int(token)
    except ValueError:
        raise NonNumericCell(
            f"{path}: non-integer value {token!r} in column {column!r}, line {line}"
        ) from None


@_utf8_input
def load_ground_truth(path: str | Path) -> dict[str, TruthRecord]:
    """Ground-truth sidecar by unit id; a second row for one unit is a DataError."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        header, rows = _records(path, fh)
        for name in ("unit", "family", "fault_cycle", "faulty_sensors"):
            if name not in header:
                raise MissingColumn(f"{path} is missing required column {name!r}")
        out: dict[str, TruthRecord] = {}
        for line, row in rows:
            if row["unit"] in out:
                raise DataError(f"{path}: line {line} repeats unit {row['unit']!r}")
            sensors = tuple(s for s in row["faulty_sensors"].split(";") if s)
            out[row["unit"]] = TruthRecord(
                unit_id=row["unit"],
                family=row["family"],
                fault_cycle=_int_cell(path, line, row, "fault_cycle"),
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


@_utf8_input
def load_reports(path: str | Path):
    """Read detection rows back, grouped as (model, hi_kind) -> reports.

    A second row for one (model, hi_kind, unit) is a DataError, and so is a
    delay other than alarm_cycle - fault_cycle (empty when either is).
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        header, rows = _records(path, fh)
        missing = set(REPORT_COLUMNS) - set(header)
        if missing:
            raise MissingColumn(f"{path} is missing column(s) {sorted(missing)}")
        groups: dict[tuple[str, str], list[DetectionReport]] = {}
        seen: set[tuple[str, str, str]] = set()
        for line, row in rows:
            if row["gt_known"] not in ("0", "1"):
                raise NonNumericCell(
                    f"{path}: gt_known must be 0 or 1, got {row['gt_known']!r}, line {line}"
                )
            key = (row["model"], row["hi_kind"])
            if (*key, row["unit"]) in seen:
                raise DataError(
                    f"{path}: line {line} repeats unit {row['unit']!r} "
                    f"of the {key[0]} {key[1]} reports"
                )
            seen.add((*key, row["unit"]))
            alarm = _int_cell(path, line, row, "alarm_cycle")
            fault = _int_cell(path, line, row, "fault_cycle")
            delay = _int_cell(path, line, row, "delay")
            if delay != (None if alarm is None or fault is None else alarm - fault):
                raise DataError(
                    f"{path}: line {line}, unit {row['unit']!r}: delay {row['delay']!r} "
                    "is not alarm_cycle - fault_cycle"
                )
            groups.setdefault(key, []).append(
                DetectionReport(
                    unit_id=row["unit"],
                    dataset_id=row["dataset"],
                    alarm_cycle=alarm,
                    n_true=fault,
                    delay=delay,
                    triggered_first=tuple(
                        s for s in row["triggered_first"].split(";") if s
                    ),
                    ground_truth_known=row["gt_known"] == "1",
                )
            )
    if not groups:
        raise EmptyFile(f"{path} has a header but no data rows")
    return groups


def save_stats(stats: HealthyStats, path: str | Path) -> None:
    """Healthy statistics sidecar: one row per indicator channel."""
    write_table(
        path,
        ["channel", "mu", "sigma", "tau", "fitted_on"],
        (
            [name, format_float(mu), format_float(sigma), format_float(tau), stats.fitted_on]
            for name, mu, sigma, tau in zip(stats.channel_names, stats.mu, stats.sigma, stats.tau)
        ),
    )


def save_cycle_hi_csv(cycle_averages: dict, channel_names, path: str | Path) -> None:
    """Cycle-averaged indicators for plotting: unit, cycle, channel, value."""
    write_table(
        path,
        ["unit", "cycle", "channel", "value"],
        (
            [unit_id, int(cyc), name, format_float(value)]
            for unit_id, avg in cycle_averages.items()
            for cyc, row in zip(avg.cycle_ids, avg.values)
            for name, value in zip(channel_names, row)
        ),
    )


def stats_to_blob(stats: HealthyStats) -> dict:
    """JSON-ready healthy statistics (stored in checkpoint metadata)."""
    return {
        "channels": list(stats.channel_names),
        "mu": stats.mu.tolist(),
        "sigma": stats.sigma.tolist(),
        "tau": stats.tau.tolist(),
        "fitted_on": stats.fitted_on,
    }


def stats_from_blob(blob: dict) -> HealthyStats:
    """Inverse of stats_to_blob; a non-finite mu, sigma or tau is a CorruptCheckpoint."""
    try:
        stats = HealthyStats(
            mu=np.asarray(blob["mu"], dtype=np.float64),
            sigma=np.asarray(blob["sigma"], dtype=np.float64),
            tau=np.asarray(blob["tau"], dtype=np.float64),
            fitted_on=int(blob["fitted_on"]),
            channel_names=blob["channels"],
        )
    except (KeyError, TypeError, ValueError, ShapeMismatch) as exc:
        raise CorruptCheckpoint(f"malformed healthy statistics blob ({exc})") from None
    _require_finite([stats.mu, stats.sigma, stats.tau], "checkpoint healthy statistics")
    return stats


def _require_finite(arrays, what: str) -> None:
    """Raise CorruptCheckpoint naming ``what`` unless every value of ``arrays`` is finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise CorruptCheckpoint(f"{what} hold a non-finite number")


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
        "activations": _activation_tags(net.n_layers),
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
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def load_checkpoint(path: str | Path) -> tuple[ResidualModel, dict]:
    """Load a checkpointed model; returns (model, training metadata).

    The layer dims and activation tags must be those the weights fix, and
    every parameter and standardizer value must be finite.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
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
        activations = list(payload["activations"])
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
    if not isinstance(metadata, dict):
        raise CorruptCheckpoint(f"{path}: checkpoint metadata must be a JSON object")
    try:
        net = nn.DenseNet(weights, biases)
        model = ResidualModel(kind, net, standardizer, n_w)
    except Exception as exc:
        raise CorruptCheckpoint(f"{path}: inconsistent checkpoint ({exc})") from None
    if dims != net.layer_dims or activations != _activation_tags(net.n_layers):
        raise CorruptCheckpoint(
            f"{path}: layer_dims {list(dims)} and activations {activations} "
            f"do not fit weights of layer dims {list(net.layer_dims)}"
        )
    _require_finite(
        [*net.params(), standardizer.mean, standardizer.std, standardizer.epsilon],
        f"{path}: weights, biases and standardizer values",
    )
    return model, metadata


def write_manifest(path: Path, command: str, cfg: RunConfig, extras: dict) -> None:
    """Write a run manifest: the command, the version, one line per ``extras``
    entry, then the effective configuration."""
    lines = [
        f"command: {command}",
        f"resfault_version: {__version__}",
    ]
    for key, value in extras.items():
        lines.append(f"{key}: {value}")
    lines.append("config:")
    lines.extend("  " + ln for ln in dump_config(cfg).splitlines())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _mark_none(value, text=format_float) -> str:
    return NO_DETECTION_MARK if value is None else text(value)


def write_evaluations(out: Path, evaluations) -> None:
    """Write evaluation_units.csv and evaluation_summary.csv under ``out``.

    Also prints one summary line per (model, indicator-kind) group.
    """
    write_table(
        out / "evaluation_units.csv",
        ["model", "hi_kind", "dataset", "unit", "fault_cycle", "n_detected", "avg_delay"],
        (
            [
                ev.model_kind,
                ev.hi_kind,
                u.dataset_id,
                u.unit_id,
                _mark_none(u.n_true, str),
                u.n_detected,
                _mark_none(u.mean_delay),
            ]
            for ev in evaluations
            for u in ev.units
        ),
    )
    write_table(
        out / "evaluation_summary.csv",
        ["model", "hi_kind", "n_realisations", "n_units", "n_detected_units",
         "mean_delay", "fpr_percent"],
        (
            [
                ev.model_kind,
                ev.hi_kind,
                ev.n_realisations,
                len(ev.units),
                sum(1 for u in ev.units if u.n_detected > 0),
                _mark_none(ev.mean_delay),
                _mark_none(ev.fpr, lambda v: format_float(100.0 * v)),
            ]
            for ev in evaluations
        ),
    )
    for ev in evaluations:
        delay = _mark_none(ev.mean_delay, "{:.2f}".format)
        fpr = _mark_none(ev.fpr, "{:.1%}".format)
        print(
            f"{ev.model_kind} {ev.hi_kind}: mean delay {delay} cycles, "
            f"FPR {fpr} over {len(ev.units)} units"
        )

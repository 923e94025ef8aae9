"""CSV ingestion/emission, ground-truth sidecars, and model checkpoints.

Data interchange is plain CSV with an explicit header. Checkpoints are
JSON: weights round-trip bit-exactly because values are written with
shortest round-trip decimal formatting and parsed back as 64-bit floats.
"""

from __future__ import annotations

import array
import codecs
import csv
import functools
import io
import itertools
import json
import os
import shutil
import warnings
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

    A well-formed file is read by one ``np.loadtxt`` call. Anything else is
    parsed again by the ``csv`` module, which names the offending line:
    quotes, a ``\\r`` not followed by ``\\n``, ragged or blank lines, a
    header of 64 KiB or more, a missing or repeated column name, a cell of
    NUMERIC_COLUMNS that is not a finite number, a unit id of 16 bytes or
    more, a file that is not UTF-8 or holds a NUL or a \\x1c-\\x1f byte.
    """
    path = Path(path)
    unit_ids, codes, table = _parse_fast(path) or _parse_csv(path)
    cycle_int = table[:, 0].astype(np.int64)
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
                z=table[idx, 1:],
                n_w=len(DEFAULT_W_CHANNELS),
                cycle_of=cycle_int[idx],
                channel_names=DEFAULT_W_CHANNELS + DEFAULT_X_CHANNELS,
            )
        )
    return fleet


# Bytes read per step of the byte pass in _parse_fast.
_SCAN_BLOCK_BYTES = 1 << 20
# Bytes np.loadtxt reads otherwise than csv and float: a quote, a NUL, which
# an "S" cell drops at its end, and the separators \x1c-\x1f, which numpy
# strips from a number as whitespace.
_REFUSED_BYTES = (b'"', b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# Width of a unit cell in _parse_fast; a cell that fills it may have been cut.
_UNIT_CELL_BYTES = 16
# Longest header _parse_fast reads; a file with no "\n" that early goes to the csv path.
_HEADER_MAX_BYTES = 1 << 16


def _parse_fast(path: Path):
    """Columns of a well-formed fleet CSV, or None when the csv path must decide.

    A byte pass refuses non-UTF-8, _REFUSED_BYTES and a lone "\\r" and counts
    lines; one ``np.loadtxt`` call reads unit cells as bytes, NUMERIC_COLUMNS
    as floats and other cells as one byte. Any file load_csv names is None.
    """
    with path.open("rb") as fh:
        first = fh.readline(_HEADER_MAX_BYTES)
        if not first.endswith(b"\n"):
            return None
        fh.seek(0)
        decode = codecs.getincrementaldecoder("utf-8")().decode
        n_lines, lone_cr, last = 0, 0, b"\n"
        try:
            while block := fh.read(_SCAN_BLOCK_BYTES):
                if any(byte in block for byte in _REFUSED_BYTES):
                    return None
                decode(block)
                # a lone "\r" ends a csv row where numpy need not; a block may cut a "\r\n"
                lone_cr += block.count(b"\r") - block.count(b"\r\n") - (last + block[:1] == b"\r\n")
                n_lines, last = n_lines + block.count(b"\n"), block[-1:]
            decode(b"", final=True)
        except UnicodeDecodeError:
            return None
        n_lines += last != b"\n"
        header = first.removesuffix(b"\n").removesuffix(b"\r").decode().split(",")
        if lone_cr or not set(FLEET_COLUMNS) <= set(header) or len(set(header)) < len(header):
            return None
        unit_at = header.index(UNIT_COLUMN)
        # named by place: numpy names an empty field f<i>, which a column may be called
        fields = [(f"c{i}", "f8" if name in NUMERIC_COLUMNS else "S1")
                  for i, name in enumerate(header)]
        fields[unit_at] = (f"c{unit_at}", f"S{_UNIT_CELL_BYTES}")
        fh.seek(len(first))
        try:
            # no data lines, or only blank ones, is a numpy warning, not an error
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                # latin-1 hands each byte of a unit cell to its "S" field unchanged
                rows = np.loadtxt(fh, fields, delimiter=",", comments=None, quotechar=None,
                                  ndmin=1, encoding="latin-1")
        except (ValueError, Warning):
            return None
    # imported here: numpy.ma, which it loads, adds to the start-up of every command
    from numpy.lib.recfunctions import structured_to_unstructured

    table = structured_to_unstructured(
        rows[[f"c{header.index(name)}" for name in NUMERIC_COLUMNS]], copy=False
    )
    cycle = table[:, 0]
    if len(rows) != n_lines - 1 or not np.isfinite(table).all() or np.any(cycle != np.floor(cycle)):
        return None
    cells = rows[f"c{unit_at}"]
    starts = np.flatnonzero(np.concatenate(([True], cells[1:] != cells[:-1])))
    index: dict[bytes, int] = {}
    run_codes = [index.setdefault(cell, len(index)) for cell in cells[starts].tolist()]
    if any(len(cell) == _UNIT_CELL_BYTES for cell in index):
        return None
    codes = np.repeat(np.array(run_codes, dtype=np.int64), np.diff(starts, append=len(cells)))
    return [cell.decode() for cell in index], codes, table


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
            values = unit.z[rows].tolist()
            fh.write(
                "".join(
                    f"{uid},{cycle},{','.join(map(repr, row))}\r\n"
                    for cycle, row in zip(unit.cycle_of[rows].tolist(), values)
                )
            )


def join_fleet_parts(parts: list[Path], path: str | Path) -> None:
    """Write the fleet CSV whose data rows are the files ``parts``, in order.

    Each part holds write_fleet_rows rows; the header is save_csv's. The
    rows go to a hidden file beside ``path``, which replaces ``path`` once
    it is whole and is deleted when any step fails.
    """
    path = Path(path)
    partial = path.with_name(f".{path.name}.partial")
    try:
        with partial.open("wb") as fh:
            fh.write(_csv_row(FLEET_COLUMNS).encode())
            for part in parts:
                with part.open("rb") as src:
                    shutil.copyfileobj(src, fh)
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


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
            report = DetectionReport(
                unit_id=row["unit"],
                dataset_id=row["dataset"],
                alarm_cycle=_int_cell(path, line, row, "alarm_cycle"),
                n_true=_int_cell(path, line, row, "fault_cycle"),
                triggered_first=tuple(s for s in row["triggered_first"].split(";") if s),
                ground_truth_known=row["gt_known"] == "1",
            )
            if _int_cell(path, line, row, "delay") != report.delay:
                raise DataError(
                    f"{path}: line {line}, unit {row['unit']!r}: delay {row['delay']!r} "
                    "is not alarm_cycle - fault_cycle"
                )
            groups.setdefault(key, []).append(report)
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

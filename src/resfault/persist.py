"""CSV ingestion/emission, ground-truth sidecars, and model checkpoints.

Data interchange is plain CSV with an explicit header. Checkpoints are
JSON: weights round-trip bit-exactly because values are written with
shortest round-trip decimal formatting and parsed back as 64-bit floats.
The parse of a fleet CSV is kept beside it in a binary twin, which later
reads of the same bytes load. The commands' outputs appear only once whole,
and those of a command that fails not at all.
"""

from __future__ import annotations

import array
import contextlib
import csv
import io
import itertools
import json
import math
import operator
import os
import shutil
import weakref
from pathlib import Path

import numpy as np

from . import __version__, nn
from .config import RunConfig, dump_config
from .data_model import CHANNEL_NAMES, N_W, TruthRecord, UnitSeries
from .detector import DetectionReport, HealthyStats
from .errors import ComputeError, DataError
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
FLEET_COLUMNS = (UNIT_COLUMN, CYCLE_COLUMN) + CHANNEL_NAMES
# The columns of the table the fleet parser returns, next to the unit ids in
# order of first appearance and each row's index into them.
NUMERIC_COLUMNS = (CYCLE_COLUMN,) + CHANNEL_NAMES


def format_float(v: float) -> str:
    return repr(float(v))


@contextlib.contextmanager
def _published(path: str | Path, mode: str, **open_args):
    """A file open for writing whose content appears at ``path`` only once whole.

    The file is a hidden temporary beside ``path``, opened with ``mode`` and
    ``open_args`` like any output, so with the same permissions. It
    replaces ``path`` when the ``with`` block ends without error, and it is
    deleted whatever happens. An error that names the temporary, such as
    ``path`` being a directory, is raised naming ``path``.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        fh = temporary.open(mode, **open_args)
        try:
            with fh:
                yield fh
            os.replace(temporary, path)
        finally:
            temporary.unlink(missing_ok=True)
    except OSError as exc:
        if exc.filename != str(temporary):
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def write_table(path: str | Path, header, rows) -> None:
    """Write a CSV table: the header row, then every row of ``rows``."""
    with _published(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _rows(path: Path, columns):
    """``(line, cells)`` of each data row of the CSV ``path``: the file line
    the row ends on, and the row's cells of ``columns``, in that order.

    The file is UTF-8 text read by the ``csv`` module, so a cell may be
    quoted as ``csv.writer`` quotes it. A column named twice is read from its
    first place; a column not in ``columns`` is read and not kept. A typed
    error names the first defect, in this order: no header; a row, a blank
    one included, whose cell count is not the header's; no data rows;
    missing columns, named together in ``columns`` order.
    """
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path} has no header row")
            missing = [name for name in columns if name not in header]
            pick = None if missing else operator.itemgetter(*map(header.index, columns))
            header_end = reader.line_num
            for row in reader:
                if len(row) != len(header):
                    raise DataError(
                        f"{path}: line {reader.line_num} has {len(row)} cells, "
                        f"the header has {len(header)}"
                    )
                if pick:
                    yield reader.line_num, pick(row)
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path} is not UTF-8 text: byte {exc.object[exc.start]:#04x} ({exc.reason})"
        ) from None
    if reader.line_num == header_end:  # no row since the header
        raise DataError(f"{path} has a header but no data rows")
    if missing:
        raise DataError(f"{path} is missing column(s) {missing}")


def load_csv(path: str | Path):
    """An iterator of the per-unit series (UnitSeries) of fleet CSV ``path``.

    Rows are grouped by unit id (units ordered by first appearance) and
    stably sorted by cycle within each unit, keeping row order inside a
    cycle. Every error is raised before this returns. The iterator reads
    each unit's rows from the twin when asked, so a read holds one raw
    unit, or after a parse slices the parse's table.

    The file is read by _rows. A typed error names the first defect: one of
    _rows' defects, a cell of NUMERIC_COLUMNS that is not a finite number, a
    cycle that is not a 64-bit integer.

    The parse of a file that parses is kept in its twin (twin_path), in
    that order; a later read of the same bytes loads the twin and parses nothing.
    """
    path = Path(path)
    key = _fleet_key(path)
    units = _load_twin(path, key)
    if units is None:
        unit_ids, codes, table = _parse_csv(path)
        order = np.lexsort((table[:, 0], codes))
        if not np.array_equal(order, np.arange(len(order))):
            table = table[order]
        row_ends = np.cumsum(np.bincount(codes), dtype=np.int64)
        _save_twin(path, key, unit_ids, row_ends, [table])
        units = _units(unit_ids, [0, *row_ends.tolist()], lambda lo, hi: table[lo:hi])
    return units


def _units(unit_ids, bounds: list[int], rows):
    """Each unit of ``unit_ids``: its rows ``rows(lo, hi)`` between consecutive ``bounds``."""
    for uid, lo, hi in zip(unit_ids, bounds, bounds[1:]):
        block = rows(lo, hi)
        yield UnitSeries(uid, "", z=block[:, 1:], cycle_of=block[:, 0].astype(np.int64))
        del block  # else it holds this unit's rows while the next are read


# Hashed before a fleet CSV's bytes into the key of its twin; a change to
# what load_csv's parse returns needs a new tag.
_TWIN_TAG = b"resfault fleet twin 2\n"
# The arrays of a twin, in order: dtype and number of dimensions of the
# key, the unit ids' UTF-8 bytes, the end of each id in them, the end of
# each unit's rows in the table, and the NUMERIC_COLUMNS table.
_TWIN_ARRAYS = (
    (np.dtype(np.uint8), 1),
    (np.dtype(np.uint8), 1),
    (np.dtype(np.int64), 1),
    (np.dtype(np.int64), 1),
    (np.dtype(np.float64), 2),
)


def twin_path(path: Path) -> Path:
    """The twin of fleet CSV ``path``: a hidden file beside it, ``.<name>.npy``."""
    return path.with_name(f".{path.name}.npy")


class _KeyedWriter:
    """Writes to the binary file ``fh``, or nowhere when it is None, and
    hashes what it writes, after _TWIN_TAG, into the key of a twin."""

    def __init__(self, fh=None):
        # imported here: it loads OpenSSL, which commands that read no fleet need not map
        import hashlib

        self.fh, self.digest = fh, hashlib.sha256(_TWIN_TAG)

    def write(self, data) -> None:
        self.digest.update(data)
        if self.fh is not None:
            self.fh.write(data)

    def key(self) -> np.ndarray:
        """The SHA-256 of _TWIN_TAG and the bytes written so far, as 32 uint8."""
        return np.frombuffer(self.digest.digest(), dtype=np.uint8)


def _fleet_key(path: Path) -> np.ndarray:
    """The key of the twin of ``path``: _KeyedWriter's key of its bytes."""
    keyed = _KeyedWriter()
    for block in _file_blocks([path]):
        keyed.write(block)
    return keyed.key()


def _file_blocks(paths):
    """The bytes of the files ``paths``, in order, in blocks of at most 64 KiB.

    A block that small is taken from the heap and reused, where a larger one
    would leave its pages to the process.
    """
    for path in paths:
        with path.open("rb") as fh:
            while block := fh.read(1 << 16):
                yield block


def _save_twin(path: Path, key: np.ndarray, unit_ids, row_ends: np.ndarray, table) -> None:
    """Publish a parse of the bytes ``key`` as the twin of ``path``: one
    array per _TWIN_ARRAYS entry, in the ``np.save`` format.

    The parse is the ``unit_ids``, the int64 end of each unit's rows
    ``row_ends``, and the NUMERIC_COLUMNS float64 table of the rows in unit
    and cycle order, in C order, given as blocks that hold the data one
    after another, arrays or bytes. A twin that cannot be written, as in a
    read-only directory, is left out.
    """
    encoded = [uid.encode() for uid in unit_ids]
    blob = b"".join(encoded)
    arrays = (
        ((len(key),), [key]),
        ((len(blob),), [blob]),
        ((len(encoded),), [np.cumsum([len(e) for e in encoded], dtype=np.int64)]),
        ((len(row_ends),), [row_ends]),
        ((int(row_ends[-1]), len(NUMERIC_COLUMNS)), table),
    )
    try:
        with _published(twin_path(path), "wb") as fh:
            for (dtype, _), (shape, blocks) in zip(_TWIN_ARRAYS, arrays):
                # the header np.save writes for such an array, then its data
                descr = np.lib.format.dtype_to_descr(dtype)
                header = {"descr": descr, "fortran_order": False, "shape": shape}
                np.lib.format.write_array_header_1_0(fh, header)
                for block in blocks:
                    fh.write(block)
    except OSError:
        pass


def _load_twin(path: Path, key: np.ndarray):
    """The units of the twin of ``path`` for bytes ``key``, or None.

    None also when the twin is missing, cut short, longer than its arrays
    or not what _save_twin writes: other dtypes or shapes, ids that repeat
    or are not UTF-8, not one row end per id, a unit with no rows, a last
    row end that is not the table's row count. The table is read later, a
    unit at a time, on the handle that was checked.
    """
    try:
        with contextlib.ExitStack() as stack:
            fh = stack.enter_context(twin_path(path).open("rb"))
            size = os.fstat(fh.fileno()).st_size
            stored, blob, ends, row_ends = [_read_array(fh, size, *a) for a in _TWIN_ARRAYS[:-1]]
            shape = _read_array(fh, size, *_TWIN_ARRAYS[-1], data=False)
            unit_ids = [bytes(blob[a:b]).decode() for a, b in zip([0, *ends], ends)]
            bounds = [0, *row_ends.tolist()]
            if not (
                fh.tell() + math.prod(shape) * 8 == size  # the float64 table ends the file
                and np.array_equal(stored, key)
                and np.array_equal(ends[-1:], [len(blob)])
                and np.all(np.diff(ends, prepend=0) >= 0)
                and len(row_ends) == len(ends)
                and np.all(np.diff(bounds) > 0)
                and shape == (bounds[-1], len(NUMERIC_COLUMNS))
                and len(set(unit_ids)) == len(unit_ids)
            ):
                return None
            stack.pop_all()  # the units read on fh
    except (OSError, ValueError):
        return None

    def rows(lo: int, hi: int) -> np.ndarray:
        return np.fromfile(fh, np.float64, (hi - lo) * shape[1]).reshape(hi - lo, shape[1])

    units = _units(unit_ids, bounds, rows)
    weakref.finalize(units, fh.close)  # read or not, the units close fh when they go
    return units


def _read_array(fh, size: int, dtype: np.dtype, ndim: int, data: bool = True):
    """The next ``np.save`` array of ``fh``, a file of ``size`` bytes, or
    without ``data`` its shape, read up to its data. Anything but a C-order
    ``dtype`` array of ``ndim`` dimensions whose data the file holds is a
    ValueError, raised before the data is read."""
    if np.lib.format.read_magic(fh) != (1, 0):
        raise ValueError("not a version 1.0 .npy array")
    shape, fortran_order, stored = np.lib.format.read_array_header_1_0(fh)
    if (
        stored != dtype
        or fortran_order
        or len(shape) != ndim
        or min(shape) < 0
        or math.prod(shape) * dtype.itemsize > size - fh.tell()
    ):
        raise ValueError(f"unexpected array {stored} {shape}")
    return np.fromfile(fh, dtype=dtype, count=math.prod(shape)).reshape(shape) if data else shape


def _parse_csv(path: Path):
    """Columns of any fleet CSV, read by _rows.

    Raises the typed error of the first defect: one of _rows' defects, then
    column by column in NUMERIC_COLUMNS order the first non-numeric or
    non-finite cell, as written, with its line.
    """
    index: dict[str, int] = {}
    codes = []
    values = array.array("d")
    non_numeric: dict[int, tuple[int, str]] = {}  # column -> first (line, cell)
    for line, (unit, *numbers) in _rows(path, FLEET_COLUMNS):
        codes.append(index.setdefault(unit, len(index)))
        try:
            values.extend([float(cell) for cell in numbers])
        except ValueError:
            for j, cell in enumerate(numbers):
                try:
                    values.append(float(cell))
                except ValueError:
                    non_numeric.setdefault(j, (line, cell))
                    values.append(np.nan)
    table = np.frombuffer(values).reshape(len(codes), len(NUMERIC_COLUMNS))
    for j, name in enumerate(NUMERIC_COLUMNS):
        if j in non_numeric:
            line, cell = non_numeric[j]
            raise DataError(
                f"{path}: non-numeric value {cell!r} in column {name!r}, line {line}"
            )
        finite = np.isfinite(table[:, j])
        if not finite.all():
            line, cell = _cell(path, int(np.flatnonzero(~finite)[0]), j)
            raise DataError(
                f"{path}: non-finite value {cell!r} in column {name!r}, line {line}"
            )
        column = table[:, j]
        if name == CYCLE_COLUMN and np.any((column != np.floor(column)) | (abs(column) >= 2**63)):
            raise DataError(f"{path}: cycle column must hold integers")
    return list(index), np.array(codes, dtype=np.int64), table


def _cell(path: Path, row: int, column: int) -> tuple[int, str]:
    """The line of data row ``row`` (0-based) of a fleet CSV, and its cell
    ``column`` of NUMERIC_COLUMNS, as written."""
    line, (_, *numbers) = next(itertools.islice(_rows(path, FLEET_COLUMNS), row, None))
    return line, numbers[column]


# Rows formatted per write: one string per chunk keeps memory flat, where
# one string per unit would hold a whole unit's text. A chunk's float cells
# are formatted by one orjson call on its float64 rows.
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

    The bytes are those of ``csv.writer`` rows of ``format_float`` cells,
    as written by write_fleet_rows.
    """
    with _published(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_row(FLEET_COLUMNS))
        write_fleet_rows(fh, fleet)


def _repr_exponent_rows(z: np.ndarray) -> np.ndarray:
    """The indices of the rows of ``z`` with a cell that ``repr`` writes in
    exponent form or as a word: a non-zero |x| < 1e-4, an |x| >= 1e16, or
    a value that is not finite. orjson writes these cells otherwise."""
    magnitude = np.abs(z)
    fixed = (magnitude == 0) | (magnitude >= 1e-4) & (magnitude < 1e16)
    return np.flatnonzero(~fixed.all(axis=1))


def write_fleet_rows(fh, fleet, table=None) -> None:
    """Write the data rows of save_csv for ``fleet`` to the text file ``fh``.

    ``fh`` is opened with ``newline=""``. The rows are formatted
    ``_WRITE_CHUNK_ROWS`` at a time, one write each. With ``table``, a
    binary file, each chunk's NUMERIC_COLUMNS are also written to it as
    float64 in C order: the data of the twin's table for these rows.

    The bytes are ``csv.writer`` rows of ``format_float`` cells: no cell
    needs quoting but the unit id. orjson writes each float64 with the
    shortest digits that read back to it, as ``repr`` does, and in the same
    fixed notation wherever ``repr`` uses one; a row with a cell ``repr``
    writes in exponent form or as a word is written by ``format_float``.
    """
    # imported here: commands that write no fleet need not load it
    import orjson

    for unit in fleet:
        uid = _unit_field(unit.unit_id)
        for start in range(0, unit.n_rows, _WRITE_CHUNK_ROWS):
            rows = slice(start, start + _WRITE_CHUNK_ROWS)
            z = np.ascontiguousarray(unit.z[rows])
            # [[a,b,...],[c,d,...],...]: one text of comma-joined cells per row
            texts = orjson.dumps(z, option=orjson.OPT_SERIALIZE_NUMPY).decode()[2:-2].split("],[")
            for i in _repr_exponent_rows(z).tolist():
                texts[i] = ",".join(map(format_float, z[i]))
            fh.write(
                "".join(
                    f"{uid},{cycle},{text}\r\n"
                    for cycle, text in zip(unit.cycle_of[rows].tolist(), texts)
                )
            )
            if table is not None:
                table.write(np.column_stack((unit.cycle_of[rows], z)))


def join_fleet_parts(
    parts: list[Path], tables: list[Path], unit_ids, row_counts, path: Path
) -> None:
    """Write the fleet CSV whose data rows are the files ``parts``, in order,
    and its twin.

    Each part holds write_fleet_rows rows, and the table of the same index
    the rows' table data; the rows are in unit and cycle order, those of the
    distinct units ``unit_ids``, ``row_counts`` rows each. The header is
    save_csv's. The fleet's bytes are hashed as they are written, and the
    twin is the one load_csv would keep. Both files are _published, so
    ``path`` appears only once whole.
    """
    with _published(path, "wb") as fh:
        keyed = _KeyedWriter(fh)
        keyed.write(_csv_row(FLEET_COLUMNS).encode())
        for part in parts:
            with part.open("rb") as src:
                shutil.copyfileobj(src, keyed)
        row_ends = np.cumsum(row_counts, dtype=np.int64)
        _save_twin(path, keyed.key(), unit_ids, row_ends, _file_blocks(tables))


TRUTH_COLUMNS = ("unit", "family", "fault_cycle", "faulty_sensors")


def save_ground_truth(truths, path: str | Path) -> None:
    """Write the ground-truth sidecar (empty fault cycle = healthy unit)."""
    write_table(
        path,
        TRUTH_COLUMNS,
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


def _int_cell(path: Path, line: int, column: str, cell: str) -> int | None:
    """Integer value of ``cell``, None when empty; anything else is a DataError."""
    token = cell.strip()
    if not token:
        return None
    try:
        return int(token)
    except ValueError:
        raise DataError(
            f"{path}: non-integer value {token!r} in column {column!r}, line {line}"
        ) from None


def load_ground_truth(path: str | Path) -> dict[str, TruthRecord]:
    """Ground-truth sidecar by unit id, read by _rows; a second row for one
    unit is a DataError."""
    path = Path(path)
    out: dict[str, TruthRecord] = {}
    for line, (unit, family, fault_cycle, sensors) in _rows(path, TRUTH_COLUMNS):
        if unit in out:
            raise DataError(f"{path}: line {line} repeats unit {unit!r}")
        out[unit] = TruthRecord(
            unit_id=unit,
            family=family,
            fault_cycle=_int_cell(path, line, "fault_cycle", fault_cycle),
            fault_sensors=tuple(s for s in sensors.split(";") if s),
        )
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
    """Read detection rows back by _rows, grouped as (model, hi_kind) -> reports.

    A second row for one (model, hi_kind, unit) is a DataError, and so is a
    delay other than alarm_cycle - fault_cycle (empty when either is).
    """
    path = Path(path)
    groups: dict[tuple[str, str], list[DetectionReport]] = {}
    seen: set[tuple[str, str, str]] = set()
    for line, row in _rows(path, REPORT_COLUMNS):
        model, hi_kind, unit, dataset, fault_cycle, alarm_cycle, delay, triggered, gt_known = row
        if gt_known not in ("0", "1"):
            raise DataError(
                f"{path}: gt_known must be 0 or 1, got {gt_known!r}, line {line}"
            )
        if (model, hi_kind, unit) in seen:
            raise DataError(
                f"{path}: line {line} repeats unit {unit!r} of the {model} {hi_kind} reports"
            )
        seen.add((model, hi_kind, unit))
        report = DetectionReport(
            unit_id=unit,
            dataset_id=dataset,
            alarm_cycle=_int_cell(path, line, "alarm_cycle", alarm_cycle),
            n_true=_int_cell(path, line, "fault_cycle", fault_cycle),
            triggered_first=tuple(s for s in triggered.split(";") if s),
            ground_truth_known=gt_known == "1",
        )
        if _int_cell(path, line, "delay", delay) != report.delay:
            raise DataError(
                f"{path}: line {line}, unit {unit!r}: delay {delay!r} "
                "is not alarm_cycle - fault_cycle"
            )
        groups.setdefault((model, hi_kind), []).append(report)
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
    """Inverse of stats_to_blob; a non-finite mu, sigma or tau is a DataError."""
    try:
        stats = HealthyStats(
            mu=np.asarray(blob["mu"], dtype=np.float64),
            sigma=np.asarray(blob["sigma"], dtype=np.float64),
            tau=np.asarray(blob["tau"], dtype=np.float64),
            fitted_on=int(blob["fitted_on"]),
            channel_names=blob["channels"],
        )
    except (KeyError, TypeError, ValueError, OverflowError, ComputeError) as exc:
        raise DataError(f"malformed healthy statistics blob ({exc})") from None
    _require_finite([stats.mu, stats.sigma, stats.tau], "checkpoint healthy statistics")
    return stats


def _require_finite(arrays, what: str) -> None:
    """Raise DataError naming ``what`` unless every value of ``arrays`` is finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise DataError(f"{what} hold a non-finite number")


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
        "n_w": N_W,
        "metadata": metadata or {},
    }
    with _published(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=1))


def load_checkpoint(path: str | Path) -> tuple[ResidualModel, dict]:
    """Load a checkpointed model; returns (model, training metadata).

    The layer dims and activation tags must be those the weights fix, the
    descriptor count and standardizer width those of FLEET_COLUMNS, and
    every parameter and standardizer value must be finite.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: not valid checkpoint JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: checkpoint must be a JSON object")
    version = payload.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise DataError(
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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed checkpoint ({exc})") from None
    if not isinstance(metadata, dict):
        raise DataError(f"{path}: checkpoint metadata must be a JSON object")
    try:
        net = nn.DenseNet(weights, biases)
        model = ResidualModel(kind, net, standardizer)
    except Exception as exc:
        raise DataError(f"{path}: inconsistent checkpoint ({exc})") from None
    if dims != net.layer_dims or activations != _activation_tags(net.n_layers):
        raise DataError(
            f"{path}: layer_dims {list(dims)} and activations {activations} "
            f"do not fit weights of layer dims {list(net.layer_dims)}"
        )
    if n_w != N_W:
        raise DataError(
            f"{path}: n_w {n_w} and a standardizer over {standardizer.n_channels} channels "
            f"do not fit the fleet's {N_W} descriptors of {len(CHANNEL_NAMES)} channels"
        )
    _require_finite(
        [*net.params(), standardizer.mean, standardizer.std, standardizer.epsilon],
        f"{path}: weights, biases and standardizer values",
    )
    return model, metadata


@contextlib.contextmanager
def outputs(manifest: Path, command: str, cfg: RunConfig, *paths: Path):
    """The write protocol of one command whose outputs are ``paths`` and the
    run manifest ``manifest``: a failed command leaves none of them.

    On entry the directory of each is made, then an earlier run's manifest
    and ``paths`` are deleted. The block fills the yielded dict with the
    manifest's extra lines. When it ends without error the manifest is
    written last: the command, the version, one line per extra entry, then
    the effective configuration. When the block raises, ``paths`` are deleted.
    """
    for path in (manifest, *paths):
        path.parent.mkdir(parents=True, exist_ok=True)
    for path in (manifest, *paths):
        path.unlink(missing_ok=True)
    extras = {}
    try:
        yield extras
        lines = [f"command: {command}", f"resfault_version: {__version__}"]
        lines.extend(f"{key}: {value}" for key, value in extras.items())
        lines.append("config:")
        lines.extend("  " + ln for ln in dump_config(cfg).splitlines())
        with _published(manifest, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except BaseException:
        for path in paths:
            path.unlink(missing_ok=True)
        raise


def _mark_none(value, text=format_float) -> str:
    return NO_DETECTION_MARK if value is None else text(value)


def evaluation_paths(out: Path) -> tuple[Path, Path]:
    """The evaluation_units.csv and evaluation_summary.csv of directory ``out``."""
    return out / "evaluation_units.csv", out / "evaluation_summary.csv"


def write_evaluations(out: Path, evaluations) -> None:
    """Write the two evaluation_paths tables of directory ``out``.

    Also prints one summary line per (model, indicator-kind) group.
    """
    units_path, summary_path = evaluation_paths(out)
    write_table(
        units_path,
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
        summary_path,
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

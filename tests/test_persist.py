import csv
import dataclasses
import hashlib
import io
import itertools
import json
import os
import re
import stat
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resfault import cli, experiment, nn, persist
from resfault.data_model import DEFAULT_W_CHANNELS, DEFAULT_X_CHANNELS, UnitSeries
from resfault.detector import HealthyStats
from resfault.errors import ComputeError, DataError
from resfault.models import AE_KIND, OC_KIND, ResidualModel, layer_dims
from resfault.persist import (
    FLEET_COLUMNS,
    REPORT_COLUMNS,
    TRUTH_COLUMNS,
    TruthRecord,
    _parse_csv,
    format_float,
    load_checkpoint,
    load_csv,
    load_ground_truth,
    load_reports,
    save_checkpoint,
    save_csv,
    save_cycle_hi_csv,
    save_ground_truth,
    save_reports,
    save_stats,
    stats_from_blob,
    stats_to_blob,
)
from resfault.preprocess import Standardizer
from resfault.config import PreprocessSettings, RunConfig, SynthSettings
from resfault.synth import gen_fleet
from resfault.detector import DetectionReport


LINE_ENDS = ("\n", "\r\n")
# Most bytes one read returns while _fleet_key hashes a fleet file: all the
# 64 KiB it asks for, and so few that the file is hashed in many pieces.
KEY_READS = (1 << 20, 1, 7, 64)


def reference_save_csv(fleet, path):
    """The fleet writer save_csv replaced: csv.writer rows of format_float cells."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FLEET_COLUMNS)
        for unit in fleet:
            for t in range(unit.n_rows):
                writer.writerow(
                    [unit.unit_id, int(unit.cycle_of[t])]
                    + [format_float(v) for v in unit.w[t]]
                    + [format_float(v) for v in unit.x[t]]
                )


def write_lines(path, lines, line_end):
    path.write_bytes("".join(line + line_end for line in lines).encode())


def same_fleet(a, b):
    """Two loaded fleets agree bit for bit, unit by unit."""
    a, b = list(a), list(b)
    assert [u.unit_id for u in a] == [u.unit_id for u in b]
    for left, right in zip(a, b):
        assert left.dataset_id == right.dataset_id
        for x, y in ((left.z, right.z), (left.cycle_of, right.cycle_of)):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def twin_read(path):
    """load_csv(path) with the parse refused, so the fleet must come from its twin."""
    refused = AssertionError("parsed, not read from the twin")
    with mock.patch.object(persist, "_parse_csv", side_effect=refused):
        return list(load_csv(path))


class ShortReads:
    """A binary file handle whose reads return at most ``most`` bytes, as a read may."""

    def __init__(self, fh, most):
        self.fh, self.most = fh, most

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def read(self, size):
        return self.fh.read(min(size, self.most))


def key_reads(most):
    """Within, a fleet CSV opened "rb", as _fleet_key opens it, returns at
    most ``most`` bytes a read; the twin (a .npy file) and the parse (text
    mode) read as usual."""
    real_open = Path.open

    def open_(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return ShortReads(fh, most) if mode == "rb" and path.suffix == ".csv" else fh

    return mock.patch.object(Path, "open", open_)


def small_fleet():
    cfg = RunConfig(
        seed=5,
        synth=SynthSettings(
            n_units=2, cycles_per_unit=20, rows_per_cycle=25, fault_start_lo=18, fault_start_hi=18
        ),
    )
    return [s for s, _ in gen_fleet(cfg)], [t for _, t in gen_fleet(cfg)]


class TestCsvRoundTrip:
    def test_fleet_round_trips_exactly(self, tmp_path):
        fleet, _ = small_fleet()
        path = tmp_path / "fleet.csv"
        save_csv(fleet, path)
        text = path.read_bytes()
        # also without the final line end
        for variant in (text.removesuffix(b"\r\n"), text):
            path.write_bytes(variant)
            loaded = list(load_csv(str(path)))  # a str path as well as a Path
            assert [u.unit_id for u in loaded] == [u.unit_id for u in fleet]
            for a, b in zip(fleet, loaded):
                np.testing.assert_array_equal(a.w, b.w)
                np.testing.assert_array_equal(a.x, b.x)
                np.testing.assert_array_equal(a.cycle_of, b.cycle_of)

    def test_second_save_is_byte_identical(self, tmp_path):
        fleet, _ = small_fleet()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(fleet, p1)
        save_csv(load_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit,cycle,alt\n" "u1,0,100\n")
        with pytest.raises(DataError, match=r"is missing column\(s\) \['XM', ") as err:
            load_csv(path)
        assert "XM" in str(err.value)

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_interleaved_units_regrouped(self, tmp_path, quote):
        # quoted unit cells, such as "a", name the unit without their quotes
        rows = []
        for cyc in (1, 0):
            for uid in ("a", "b"):
                rows.append([quote + uid + quote, str(cyc)] + [f"{cyc}.{i}" for i in range(18)])
        path = tmp_path / "mix.csv"
        # the file's columns: as written, and reversed so the unit column is last
        for order in (list(range(20)), list(range(19, -1, -1))):
            for line_end in LINE_ENDS:
                write_lines(
                    path,
                    [",".join(FLEET_COLUMNS[i] for i in order)]
                    + [",".join(row[i] for i in order) for row in rows],
                    line_end,
                )
                fleet = list(load_csv(path))
                assert [u.unit_id for u in fleet] == ["a", "b"]
                for unit in fleet:
                    np.testing.assert_array_equal(unit.cycle_of, [0, 1])
                    np.testing.assert_array_equal(unit.w[:, 0], [0.0, 1.0])
                    np.testing.assert_array_equal(unit.x[:, 13], [0.17, 1.17])

    def test_non_numeric_cell_located(self, tmp_path):
        header = ",".join(("unit", "cycle") + DEFAULT_W_CHANNELS + DEFAULT_X_CHANNELS)
        good = ",".join(["u1", "0"] + ["1.0"] * 18)
        bad = ",".join(["u1", "0"] + ["1.0"] * 17 + ["oops"])
        path = tmp_path / "bad.csv"
        for line_end in LINE_ENDS:
            write_lines(path, [header, good, bad], line_end)
            with pytest.raises(DataError, match="non-numeric value 'oops'") as err:
                load_csv(path)
            assert "oops" in str(err.value)
            assert "line 3" in str(err.value)
            assert "Wf" in str(err.value)

    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_cell_located(self, tmp_path, token):
        header = ",".join(("unit", "cycle") + DEFAULT_W_CHANNELS + DEFAULT_X_CHANNELS)
        good = ",".join(["u1", "0"] + ["1.0"] * 18)
        bad = ",".join(["u1", "1"] + ["1.0"] * 5 + [token] + ["1.0"] * 12)
        path = tmp_path / "bad.csv"
        for line_end in LINE_ENDS:
            write_lines(path, [header, good, good, bad], line_end)
            with pytest.raises(DataError, match=f"non-finite value {token!r}") as err:
                load_csv(path)
            assert repr(token) in str(err.value)
            assert "line 4" in str(err.value)
            assert "T30" in str(err.value)

    @pytest.mark.parametrize(
        "damage",
        ["blank_line", "trailing_blank_line", "short_row", "long_row",
         "extra_cell_mid_row", "short_and_long_row", "return_in_header"],
    )
    def test_ragged_row_located(self, tmp_path, damage):
        # unit column last: a short row then lacks only the unit cell
        header = ",".join(FLEET_COLUMNS[1:] + FLEET_COLUMNS[:1])
        lines = [header] + [",".join([str(c)] + ["1.5"] * 18 + ["u1"]) for c in range(4)]
        header_cells = 20
        if damage == "return_in_header":
            # a "\r" in an extra column's name ends the header there: "y" is line 2
            lines = [line + ",0" for line in lines]
            lines[0] = header + ",x\ry"
            bad_line, bad_cells, header_cells = 2, 1, 21
        elif damage == "blank_line":
            lines.insert(3, "")
            bad_line, bad_cells = 4, 0
        elif damage == "trailing_blank_line":
            lines.append("")
            bad_line, bad_cells = 6, 0
        elif damage == "short_row":
            lines[2] = lines[2].rsplit(",", 1)[0]
            bad_line, bad_cells = 3, 19
        elif damage == "long_row":
            lines[2] += ",0.5"
            bad_line, bad_cells = 3, 21
        elif damage == "extra_cell_mid_row":
            cells = lines[4].split(",")
            lines[4] = ",".join(cells[:9] + ["0.5"] + cells[9:])
            bad_line, bad_cells = 5, 21
        else:
            # as many commas in the file as a well-formed one holds
            lines[2] = lines[2].rsplit(",", 1)[0]
            lines[3] += ",0.5"
            bad_line, bad_cells = 3, 19
        path = tmp_path / "ragged.csv"
        for line_end in LINE_ENDS:
            write_lines(path, lines, line_end)
            with pytest.raises(DataError) as err:
                load_csv(path)
            assert str(err.value) == (
                f"{path}: line {bad_line} has {bad_cells} cells, the header has {header_cells}"
            )

    @pytest.mark.parametrize(
        "cells, error",
        [
            # two bad cells in one column: the first line's is named
            ({(2, "Wf"): "oops", (3, "Wf"): "bad"},
             "non-numeric value 'oops' in column 'Wf', line 2"),
            # columns are checked in order, so an earlier column on a later line wins
            ({(2, "Wf"): "oops", (3, "alt"): "bad"},
             "non-numeric value 'bad' in column 'alt', line 3"),
            # within a column, a non-numeric cell outranks an earlier non-finite one
            ({(2, "T30"): "nan", (3, "T30"): "oops"},
             "non-numeric value 'oops' in column 'T30', line 3"),
            ({(2, "cycle"): "1.5", (3, "alt"): "oops"}, "cycle column must hold integers"),
            ({(3, "XM"): " Infinity", (2, "T2"): "NaN"},
             "non-finite value ' Infinity' in column 'XM', line 3"),
            # two non-finite cells in one column: the first line's is named
            ({(2, "T30"): "nan", (3, "T30"): "-inf"},
             "non-finite value 'nan' in column 'T30', line 2"),
            # a whole number past int64 would wrap when the cycles are cast
            ({(3, "cycle"): "1e19"}, "cycle column must hold integers"),
        ],
    )
    def test_first_defect_named(self, tmp_path, cells, error):
        rows = {line: dict(zip(FLEET_COLUMNS, ["u1", "0"] + ["1.0"] * 18)) for line in (2, 3)}
        for (line, column), token in cells.items():
            rows[line][column] = token
        path = tmp_path / "bad.csv"
        write_lines(
            path, [",".join(FLEET_COLUMNS)] + [",".join(rows[i].values()) for i in (2, 3)], "\n"
        )
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: {error}"

    def test_ragged_row_outranks_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, [",".join(FLEET_COLUMNS[:-1]), ",".join(["u1", "0"] + ["1.0"] * 18)], "\n")
        with pytest.raises(DataError, match="line 2 has 20 cells, the header has 19"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="has no header row"):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "hdr.csv"
        for line_end in LINE_ENDS + ("",):
            path.write_bytes((",".join(FLEET_COLUMNS) + line_end).encode())
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DataError, match="has a header but no data rows"):
                    load_csv(path)


finite_floats = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e-05, 9.999999999999999e-05,
         0.0001, -1.0000000000000002e-05, 9999999999999998.0, 1e16, -1.0000000000000002e16,
         1.7976931348623157e308]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)
unit_ids = st.one_of(
    st.sampled_from(
        ["u,1", 'u"1', " u1", "ünït-é", "", "u\r\n1", "u1 ", "u1\0", "unit-0123456789ab"]
    ),
    st.text(max_size=6),
)


@st.composite
def fleets(draw):
    ids = draw(st.lists(unit_ids, min_size=1, max_size=3, unique=True))
    fleet = []
    for uid in ids:
        n = draw(st.integers(1, 4))
        values = np.array(draw(st.lists(finite_floats, min_size=18 * n, max_size=18 * n)))
        cycles = sorted(draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n)))
        fleet.append(
            UnitSeries(unit_id=uid, dataset_id="", z=values.reshape(n, 18), cycle_of=cycles)
        )
    return fleet


@pytest.mark.parametrize("most", KEY_READS)
@settings(max_examples=150, deadline=None)
@given(fleet=fleets())
def test_save_matches_reference_and_round_trips(most, fleet):
    with tempfile.TemporaryDirectory() as tmp:
        path, reference = Path(tmp) / "fleet.csv", Path(tmp) / "reference.csv"
        save_csv(fleet, path)
        reference_save_csv(fleet, reference)
        assert path.read_bytes() == reference.read_bytes()
        loaded = list(load_csv(path))
        assert [u.unit_id for u in loaded] == [u.unit_id for u in fleet]
        for a, b in zip(fleet, loaded):
            assert a.w.tobytes() == b.w.tobytes()
            assert a.x.tobytes() == b.x.tobytes()
            assert a.cycle_of.tobytes() == b.cycle_of.tobytes()
        # the key of the bytes read in pieces finds the twin of the whole read
        with key_reads(most):
            same_fleet(twin_read(path), loaded)


# Cells repr writes in exponent form, and -0.0, which it writes as it is.
EXPONENT_CELLS = [1e-05, 9.999999999999999e-05, 1e16, 5e-324, -0.0]
# Unit lengths at either side of the writer's 200-row chunks.
CHUNK_EDGE_ROWS = (1, 199, 200, 201, 401)


def chunk_edge_fleet(rng):
    """Units of CHUNK_EDGE_ROWS rows of sensor-like values. The first and
    last row of each unit and the rows around each chunk edge hold one
    EXPONENT_CELLS cell, so most chunks mix such rows with others."""
    fleet = []
    for i, n in enumerate(CHUNK_EDGE_ROWS):
        z = rng.normal(0.0, 500.0, size=(n, 18))
        z[::3] = np.round(z[::3], 2)
        marked = sorted({0, 198, 199, 200, 201, 399, 400, n - 1} & set(range(n)))
        for j, row in enumerate(marked):
            z[row, (i + j) % 18] = (-1) ** j * EXPONENT_CELLS[(i + j) % len(EXPONENT_CELLS)]
        fleet.append(UnitSeries(f"u{i}", "", z, np.arange(n) // 7))
    return fleet


def test_save_matches_reference_across_chunk_edges(tmp_path, rng):
    fleet = chunk_edge_fleet(rng)
    path, reference = tmp_path / "fleet.csv", tmp_path / "reference.csv"
    save_csv(fleet, path)
    reference_save_csv(fleet, reference)
    assert path.read_bytes() == reference.read_bytes()
    # load_csv hands out each unit's z as a view of its table, not C-contiguous
    loaded = list(load_csv(path))
    assert not loaded[-1].z.flags.c_contiguous
    again = tmp_path / "again.csv"
    save_csv(loaded, again)
    assert again.read_bytes() == reference.read_bytes()


def test_save_writes_non_finite_cells_as_reference(tmp_path, rng):
    z = rng.normal(size=(5, 18))
    z[1, 3], z[3, 0], z[3, 17] = np.nan, np.inf, -np.inf
    fleet = [UnitSeries("u", "", z, np.arange(5))]
    path, reference = tmp_path / "fleet.csv", tmp_path / "reference.csv"
    save_csv(fleet, path)
    reference_save_csv(fleet, reference)
    assert path.read_bytes() == reference.read_bytes()
    assert b",nan," in path.read_bytes() and b",-inf\r\n" in path.read_bytes()


GOOD_CELLS = ["0", "1", "2.5", "-0.0", "1e-05"]
BAD_CELLS = ["", "x", "nan", "NaN", "-inf", "1e400", '"2.5"', '"', " 1", "1.5 ", "1\x1f"]
UNIT_CELLS = ["u0", "u1", " u1", '"u0"', '"u,1"', 'u"1', "", "u1\0", "unit-0123456789ab"]


@st.composite
def damaged_fleet_files(draw):
    """A small fleet file's text: odd cells, then up to three cuts and insertions."""
    columns = draw(st.permutations(FLEET_COLUMNS))
    numeric = st.sampled_from(GOOD_CELLS * 80 + BAD_CELLS)
    lines = [",".join(columns)]
    for _ in range(draw(st.integers(0, 4))):
        lines.append(",".join(
            draw(st.sampled_from(UNIT_CELLS) if c == "unit" else numeric) for c in columns
        ))
    text = draw(st.sampled_from(LINE_ENDS)).join(lines) + draw(st.sampled_from(LINE_ENDS + ("",)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from([",", "\n", "\r", '"', " ", "x"])) + text[at:]
        else:
            text = text[:at] + text[at + draw(st.integers(1, 3)):]
    return text


def fleet_text(header=FLEET_COLUMNS, units=("u1", "u1", "u2"), line_end="\n"):
    """A fleet file of one row per unit cell, the cells of ``header`` in order."""
    lines = [",".join(header)]
    for cycle, uid in enumerate(units):
        cells = dict(zip(FLEET_COLUMNS, [uid, str(cycle)] + [f"{cycle}.5"] * 18))
        lines.append(",".join(cells.get(name, "0") for name in header))
    return line_end.join(lines) + line_end


def refused_alike_or_twinned(text, most=KEY_READS[0]):
    """Whether load_csv refuses ``text`` as a fleet file; either way the
    behaviour is checked. A refusal repeats its error on a second read and
    keeps no twin; a fleet is what its twin gives back bit for bit, found by
    a key read ``most`` bytes at a time. No warning escapes."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path = Path(tmp) / "fleet.csv"
        path.write_bytes(text.encode())
        try:
            fleet = list(load_csv(path))
        except DataError as exc:
            with pytest.raises(DataError) as again:
                load_csv(path)
            assert (type(again.value), str(again.value)) == (type(exc), str(exc))
            assert list(Path(tmp).iterdir()) == [path]
            refused = True
        else:
            with key_reads(most):
                same_fleet(twin_read(path), fleet)
            refused = False
    assert not caught
    return refused


@pytest.mark.parametrize("most", KEY_READS)
@settings(max_examples=300, deadline=None)
@given(text=damaged_fleet_files())
def test_loadtxt_path_agrees_with_csv_path(most, text):
    """An odd fleet file is refused alike on every read, or twinned.

    (Named for the np.loadtxt parse it once held equal to the csv parse.)"""
    refused_alike_or_twinned(text, most)


def grouped_rows(rows):
    """The row numbers of each unit of ``rows``, (unit, cycle) pairs in file
    order: units in order of first appearance, rows stably sorted by cycle."""
    units = {}
    for n, (uid, _) in enumerate(rows):
        units.setdefault(uid, []).append(n)
    return {uid: sorted(ns, key=lambda n: rows[n][1]) for uid, ns in units.items()}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    rows=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 3)), min_size=1, max_size=12
    ),
    in_order=st.booleans(),
)
def test_load_csv_groups_units_as_the_reference(rows, in_order):
    """Parse and twin give each unit its rows in the reference's order, the
    twin holds them in that order with the end of each unit's rows, and the
    parse's units are slices of one table."""
    if in_order:
        rows = [rows[n] for ns in grouped_rows(rows).values() for n in ns]
    expected = grouped_rows(rows)
    # every numeric cell of row n other than its cycle is n.j, for column j
    lines = [",".join(FLEET_COLUMNS)] + [
        ",".join([uid, str(cycle)] + [f"{n}.{j}" for j in range(18)])
        for n, (uid, cycle) in enumerate(rows)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fleet.csv"
        path.write_text("\n".join(lines) + "\n")
        parsed = list(load_csv(path))
        row_ends, table = twin_arrays(path)[3:]
        assert row_ends.tolist() == list(itertools.accumulate(map(len, expected.values())))
        assert table[:, 1].tolist() == [float(f"{n}.0") for ns in expected.values() for n in ns]
        for fleet in (parsed, twin_read(path)):
            assert [u.unit_id for u in fleet] == list(expected)
            for unit, ns in zip(fleet, expected.values()):
                assert unit.cycle_of.tolist() == [rows[n][1] for n in ns]
                assert unit.z.tolist() == [[float(f"{n}.{j}") for j in range(18)] for n in ns]
        assert all(np.shares_memory(u.z, parsed[0].z.base) for u in parsed)


@pytest.mark.parametrize(
    "text",
    [
        fleet_text().replace("\nu2", "\n\nu2"),
        fleet_text(units=()) + "\n\n",
        fleet_text(line_end="\r"),
        # csv.writer's "\r\n" written through a text file that turns "\n" into "\r\n"
        fleet_text(line_end="\r\r\n"),
        fleet_text().replace("\nu2", "\n\ru2"),
        fleet_text(units=("u1\0", "u2")),
        fleet_text(units=("u1", "u0123456789abcde", "u0123456789abcdef")),
        fleet_text(header=FLEET_COLUMNS + ("XM",)),
        fleet_text().replace("1.5", "1.5\x1f"),
        # the quote that opens the header makes the rest of the file one csv cell
        fleet_text(header=('"a',) + FLEET_COLUMNS),
    ],
    ids=["blank_line", "only_blank_lines", "lone_return_line_ends", "crlf_doubled",
         "return_opening_a_line", "trailing_nul_in_unit",
         "long_unit_ids", "repeated_column", "separator_byte_in_number", "quoted_header_cell"],
)
def test_fast_parse_leaves_the_file_to_the_csv_parse(text):
    """The csv parse reads each of these files: every read of a refused
    one, only the first of a twinned one.

    (Named for the parse before it, which left these files to this one.)"""
    with mock.patch.object(persist, "_parse_csv", wraps=_parse_csv) as parse:
        refused = refused_alike_or_twinned(text)
    assert parse.call_count == (2 if refused else 1)


@pytest.mark.parametrize("at", [0, 5, len(FLEET_COLUMNS)])
def test_extra_text_columns_are_read_and_not_kept(tmp_path, at):
    # text, empty and non-ASCII cells in a column the fleet does not use
    header = FLEET_COLUMNS[:at] + ("note",) + FLEET_COLUMNS[at:]
    notes = iter(["a long note", "", "ünï"])
    lines = fleet_text(header=header, units=("u1", "é", "u1")).split("\n")
    for i in range(1, 4):
        cells = lines[i].split(",")
        cells[at] = next(notes)
        lines[i] = ",".join(cells)
    path, plain = tmp_path / "fleet.csv", tmp_path / "plain" / "fleet.csv"
    path.write_bytes("\n".join(lines).encode())
    plain.parent.mkdir()
    plain.write_text(fleet_text(units=("u1", "é", "u1")))
    same_fleet(load_csv(path), load_csv(plain))


@pytest.mark.parametrize("most", KEY_READS)
@pytest.mark.parametrize(
    "data",
    [
        fleet_text().encode().replace(b"1.5", b"1.5\xa0"),
        fleet_text().encode().removesuffix(b"\n") + b"\xa0",
        # the first byte of a two-byte sequence, cut by the end of the file
        fleet_text(header=FLEET_COLUMNS[1:] + FLEET_COLUMNS[:1]).encode().removesuffix(b"\n")
        + b"\xc3",
    ],
    ids=["in_a_number", "last_byte", "cut_sequence_in_unit"],
)
def test_non_utf8_file_is_data_error(tmp_path, most, data):
    path = tmp_path / "fleet.csv"
    path.write_bytes(data)
    with key_reads(most), pytest.raises(DataError, match="is not UTF-8 text"):
        load_csv(path)
    assert list(tmp_path.iterdir()) == [path]


# The three CSV readers, each with its header and one row it reads.
READERS = {
    "load_csv": (load_csv, FLEET_COLUMNS, ["u1", "0"] + ["1.5"] * 18),
    "load_ground_truth": (load_ground_truth, TRUTH_COLUMNS, ["u1", "fan", "20", "P2"]),
    "load_reports": (
        load_reports, REPORT_COLUMNS, ["OC", "sensorwise", "u1", "fan", "20", "30", "10", "P2", "1"]
    ),
}


def reader_case(case, header, row):
    """The bytes of a file with the defects of ``case``, and the DataError
    message (after the path) that every reader raises for it."""
    n = len(header)
    second = ["u2" if name == "unit" else cell for name, cell in zip(header, row)]
    if case == "multi_line_cell_then_ragged_row":
        # the quoted unit id spans lines 2 and 3, so the short row is line 4
        quoted = [f'"{cell}\nx"' if name == "unit" else cell for name, cell in zip(header, row)]
        lines = [header, quoted, second[:-1]]
        message = f": line 4 has {n - 1} cells, the header has {n}"
    elif case == "header_only_missing_column":
        lines = [header[:-1]]
        message = " has a header but no data rows"
    elif case == "missing_column_and_ragged_row":
        lines = [header[:-1], row[:-1], row]
        message = f": line 3 has {n} cells, the header has {n - 1}"
    elif case == "missing_columns_named_together":
        lines = [header[1:-1], row[1:-1]]
        message = f" is missing column(s) [{header[0]!r}, {header[-1]!r}]"
    else:
        lines = [header, row]
        message = " is not UTF-8 text: byte 0xe9 (invalid continuation byte)"
    data = "".join(",".join(cells) + "\r\n" for cells in lines).encode()
    if case == "non_utf8_byte":
        data = data.replace(b"u1", b"u\xe91")
    return data, message


@pytest.mark.parametrize(
    "case",
    ["multi_line_cell_then_ragged_row", "header_only_missing_column",
     "missing_column_and_ragged_row", "missing_columns_named_together", "non_utf8_byte"],
)
@pytest.mark.parametrize("reader", list(READERS))
def test_shared_reader_rules(tmp_path, reader, case):
    """The fleet, ground-truth and report readers refuse a file alike: the
    first defect in one order, named with its file line."""
    load, header, row = READERS[reader]
    data, message = reader_case(case, list(header), row)
    path = tmp_path / "table.csv"
    path.write_bytes(data)
    with pytest.raises(DataError) as err:
        load(str(path))  # a str path as well as a Path
    assert (type(err.value), str(err.value)) == (DataError, f"{path}{message}")


def twin_bytes(path):
    return persist.twin_path(path).read_bytes()


def write_twin(path, arrays):
    with persist.twin_path(path).open("wb") as fh:
        for array in arrays:
            np.save(fh, array)


def twin_arrays(path):
    with persist.twin_path(path).open("rb") as fh:
        return [np.load(fh) for _ in persist._TWIN_ARRAYS]


def twin_key(path, tag):
    """The key of the twin of ``path`` under format tag ``tag``."""
    return np.frombuffer(hashlib.sha256(tag + path.read_bytes()).digest(), np.uint8)


def write_earlier_twin(path):
    """Write the twin of ``path`` as versions before format tag 2 kept it:
    the tag 1 key, the ids, each row's unit code and the table, in the
    file's order."""
    unit_ids, codes, table = _parse_csv(path)
    encoded = [uid.encode() for uid in unit_ids]
    blob = np.frombuffer(b"".join(encoded), np.uint8)
    ends = np.cumsum([len(e) for e in encoded])
    write_twin(path, [twin_key(path, b"resfault fleet twin 1\n"), blob, ends, codes, table])


def header_only_array(shape):
    """An .npy float64 header for ``shape`` with no data after it."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": shape}
    )
    return buf.getvalue()


# Twin arrays, as twin_arrays reads them, made into a twin _load_twin refuses.
TWIN_TAMPERS = {
    "other_key": lambda a: [a[0] ^ np.uint8(1), *a[1:]],
    "key_dtype": lambda a: [a[0].astype(np.int64), *a[1:]],
    "ids_not_utf8": lambda a: [a[0], np.concatenate(([0xFF], a[1][1:])).astype(np.uint8), *a[2:]],
    "ends_dtype": lambda a: [a[0], a[1], a[2].astype(np.int32), *a[3:]],
    "ids_repeat": lambda a: [
        a[0], np.frombuffer(b"u1u1u3", np.uint8), np.array([2, 4, 6]), *a[3:]
    ],
    "last_end_short": lambda a: [*a[:2], a[2] - (np.arange(len(a[2])) == len(a[2]) - 1), *a[3:]],
    "ends_decreasing": lambda a: [*a[:2], np.array([2, 1, a[2][-1]]), *a[3:]],
    "end_negative": lambda a: [*a[:2], np.array([-1, 4, a[2][-1]]), *a[3:]],
    "no_rows": lambda a: [*a[:2], a[2][:0], a[3][:0], a[4][:0]],
    "no_ids": lambda a: [a[0], a[1][:0], a[2][:0], *a[3:]],
    # the good row ends are [2, 3, 4]: u1's two rows, then u2's and u3's
    "row_end_past_the_table": lambda a: [*a[:3], np.array([2, 3, 5]), a[4]],
    "row_ends_short_of_the_table": lambda a: [*a[:3], np.array([1, 2, 3]), a[4]],
    "negative_row_end": lambda a: [*a[:3], np.array([-1, 3, 4]), a[4]],
    "negative_row_end_after_the_first": lambda a: [*a[:3], np.array([2, -1, 4]), a[4]],
    "unit_with_no_rows": lambda a: [*a[:3], np.array([2, 2, 4]), a[4]],
    "first_unit_with_no_rows": lambda a: [*a[:3], np.array([0, 3, 4]), a[4]],
    "row_ends_decrease": lambda a: [*a[:3], np.array([3, 2, 4]), a[4]],
    "fewer_row_ends_than_ids": lambda a: [*a[:3], np.array([2, 4]), a[4]],
    "more_row_ends_than_ids": lambda a: [*a[:3], np.array([1, 2, 3, 4]), a[4]],
    "row_ends_dtype": lambda a: [*a[:3], a[3].astype(np.float64), a[4]],
    "row_ends_ndim": lambda a: [*a[:3], a[3][:, None], a[4]],
    "table_columns": lambda a: [*a[:4], a[4][:, :-1]],
    "table_dtype": lambda a: [*a[:4], a[4].astype(np.float32)],
    "table_bits_as_int64": lambda a: [*a[:4], a[4].view(np.int64)],
    "table_fortran_order": lambda a: [*a[:4], np.asfortranarray(a[4])],
    "table_ndim": lambda a: [*a[:4], a[4][None]],
    "extra_array": lambda a: [*a, a[0]],
    "missing_array": lambda a: a[:-1],
}


# A twin's bytes made into a twin _load_twin refuses.
TWIN_DAMAGES = {
    "empty": lambda good: b"",
    "cut_in_magic": lambda good: good[:5],
    "cut_in_header": lambda good: good[:40],
    "cut_in_half": lambda good: good[: len(good) // 2],
    "last_byte_cut": lambda good: good[:-1],
    "trailing_byte": lambda good: good + b"\0",
    "garbage": lambda good: b"garbage, not arrays",
    "zip_magic": lambda good: b"PK\x03\x04" + good,
    "reversed": lambda good: bytes(reversed(good)),
}


class TestFleetTwin:
    """load_csv keeps each parse in a twin beside the CSV and reads it back bit for bit."""

    def test_twin_is_written_once_and_read_back(self, tmp_path):
        fleet, _ = small_fleet()
        path = tmp_path / "fleet.csv"
        save_csv(fleet, path)
        loaded = list(load_csv(path))
        assert sorted(p.name for p in tmp_path.iterdir()) == [".fleet.csv.npy", "fleet.csv"]
        written = twin_bytes(path)
        same_fleet(twin_read(path), loaded)
        assert twin_bytes(path) == written
        # the same bytes elsewhere give the same twin bytes
        other = tmp_path / "copy" / "fleet.csv"
        other.parent.mkdir()
        other.write_bytes(path.read_bytes())
        load_csv(other)
        assert twin_bytes(other) == written

    def test_twin_has_the_permissions_of_other_outputs(self, tmp_path):
        path = tmp_path / "fleet.csv"
        path.write_text(fleet_text())
        load_csv(path)
        mode = persist.twin_path(path).stat().st_mode
        assert stat.S_IMODE(mode) == stat.S_IMODE(path.stat().st_mode)

    def test_quoted_ids_take_the_csv_parse_and_the_twin(self, tmp_path):
        fleet, _ = small_fleet()
        fleet = [dataclasses.replace(u, unit_id=uid) for u, uid in zip(fleet, ["u,1", 'ü"2'])]
        path = tmp_path / "fleet.csv"
        save_csv(fleet, path)
        loaded = list(load_csv(path))
        assert [u.unit_id for u in loaded] == ["u,1", 'ü"2']
        same_fleet(twin_read(path), loaded)

    def test_nul_and_non_ascii_ids_survive_the_twin(self, tmp_path):
        path = tmp_path / "fleet.csv"
        path.write_text(fleet_text(units=("u1\0", "é", "u1\0", "ünï\0", "u1")))
        loaded = list(load_csv(path))
        assert [u.unit_id for u in loaded] == ["u1\0", "é", "ünï\0", "u1"]
        again = twin_read(path)
        assert [u.unit_id for u in again] == ["u1\0", "é", "ünï\0", "u1"]
        same_fleet(again, loaded)

    def test_changed_digit_is_parsed_again(self, tmp_path):
        path = tmp_path / "fleet.csv"
        text = fleet_text()
        path.write_text(text)
        first = list(load_csv(path))
        path.write_text(text.replace(",2.5", ",3.5", 1))
        with mock.patch.object(persist, "_parse_csv", wraps=_parse_csv) as parse:
            second = list(load_csv(path))
        parse.assert_called_once()
        assert first[1].z[0, 0] == 2.5 and second[1].z[0, 0] == 3.5
        same_fleet(twin_read(path), second)

    @pytest.mark.parametrize("damage", TWIN_DAMAGES.values(), ids=TWIN_DAMAGES.keys())
    def test_damaged_twin_is_a_miss_and_rewritten(self, tmp_path, damage):
        path = tmp_path / "fleet.csv"
        path.write_text(fleet_text(units=("u1", "u2", "u3", "u1")))
        expected = list(load_csv(path))
        good = twin_bytes(path)
        persist.twin_path(path).write_bytes(damage(good))
        same_fleet(load_csv(path), expected)
        assert twin_bytes(path) == good

    @pytest.mark.parametrize("tamper", TWIN_TAMPERS.values(), ids=TWIN_TAMPERS.keys())
    def test_tampered_twin_is_a_miss_and_rewritten(self, tmp_path, tamper):
        path = tmp_path / "fleet.csv"
        path.write_text(fleet_text(units=("u1", "u2", "u3", "u1")))
        expected = list(load_csv(path))
        good = twin_bytes(path)
        write_twin(path, tamper(twin_arrays(path)))
        same_fleet(load_csv(path), expected)
        assert twin_bytes(path) == good

    def test_interleaved_fleet_gets_a_grouped_twin(self, tmp_path):
        """The twin of a file whose units interleave holds the parse in unit
        and cycle order, and the twin in the file's order that earlier
        versions kept is a miss."""
        path = tmp_path / "fleet.csv"
        path.write_text(fleet_text(units=("u1", "u2", "u3", "u1")))
        with mock.patch.object(persist, "_parse_csv", wraps=_parse_csv) as parse:
            first = list(load_csv(path))
        parse.assert_called_once()
        assert [(u.unit_id, u.cycle_of.tolist()) for u in first] == [
            ("u1", [0, 3]), ("u2", [1]), ("u3", [2])
        ]
        row_ends, table = twin_arrays(path)[3:]
        assert row_ends.tolist() == [2, 3, 4]
        assert table.tolist() == [[c] + [c + 0.5] * 18 for c in (0, 3, 1, 2)]
        good = twin_bytes(path)
        same_fleet(twin_read(path), first)
        write_earlier_twin(path)
        assert twin_arrays(path)[3].tolist() == [0, 1, 2, 0]
        with mock.patch.object(persist, "_parse_csv", wraps=_parse_csv) as parse:
            same_fleet(load_csv(path), first)
        parse.assert_called_once()
        assert twin_bytes(path) == good

    def test_twin_of_an_earlier_version_is_a_miss_and_rewritten(self, tmp_path):
        """A twin that versions before format tag 2 kept, with a unit code
        per row and the rows in the file's order, is a miss: the file is
        parsed again and its twin rewritten under tag 2. Here the file is
        grouped but a unit's cycles are out of order, a twin that earlier
        versions read by sorting each unit as it was read."""
        path = tmp_path / "fleet.csv"
        # u1's cycles are 1, 0, 1 and its values rise, so only the cycles say the order
        rows = [("u1", 1, 0.5), ("u1", 0, 1.5), ("u1", 1, 2.5), ("u2", 2, 3.5)]
        path.write_text(
            "".join(",".join([uid, str(c)] + [str(v)] * 18) + "\n" for uid, c, v in rows)
            .join([",".join(FLEET_COLUMNS) + "\n", ""])
        )
        parsed = list(load_csv(path))
        assert [(u.unit_id, u.cycle_of.tolist(), u.z[:, 0].tolist()) for u in parsed] == [
            ("u1", [0, 1, 1], [1.5, 0.5, 2.5]), ("u2", [2], [3.5])
        ]
        good = twin_bytes(path)
        assert np.array_equal(twin_arrays(path)[0], twin_key(path, b"resfault fleet twin 2\n"))
        write_earlier_twin(path)
        assert twin_arrays(path)[3].tolist() == [0, 0, 0, 1]
        with mock.patch.object(persist, "_parse_csv", wraps=_parse_csv) as parse:
            same_fleet(load_csv(path), parsed)
        parse.assert_called_once()
        assert twin_bytes(path) == good

    def test_units_are_read_from_the_twin_that_was_checked(self, tmp_path):
        path = tmp_path / "fleet.csv"
        path.write_text(fleet_text(units=("u1", "u2", "u3", "u1")))
        expected = list(load_csv(path))
        units = load_csv(path)
        # another file published as the twin after the check, as a concurrent
        # read of other bytes would publish its own
        other = tmp_path / "other"
        other.write_bytes(bytes(reversed(twin_bytes(path))))
        os.replace(other, persist.twin_path(path))
        same_fleet(units, expected)

    def test_twin_read_of_an_ordered_fleet_holds_one_table(self, tmp_path):
        """A twin read hands out one unit at a time: reading and preprocessing
        a fleet, as every command that reads one does, holds one raw unit's
        table at a time, not the fleet's."""
        n_units, n_rows, cycle_rows = 4, 5_000, 50
        rng = np.random.default_rng(3)
        fleet = [
            UnitSeries(
                unit_id=f"u{i}", dataset_id="", z=rng.uniform(0.5, 1.0, size=(n_rows, 18)),
                cycle_of=np.arange(n_rows) // cycle_rows,
            )
            for i in range(n_units)
        ]
        path = tmp_path / "fleet.csv"
        save_csv(fleet, path)
        list(load_csv(path))  # parses and writes the twin
        # one row kept per cycle, so the preprocessed fleet is small beside a raw unit
        cfg = RunConfig(preprocess=PreprocessSettings(downsample_factor=cycle_rows))
        expected = experiment.preprocess_fleet(fleet, cfg, None)
        unit_bytes = n_rows * len(persist.NUMERIC_COLUMNS) * 8
        refused = AssertionError("parsed, not read from the twin")
        tracemalloc.start()
        try:
            with mock.patch.object(persist, "_parse_csv", side_effect=refused):
                units, _ = cli._prepared_units(str(tmp_path), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        same_fleet(units, expected)
        assert peak < 1.5 * unit_bytes, peak / unit_bytes

    def test_twin_hit_holds_nothing_per_row_before_a_unit_is_read(self, tmp_path):
        """A twin hit reads the ids and the end of each unit's rows, nothing
        per row: load_csv peaks within a few KiB of the same value when each
        unit has ten times the rows."""
        peaks = []
        for n_rows in (1_000, 10_000):
            fleet = [
                UnitSeries(f"u{i}", "", z=np.full((n_rows, 18), 0.5), cycle_of=np.arange(n_rows))
                for i in range(3)
            ]
            path = tmp_path / str(n_rows) / "fleet.csv"
            path.parent.mkdir()
            save_csv(fleet, path)
            list(load_csv(path))  # parses and writes the twin
            load_csv(path)  # a first hit, so that the traced one meets warm caches
            refused = AssertionError("parsed, not read from the twin")
            with mock.patch.object(persist, "_parse_csv", side_effect=refused):
                tracemalloc.start()
                try:
                    units = load_csv(path)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            peaks.append(peak)
            assert [u.n_rows for u in units] == [n_rows] * 3
        assert abs(peaks[1] - peaks[0]) < 4096, peaks

    @pytest.mark.parametrize("shape", [(10**12, 19), (-1, 19)])
    def test_table_header_of_another_size_is_not_read(self, tmp_path, shape):
        path = tmp_path / "fleet.csv"
        path.write_text(fleet_text())
        expected = list(load_csv(path))
        good = twin_bytes(path)
        data = twin_arrays(path)[4].tobytes()
        head = len(good) - len(data) - len(header_only_array((3, 19)))
        persist.twin_path(path).write_bytes(good[:head] + header_only_array(shape) + data)
        same_fleet(load_csv(path), expected)
        assert twin_bytes(path) == good

    @pytest.mark.parametrize("fails", ["open", "replace"])
    def test_unwritable_twin_still_returns_the_fleet(self, tmp_path, monkeypatch, fails):
        path = tmp_path / "fleet.csv"
        path.write_text(fleet_text())
        expected = _parse_csv(path)
        real_open = Path.open

        def refuse_temporaries(self, *args, **kwargs):
            if self.name.endswith(".tmp"):
                raise PermissionError(13, "Permission denied", str(self))
            return real_open(self, *args, **kwargs)

        def refuse(*args):
            raise OSError(30, "Read-only file system")

        if fails == "open":
            monkeypatch.setattr(Path, "open", refuse_temporaries)
        else:
            monkeypatch.setattr(persist.os, "replace", refuse)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fleet = list(load_csv(path))
        assert not caught
        assert [u.unit_id for u in fleet] == expected[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fleet.csv"]

    @pytest.mark.parametrize(
        "text, message",
        [
            (fleet_text().replace(",2.5", ",x", 1), "non-numeric value 'x'"),
            (fleet_text().replace(",2.5", "", 1), "cells, the header has"),
            (fleet_text(units=()), "has a header but no data rows"),
            (fleet_text(header=FLEET_COLUMNS[1:]), r"is missing column\(s\) \['unit'\]"),
        ],
        ids=["non_numeric", "ragged", "header_only", "missing_column"],
    )
    def test_refused_file_writes_no_twin(self, tmp_path, text, message):
        path = tmp_path / "fleet.csv"
        path.write_text(text)
        messages = []
        for _ in range(2):
            with pytest.raises(DataError, match=message) as caught:
                load_csv(path)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fleet.csv"]

    def test_non_utf8_file_writes_no_twin(self, tmp_path):
        path = tmp_path / "fleet.csv"
        path.write_bytes(fleet_text().encode().replace(b"u2", b"u\xff"))
        with pytest.raises(DataError, match="is not UTF-8 text: byte 0xff"):
            load_csv(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fleet.csv"]


class FailsMidWrite:
    """A file handle that writes half of the first write it gets, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("before", [None, b"the previous output\n"], ids=["new", "replaced"])
@pytest.mark.parametrize("writer", ["write_table", "save_checkpoint", "save_csv"])
def test_failed_write_publishes_nothing(tmp_path, monkeypatch, writer, before):
    target = tmp_path / "out.csv"
    if before is not None:
        target.write_bytes(before)
    oc, _ = make_models()
    write = {
        "write_table": lambda: persist.write_table(target, ["a", "b"], [[1, 2], [3, 4]]),
        "save_checkpoint": lambda: save_checkpoint(oc, target),
        "save_csv": lambda: save_csv(small_fleet()[0], target),
    }[writer]
    real_open = Path.open
    monkeypatch.setattr(Path, "open", lambda *a, **kw: FailsMidWrite(real_open(*a, **kw)))
    with pytest.raises(OSError, match="No space left on device"):
        write()
    monkeypatch.undo()
    if before is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_bytes() == before
    write()
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~current_umask()


def current_umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


class TestGroundTruthSidecar:
    def test_round_trip(self, tmp_path):
        records = [
            TruthRecord("u1", "fan", 20, ("P2", "P21")),
            TruthRecord("u2", "hpc", None, ()),
        ]
        path = tmp_path / "gt.csv"
        save_ground_truth(records, path)
        loaded = load_ground_truth(path)
        assert loaded["u1"].fault_cycle == 20
        assert loaded["u1"].fault_sensors == ("P2", "P21")
        assert loaded["u2"].fault_cycle is None
        assert loaded["u2"].fault_sensors == ()

    def test_missing_column(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("unit,family\nu1,fan\n")
        with pytest.raises(DataError, match=r"is missing column\(s\) \['fault_cycle'"):
            load_ground_truth(path)

    @pytest.mark.parametrize("token", ["x", "20.5", "1e3"])
    def test_non_integer_fault_cycle(self, tmp_path, token):
        path = tmp_path / "gt.csv"
        path.write_text(
            f"unit,family,fault_cycle,faulty_sensors\nu1,fan,20,P2\nu2,fan,{token},P2\n"
        )
        with pytest.raises(DataError, match=r"'fault_cycle', line 3"):
            load_ground_truth(path)

    def test_repeated_unit_is_data_error(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text(
            "unit,family,fault_cycle,faulty_sensors\nu1,fan,20,P2\nu2,fan,,\nu1,hpc,,\n"
        )
        expected = f"{path}: line 4 repeats unit 'u1'"
        with pytest.raises(DataError, match=f"^{re.escape(expected)}$"):
            load_ground_truth(path)


def make_models(seed=0):
    rng = np.random.default_rng(seed)
    std = Standardizer(mean=rng.normal(size=18), std=np.abs(rng.normal(size=18)) + 0.1)
    ae = ResidualModel(AE_KIND, nn.init_weights(layer_dims(AE_KIND), seed=seed), std)
    oc = ResidualModel(OC_KIND, nn.init_weights(layer_dims(OC_KIND), seed=seed + 1), std)
    return ae, oc


class TestCheckpoint:
    def test_forward_bit_exact_after_round_trip(self, tmp_path, rng):
        ae, oc = make_models()
        for model, width in ((ae, 18), (oc, 4)):
            path = tmp_path / f"{model.kind}.json"
            save_checkpoint(model, path, metadata={"seed": 7})
            loaded, metadata = load_checkpoint(path)
            assert metadata == {"seed": 7}
            x = rng.normal(size=(100, width))
            np.testing.assert_array_equal(
                nn.forward(loaded.net, x), nn.forward(model.net, x)
            )
            np.testing.assert_array_equal(loaded.standardizer.mean, model.standardizer.mean)
            np.testing.assert_array_equal(loaded.standardizer.std, model.standardizer.std)

    def test_tampered_version(self, tmp_path):
        ae, _ = make_models()
        path = tmp_path / "ae.json"
        save_checkpoint(ae, path)
        blob = json.loads(path.read_text())
        blob["format_version"] = 99
        path.write_text(json.dumps(blob))
        with pytest.raises(DataError, match="format version 99, expected "):
            load_checkpoint(path)

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="not valid checkpoint JSON"):
            load_checkpoint(path)

    def test_missing_field(self, tmp_path):
        ae, _ = make_models()
        path = tmp_path / "ae.json"
        save_checkpoint(ae, path)
        blob = json.loads(path.read_text())
        del blob["weights"]
        path.write_text(json.dumps(blob))
        with pytest.raises(DataError, match=r"malformed checkpoint \('weights'\)"):
            load_checkpoint(path)

    def tampered(self, tmp_path, model, **fields):
        path = tmp_path / "tampered.json"
        save_checkpoint(model, path)
        blob = json.loads(path.read_text())
        blob.update(fields)
        path.write_text(json.dumps(blob))
        return path

    def test_unknown_kind(self, tmp_path):
        ae, _ = make_models()
        with pytest.raises(DataError, match="unknown model kind 'RNN'"):
            load_checkpoint(self.tampered(tmp_path, ae, kind="RNN"))

    def test_ae_dims_under_oc_kind(self, tmp_path):
        ae, _ = make_models()
        with pytest.raises(DataError, match="expected layer dims"):
            load_checkpoint(self.tampered(tmp_path, ae, kind="OC"))

    def test_oc_n_w_not_matching_first_layer(self, tmp_path):
        _, oc = make_models()
        with pytest.raises(DataError, match="n_w 5 and a standardizer over 18 "):
            load_checkpoint(self.tampered(tmp_path, oc, n_w=5))

    @pytest.mark.parametrize("n_w", [-7, 0, 3, 5, 18])
    def test_ae_n_w_not_the_fleets(self, tmp_path, n_w):
        # the weights fix no descriptor count, so the field is checked on its own
        ae, _ = make_models()
        with pytest.raises(DataError, match=f"n_w {n_w} and a standardizer over 18 "):
            load_checkpoint(self.tampered(tmp_path, ae, n_w=n_w))

    def test_standardizer_not_over_the_fleets_channels(self, tmp_path):
        narrow = Standardizer(mean=np.zeros(17), std=np.ones(17))
        for model in make_models():
            blob = {"mean": [0.0] * 17, "std": [1.0] * 17, "epsilon": narrow.epsilon}
            with pytest.raises(DataError, match=f"inconsistent checkpoint \\({model.kind} model: "
                               "expected a standardizer over 18 channels, got 17\\)"):
                load_checkpoint(self.tampered(tmp_path, model, standardizer=blob))
            with pytest.raises(ComputeError, match="expected a standardizer over 18 channels"):
                ResidualModel(model.kind, model.net, narrow)

    @pytest.mark.parametrize(
        "field, value", [("layer_dims", [float("inf")]), ("n_w", float("inf")), ("n_w", -1e400)]
    )
    def test_number_past_its_type_is_corrupt(self, tmp_path, field, value):
        ae, _ = make_models()
        with pytest.raises(DataError, match="malformed checkpoint"):
            load_checkpoint(self.tampered(tmp_path, ae, **{field: value}))

    def test_non_finite_weights_refused(self, tmp_path):
        ae, _ = make_models()
        ae.net.weights[0][0, 0] = np.inf
        with pytest.raises(ValueError):
            save_checkpoint(ae, tmp_path / "bad.json")


class TestReportsCsv:
    def make_report(self, unit, alarm=30, n_true=20):
        return DetectionReport(
            unit_id=unit,
            dataset_id="fan",
            alarm_cycle=alarm,
            n_true=n_true,
            triggered_first=("P2", "Nf") if alarm is not None else (),
            ground_truth_known=True,
        )

    def test_round_trip(self, tmp_path):
        reports = [self.make_report("u1"), self.make_report("u2", alarm=None)]
        path = tmp_path / "reports.csv"
        save_reports(reports, "OC", "sensorwise", path)
        groups = load_reports(path)
        loaded = groups[("OC", "sensorwise")]
        assert loaded[0].alarm_cycle == 30
        assert loaded[0].delay == 10
        assert loaded[0].triggered_first == ("P2", "Nf")
        assert loaded[1].alarm_cycle is None
        assert loaded[1].delay is None

    def test_rows_grouped_by_model_and_kind(self, tmp_path):
        path = tmp_path / "reports.csv"
        other = tmp_path / "other.csv"
        save_reports([self.make_report("u1")], "OC", "sensorwise", path)
        save_reports([self.make_report("u1")], "OC", "aggregated", other)
        rows = other.read_text().splitlines(keepends=True)[1:]
        path.write_text(path.read_text() + "".join(rows))
        groups = load_reports(path)
        assert set(groups) == {("OC", "sensorwise"), ("OC", "aggregated")}

    def test_repeated_unit_is_data_error(self, tmp_path):
        path = tmp_path / "reports.csv"
        reports = [self.make_report("u1"), self.make_report("u2"), self.make_report("u1")]
        save_reports(reports, "OC", "sensorwise", path)
        expected = f"{path}: line 4 repeats unit 'u1' of the OC sensorwise reports"
        with pytest.raises(DataError, match=f"^{re.escape(expected)}$"):
            load_reports(path)

    def test_header_only_is_empty_file(self, tmp_path):
        path = tmp_path / "reports.csv"
        save_reports([], "OC", "sensorwise", path)
        with pytest.raises(DataError, match="has a header but no data rows"):
            load_reports(path)

    def test_missing_columns_are_named(self, tmp_path):
        path = tmp_path / "reports.csv"
        save_reports([self.make_report("u1")], "OC", "sensorwise", path)
        with path.open(newline="") as fh:
            rows = [row[:6] + row[7:8] for row in csv.reader(fh)]  # no delay, no gt_known
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        expected = f"{path} is missing column(s) ['delay', 'gt_known']"
        with pytest.raises(DataError, match=f"^{re.escape(expected)}$"):
            load_reports(path)

    @pytest.mark.parametrize(
        "column, token",
        [("alarm_cycle", "abc"), ("fault_cycle", "2.5"), ("delay", "ten"),
         ("gt_known", "yes"), ("gt_known", "2"), ("gt_known", "")],
    )
    def test_malformed_cell(self, tmp_path, column, token):
        path = tmp_path / "reports.csv"
        save_reports([self.make_report("u1"), self.make_report("u2")], "OC", "sensorwise", path)
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[1][column] = token
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        with pytest.raises(DataError, match=rf"{column}.*line 3"):
            load_reports(path)

    def test_stats_csv_written(self, tmp_path):
        stats = HealthyStats(
            mu=np.array([1.0, 2.0]), sigma=np.array([0.5, 0.25]),
            tau=np.array([2.5, 2.75]), fitted_on=100, channel_names=("a", "b"),
        )
        path = tmp_path / "stats.csv"
        save_stats(stats, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "channel,mu,sigma,tau,fitted_on"
        assert len(lines) == 3

    def test_stats_blob_round_trip(self):
        stats = HealthyStats(
            mu=np.array([0.1]), sigma=np.array([0.2]), tau=np.array([0.7]), fitted_on=9,
            channel_names=("only",),
        )
        blob = stats_to_blob(stats)
        back = stats_from_blob(json.loads(json.dumps(blob)))
        np.testing.assert_array_equal(back.mu, stats.mu)
        np.testing.assert_array_equal(back.tau, stats.tau)
        assert back.channel_names == ("only",)

    @pytest.mark.parametrize("field, value", [("fitted_on", float("inf")), ("mu", [10**400])])
    def test_stats_blob_with_a_number_past_its_type_is_corrupt(self, field, value):
        blob = {"channels": ["only"], "mu": [0.1], "sigma": [0.2], "tau": [0.7], "fitted_on": 9}
        with pytest.raises(DataError, match="malformed healthy statistics blob"):
            stats_from_blob({**blob, field: value})


class TestHiExport:
    def test_cycle_hi_export(self, tmp_path):
        from resfault.detector import cycle_average
        from resfault.health import aggregated_hi

        hi = aggregated_hi(np.array([[0.3, 0.4], [0.45, 0.6]]))
        avgs = {"u1": cycle_average(hi, [0, 1])}
        path = tmp_path / "cycle_hi.csv"
        save_cycle_hi_csv(avgs, ("aggregated",), path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "unit,cycle,channel,value"
        assert rows[1] == "u1,0,aggregated,0.5"
        assert len(rows) == 3

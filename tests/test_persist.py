import csv
import json
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resfault import nn, persist
from resfault.data_model import DEFAULT_W_CHANNELS, DEFAULT_X_CHANNELS, UnitSeries
from resfault.detector import HealthyStats
from resfault.errors import (
    CorruptCheckpoint,
    DataError,
    EmptyFile,
    MissingColumn,
    NonNumericCell,
    RaggedRow,
    VersionMismatch,
)
from resfault.models import AE_KIND, OC_KIND, ResidualModel, layer_dims
from resfault.persist import (
    FLEET_COLUMNS,
    TruthRecord,
    _parse_csv,
    _parse_fast,
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
from resfault.config import RunConfig, SynthSettings
from resfault.synth import gen_fleet
from resfault.detector import DetectionReport


LINE_ENDS = ("\n", "\r\n")
# The fast parse's default block, and blocks so small that lines, UTF-8
# sequences and "\r\n" pairs cross their edges.
SCAN_BLOCKS = (persist._SCAN_BLOCK_BYTES, 1, 7, 64)


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


def same_columns(a, b):
    """Two parses agree bit for bit: unit ids, row codes, cycles, w and x."""
    assert a[0] == b[0]
    for left, right in zip(a[1:], b[1:]):
        assert left.dtype == right.dtype and left.shape == right.shape
        assert left.tobytes() == right.tobytes()


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
        path.write_bytes(text.removesuffix(b"\r\n"))
        same_columns(_parse_fast(path), _parse_csv(path))
        path.write_bytes(text)
        same_columns(_parse_fast(path), _parse_csv(path))
        loaded = load_csv(str(path))  # a str path as well as a Path
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
        with pytest.raises(MissingColumn) as err:
            load_csv(path)
        assert "XM" in str(err.value)

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_interleaved_units_regrouped(self, tmp_path, quote):
        # quoted unit cells, such as "a", are refused by the fast parse and
        # name the unit without their quotes
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
                assert (_parse_fast(path) is None) == bool(quote)
                fleet = load_csv(path)
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
            with pytest.raises(NonNumericCell) as err:
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
            with pytest.raises(NonNumericCell) as err:
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
            with pytest.raises(RaggedRow) as err:
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
        with pytest.raises(NonNumericCell) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: {error}"

    def test_ragged_row_outranks_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, [",".join(FLEET_COLUMNS[:-1]), ",".join(["u1", "0"] + ["1.0"] * 18)], "\n")
        with pytest.raises(RaggedRow, match="line 2 has 20 cells, the header has 19"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyFile):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "hdr.csv"
        for line_end in LINE_ENDS + ("",):
            path.write_bytes((",".join(FLEET_COLUMNS) + line_end).encode())
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(EmptyFile, match="has a header but no data rows"):
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
            UnitSeries(
                unit_id=uid,
                dataset_id="",
                z=values.reshape(n, 18),
                n_w=4,
                cycle_of=cycles,
                channel_names=DEFAULT_W_CHANNELS + DEFAULT_X_CHANNELS,
            )
        )
    return fleet


@pytest.mark.parametrize("block", SCAN_BLOCKS)
@settings(max_examples=150, deadline=None)
@given(fleet=fleets())
def test_save_matches_reference_and_round_trips(block, fleet):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        persist, "_SCAN_BLOCK_BYTES", block
    ):
        path, reference = Path(tmp) / "fleet.csv", Path(tmp) / "reference.csv"
        save_csv(fleet, path)
        reference_save_csv(fleet, reference)
        text = path.read_bytes()
        assert text == reference.read_bytes()
        # the file as written, and without its final line end
        for variant in (text, text.removesuffix(b"\r\n")):
            path.write_bytes(variant)
            loaded = load_csv(path)
            fast = _parse_fast(path)
            if fast is not None:
                same_columns(fast, _parse_csv(path))
            assert [u.unit_id for u in loaded] == [u.unit_id for u in fleet]
            for a, b in zip(fleet, loaded):
                assert a.w.tobytes() == b.w.tobytes()
                assert a.x.tobytes() == b.x.tobytes()
                assert a.cycle_of.tobytes() == b.cycle_of.tobytes()


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


@pytest.mark.parametrize("block", SCAN_BLOCKS)
@settings(max_examples=300, deadline=None)
@given(text=damaged_fleet_files())
def test_loadtxt_path_agrees_with_csv_path(block, text):
    """The fast parse answers only where the csv parse gives the same columns."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        persist, "_SCAN_BLOCK_BYTES", block
    ):
        path = Path(tmp) / "fleet.csv"
        path.write_bytes(text.encode())
        fast = _parse_fast(path)
        try:
            slow = _parse_csv(path)
        except DataError:
            assert fast is None
            return
    if fast is not None:
        same_columns(fast, slow)


def fleet_text(header=FLEET_COLUMNS, units=("u1", "u1", "u2"), line_end="\n"):
    """A fleet file of one row per unit cell, the cells of ``header`` in order."""
    lines = [",".join(header)]
    for cycle, uid in enumerate(units):
        cells = dict(zip(FLEET_COLUMNS, [uid, str(cycle)] + [f"{cycle}.5"] * 18))
        lines.append(",".join(cells.get(name, "0") for name in header))
    return line_end.join(lines) + line_end


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
def test_fast_parse_leaves_the_file_to_the_csv_parse(tmp_path, text):
    path = tmp_path / "fleet.csv"
    path.write_bytes(text.encode())
    assert _parse_fast(path) is None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            expected = _parse_csv(path)
        except DataError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                load_csv(path)
        else:
            fleet = load_csv(path)
            assert [u.unit_id for u in fleet] == expected[0]
            assert sum(u.n_rows for u in fleet) == len(expected[1])
    assert not caught


def test_fast_parse_leaves_a_file_without_newlines_unread(tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_bytes(fleet_text(units=("u1",) * 5000, line_end="\r").encode())
    tracemalloc.start()
    try:
        assert _parse_fast(path) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


def test_fast_parse_reads_pairs_cut_by_a_block(tmp_path):
    text = fleet_text(line_end="\r\n").encode()
    path = tmp_path / "fleet.csv"
    path.write_bytes(text)
    # the last size ends the first block between the header's "\r" and "\n"
    for block in SCAN_BLOCKS + (text.index(b"\n"),):
        with mock.patch.object(persist, "_SCAN_BLOCK_BYTES", block):
            same_columns(_parse_fast(path), _parse_csv(path))


@pytest.mark.parametrize("at", [0, 5, len(FLEET_COLUMNS)])
def test_fast_parse_reads_extra_text_columns(tmp_path, at):
    # text, empty and non-ASCII cells in a column the fleet does not use
    header = FLEET_COLUMNS[:at] + ("note",) + FLEET_COLUMNS[at:]
    notes = iter(["a long note", "", "ünï"])
    text = fleet_text(header=header, units=("u1", "é", "u1"))
    lines = text.split("\n")
    for i in range(1, 4):
        cells = lines[i].split(",")
        cells[at] = next(notes)
        lines[i] = ",".join(cells)
    path = tmp_path / "fleet.csv"
    path.write_bytes("\n".join(lines).encode())
    same_columns(_parse_fast(path), _parse_csv(path))


def test_fast_parse_names_its_fields_by_place(tmp_path):
    # an unnamed column next to one called "f19", numpy's name for an unnamed 20th field
    path = tmp_path / "fleet.csv"
    header = FLEET_COLUMNS[:-1] + ("", "f19") + FLEET_COLUMNS[-1:]
    path.write_bytes(fleet_text(header=header).encode())
    same_columns(_parse_fast(path), _parse_csv(path))


@pytest.mark.parametrize("block", SCAN_BLOCKS)
@pytest.mark.parametrize(
    "data",
    [
        # read as latin-1, a lone 0xa0 byte is a space numpy strips from a number
        fleet_text().encode().replace(b"1.5", b"1.5\xa0"),
        fleet_text().encode().removesuffix(b"\n") + b"\xa0",
        # the first byte of a two-byte sequence, cut by the end of the file
        fleet_text(header=FLEET_COLUMNS[1:] + FLEET_COLUMNS[:1]).encode().removesuffix(b"\n")
        + b"\xc3",
    ],
    ids=["in_a_number", "last_byte", "cut_sequence_in_unit"],
)
def test_non_utf8_file_is_data_error(tmp_path, block, data):
    path = tmp_path / "fleet.csv"
    path.write_bytes(data)
    with mock.patch.object(persist, "_SCAN_BLOCK_BYTES", block):
        assert _parse_fast(path) is None
        with pytest.raises(DataError, match="is not UTF-8 text"):
            load_csv(path)


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
        with pytest.raises(MissingColumn):
            load_ground_truth(path)

    @pytest.mark.parametrize("token", ["x", "20.5", "1e3"])
    def test_non_integer_fault_cycle(self, tmp_path, token):
        path = tmp_path / "gt.csv"
        path.write_text(
            f"unit,family,fault_cycle,faulty_sensors\nu1,fan,20,P2\nu2,fan,{token},P2\n"
        )
        with pytest.raises(NonNumericCell, match=r"'fault_cycle', line 3"):
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
    n_w, n_x = 4, 14
    n_z = n_w + n_x
    rng = np.random.default_rng(seed)
    std = Standardizer(mean=rng.normal(size=n_z), std=np.abs(rng.normal(size=n_z)) + 0.1)
    ae = ResidualModel(
        AE_KIND, net=nn.init_weights(layer_dims(AE_KIND, n_w, n_x), seed=seed),
        standardizer=std, n_w=n_w,
    )
    oc = ResidualModel(
        OC_KIND, net=nn.init_weights(layer_dims(OC_KIND, n_w, n_x), seed=seed + 1),
        standardizer=std, n_w=n_w,
    )
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
        with pytest.raises(VersionMismatch):
            load_checkpoint(path)

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_missing_field(self, tmp_path):
        ae, _ = make_models()
        path = tmp_path / "ae.json"
        save_checkpoint(ae, path)
        blob = json.loads(path.read_text())
        del blob["weights"]
        path.write_text(json.dumps(blob))
        with pytest.raises(CorruptCheckpoint):
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
        with pytest.raises(CorruptCheckpoint, match="unknown model kind 'RNN'"):
            load_checkpoint(self.tampered(tmp_path, ae, kind="RNN"))

    def test_ae_dims_under_oc_kind(self, tmp_path):
        ae, _ = make_models()
        with pytest.raises(CorruptCheckpoint, match="expected layer dims"):
            load_checkpoint(self.tampered(tmp_path, ae, kind="OC"))

    def test_oc_n_w_not_matching_first_layer(self, tmp_path):
        _, oc = make_models()
        with pytest.raises(CorruptCheckpoint, match="expected layer dims"):
            load_checkpoint(self.tampered(tmp_path, oc, n_w=5))

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
        with pytest.raises(EmptyFile, match="has a header but no data rows"):
            load_reports(path)

    def test_missing_columns_are_named(self, tmp_path):
        path = tmp_path / "reports.csv"
        save_reports([self.make_report("u1")], "OC", "sensorwise", path)
        with path.open(newline="") as fh:
            rows = [row[:6] + row[7:8] for row in csv.reader(fh)]  # no delay, no gt_known
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        expected = f"{path} is missing column(s) ['delay', 'gt_known']"
        with pytest.raises(MissingColumn, match=f"^{re.escape(expected)}$"):
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
        with pytest.raises(NonNumericCell, match=rf"{column}.*line 3"):
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

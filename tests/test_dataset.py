"""Data layer: parsing, cleaning, quality aggregation, partitioning, synthesis."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincontrib import dataset
from chaincontrib.dataset import (
    NOISE_ACTOR_ID,
    ActorDataset,
    MetricSeries,
    ParseError,
    RawTable,
    SyntheticSpec,
    aggregate_quality,
    build_metric_series,
    clean_measurements,
    generate_synthetic,
    list_actor_ids,
    load_actor_dataset,
    load_actor_datasets,
    load_csv,
    make_noise_actor,
    partition_actors,
    parse_json,
    require_file_name,
    require_real,
    require_unique,
    save_actor_datasets,
    write_csv,
    write_json,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic_table_preserves_row_order(self, tmp_path):
        p = write(tmp_path / "t.csv", "id,a,b\nP3,1,2\nP1,3,4\nP2,5,6\n")
        table = load_csv(p, id_column="id")
        assert table.ids == ("P3", "P1", "P2")
        assert table.columns == ("a", "b")
        np.testing.assert_array_equal(table.values, [[1, 2], [3, 4], [5, 6]])

    def test_empty_cell_becomes_missing_marker(self, tmp_path):
        p = write(tmp_path / "t.csv", "id,a\nP1,1\nP2,\nP3,3\n")
        table = load_csv(p, id_column="id")
        assert np.isnan(table.values[1, 0])
        assert np.isnan(table.values).sum() == 1

    def test_nan_literal_any_case_is_missing(self, tmp_path):
        p = write(tmp_path / "t.csv", "id,a\nP1,NaN\nP2,nan\nP3,NAN\n")
        table = load_csv(p, id_column="id")
        assert np.isnan(table.values).all()

    def test_header_only_file_gives_zero_rows(self, tmp_path):
        p = write(tmp_path / "t.csv", "id,a,b\n")
        table = load_csv(p, id_column="id")
        assert table.n_rows == 0
        assert table.values.shape == (0, 2)

    def test_wrong_arity_row_errors_with_row_index(self, tmp_path):
        p = write(tmp_path / "t.csv", "id,a,b,c,d\nP1,1,2,3\n")
        with pytest.raises(ParseError, match="row 0"):
            load_csv(p, id_column="id")

    def test_duplicate_ids_rejected(self, tmp_path):
        p = write(tmp_path / "t.csv", "id,a\nP1,1\nP1,2\n")
        with pytest.raises(ParseError, match=r"t\.csv: id 'P1' appears more than once"):
            load_csv(p, id_column="id")

    def test_unparseable_number_names_row_and_column(self, tmp_path):
        p = write(tmp_path / "t.csv", "id,a\nP1,oops\n")
        with pytest.raises(ParseError, match="row 0.*'a'"):
            load_csv(p, id_column="id")

    def test_missing_id_column_rejected(self, tmp_path):
        p = write(tmp_path / "t.csv", "id,a\nP1,1\n")
        with pytest.raises(ParseError, match="part"):
            load_csv(p, id_column="part")

    def test_empty_file_rejected(self, tmp_path):
        p = write(tmp_path / "t.csv", "")
        with pytest.raises(ParseError, match="empty"):
            load_csv(p, id_column="id")

    def test_repeated_header_column_rejected_before_any_row(self, tmp_path):
        # Read on, the second 'a' would hold the first one's values. The
        # short row would be an error too, so no row was read.
        p = write(tmp_path / "t.csv", "id,a,b,a\nP1,1\n")
        with pytest.raises(ParseError, match=r"t\.csv: column 'a' appears more than once"):
            load_csv(p, id_column="id")

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        text = "part_id,a,b\r\nP1,1.5,\r\nP2,NaN,-2\r\n"
        plain = load_csv(write(tmp_path / "plain.csv", text), id_column="part_id")
        marked = load_csv(write(tmp_path / "bom.csv", "\ufeff" + text), id_column="part_id")
        assert (marked.ids, marked.columns) == (plain.ids, plain.columns)
        np.testing.assert_array_equal(marked.values, plain.values)


def reference_load(path, id_column):
    """The per-cell loader: every cell through _parse_cell, checks in row
    order, then the duplicate scan. Returns (ids, columns, rows)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        id_pos = header.index(id_column)
        ids, rows = [], []
        for row_index, row in enumerate(reader):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row {row_index} has {len(row)} fields, expected {len(header)}"
                )
            part_id = row[id_pos].strip()
            if not part_id:
                raise ParseError(f"{path}: row {row_index} has an empty id")
            ids.append(part_id)
            rows.append(
                [
                    dataset._parse_cell(cell, path, row_index, header[i])
                    for i, cell in enumerate(row)
                    if i != id_pos
                ]
            )
    seen = set()
    for part_id in ids:
        if part_id in seen:
            raise ParseError(f"{path}: {id_column} {part_id!r} appears more than once")
        seen.add(part_id)
    columns = tuple(c for i, c in enumerate(header) if i != id_pos)
    return tuple(ids), columns, rows


# Whitespace that str.strip removes; float() does not strip "\x1c".
PADDING = st.text(st.sampled_from(" \t\n\x1c\xa0\u3000"), max_size=2)
NUMBER_TEXTS = st.sampled_from(
    ["1", "-2.5e3", "0.1", "-0", "1_0", "inf", "-Infinity", "nan", "NaN", "-nan", "nAN", ""]
) | st.floats(allow_nan=False).map(repr)
JUNK_TEXTS = st.sampled_from(["junk", "1 2", "0x1", "--1", "1__0", "nan!", "1,5"])
NUMBER_CELLS = st.tuples(PADDING, NUMBER_TEXTS, PADDING).map("".join)
ANY_CELLS = st.tuples(PADDING, NUMBER_TEXTS | JUNK_TEXTS, PADDING).map("".join)


@st.composite
def csv_files(draw):
    """A header and rows of cell texts. In a faulty file a row may have a
    wrong field count, a blank or repeated id, or a junk cell."""
    faulty = draw(st.booleans())
    width = draw(st.integers(0, 3))
    id_pos = draw(st.integers(0, width))
    header = [f"c{i}" for i in range(width)]
    header.insert(id_pos, "id")
    rows = []
    for index in range(draw(st.integers(0, 6))):
        kind = ANY_CELLS if faulty else NUMBER_CELLS
        cells = draw(st.lists(kind, min_size=width, max_size=width))
        if not faulty:
            cells.insert(id_pos, f" P{index}")
            rows.append(cells)
            continue
        cells.insert(id_pos, draw(st.sampled_from(["P0", "P1", " P2", " "])))
        fault = draw(st.sampled_from(["none", "none", "short", "long"]))
        if fault == "short":
            cells.pop()
        elif fault == "long":
            cells.append("1")
        rows.append(cells)
    return header, rows


class TestLoadCsvMatchesPerCellOracle:
    @given(table=csv_files(), bom=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_values_and_errors_equal_the_oracle(self, tmp_path_factory, table, bom):
        header, rows = table
        path = tmp_path_factory.mktemp("load") / "t.csv"
        with path.open("w", newline="", encoding="utf-8-sig" if bom else "utf-8") as fh:
            csv.writer(fh).writerows([header, *rows])
        try:
            ids, columns, expected = reference_load(path, "id")
        except ParseError as exc:
            with pytest.raises(ParseError) as raised:
                load_csv(path, id_column="id")
            assert str(raised.value) == str(exc)
            return
        table = load_csv(path, id_column="id")
        assert (table.ids, table.columns) == (ids, columns)
        want = np.asarray(expected, dtype=float).reshape(len(ids), len(columns))
        # Bit for bit, so a NaN's sign counts too.
        assert table.values.tobytes() == want.tobytes()

    def test_first_fault_in_row_order_is_reported(self, tmp_path):
        p = write(tmp_path / "t.csv", "id,a,b\nP1,1,2\nP2,oops,2\nP3,1\nP1,1,2\n")
        message = f"{p}: row 1, column 'a': cannot parse 'oops'"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
            load_csv(p, id_column="id")
        p = write(tmp_path / "u.csv", "id,a,b\nP1,1,2\nP1,1,2\nP3,1\nP4,x,2\n")
        with pytest.raises(ParseError, match="row 2 has 2 fields, expected 3"):
            load_csv(p, id_column="id")


def csv_writer_bytes(header, rows) -> bytes:
    """What csv.writer writes row by row, bools as true/false."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([("true" if c else "false") if type(c) is bool else c for c in row])
    return buf.getvalue().encode("utf-8")


FLOAT_CELLS = st.floats() | st.sampled_from(
    [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5]
)
# Mostly plain text, sometimes a field that csv.writer has to quote.
STR_CELLS = st.text(st.sampled_from("ab é-"), max_size=4) | st.text(
    st.sampled_from('a,"\r\n '), max_size=4
)
OTHER_CELLS = st.integers(-(10**20), 10**20) | st.booleans() | st.none()


@st.composite
def tables(draw):
    """Rows of one cell kind per column, as the package writes them, some
    of them cut short, or rows of any cells and any lengths."""
    shape = draw(st.sampled_from(["columns", "cut", "any"]))
    if shape == "any":
        cells = FLOAT_CELLS | STR_CELLS | OTHER_CELLS
        return draw(st.lists(st.lists(cells, max_size=4), max_size=9))
    n = draw(st.integers(0, 9))
    kinds = draw(
        st.lists(st.sampled_from([FLOAT_CELLS, STR_CELLS, OTHER_CELLS]), min_size=1, max_size=4)
    )
    rows = list(zip(*(draw(st.lists(kind, min_size=n, max_size=n)) for kind in kinds)))
    if shape == "cut":
        rows = [row[: draw(st.integers(0, len(row)))] for row in rows]
    return rows


class TestWriteCsv:
    EDGE_FLOATS = [0.1, 1.0 / 3.0, -0.0, 1e16, 5e-324, 1.7976931348623157e308]

    def test_floats_read_back_exactly(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["id", "x"], [(f"P{i}", v) for i, v in enumerate(self.EDGE_FLOATS)])
        table = load_csv(p, id_column="id")
        assert [v.hex() for v in table.values[:, 0].tolist()] == [
            v.hex() for v in self.EDGE_FLOATS
        ]

    def test_bools_written_lowercase_and_numbers_left_alone(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["id", "flag", "x"], [("P1", True, 1.0), ("P2", False, 0), ("P3", 1, 0.0)])
        assert p.read_bytes() == b"id,flag,x\r\nP1,true,1.0\r\nP2,false,0\r\nP3,1,0.0\r\n"

    @given(header=st.lists(STR_CELLS, max_size=4), rows=tables(), block_cells=st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_a_plain_csv_writer(self, tmp_path_factory, header, rows, block_cells):
        p = tmp_path_factory.mktemp("write") / "t.csv"
        with mock.patch.object(dataset, "_WRITE_BLOCK_CELLS", block_cells):
            write_csv(p, header, iter(rows))
        assert p.read_bytes() == csv_writer_bytes(header, rows)

    def test_table_longer_than_one_block(self, tmp_path):
        # Three columns: a block holds about a third as many rows as cells.
        rows = [(f"P{i}", i / 7, -float(i)) for i in range(dataset._WRITE_BLOCK_CELLS)]
        rows[dataset._WRITE_BLOCK_CELLS // 2] = ("P,odd", True, None)
        p = tmp_path / "t.csv"
        write_csv(p, ["id", "a", "b"], rows)
        assert p.read_bytes() == csv_writer_bytes(["id", "a", "b"], rows)



class TestRawTableSelect:
    def make_table(self):
        return RawTable(
            ids=("P0", "P1", "P2"),
            columns=("a", "b", "c"),
            values=np.arange(9.0).reshape(3, 3),
        )

    def test_columns_come_back_in_the_requested_order(self):
        table = self.make_table().select(["c", "a"])
        assert table.columns == ("c", "a")
        assert table.ids == ("P0", "P1", "P2")
        np.testing.assert_array_equal(table.values, [[2.0, 0.0], [5.0, 3.0], [8.0, 6.0]])

    def test_mask_keeps_rows_in_order(self):
        table = self.make_table().select(["b"], np.array([True, False, True]))
        assert table.ids == ("P0", "P2")
        np.testing.assert_array_equal(table.values, [[1.0], [7.0]])

    def test_no_columns_keeps_the_rows(self):
        table = self.make_table().select([])
        assert table.columns == ()
        assert table.values.shape == (3, 0)

    def test_unknown_column_rejected(self):
        with pytest.raises(ValueError, match="nope"):
            self.make_table().select(["a", "nope"])


class TestCleanMeasurements:
    def make_table(self, values, columns=None):
        values = np.asarray(values, dtype=float)
        columns = tuple(columns or (f"m{i}" for i in range(values.shape[1])))
        ids = tuple(f"P{i}" for i in range(values.shape[0]))
        return RawTable(ids=ids, columns=columns, values=values)

    def test_mostly_missing_column_is_removed(self):
        # 12780 of 14000 missing is far beyond the 0.5 threshold.
        n = 14000
        bad = np.full(n, np.nan)
        bad[: n - 12780] = 1.0
        good = np.ones(n)
        table = self.make_table(np.column_stack([good, bad]), ["good", "bad"])
        cleaned = clean_measurements(
            table, measurement_columns=list(table.columns), column_missing_threshold=0.5
        )
        assert cleaned.columns == ("good",)
        assert cleaned.n_rows == n

    def test_no_missing_values_is_identity(self):
        table = self.make_table([[1.0, 2.0], [3.0, 4.0]])
        cleaned = clean_measurements(table, measurement_columns=list(table.columns))
        assert cleaned.columns == table.columns
        assert cleaned.ids == table.ids
        np.testing.assert_array_equal(cleaned.values, table.values)

    def test_rows_missing_kept_measurements_are_dropped(self):
        values = np.ones((10, 2))
        values[2, 0] = np.nan
        values[7, 1] = np.nan
        table = self.make_table(values)
        cleaned = clean_measurements(table, measurement_columns=list(table.columns))
        assert cleaned.n_rows == 8
        assert "P2" not in cleaned.ids and "P7" not in cleaned.ids

    def test_never_imputes(self):
        # Every surviving cell must exist verbatim in the input.
        rng = np.random.default_rng(3)
        values = rng.normal(size=(50, 4))
        values[rng.random((50, 4)) < 0.2] = np.nan
        table = self.make_table(values)
        cleaned = clean_measurements(table, measurement_columns=list(table.columns))
        for i, pid in enumerate(cleaned.ids):
            src = table.ids.index(pid)
            for j, col in enumerate(cleaned.columns):
                assert cleaned.values[i, j] == table.values[src, table.columns.index(col)]

    def test_only_named_measurement_columns_are_considered(self):
        values = np.ones((6, 2))
        values[:5, 1] = np.nan  # feature column, mostly missing
        table = self.make_table(values, ["m0", "f0"])
        cleaned = clean_measurements(table, measurement_columns=["m0"])
        assert cleaned.columns == ("m0", "f0")
        assert cleaned.n_rows == 6

    def test_all_columns_dropped_is_an_error(self):
        table = self.make_table(np.full((8, 2), np.nan))
        with pytest.raises(ValueError, match="threshold"):
            clean_measurements(table, measurement_columns=list(table.columns))

    def test_threshold_domain_enforced(self):
        table = self.make_table([[1.0]])
        with pytest.raises(ValueError):
            clean_measurements(
                table, measurement_columns=list(table.columns), column_missing_threshold=0.0
            )
        with pytest.raises(ValueError):
            clean_measurements(
                table, measurement_columns=list(table.columns), column_missing_threshold=1.5
            )

    def test_unknown_measurement_column_rejected(self):
        table = self.make_table([[1.0]])
        with pytest.raises(ValueError, match="nope"):
            clean_measurements(table, measurement_columns=["nope"])


class TestAggregateQuality:
    def test_perfect_actuals_give_zero(self):
        assert aggregate_quality([[2.0, 3.0], [2.0, 3.0]], [2.0, 3.0]) == 0.0

    def test_two_types_one_part_hand_value(self):
        # (0.1 + 0.1) / 2, exact up to float rounding of 1.1 - 1.0
        assert aggregate_quality([[1.1, 0.9]], [1.0, 1.0]) == pytest.approx(0.1, abs=1e-15)

    def test_one_type_two_parts_hand_value(self):
        assert aggregate_quality([[2.0], [0.0]], [1.0]) == 2.0

    def test_zero_setpoint_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            aggregate_quality([[1.0]], [0.0])

    def test_missing_values_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            aggregate_quality([[np.nan]], [1.0])

    @pytest.mark.parametrize(
        ("actuals", "setpoints", "message"),
        [
            (np.empty((0, 2)), [1.0, 1.0], "must not be empty"),
            ([[1.0, 2.0]], [1.0], "one setpoint per measurement type"),
            ([[1.0, 2.0], [1.0, 2.0]], [[1.0, 2.0]], "must match the actuals shape"),
        ],
        ids=["empty", "setpoint-count", "per-part-shape"],
    )
    def test_shapes_checked(self, actuals, setpoints, message):
        with pytest.raises(ValueError, match=message):
            aggregate_quality(actuals, setpoints)

    def test_per_part_setpoints_supported(self):
        assert aggregate_quality([[1.0], [4.0]], [[2.0], [2.0]]) == pytest.approx(
            (0.5 + 1.0) / 1.0
        )

    @given(
        deviation=st.floats(0.0, 5.0),
        scale=st.floats(0.1, 10.0),
        n_types=st.integers(1, 6),
        n_parts=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_scales_linearly_in_relative_deviation(
        self, deviation, scale, n_types, n_parts
    ):
        setpoints = np.full(n_types, 2.0)
        actuals = np.full((n_parts, n_types), 2.0 * (1.0 + deviation))
        base = aggregate_quality(actuals, setpoints)
        scaled = aggregate_quality(
            np.full((n_parts, n_types), 2.0 * (1.0 + deviation * scale)), setpoints
        )
        assert base == pytest.approx(deviation * n_parts)
        assert scaled == pytest.approx(base * scale, rel=1e-9, abs=1e-12)

    @given(
        actuals=st.lists(
            st.lists(st.floats(0.0, 100.0), min_size=3, max_size=3),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_and_zero_iff_perfect(self, actuals):
        setpoints = np.array([1.0, 2.0, 4.0])
        actuals = np.asarray(actuals)
        value = aggregate_quality(actuals, setpoints)
        assert value >= 0.0
        if np.all(actuals == setpoints):
            assert value == 0.0
        if value == 0.0:
            np.testing.assert_array_equal(actuals, np.broadcast_to(setpoints, actuals.shape))


class TestBuildMetricSeries:
    def test_perfect_observations_give_zero_series(self):
        table = RawTable(
            ids=("P1", "P2"),
            columns=("m0", "m1"),
            values=np.array([[2.0, 3.0], [2.0, 3.0]]),
        )
        series = build_metric_series(table, ["m0", "m1"], {"m0": 2.0, "m1": 3.0})
        assert series.part_ids == ("P1", "P2")
        assert series.values.tolist() == [0.0, 0.0]

    def test_single_observation_hand_value(self):
        table = RawTable(
            ids=("P1",),
            columns=("m0", "m1"),
            values=np.array([[1.1, 0.9]]),
        )
        series = build_metric_series(table, ["m0", "m1"], {"m0": 1.0, "m1": 1.0})
        assert series.part_ids == ("P1",)
        assert series.values[0] == pytest.approx(0.1, abs=1e-15)

    def test_setpoint_companion_columns(self):
        table = RawTable(
            ids=("P1",),
            columns=("m0", "m0.Setpoint"),
            values=np.array([[3.0, 1.0]]),
        )
        series = build_metric_series(table, ["m0"], setpoints=None)
        assert series.values[0] == pytest.approx(2.0)

    def test_missing_measurement_violates_cleaning_contract(self):
        table = RawTable(
            ids=("P1",),
            columns=("m0",),
            values=np.array([[np.nan]]),
        )
        with pytest.raises(ValueError, match="cleaning"):
            build_metric_series(table, ["m0"], {"m0": 1.0})

    def test_empty_table_rejected(self):
        table = RawTable(ids=(), columns=("m0",), values=np.empty((0, 1)))
        with pytest.raises(ValueError, match="empty"):
            build_metric_series(table, ["m0"], {"m0": 1.0})

    def test_missing_companion_column_rejected(self):
        table = RawTable(ids=("P1",), columns=("m0",), values=np.array([[1.0]]))
        with pytest.raises(ValueError, match=r"m0\.Setpoint"):
            build_metric_series(table, ["m0"], setpoints=None)

    def test_missing_setpoint_entry_rejected(self):
        table = RawTable(ids=("P1",), columns=("m0",), values=np.array([[1.0]]))
        with pytest.raises(ValueError, match="m0"):
            build_metric_series(table, ["m0"], {})

    @pytest.mark.parametrize("companions", [False, True])
    @pytest.mark.parametrize("width", [1, 7, 8, 9, 33])
    def test_equals_the_per_row_oracle(self, width, companions):
        # 8 is NumPy's pairwise-summation block: widths either side of it
        # sum in different orders unless each row is summed as one block.
        rng = np.random.default_rng(width)
        n = 300
        names = [f"m{k}" for k in range(width)]
        targets = rng.uniform(0.5, 40.0, size=(n, width) if companions else width)
        actuals = np.broadcast_to(targets, (n, width)) * rng.uniform(0.0, 2.0, (n, width))
        columns = ["f0", *names]
        blocks = [rng.normal(size=(n, 1)), actuals]
        if companions:
            columns += [f"{c}.Setpoint" for c in names]
            blocks.append(targets)
            setpoints = None
        else:
            setpoints = dict(zip(names, targets.tolist()))
        table = RawTable(
            ids=tuple(f"P{i}" for i in range(n)),
            columns=tuple(columns),
            values=np.column_stack(blocks),
        )
        series = build_metric_series(table, names, setpoints)
        rows = np.broadcast_to(targets, (n, width))
        oracle = [
            aggregate_quality(actuals[i : i + 1], rows[i])
            for i in range(n)
        ]
        assert series.values.tolist() == oracle

    @pytest.mark.parametrize("bad", [0.0, -2.0])
    def test_non_positive_mapped_setpoint_rejected(self, bad):
        table = RawTable(ids=("P1", "P2"), columns=("m0", "m1"), values=np.ones((2, 2)))
        with pytest.raises(ValueError, match="strictly positive"):
            build_metric_series(table, ["m0", "m1"], {"m0": 1.0, "m1": bad})

    @pytest.mark.parametrize("bad", [0.0, -2.0])
    def test_non_positive_companion_setpoint_rejected(self, bad):
        table = RawTable(
            ids=("P1", "P2"),
            columns=("m0", "m0.Setpoint"),
            values=np.array([[1.0, 1.0], [1.0, bad]]),
        )
        with pytest.raises(ValueError, match="strictly positive"):
            build_metric_series(table, ["m0"], setpoints=None)


class TestMetricSeries:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="part_id 'P1' appears more than once"):
            MetricSeries(part_ids=("P1", "P1"), values=np.array([1.0, 2.0]))

    def test_nonfinite_values_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            MetricSeries(part_ids=("P1",), values=np.array([np.inf]))

    def test_csv_round_trip_preserves_values_exactly(self, tmp_path):
        series = MetricSeries(
            part_ids=("P1", "P2", "P3"),
            values=np.array([0.1, 1.0 / 3.0, 2.5e-17]),
        )
        series.to_csv(tmp_path / "m.csv")
        back = MetricSeries.from_csv(tmp_path / "m.csv")
        assert back.part_ids == series.part_ids
        np.testing.assert_array_equal(back.values, series.values)


class TestPartitionActors:
    def make_table(self):
        rng = np.random.default_rng(5)
        columns = ("a1", "a2", "b1", "hum", "temp")
        return RawTable(
            ids=tuple(f"P{i}" for i in range(7)),
            columns=columns,
            values=rng.normal(size=(7, 5)),
        )

    def test_shared_columns_copied_to_every_actor(self):
        table = self.make_table()
        schema = {"a1": "alpha", "a2": "alpha", "b1": "beta"}
        datasets = partition_actors(table, schema, shared_columns=["hum", "temp"])
        assert [d.actor_id for d in datasets] == ["alpha", "beta"]
        for ds in datasets:
            assert "hum" in ds.columns and "temp" in ds.columns
            for col, flag in zip(ds.columns, ds.shared_flags):
                assert flag == (col in ("hum", "temp"))

    def test_column_multiset_invariant(self):
        table = self.make_table()
        schema = {"a1": "alpha", "a2": "alpha", "b1": "beta"}
        shared = ["hum", "temp"]
        datasets = partition_actors(table, schema, shared_columns=shared)
        from collections import Counter

        got = Counter(c for ds in datasets for c in ds.columns)
        expect = Counter(schema.keys())
        for c in shared:
            expect[c] = len(datasets)
        assert got == expect

    def test_private_columns_kept_verbatim(self):
        table = self.make_table()
        schema = {"a1": "alpha", "a2": "alpha", "b1": "beta"}
        datasets = partition_actors(table, schema, shared_columns=["hum", "temp"])
        alpha = datasets[0]
        np.testing.assert_array_equal(
            alpha.features[:, alpha.columns.index("a1")], table.column("a1")
        )
        assert alpha.part_ids == table.ids

    def test_single_actor_no_shared_is_identity(self):
        table = self.make_table()
        schema = {c: "solo" for c in table.columns}
        (ds,) = partition_actors(table, schema)
        assert ds.columns == table.columns
        np.testing.assert_array_equal(ds.features, table.values)

    def test_unassigned_column_rejected(self):
        table = self.make_table()
        with pytest.raises(ValueError, match="not assigned"):
            partition_actors(table, {"a1": "alpha"}, shared_columns=["hum"])

    def test_column_both_shared_and_private_rejected(self):
        table = self.make_table()
        schema = {c: "alpha" for c in table.columns}
        with pytest.raises(ValueError, match="both"):
            partition_actors(table, schema, shared_columns=["hum"])

    def test_missing_values_rejected(self):
        values = np.ones((2, 1))
        values[0, 0] = np.nan
        table = RawTable(ids=("P1", "P2"), columns=("a",), values=values)
        with pytest.raises(ValueError, match="clean"):
            partition_actors(table, {"a": "alpha"})

    def test_repeated_shared_column_rejected(self):
        table = self.make_table()
        schema = {"a1": "alpha", "a2": "alpha", "b1": "beta"}
        with pytest.raises(ValueError, match="shared column 'hum' appears more than once"):
            partition_actors(table, schema, shared_columns=["hum", "temp", "hum"])


class TestActorDataset:
    def test_rows_for_returns_requested_order(self):
        ds = ActorDataset(
            actor_id="a",
            part_ids=("P1", "P2", "P3"),
            columns=("x",),
            features=np.array([[1.0], [2.0], [3.0]]),
            shared_flags=(False,),
        )
        np.testing.assert_array_equal(ds.rows_for(["P3", "P1"]), [[3.0], [1.0]])
        with pytest.raises(KeyError):
            ds.rows_for(["P9"])

    def test_align_inner_joins_on_part_id(self):
        ds = ActorDataset(
            actor_id="a",
            part_ids=("P1", "P2", "P3"),
            columns=("x",),
            features=np.array([[1.0], [2.0], [3.0]]),
            shared_flags=(False,),
        )
        metric = MetricSeries(part_ids=("P3", "P1", "P9"), values=np.array([30.0, 10.0, 90.0]))
        feats, targets, ids = ds.align(metric)
        assert ids == ("P1", "P3")
        np.testing.assert_array_equal(feats, [[1.0], [3.0]])
        np.testing.assert_array_equal(targets, [10.0, 30.0])

    def test_missing_feature_values_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            ActorDataset(
                actor_id="a",
                part_ids=("P1",),
                columns=("x",),
                features=np.array([[np.nan]]),
                shared_flags=(False,),
            )

    @pytest.mark.parametrize(
        ("part_ids", "columns", "match"),
        [
            (("P1", "P1"), ("x", "y"), "part_id 'P1' appears more than once"),
            (("P1", "P2"), ("x", "x"), "column 'x' appears more than once"),
        ],
    )
    def test_repeated_part_id_or_column_rejected(self, part_ids, columns, match):
        with pytest.raises(ValueError, match=match):
            ActorDataset(
                actor_id="a",
                part_ids=part_ids,
                columns=columns,
                features=np.ones((2, 2)),
                shared_flags=(False, False),
            )

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_feature_values_rejected(self, value):
        with pytest.raises(ValueError, match="infinite"):
            ActorDataset(
                actor_id="a",
                part_ids=("P1", "P2"),
                columns=("x",),
                features=np.array([[1.0], [value]]),
                shared_flags=(False,),
            )


class TestGenerateSynthetic:
    def test_same_seed_bit_identical(self):
        spec = SyntheticSpec(
            actor_count=3,
            features_per_actor=4,
            signal_weights=(2.0, 1.0, 0.5),
            noise_std=0.3,
            row_count=400,
            seed=11,
        )
        d1, m1, t1 = generate_synthetic(spec)
        d2, m2, t2 = generate_synthetic(spec)
        assert t1 == t2
        np.testing.assert_array_equal(m1.values, m2.values)
        for a, b in zip(d1, d2):
            np.testing.assert_array_equal(a.features, b.features)

    def test_zero_weight_actor_is_independent_of_metric(self):
        spec = SyntheticSpec(
            actor_count=2,
            features_per_actor=3,
            signal_weights=(1.0, 0.0),
            noise_std=0.01,
            row_count=5000,
            seed=7,
        )
        datasets, metric, truth = generate_synthetic(spec)
        assert truth["actor-2"] == 0.0
        for j in range(3):
            r = np.corrcoef(datasets[1].features[:, j], metric.values)[0, 1]
            assert abs(r) < 0.05

    def test_ols_explains_more_variance_for_heavier_actor(self):
        spec = SyntheticSpec(
            actor_count=2,
            features_per_actor=3,
            signal_weights=(3.0, 1.0),
            noise_std=0.5,
            row_count=5000,
            seed=21,
        )
        datasets, metric, _ = generate_synthetic(spec)

        def r_squared(features, y):
            X = np.column_stack([np.ones(len(y)), features])
            coef, *_ = np.linalg.lstsq(X, y, rcond=None)
            resid = y - X @ coef
            return 1.0 - resid.var() / y.var()

        r2 = [r_squared(ds.features, metric.values) for ds in datasets]
        assert r2[0] > r2[1] > 0.0

    def test_cross_actor_correlation_vanishes_without_mixing(self):
        spec = SyntheticSpec(
            actor_count=3,
            features_per_actor=2,
            signal_weights=(1.0, 1.0, 1.0),
            noise_std=0.5,
            row_count=5000,
            seed=3,
        )
        datasets, _, _ = generate_synthetic(spec)
        for a in range(3):
            for b in range(a + 1, 3):
                for i in range(2):
                    for j in range(2):
                        r = np.corrcoef(
                            datasets[a].features[:, i], datasets[b].features[:, j]
                        )[0, 1]
                        assert abs(r) < 0.1

    def test_cross_correlation_mixes_upstream_into_downstream(self):
        spec = SyntheticSpec(
            actor_count=3,
            features_per_actor=2,
            signal_weights=(1.0, 1.0, 1.0),
            noise_std=0.5,
            row_count=5000,
            cross_correlation=0.8,
            seed=3,
        )
        datasets, _, _ = generate_synthetic(spec)
        for j in range(2):
            r = np.corrcoef(datasets[0].features[:, j], datasets[2].features[:, j])[0, 1]
            assert r == pytest.approx(0.8, abs=0.05)
        # Mixing keeps the downstream marginals near unit variance.
        assert datasets[2].features.var() == pytest.approx(1.0, abs=0.08)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(1, 3, (1.0,), 0.5, 400)
        with pytest.raises(ValueError):
            SyntheticSpec(2, 3, (1.0, 1.0), 0.5, 100)
        with pytest.raises(ValueError):
            SyntheticSpec(2, 3, (1.0,), 0.5, 400)
        with pytest.raises(ValueError):
            SyntheticSpec(2, 3, (1.0, -1.0), 0.5, 400)
        with pytest.raises(ValueError):
            SyntheticSpec(2, 3, (1.0, 1.0), 0.0, 400)
        with pytest.raises(ValueError):
            SyntheticSpec(2, 3, (1.0, 1.0), 0.5, 400, cross_correlation=1.0)


SPEC_ARGS = dict(
    actor_count=2, features_per_actor=3, signal_weights=(1.0, 1.0), noise_std=0.5, row_count=400
)


class TestSyntheticSpec:
    @pytest.mark.parametrize(
        "name", ["actor_count", "features_per_actor", "row_count", "seed"]
    )
    def test_integer_fields_reject_other_types(self, name):
        valid = dict(
            actor_count=2,
            features_per_actor=3,
            signal_weights=(1.0, 1.0),
            noise_std=0.5,
            row_count=400,
            seed=0,
        )
        for value in (2.5, 300.5, 3.0, True, "3"):
            with pytest.raises(TypeError, match=name):
                SyntheticSpec(**{**valid, name: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            SyntheticSpec(2, 3, (1.0, 1.0), 0.5, 400, seed=-1)

    @pytest.mark.parametrize("name", ["noise_std", "cross_correlation"])
    def test_float_fields_reject_other_types(self, name):
        for value in (True, False, "0.5", None):
            with pytest.raises(TypeError, match=name):
                SyntheticSpec(**{**SPEC_ARGS, name: value})

    @pytest.mark.parametrize("weights", [(1.0, True), (1.0, "2"), "32"])
    def test_signal_weights_must_be_a_list_of_numbers(self, weights):
        with pytest.raises(TypeError, match="signal_weights"):
            SyntheticSpec(**{**SPEC_ARGS, "signal_weights": weights})

    def test_integer_weights_become_floats(self):
        spec = SyntheticSpec(**{**SPEC_ARGS, "signal_weights": [3, 1], "noise_std": 1})
        assert spec.signal_weights == (3.0, 1.0) and type(spec.noise_std) is float


class TestRequireReal:
    def test_numbers_become_floats(self):
        assert require_real("x", 2) == 2.0 and type(require_real("x", 2)) is float
        assert require_real("x", -0.25) == -0.25
        assert type(require_real("x", np.float64(0.5))) is float

    @pytest.mark.parametrize("value", [True, False, "1.0", None, [1.0], np.int64(1)])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError, match="x must be a number"):
            require_real("x", value)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, int("9" * 400)])
    def test_non_finite_values_raise_value_error(self, value):
        with pytest.raises(ValueError, match="x must be finite"):
            require_real("x", value)


class TestRequireUnique:
    def test_returns_the_values_it_is_given(self):
        values = ("a", "b", "c")
        assert require_unique("x", values) is values
        assert require_unique("x", []) == []

    def test_names_the_first_repeat(self):
        with pytest.raises(ValueError, match=r"^x 'b' appears more than once$"):
            require_unique("x", ["a", "b", "c", "b", "c"])
        with pytest.raises(ValueError, match=r"^seed 3 appears more than once$"):
            require_unique("seed", [3, 4, 3])


class TestJson:
    def test_parse_refuses_a_repeated_key_at_any_depth(self):
        assert parse_json('{"a": [{"b": 1}, {"b": 2}], "b": 3}') == {
            "a": [{"b": 1}, {"b": 2}], "b": 3
        }
        for text, key in [('{"seed": 7, "seed": 11}', "seed"), ('[{"b": 1, "b": 2}]', "b")]:
            with pytest.raises(ValueError, match=f"^key '{key}' appears more than once$"):
                parse_json(text)

    def test_write_json_sorts_keys_and_indents(self, tmp_path):
        write_json(tmp_path / "x.json", {"b": [1, 0.5], "a": {"d": True, "c": None}})
        assert (tmp_path / "x.json").read_bytes() == (
            b'{\n  "a": {\n    "c": null,\n    "d": true\n  },\n'
            b'  "b": [\n    1,\n    0.5\n  ]\n}\n'
        )


class TestMakeNoiseActor:
    def test_shape_and_centering(self):
        ids = tuple(f"P{i}" for i in range(100))
        ds = make_noise_actor(100, 5, ids, seed=2)
        assert ds.actor_id == NOISE_ACTOR_ID
        assert ds.features.shape == (100, 5)
        assert np.all(np.abs(ds.features.mean(axis=0)) < 0.5)

    def test_same_seed_identical(self):
        ids = tuple(f"P{i}" for i in range(50))
        a = make_noise_actor(50, 3, ids, seed=9)
        b = make_noise_actor(50, 3, ids, seed=9)
        np.testing.assert_array_equal(a.features, b.features)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            make_noise_actor(10, 3, ("P1",), seed=0)


@pytest.mark.parametrize("name", ["actor-1", "Smith & Sons", "a.b", "..a", "...", "a b"])
def test_require_file_name_accepts_a_bare_name(name):
    assert require_file_name("actor id", name) == name


@pytest.mark.parametrize("name", ["", ".", "..", "../x", "/abs", "a/b", "a\\b", "dir/"])
def test_require_file_name_refuses_a_path(name):
    with pytest.raises(ValueError, match="actor id must be a bare file name"):
        require_file_name("actor id", name)


def test_require_file_name_refuses_non_text():
    with pytest.raises(TypeError, match="must be text"):
        require_file_name("actor id", 3)


class TestSaveLoadActorDatasets:
    def test_round_trip(self, tmp_path):
        spec = SyntheticSpec(
            actor_count=2,
            features_per_actor=3,
            signal_weights=(1.0, 1.0),
            noise_std=0.5,
            row_count=200,
            seed=4,
        )
        datasets, _, _ = generate_synthetic(spec)
        save_actor_datasets(datasets, tmp_path / "out")
        back = load_actor_datasets(tmp_path / "out")
        assert [d.actor_id for d in back] == [d.actor_id for d in datasets]
        for a, b in zip(datasets, back):
            assert a.columns == b.columns
            assert a.part_ids == b.part_ids
            assert a.shared_flags == b.shared_flags
            np.testing.assert_array_equal(a.features, b.features)

    def test_rewrite_is_byte_identical(self, tmp_path):
        spec = SyntheticSpec(
            actor_count=2,
            features_per_actor=2,
            signal_weights=(1.0, 1.0),
            noise_std=0.5,
            row_count=200,
            seed=4,
        )
        datasets, _, _ = generate_synthetic(spec)
        save_actor_datasets(datasets, tmp_path / "one")
        save_actor_datasets(datasets, tmp_path / "two")
        for f in sorted((tmp_path / "one").iterdir()):
            assert f.read_bytes() == (tmp_path / "two" / f.name).read_bytes()

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_actor_datasets(tmp_path)

    def save_two_actors(self, out_dir):
        spec = SyntheticSpec(
            actor_count=2,
            features_per_actor=2,
            signal_weights=(1.0, 1.0),
            noise_std=0.5,
            row_count=200,
            seed=4,
        )
        save_actor_datasets(generate_synthetic(spec)[0], out_dir)

    def test_one_actor_loads_only_its_own_file(self, tmp_path):
        self.save_two_actors(tmp_path)
        whole = load_actor_datasets(tmp_path)[0]
        (tmp_path / "actor-2.csv").write_text("part_id,x\nP1,not-a-number\n")
        with pytest.raises(ParseError):
            load_actor_datasets(tmp_path)
        alone = load_actor_dataset(tmp_path, "actor-1")
        assert alone.actor_id == whole.actor_id == "actor-1"
        assert alone.part_ids == whole.part_ids
        assert alone.columns == whole.columns
        assert alone.shared_flags == whole.shared_flags
        np.testing.assert_array_equal(alone.features, whole.features)

    @pytest.mark.parametrize("actor_id", ["../x", "a/b", "a\\b", "..", ".", ""])
    def test_save_refuses_an_id_that_is_not_a_bare_file_name(self, tmp_path, actor_id):
        spec = SyntheticSpec(
            actor_count=2,
            features_per_actor=2,
            signal_weights=(1.0, 1.0),
            noise_std=0.5,
            row_count=200,
            seed=4,
        )
        first, second = generate_synthetic(spec)[0]
        hostile = dataclasses.replace(second, actor_id=actor_id)
        with pytest.raises(ValueError, match="bare file name"):
            save_actor_datasets([first, hostile], tmp_path / "out")
        assert list(tmp_path.iterdir()) == []  # not even the first actor's file

    def test_save_refuses_two_datasets_under_one_id(self, tmp_path):
        spec = SyntheticSpec(
            actor_count=3,
            features_per_actor=2,
            signal_weights=(1.0, 1.0, 1.0),
            noise_std=0.5,
            row_count=200,
            seed=4,
        )
        first, second, third = generate_synthetic(spec)[0]
        twin = dataclasses.replace(second, actor_id=first.actor_id)
        with pytest.raises(ValueError, match="actor id 'actor-1' appears more than once"):
            save_actor_datasets([first, twin, third], tmp_path / "out")
        assert list(tmp_path.iterdir()) == []  # not even the first actor's file

    def test_manifest_naming_one_actor_twice_is_a_parse_error(self, tmp_path):
        self.save_two_actors(tmp_path)
        self.edit_manifest(tmp_path, "actor-2", actor_id="actor-1")
        for read in (list_actor_ids, load_actor_datasets):
            with pytest.raises(
                ParseError, match="manifest.json: actor_id 'actor-1' appears more than once"
            ):
                read(tmp_path)
        with pytest.raises(ParseError, match="appears more than once"):
            load_actor_dataset(tmp_path, "actor-1")

    def test_load_refuses_a_manifest_file_outside_the_directory(self, tmp_path):
        self.save_two_actors(tmp_path / "data")
        manifest = tmp_path / "data" / "manifest.json"
        (tmp_path / "data" / "actor-2.csv").rename(tmp_path / "x.csv")
        manifest.write_text(manifest.read_text().replace('"actor-2.csv"', '"../x.csv"'))
        with pytest.raises(ValueError, match="manifest.json: file must be a bare file name"):
            load_actor_datasets(tmp_path / "data")
        # The manifest is checked whole, so no actor loads from it.
        for actor_id in ("actor-1", "actor-2"):
            with pytest.raises(ValueError, match="bare file name"):
                load_actor_dataset(tmp_path / "data", actor_id)

    def edit_manifest(self, in_dir, actor, **fields):
        """Replace fields of one actor's manifest entry with raw JSON values."""
        path = in_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        for entry in manifest["actors"]:
            if entry["actor_id"] == actor:
                entry.update(fields)
        path.write_text(json.dumps(manifest))

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_load_refuses_a_shared_flag_that_is_not_a_boolean(self, tmp_path, flag):
        self.save_two_actors(tmp_path)
        self.edit_manifest(tmp_path, "actor-2", shared_flags=[flag, False])
        with pytest.raises(ParseError, match="shared_flags must be true or false"):
            load_actor_datasets(tmp_path)
        with pytest.raises(ParseError, match="shared_flags must be true or false"):
            load_actor_dataset(tmp_path, "actor-2")

    def test_manifest_repeating_a_key_is_a_parse_error(self, tmp_path):
        self.save_two_actors(tmp_path)
        path = tmp_path / "manifest.json"
        text = path.read_text()
        path.write_text(text.replace('"file": "actor-2.csv"', '"file": "actor-2.csv", "file": "x"'))
        for read in (list_actor_ids, load_actor_datasets):
            with pytest.raises(ParseError, match="manifest.json: key 'file' appears more than once"):
                read(tmp_path)

    @pytest.mark.parametrize(
        ("field", "value"), [("shared_flags", ["false", False]), ("file", "../x.csv")]
    )
    def test_manifest_is_checked_whole_before_any_file_is_read(self, tmp_path, field, value):
        self.save_two_actors(tmp_path)
        self.edit_manifest(tmp_path, "actor-2", **{field: value})
        with mock.patch.object(dataset, "load_csv", side_effect=AssertionError("file read")):
            for read in (list_actor_ids, load_actor_datasets):
                with pytest.raises(ParseError, match=f"manifest.json: {field}"):
                    read(tmp_path)
            with pytest.raises(ParseError, match=f"manifest.json: {field}"):
                load_actor_dataset(tmp_path, "actor-1")

    @pytest.mark.parametrize("actor_id", [7, None, ["actor-2"], "../x", ""])
    def test_manifest_actor_id_must_be_a_bare_file_name(self, tmp_path, actor_id):
        self.save_two_actors(tmp_path)
        self.edit_manifest(tmp_path, "actor-2", actor_id=actor_id)
        for read in (list_actor_ids, load_actor_datasets):
            with pytest.raises(ParseError, match="manifest.json: actor_id must be"):
                read(tmp_path)
        with pytest.raises(ParseError, match="manifest.json: actor_id must be"):
            load_actor_dataset(tmp_path, "actor-1")

    @pytest.mark.parametrize("text", ["[1, 2]", '{"actors": 5}', '{"actors": [5]}'])
    def test_manifest_of_another_shape_is_a_parse_error(self, tmp_path, text):
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(ParseError, match="manifest.json"):
            list_actor_ids(tmp_path)

    @pytest.mark.parametrize("field", ["actor_id", "file", "columns", "shared_flags"])
    def test_manifest_entry_missing_a_field_is_a_parse_error(self, tmp_path, field):
        self.save_two_actors(tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["actors"][1][field]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match=f"manifest.json: missing field '{field}'"):
            load_actor_datasets(tmp_path)

    def test_unknown_actor_names_the_ones_found(self, tmp_path):
        self.save_two_actors(tmp_path)
        with pytest.raises(ValueError, match="'nobody'.*actor-1, actor-2"):
            load_actor_dataset(tmp_path, "nobody")

import csv
import errno
import math
import os
import threading
import time

import numpy as np
import pytest

from privsynth import cli, pipeline
from privsynth import data as data_module
from privsynth.data import (
    Dataset,
    Schema,
    concat_datasets,
    derive_seed,
    load_csv,
    shuffle_class_subset,
    sorted_labels,
    stratified_split,
    write_csv,
)
from privsynth.errors import (
    ClassTooSmall,
    CountExceedsClass,
    EmptyFile,
    MalformedCsv,
    MissingColumn,
    NonNumericCell,
    PrivsynthError,
    ValidationError,
)
from privsynth.noise import NoiseConfig
from privsynth.smote import SmoteConfig
from privsynth.surrogate import make_surrogate, surrogate_schema

XY_SCHEMA = Schema((("x", "numeric"), ("y", "numeric"), ("label", "label")))


def small_dataset(labels, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    feats = rng.normal(size=(len(labels), 2))
    return Dataset(XY_SCHEMA, feats, np.array(labels, dtype=object))


class TestSchema:
    def test_label_column_index(self):
        assert XY_SCHEMA.label_column == 2
        assert XY_SCHEMA.feature_names == ["x", "y"]
        assert XY_SCHEMA.dim == 2

    def test_requires_exactly_one_label(self):
        with pytest.raises(ValidationError):
            Schema((("x", "numeric"), ("y", "numeric")))
        with pytest.raises(ValidationError):
            Schema((("a", "label"), ("b", "label")))

    def test_rejects_duplicate_or_empty_names(self):
        with pytest.raises(ValidationError):
            Schema((("x", "numeric"), ("x", "label")))
        with pytest.raises(ValidationError):
            Schema((("", "numeric"), ("y", "label")))

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "schema.json"
        XY_SCHEMA.save(path)
        assert Schema.load(path) == XY_SCHEMA


class TestDataset:
    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            Dataset(XY_SCHEMA, np.array([[1.0, np.nan]]), np.array(["a"], dtype=object))

    def test_rejects_wrong_width(self):
        with pytest.raises(ValidationError):
            Dataset(XY_SCHEMA, np.ones((2, 3)), np.array(["a", "b"], dtype=object))

    def test_immutable_after_construction(self):
        data = small_dataset(["a", "b"])
        with pytest.raises(ValueError):
            data.features[0, 0] = 99.0

    def test_caller_arrays_are_copied(self):
        feats = np.arange(6.0).reshape(3, 2)
        labels = np.array(["a", "b", "c"], dtype=object)
        owned = Dataset(XY_SCHEMA, feats, labels)
        viewed = Dataset(XY_SCHEMA, feats[::-1], labels[::-1])
        feats[:] = 99.0
        labels[:] = "z"
        assert owned.features.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        assert owned.labels.tolist() == ["a", "b", "c"]
        assert viewed.features.tolist() == [[4.0, 5.0], [2.0, 3.0], [0.0, 1.0]]
        assert viewed.labels.tolist() == ["c", "b", "a"]

    def test_class_counts(self):
        data = small_dataset(["a", "b", "a", "a"])
        assert data.class_counts() == {"a": 3, "b": 1}
        assert data.classes() == ["a", "b"]


class TestLoadCsv:
    def test_three_row_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y,label\n1.0,2.0,a\n3.5,-1.25,b\n0.0,4.0,a\n")
        data = load_csv(path, XY_SCHEMA)
        assert len(data) == 3
        assert data.dim == 2
        assert data.labels.tolist() == ["a", "b", "a"]
        assert data.features[1, 1] == -1.25

    def test_non_numeric_cell_names_location(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y,label\n1.0,2.0,a\n1.0,oops,b\n")
        with pytest.raises(NonNumericCell) as err:
            load_csv(path, XY_SCHEMA)
        assert err.value.row == 3  # header is row 1
        assert err.value.column == "y"

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y,label\n1.0,inf,a\n")
        with pytest.raises(NonNumericCell):
            load_csv(path, XY_SCHEMA)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,label\n1.0,a\n")
        with pytest.raises(MissingColumn) as err:
            load_csv(path, XY_SCHEMA)
        assert err.value.column == "y"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(EmptyFile):
            load_csv(path, XY_SCHEMA)
        path.write_text("x,y,label\n")
        with pytest.raises(EmptyFile):
            load_csv(path, XY_SCHEMA)

    def test_sensor_format_has_23_channels(self, tmp_path):
        # 23 numeric channels plus the activity label, per the public
        # body-sensor recording layout the surrogate mirrors
        schema = surrogate_schema()
        assert schema.dim == 23
        data = make_surrogate(200, seed=5)
        path = tmp_path / "sensor.csv"
        write_csv(data, path)
        loaded = load_csv(path, schema)
        assert loaded.dim == 23
        assert len(loaded) == 200

    def test_round_trip_exact(self, tmp_path):
        data = small_dataset(["a", "b", "c", "a"], rng_seed=3)
        path = tmp_path / "t.csv"
        write_csv(data, path)
        again = load_csv(path, XY_SCHEMA)
        # repr-based formatting makes the round trip lossless
        assert np.array_equal(again.features, data.features)
        assert again.labels.tolist() == data.labels.tolist()

    def test_labels_round_trip_with_their_types(self, tmp_path):
        # strings that int() accepts but that are not an int's own text stay strings
        labels = ["007", "1_000", "+5", "-0", 12, -3, 0, "a", "12a", "1.5", "٣"]
        data = small_dataset(labels, rng_seed=4)
        path = tmp_path / "t.csv"
        write_csv(data, path)
        again = load_csv(path, XY_SCHEMA)
        assert [(type(v), v) for v in again.labels] == [(type(v), v) for v in labels]


def reference_load_csv(path, schema):
    """The loader before the chunked codec: csv.reader and one float() per cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path} is empty") from None
        expected = schema.column_names
        if header != expected:
            missing = [c for c in expected if c not in header]
            offender = missing[0] if missing else next(
                (h for h, e in zip(header, expected) if h != e),
                header[len(expected)] if len(header) > len(expected) else expected[-1])
            raise MissingColumn(offender, f"header {header!r} does not match schema {expected!r}")
        label_idx = schema.label_column
        features, labels = [], []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise NonNumericCell(row_no, expected[min(len(row), len(expected) - 1)],
                                     f"row has {len(row)} cells, expected {len(expected)}")
            vec = []
            for col_no, cell in enumerate(row):
                name = expected[col_no]
                if col_no == label_idx:
                    if not cell.strip():
                        raise NonNumericCell(row_no, name, "empty label")
                    labels.append(data_module.parse_label(cell))
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise NonNumericCell(row_no, name, f"cannot parse {cell!r}") from None
                if not math.isfinite(value):
                    raise NonNumericCell(row_no, name, f"non-finite value {cell!r}")
                vec.append(value)
            features.append(vec)
    if not features:
        raise EmptyFile(f"{path} has a header but no data rows")
    return Dataset(schema, np.array(features, dtype=np.float64), np.array(labels, dtype=object))


def reference_write_csv(data, path):
    """The writer before the chunked codec: one csv.writer row per record."""
    label_idx = data.schema.label_column
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.schema.column_names)
        writer.writerows(
            [*row[:label_idx], str(label), *row[label_idx:]]
            for row, label in zip(data.features.tolist(), data.labels.tolist()))


def outcome(load, path, schema):
    """What a loader makes of a file: the error's type, row, column and
    message, or the feature bytes and the typed labels."""
    try:
        data = load(path, schema)
    except PrivsynthError as exc:
        return type(exc), getattr(exc, "row", None), getattr(exc, "column", None), str(exc)
    return data.features.shape, data.features.tobytes(), [(type(v), v) for v in data.labels]


LABEL_FIRST = Schema((("label", "label"), ("x", "numeric"), ("y", "numeric")))

# body text after the header; each case is loaded with both codecs
LOAD_CASES = {
    "plain": "1.0,2.0,a\n3.5,-1.25,b\n",
    "blank line": "1.0,2.0,a\n\n3.0,4.0,b\n",
    "trailing blank line": "1.0,2.0,a\n\n",
    "whitespace line": "1.0,2.0,a\n \n",
    "short row": "1.0,2.0,a\n1.0,b\n",
    "long row": "1.0,2.0,a\n1.0,2.0,b,c\n",
    "trailing comma": "1.0,2.0,a,\n",
    "bad cell": "1.0,2.0,a\n1.0,oops,b\n",
    "empty cell": "1.0,,a\n",
    "nan cell": "1.0,nan,a\n",
    "inf cell": "inf,2.0,a\n",
    "-Infinity cell": "1.0,-Infinity,a\n",
    "overflow cell": "1.0,1e999,a\n",
    "empty label": "1.0,2.0,a\n1.0,2.0,\n",
    "blank label": "1.0,2.0,  \n",
    "bad cell before empty label": "1.0,oops,\n",
    "LF only": "1.0,2.0,a\n3.0,4.0,b\n",
    "CRLF": "1.0,2.0,a\r\n3.0,4.0,b\r\n",
    "bare CR": "1.0,2.0,a\r3.0,4.0,b\r",
    "bare CR with a bad cell": "1.0,2.0,a\r3.0,x,b\r",
    "mixed terminators": "1.0,2.0,a\r\n3.0,4.0,b\n5.0,6.0,c\r7.0,8.0,d",
    "no final newline": "1.0,2.0,a\n3.0,4.0,b",
    "underscores": "1_0,2_000.5,a\n",
    "double underscore": "1__0,2.0,a\n",
    "padded cells": " 1.5 ,\t2\x0c,a\n",
    "exotic floats": "-0.0,5e-324,a\n1e16,1e-05,b\n1.7976931348623157e+308,+.5,c\n",
    "hex cell": "0x10,2.0,a\n",
    "typed labels": "1,2,007\n1,2,12\n1,2,-3\n1,2, 12 \n1,2,+5\n1,2,1_000\n1,2,\u0663\n",
    "non-ASCII label": "1,2,\u00e9t\u00e9\n1,2,\u2028x\n",
    "NUL in a cell": "1,2\x00,a\n",
    "quoted label with newline": '1.0,2.0,"a\nb"\n3.0,4.0,c\n3.0,x,c\n',
    "quoted label with CRLF": '1.0,2.0,"a\r\nb"\r\n3.0,4.0,c\r\n',
    "quoted number": '"1.5",2.0,a\n',
    "quoted comma label": '1.0,2.0,"a,b"\n1.0,2.0,",c"\n',
    "doubled quote label": '1.0,2.0,"say ""hi"""\n',
    "quote inside a field": '1.0,2.0,a"b\n',
    "quoted field then short row": '1.0,2.0,"a"\n1.0,b\n',
    "unterminated quote": '1.0,2.0,"a\n3.0,4.0,b\n',
    "quoted empty label": '1.0,2.0,""\n',
}


def run_both(tmp_path, body, schema=XY_SCHEMA):
    path = tmp_path / "t.csv"
    header = ",".join(schema.column_names)
    path.write_bytes((header + "\r\n" + body).encode("utf-8"))
    return outcome(reference_load_csv, path, schema), outcome(load_csv, path, schema)


class TestLoaderOracle:
    """``load_csv`` against the per-cell loader it replaced: the same values
    and label types, or the same error type, row, column and message."""

    @pytest.mark.parametrize("case", sorted(LOAD_CASES))
    @pytest.mark.parametrize("cells", [data_module._CHUNK_CELLS, 7])
    def test_case(self, tmp_path, monkeypatch, case, cells):
        # 7 cells make two-row chunks, so every case crosses chunk boundaries
        monkeypatch.setattr(data_module, "_CHUNK_CELLS", cells)
        want, got = run_both(tmp_path, LOAD_CASES[case])
        assert got == want

    @pytest.mark.parametrize("case", ["plain", "typed labels", "quoted comma label", "bad cell",
                                      "empty label", "short row"])
    def test_label_first(self, tmp_path, monkeypatch, case):
        monkeypatch.setattr(data_module, "_CHUNK_CELLS", 7)
        body = "\n".join(",".join([*r[-1:], *r[:-1]]) for r in csv.reader(LOAD_CASES[case].splitlines()))
        want, got = run_both(tmp_path, body + "\n", LABEL_FIRST)
        assert got == want

    def test_label_only_schema(self, tmp_path):
        schema = Schema((("label", "label"),))
        for body in ["a\nb\n", "a\n\nb\n", 'a\n""\n', "a,b\n"]:
            want, got = run_both(tmp_path, body, schema)
            assert got == want, body

    @pytest.mark.parametrize("bad", ["oops", "nan", ""])
    def test_error_past_the_first_chunk(self, tmp_path, bad):
        # the 24-column sensor table: 1365 rows per chunk, so file row 2801
        # is in the third chunk and its number crosses two boundaries
        data = make_surrogate(3000, seed=2)
        path = tmp_path / "sensor.csv"
        write_csv(data, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[2800].split(",")
        cells[5] = bad
        lines[2800] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        want = outcome(reference_load_csv, path, data.schema)
        assert want[:2] == (NonNumericCell, 2801)
        assert outcome(load_csv, path, data.schema) == want

    def test_quote_after_the_first_chunk(self, tmp_path, monkeypatch):
        # a quoted label in a later chunk hands the rest of the file to csv.reader
        monkeypatch.setattr(data_module, "_CHUNK_CELLS", 7)
        body = "1.0,2.0,a\n" * 5 + '3.0,4.0,"b\nc"\n' + "5.0,6.0,d\n" * 4 + "5.0,,d\n"
        want, got = run_both(tmp_path, body)
        assert want[:2] == (NonNumericCell, 12)
        assert got == want

    def test_round_trip_of_random_values(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data_module, "_CHUNK_CELLS", 64)
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2 ** 63, size=(300, 2), dtype=np.uint64) | (
            rng.integers(0, 2, size=(300, 2), dtype=np.uint64) << np.uint64(63))
        feats = bits.view(np.float64)
        feats[~np.isfinite(feats)] = 0.5
        data = Dataset(XY_SCHEMA, feats, np.array(["a", "b", "c"] * 100, dtype=object))
        path = tmp_path / "t.csv"
        write_csv(data, path)
        assert outcome(load_csv, path, XY_SCHEMA) == outcome(reference_load_csv, path, XY_SCHEMA)
        assert load_csv(path, XY_SCHEMA).features.tobytes() == data.features.tobytes()


class TestMalformedCsv:
    """Structural faults the csv module rejects, and bytes that are not UTF-8,
    raise a typed MalformedCsv instead of the raw csv or codec error."""

    def write(self, tmp_path, body: bytes):
        path = tmp_path / "t.csv"
        path.write_bytes(b"x,y,label\n" + body)
        return path

    def test_field_over_the_limit(self, tmp_path):
        limit = csv.field_size_limit()
        path = self.write(tmp_path, b"1.0,2.0,a\n1.0,2.0," + b"b" * (limit + 1) + b"\n")
        with pytest.raises(csv.Error):
            reference_load_csv(path, XY_SCHEMA)
        with pytest.raises(MalformedCsv) as err:
            load_csv(path, XY_SCHEMA)
        assert err.value.row == 3
        assert "field larger than field limit" in str(err.value)

    def test_field_at_the_limit_loads(self, tmp_path):
        limit = csv.field_size_limit()
        path = self.write(tmp_path, b"1.0,2.0," + b"b" * limit + b"\n")
        assert load_csv(path, XY_SCHEMA).labels[0] == "b" * limit

    def test_long_numeric_cell(self, tmp_path):
        # float() takes any length; csv.reader stops at the field limit
        limit = csv.field_size_limit()
        path = self.write(tmp_path, b"1.0,2.0,a\n" * 3 + b"0." + b"0" * limit + b"1,2.0,a\n")
        with pytest.raises(MalformedCsv) as err:
            load_csv(path, XY_SCHEMA)
        assert err.value.row == 5

    def test_bad_cell_before_the_structural_fault_wins(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data_module, "_CHUNK_CELLS", 3000)
        limit = csv.field_size_limit()
        path = self.write(tmp_path, b'1.0,2.0,"q"\n1.0,x,a\n1.0,2.0,' + b"b" * (limit + 1) + b"\n")
        with pytest.raises(NonNumericCell) as err:
            load_csv(path, XY_SCHEMA)
        assert err.value.row == 3

    def test_unterminated_quote(self, tmp_path):
        # the open quote swallows the rest of the file into one field
        path = self.write(tmp_path, b'1.0,2.0,a\n1.0,2.0,"b\n' + b"1.0,2.0,a\n" * 15000)
        with pytest.raises(csv.Error):
            reference_load_csv(path, XY_SCHEMA)
        with pytest.raises(MalformedCsv) as err:
            load_csv(path, XY_SCHEMA)
        assert err.value.row == 3

    def test_unterminated_quote_in_the_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b'x,y,"label\n' + b"1.0,2.0,a\n" * 15000)
        with pytest.raises(MalformedCsv) as err:
            load_csv(path, XY_SCHEMA)
        assert err.value.row == 1

    @pytest.mark.parametrize("where", ["header", "body"])
    def test_invalid_utf8(self, tmp_path, where):
        body = b"1.0,2.0,a\n" * 3 + b"1.0,2.0,\xff\n"
        path = tmp_path / "t.csv"
        path.write_bytes(b"x,y,lab\xe9l\n" + body if where == "header" else b"x,y,label\n" + body)
        with pytest.raises(UnicodeDecodeError):
            reference_load_csv(path, XY_SCHEMA)
        with pytest.raises(MalformedCsv) as err:
            load_csv(path, XY_SCHEMA)
        assert err.value.row is None
        assert "not UTF-8" in str(err.value)


ADVERSARIAL_LABELS = ["a", "a,b", 'say "hi"', '"', "line\nbreak", "cr\rhere", "crlf\r\n",
                      " lead", "trail ", "", "\u00e9t\u00e9", "\u2028", "007", 12, -3, 0,
                      True, 1.5, "1_000", "tab\tin", "NUL\x00"]
EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-05, 1.7976931348623157e308, 2.0, -3.0, 0.1, 1e22,
               123456789012345678.0, -2.2250738585072014e-308]


class TestWriterOracle:
    """``write_csv`` against the csv.writer rows it replaced, byte for byte."""

    def dataset(self, schema, n):
        labels = [ADVERSARIAL_LABELS[i % len(ADVERSARIAL_LABELS)] for i in range(n)]
        flat = [EDGE_FLOATS[i % len(EDGE_FLOATS)] for i in range(n * schema.dim)]
        feats = np.array(flat, dtype=np.float64).reshape(n, schema.dim)
        return Dataset(schema, feats, np.array(labels, dtype=object))

    @pytest.mark.parametrize("schema", [XY_SCHEMA, LABEL_FIRST, Schema((("label", "label"),))],
                             ids=["label-last", "label-first", "label-only"])
    @pytest.mark.parametrize("cells", [data_module._CHUNK_CELLS, 7])
    def test_bytes_match_csv_writer(self, tmp_path, monkeypatch, schema, cells):
        monkeypatch.setattr(data_module, "_CHUNK_CELLS", cells)
        data = self.dataset(schema, 3 * len(ADVERSARIAL_LABELS))
        write_csv(data, tmp_path / "new.csv")
        reference_write_csv(data, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_empty_dataset(self, tmp_path):
        data = Dataset(XY_SCHEMA, np.empty((0, 2)), np.array([], dtype=object))
        write_csv(data, tmp_path / "new.csv")
        reference_write_csv(data, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_adversarial_labels_load_back(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data_module, "_CHUNK_CELLS", 7)
        labels = [x for x in ADVERSARIAL_LABELS if str(x).strip()]
        data = Dataset(XY_SCHEMA, np.zeros((len(labels), 2)), np.array(labels, dtype=object))
        write_csv(data, tmp_path / "t.csv")
        again = load_csv(tmp_path / "t.csv", XY_SCHEMA)
        assert [(type(v), v) for v in again.labels] == [
            (type(v), v) for v in map(data_module.parse_label, map(str, labels))]


class PidLabel(int):
    """An int label whose ``str`` raises in the process that made it
    (``fail_home``) or else in every other process, as in a forked writer."""

    def __new__(cls, value, fail_home=False, exit_code=None):
        label = super().__new__(cls, value)
        label.home, label.fail_home, label.exit_code = os.getpid(), fail_home, exit_code
        return label

    def __str__(self):
        if (os.getpid() == self.home) == self.fail_home:
            if self.exit_code is not None:
                os._exit(self.exit_code)
            raise ValueError("label cannot be formatted here")
        return int.__str__(self)


def unwritable_part(**kwargs):
    """A stand-in for the writer's temporary files: every write fails with ENOSPC."""
    return open("/dev/full", "r+b")


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the codec forks only with os.fork")
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")


@pytest.fixture
def ranges(monkeypatch):
    """Force chunks of at most ``cells`` cells and ``cpus`` available CPUs."""
    def force(cpus, cells=7):
        monkeypatch.setattr(data_module, "_CHUNK_CELLS", cells)
        monkeypatch.setattr(data_module, "_available_cpus", lambda: cpus)
    return force


@needs_fork
class TestParallelWriter:
    """``write_csv`` split between this process and one forked writer: the
    same bytes at any CPU count, every failure raised, no child process or
    temporary file left behind."""

    @pytest.mark.parametrize("schema", [XY_SCHEMA, LABEL_FIRST, Schema((("label", "label"),))],
                             ids=["label-last", "label-first", "label-only"])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_ranges_match_csv_writer(self, tmp_path, ranges, schema, cpus):
        ranges(cpus)
        data = TestWriterOracle().dataset(schema, 3 * len(ADVERSARIAL_LABELS))
        write_csv(data, tmp_path / "new.csv")
        reference_write_csv(data, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_empty_table(self, tmp_path, ranges):
        ranges(8)
        data = Dataset(XY_SCHEMA, np.empty((0, 2)), np.array([], dtype=object))
        write_csv(data, tmp_path / "new.csv")
        reference_write_csv(data, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_range_count(self, tmp_path, ranges, forks):
        # 2 rows a chunk: one child at two or more CPUs and four or more chunks
        data = small_dataset(["a"] * 20)
        for rows, cpus, expected in [(20, 1, 0), (20, 2, 1), (20, 64, 1), (7, 64, 1), (5, 64, 0)]:
            ranges(cpus)
            forks.clear()
            write_csv(data.select(range(rows)), tmp_path / "t.csv")
            assert len(forks) == expected, (rows, cpus)

    @needs_dev_full
    def test_oserror_in_a_child(self, tmp_path, ranges, monkeypatch):
        ranges(2)
        monkeypatch.setattr(data_module.tempfile, "TemporaryFile", unwritable_part)
        with pytest.raises(OSError) as err:
            write_csv(small_dataset(["a"] * 20), tmp_path / "out.csv")
        assert err.value.errno == errno.ENOSPC
        assert os.listdir(tmp_path) == ["out.csv"]

    @needs_dev_full
    def test_oserror_in_a_child_exits_2(self, tmp_path, ranges, monkeypatch):
        data = make_surrogate(300, seed=2)
        write_csv(data, tmp_path / "data.csv")
        data.schema.save(tmp_path / "schema.json")
        ranges(2, cells=24 * 20)
        monkeypatch.setattr(data_module.tempfile, "TemporaryFile", unwritable_part)
        code = cli.main(["synthesize", "--input", str(tmp_path / "data.csv"),
                         "--schema", str(tmp_path / "schema.json"), "--minority-label", "12",
                         "--classifiers", "nb", "--out", str(tmp_path / "run")])
        assert code == 2
        assert sorted(os.listdir(tmp_path)) == ["data.csv", "schema.json"]  # no run directory

    def test_bug_in_a_child_propagates_out_of_run_sweep(self, tmp_path, ranges, monkeypatch):
        data = make_surrogate(300, seed=2)
        write_csv(data, tmp_path / "data.csv")
        data.schema.save(tmp_path / "schema.json")
        relabelled = Dataset(data.schema, data.features, [PidLabel(v) for v in data.labels])
        monkeypatch.setattr(pipeline, "load_csv", lambda path, schema: relabelled)
        ranges(2, cells=24 * 20)
        cfg = pipeline.PipelineConfig(
            input=str(tmp_path / "data.csv"), schema=str(tmp_path / "schema.json"),
            minority_label=12, smote=SmoteConfig(), noise=NoiseConfig(), classifiers=("nb",),
            out_dir=str(tmp_path / "sweep"))
        with pytest.raises(RuntimeError, match="ValueError: label cannot be formatted here"):
            pipeline.run_sweep(cfg, pipeline.SweepGrid((0.3,), (100,), (2,)))
        assert sorted(os.listdir(tmp_path)) == ["data.csv", "schema.json"]  # no sweep directory

    def test_child_that_dies_without_a_report(self, tmp_path, ranges):
        ranges(2)
        data = small_dataset([PidLabel(1, exit_code=3)] * 20)
        with pytest.raises(RuntimeError, match="wait status"):
            write_csv(data, tmp_path / "out.csv")
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_parent_failure_reaps_the_children(self, tmp_path, ranges):
        ranges(4)
        data = small_dataset([PidLabel(1, fail_home=True)] * 20)
        with pytest.raises(ValueError, match="label cannot be formatted here"):
            write_csv(data, tmp_path / "out.csv")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert os.listdir(tmp_path) == ["out.csv"]


def fail_in_children(monkeypatch, exc):
    """Make ``_write_rows`` raise ``exc`` in every process but this one."""
    real, pid = data_module._write_rows, os.getpid()

    def failing(*args):
        if os.getpid() != pid:
            raise exc
        return real(*args)
    monkeypatch.setattr(data_module, "_write_rows", failing)


def surrogate_input(tmp_path):
    """A 300-row sensor table and its schema on disk; under four chunks when released."""
    data = make_surrogate(300, seed=2)
    write_csv(data, tmp_path / "data.csv")
    data.schema.save(tmp_path / "schema.json")
    return data


@needs_fork
class TestWriteMeanwhile:
    """``write_csv(meanwhile=...)``: ``meanwhile``'s result and the same bytes;
    ``meanwhile`` runs once the header is written, and on two CPUs while one
    forked writer formats all the rows (under four chunks) or the second half
    of them."""

    @pytest.mark.parametrize("cpus, rows, forked", [(2, 5, 1), (2, 60, 1), (1, 5, 0), (1, 60, 0)],
                             ids=["overlap", "ranges", "one-cpu-small", "one-cpu-large"])
    def test_result_and_bytes(self, tmp_path, ranges, forks, cpus, rows, forked):
        ranges(cpus)  # 2 rows a chunk: 5 rows are 3 chunks, 60 rows are 30
        data = TestWriterOracle().dataset(XY_SCHEMA, rows)
        calls = []
        assert write_csv(data, tmp_path / "new.csv", meanwhile=lambda: calls.append(1) or "done") == "done"
        assert calls == [1]
        assert len(forks) == forked
        reference_write_csv(data, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("cpus, rows", [(2, 5), (2, 60), (1, 5)],
                             ids=["overlap", "ranges", "one-cpu"])
    def test_when_meanwhile_runs(self, tmp_path, ranges, cpus, rows):
        ranges(cpus)
        path = tmp_path / "t.csv"
        assert write_csv(small_dataset(["a"] * rows), path, meanwhile=path.exists) is True

    def test_meanwhile_failure_kills_the_writer(self, tmp_path, ranges, forks, monkeypatch):
        ranges(2)
        real, pid = data_module._write_rows, os.getpid()

        def stalled(*args):
            if os.getpid() != pid:
                time.sleep(60)
            return real(*args)
        monkeypatch.setattr(data_module, "_write_rows", stalled)
        failure = KeyError("meanwhile failed")

        def failing():
            raise failure
        for rows in (5, 60):  # the child formats every row, or the second half
            forks.clear()
            started = time.monotonic()
            with pytest.raises(KeyError) as err:
                write_csv(small_dataset(["a"] * rows), tmp_path / "out.csv", meanwhile=failing)
            assert err.value is failure
            assert len(forks) == 1
            assert time.monotonic() - started < 30  # killed, not waited for
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            assert os.listdir(tmp_path) == ["out.csv"]

    def test_oserror_in_the_writer(self, tmp_path, ranges, monkeypatch):
        ranges(2)
        fail_in_children(monkeypatch, OSError(errno.ENOSPC, "No space left on device"))
        calls = []
        with pytest.raises(OSError) as err:
            write_csv(small_dataset(["a"] * 5), tmp_path / "out.csv", meanwhile=lambda: calls.append(1))
        assert err.value.errno == errno.ENOSPC
        assert calls == [1]

    def test_bug_in_the_writer(self, tmp_path, ranges):
        ranges(2)
        data = small_dataset([PidLabel(1)] * 5)
        with pytest.raises(RuntimeError, match="ValueError: label cannot be formatted here"):
            write_csv(data, tmp_path / "out.csv", meanwhile=lambda: None)

    def test_oserror_in_the_writer_exits_2(self, tmp_path, monkeypatch, forks):
        surrogate_input(tmp_path)
        monkeypatch.setattr(data_module, "_available_cpus", lambda: 2)
        fail_in_children(monkeypatch, OSError(errno.ENOSPC, "No space left on device"))
        code = cli.main(["synthesize", "--input", str(tmp_path / "data.csv"),
                         "--schema", str(tmp_path / "schema.json"), "--minority-label", "12",
                         "--classifiers", "nb", "--out", str(tmp_path / "run")])
        assert code == 2
        assert len(forks) == 1
        assert sorted(os.listdir(tmp_path)) == ["data.csv", "schema.json"]  # no run directory

    def test_bug_in_the_writer_propagates_out_of_run_sweep(self, tmp_path, monkeypatch, forks):
        data = surrogate_input(tmp_path)
        relabelled = Dataset(data.schema, data.features, [PidLabel(v) for v in data.labels])
        monkeypatch.setattr(pipeline, "load_csv", lambda path, schema: relabelled)
        monkeypatch.setattr(data_module, "_available_cpus", lambda: 2)
        cfg = pipeline.PipelineConfig(
            input=str(tmp_path / "data.csv"), schema=str(tmp_path / "schema.json"),
            minority_label=12, smote=SmoteConfig(), noise=NoiseConfig(), classifiers=("nb",),
            out_dir=str(tmp_path / "sweep"))
        with pytest.raises(RuntimeError, match="ValueError: label cannot be formatted here"):
            pipeline.run_sweep(cfg, pipeline.SweepGrid((0.3,), (100,), (2,)))
        assert len(forks) == 1
        assert sorted(os.listdir(tmp_path)) == ["data.csv", "schema.json"]  # no sweep directory


# int labels and labels that must stay strings, on every side of each split
READER_LABELS = ["a", "7", "007", "-0", "12", "b"]
# a field longer than this makes csv.reader fail (see `small_field_limit`)
SMALL_FIELD_LIMIT = 64


# 800 rows of 2-row chunks make 400 chunks and about 16 kB, so the header's
# read (8 kB of text) ends before row 500, which lies in range 2; row 80 lies
# in range 1
N_ROWS, IN_RANGE_1, IN_RANGE_2 = 800, 80, 500


def reader_rows():
    return [f"{i * 0.25!r},{-i / 3!r},{READER_LABELS[i % len(READER_LABELS)]}" for i in range(N_ROWS)]


def replaced(rows, at: dict):
    """``rows`` with each row ``i`` in ``at`` replaced by ``at[i]``."""
    return [at.get(i, row) for i, row in enumerate(rows)]


def lf(rows):
    return "\n".join(rows) + "\n"


# the data rows after the header, from reader_rows()
READER_CASES = {
    "LF": lf,
    "CRLF": lambda r: "\r\n".join(r) + "\r\n",
    "lone CR": lambda r: "\r".join(r) + "\r",
    "mixed terminators": lambda r: "".join(row + ["\n", "\r\n", "\r"][i % 3] for i, row in enumerate(r)),
    "no final terminator": lambda r: "\n".join(r),
    "blank line in range 2": lambda r: lf(replaced(r, {IN_RANGE_2: ""})),
    "bad cell in range 2": lambda r: lf(replaced(r, {IN_RANGE_2: "1.0,oops,a"})),
    "wrong-width row in range 2": lambda r: lf(replaced(r, {IN_RANGE_2: "1.0,a"})),
    "bad cells in ranges 1 and 2": lambda r: lf(replaced(r, {IN_RANGE_1: "1.0,x,a", IN_RANGE_2: "y,1.0,a"})),
    "quote in range 2": lambda r: lf(replaced(r, {IN_RANGE_2: '1.0,2.0,"q,\nr"'})),
    "over-long field in range 2": lambda r: lf(replaced(r, {IN_RANGE_2: "1.0,2.0," + "b" * (SMALL_FIELD_LIMIT + 1)})),
    "non-UTF-8 byte in range 2": lambda r: lf(replaced(r, {IN_RANGE_2: "1.0,2.0,\udcff"})),
}


@pytest.fixture
def small_field_limit():
    old = csv.field_size_limit(SMALL_FIELD_LIMIT)
    yield
    csv.field_size_limit(old)


def fail_pread_in_children(monkeypatch, exit_code=None):
    """Make ``os.pread`` raise ``OSError(EIO)``, or end the process with
    ``exit_code``, in every process but this one."""
    real, pid = os.pread, os.getpid()

    def failing(*args):
        if os.getpid() != pid:
            if exit_code is not None:
                os._exit(exit_code)
            raise OSError(errno.EIO, "simulated read error")
        return real(*args)
    monkeypatch.setattr(os, "pread", failing)


def fail_to_convert(monkeypatch, home):
    """Make the chunk conversion raise ValueError only in this process
    (``home``) or only in other processes."""
    real, pid = data_module._convert, os.getpid()

    def failing(*args):
        if (os.getpid() == pid) == home:
            raise ValueError("chunk cannot be converted here")
        return real(*args)
    monkeypatch.setattr(data_module, "_convert", failing)


@needs_fork
class TestParallelReader:
    """``load_csv`` split between this process and one forked reader: the
    same values and label types, or the same error as a serial read, at any
    CPU count; every failure raised and no child left behind."""

    def write(self, tmp_path, body: str, schema=XY_SCHEMA):
        path = tmp_path / "t.csv"
        path.write_bytes((",".join(schema.column_names) + "\r\n" + body)
                         .encode("utf-8", "surrogateescape"))
        return path

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("case", sorted(READER_CASES))
    def test_ranges_match_the_reference(self, tmp_path, ranges, forks, small_field_limit, case, cpus):
        path = self.write(tmp_path, READER_CASES[case](reader_rows()))
        try:
            want = outcome(reference_load_csv, path, XY_SCHEMA)
        except (csv.Error, UnicodeDecodeError):  # the serial read's MalformedCsv
            ranges(1)
            want = outcome(load_csv, path, XY_SCHEMA)
            assert want[0] is MalformedCsv
        ranges(cpus)
        forks.clear()
        assert outcome(load_csv, path, XY_SCHEMA) == want
        assert len(forks) == (0 if case == "lone CR" else min(cpus, 2) - 1)  # no LF to split after

    @pytest.mark.parametrize("cpus", [2, 3, 8])
    def test_quoted_field_across_a_split(self, tmp_path, ranges, forks, cpus):
        # a quoted label whose lines parse as rows, from range 1 into the next
        rows = reader_rows()
        field = '"' + "\n".join(rows).replace("a", "c") + '"'
        path = self.write(tmp_path, lf(replaced(rows, {IN_RANGE_1: f"1.0,2.0,{field}"})))
        ranges(cpus)
        got = outcome(load_csv, path, XY_SCHEMA)
        assert len(forks) == 1
        assert got == outcome(reference_load_csv, path, XY_SCHEMA)
        assert got[0] == (N_ROWS, 2)

    @pytest.mark.parametrize("schema", [LABEL_FIRST, Schema((("label", "label"),))],
                             ids=["label-first", "label-only"])
    def test_other_label_positions(self, tmp_path, ranges, forks, schema):
        rows = [",".join([row.rsplit(",", 1)[1], *row.split(",")[:schema.dim]])
                for row in reader_rows()]
        path = self.write(tmp_path, lf(rows), schema)
        ranges(2, cells=2 * len(schema.columns))
        assert outcome(load_csv, path, schema) == outcome(reference_load_csv, path, schema)
        assert len(forks) == 1

    def test_range_count(self, tmp_path, ranges, forks):
        # 2 rows a chunk: one child at two or more CPUs and four or more chunks
        for rows, cpus, expected in [(20, 1, 0), (20, 2, 1), (20, 64, 1), (7, 64, 1), (5, 64, 0)]:
            ranges(cpus)
            path = self.write(tmp_path, "1.5,2.5,a\n" * rows)
            forks.clear()
            assert len(load_csv(path, XY_SCHEMA)) == rows
            assert len(forks) == expected, (rows, cpus)

    def test_quoted_header_reads_serially(self, tmp_path, ranges, forks):
        ranges(2)
        path = tmp_path / "t.csv"
        path.write_text('"x",y,label\n' + lf(reader_rows()), encoding="utf-8")
        assert outcome(load_csv, path, XY_SCHEMA) == outcome(reference_load_csv, path, XY_SCHEMA)
        assert not forks

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo_reads_serially(self, tmp_path, ranges, forks):
        ranges(2)
        path = self.write(tmp_path, lf(reader_rows()))
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        feeder = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
        feeder.start()
        try:
            got = outcome(load_csv, fifo, XY_SCHEMA)
        finally:
            feeder.join()
        assert not forks
        assert got == outcome(reference_load_csv, path, XY_SCHEMA)

    def test_read_only_directory(self, tmp_path, ranges, forks):
        ranges(2)
        folder = tmp_path / "read-only"
        folder.mkdir()
        path = self.write(folder, lf(reader_rows()))
        folder.chmod(0o555)
        try:
            got = outcome(load_csv, path, XY_SCHEMA)
        finally:
            folder.chmod(0o755)
        assert len(forks) == 1
        assert got == outcome(reference_load_csv, path, XY_SCHEMA)

    def test_oserror_in_a_child(self, tmp_path, ranges, monkeypatch):
        ranges(2)
        path = self.write(tmp_path, lf(reader_rows()))
        fail_pread_in_children(monkeypatch)
        with pytest.raises(OSError) as err:
            load_csv(path, XY_SCHEMA)
        assert err.value.errno == errno.EIO
        assert err.value.strerror == "simulated read error"

    def test_oserror_in_a_child_exits_2(self, tmp_path, ranges, forks, monkeypatch, capsys):
        data = make_surrogate(300, seed=2)
        write_csv(data, tmp_path / "data.csv")
        data.schema.save(tmp_path / "schema.json")
        ranges(2, cells=24 * 20)
        fail_pread_in_children(monkeypatch)
        forks.clear()
        code = cli.main(["audit", "--input", str(tmp_path / "data.csv"),
                         "--schema", str(tmp_path / "schema.json")])
        assert code == 2
        assert len(forks) == 1
        assert "simulated read error" in capsys.readouterr().err

    def test_bug_in_a_child(self, tmp_path, ranges, monkeypatch):
        ranges(2)
        path = self.write(tmp_path, lf(reader_rows()))
        fail_to_convert(monkeypatch, home=False)
        with pytest.raises(RuntimeError, match="a load_csv child failed:(.|\n)*ValueError: chunk cannot"):
            load_csv(path, XY_SCHEMA)

    def test_child_that_dies_without_a_report(self, tmp_path, ranges, monkeypatch):
        ranges(2)
        path = self.write(tmp_path, lf(reader_rows()))
        fail_pread_in_children(monkeypatch, exit_code=3)
        with pytest.raises(RuntimeError, match="a load_csv child ended with wait status"):
            load_csv(path, XY_SCHEMA)

    def test_child_that_ends_while_sending(self, tmp_path, ranges, monkeypatch):
        ranges(2)
        path = self.write(tmp_path, "1.5,2.5,a\n" * 4000)  # 1000 chunks, 32 kB of floats a range
        pickle, pid = data_module.pickle, os.getpid()
        real = pickle.dump

        def ending(obj, file, **kwargs):
            if os.getpid() != pid:  # send half the payload, then end
                payload = pickle.dumps(obj, **kwargs)
                file.write(payload[:len(payload) // 2])
                file.flush()
                os._exit(3)
            return real(obj, file, **kwargs)
        monkeypatch.setattr(pickle, "dump", ending)
        with pytest.raises(RuntimeError, match="a load_csv child ended with wait status 768"):
            load_csv(path, XY_SCHEMA)

    def test_parent_failure_reaps_the_children(self, tmp_path, ranges, forks, monkeypatch):
        ranges(4)
        path = self.write(tmp_path, lf(reader_rows()))
        fail_to_convert(monkeypatch, home=True)
        with pytest.raises(ValueError, match="chunk cannot be converted here"):
            load_csv(path, XY_SCHEMA)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def exit_in_child():
    os._exit(3)


def raise_os_error():
    raise OSError(errno.ENOSPC, "no space left")


@needs_fork
class TestChild:
    """``_Child.wait`` closes the read end of its pipe however the call ended,
    not only when the ``_Child`` is freed."""

    @pytest.mark.parametrize("fn, raised", [
        (lambda: 7, None),
        (lambda: 1 / 0, RuntimeError),
        (raise_os_error, OSError),
        (exit_in_child, RuntimeError),
    ], ids=["returned", "raised", "os-error", "exited"])
    def test_wait_closes_the_pipe(self, fn, raised):
        with data_module._Child("test", fn) as child:
            if raised is None:
                assert child.wait() == 7
            else:
                with pytest.raises(raised):
                    child.wait()
            assert child._pipe.closed


class TestWithoutFork:
    """Where there is no ``os.fork`` the codec reads and writes in this
    process alone, with the bytes and values of the references."""

    @pytest.fixture(autouse=True)
    def no_fork(self, ranges, monkeypatch):
        ranges(2)  # two CPUs and 2 rows a chunk: only the missing os.fork keeps it serial
        if hasattr(os, "fork"):
            monkeypatch.delattr(os, "fork")

    @pytest.mark.parametrize("rows", [5, 60], ids=["3-chunks", "30-chunks"])
    def test_write_csv(self, tmp_path, rows):
        data = TestWriterOracle().dataset(XY_SCHEMA, rows)
        reference_write_csv(data, tmp_path / "old.csv")
        write_csv(data, tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert write_csv(data, tmp_path / "meanwhile.csv", meanwhile=lambda: "done") == "done"
        assert (tmp_path / "meanwhile.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("case", ["LF", "CRLF", "bad cell in range 2", "quote in range 2"])
    def test_load_csv(self, tmp_path, case):
        path = TestParallelReader().write(tmp_path, READER_CASES[case](reader_rows()))
        assert outcome(load_csv, path, XY_SCHEMA) == outcome(reference_load_csv, path, XY_SCHEMA)


class TestStratifiedSplit:
    def test_exact_division(self):
        data = small_dataset(["a"] * 50 + ["b"] * 50)
        train, test = stratified_split(data, 0.2, seed=7)
        counts = test.class_counts()
        assert counts == {"a": 10, "b": 10}
        assert len(train) == 80

    def test_three_class_hand_count(self):
        data = small_dataset(["a"] * 30 + ["b"] * 60 + ["c"] * 90)
        _, test = stratified_split(data, 0.3, seed=7)
        assert test.class_counts() == {"a": 9, "b": 18, "c": 27}

    def test_determinism(self):
        data = small_dataset(["a"] * 40 + ["b"] * 20)
        t1 = stratified_split(data, 0.25, seed=11)
        t2 = stratified_split(data, 0.25, seed=11)
        assert np.array_equal(t1[0].features, t2[0].features)
        assert np.array_equal(t1[1].features, t2[1].features)

    def test_partition_law(self):
        data = small_dataset(list("aabbbccccdd") * 9)
        train, test = stratified_split(data, 0.4, seed=2)
        assert len(train) + len(test) == len(data)
        seen = {tuple(row) for row in train.features} | {tuple(row) for row in test.features}
        assert len(seen) == len(data)  # rows are random floats, so all distinct

    def test_class_too_small(self):
        data = small_dataset(["a", "a", "b"])
        with pytest.raises(ClassTooSmall):
            stratified_split(data, 0.5, seed=0)


class TestShuffleClassSubset:
    def test_full_count_keeps_multiset(self):
        data = small_dataset(["a"] * 10 + ["b"] * 5)
        out = shuffle_class_subset(data, "a", 10, seed=3)
        assert sorted(map(tuple, out.features.tolist())) == sorted(
            map(tuple, data.features.tolist())
        )

    def test_deterministic_subset(self):
        data = small_dataset(["m"] * 10)
        one = shuffle_class_subset(data, "m", 5, seed=9)
        two = shuffle_class_subset(data, "m", 5, seed=9)
        assert np.array_equal(one.features, two.features)
        assert len(one) == 5

    def test_half_amount_trace(self):
        # an oversampling amount below 100% keeps (E/100) * M records and
        # proceeds with the reduced set: E=50%, M=10 -> 5 retained
        data = small_dataset(["m"] * 10)
        kept = shuffle_class_subset(data, "m", (50 * 10) // 100, seed=1)
        assert len(kept) == 5

    def test_other_classes_untouched(self):
        data = small_dataset(["a"] * 6 + ["b"] * 4)
        out = shuffle_class_subset(data, "a", 2, seed=5)
        b_rows_before = data.features[np.array([l == "b" for l in data.labels])]
        b_rows_after = out.features[np.array([l == "b" for l in out.labels])]
        assert np.array_equal(b_rows_before, b_rows_after)

    def test_count_exceeds_class(self):
        data = small_dataset(["a"] * 3 + ["b"])
        with pytest.raises(CountExceedsClass):
            shuffle_class_subset(data, "a", 4, seed=0)


class TestSeedsAndHelpers:
    def test_derive_seed_is_stable_and_distinct(self):
        a = derive_seed(42, "split")
        assert a == derive_seed(42, "split")
        assert a != derive_seed(42, "noise")
        assert a != derive_seed(43, "split")
        assert 0 <= a < 2 ** 64

    def test_derive_seed_numpy_scalars_match_builtins(self):
        assert derive_seed(1, np.float64(0.3)) == derive_seed(1, 0.3)
        assert derive_seed(1, np.int64(5)) == derive_seed(1, 5)
        assert derive_seed(1, np.str_("noise")) == derive_seed(1, "noise")
        # builtin contexts keep the seeds every earlier release derived
        assert derive_seed(42, "split") == 2826387147738561114
        assert derive_seed(7, "grid", repr(0.3), 500, 2) == 1395470996545622506

    def test_sorted_labels_natural_then_fallback(self):
        assert sorted_labels([3, 1, 2]) == [1, 2, 3]
        assert sorted_labels(["b", "a"]) == ["a", "b"]
        assert sorted_labels([2, "a", 1]) == [1, 2, "a"]

    def test_concat_requires_shared_schema(self):
        data = small_dataset(["a", "b"])
        other_schema = Schema((("z", "numeric"), ("label", "label")))
        other = Dataset(other_schema, np.ones((1, 1)), np.array(["a"], dtype=object))
        with pytest.raises(ValidationError):
            concat_datasets([data, other])


def _xy(rows, labels):
    return Dataset(XY_SCHEMA, np.asarray(rows, dtype=float), labels)


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: Schema((("x", "numeric"), ("t", "text"), ("label", "label"))), ValidationError,
     "unknown column kind"),
    (lambda: XY_SCHEMA.feature_index("z"), MissingColumn, "missing or mismatched column 'z'"),
    (lambda: Dataset(XY_SCHEMA, np.zeros(2), ["a"]), ValidationError,
     "features must be a 2-D array"),
    (lambda: _xy([[0, 0], [1, 1]], ["a"]), ValidationError,
     "features and labels disagree on record count"),
    (lambda: concat_datasets([]), ValidationError, "nothing to concatenate"),
    (lambda: stratified_split(_xy([[0, 0], [1, 1]], ["a", "a"]), 1.0, 0), ValidationError,
     r"test_fraction must be in \(0, 1\)"),
    (lambda: shuffle_class_subset(_xy([[0, 0]], ["a"]), "a", -1, 0), ValidationError,
     "count must be non-negative"),
], ids=["column-kind", "feature-index", "1-D features", "record-count", "empty-concat",
        "split-fraction", "negative-subset"])
def test_guard_rejects(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()

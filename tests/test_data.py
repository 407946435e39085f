import csv
import math

import numpy as np
import pytest

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

import numpy as np
import pytest

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
    MissingColumn,
    NonNumericCell,
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

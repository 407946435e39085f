import json
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from privsynth import anonymity
from privsynth.anonymity import (
    EquivalenceClasses,
    QuasiIdentifierSpec,
    check_k_anonymity,
    equivalence_classes,
    generalize,
    risk_report,
)
from privsynth.data import Dataset, Schema, derive_seed, load_csv, write_csv
from privsynth.errors import UnknownColumn, ValidationError, ZeroBins
from privsynth.noise import NoiseConfig, perturb
from privsynth.surrogate import make_surrogate


def table(feats, labels=None):
    feats = np.atleast_2d(np.asarray(feats, dtype=float))
    schema = Schema(
        tuple((f"f{i}", "numeric") for i in range(feats.shape[1])) + (("label", "label"),)
    )
    if labels is None:
        labels = ["a"] * feats.shape[0]
    return Dataset(schema, feats, np.array(labels, dtype=object))


def bruteforce_groups(generalized, columns):
    """O(n^2) pairwise-comparison grouping oracle."""
    cols = [generalized.schema.feature_index(c) for c in columns]
    keys = generalized.features[:, cols]
    n = len(generalized)
    assigned = [-1] * n
    groups = []
    for i in range(n):
        if assigned[i] >= 0:
            continue
        members = [i]
        assigned[i] = len(groups)
        for j in range(i + 1, n):
            if assigned[j] < 0 and np.array_equal(keys[i], keys[j]):
                members.append(j)
                assigned[j] = assigned[i]
        groups.append(members)
    return sorted(sorted(g) for g in groups)


def reference_bin_column(values, bins):
    """The equal-width bin formula as it stood before overflowing ranges were
    scaled, with the column maximum in the top bin: every column whose
    ``(hi - lo) * bins`` is finite keeps these indices bit for bit."""
    lo = values.min()
    hi = values.max()
    if hi == lo:
        return np.zeros(values.shape, dtype=np.float64)
    width = hi - lo
    codes = np.floor((values - lo) * bins / (width + 1e-9 * width))
    codes[values == hi] = np.floor(np.nextafter(float(bins), 0))
    return codes


def reference_equivalence_ids(data, spec):
    """The float-lexsort grouping that the packed words replace: ``np.lexsort``
    over the ``(n, kept)`` matrix of generalized QI values, the last kept
    column most significant, and a class at each change of sorted row."""
    kept = [c for c in spec.columns if spec.rule_for(c) != "drop"]
    generalized = generalize(data, spec)
    keys = generalized.features[:, [generalized.schema.feature_index(c) for c in kept]]
    order = np.lexsort(keys.T) if keys.shape[1] else np.arange(len(keys))
    ordered = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ids = np.empty(len(keys), dtype=np.intp)
    ids[order] = np.cumsum(starts) - 1
    return ids


def assert_reference_ids(data, spec):
    classes = equivalence_classes(data, spec)
    expected = reference_equivalence_ids(data, spec)
    assert classes.ids.dtype == np.intp
    assert classes.ids.tolist() == expected.tolist()
    assert classes.counts.tolist() == np.bincount(expected).tolist()


class TestSpecValidation:
    def test_unknown_column(self):
        data = table([[1.0, 2.0]])
        spec = QuasiIdentifierSpec(("nope",), {})
        with pytest.raises(UnknownColumn):
            generalize(data, spec)

    def test_label_column_excluded(self):
        data = table([[1.0, 2.0]])
        spec = QuasiIdentifierSpec(("label",), {})
        with pytest.raises(ValidationError):
            generalize(data, spec)

    def test_zero_bins(self):
        with pytest.raises(ZeroBins):
            QuasiIdentifierSpec(("f0",), {"f0": 0})

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_bin_count(self, flag):
        payload = json.loads(f'{{"columns": ["f0"], "generalization": {{"f0": {json.dumps(flag)}}}}}')
        with pytest.raises(ValidationError, match="bin count must be an int") as err:
            QuasiIdentifierSpec.from_dict(payload)
        assert not isinstance(err.value, ZeroBins)

    def test_empty_columns(self):
        with pytest.raises(ValidationError):
            QuasiIdentifierSpec((), {})

    @pytest.mark.parametrize("call, error, fragment", [
        (lambda: QuasiIdentifierSpec(("f0", "f0")), ValidationError, "duplicate quasi-identifier"),
        (lambda: QuasiIdentifierSpec(("f0",), {"f1": 3}), UnknownColumn, "unknown column 'f1'"),
        (lambda: QuasiIdentifierSpec.from_dict(
            json.loads('{"columns": ["f0"], "generalization": {"f0": 1' + "0" * 400 + "}}")),
         ValidationError, "bin count exceeds"),
        (lambda: risk_report(EquivalenceClasses(np.zeros(3)), 0), ValidationError, "k must be >= 1"),
    ], ids=["duplicate column", "rule for an unlisted column", "bins beyond float64", "k below 1"])
    def test_guard_rejects(self, call, error, fragment):
        with pytest.raises(error, match=fragment):
            call()

    def test_all_numeric_default(self):
        data = table([[1.0, 2.0, 3.0]])
        spec = QuasiIdentifierSpec.all_numeric(data.schema)
        assert spec.columns == ("f0", "f1", "f2")
        assert all(spec.rule_for(c) == 10 for c in spec.columns)


class TestGeneralize:
    def test_identity_is_noop(self):
        data = table([[1.5, 2.5], [3.5, 4.5]])
        spec = QuasiIdentifierSpec(("f0", "f1"), {"f0": "identity"})
        out = generalize(data, spec)
        assert np.array_equal(out.features, data.features)

    def test_hand_binning(self):
        # values {0, 5, 10} in 2 bins -> bins {0, 0, 1}
        data = table([[0.0], [5.0], [10.0]])
        out = generalize(data, QuasiIdentifierSpec(("f0",), {"f0": 2}))
        assert out.features[:, 0].tolist() == [0.0, 0.0, 1.0]

    def test_maximum_lands_in_top_bin(self):
        data = table([[float(v)] for v in range(11)])
        out = generalize(data, QuasiIdentifierSpec(("f0",), {"f0": 10}))
        assert out.features[-1, 0] == 9.0
        assert out.features[0, 0] == 0.0

    def test_constant_column_single_bin(self):
        data = table([[3.0], [3.0], [3.0]])
        out = generalize(data, QuasiIdentifierSpec(("f0",), {"f0": 4}))
        assert out.features[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_drop_removes_column(self):
        data = table([[1.0, 2.0], [3.0, 4.0]])
        out = generalize(data, QuasiIdentifierSpec(("f0", "f1"), {"f0": "drop"}))
        assert out.schema.feature_names == ["f1"]
        assert out.features.shape == (2, 1)
        assert out.features[:, 0].tolist() == [2.0, 4.0]


class TestEquivalenceClasses:
    def test_single_group(self):
        data = table([[1.0], [1.0], [1.0]])
        classes = equivalence_classes(data, QuasiIdentifierSpec(("f0",), {}))
        assert classes.sizes() == [3]

    def test_hand_grouping(self):
        data = table([[1.0], [1.0], [2.0]])
        classes = equivalence_classes(data, QuasiIdentifierSpec(("f0",), {}))
        assert sorted(classes.sizes()) == [1, 2]

    def test_partition_law_random_tables(self):
        rng = np.random.default_rng(0)
        cases = [(rng.integers(0, 4, size=(int(rng.integers(2, 100)), 3)), {}, None)
                 for _ in range(25)]
        cases += [
            (rng.normal(size=(30, 3)), dict.fromkeys(("f0", "f1", "f2"), "drop"), [30]),
            (np.empty((0, 3)), {}, []),
            (rng.normal(size=(1, 3)), {"f0": 3}, [1]),
            (rng.integers(0, 2, size=(600, 3)), {}, None),
            (rng.normal(size=(500, 3)), {"f0": 5, "f1": 5, "f2": "drop"}, None),
        ]
        for feats, rules, sizes in cases:
            data = table(np.asarray(feats, dtype=float).reshape(-1, 3))
            classes = equivalence_classes(data, QuasiIdentifierSpec(("f0", "f1", "f2"), rules))
            n = len(data)
            assert classes.ids.dtype == np.intp and classes.ids.shape == (n,)
            assert sum(classes.sizes()) == n
            assert np.array_equal(classes.counts, np.bincount(classes.ids))
            assert [len(idx) for idx in classes.groups.values()] == classes.sizes()
            members = sorted(i for idx in classes.groups.values() for i in idx)
            assert members == list(range(n))
            assert all(classes.ids[i] == c for c, idx in classes.groups.items() for i in idx)
            if sizes is not None:
                assert classes.sizes() == sizes

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(1)
        cases = [(rng.normal(size=(int(rng.integers(2, 100)), 2)), {"f0": 3, "f1": 3})
                 for _ in range(25)]
        cases += [
            (rng.normal(size=(40, 2)), {"f0": "drop", "f1": "drop"}),
            (np.empty((0, 2)), {"f0": "identity"}),
            (rng.normal(size=(1, 2)), {"f0": 3, "f1": 3}),
            (np.array([[-0.0, 1.0], [0.0, 1.0], [0.0, 2.0], [-0.0, 2.0]]), {}),
            (rng.integers(0, 3, size=(90, 2)) * 0.5, {}),
            (rng.normal(size=(400, 2)), {"f0": 8, "f1": "identity"}),
            (rng.normal(size=(400, 2)), {"f0": 6, "f1": 6}),
        ]
        for feats, rules in cases:
            data = table(np.asarray(feats).reshape(-1, 2))
            spec = QuasiIdentifierSpec(("f0", "f1"), rules)
            classes = equivalence_classes(data, spec)
            got = sorted(sorted(v) for v in classes.groups.values())
            kept = [c for c in spec.columns if spec.rule_for(c) != "drop"]
            expected = bruteforce_groups(generalize(data, spec), kept)
            assert got == expected

            sizes = [len(group) for group in expected]
            for k in (1, 2, 3):
                report = risk_report(classes, k)
                at_risk = sum(size for size in sizes if size < k)
                assert report.class_size_histogram == Counter(sizes)
                assert report.at_risk_count == at_risk
                assert report.total == len(data)
                assert report.risk == (at_risk / len(data) if len(data) else 0.0)
                assert check_k_anonymity(classes, k) == (at_risk == 0)
                hist = report.class_size_histogram
                counts = [*hist, *hist.values(), report.at_risk_count, report.total]
                assert all(type(v) is int for v in counts)
                json.dumps(report.to_dict())

    def test_empty_group_rejected(self):
        # class 1 has no records
        with pytest.raises(ValidationError):
            EquivalenceClasses(np.array([0, 2]))


def random_case(rng):
    """A small table and a random QI spec over some of its columns, in a
    random order, with bins, identity and drop rules."""
    n, d = int(rng.integers(0, 120)), int(rng.integers(1, 6))
    makers = [
        lambda: rng.integers(0, 3, n).astype(float),  # few values, many ties
        lambda: rng.normal(size=n),
        lambda: rng.choice([-0.0, 0.0, 1.5, -2.0], n),
        lambda: np.round(rng.normal(scale=1e3, size=n)),
        lambda: rng.choice([-1e308, 1e308, 0.0, 5e307], n),  # ranges that overflow
    ]
    feats = np.column_stack([makers[int(rng.integers(len(makers)))]() for _ in range(d)])
    names = [f"f{i}" for i in rng.permutation(d)[: int(rng.integers(1, d + 1))]]
    choices = [1, 2, 3, 7, 10, 1000, 2**20, 2**40, 2**62 + 1, 2**70, "identity", "drop"]
    rules = {c: choices[int(rng.integers(len(choices)))] for c in names if rng.random() < 0.9}
    return table(feats.reshape(n, d)), QuasiIdentifierSpec(tuple(names), rules)


def grouping_cases():
    rng = np.random.default_rng(7)
    mixed = np.column_stack([
        rng.integers(0, 4, 300), rng.normal(size=300), rng.normal(size=300),
        rng.integers(0, 6, 300) * 0.5, rng.normal(size=300)])
    zeros = np.array([[-0.0, 1], [0.0, 1], [0.0, 2], [-0.0, 2], [1.0, 1], [-1.0, 1], [-0.0, 2]])
    few = rng.integers(0, 3, size=(200, 3)).astype(float)
    distinct_top = np.column_stack([rng.integers(0, 2, 200), rng.permutation(200) - 100.5])
    tied_top = np.column_stack([rng.integers(0, 3, 200), rng.normal(size=200), np.full(200, 5.0)])
    # 56 two-bin columns: a word of 53 reaches 2**53, where float sums stop being exact
    bits = np.vstack([np.ones((3, 56)), np.zeros((1, 56)), rng.integers(0, 2, (20, 56))])
    bits[1, 1] = bits[2, 2] = 0
    return {
        "mixed rules": (mixed, ("f3", "f0", "f1", "f2", "f4"),
                        {"f3": 4, "f0": "identity", "f1": "drop", "f2": 7, "f4": 2}),
        "signed zeros, last": (zeros, ("f1", "f0"), {"f1": 2}),
        "signed zeros, first": (zeros, ("f0", "f1"), {}),
        "one binned column": (mixed, ("f2",), {"f2": 5}),
        "one identity column": (mixed, ("f3",), {}),
        "no kept column": (mixed, ("f0", "f1"), {"f0": "drop", "f1": "drop"}),
        "2**40 bins, three words": (few, ("f0", "f1", "f2"), dict.fromkeys(("f0", "f1", "f2"), 2**40)),
        "bins above 2**62": (few, ("f0", "f1", "f2"), {"f0": 2**62 + 1, "f1": 3, "f2": 2**63}),
        "overflowing range": (np.array([[-1e308], [1e308], [1e308], [0.0], [0.0]]), ("f0",), {"f0": 4}),
        "all-distinct top word": (distinct_top, ("f0", "f1"), {"f0": 2}),
        "all-tied top word": (tied_top, ("f0", "f1", "f2"), {"f0": 3, "f1": 4}),
        "all-tied binned top word": (tied_top, ("f0", "f1", "f2"), {"f0": 3, "f1": 4, "f2": 9}),
        "56 two-bin columns": (bits, tuple(f"f{i}" for i in range(56)), dict.fromkeys(
            (f"f{i}" for i in range(56)), 2)),
        "empty table": (np.empty((0, 3)), ("f0", "f1", "f2"), {"f0": 3, "f1": 2**40}),
    }


class TestGeneralizationCodes:
    def test_bins_keep_their_bits(self):
        rng = np.random.default_rng(11)
        compared = 0
        for scale in (1e-300, 1e-9, 1.0, 1e3, 1e150, 1e300):
            for bins in (1, 2, 3, 10, 1000, 2**40):
                values = rng.normal(scale=scale, size=(50, 2))
                values[:, 1] = np.round(values[:, 1] / scale * 3)  # integers: values on the bin edges
                out = generalize(table(values), QuasiIdentifierSpec(("f0", "f1"), {"f0": bins, "f1": bins}))
                for j in range(2):
                    column = values[:, j]
                    if np.isfinite(float(column.max() - column.min()) * bins):
                        expected = reference_bin_column(column, bins)
                        assert out.features[:, j].tobytes() == expected.tobytes()
                        compared += 1
        assert compared == 71  # all but the widest range at 2**40 bins

    def test_overflowing_range(self):
        data = table([[-1e308], [1e308], [1e308], [0.0], [0.0]])
        out = generalize(data, QuasiIdentifierSpec(("f0",), {"f0": 4}))
        assert out.features[:, 0].tolist() == [0.0, 3.0, 3.0, 1.0, 1.0]
        classes = equivalence_classes(data, QuasiIdentifierSpec(("f0",), {"f0": 4}))
        assert classes.ids.tolist() == [0, 2, 2, 1, 1]

    @pytest.mark.parametrize("bins", [10**9, 2**40, int(sys.float_info.max)])
    def test_maximum_takes_the_top_bin(self, bins):
        values = np.array([[1.0], [0.0], [0.5], [1.0], [np.nextafter(1.0, 0)]])
        codes = generalize(table(values), QuasiIdentifierSpec(("f0",), {"f0": bins})).features[:, 0]
        top = np.floor(np.nextafter(float(bins), 0))
        assert top == (bins - 1 if bins <= 2**53 else np.nextafter(float(bins), 0))
        assert codes[[0, 3]].tolist() == [top, top]
        assert codes[1] == 0 and codes[4] < top
        assert (np.diff(codes[[1, 2, 4, 0]]) >= 0).all()
        assert_reference_ids(table(values), QuasiIdentifierSpec(("f0",), {"f0": bins}))

    @pytest.mark.parametrize("bins", [2, 4, 1000, 2**40, 2**70])
    def test_overflowing_codes_lie_in_range(self, bins):
        values = np.array([-1.7e308, -1e300, -1.0, 0.0, 1e-300, 2.5, 1e307, 1.7e308])
        codes = generalize(table(values[:, None]), QuasiIdentifierSpec(("f0",), {"f0": bins})).features[:, 0]
        assert codes[0] == 0 and codes[-1] < bins
        assert (np.diff(codes) >= 0).all()

    def test_empty_table(self):
        out = generalize(table(np.empty((0, 2))), QuasiIdentifierSpec(("f0", "f1"), {"f0": 3}))
        assert out.features.shape == (0, 2)

    def test_subnormal_range_bins_as_its_unit_multiple(self):
        # 1e-9 * width rounds to 0 at this width: without scaling the maximum
        # lands one bin past the top
        u = 5e-324
        spec = QuasiIdentifierSpec(("f0",), {"f0": 10})
        codes = generalize(table([[0.0], [18 * u], [19 * u], [20 * u]]), spec).features[:, 0]
        unit = generalize(table([[0.0], [18.0], [19.0], [20.0]]), spec).features[:, 0]
        assert codes.tolist() == unit.tolist() == [0.0, 8.0, 9.0, 9.0]
        classes = equivalence_classes(table([[0.0], [18 * u], [19 * u], [20 * u]]), spec)
        assert classes.ids.tolist() == [0, 1, 2, 2]

    def test_extreme_ranges_give_codes_in_range(self):
        big, u = sys.float_info.max, 5e-324
        ends = np.array([big, -big, np.nextafter(big, 0), u, -u, 7 * u, -3 * u, 2**-1022,
                         2**-1000, np.nextafter(2**-1000, 0), 0.0, -0.0, 1.0])
        rng = np.random.default_rng(19)
        for _ in range(400):
            values = rng.choice(ends, size=(5, 2))
            bins = [int(b) for b in rng.choice([1, 2, 3, 10, 2**40, 2**53 + 1, 10**300,
                                                 int(big)], size=2)]
            spec = QuasiIdentifierSpec(("f0", "f1"), {"f0": bins[0], "f1": bins[1]})
            codes = generalize(table(values), spec).features
            assert np.isfinite(codes).all()
            assert (codes == np.floor(codes)).all()
            assert ((0 <= codes) & (codes < np.array(bins, dtype=float))).all()
            top = codes[values.argmax(axis=0), [0, 1]]
            for j, b in enumerate(bins):  # past 10**9 bins the guard epsilon spans whole bins
                if b <= 1000 and values[:, j].max() > values[:, j].min():
                    assert top[j] == b - 1
            assert_reference_ids(table(values), spec)


class TestPackedGrouping:
    """``equivalence_classes`` gives the very ``ids`` of the float-lexsort
    grouping in ``reference_equivalence_ids``, not just the same partition."""

    @pytest.mark.parametrize("case", list(grouping_cases()))
    def test_matches_reference(self, case):
        feats, columns, rules = grouping_cases()[case]
        assert_reference_ids(table(feats), QuasiIdentifierSpec(columns, rules))

    def test_random_specs(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            assert_reference_ids(*random_case(rng))

    def test_layout(self):
        layout = anonymity._layout
        assert layout([3, 3, None, 5], 2**53) == [(0, 2, [1, 3]), (2, 3, None), (3, 4, [1])]
        assert layout([10] * 4, 1000) == [(0, 1, [1]), (1, 4, [1, 10, 100])]
        assert layout([2**40] * 3, 2**53) == [(0, 1, [1]), (1, 2, [1]), (2, 3, [1])]
        assert layout([2**62 + 1, 2], 2**53) == [(0, 1, None), (1, 2, [1])]
        assert layout([], 2**53) == []

    def test_stable_order(self):
        rng = np.random.default_rng(3)
        keys = [rng.integers(0, 4, 500), rng.integers(-2**62, 2**62, 500), np.zeros(1, np.int64),
                np.zeros(0, np.int64), np.array([2**62, -2**62, 2**62, 0])]
        for key in keys:
            key = key.astype(np.int64)
            assert anonymity._stable_order(key).tolist() == np.argsort(key, kind="stable").tolist()

    def test_stable_order_of_full_range_keys(self):
        # keys spanning all of int64 leave no bits for the row index: an
        # unstable sort, with only the runs of equal keys sorted again
        rng = np.random.default_rng(5)
        extremes = np.array([-2**63, 2**63 - 1, 0, -1], dtype=np.int64)
        keys = {
            "all distinct": rng.integers(-2**63, 2**63 - 1, 5000, dtype=np.int64, endpoint=True),
            "heavily tied": rng.choice(extremes, 5000),
            "some tied": np.concatenate([rng.integers(-2**63, 2**63 - 1, 3000, dtype=np.int64),
                                         rng.choice(extremes, 2000)]),
        }
        for case, key in keys.items():
            rng.shuffle(key)
            assert anonymity._stable_order(key).tolist() == np.argsort(key, kind="stable").tolist(), case

AUDIT_POLICIES = ["bins3", "bins10", "bins25", "identity6", "bins4x8", "bins10x12_drop11"]


@pytest.fixture(scope="module")
def audit_table():
    """An 80,000 x 23 perturbed sensor table, built as the audit benchmark builds its input."""
    data = make_surrogate(80000, seed=1729, minority_fraction=0.10)
    return perturb(data, NoiseConfig(level=0.3, seed=derive_seed(1729, "audit")))


def audit_policy(name, schema):
    names = schema.feature_names
    rules = {
        "bins3": {c: 3 for c in names},
        "bins10": {c: 10 for c in names},
        "bins25": {c: 25 for c in names},
        "identity6": {c: "identity" for c in names[:6]},
        "bins4x8": {c: 4 for c in names[:8]},
        "bins10x12_drop11": {**{c: 10 for c in names[:12]}, **{c: "drop" for c in names[12:]}},
    }[name]
    return QuasiIdentifierSpec(tuple(rules), rules)


class TestAuditTable:
    @pytest.mark.parametrize("policy", AUDIT_POLICIES)
    def test_memory_is_bounded(self, audit_table, policy):
        """No O(n x columns) matrix: the float keys of this table alone take 14.7 MB."""
        spec = audit_policy(policy, audit_table.schema)
        tracemalloc.start()
        try:
            classes = equivalence_classes(audit_table, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert classes.ids.tolist() == reference_equivalence_ids(audit_table, spec).tolist()


@pytest.fixture(scope="module")
def audit_table_loaded(audit_table, tmp_path_factory):
    """The audit table written and loaded back, as the audit benchmark loads it."""
    path = tmp_path_factory.mktemp("audit") / "input.csv"
    write_csv(audit_table, path)
    return load_csv(path, audit_table.schema)


@pytest.mark.parametrize("policy", AUDIT_POLICIES)
def test_loaded_extremes_give_the_ids_of_a_reduction(audit_table_loaded, policy):
    """The column ranges that ``load_csv`` hands on group the rows as the
    ranges a copy of its matrix reduces to."""
    loaded = audit_table_loaded
    spec = audit_policy(policy, loaded.schema)
    reduced = Dataset(loaded.schema, loaded.features.copy(), loaded.labels)
    assert "extremes" in vars(loaded) and "extremes" not in vars(reduced)
    assert equivalence_classes(loaded, spec).ids.tolist() == equivalence_classes(reduced, spec).ids.tolist()


def fortran(data):
    """The same table with a column-major feature matrix, as ``load_csv`` builds it."""
    return Dataset(data.schema, np.asfortranarray(data.features), data.labels)


def assert_both_layouts(data, spec):
    """The reference ``ids`` from a column-major copy too, and the same
    generalized bytes from both layouts."""
    column_major = fortran(data)
    assert column_major.features.flags.f_contiguous
    assert_reference_ids(column_major, spec)
    assert generalize(column_major, spec).features.tobytes() == generalize(data, spec).features.tobytes()


@pytest.fixture(scope="module")
def audit_table_fortran(audit_table):
    return fortran(audit_table)


class TestColumnMajorLayout:
    """The grouping and generalization cases again, on column-major tables."""

    @pytest.mark.parametrize("case", list(grouping_cases()))
    def test_grouping_cases(self, case):
        feats, columns, rules = grouping_cases()[case]
        assert_both_layouts(table(feats), QuasiIdentifierSpec(columns, rules))

    def test_random_specs(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            assert_both_layouts(*random_case(rng))

    def test_extreme_subnormal_and_top_bin_cases(self):
        u, big = 5e-324, sys.float_info.max
        assert_both_layouts(table([[0.0], [18 * u], [19 * u], [20 * u]]), QuasiIdentifierSpec(("f0",), {"f0": 10}))
        for bins in (10**9, 2**40, int(big)):
            values = np.array([[1.0], [0.0], [0.5], [1.0], [np.nextafter(1.0, 0)]])
            assert_both_layouts(table(values), QuasiIdentifierSpec(("f0",), {"f0": bins}))
        ends = np.array([big, -big, np.nextafter(big, 0), u, -u, 7 * u, -3 * u, 2**-1022,
                         2**-1000, np.nextafter(2**-1000, 0), 0.0, -0.0, 1.0])
        rng = np.random.default_rng(19)
        for _ in range(400):
            bins = [int(b) for b in rng.choice([1, 2, 3, 10, 2**40, 2**53 + 1, 10**300, int(big)], size=2)]
            assert_both_layouts(table(rng.choice(ends, size=(5, 2))),
                                QuasiIdentifierSpec(("f0", "f1"), {"f0": bins[0], "f1": bins[1]}))

    @pytest.mark.parametrize("policy", AUDIT_POLICIES)
    def test_audit_table_memory_is_bounded(self, audit_table, audit_table_fortran, policy):
        spec = audit_policy(policy, audit_table.schema)
        tracemalloc.start()
        try:
            classes = equivalence_classes(audit_table_fortran, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert classes.ids.tolist() == reference_equivalence_ids(audit_table, spec).tolist()
        generalized = generalize(audit_table_fortran, spec).features
        assert generalized.tobytes() == generalize(audit_table, spec).features.tobytes()

    @pytest.mark.parametrize("rows", [5, 16, 37, 64])
    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_zero_extremes_keep_their_sign(self, rows, first):
        # column 0's minimum and column 1's maximum are held by 0.0 and -0.0
        # both: their sign is that of the last zero, as the row-order
        # reduction of a C-ordered matrix gives it, on either layout and
        # however the reduction folds the rows
        for later in range(1, rows):
            feats = np.column_stack([np.ones(rows), -np.ones(rows), np.arange(rows) - 2.0])
            feats[[0, later], :2] = [[first, first], [-first, -first]]
            expected = (feats.min(axis=0), feats.max(axis=0))
            for layout in (np.ascontiguousarray, np.asfortranarray):
                lo, hi = anonymity._column_ranges(table(layout(feats)), [0, 1, 2])
                assert (lo.tobytes(), hi.tobytes()) == tuple(e.tobytes() for e in expected), (later, layout)
            spec = QuasiIdentifierSpec(("f0", "f1", "f2"), {"f0": 4, "f1": 4, "f2": 3})
            assert_both_layouts(table(feats), spec)


class TestKAnonymity:
    def groups_of(self, *sizes):
        return EquivalenceClasses(np.repeat(np.arange(len(sizes)), sizes))

    def test_k1_always_true(self):
        assert check_k_anonymity(self.groups_of(1, 1, 5), 1)

    def test_min_size_comparison(self):
        classes = self.groups_of(2, 3, 5)
        assert check_k_anonymity(classes, 2)
        assert not check_k_anonymity(classes, 3)

    def test_matches_zero_risk(self):
        for sizes in [(1, 2, 3), (2, 2), (4,), (1,)]:
            classes = self.groups_of(*sizes)
            for k in (1, 2, 3):
                assert check_k_anonymity(classes, k) == (risk_report(classes, k).risk == 0.0)


class TestRiskReport:
    def groups_of(self, *sizes):
        return TestKAnonymity().groups_of(*sizes)

    def test_no_risk_when_all_groups_large(self):
        report = risk_report(self.groups_of(2, 3, 5), 2)
        assert report.risk == 0.0
        assert report.at_risk_count == 0
        assert report.satisfies_k_anonymity

    def test_hand_count(self):
        # sizes {1, 2, 3} at k=2: one record of six at risk
        report = risk_report(self.groups_of(1, 2, 3), 2)
        assert report.at_risk_count == 1
        assert report.risk == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert report.class_size_histogram == {1: 1, 2: 1, 3: 1}
        assert not report.satisfies_k_anonymity

    def test_monotone_in_k(self):
        classes = self.groups_of(1, 2, 2, 3, 5, 8)
        risks = [risk_report(classes, k).risk for k in range(1, 10)]
        assert all(a <= b + 1e-15 for a, b in zip(risks, risks[1:]))

    def test_coarsening_monotonicity(self):
        # fewer bins can only merge groups, never raise the risk
        rng = np.random.default_rng(4)
        for _ in range(20):
            data = table(rng.normal(size=(60, 2)))
            risks = []
            for bins in (12, 6, 3, 1):
                spec = QuasiIdentifierSpec(("f0", "f1"), {"f0": bins, "f1": bins})
                risks.append(risk_report(equivalence_classes(data, spec), 2).risk)
            assert all(a >= b - 1e-15 for a, b in zip(risks, risks[1:]))

    def test_report_serialization(self, tmp_path):
        report = risk_report(self.groups_of(1, 4), 2)
        path = tmp_path / "risk.json"
        report.save(path)
        payload = json.loads(path.read_text())
        assert payload["k"] == 2
        assert payload["risk"] == pytest.approx(0.2)
        assert payload["class_size_histogram"] == {"1": 1, "4": 1}
        assert payload["satisfies_k_anonymity"] is False

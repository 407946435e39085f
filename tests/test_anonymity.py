import json
from collections import Counter

import numpy as np
import pytest

from privsynth.anonymity import (
    EquivalenceClasses,
    QuasiIdentifierSpec,
    check_k_anonymity,
    equivalence_classes,
    generalize,
    risk_report,
)
from privsynth.data import Dataset, Schema
from privsynth.errors import UnknownColumn, ValidationError, ZeroBins


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

    def test_empty_columns(self):
        with pytest.raises(ValidationError):
            QuasiIdentifierSpec((), {})

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

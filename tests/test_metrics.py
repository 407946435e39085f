import json

import numpy as np
import pytest

from privsynth.classifiers import KnnClassifier
from privsynth.data import Dataset, Schema
from privsynth.errors import SchemaMismatch, ValidationError
from privsynth.metrics import (
    ConfusionMatrix,
    evaluate,
    f_measure,
    precision,
    recall,
    report_from_confusion,
)


def table(feats, labels, schema=None):
    feats = np.atleast_2d(np.asarray(feats, dtype=float))
    schema = schema or Schema(
        tuple((f"f{i}", "numeric") for i in range(feats.shape[1])) + (("label", "label"),)
    )
    return Dataset(schema, feats, np.array(labels, dtype=object))


class TestBasicMetrics:
    def test_hand_case(self):
        # TP=8, FP=2, FN=4 -> precision 0.8, recall 2/3, F 8/11
        p = precision(8, 2)
        r = recall(8, 4)
        assert p == pytest.approx(0.8, abs=1e-12)
        assert r == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert f_measure(p, r) == pytest.approx(8.0 / 11.0, abs=1e-12)
        # the published rounded values
        assert round(r, 4) == 0.6667
        assert round(f_measure(p, r), 4) == 0.7273

    def test_zero_denominators(self):
        assert precision(0, 0) == 0.0
        assert recall(0, 0) == 0.0
        assert f_measure(0.0, 0.0) == 0.0

    def test_f_between_zero_and_arithmetic_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            p, r = rng.uniform(0, 1, size=2)
            f = f_measure(p, r)
            assert 0.0 <= f <= (p + r) / 2.0 + 1e-15


class TestConfusionMatrix:
    def test_from_predictions(self):
        cm = ConfusionMatrix.from_predictions(["a", "a", "b", "b"], ["a", "b", "b", "b"])
        assert cm.classes == ("a", "b")
        assert cm.counts.tolist() == [[1, 1], [0, 2]]
        assert cm.total == 4
        assert cm.accuracy == pytest.approx(0.75)

    def test_one_vs_rest(self):
        cm = ConfusionMatrix.from_predictions(
            ["a", "a", "b", "c", "c", "c"], ["a", "b", "b", "c", "c", "a"]
        )
        tp, fp, fn, tn = cm.one_vs_rest("a")
        assert (tp, fp, fn, tn) == (1, 1, 1, 3)
        assert tp + fp + fn + tn == cm.total

    @pytest.mark.parametrize("actual, predicted", [(["a", "z"], ["a", "b"]),
                                                   (["a", "b"], ["z", "b"])])
    def test_label_outside_classes_rejected(self, actual, predicted):
        with pytest.raises(ValidationError, match="'z'"):
            ConfusionMatrix.from_predictions(actual, predicted, classes=("a", "b"))

    def test_counts_must_be_square(self):
        with pytest.raises(ValidationError):
            ConfusionMatrix(("a", "b"), np.zeros((2, 3), dtype=int))


class TestEvalReport:
    def test_perfect_predictions(self):
        cm = ConfusionMatrix.from_predictions(["a", "b", "a"], ["a", "b", "a"])
        report = report_from_confusion("knn", cm)
        assert report.accuracy == 1.0
        assert report.macro_precision == 1.0
        assert report.macro_recall == 1.0
        assert report.macro_f_measure == 1.0

    def test_macro_is_unweighted_mean(self):
        cm = ConfusionMatrix.from_predictions(
            ["a"] * 8 + ["b"] * 2, ["a"] * 6 + ["b"] * 2 + ["b", "a"]
        )
        report = report_from_confusion("dt", cm)
        per = report.per_class
        for name in ("precision", "recall", "f_measure"):
            macro = getattr(report, f"macro_{name}")
            assert macro == pytest.approx(
                sum(v[name] for v in per.values()) / len(per), abs=1e-15
            )

    def test_exact_recomputation_from_counts(self):
        rng = np.random.default_rng(7)
        classes = ("a", "b", "c")
        for _ in range(100):
            counts = rng.integers(0, 20, size=(3, 3))
            if counts.sum() == 0:
                continue
            cm = ConfusionMatrix(classes, counts)
            report = report_from_confusion("x", cm)
            assert report.accuracy == pytest.approx(
                np.trace(counts) / counts.sum(), abs=1e-12
            )
            for i, label in enumerate(classes):
                tp = counts[i, i]
                fp = counts[:, i].sum() - tp
                fn = counts[i, :].sum() - tp
                p = tp / (tp + fp) if tp + fp else 0.0
                r = tp / (tp + fn) if tp + fn else 0.0
                f = 2 * p * r / (p + r) if p + r else 0.0
                got = report.per_class[label]
                assert got["precision"] == pytest.approx(p, abs=1e-12)
                assert got["recall"] == pytest.approx(r, abs=1e-12)
                assert got["f_measure"] == pytest.approx(f, abs=1e-12)

    def test_json_fields(self, tmp_path):
        cm = ConfusionMatrix.from_predictions(["a", "b"], ["a", "b"])
        report = report_from_confusion("nb", cm)
        path = tmp_path / "eval.json"
        report.save(path)
        payload = json.loads(path.read_text())
        assert set(payload) == {
            "classifier", "accuracy", "macro_precision", "macro_recall",
            "macro_f_measure", "confusion",
        }
        assert payload["classifier"] == "nb"
        assert payload["confusion"]["counts"] == [[1, 0], [0, 1]]


class TestEvaluate:
    def test_counts_sum_to_test_size(self):
        rng = np.random.default_rng(3)
        train = table(rng.normal(size=(40, 2)), ["a", "b"] * 20)
        test = table(rng.normal(size=(15, 2)), ["a"] * 8 + ["b"] * 7)
        report = evaluate(KnnClassifier(k=3), train, test)
        assert report.confusion.total == 15

    def test_schema_mismatch(self):
        train = table([[0.0]], ["a"])
        other = Schema((("z", "numeric"), ("label", "label")))
        test = table([[0.0]], ["a"], schema=other)
        with pytest.raises(SchemaMismatch):
            evaluate(KnnClassifier(k=1), train, test)

    def test_unseen_test_class_counts_as_zero_recall(self):
        train = table([[0.0], [1.0]], ["a", "a"])
        test = table([[0.5], [0.6]], ["a", "b"])
        report = evaluate(KnnClassifier(k=1), train, test)
        assert report.per_class["b"]["recall"] == 0.0
        assert report.accuracy == 0.5


@pytest.mark.parametrize("call, fragment", [
    (lambda: ConfusionMatrix(("a", "b"), [[1, -1], [0, 2]]), "counts must be non-negative"),
    (lambda: ConfusionMatrix.from_predictions(["a"], ["a", "b"]),
     "actual and predicted lengths differ"),
], ids=["negative-count", "length-mismatch"])
def test_guard_rejects(call, fragment):
    with pytest.raises(ValidationError, match=fragment):
        call()

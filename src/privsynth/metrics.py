"""Confusion matrices and the precision / recall / F-measure family.

Multi-class results are summarized one-vs-rest: each class contributes its
own precision, recall, and F-measure, and the macro numbers are their
unweighted means. Zero denominators yield 0 by convention.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, sorted_labels
from .errors import SchemaMismatch, ValidationError


def precision(tp: int, fp: int) -> float:
    """TP / (TP + FP); 0 when nothing was selected."""
    total = tp + fp
    return tp / total if total else 0.0


def recall(tp: int, fn: int) -> float:
    """TP / (TP + FN); 0 when nothing was relevant."""
    total = tp + fn
    return tp / total if total else 0.0


def f_measure(p: float, r: float) -> float:
    """Harmonic mean 2PR / (P + R); 0 when both are 0."""
    total = p + r
    return 2.0 * p * r / total if total else 0.0


@dataclass(frozen=True)
class ConfusionMatrix:
    """c x c counts, rows = actual class, columns = predicted class."""

    classes: tuple
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        c = len(self.classes)
        if counts.shape != (c, c):
            raise ValidationError(f"counts must be {c} x {c}")
        if (counts < 0).any():
            raise ValidationError("counts must be non-negative")
        counts.setflags(write=False)
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_predictions(cls, actual, predicted, classes=None) -> "ConfusionMatrix":
        """Counts of each (actual, predicted) pair; ``classes`` defaults to
        every label seen, in ``sorted_labels`` order.

        Raises:
            ValidationError: the lengths differ, or a label is not in ``classes``.
        """
        actual = list(actual)
        predicted = list(predicted)
        if len(actual) != len(predicted):
            raise ValidationError("actual and predicted lengths differ")
        if classes is None:
            classes = sorted_labels(actual + predicted)
        lookup = {label: i for i, label in enumerate(classes)}
        c = len(classes)
        try:
            pairs = [lookup[a] * c + lookup[p] for a, p in zip(actual, predicted)]
        except KeyError as missing:
            raise ValidationError(f"label {missing.args[0]!r} is not one of the classes") from None
        counts = np.bincount(np.array(pairs, dtype=np.int64), minlength=c * c)
        return cls(tuple(classes), counts.reshape(c, c))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / self.total if self.total else 0.0

    def one_vs_rest(self, label) -> tuple[int, int, int, int]:
        """(tp, fp, fn, tn) treating ``label`` as the positive class."""
        i = self.classes.index(label)
        tp = int(self.counts[i, i])
        fp = int(self.counts[:, i].sum()) - tp
        fn = int(self.counts[i, :].sum()) - tp
        tn = self.total - tp - fp - fn
        return tp, fp, fn, tn

    def to_dict(self) -> dict:
        return {"classes": [str(c) for c in self.classes], "counts": self.counts.tolist()}


@dataclass(frozen=True)
class EvalReport:
    """Per-classifier utility summary, recomputable from the confusion matrix."""

    classifier: str
    accuracy: float
    per_class: dict
    macro_precision: float
    macro_recall: float
    macro_f_measure: float
    confusion: ConfusionMatrix

    def to_dict(self) -> dict:
        return {
            "classifier": self.classifier,
            "accuracy": self.accuracy,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f_measure": self.macro_f_measure,
            "confusion": self.confusion.to_dict(),
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")


def report_from_confusion(name: str, confusion: ConfusionMatrix) -> EvalReport:
    per_class = {}
    for label in confusion.classes:
        tp, fp, fn, _ = confusion.one_vs_rest(label)
        p = precision(tp, fp)
        r = recall(tp, fn)
        per_class[label] = {"precision": p, "recall": r, "f_measure": f_measure(p, r)}
    c = len(confusion.classes)
    return EvalReport(
        classifier=name,
        accuracy=confusion.accuracy,
        per_class=per_class,
        macro_precision=sum(v["precision"] for v in per_class.values()) / c,
        macro_recall=sum(v["recall"] for v in per_class.values()) / c,
        macro_f_measure=sum(v["f_measure"] for v in per_class.values()) / c,
        confusion=confusion,
    )


def evaluate(classifier, train: Dataset, test: Dataset) -> EvalReport:
    """Fit on ``train``, predict ``test``, and summarize the outcome.

    The confusion matrix spans every class seen in either split, so a class
    the model never predicts still shows up with zero recall.

    Raises:
        SchemaMismatch: the two datasets disagree on columns.
    """
    if train.schema != test.schema:
        raise SchemaMismatch("train and test schemas differ")
    classifier.fit(train)
    predicted = classifier.predict(test.features)
    classes = sorted_labels(list(train.classes()) + list(test.classes()) + list(predicted))
    confusion = ConfusionMatrix.from_predictions(test.labels.tolist(), predicted, classes)
    return report_from_confusion(getattr(classifier, "name", type(classifier).__name__), confusion)

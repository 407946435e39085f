"""Quasi-identifier generalization and k-anonymity auditing.

A quasi-identifier (QI) is a set of columns that could link released records
back to individuals. Records are grouped into equivalence classes by exact
equality of their generalized QI values; a release is k-anonymous when every
class holds at least k records. The re-identification risk reported here is
the fraction of records sitting in classes smaller than k.

Continuous columns must be generalized before exact-match grouping means
anything; the built-in rule is equal-width binning over the column's own
min/max range.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, Schema
from .errors import UnknownColumn, ValidationError, ZeroBins

DROP = "drop"
IDENTITY = "identity"

DEFAULT_BINS = 10


@dataclass(frozen=True)
class QuasiIdentifierSpec:
    """Which columns form the quasi-identifier and how each is generalized.

    ``generalization`` maps a column name to one of:
      - an int  -> equal-width binning with that many bins,
      - "identity" -> keep values as they are,
      - "drop" -> leave the column out of the audit key (the release keeps it).
    Columns listed in ``columns`` but absent from the map default to
    "identity". The label column may not be a quasi-identifier.
    """

    columns: tuple[str, ...]
    generalization: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        if not self.columns:
            raise ValidationError("quasi-identifier needs at least one column")
        if len(set(self.columns)) != len(self.columns):
            raise ValidationError("duplicate quasi-identifier columns")
        for col, rule in self.generalization.items():
            if col not in self.columns:
                raise UnknownColumn(col)
            if isinstance(rule, int):
                if rule <= 0:
                    raise ZeroBins(f"column {col!r}: bin count must be positive, got {rule}")
            elif rule not in (DROP, IDENTITY):
                raise ValidationError(f"column {col!r}: unknown rule {rule!r}")

    def validate_against(self, schema: Schema) -> None:
        numeric = set(schema.feature_names)
        for col in self.columns:
            if col not in numeric:
                if col == schema.column_names[schema.label_column]:
                    raise ValidationError("the label column cannot be a quasi-identifier")
                raise UnknownColumn(col)

    def rule_for(self, column: str):
        return self.generalization.get(column, IDENTITY)

    @classmethod
    def all_numeric(cls, schema: Schema, bins: int = DEFAULT_BINS) -> "QuasiIdentifierSpec":
        """Default audit spec: every numeric column, equal-width binned."""
        names = tuple(schema.feature_names)
        return cls(names, {name: bins for name in names})

    def to_dict(self) -> dict:
        return {"columns": list(self.columns), "generalization": dict(self.generalization)}

    @classmethod
    def from_dict(cls, payload: dict) -> "QuasiIdentifierSpec":
        try:
            return cls(tuple(payload["columns"]), dict(payload.get("generalization", {})))
        except (KeyError, TypeError, ValueError):
            raise ValidationError('a QI spec is {"columns": [...], "generalization": {...}}') from None


@dataclass(frozen=True, eq=False)
class EquivalenceClasses:
    """Partition of records into classes 0..m-1: ``ids[i]`` is record i's
    class and ``counts[c]`` the size of class c (``np.bincount(ids)``)."""

    ids: np.ndarray
    counts: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ids", np.asarray(self.ids, dtype=np.intp))
        object.__setattr__(self, "counts", np.bincount(self.ids))
        if not self.counts.all():
            raise ValidationError("equivalence classes must be non-empty")

    @property
    def groups(self) -> dict:
        """``{class id: [record indices, ascending]}``."""
        members = np.split(np.argsort(self.ids, kind="stable"), np.cumsum(self.counts))[:-1]
        return {c: idx.tolist() for c, idx in enumerate(members)}

    def sizes(self) -> list[int]:
        return self.counts.tolist()


@dataclass(frozen=True)
class RiskReport:
    """Outcome of a k-anonymity audit over one release."""

    k: int
    class_size_histogram: dict
    at_risk_count: int
    total: int
    risk: float
    satisfies_k_anonymity: bool

    def to_dict(self) -> dict:
        histogram = {str(size): count for size, count in sorted(self.class_size_histogram.items())}
        return {
            "k": self.k,
            "class_size_histogram": histogram,
            "at_risk_count": self.at_risk_count,
            "total": self.total,
            "risk": self.risk,
            "satisfies_k_anonymity": self.satisfies_k_anonymity,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")


def _bin_column(values: np.ndarray, bins: int) -> np.ndarray:
    """Equal-width bin indices over the column's own range.

    The guard epsilon keeps the maximum value inside the top bin. A constant
    column collapses to bin 0.
    """
    lo = values.min()
    hi = values.max()
    if hi == lo:
        return np.zeros(values.shape, dtype=np.float64)
    width = hi - lo
    return np.floor((values - lo) * bins / (width + 1e-9 * width))


def _qi_keys(data: Dataset, spec: QuasiIdentifierSpec) -> tuple[list[str], np.ndarray]:
    """The kept (not dropped) QI column names in spec order, and a fresh
    ``(n, len(kept))`` matrix of their generalized values."""
    spec.validate_against(data.schema)
    kept = [c for c in spec.columns if spec.rule_for(c) != DROP]
    keys = data.features[:, [data.schema.feature_index(c) for c in kept]]
    for j, col in enumerate(kept):
        rule = spec.rule_for(col)
        if isinstance(rule, int):
            keys[:, j] = _bin_column(keys[:, j], rule)
    return kept, keys


def generalize(data: Dataset, spec: QuasiIdentifierSpec) -> Dataset:
    """Apply the per-column generalization rules.

    Binned columns are replaced by their bin index, dropped columns vanish
    from the schema and every record, and everything else passes through.
    """
    kept, keys = _qi_keys(data, spec)
    schema = data.schema.drop_features([c for c in spec.columns if spec.rule_for(c) == DROP])
    feats = data.features[:, [data.schema.feature_index(n) for n in schema.feature_names]]
    feats[:, [schema.feature_index(c) for c in kept]] = keys
    return Dataset(schema, feats, data.labels)


def equivalence_classes(data: Dataset, spec: QuasiIdentifierSpec) -> EquivalenceClasses:
    """Group records by exact (``==``) equality of their generalized QI values:
    sort the rows on the kept QI columns and start a class at each change."""
    _, keys = _qi_keys(data, spec)
    # lexsort needs at least one key; with every column dropped all rows tie
    order = np.lexsort(keys.T) if keys.shape[1] else np.arange(len(keys))
    ordered = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ids = np.empty(len(keys), dtype=np.intp)
    ids[order] = np.cumsum(starts) - 1
    return EquivalenceClasses(ids)


def check_k_anonymity(classes: EquivalenceClasses, k: int) -> bool:
    """True iff every equivalence class holds at least k records."""
    return risk_report(classes, k).satisfies_k_anonymity


def risk_report(classes: EquivalenceClasses, k: int) -> RiskReport:
    """Audit one partition: histogram, at-risk count, and risk fraction.

    A record is at risk when its equivalence class is smaller than k; the
    risk is the at-risk fraction of all records, so risk == 0 exactly when
    the release is k-anonymous.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    sizes, class_counts = np.unique(classes.counts, return_counts=True)
    total = len(classes.ids)
    at_risk = int(classes.counts[classes.counts < k].sum())
    return RiskReport(
        k=k,
        class_size_histogram=dict(zip(sizes.tolist(), class_counts.tolist())),
        at_risk_count=at_risk,
        total=total,
        risk=at_risk / total if total else 0.0,
        satisfies_k_anonymity=at_risk == 0,
    )
